import math

import numpy as np
import pytest

from chiralbag import clifford as cl

MS = (2, 4, 6, 8, 10, 12)


def projectors(rep, theta):
    """Reference chiral bag projectors Pi_+ and Pi_-, written out from the
    formula Pi_-+ = (1 +- exp(theta gt) gt gamma_m)/2 with
    exp(theta gt) = cosh(theta) + sinh(theta) gt."""
    eye = np.eye(rep.d_s)
    a = (np.cosh(theta) * eye + np.sinh(theta) * rep.gamma_tilde) \
        @ rep.gamma_tilde @ rep.gamma_m
    return 0.5 * (eye - a), 0.5 * (eye + a)


@pytest.mark.parametrize("m", MS)
def test_representation_invariants(m):
    rep = cl.build_gamma(m)
    d = rep.d_s
    assert d == 2 ** (m // 2)
    assert len(rep.gammas) == m
    eye = np.eye(d)
    for i, gi in enumerate(rep.gammas):
        assert np.abs(gi.conj().T + gi).max() < 1e-13
        for j, gj in enumerate(rep.gammas):
            target = -2.0 * eye if i == j else np.zeros((d, d))
            assert np.abs(gi @ gj + gj @ gi - target).max() < 1e-13
    gt = rep.gamma_tilde
    assert np.abs(gt @ gt - eye).max() < 1e-13
    assert abs(np.trace(gt)) < 1e-13
    for g in rep.gammas:
        assert np.abs(gt @ g + g @ gt).max() < 1e-13
    x = gt @ rep.gamma_m
    assert np.abs(x @ x - eye).max() < 1e-13


def test_m2_chirality_is_diagonal():
    rep = cl.build_gamma(2)
    assert np.abs(rep.gamma_tilde - np.diag([1.0, -1.0])).max() < 1e-15


def test_invalid_dimension():
    for m in (1, 3, 0, 14):
        with pytest.raises(cl.CliffordError):
            cl.build_gamma(m)


@pytest.mark.parametrize("m", (2, 4, 8))
@pytest.mark.parametrize("theta", (0.0, 0.5, -1.3, 2.0))
def test_projectors(m, theta):
    rep = cl.build_gamma(m)
    pi_plus, pi_minus = projectors(rep, theta)
    eye = np.eye(rep.d_s)
    for p in (pi_plus, pi_minus):
        assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(pi_plus + pi_minus - eye).max() < 1e-13
    # each projects onto half the spinor space
    assert np.trace(pi_minus).real == pytest.approx(rep.d_s / 2, abs=1e-12)
    # the package's product is the reference Pi_+ Pi_+*
    prod = pi_plus @ pi_plus.conj().T
    assert np.abs(cl.pi_plus_product(rep, theta) - prod).max() < 1e-13


def test_disc_boundary_projector_spectrum():
    # m=2: Pi_- has eigenvalues {0, 1} (idempotent, trace 1)
    rep = cl.build_gamma(2)
    _, pi_minus = projectors(rep, 0.8)
    evals = sorted(np.linalg.eigvals(pi_minus).real)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)
    assert evals[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", MS)
def test_pi_plus_product_closed_form(m):
    # cosh/2 (cosh + sinh gt - gt gm) at every m, hermiticity and the
    # theta=0 projector limit
    rep = cl.build_gamma(m)
    prod = cl.pi_plus_product(rep, 0.9)
    c, s = math.cosh(0.9), math.sinh(0.9)
    closed = 0.5 * c * (c * np.eye(rep.d_s) + s * rep.gamma_tilde
                        - rep.gamma_tilde @ rep.gamma_m)
    assert np.abs(prod - closed).max() < 1e-13
    assert np.abs(prod - prod.conj().T).max() < 1e-13
    p0 = cl.pi_plus_product(rep, 0.0)
    assert np.abs(p0 - projectors(rep, 0.0)[0]).max() < 1e-13


@pytest.mark.parametrize("m", (2, 12))
@pytest.mark.parametrize("theta", (4.0, -4.0, 8.0, -8.0))
def test_checks_scale_with_cosh_squared(m, theta):
    # the entries of Pi+- and Pi+ Pi+* grow like cosh^2 theta, and so do
    # their rounding residuals
    rep = cl.build_gamma(m)
    prod = cl.pi_plus_product(rep, theta)
    gt, eye = rep.gamma_tilde, np.eye(rep.d_s)
    c, s = math.cosh(theta), math.sinh(theta)
    closed = 0.5 * c * (c * eye + s * gt - gt @ rep.gamma_m)
    resid = max(np.abs(p @ p - p).max() for p in projectors(rep, theta))
    resid = max(resid, np.abs(prod - closed).max())
    assert resid / (c * c) < 1e-15


@pytest.mark.parametrize("m", MS)
def test_build_gamma_is_cached_and_read_only(m):
    rep = cl.build_gamma(m)
    assert cl.build_gamma(m) is rep
    for a in (*rep.gammas, rep.gamma_tilde):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
