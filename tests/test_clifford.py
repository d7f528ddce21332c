"""The general-m Clifford representation, the reference the cylinder tests
compare against, and the factorization of the cylinder checks' matrices
into d_s/2 copies of the package's 2x2 algebra."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from chiralbag import cli
from chiralbag import cylinder as cy

MS = (2, 4, 6, 8, 10, 12)


@functools.cache
def build_gamma(m):
    """For even m, m skew-adjoint gammas of size d_s = 2^(m/2), the
    chirality gamma_tilde (diag(1, -1) at m = 2) and gamma_m, by iterated
    Pauli/Kronecker products; shared by every test, so read-only."""
    k = m // 2
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.diag([1, -1]))
    gammas = tuple(1j * functools.reduce(
        np.kron, [pauli[2]] * j + [p] + [np.eye(2)] * (k - 1 - j))
        for j in range(k) for p in pauli[:2])
    gt = (1j) ** k * functools.reduce(np.matmul, gammas)
    for a in (*gammas, gt):
        a.flags.writeable = False
    return SimpleNamespace(d_s=2 ** k, gammas=gammas, gamma_tilde=gt,
                           gamma_m=gammas[-1])


def projectors(rep, theta):
    """Reference chiral bag projectors Pi_+ and Pi_-, written out from the
    formula Pi_-+ = (1 +- exp(theta gt) gt gamma_m)/2 with
    exp(theta gt) = cosh(theta) + sinh(theta) gt."""
    eye = np.eye(rep.d_s)
    a = (np.cosh(theta) * eye + np.sinh(theta) * rep.gamma_tilde) \
        @ rep.gamma_tilde @ rep.gamma_m
    return 0.5 * (eye - a), 0.5 * (eye + a)


def pi_plus_product(rep, theta):
    """Reference Pi_+ Pi_+^dagger from the projector itself."""
    pi_plus = projectors(rep, theta)[0]
    return pi_plus @ pi_plus.conj().T


def copies(rep, pair):
    """d_s/2 copies of a 2x2 matrix in the order i1, j(i1), i2, j(i2), ...
    pairing each +1 index i of gt with the nonzero column j(i) of gamma_m."""
    plus = np.flatnonzero(np.diag(rep.gamma_tilde).real > 0)
    order = np.ravel([(i, np.flatnonzero(rep.gamma_m[i])[0]) for i in plus])
    perm = np.eye(rep.d_s)[order]
    return perm.T @ np.kron(np.eye(rep.d_s // 2), pair) @ perm


@pytest.mark.parametrize("m", MS)
def test_representation_invariants(m):
    rep = build_gamma(m)
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
    rep = build_gamma(2)
    assert np.array_equal(rep.gamma_tilde, cy.GAMMA_TILDE)
    assert np.array_equal(rep.gamma_m, cy.GAMMA_M)


def test_invalid_dimension():
    # the checks take no m: verify-cylinder refuses one outside the domain
    # before any check runs
    for m in ("1", "3", "0", "14"):
        assert cli.main(["verify-cylinder", "--m", m]) == 2


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("theta", (0.0, 0.5, -1.3, 2.0))
def test_projectors(m, theta):
    rep = build_gamma(m)
    pi_plus, pi_minus = projectors(rep, theta)
    eye = np.eye(rep.d_s)
    for p in (pi_plus, pi_minus):
        assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(pi_plus + pi_minus - eye).max() < 1e-13
    # each projects onto half the spinor space
    assert np.trace(pi_minus).real == pytest.approx(rep.d_s / 2, abs=1e-12)
    # the reference Pi_+ Pi_+* is copies of the package's 2x2 one
    prod = pi_plus @ pi_plus.conj().T
    assert np.abs(copies(rep, cy._projector_product(theta)) - prod).max() \
        < 1e-13


def test_disc_boundary_projector_spectrum():
    # m=2: Pi_- has eigenvalues {0, 1} (idempotent, trace 1)
    rep = build_gamma(2)
    _, pi_minus = projectors(rep, 0.8)
    evals = sorted(np.linalg.eigvals(pi_minus).real)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)
    assert evals[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", MS)
def test_pi_plus_product_closed_form(m):
    # cosh/2 (cosh + sinh gt - gt gm) at every m, hermiticity, the
    # theta=0 projector limit and tr(2 Pi+ Pi+* / cosh^2) = d_s
    rep = build_gamma(m)
    prod = pi_plus_product(rep, 0.9)
    c, s = math.cosh(0.9), math.sinh(0.9)
    closed = 0.5 * c * (c * np.eye(rep.d_s) + s * rep.gamma_tilde
                        - rep.gamma_tilde @ rep.gamma_m)
    assert np.abs(prod - closed).max() < 1e-13
    assert np.abs(prod - prod.conj().T).max() < 1e-13
    assert np.trace(2.0 * prod).real / (c * c) == pytest.approx(rep.d_s)
    p0 = pi_plus_product(rep, 0.0)
    assert np.abs(p0 - projectors(rep, 0.0)[0]).max() < 1e-13


@pytest.mark.parametrize("m", (2, 12))
@pytest.mark.parametrize("theta", (4.0, -4.0, 8.0, -8.0))
def test_checks_scale_with_cosh_squared(m, theta):
    # the entries of Pi+- and Pi+ Pi+* grow like cosh^2 theta, and so do
    # their rounding residuals
    rep = build_gamma(m)
    prod = pi_plus_product(rep, theta)
    c = math.cosh(theta)
    resid = max(np.abs(p @ p - p).max() for p in projectors(rep, theta))
    resid = max(resid, np.abs(prod - copies(
        rep, cy._projector_product(theta))).max())
    assert resid / (c * c) < 1e-15


@pytest.mark.parametrize("m", MS)
def test_build_gamma_is_cached_and_read_only(m):
    # the reference is shared by every test: one that wrote into it would
    # change what the later ones compare against
    rep = build_gamma(m)
    assert build_gamma(m) is rep
    for a in (*rep.gammas, rep.gamma_tilde):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
