"""Skew-adjoint gamma matrices in even dimension, the chirality matrix and
the chiral bag projectors.

The representation is the iterated Pauli/Kronecker one, pinned so that for
m=2 the chirality matrix comes out as diag(1, -1); with that choice the 2x2
boundary operator of the disc calculation is directly comparable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)

MATRIX_TOL = 1e-13


class CliffordError(ValueError):
    pass


def _kron_chain(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@dataclass(frozen=True)
class GammaRep:
    """Concrete Clifford representation: m skew-adjoint gammas of size
    2^(m/2), with gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij."""
    m: int
    d_s: int
    gammas: tuple
    gamma_tilde: np.ndarray = field(repr=False)

    @property
    def gamma_m(self) -> np.ndarray:
        """Gamma matrix along the inward normal direction (index m)."""
        return self.gammas[-1]


@functools.lru_cache(maxsize=None, typed=True)
def build_gamma(m: int) -> GammaRep:
    """Build and check the representation for even m with 2 <= m <= 12, once
    per m: later calls return the same object, whose arrays are read-only."""
    if m % 2 or not (2 <= m <= 12):
        raise CliffordError(f"m must be even with 2 <= m <= 12, got {m}")
    k = m // 2
    hermitian = []
    for j in range(1, k + 1):
        pre = [_PAULI_3] * (j - 1)
        post = [np.eye(2, dtype=complex)] * (k - j)
        hermitian.append(_kron_chain(pre + [_PAULI_1] + post))
        hermitian.append(_kron_chain(pre + [_PAULI_2] + post))
    gammas = tuple(1j * g for g in hermitian)
    gt = (1j) ** k
    for g in gammas:
        gt = gt @ g if isinstance(gt, np.ndarray) else gt * g
    gt = gt.real.astype(complex) if np.abs(gt.imag).max() < 1e-15 else gt
    for a in (*gammas, gt):
        a.flags.writeable = False
    rep = GammaRep(m=m, d_s=2 ** k, gammas=gammas, gamma_tilde=gt)
    _check_rep(rep)
    return rep


def _check_rep(rep: GammaRep) -> None:
    d = rep.d_s
    eye = np.eye(d)
    for i, gi in enumerate(rep.gammas):
        if np.abs(gi.conj().T + gi).max() > MATRIX_TOL:
            raise CliffordError(f"gamma_{i + 1} is not skew-adjoint")
        for j, gj in enumerate(rep.gammas):
            target = -2.0 * eye if i == j else 0.0
            if np.abs(gi @ gj + gj @ gi - target).max() > MATRIX_TOL:
                raise CliffordError(f"Clifford relation fails at ({i}, {j})")
    gt = rep.gamma_tilde
    if np.abs(gt @ gt - eye).max() > MATRIX_TOL:
        raise CliffordError("gamma_tilde does not square to the identity")
    if abs(np.trace(gt)) > MATRIX_TOL:
        raise CliffordError("gamma_tilde is not traceless")
    for g in rep.gammas:
        if np.abs(gt @ g + g @ gt).max() > MATRIX_TOL:
            raise CliffordError("gamma_tilde does not anticommute with gammas")
    x = gt @ rep.gamma_m
    if np.abs(x @ x - eye).max() > MATRIX_TOL:
        raise CliffordError("(gamma_tilde gamma_m)^2 != identity")


@dataclass(frozen=True)
class ChiralProjectors:
    """Chiral bag projectors Pi_-+ = (1 +- exp(theta gt) gt gamma_m)/2."""
    theta: float
    pi_plus: np.ndarray = field(repr=False)
    pi_minus: np.ndarray = field(repr=False)


def chiral_projectors(rep: GammaRep, theta: float) -> ChiralProjectors:
    """Build Pi_+ and Pi_-; exp(theta gt) = cosh(theta) + sinh(theta) gt
    exactly, since gt squares to the identity.  Checked to MATRIX_TOL
    cosh^2 theta, the scale of their entries (OverflowError past ~355)."""
    tol = MATRIX_TOL * math.cosh(theta) ** 2
    gt = rep.gamma_tilde
    eye = np.eye(rep.d_s)
    a = (np.cosh(theta) * eye + np.sinh(theta) * gt) @ gt @ rep.gamma_m
    pi_minus = 0.5 * (eye + a)
    pi_plus = 0.5 * (eye - a)
    proj = ChiralProjectors(theta=theta, pi_plus=pi_plus, pi_minus=pi_minus)
    for p in (pi_plus, pi_minus):
        if np.abs(p @ p - p).max() > tol:
            raise CliffordError("chiral projector is not idempotent")
    if np.abs(pi_plus + pi_minus - eye).max() > tol:
        raise CliffordError("chiral projectors are not complementary")
    return proj


def pi_plus_product(rep: GammaRep, theta: float) -> np.ndarray:
    """Pi_+ Pi_+^dagger, checked against its closed form
    cosh(theta)/2 * (cosh(theta) + sinh(theta) gt - gt gamma_m)."""
    proj = chiral_projectors(rep, theta)
    prod = proj.pi_plus @ proj.pi_plus.conj().T
    gt = rep.gamma_tilde
    eye = np.eye(rep.d_s)
    c, s = np.cosh(theta), np.sinh(theta)
    closed = 0.5 * c * (c * eye + s * gt - gt @ rep.gamma_m)
    resid = np.abs(prod - closed).max()
    if resid > MATRIX_TOL * c * c:
        raise CliffordError(
            f"Pi+ Pi+* closed form violated, max residual {resid:.3e}")
    return prod
