"""Skew-adjoint gamma matrices in even dimension, the chirality matrix and
the product Pi+ Pi+* of the chiral bag projector that the cylinder kernel
needs.

The representation is the iterated Pauli/Kronecker one, pinned so that for
m=2 the chirality matrix comes out as diag(1, -1); with that choice the 2x2
boundary operator of the disc calculation is directly comparable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


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
    """Build the representation for even m with 2 <= m <= 12, once per m:
    later calls return the same object, whose arrays are read-only."""
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
    return GammaRep(m=m, d_s=2 ** k, gammas=gammas, gamma_tilde=gt)


def pi_plus_product(rep: GammaRep, theta: float) -> np.ndarray:
    """Pi_+ Pi_+^dagger, Pi_+ = (1 - exp(theta gt) gt gamma_m)/2 the chiral
    bag projector (exp(theta gt) = cosh(theta) + sinh(theta) gt exactly).
    Its closed form is cosh(theta)/2 (cosh(theta) + sinh(theta) gt -
    gt gamma_m), whose entries grow like cosh^2 theta."""
    gt = rep.gamma_tilde
    eye = np.eye(rep.d_s)
    c, s = np.cosh(theta), np.sinh(theta)
    pi_plus = 0.5 * (eye - (c * eye + s * gt) @ gt @ rep.gamma_m)
    return pi_plus @ pi_plus.conj().T
