"""Direct spectral verification on the unit m-ball.

Eigenvalues of the Dirac operator under chiral bag conditions are the
positive roots mu of J_{p+1}(mu) = r J_p(mu), with p = n + m/2 - 1 and a
family-dependent ratio r in {+e^t, -e^t, -e^-t, +e^-t}.  This module locates
the roots, assembles the truncated heat trace with the exact degeneracies,
fits the small-t asymptotics against the basis t^((n-m)/2), and verifies the
closed forms for the radial normalization constant and the chirality
expectation value by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy import integrate
from scipy import special as _sp

from .coefficients import ball_volume, spinor_dimension
from .specialfn import bessel_j, bessel_j_prime, gamma_fn

ROOT_TOL = 1e-11


class RootCountMismatchError(RuntimeError):
    """Interval scan and grid sign-change count disagree."""


class InsufficientCutoffError(RuntimeError):
    """Heat-trace truncation bound exceeds the requested accuracy."""


class OffShellError(ValueError):
    """A mode integral was requested at a non-eigenvalue mu."""


class IllConditionedFitError(RuntimeError):
    pass


Chirality = Literal["plus", "minus"]  # the (+-) superscript of the family
Sign = Literal["pos", "neg"]          # the +- eigenvalue branch


@dataclass(frozen=True)
class EigenvalueFamily:
    chirality: Chirality
    sign: Sign
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.m % 2 or self.m < 2:
            raise ValueError("m must be even and >= 2")

    @property
    def p(self) -> int:
        return self.n + self.m // 2 - 1

    def ratio(self, theta: float) -> float:
        """The ratio r in the eigenvalue condition J_{p+1} = r J_p."""
        if self.chirality == "plus":
            return math.exp(theta) if self.sign == "pos" else -math.exp(theta)
        return -math.exp(-theta) if self.sign == "pos" else math.exp(-theta)


def all_families(m: int, n: int) -> list[EigenvalueFamily]:
    return [EigenvalueFamily(chi, sgn, n, m)
            for chi in ("plus", "minus") for sgn in ("pos", "neg")]


@dataclass(frozen=True)
class RootSet:
    family: EigenvalueFamily
    theta: float
    roots: np.ndarray
    mu_max: float


def degeneracy(n: int, m: int) -> int:
    """Multiplicity of each eigenvalue family at angular level n:
    (d_s / 2) * binom(m + n - 2, n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (spinor_dimension(m) // 2) * math.comb(m + n - 2, n)


def _jp_zeros_past(p: int, mu_max: float) -> np.ndarray:
    """Zeros of J_p up to and one past mu_max."""
    # McMahon: j_{p,k} ~ (k + p/2 - 1/4) pi
    nt = max(1, int(mu_max / math.pi - p / 2 + 0.25) + 2)
    zs = _sp.jn_zeros(p, nt)
    while zs[-1] <= mu_max:
        nt += max(4, nt // 2)
        zs = _sp.jn_zeros(p, nt)
    return zs


def _condition(p: int, r: float, mu):
    return bessel_j(p + 1, mu) - r * bessel_j(p, mu)


def _condition_prime(p: int, r: float, mu):
    return bessel_j_prime(p + 1, mu) - r * bessel_j_prime(p, mu)


def _bisect_newton(p: int, r: float, lo: np.ndarray, hi: np.ndarray,
                   f_lo: np.ndarray) -> np.ndarray:
    """Vectorized bisection (sign-change brackets assumed) plus Newton
    polish for J_{p+1} - r J_p."""
    lo = lo.copy()
    hi = hi.copy()
    sign_lo = np.sign(f_lo)
    # underflow region near mu=0 for large p: the condition is dominated by
    # -r J_p there, so a hard zero evaluates with the sign of -r
    sign_lo[sign_lo == 0] = -np.sign(r)
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        fm = _condition(p, r, mid)
        sm = np.sign(fm)
        sm[sm == 0] = -np.sign(r)
        left = sm == sign_lo
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    mu = 0.5 * (lo + hi)
    for _ in range(3):
        step = _condition(p, r, mu) / _condition_prime(p, r, mu)
        mu = np.clip(mu - step, lo, hi)
    return mu


def find_roots(family: EigenvalueFamily, theta: float, mu_max: float,
               audit: bool = True) -> RootSet:
    """All roots of the family's eigenvalue condition in (0, mu_max].

    Brackets are the intervals between consecutive zeros of J_p, where the
    ratio J_{p+1}/J_p increases monotonically from -inf to +inf (plus the
    interval (0, j_{p,1}), which holds a root exactly when r > 0); no root
    can be skipped.  Each root is polished to |J_{p+1} - r J_p| < 1e-11.
    """
    if mu_max <= 0:
        raise ValueError("mu_max must be positive")
    p = family.p
    r = family.ratio(theta)
    zs = _jp_zeros_past(p, mu_max)
    los, his = [], []
    if r > 0:
        los.append(0.0)
        his.append(zs[0])
    for k in range(len(zs) - 1):
        if zs[k] > mu_max:
            break
        los.append(zs[k])
        his.append(zs[k + 1])
    lo = np.asarray(los)
    hi = np.asarray(his)
    f_lo = np.where(lo == 0.0, -np.sign(r), _condition(p, r, lo))
    roots = _bisect_newton(p, r, lo, hi, f_lo)
    roots = roots[roots <= mu_max]
    resid = np.abs(_condition(p, r, roots))
    if resid.size and resid.max() > ROOT_TOL:
        raise RuntimeError(
            f"root polish failed: max condition residual {resid.max():.3e}")
    if audit:
        _audit_count(p, r, mu_max, len(roots))
    return RootSet(family=family, theta=theta, roots=roots, mu_max=mu_max)


def _audit_count(p: int, r: float, mu_max: float, n_found: int) -> None:
    grid = np.linspace(1e-9, mu_max, max(int(round(mu_max / 0.05)), 10) + 1)
    g = _condition(p, r, grid)
    sg = np.sign(g)
    sg[sg == 0] = -np.sign(r)
    n_grid = int(np.count_nonzero(sg[1:] != sg[:-1]))
    if n_grid != n_found:
        raise RootCountMismatchError(
            f"p={p}, r={r}: interval scan found {n_found} roots, "
            f"grid sign changes give {n_grid}")


@dataclass(frozen=True)
class HeatTraceSample:
    t: float
    value: float
    truncation_bound: float


@dataclass(frozen=True)
class AsymptoticFit:
    coeffs: np.ndarray  # a_0 .. a_K
    residual: float  # rms misfit of the samples
    condition_estimate: float
    # per-coefficient truncation-error estimate: the shift of each
    # coefficient when the nuisance depth grows from K to K+1.  The rms
    # misfit alone understates coefficient errors, because the neglected
    # higher-order terms are smooth and partially absorbed by the basis.
    coeff_errors: np.ndarray = None


@functools.lru_cache(maxsize=32)
def _spectrum(theta: float, m: int, mu_max: float) -> tuple:
    """Sorted eigenvalue array and matching degeneracy weights for all four
    families, every angular level with at least one root below mu_max."""
    mus, weights = [], []
    n = 0
    while True:
        found_any = False
        dn = degeneracy(n, m)
        for fam in all_families(m, n):
            rs = find_roots(fam, theta, mu_max, audit=False)
            if rs.roots.size:
                found_any = True
                mus.append(rs.roots)
                weights.append(np.full(rs.roots.size, float(dn)))
        if not found_any:
            break
        n += 1
    mu = np.concatenate(mus) if mus else np.empty(0)
    w = np.concatenate(weights) if weights else np.empty(0)
    order = np.argsort(mu)
    return mu[order], w[order], n  # n = first excluded angular level


def _truncation_bound(theta: float, m: int, t: float, mu_max: float,
                      n_excluded: int) -> float:
    """Gaussian tail bound for roots above mu_max plus whole angular levels
    beyond the last included one.  Uses that consecutive roots of one family
    are separated by at least 2 (zeros of J_p are at least pi apart for the
    relevant p) and that the smallest root of level n grows at least like
    0.2 p for |theta| <= 2."""
    def family_tail(m_lo: float) -> float:
        x = t * m_lo
        return math.exp(-t * m_lo * m_lo) / max(1.0 - math.exp(-4.0 * x),
                                                1e-300)
    bound = 0.0
    # tails of included levels, truncated at mu_max
    for n in range(n_excluded):
        bound += 4.0 * degeneracy(n, m) * family_tail(mu_max)
    # excluded levels: every root exceeds max(mu_max, 0.2 p)
    n = n_excluded
    while True:
        p = n + m // 2 - 1
        term = 4.0 * degeneracy(n, m) * family_tail(max(mu_max, 0.2 * p))
        bound += term
        n += 1
        if term < 1e-280 or n > n_excluded + 10_000:
            break
    return bound


def heat_trace(theta: float, m: int, t: float,
               mu_max: float) -> HeatTraceSample:
    """Truncated trace of exp(-t P^2) on the unit m-ball: sum over the four
    families and all angular levels of deg * exp(-t mu^2), in ascending
    eigenvalue order with exact compensated summation."""
    if t <= 0:
        raise ValueError("t must be positive")
    mu, w, n_excl = _spectrum(theta, m, mu_max)
    value = math.fsum(w * np.exp(-t * mu * mu))
    bound = _truncation_bound(theta, m, t, mu_max, n_excl)
    if bound >= 1e-10 * value:
        raise InsufficientCutoffError(
            f"truncation bound {bound:.3e} too large for trace {value:.6e} "
            f"at t={t}; raise mu_max")
    return HeatTraceSample(t=t, value=value, truncation_bound=bound)


def pinned_a0(m: int) -> float:
    """Interior coefficient a_0 = (4 pi)^(-m/2) vol(B^m) d_s of the flat
    unit ball."""
    return (4 * math.pi) ** (-m / 2) * ball_volume(m) * spinor_dimension(m)


def fit_heat_coefficients(samples: Sequence[HeatTraceSample], m: int,
                          K: int = 5) -> AsymptoticFit:
    """Least-squares extraction of a_1..a_K from heat-trace samples against
    the basis t^((n-m)/2), with a_0 pinned to its known interior value.

    K defaults to 5 so the upper coefficients absorb higher-order
    contamination; the returned residual is the rms misfit.
    """
    if len(samples) < K + 3:
        raise ValueError(f"need at least K+3 = {K + 3} samples")
    t = np.array([s.t for s in samples])
    y = np.array([s.value for s in samples])
    a0 = pinned_a0(m)
    y = y - a0 * t ** (-m / 2)

    def solve(depth):
        powers = [(n - m) / 2 for n in range(1, depth + 1)]
        design = np.stack([t ** q for q in powers], axis=1)
        scale = np.linalg.norm(design, axis=0)
        design_s = design / scale
        cond = np.linalg.cond(design_s)
        if cond > 1e10:
            raise IllConditionedFitError(
                f"fit condition estimate {cond:.3e}")
        coef_s, _, _, _ = np.linalg.lstsq(design_s, y, rcond=None)
        coef = coef_s / scale
        resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return coef, resid, float(cond)

    coef, resid, cond = solve(K)
    errors = np.full(K, resid)
    if len(samples) >= K + 4:
        try:
            deeper, _, _ = solve(K + 1)
            errors = np.abs(deeper[:K] - coef)
        except IllConditionedFitError:
            pass  # keep the rms fallback
    return AsymptoticFit(coeffs=np.concatenate([[a0], coef]),
                         residual=resid, condition_estimate=cond,
                         coeff_errors=np.concatenate([[0.0], errors]))


def geometric_samples(theta: float, m: int, mu_max: float,
                      t_min: float = 0.02, t_max: float = 0.3,
                      n_samples: int = 20) -> list[HeatTraceSample]:
    """Heat-trace samples on a geometric t-grid, smallest t first."""
    ts = np.geomspace(t_min, t_max, n_samples)
    return [heat_trace(theta, m, float(t), mu_max) for t in ts]


def _norm_closed_form(p: int, mu: float) -> float:
    """1/C^2 from the Bessel-quadratic closed form; J_{-1} = -J_1 is handled
    by the reflection built into bessel_j."""
    jp = bessel_j(p, mu)
    jp1 = bessel_j(p + 1, mu)
    jm1 = bessel_j(p - 1, mu) if p >= 1 else -bessel_j(1, mu)
    jp2 = bessel_j(p + 2, mu)
    return 0.5 * (jp * jp + jp1 * jp1 - jm1 * jp1 - jp * jp2)


def _norm_simplified(family: EigenvalueFamily, theta: float,
                     mu: float) -> float:
    """1/C^2 from the on-shell simplified normalization constants."""
    p = family.p
    e = math.exp(theta) if family.chirality == "plus" \
        else math.exp(-theta)
    branch = 1.0 if family.chirality == "plus" else -1.0
    # C_+ carries -(2p+1)e^(+-theta), C_- carries +(2p+1)e^(+-theta),
    # with the sign of the (2p+1) term flipped on the (-) branch
    pm = -1.0 if family.sign == "pos" else 1.0
    denom = mu + mu * e * e + branch * pm * (2 * p + 1) * e
    return bessel_j(p, mu) ** 2 * denom / mu


def _gamma5_closed_form(family: EigenvalueFamily, theta: float,
                        mu: float) -> float:
    p = family.p
    ch = math.cosh(theta)
    branch = 1.0 if family.chirality == "plus" else -1.0
    shift = branch * (p + 0.5) / ch
    if family.sign == "pos":
        return -0.5 / (ch * (mu - shift))
    return 0.5 / (ch * (mu + shift))


def verify_mode_integrals(family: EigenvalueFamily, theta: float,
                          mu: float) -> dict:
    """Check the closed forms for the radial normalization constant and the
    chirality expectation value against adaptive quadrature at an eigenvalue
    mu of the family."""
    p = family.p
    r = family.ratio(theta)
    if abs(_condition(p, r, mu)) > 1e-9:
        raise OffShellError(
            f"mu={mu} is not an eigenvalue of the family (residual "
            f"{abs(_condition(p, r, mu)):.3e})")
    norm_quad, _ = integrate.quad(
        lambda x: x * (bessel_j(p + 1, mu * x) ** 2
                       + bessel_j(p, mu * x) ** 2),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    closed = _norm_closed_form(p, mu)
    simplified = _norm_simplified(family, theta, mu)
    norm_residual = max(abs(norm_quad - closed), abs(norm_quad - simplified))
    diff_quad, _ = integrate.quad(
        lambda x: x * (bessel_j(p + 1, mu * x) ** 2
                       - bessel_j(p, mu * x) ** 2),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    orientation = 1.0 if family.chirality == "plus" else -1.0
    gamma5_quad = orientation * diff_quad / norm_quad
    gamma5_residual = abs(gamma5_quad - _gamma5_closed_form(family, theta, mu))
    return {"norm_residual": norm_residual,
            "gamma5_residual": gamma5_residual}
