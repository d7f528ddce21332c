"""Direct spectral verification on the unit m-ball.

Eigenvalues of the Dirac operator under chiral bag conditions are the
positive roots mu of J_{p+1}(mu) = r J_p(mu), with p = n + m/2 - 1 and a
family-dependent ratio r in {+e^t, -e^t, -e^-t, +e^-t}.  This module locates
the roots, assembles the truncated heat trace with the exact degeneracies,
fits the small-t asymptotics against the basis t^((n-m)/2), and verifies the
closed forms for the radial normalization constant and the chirality
expectation value by quadrature.

The roots solve arctan R_p(mu) = arctan r, R_p = J_{p+1}/J_p, which rises
monotonically from -pi/2 to pi/2 between consecutive zeros of J_p and from 0
to pi/2 on (0, j_{p,1}): one root per bracket and ratio, none in the first
for r < 0.  Below mu = p, R_p is Gautschi's backward continued fraction
R_k = mu / (2(k+1) - mu R_{k+1}) (SIAM Rev. 9 (1967) 24), which cannot
underflow; it has R_k <= 1 for mu <= k+1, so every root of level p exceeds
2(p+1) rho/(1+rho), rho = e^-|theta|.  One safeguarded Newton solve takes
every bracket of every level and family at once.
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
from .specialfn import bessel_j

# largest Newton correction |g / g'| / mu left at a returned root, where
# g = arctan R_p(mu) - arctan r: the phase residual in units of the root
ROOT_RTOL = 1e-13
# a spectrum with more angular levels below mu_max is refused
MAX_LEVELS = 1_000_000


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


def _level_floor(p, theta: float):
    """2(p+1) rho/(1+rho), rho = e^-|theta|, below every root of level p."""
    rho = math.exp(-abs(theta))
    return 2.0 * (p + 1) * rho / (1.0 + rho)


@functools.lru_cache(maxsize=1024)
def _jp_zeros_past(p: int, mu_max: float) -> np.ndarray:
    """Zeros of J_p up to and one past mu_max."""
    # McMahon: j_{p,k} ~ (k + p/2 - 1/4) pi
    nt = max(1, int(mu_max / math.pi - p / 2 + 0.25) + 2)
    zs = _sp.jn_zeros(p, nt)
    while zs[-1] <= mu_max:
        nt += max(4, nt // 2)
        zs = _sp.jn_zeros(p, nt)
    return zs[:np.searchsorted(zs, mu_max, side="right") + 1]


def _condition(p: int, r: float, mu):
    return bessel_j(p + 1, mu) - r * bessel_j(p, mu)


def _phase(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """arctan R_p(mu) elementwise for mu > 0: from jv where mu >= p, from
    the backward continued fraction where mu < p."""
    phase = np.empty(mu.shape)
    up = mu >= p
    jp, jp1 = _sp.jv(p[up], mu[up]), _sp.jv(p[up] + 1, mu[up])
    phase[up] = np.arctan2(np.copysign(1.0, jp) * jp1, np.abs(jp))
    x, k = mu[~up], p[~up]
    # R_{k+j} < x/(x + 2j + 2) here, so starting from R_{k+depth} = 0 errs
    # by less than exp(-2 depth (depth+1)/(x + 2 depth)) <= e^-40
    depth = 21 + int(math.sqrt(380.25 + 20.0 * np.max(x, initial=0.0)))
    ratio = np.zeros(x.shape)
    for j in range(depth, 0, -1):
        ratio = x / (2.0 * (k + j) - x * ratio)
    phase[~up] = np.arctan(ratio)
    return phase


def _newton(p: np.ndarray, mu: np.ndarray, target: np.ndarray) -> tuple:
    """g = arctan R_p(mu) - target and the Newton step g / g'."""
    phase = _phase(p, mu)
    g = phase - target  # g' = 1 - (2p + 1) R/mu + R^2 over 1 + R^2
    return g, g / (1.0 - (p + 0.5) * np.sin(2.0 * phase) / mu)


def _solve(p: np.ndarray, target: np.ndarray, lo: np.ndarray,
           hi: np.ndarray) -> np.ndarray:
    """Newton steps to arctan R_p = target that keep each bracket [lo, hi],
    bisecting only where a step leaves it."""
    mu = 0.5 * (lo + hi)
    for _ in range(100):
        g, step = _newton(p, mu, target)
        lo = np.where(g < 0.0, mu, lo)
        hi = np.where(g > 0.0, mu, hi)
        new = mu - step
        # a step onto a bracket end is kept: bisecting it converges linearly
        new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
        mu, old = new, mu
        if np.all(np.abs(mu - old) <= 1e-14 * old):
            break
    return mu


def _roots(levels: np.ndarray, ratios: Sequence[float], theta: float,
           mu_max: float) -> tuple:
    """Level and value of each root in (0, mu_max] of J_{p+1} = r J_p, all
    levels p and ratios r (|r| >= e^-|theta|).  Brackets end at the zeros
    of J_p up to one past mu_max; a level p >= mu_max has one, (0, mu_max],
    which holds a root iff r > 0 and arctan R_p(mu_max) >= arctan r."""
    if mu_max <= 0:
        raise ValueError("mu_max must be positive")
    low = levels[levels < mu_max]
    cuts = [np.concatenate(([0.0], _jp_zeros_past(int(q), mu_max)))
            for q in low]
    high = levels[levels >= mu_max]
    p = np.concatenate([np.repeat(low, [c.size - 1 for c in cuts]), high])
    lo = np.concatenate([c[:-1] for c in cuts] + [np.zeros(high.size)])
    hi = np.concatenate([c[1:] for c in cuts] + [np.full(high.size, mu_max)])
    top = np.full(p.shape, np.pi / 2)  # the limit at a zero of J_p
    top[p >= mu_max] = _phase(p[p >= mu_max], hi[p >= mu_max])
    target = np.repeat(np.arctan(ratios), p.size)
    p, lo, hi, top = (np.tile(a, len(ratios)) for a in (p, lo, hi, top))
    hit = (top >= target) & ((lo > 0.0) | (target > 0.0))
    p, target = p[hit], target[hit]
    roots = _solve(p, target, np.maximum(lo[hit], _level_floor(p, theta)),
                   hi[hit])
    shift = np.max(np.abs(_newton(p, roots, target)[1]) / roots, initial=0.0)
    if shift > ROOT_RTOL:
        raise RuntimeError(f"root solve failed at theta={theta}: Newton "
                           f"correction {shift:.3e} of the root")
    keep = roots <= mu_max
    return p[keep], roots[keep]


def find_roots(family: EigenvalueFamily, theta: float,
               mu_max: float) -> RootSet:
    """All roots of the family's eigenvalue condition in (0, mu_max],
    ascending, from the same brackets and solve as the whole spectrum."""
    _, roots = _roots(np.array([family.p]), [family.ratio(theta)], theta,
                      mu_max)
    return RootSet(family=family, theta=theta, roots=roots, mu_max=mu_max)


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
    families, every angular level whose root floor lies below mu_max."""
    ratios = [fam.ratio(theta) for fam in all_families(m, 0)]
    p0 = m // 2 - 1
    # last level p with _level_floor(p) <= mu_max, one spare for rounding
    n_levels = mu_max / _level_floor(0, theta) - p0 + 1
    if n_levels > MAX_LEVELS:
        raise ValueError(f"theta={theta}, m={m}: {n_levels:.3g} angular "
                         f"levels below mu_max={mu_max}, over {MAX_LEVELS}")
    n_levels = max(int(n_levels), 0)
    p, mu = _roots(np.arange(p0, p0 + n_levels), ratios, theta, mu_max)
    deg = np.array([degeneracy(n, m) for n in range(n_levels)], dtype=float)
    order = np.argsort(mu)
    return mu[order], deg[p - p0][order], n_levels  # n = first excluded level


def _truncation_bound(theta: float, m: int, t: float, mu_max: float,
                      n_excluded: int) -> float:
    """Gaussian tail bound for the roots above mu_max of the levels
    n < n_excluded and all roots of the later levels: roots of one family
    are at least 2 apart (zeros of J_p are at least pi apart for the
    relevant p), every root exceeds _level_floor at any theta, and the
    log-concave level terms sum to a geometric tail once they fall."""
    spacing = max(1.0 - math.exp(-4.0 * t * mu_max), 1e-300)

    def level(n: int) -> float:  # four families, roots above mu_max
        low = max(mu_max, _level_floor(n + m // 2 - 1, theta))
        return 4.0 * degeneracy(n, m) * math.exp(-t * low * low) / spacing
    # sum_{n < N} binom(n + m - 2, n) = binom(N + m - 2, m - 1)
    bound = 4.0 * (spinor_dimension(m) // 2) * math.comb(
        n_excluded + m - 2, m - 1) * math.exp(-t * mu_max * mu_max) / spacing
    n, term = n_excluded, level(n_excluded)
    while term > 0.0:
        after = level(n + 1)
        if after < term:
            return bound + term / (1.0 - after / term)
        bound += term
        n, term = n + 1, after
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
    p, r = family.p, family.ratio(theta)
    # C_+- carries -+(2p+1)e^(+-theta) on the (+) branch and the opposite
    # sign on the (-) branch: -(2p+1) r in every family
    return bessel_j(p, mu) ** 2 * (mu + mu * r * r - (2 * p + 1) * r) / mu


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
