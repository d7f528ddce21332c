"""Direct spectral verification on the unit m-ball.

Eigenvalues of the Dirac operator under chiral bag conditions are the
positive roots mu of J_{p+1}(mu) = r J_p(mu), with p = n + m/2 - 1 and a
family-dependent ratio r in {+e^t, -e^t, -e^-t, +e^-t}.  This module locates
the roots, assembles the truncated heat trace with the exact degeneracies
and fits the small-t asymptotics against the basis t^((n-m)/2), which is
what verify-ball reports.  The tests check the closed forms for the radial
normalization constant and the chirality expectation value at these roots.

The roots solve arctan R_p(mu) = arctan r, R_p = J_{p+1}/J_p, which rises
monotonically from -pi/2 to pi/2 between consecutive zeros of J_p and from 0
to pi/2 on (0, j_{p,1}): one root per bracket and ratio, none in the first
for r < 0.  R_p is Gautschi's backward continued fraction
R_k = F_k(R_{k+1}), F_k(R) = mu / (2(k+1) - mu R) (SIAM Rev. 9 (1967) 24);
started past p and mu it is Miller's stable backward recurrence, which
cannot underflow.  For k+1 >= mu it is bounded by the fixed point
rho_k = mu / ((k+1) + sqrt((k+1)^2 - mu^2)) = e^-arccosh((k+1)/mu) of F_k:
F_k is increasing and rho_k decreases in k, so the iterates started from 0
stay in [0, rho_k], and hence R_k <= rho_k by Pincherle's theorem; and
|F_k(a) - F_k(b)| <= rho_k^2 |a - b| on [0, rho_k], since its denominator
is >= mu / rho_k there.  So a pass started from R_N = 0 errs at K >= mu by
at most rho_N prod_{j=K}^{N-1} rho_j^2, and each pass starts just deep
enough for that to be below e^-40 at every element (_depth).  And R_k <= 1
for mu <= k+1, so every root of level p exceeds 2(p+1) rho/(1+rho),
rho = e^-|theta|.

One safeguarded solve takes every bracket at once, on the phase
psi = arctan R_p, which obeys the first-order ODE psi' = 1 - (p + 1/2)
sin 2psi / mu exactly.  So one pass of the continued fraction at mu gives a
point (mu, psi) of the phase curve, and one RK4 step of dmu/dpsi = 1 / psi'
from it to psi = arctan r lands on the root (the phase-function route to
special-function roots: Glaser, Liu, Rokhlin, SIAM J. Sci. Comput. 29
(2007) 1420; Segura, SIAM J. Numer. Anal. 48 (2010) 452).  The step's error
estimate and the phase at its start bound the Newton correction left at the
root, so no pass of the continued fraction re-evaluates the roots to check
them.

Each spectrum has one bound mu_max.  psi of a bracket below it runs from 0
(at mu = 0) or -pi/2 (at a zero of J_p) to pi/2 at its upper zero whatever
theta is; only the target arctan r moves.  So one table per process
(_table), grown level by level as cutoffs rise, holds every bracket between
zeros of J_p and the roots at SEGMENTS - 1 = 14 phases spaced evenly over
its range, and a root starts at the cubic Hermite interpolant of mu(psi)
between the two nodes around its target.  A level p >= mu_max has one
bracket, (0, mu_max], below its turning point (_high_hits, _high_start);
the roots that bounds put past mu_max are not solved.  A warm heat trace
on T_GRID takes 1.000-1.018 elements of the continued fraction per kept
root, in one pass but at some |theta| in [0.3, 0.8] (_solve).

The heat trace sums every solved term at each t, from one spectrum solved
only as far as its smallest t needs, and bounds the roots past it at that
t alone (heat_trace).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .coefficients import ball_volume, spinor_dimension
from .specialfn import jn_zeros

# largest Newton correction |g / g'| / mu left at a returned root, where
# g = arctan R_p(mu) - arctan r: the phase residual in units of the root,
# bounded by the solve's last step (_solve)
ROOT_RTOL = 1e-13
# a step retires no root that it moves by more than STEP_RTOL of it over
# cos^2 2 target, nor one where the step times d(dmu/dpsi)/dmu exceeds
# STEP_STIFFNESS (_solve)
STEP_RTOL = 2e-5
STEP_STIFFNESS = 1e-2
# a spectrum with more angular levels, or more brackets, below mu_max is
# refused
MAX_LEVELS = 1_000_000
# the heat-trace samples of verify-ball, smallest t first, and the number
# of coefficients a_1..a_K fitted to them
T_GRID = np.geomspace(0.02, 0.3, 20)
T_GRID.flags.writeable = False
FIT_DEPTH = 5


class InsufficientCutoffError(RuntimeError):
    """Heat-trace truncation bound exceeds the requested accuracy."""


class IllConditionedFitError(RuntimeError):
    pass


@functools.lru_cache(maxsize=1 << 16)
def degeneracy(n: int, m: int) -> int:
    """Multiplicity of each eigenvalue family at angular level n:
    (d_s / 2) * binom(m + n - 2, n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (spinor_dimension(m) // 2) * math.comb(m + n - 2, n)


@functools.cache
def _weights(m: int, size: int) -> np.ndarray:
    """degeneracy(n, m) for n < size, each its int as a float, read-only."""
    weights = np.array([degeneracy(n, m) for n in range(size)], dtype=float)
    weights.flags.writeable = False
    return weights


def _level_floor(p, theta: float):
    """2(p+1) rho/(1+rho), rho = e^-|theta|, below every root of level p."""
    rho = math.exp(-abs(theta))
    return 2.0 * (p + 1) * rho / (1.0 + rho)


# the table cuts the phase range of every bracket into SEGMENTS equal
# parts; an odd count puts no node of a bracket between zeros at psi = 0,
# a zero of J_{p+1}, where the continued fraction divides by zero
SEGMENTS = 15


@functools.cache
def _table() -> SimpleNamespace:
    """The brackets solved so far, which _level_brackets grows: those of
    level p lie from start[p] to start[p + 1] of the flat arrays level, lo
    and hi, (0, j_{p,1}), (j_{p,1}, j_{p,2}), ... up to the first zero of
    J_p past the largest cutoff asked of it, last[p] (-inf while it holds
    none).  nodes holds the nodes of each bracket: mu and dmu/dpsi at the
    SEGMENTS + 1 phases spaced evenly from its low phase (0 at mu = 0 in a
    first bracket, -pi/2 at a zero of J_p above one) to pi/2 at its upper
    end."""
    return SimpleNamespace(
        level=np.zeros(0, dtype=np.intp), lo=np.zeros(0), hi=np.zeros(0),
        nodes=np.zeros((0, SEGMENTS + 1, 2)), start=np.zeros(1, np.intp),
        last=np.zeros(0))


def _level_brackets(first: int, count: int, cutoff: float) -> tuple:
    """Level, lower and upper end and nodes of each bracket of the count
    levels from first, level by level, up to the first zero of J_p past
    cutoff.  A level whose last zero is not past cutoff grows from
    floor((cutoff - p)/pi) + 3 zeros, which reach past it (j_{p,1} > p and
    zeros of J_p lie over pi apart for p >= 1; j_{0,k} > (k - 1/4) pi),
    kept up to the first past it, and the nodes of every new bracket are
    solved in one _solve_nodes.  jn_zeros gives the same leading zeros
    whatever their count, so the brackets held keep their place and bits,
    and a bracket's nodes are the same whichever others are solved with
    them, since each element of a solve is computed alone.  Nothing here
    depends on theta."""
    table, end = _table(), first + count
    if table.last.size < end:
        pad = end - table.last.size
        table.last = np.append(table.last, np.full(pad, -np.inf))
        table.start = np.append(table.start, np.full(pad, table.start[-1]))
    stale = np.flatnonzero(table.last[first:end] <= cutoff) + first
    if stale.size:
        rows = []
        for p, held in zip(stale.tolist(), np.diff(table.start)[stale]):
            zs = jn_zeros(p, max(1, math.floor((cutoff - p) / math.pi) + 3))
            if zs[-1] <= cutoff:
                raise RuntimeError(f"zeros of J_{p} end below {cutoff}")
            zs = zs[:np.searchsorted(zs, cutoff, side="right") + 1]
            rows.append((np.append(0.0, zs[:-1])[held:], zs[held:]))
        sizes = np.array([zs.size for _, zs in rows])
        p = np.repeat(stale, sizes)
        lo, hi = (np.concatenate(a) for a in zip(*rows))
        at = np.repeat(table.start[stale + 1], sizes)
        table.level, table.lo, table.hi, table.nodes = (
            np.insert(a, at, b, axis=0) for a, b in (
                (table.level, p), (table.lo, lo), (table.hi, hi),
                (table.nodes, _solve_nodes(p, lo, hi))))
        table.last[stale] = [zs[-1] for _, zs in rows]
        added = np.zeros(table.last.size, np.intp)
        added[stale] = sizes
        table.start = table.start + np.append(0, np.cumsum(added))
    s = table.start[first]
    keep = np.flatnonzero(table.lo[s:table.start[end]] <= cutoff) + s
    return (table.level[keep], table.lo[keep], table.hi[keep],
            table.nodes.take(keep, axis=0))


def _node_phases(first: np.ndarray) -> tuple:
    """Low phase and node spacing of brackets that are (first) or are not
    the first of their level."""
    low = np.where(first, 0.0, -0.5 * np.pi)
    return low, (0.5 * np.pi - low) / SEGMENTS


def _solve_nodes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The nodes of the brackets (lo, hi] of the levels p, lo = 0 for a first
    bracket.  The inner ones are roots of arctan R_p = psi, each solved in
    (lo, hi] above the level floor of r = tan psi from 4 RK4 steps run
    down from (hi, pi/2), with dmu/dpsi = 1 / psi'; dmu/dpsi is 1 at a zero
    of J_p and 2(p + 1) at mu = 0, where psi ~ mu / (2(p + 1))."""
    first = lo == 0.0
    low, step = _node_phases(first)
    psi = low[:, None] + step[:, None] * np.arange(1, SEGMENTS)
    # a first bracket's floor 2(p+1) rho/(1+rho), rho = min(r, 1/r), of
    # _level_floor; above a zero, lo > 0 is the floor
    rho = np.minimum(np.tan(psi), 1.0 / np.tan(psi))
    floor = np.where(first[:, None],
                     2.0 * (p[:, None] + 1) * rho / (1.0 + rho), lo[:, None])
    q, target, floor, upper = (np.broadcast_to(a, psi.shape).ravel()
                               for a in (p[:, None], psi, floor, hi[:, None]))
    start = _rk4(q, upper, np.full(psi.size, 0.5 * np.pi),
                 target - 0.5 * np.pi, 4)[0]
    root = _solve(q, target, floor, upper, start)[0].reshape(psi.shape)
    return np.stack((np.column_stack((lo, root, hi)),
                     np.column_stack((np.where(first, 2.0 * (p + 1), 1.0),
                                      1.0 / _slope(p[:, None], root, psi),
                                      np.ones(p.size)))), axis=-1)


@functools.cache
def _tail(M: int) -> int:
    """The least d with rho_N prod_{j=M}^{N-1} rho_j^2 <= e^-40, N = M + d,
    rho_j = e^-arccosh((j+1)/M): the steps past k = M after which the
    continued fraction started from R = 0 errs at M by at most e^-40, at
    mu = M.  It never falls as M grows, since rho_{M+i} at M does not."""
    total, d = 0.0, 0  # -ln prod_{j=M}^{M+d-1} rho_j^2
    while total + math.acosh((M + d + 1) / M) < 40.0:
        total += 2.0 * math.acosh((M + d + 1) / M)
        d += 1
    return d


@functools.cache
def _reach(size: int) -> np.ndarray:
    """M + _tail(M) at M < size (0 at M = 0), read-only."""
    reach = np.array([0] + [M + _tail(M) for M in range(1, size)])
    reach.flags.writeable = False
    return reach


def _depth(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Steps of the continued fraction each element of a nonempty _phase
    pass needs: ceil(max(mu - p, 0)) + _tail(M) at M = ceil mu.  For
    integer p that is max(M + _tail(M) - p, _tail(M)), both read from one
    table of M + _tail(M), its size the power of 2 above the largest M."""
    top = np.ceil(mu).astype(np.intp)
    reach = _reach(1 << int(top.max()).bit_length())[top]
    return np.maximum(reach - p, reach - top)


def _phase(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """arctan R_p(mu) elementwise for integer p >= 0 and mu > 0 from the
    backward continued fraction, each element started from R = 0 at k = p
    + d, d its own _depth: its value depends on (p, mu) alone, not on the
    elements that share its pass.

    So an element with M = ceil mu starts N = K + _tail(M) at K = max(p,
    M).  With R_N <= rho_N and the contraction rho_j^2 of each step, its
    error at K is at most rho_N prod_{j=K}^{N-1} rho_j^2, rho_j taken at
    this mu.  That is at most the product _tail(M) bounds, below e^-40:
    rho_j at mu is at most rho_{j-K+M} at M, as (j+1)/mu >= (j-K+M+1)/M.
    The steps down to p keep it so.
    """
    if not mu.size:
        return np.zeros(mu.shape)
    depth = _depth(p, mu)
    # deepest first: the elements a step takes are a prefix
    order = np.argsort(-depth)
    steps = depth[order]
    x = mu[order]
    # R = x / (2(p + j) - x R) in place, 2(p + j) from 2(p + d) less 2 per
    # step taken: an integer, exact in float64, so each step rounds as the
    # plain one
    twice = 2.0 * (p[order] + steps)
    ratio, denom = np.zeros(x.shape), np.empty(x.shape)
    last = 0
    for n in np.searchsorted(-steps, -np.arange(int(steps[0]), 0, -1),
                             side="right").tolist():
        if n != last:
            xs, rs, ds, ts = x[:n], ratio[:n], denom[:n], twice[:n]
            last = n
        np.multiply(xs, rs, out=ds)
        np.subtract(ts, ds, out=ds)
        np.divide(xs, ds, out=rs)
        ts -= 2.0
    phase = np.empty(mu.shape)
    phase[order] = np.arctan(ratio)
    return phase


def _slope(p: np.ndarray, mu: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """psi' = 1 - (p + 1/2) sin 2psi / mu at psi = phase = arctan R_p(mu)."""
    return 1.0 - (p + 0.5) * np.sin(2.0 * phase) / mu


def _rk4(p: np.ndarray, mu: np.ndarray, psi: np.ndarray, span: np.ndarray,
         steps: int) -> tuple:
    """mu after steps equal RK4 steps of dmu/dpsi = 1 / psi' from (mu, psi)
    over the phase span, and the last stage's increment k4."""
    h = span / steps
    # the field has a pole where psi' = 0 off the phase curve itself
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            k1 = h / _slope(p, mu, psi)
            # _slope's (p + 1/2) sin 2psi at the midpoint, for both stages
            mid = (p + 0.5) * np.sin(2.0 * (psi + 0.5 * h))
            k2 = h / (1.0 - mid / (mu + 0.5 * k1))
            k3 = h / (1.0 - mid / (mu + 0.5 * k2))
            k4 = h / _slope(p, mu + k3, psi + h)
            mu, psi = mu + (k1 + 2.0 * (k2 + k3) + k4) / 6.0, psi + h
    return mu, k4


def _solve(p: np.ndarray, target: np.ndarray, lo: np.ndarray,
           hi: np.ndarray, mu: np.ndarray) -> tuple:
    """Each root of arctan R_p = target in its bracket [lo, hi], and a bound
    on the Newton correction left at it.  From the start mu (the midpoint
    where mu is not finite or not inside (lo, hi)) a round takes one phase
    pass at mu, which gives psi there and narrows the bracket, and one RK4
    step of dmu/dpsi = 1 / psi' (_rk4) from (mu, psi) to psi = target.  A
    step that leaves the closed bracket, or is not finite, bisects it.

    The Bessel recurrences give R_p' = 1 - (2p + 1) R_p / mu + R_p^2, so
    psi = arctan R_p has psi' = R_p' / (1 + R_p^2) = 1 - (p + 1/2) sin 2psi
    / mu: the field of the step is exact, and its only error is the step's.

    The bound on the Newton correction |g / psi'|, g = psi - target, that a
    pass at the returned root mu_1 would read is the sum of three terms:
    - The step's error, estimated by the gap to the embedded third-order
      step that takes dmu/dpsi at (mu_1, target) in place of its last
      stage: |k5 - k4| / 6, k5 = h / psi'(mu_1, target).  Both stages sit
      on psi = target, where the field's change with mu vanishes with
      sin 2 target; the terms the gap misses come with cos 2 target.  A
      root retires only after a step whose gap is below 1e-15 mu_1, which
      moved it by at most STEP_RTOL / cos^2 2 target of it, and whose
      phase span times |d(dmu/dpsi)/dmu| = |1 - psi'| / (mu psi'^2) is at
      most STEP_STIFFNESS.  From the midpoint of every bracket of the
      heat-trace spectra at 21 theta in [-9, 9], m in {2, 6, 12}, every
      root then lies within 0.35 of its bound from the production one
      (without the last two conditions, up to 5.2e-10 off, past its bound).
    - The phase error at mu over |psi'|.  The step runs on the solution of
      the ODE through the point the pass gave, which lies e / |psi'| in mu
      from the phase curve, e the pass's rounding of psi, and keeps that
      distance to first order over the short step; the pass at mu_1 would
      read g with a rounding of the same size.  They are taken as an ulp
      each of psi and of target, 2^-52 (|psi| + |target|), over
      |psi'(mu_1, target)|.  Far into the oscillating range a pass errs by
      up to ~6 2^-52 absolute, more than this at small |psi|; there psi'
      is near 1 and mu large, and the third term covers it.
    - The rounding of mu: the step's sum and the float mu_1 each round by
      at most 2^-53 mu_1.
    At every root of m = 2..12 and ten theta in [-6, 9] a pass re-reads a
    correction below 0.79 of the bound (TestRootCheck).

    From the starts of _roots one step retires every root of a T_GRID heat
    trace, m = 2..12, |theta| <= 9, but up to 17 at some |theta| in [0.3,
    0.8]: roots of the levels past mu_max whose start (_high_start) lies
    near the turning point, which take a second round."""
    mu = np.where((mu > lo) & (mu < hi), mu, 0.5 * (lo + hi))
    root, left = np.empty(lo.shape), np.empty(lo.shape)
    live = np.arange(lo.size)
    blind = np.cos(2.0 * target) ** 2
    for _ in range(100):
        phase = _phase(p, mu)
        g = phase - target
        lo, hi = np.where(g < 0.0, mu, lo), np.where(g > 0.0, mu, hi)
        new, k4 = _rk4(p, mu, phase, -g, 1)
        step = np.abs(new - mu)
        # the gap |k5 - k4| / 6 to the embedded third-order step
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = _slope(p, new, target)
            error = np.abs(-g / slope - k4) / 6.0
        # a step off the closed bracket, or not finite, bisects it
        off = ~((new >= lo) & (new <= hi))
        new = np.where(off, 0.5 * (lo + hi), new)
        error[off] = np.inf
        left[live] = error + 2.0 ** -52 * (
            (np.abs(phase) + np.abs(target)) / np.abs(slope) + np.abs(new))
        root[live] = new
        more = ~((error <= 1e-15 * new) & (step * blind <= STEP_RTOL * new)
                 & (step * np.abs(1.0 - slope)
                    <= STEP_STIFFNESS * new * np.abs(slope)))
        if not more.any():
            break
        live, p, target, blind, lo, hi, mu = (
            a[more] for a in (live, p, target, blind, lo, hi, new))
    return root, left


def _hermite(target: np.ndarray, first: np.ndarray,
             nodes: np.ndarray) -> np.ndarray:
    """mu at psi = target in the brackets of the nodes (_table), first or
    not the first of their level, a row for each target of a column: the
    cubic Hermite interpolant of its nodes on the segment around target,
    found by its index, not by a search; and the node at the segment's low
    end, at or below target."""
    low, step = _node_phases(first)
    x = (target - low) / step
    k = np.clip(np.floor(x), 0, SEGMENTS - 1).astype(np.intp)
    u = x - k
    v = 1.0 - u
    # mu and dmu/dpsi at the segment's ends are 4 floats in a row
    mu0, rate0, mu1, rate1 = np.moveaxis(nodes.reshape(-1)[(2 * (
        (SEGMENTS + 1) * np.arange(first.size) + k))[..., None]
        + np.arange(4)], -1, 0)
    return (v * v * ((1.0 + 2.0 * u) * mu0 + step * u * rate0)
            + u * u * ((3.0 - 2.0 * u) * mu1 - step * v * rate1)), mu0


def _rho(k, mu):
    """rho_k = mu / ((k+1) + sqrt((k+1)^2 - mu^2)), the fixed point of F_k,
    for mu <= k + 1."""
    return mu / ((k + 1) + np.sqrt((k + 1) * (k + 1) - mu * mu))


def _fraction(p, mu, ratio, steps: int):
    """R_p from steps of the continued fraction, F_p(F_{p+1}(... F_{p+steps-1}(
    ratio))), ratio standing for R_{p+steps}.  2(k+1) runs down from 2(p +
    steps) by 2 a step: an integer, exact in float64, so each step rounds as
    the plain one."""
    twice = 2.0 * (p + steps)
    for _ in range(steps):
        ratio = mu / (twice - mu * ratio)
        twice = twice - 2.0
    return ratio


def _high_bounds(high: np.ndarray, mu_max: float) -> tuple:
    """Lower and upper bounds on R_p(mu_max) for the levels p >= mu_max:
    the continued fraction's first 4 steps, F_p(... F_{p+3}(R)), from R = 0
    and from R = rho_{p+4}.  Below j_{p+4,1} > mu_max, 0 <= R_{p+4} <=
    rho_{p+4} (Pincherle), and each F_k is increasing, so the two enclose
    R_p; they lie within rho_{p+4} prod_k rho_k^2 of each other."""
    mu = float(mu_max)
    return (_fraction(high, mu, 0.0, 4),
            _fraction(high, mu, _rho(high + 4, mu), 4))


def _high_hits(high: np.ndarray, r: np.ndarray, mu_max: float) -> np.ndarray:
    """Whether the one bracket (0, mu_max] of each level p >= mu_max
    (columns) holds a root for each ratio r (rows): iff r > 0 and
    arctan R_p(mu_max) >= arctan r.  A positive r up to the lower bound of
    _high_bounds has a root and one past its upper bound none, each with a
    margin of 1e-12 for rounding; only the levels where some r lies between
    the bounds, near the turning point, take a pass of the continued
    fraction at mu_max."""
    lower, upper = _high_bounds(high, mu_max)
    hit = (r > 0.0) & (r <= (1.0 - 1e-12) * lower)
    cols = np.flatnonzero(((r > 0.0) & ~hit
                           & (r <= (1.0 + 1e-12) * upper)).any(axis=0))
    if cols.size:
        top = _phase(high[cols], np.full(cols.size, float(mu_max)))
        hit[:, cols] = (r > 0.0) & (top >= np.arctan(r))
    return hit


def _high_start(p: np.ndarray, r: np.ndarray, mu_max: float) -> np.ndarray:
    """The start of the root of R_p = r, 0 < r < 1, in the bracket (0,
    mu_max] of a level p >= mu_max, below its turning point: mu = r (p +
    sqrt(p^2 + 4(p+1)(1+r^2))) / (1+r^2), the root of R_p = F_p(rho_{p+1}),
    then two fixed-point steps of mu = 2(p+1) r / (1 + r R_{p+1}(mu)),
    R_{p+1} from three steps of the continued fraction down from rho_{p+4}.
    Near the turning point they converge slowly, and _solve takes a second
    round at the roots they leave far off.  The steps can overshoot, so
    each starts from mu cut to the bracket, where rho is real."""
    mu = r * (p + np.sqrt(p * p + 4.0 * (p + 1) * (1.0 + r * r))) / (
        1.0 + r * r)
    for _ in range(2):
        last = np.minimum(mu, mu_max)
        mu = 2.0 * (p + 1) * r / (1.0 + r * _fraction(
            p + 1, last, _rho(p + 4, last), 3))
    return mu


def _roots(levels: np.ndarray, ratios: Sequence[float], theta: float,
           mu_max: float) -> tuple:
    """Level and value of each root in (0, mu_max] of J_{p+1} = r J_p, all
    levels p, consecutive and ascending, and ratios r (|r| >= e^-|theta|).
    Brackets end at the zeros of J_p up to one past mu_max
    (_level_brackets); a level p >= mu_max has one, (0, mu_max], which
    holds a root iff r > 0 and arctan R_p(mu_max) >= arctan r (_high_hits),
    started at _high_start; the others start from their bracket's nodes
    (_hermite).

    Every root that lies past mu_max by either of two bounds is left
    unsolved, each with a margin of 1e-12 for the nodes' own solve and
    rounding.  mu rises with psi along a bracket, so a root lies above the
    node at or below its phase.  And every root exceeds 2(p + 1) |r| / (1 +
    r^2): for mu <= p + 1, 0 <= R_p(mu) <= rho_p(mu) in a first bracket, so
    R_p = r needs rho_p(mu) >= |r|, and the bound is at most p + 1.  Each
    element of a phase pass is computed alone (_phase), so the roots left
    out move no root that is solved."""
    if mu_max <= 0:
        raise ValueError("mu_max must be positive")
    count = int(np.searchsorted(levels, mu_max))  # the levels below mu_max
    low, lo, hi, nodes = _level_brackets(int(levels[0]) if count else 0,
                                         count, mu_max)
    high = levels[count:]
    r = np.array(ratios, dtype=float)[:, None]
    target = np.arctan(r)

    def rows(below, above):
        """A row per ratio: the brackets below mu_max, then those above."""
        out = np.empty((r.size, low.size + high.size),
                       np.result_type(below, above))
        out[:, :low.size], out[:, low.size:] = below, above
        return out
    start, node = _hermite(target, lo == 0.0, nodes)
    hit = rows((lo > 0.0) | (target > 0.0), _high_hits(high, r, mu_max))
    start = rows(start, np.nan)
    p, lo, hi = rows(low, high), rows(lo, 0.0), rows(hi, mu_max)
    margin = mu_max * (1.0 + 1e-12)
    hit &= ~((rows(node, 0.0) > margin)
             | (2.0 * (p + 1) * np.abs(r) / (1.0 + r * r) > margin))
    above = hit & (p >= mu_max)
    start[above] = _high_start(p[above], rows(r, r)[above], mu_max)
    p, target = p[hit], rows(target, target)[hit]
    roots, left = _solve(p, target,
                         np.maximum(lo[hit], _level_floor(p, theta)),
                         hi[hit], start[hit])
    shift = np.max(left / roots, initial=0.0)
    if shift > ROOT_RTOL:
        raise RuntimeError(f"root solve failed: a correction of "
                           f"{shift:.3e} of the root is left")
    keep = roots <= mu_max
    return p[keep], roots[keep]


@dataclass(frozen=True)
class AsymptoticFit:
    coeffs: np.ndarray  # a_0 .. a_K
    residual: float  # rms misfit of the samples
    condition_estimate: float
    # per-coefficient truncation-error estimate: the shift of each
    # coefficient when the nuisance depth grows from K to K+1.  The rms
    # misfit alone understates coefficient errors, because the neglected
    # higher-order terms are smooth and partially absorbed by the basis.
    coeff_errors: np.ndarray


def _level_count(theta: float, m: int, mu: float):
    """Number of angular levels whose root floor lies below mu, one spare
    for rounding; inf past the float range (|theta| > ~710)."""
    floor = _level_floor(0, theta)
    # last level p with _level_floor(p) <= mu
    count = mu / floor - (m // 2 - 1) + 1 if floor else math.inf
    return max(int(count), 0) if count < math.inf else count


def spectrum(theta: float, m: int, mu_max: float) -> tuple:
    """Sorted eigenvalue array in (0, mu_max] and matching degeneracy
    weights for all four families, every angular level whose root floor
    lies below mu_max, and the number of levels; more than MAX_LEVELS
    levels, or brackets below mu_max, are refused."""
    spinor_dimension(m)  # refuses a bad m before the solve
    p0 = m // 2 - 1
    n_levels = _level_count(theta, m, mu_max)
    # each level p < mu_max has at most (mu_max - p)/pi + 2 brackets below
    # mu_max, as its zeros lie over pi apart from j_{p,1} > p on: about
    # mu_max^2 / 2pi in all, whose zeros jn_zeros would be asked for
    low = min(n_levels, max(math.ceil(mu_max) - p0, 0))
    brackets = low * ((mu_max - p0 - 0.5 * (low - 1)) / math.pi + 2.0)
    for count, what in ((n_levels, "angular levels"), (brackets, "brackets")):
        if count > MAX_LEVELS:
            raise ValueError(f"{count:.3g} {what} below mu_max={mu_max}, "
                             f"over {MAX_LEVELS}")
    # r of J_{p+1} = r J_p for (chirality, branch) = (+, pos), (+, neg),
    # (-, pos), (-, neg)
    ratios = (math.exp(theta), -math.exp(theta), -math.exp(-theta),
              math.exp(-theta))
    p, mu = _roots(np.arange(p0, p0 + n_levels), ratios, theta, mu_max)
    # sizes are powers of 2: a few arrays per m serve every level count
    deg = _weights(m, 1 << n_levels.bit_length())
    order = np.argsort(mu)
    return mu[order], deg[p - p0][order], n_levels  # n = first excluded level


def _truncation_bound(theta: float, m: int, t: float, mu_max,
                      n_excluded) -> np.ndarray:
    """Gaussian tail bound at one t, elementwise over mu_max and n_excluded
    (alike in shape), for the roots above mu_max of the levels n <
    n_excluded and all roots of the later levels.  Roots of one family are
    at least 2 apart (zeros of J_p are at least pi apart for the relevant
    p) and exceed _level_floor at any theta, so the four families of level
    n add at most 4 deg(n) e^(-t low_n^2) / (1 - e^(-4 t mu_max)), low_n =
    max(mu_max, floor_n).  These level terms are log-concave in n, so past
    n_excluded they sum to at most the first over 1 - q, q = deg(n + 1) /
    deg(n) e^(-t (low_1^2 - low_0^2)) their ratio there, taken from its
    exponent; where q >= 1, or is not a number (n_excluded inf), there is
    no bound (inf)."""
    def bound(mu, n):
        spacing = max(1.0 - math.exp(-4.0 * t * mu), 1e-300)
        low, high = (max(mu, _level_floor(n + j + m // 2 - 1, theta))
                     for j in (0, 1))
        q = (n + m - 1) / (n + 1) * math.exp(-t * (high - low) * (high + low))
        if not q < 1.0:
            return math.inf
        # sum_{n' < n} binom(n' + m - 2, n') = binom(n + m - 2, m - 1)
        return 4.0 * (degeneracy(0, m) * math.comb(n + m - 2, m - 1)
                      * math.exp(-t * mu * mu) + degeneracy(n, m)
                      * math.exp(-t * low * low) / (1.0 - q)) / spacing
    return np.reshape([bound(mu, n) for mu, n in zip(
        np.ravel(mu_max).tolist(), np.ravel(n_excluded).tolist())],
        np.shape(mu_max))


def _cutoff_estimate(theta: float, m: int, t: float,
                     log_target: float) -> float:
    """Three fixed-point steps of mu = sqrt((ln L - ln target) / t) on the
    leading term L e^(-t mu^2) of _truncation_bound, L = 4 (d_s/2) binom(n
    + m - 2, m - 1) / (1 - e^(-4 t mu)) at the level count n of mu, from
    sqrt(-ln target / t).  At m = 2..12 and 161 theta in [-10, 10], inside
    the level limit, it lies below the cutoff of _solve_cutoff, by at most
    0.18 at t = 0.3, 0.02 and 0.01, 0.19 at t = 0.005 and 0.34 at t =
    0.001.  Each step starts no further than the floor of level
    MAX_LEVELS."""
    top = _level_floor(MAX_LEVELS + m // 2 - 2, theta)
    mu = math.sqrt(max(-log_target, 1.0) / t)
    for _ in range(3):
        mu = min(mu, top)
        lead = math.log(4 * (spinor_dimension(m) // 2) * max(math.comb(
            _level_count(theta, m, mu) + m - 2, m - 1), 1)) - math.log(
                max(1.0 - math.exp(-4.0 * t * mu), 1e-300))
        mu = math.sqrt(max(lead - log_target, 0.0) / t)
    return min(mu, top)


def _solve_cutoff(theta: float, m: int, t: float) -> float:
    """The least multiple of 1/8, from the one at or above _cutoff_estimate,
    past which the roots' _truncation_bound at t lies below 2^-70 of an
    estimate of the trace, half its interior term a_0 t^(-m/2).

    After one bound at the level limit, the search scans up from k/8, k >=
    1, three cutoffs to a bound.  The estimate lies below the least cutoff
    that is enough at m = 2..12, 161 theta in [-10, 10] and t = 0.001,
    0.005, 0.01, 0.02 and 0.3 (_cutoff_estimate): one bound there.  At t >=
    2, m >= 8 the least cutoff and the estimate can lie below the first
    level's floor, as does the cutoff returned: its spectrum is empty.  A
    cutoff with no bound (inf) is not enough.  q of _truncation_bound falls
    as the cutoff rises, so where the level limit has no bound (or a NaN),
    no cutoff below it has: the search returns the least cutoff whose
    first bound term, at least 2 d_s e^(-t mu^2), is enough if that lies
    past the limit, and else ends (InsufficientCutoffError).  A cutoff past
    the limit is spectrum's to refuse, and the scan stops at the first."""
    # in logs: t^(-m/2) overflows at t = 1e-300
    log_target = (math.log(2.0 ** -71 * pinned_a0(m))
                  - 0.5 * m * math.log(t))
    top = _level_floor(MAX_LEVELS + m // 2 - 2, theta)
    bound = float(_truncation_bound(theta, m, t, top,
                                    _level_count(theta, m, top)))
    if not bound < math.inf:
        least = math.ceil(8.0 * math.sqrt(max(math.log(
            2 * spinor_dimension(m)) - log_target, 0.0) / t)) / 8.0
        if _level_count(theta, m, least) > MAX_LEVELS:
            return least
        raise InsufficientCutoffError(
            f"truncation bound {bound:.3e} at t={t}: no cutoff within "
            f"{MAX_LEVELS} angular levels bounds the tail")
    k = max(math.ceil(8.0 * _cutoff_estimate(theta, m, t, log_target)), 1)
    while True:
        mu = [j / 8.0 for j in range(k, k + 3)]
        counts = [_level_count(theta, m, x) for x in mu]
        for x, bound in zip(mu, _truncation_bound(theta, m, t, mu,
                                                   counts).tolist()):
            if bound == 0.0 or math.log(bound) <= log_target:
                return x
        if counts[-1] > MAX_LEVELS:
            return mu[-1]
        k += 3


def heat_trace(theta: float, m: int,
               ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Truncated trace of exp(-t P^2) on the unit m-ball at each t of ts,
    and the truncation bound of each: deg * exp(-t mu^2) over the four
    families and all angular levels of one spectrum.

    The spectrum is solved to the cutoff mu_c of the smallest t, t_0
    (_solve_cutoff), and each value is one sum over every solved term.
    One _truncation_bound at t_0 bounds the roots past mu_c; while it
    exceeds 2^-70 of the value at t_0, the spectrum is solved again to
    twice the cutoff, until the level limit refuses it.  One t is enough:
    each term of the bound over each solved term is e^(-t (low^2 - mu^2))
    / (1 - e^(-4 t mu_c)), low >= mu_c >= mu, and q of the bound falls
    with t, so the bound over the value cannot rise with t.  The bound
    returned at each t is its value times r, the bound over the value at
    t_0; an r not below 1e-10 (not a number) is refused
    (InsufficientCutoffError).  A sum of N non-negative terms errs by at
    most (N - 1) 2^-53 of it, to first order (Higham, SIAM J. Sci. Comput.
    14 (1993) 783); numpy's pairwise sum is within 2 ulp of math.fsum on
    every T_GRID trace for m = 2..12 and 181 theta in [-9, 9].  A t at
    which every term underflows to 0 is out of range (ValueError)."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError("t must be positive and finite")
    if not ts.size:
        return np.empty(ts.shape), np.empty(ts.shape)
    t0 = float(ts.min())
    cutoff = _solve_cutoff(theta, m, t0)
    while True:
        mu, w, n_excl = spectrum(theta, m, cutoff)
        # one t at a time, so that no (len(ts), N) array is formed
        values = np.array([(w * np.exp(-t * mu * mu)).sum()
                           for t in ts.tolist()])
        value = float(values[ts.argmin()])
        bound = float(_truncation_bound(theta, m, t0, cutoff, n_excl))
        # the roots past the cutoff cannot move a value; a bound that is
        # not a number ends the loop too, and is refused below
        if not bound > 2.0 ** -70 * value:
            break
        cutoff *= 2.0
    if not values.all():
        raise ValueError(f"every term of the trace underflows at "
                         f"t={ts[values == 0.0][0]}: t is out of range")
    if not bound < 1e-10 * value:
        raise InsufficientCutoffError(
            f"truncation bound {bound:.3e} too large for trace "
            f"{value:.6e} at t={t0}")
    return values, bound / value * values


def pinned_a0(m: int) -> float:
    """Interior coefficient a_0 = (4 pi)^(-m/2) vol(B^m) d_s of the flat
    unit ball."""
    return (4 * math.pi) ** (-m / 2) * ball_volume(m) * spinor_dimension(m)


@functools.lru_cache(maxsize=64)
def _fit_basis(ts: tuple, m: int, depth: int) -> tuple:
    """What a fit of a_1..a_depth at ts takes from the basis alone, whatever
    the values: the design t^((n-m)/2), n = 1..depth, with unit columns,
    their norms, its condition number and, within a condition number of
    1e10, its pseudo-inverse V S^-1 U^T as the two factors V S^-1 and U^T
    of its thin SVD (None past it)."""
    t = np.array(ts)
    design = np.stack([t ** ((n - m) / 2) for n in range(1, depth + 1)],
                      axis=1)
    scale = np.linalg.norm(design, axis=0)
    design /= scale
    cond = float(np.linalg.cond(design))
    pinv = None
    if not cond > 1e10:
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        pinv = (vt.T / s, u.T)
        for a in pinv:
            a.flags.writeable = False
    design.flags.writeable = scale.flags.writeable = False
    return design, scale, cond, pinv


def fit_heat_coefficients(ts: Sequence[float], values: Sequence[float],
                          m: int) -> AsymptoticFit:
    """Least-squares extraction of a_1..a_K, K = FIT_DEPTH, from heat-trace
    values at ts against the basis t^((n-m)/2), with a_0 pinned to its known
    interior value.

    K = 5 lets the upper coefficients absorb higher-order contamination;
    the returned residual is the rms misfit.  The basis at each (ts, m,
    depth) is set up once (_fit_basis), so a fit is two products with the
    factors of its pseudo-inverse.
    """
    K = FIT_DEPTH
    t, y = np.asarray(ts, dtype=float), np.asarray(values, dtype=float)
    if t.size < K + 3:
        raise ValueError(f"need at least K+3 = {K + 3} samples")
    a0 = pinned_a0(m)
    y = y - a0 * t ** (-m / 2)
    key = tuple(t.tolist())

    def solve(depth):
        design, scale, cond, pinv = _fit_basis(key, m, depth)
        if pinv is None:
            raise IllConditionedFitError(
                f"fit condition estimate {cond:.3e}")
        # U^T first: the product V S^-1 U^T itself would round its
        # cancelling entries
        coef = pinv[0] @ (pinv[1] @ y)
        resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
        return coef / scale, resid, cond

    coef, resid, cond = solve(K)
    errors = np.full(K, resid)
    if t.size >= K + 4:
        try:
            deeper, _, _ = solve(K + 1)
            errors = np.abs(deeper[:K] - coef)
        except IllConditionedFitError:
            pass  # keep the rms fallback
    return AsymptoticFit(coeffs=np.concatenate([[a0], coef]),
                         residual=resid, condition_estimate=cond,
                         coeff_errors=np.concatenate([[0.0], errors]))
