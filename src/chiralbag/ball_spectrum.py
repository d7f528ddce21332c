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

The starts come from what does not depend on theta.  psi of a bracket
below mu_max runs from 0 (at mu = 0) or -pi/2 (at a zero of J_p) to pi/2
at its upper zero whatever theta is; only the target arctan r moves.  So a
node table, built once per process beside the zero table and grown with
it, holds the roots at SEGMENTS - 1 = 14 phases spaced evenly over each
bracket's range, solved from RK4 steps of dmu/dpsi = 1 / psi' run down
from the upper zero, with dmu/dpsi at each; a root starts at the cubic
Hermite interpolant of mu(psi) between the two nodes around its target,
within 1.3e-5 of itself, relative, over 0.5 <= |theta| <= 6 at m = 2 and
12.  A level p >= mu_max has one bracket, (0, mu_max], below its turning
point.  Four steps of the continued fraction from 0 and from rho_{p+4}
bound R_p(mu_max) from below and above and decide whether the bracket
holds a root; a pass at mu_max decides only the levels where some ratio
lies between the bounds.  The root starts where R_p = F_p(R_{p+1}) = r,
with R_{p+1} from three steps down from rho_{p+4}: within 4.9e-6 of the
root at |theta| = 1, 6.7e-8 at 1.5, 1.1e-9 at 2 and 4.4e-16 at 6.  The
floor is one pass of the continued fraction per root, and a warm heat
trace on T_GRID is at it: one pass, 1.08-1.12 elements per kept root at
m = 2 and 12 for 0.5 <= |theta| <= 3 and 1.01 at |theta| = 6.

The trace sums, exactly rounded, only the eigenvalues whose terms can reach
the result: those past a cut, where every later term is below 2^-70 of the
lowest one, are left out and their bound joins the truncation bound.  Nor
are the roots past that point solved: the solve stops at a cutoff
mu_c <= mu_max, set at the smallest t from the tail bound and the interior
term a_0 t^(-m/2), with the brackets and levels of the spectrum to mu_max
below it, so every root it keeps is the one the full solve gives.  After
the solve the tail bound past mu_c must lie below 2^-70 of the value at
every t, or the spectrum is solved again to mu_max.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import ball_volume, spinor_dimension
from .specialfn import jn_zeros

# largest Newton correction |g / g'| / mu left at a returned root, where
# g = arctan R_p(mu) - arctan r: the phase residual in units of the root,
# bounded by the solve's last step (_solve)
ROOT_RTOL = 1e-13
# a spectrum with more angular levels below mu_max is refused
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


def _level_floor(p, theta: float):
    """2(p+1) rho/(1+rho), rho = e^-|theta|, below every root of level p."""
    rho = math.exp(-abs(theta))
    return 2.0 * (p + 1) * rho / (1.0 + rho)


@functools.cache
def _zero_table() -> list:
    """The zeros of J_p computed so far, as the one item of a list that
    _brackets replaces as it grows: row p holds them ascending, then +inf,
    and the last column is +inf in every row.  jn_zeros gives the same
    leading zeros whatever their count, so a row is cut at any cutoff by
    comparison and grown by computing it again."""
    return [np.full((0, 1), np.inf)]


def _brackets(low: np.ndarray, cutoff: float) -> tuple:
    """Level, lower and upper end of each bracket of the levels low, up to
    the first zero of J_p past cutoff: (0, j_{p,1}), (j_{p,1}, j_{p,2}), ...,
    level by level in the order of low, and the flat index of its upper end
    in the zero table.  A row of the zero table without a zero past cutoff
    is computed again, from its McMahon count j_{p,k} ~ (k + p/2 - 1/4)
    pi."""
    holder = _zero_table()
    zeros = holder[0]
    rows = np.full((low.size, zeros.shape[1]), np.inf)
    held = low < len(zeros)
    rows[held] = zeros[low[held]]
    count = np.count_nonzero(rows <= cutoff, axis=1)
    stale = low[np.isinf(rows[np.arange(low.size), count])].tolist()
    if stale:
        grown = {}
        for p in stale:
            nt = max(1, int(cutoff / math.pi - p / 2 + 0.25) + 2)
            zs = jn_zeros(p, nt)
            while zs[-1] <= cutoff:
                nt += max(4, nt // 2)
                zs = jn_zeros(p, nt)
            grown[p] = zs
        table = np.full((max(len(zeros), max(stale) + 1),
                         max(zeros.shape[1],
                             1 + max(zs.size for zs in grown.values()))),
                        np.inf)
        table[:len(zeros), :zeros.shape[1]] = zeros
        for p, zs in grown.items():
            table[p, :zs.size] = zs
        holder[0] = table
        return _brackets(low, cutoff)
    inside = np.arange(rows.shape[1]) <= count[:, None]
    lo = np.concatenate((np.zeros((low.size, 1)), rows[:, :-1]), axis=1)
    at = low[:, None] * rows.shape[1] + np.arange(rows.shape[1])
    return (np.broadcast_to(low[:, None], rows.shape)[inside], lo[inside],
            rows[inside], at[inside])


# the node table cuts the phase range of every bracket into SEGMENTS equal
# parts; an odd count puts no node of a bracket between zeros at psi = 0,
# a zero of J_{p+1}, where the continued fraction divides by zero
SEGMENTS = 15


@functools.cache
def _node_table() -> list:
    """The zero table the nodes were solved for, and the nodes of each of
    its brackets, as the two items of a list that _nodes replaces as the
    zero table grows.  The nodes of a bracket are mu and dmu/dpsi at the
    SEGMENTS + 1 phases spaced evenly from its low phase (0 at mu = 0 in a
    first bracket, -pi/2 at a zero of J_p above one) to pi/2 at its upper
    end; they sit at the bracket's place in the zero table, NaN where it
    holds no zero."""
    return [np.full((0, 1), np.inf), np.empty((0, 1, SEGMENTS + 1, 2))]


def _node_phases(first: np.ndarray) -> tuple:
    """Low phase and node spacing of brackets that are (first) or are not
    the first of their level."""
    low = np.where(first, 0.0, -0.5 * np.pi)
    return low, (0.5 * np.pi - low) / SEGMENTS


def _nodes(zeros: np.ndarray) -> np.ndarray:
    """The nodes of every bracket of the zero table zeros, one row per entry
    of it.  The brackets the node table holds keep their bits and the rest
    are solved in one _solve_nodes: a bracket's nodes are the same whichever
    others are solved with them, since each element of a solve is computed
    alone."""
    holder = _node_table()
    if holder[0] is not zeros:
        old, held_nodes = holder
        nodes = np.full(zeros.shape + (SEGMENTS + 1, 2), np.nan)
        # an equal zero is the same bracket: jn_zeros keeps leading zeros
        a, b = (min(x, y) for x, y in zip(old.shape, zeros.shape))
        held = np.zeros(zeros.shape, dtype=bool)
        held[:a, :b] = np.isfinite(zeros[:a, :b]) & (old[:a, :b]
                                                     == zeros[:a, :b])
        nodes[held] = held_nodes[:a, :b][held[:a, :b]]
        p, k = np.nonzero(np.isfinite(zeros) & ~held)
        nodes[p, k] = _solve_nodes(p, np.where(k > 0, zeros[p, k - 1], 0.0),
                                   zeros[p, k])
        holder[:] = [zeros, nodes]
    return holder[1].reshape(-1, SEGMENTS + 1, 2)


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
def _reach_table() -> list:
    """M + _tail(M) at M = 0, 1, ... as far as computed (0 at M = 0), as
    the one item of a list that _depth replaces as it grows."""
    return [np.zeros(1, dtype=np.intp)]


def _depth(p: np.ndarray, mu: np.ndarray) -> int:
    """Steps of one _phase pass over a nonempty mu: the most any element
    needs, ceil(max(mu - p, 0)) + _tail(M) at M = ceil mu.  For integer p
    that is max(M + _tail(M) - p, _tail(M)): the first is read from one
    table, and the second is largest at the largest M."""
    top = np.ceil(mu).astype(np.intp)
    most = int(top.max())
    holder = _reach_table()
    if holder[0].size <= most:
        holder[0] = np.array([0] + [M + _tail(M) for M in range(1, most + 1)])
    return max(int(np.max(holder[0][top] - p)), _tail(most))


def _phase(p: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """arctan R_p(mu) elementwise for integer p >= 0 and mu > 0 from the
    backward continued fraction, started from R = 0 at k = p + _depth(p,
    mu), one depth for the whole pass: a deeper start only helps.

    So an element with M = ceil mu starts N >= K + _tail(M) at K = max(p,
    M).  With R_N <= rho_N and the contraction rho_j^2 of each step, its
    error at K is at most rho_N prod_{j=K}^{N-1} rho_j^2, rho_j taken at
    this mu.  That is at most the product _tail(M) bounds, below e^-40:
    rho_j at mu is at most rho_{j-K+M} at M, as (j+1)/mu >= (j-K+M+1)/M,
    and each further step only lowers it.  The steps down to p keep it so.
    """
    if not mu.size:
        return np.zeros(mu.shape)
    depth = _depth(p, mu)
    # R = mu / (2(p + j) - mu R) in place: 2(p + j) is an integer, exact in
    # float64 however it is reached, so each step rounds as the plain one
    ratio, denom = np.zeros(mu.shape), np.empty(mu.shape)
    twice = 2.0 * (p + depth)
    for _ in range(depth):
        np.multiply(mu, ratio, out=denom)
        np.subtract(twice, denom, out=denom)
        np.divide(mu, denom, out=ratio)
        twice -= 2.0
    return np.arctan(ratio)


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
            k2 = h / _slope(p, mu + 0.5 * k1, psi + 0.5 * h)
            k3 = h / _slope(p, mu + 0.5 * k2, psi + 0.5 * h)
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
    root retires when the step's error estimate is below 1e-15 mu; a step
    that leaves the closed bracket, or is not finite, bisects it instead.

    The Bessel recurrences give R_p' = 1 - (2p + 1) R_p / mu + R_p^2, so
    psi = arctan R_p has psi' = R_p' / (1 + R_p^2) = 1 - (p + 1/2) sin 2psi
    / mu: the field of the step is exact, and its only error is the step's.

    The bound on the Newton correction |g / psi'|, g = psi - target, that a
    pass at the returned root mu_1 would read is the sum of three terms:
    - The step's error.  Its estimate is the gap to the embedded third-order
      step that takes dmu/dpsi at the step's end, (mu_1, target), in place
      of its last stage: |k5 - k4| / 6, k5 = h / psi'(mu_1, target).  That
      gap is the local error of the third-order step, of order h^4, and so
      above the RK4 step's own, of order h^5, once the step is small.
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
    TestRootCheck re-evaluates the correction at every root of four
    spectra; at m = 2..12 and ten theta in [-6, 9] it stays below 0.79 of
    the bound.

    A spectrum's roots start where _roots puts them: in a bracket below
    mu_max by cubic Hermite interpolation of mu(psi) between the two nodes
    of the node table around target, within 1.3e-5 of the root (relative),
    and in the one bracket (0, mu_max] of a level p >= mu_max where R_p = r
    with R_{p+1} from the continued fraction run down from rho_{p+4}
    (_high_start), within 2e-6 at |theta| = 1.1 and 1.1e-9 at 2.  From
    these starts the first step retires every root of a heat trace on
    T_GRID, at m = 2..12 and |theta| <= 6: its solve is one pass.  The
    nodes themselves start from 4 RK4 steps run down from their bracket's
    upper end (_solve_nodes)."""
    mu = np.where((mu > lo) & (mu < hi), mu, 0.5 * (lo + hi))
    root, left = np.empty(lo.shape), np.empty(lo.shape)
    live = np.arange(lo.size)
    for _ in range(100):
        phase = _phase(p, mu)
        g = phase - target
        lo, hi = np.where(g < 0.0, mu, lo), np.where(g > 0.0, mu, hi)
        new, k4 = _rk4(p, mu, phase, -g, 1)
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
        more = ~(error <= 1e-15 * new)
        if not more.any():
            break
        live, p, target, lo, hi, mu = (
            a[more] for a in (live, p, target, lo, hi, new))
    return root, left


def _hermite(target: np.ndarray, first: np.ndarray, at: np.ndarray,
             nodes: np.ndarray) -> np.ndarray:
    """mu at psi = target in the brackets at the flat indices at of the zero
    table, first or not the first of their level, a row for each target of
    a column: the cubic Hermite interpolant of their nodes (_nodes) on the
    segment around target, found by its index, not by a search."""
    low, step = _node_phases(first)
    x = (target - low) / step
    k = np.clip(np.floor(x), 0, SEGMENTS - 1).astype(np.intp)
    u = x - k
    v = 1.0 - u
    # mu and dmu/dpsi at the segment's ends are 4 floats in a row
    mu0, rate0, mu1, rate1 = np.moveaxis(nodes.reshape(-1)[
        (2 * ((SEGMENTS + 1) * at + k))[..., None] + np.arange(4)], -1, 0)
    return (v * v * ((1.0 + 2.0 * u) * mu0 + step * u * rate0)
            + u * u * ((3.0 - 2.0 * u) * mu1 - step * v * rate1))


def _rho(k, mu):
    """rho_k = mu / ((k+1) + sqrt((k+1)^2 - mu^2)), the fixed point of F_k,
    for mu <= k + 1."""
    return mu / ((k + 1) + np.sqrt((k + 1) * (k + 1) - mu * mu))


def _fraction(p, mu, ratio, steps: int):
    """R_p from steps of the continued fraction, F_p(F_{p+1}(... F_{p+steps-1}(
    ratio))), ratio standing for R_{p+steps}."""
    for k in range(steps - 1, -1, -1):
        ratio = mu / (2.0 * (p + k + 1) - mu * ratio)
    return ratio


def _high_bounds(high: np.ndarray, mu_max: float) -> tuple:
    """Lower and upper bounds on R_p(mu_max) for the levels p >= mu_max:
    the continued fraction's first four steps, F_p(F_{p+1}(F_{p+2}(F_{p+3}(
    R)))), from R = 0 and from R = rho_{p+4}.  Below j_{p+4,1} > mu_max,
    0 <= R_{p+4} <= rho_{p+4} (Pincherle), and each F_k is increasing, so
    the two enclose R_p; they lie within rho_{p+4} prod_k rho_k^2 of each
    other."""
    mu = float(mu_max)
    return (_fraction(high, mu, 0.0, 4),
            _fraction(high, mu, _rho(high + 4, mu), 4))


def _high_hits(high: np.ndarray, r: np.ndarray, mu_max: float) -> np.ndarray:
    """Whether the one bracket (0, mu_max] of each level p >= mu_max
    (columns) holds a root for each ratio r (rows): iff r > 0 and
    arctan R_p(mu_max) >= arctan r.  A positive r up to the lower bound of
    _high_bounds has a root and one past its upper bound none, each with a
    margin of 1e-12 for rounding; only the levels where some r lies
    between the two take a pass of the continued fraction at mu_max."""
    lower, upper = _high_bounds(high, mu_max)
    hit = (r > 0.0) & (r <= (1.0 - 1e-12) * lower)
    undecided = (r > 0.0) & ~hit & (r <= (1.0 + 1e-12) * upper)
    cols = undecided.any(axis=0)
    if cols.any():
        top = _phase(high[cols], np.full(np.count_nonzero(cols),
                                          float(mu_max)))
        hit[:, cols] = (r > 0.0) & (top >= np.arctan(r))
    return hit


def _high_start(p: np.ndarray, r: np.ndarray, mu_max: float) -> np.ndarray:
    """The start of the root of R_p = r, 0 < r < 1, in the bracket (0,
    mu_max] of a level p >= mu_max, below its turning point.  The root of
    R_p = F_p(rho_{p+1}), with rho_{p+1} = mu / (2(p+2) - mu rho_{p+1}),
    is mu = r (p + sqrt(p^2 + 4(p+1)(1+r^2))) / (1+r^2).  Two fixed-point
    steps of mu = 2(p+1) r / (1 + r R_{p+1}(mu)), which is R_p = r, refine
    it, with R_{p+1} from three steps of the continued fraction down from
    rho_{p+4}.  Near the turning point these steps can overshoot, so each
    starts from mu cut to the bracket, where rho_{p+4} is real."""
    mu = r * (p + np.sqrt(p * p + 4.0 * (p + 1) * (1.0 + r * r))) / (
        1.0 + r * r)
    for _ in range(2):
        mu = np.minimum(mu, mu_max)
        ratio = _fraction(p + 1, mu, _rho(p + 4, mu), 3)
        mu = 2.0 * (p + 1) * r / (1.0 + r * ratio)
    return mu


def _roots(levels: np.ndarray, ratios: Sequence[float], theta: float,
           mu_max: float, cutoff: float | None = None) -> tuple:
    """Level and value of each root in (0, cutoff] of J_{p+1} = r J_p, all
    levels p and ratios r (|r| >= e^-|theta|); the cutoff is mu_max unless
    given below it.  Brackets end at the zeros of J_p up to one past the
    cutoff; a level p >= mu_max has one, (0, mu_max], which holds a root iff
    r > 0 and arctan R_p(mu_max) >= arctan r, decided by bounds on
    R_p(mu_max) where they can (_high_hits).  So a bracket is the same at
    any cutoff, and so is each root it gives.

    A root in a bracket between zeros, or in a first bracket below mu_max,
    starts from the node table (_hermite).  A first bracket lies below the
    turning point mu ~ p where mu <= mu_max <= p, and there R_p is near its
    fixed point; the root of a level p >= mu_max starts where R_p, with
    R_{p+1} taken from the fixed point rho_{p+4}, equals r (_high_start)."""
    if mu_max <= 0:
        raise ValueError("mu_max must be positive")
    cutoff = mu_max if cutoff is None else cutoff
    low, lo, hi, at = _brackets(levels[levels < mu_max], cutoff)
    high = levels[levels >= mu_max]
    r = np.array(ratios, dtype=float)[:, None]
    target = np.arctan(r)

    def rows(below, above):
        """A row per ratio: the brackets below mu_max, then those above."""
        return np.concatenate((np.broadcast_to(below, (r.size, low.size)),
                               np.broadcast_to(above, (r.size, high.size))),
                              axis=1)
    hit = rows((lo > 0.0) | (target > 0.0), _high_hits(high, r, mu_max))
    start = rows(_hermite(target, lo == 0.0, at, _nodes(_zero_table()[0])),
                 np.nan)
    p, lo, hi = rows(low, high), rows(lo, 0.0), rows(hi, mu_max)
    ratio, target = np.broadcast_to(r, p.shape), np.broadcast_to(target,
                                                                 p.shape)
    above = hit.copy()
    above[:, :low.size] = False
    start[above] = _high_start(p[above], ratio[above], mu_max)
    p, target = p[hit], target[hit]
    roots, left = _solve(p, target,
                         np.maximum(lo[hit], _level_floor(p, theta)),
                         hi[hit], start[hit])
    shift = np.max(left / roots, initial=0.0)
    if shift > ROOT_RTOL:
        raise RuntimeError(f"root solve failed: a correction of "
                           f"{shift:.3e} of the root is left")
    keep = roots <= cutoff
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


def _level_count(theta: float, m: int, mu: float) -> int:
    """Number of angular levels whose root floor lies below mu, one spare
    for rounding; more than MAX_LEVELS are refused."""
    # last level p with _level_floor(p) <= mu
    n_levels = mu / _level_floor(0, theta) - (m // 2 - 1) + 1
    if n_levels > MAX_LEVELS:
        raise ValueError(f"{n_levels:.3g} angular levels below "
                         f"mu_max={mu}, over {MAX_LEVELS}")
    return max(int(n_levels), 0)


def spectrum(theta: float, m: int, mu_max: float,
             cutoff: float | None = None) -> tuple:
    """Sorted eigenvalue array and matching degeneracy weights for all four
    families, every angular level whose root floor lies below mu_max, and
    the number of levels.  A cutoff below mu_max keeps the roots up to it
    and the levels whose floor lies below it, each solved as in the
    spectrum to mu_max; the level limit still counts to mu_max."""
    spinor_dimension(m)  # refuses a bad m before the solve
    # r of J_{p+1} = r J_p for (chirality, branch) = (+, pos), (+, neg),
    # (-, pos), (-, neg)
    ratios = (math.exp(theta), -math.exp(theta), -math.exp(-theta),
              math.exp(-theta))
    p0 = m // 2 - 1
    cutoff = mu_max if cutoff is None else cutoff
    _level_count(theta, m, mu_max)  # refuses too many levels
    n_levels = _level_count(theta, m, cutoff)
    p, mu = _roots(np.arange(p0, p0 + n_levels), ratios, theta, mu_max,
                   cutoff)
    deg = np.array([degeneracy(n, m) for n in range(n_levels)], dtype=float)
    order = np.argsort(mu)
    return mu[order], deg[p - p0][order], n_levels  # n = first excluded level


def _least(holds, below: int, above: int) -> int:
    """Bisection: the least n in (below, above] with holds(n), for holds
    false at below, true at above and monotone between."""
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if holds(mid) else (mid, above)
    return above


def _truncation_bound(theta: float, m: int, t: float, mu_max: float,
                      n_excluded: int) -> float:
    """Gaussian tail bound for the roots above mu_max of the levels
    n < n_excluded and all roots of the later levels: roots of one family
    are at least 2 apart (zeros of J_p are at least pi apart for the
    relevant p), every root exceeds _level_floor at any theta, and the
    level terms are log-concave in n, so they rise to a peak, each below
    it, and fall from there at least geometrically.  The peak is found by
    bisection; past MAX_LEVELS more levels there is no bound (inf)."""
    spacing = max(1.0 - math.exp(-4.0 * t * mu_max), 1e-300)

    def level(n: int) -> float:  # four families, roots above mu_max
        low = max(mu_max, _level_floor(n + m // 2 - 1, theta))
        return 4.0 * degeneracy(n, m) * math.exp(-t * low * low) / spacing

    def falls(n: int) -> bool:  # at or past the peak
        term = level(n)
        return term == 0.0 or level(n + 1) < term
    # sum_{n < N} binom(n + m - 2, n) = binom(N + m - 2, m - 1)
    bound = 4.0 * (spinor_dimension(m) // 2) * math.comb(
        n_excluded + m - 2, m - 1) * math.exp(-t * mu_max * mu_max) / spacing
    n = n_excluded
    if not falls(n):
        if not falls(n + MAX_LEVELS):
            return math.inf
        n = _least(falls, n, n + MAX_LEVELS)
        bound += (n - n_excluded) * level(n)
    term = level(n)
    if term == 0.0:
        return bound
    return bound + term / (1.0 - level(n + 1) / term)


def _solve_cutoff(theta: float, m: int, t: float, mu_max: float) -> float:
    """The multiple of 1/8, found by bisection, past which the roots'
    _truncation_bound at t lies below 2^-70 of an estimate of the trace,
    half its interior term a_0 t^(-m/2); mu_max where mu_max is not
    enough."""
    # in logs: t^(-m/2) overflows at t = 1e-300
    log_target = (math.log(2.0 ** -71 * pinned_a0(m))
                  - 0.5 * m * math.log(t))

    def enough(mu: float) -> bool:
        bound = _truncation_bound(theta, m, t, mu,
                                  _level_count(theta, m, mu))
        return bound == 0.0 or math.log(bound) <= log_target
    if not enough(mu_max):
        return mu_max
    eighths = _least(lambda k: enough(k / 8.0), 0, math.ceil(8.0 * mu_max))
    return min(eighths / 8.0, mu_max)


def heat_trace(theta: float, m: int, ts: Sequence[float],
               mu_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated trace of exp(-t P^2) on the unit m-ball at each t of ts,
    and the truncation bound of each: deg * exp(-t mu^2) over the four
    families and all angular levels of one spectrum.

    The spectrum is solved only up to a cutoff, mu_c <= mu_max, chosen at
    the smallest t so that the truncation bound of the roots past it is
    below 2^-70 of an estimate of the trace.  After the solve that tail
    bound must lie below 2^-70 of the value at every t; where it does not,
    the spectrum is solved again to mu_max by the same path.

    The first term w_0 exp(-t mu_0^2) is a lower bound on the trace, so the
    solved terms at mu >= cut, t cut^2 = ln(sum w / w_0) + 70 ln 2 + t
    mu_0^2, add up to less than 2^-70 of it.  Only the terms below cut are
    summed, exactly rounded (math.fsum), and the bound of the rest, sum w
    exp(-t cut^2), joins the tail bound in the truncation bound, which is
    below 2^-69 of the value unless the spectrum to mu_max is not enough.
    So the value is the exactly rounded sum of every term unless that sum
    lies within 2^-69 of a rounding boundary, and one ulp from it even
    then.  A t at which every term and the bound underflow to 0 is out of
    range (ValueError), not a cutoff too small."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise ValueError("t must be positive and finite")
    values, tails, bounds = (np.empty(ts.shape) for _ in range(3))
    first = (_solve_cutoff(theta, m, float(ts.min()), mu_max) if ts.size
             else mu_max)
    for cutoff in (first, mu_max):
        mu, w, n_excl = spectrum(theta, m, mu_max, cutoff)
        # fsum walks a memoryview's floats faster than a list or an array
        weight = math.fsum(memoryview(w))
        # ln(sum w / w_0) + 70 ln 2 and mu_0; an empty spectrum sums nothing
        spread, mu0 = ((math.log(weight / w[0]) + 70.0 * math.log(2.0),
                        float(mu[0])) if mu.size else (0.0, 0.0))
        for i, t in enumerate(ts.tolist()):
            cut = math.sqrt(spread / t + mu0 * mu0)
            k = int(np.searchsorted(mu, cut))
            values[i] = math.fsum(
                memoryview(w[:k] * np.exp(-t * mu[:k] * mu[:k])))
            tails[i] = _truncation_bound(theta, m, t, cutoff, n_excl)
            bounds[i] = tails[i] + weight * math.exp(-t * cut * cut)
        # the roots past the cutoff cannot move a value
        if cutoff == mu_max or np.all(tails <= 2.0 ** -70 * values):
            break
    for t, value, bound in zip(ts.tolist(), values, bounds):
        if value == bound == 0.0:
            raise ValueError(f"every term of the trace underflows at t={t}: "
                             f"t is out of range")
        if not bound < 1e-10 * value:
            raise InsufficientCutoffError(
                f"truncation bound {bound:.3e} too large for trace "
                f"{value:.6e} at t={t}; raise mu_max")
    return values, bounds


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
