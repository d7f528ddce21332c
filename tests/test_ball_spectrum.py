import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from chiralbag import ball_spectrum as bs
from chiralbag.coefficients import universal_constants

# the (chirality, branch) eigenvalue families, in the order spectrum takes
# their ratios
FAMILIES = (("plus", "pos"), ("plus", "neg"), ("minus", "pos"),
            ("minus", "neg"))


def ratio(chirality, sign, theta):
    """r in the family's eigenvalue condition J_{p+1} = r J_p:
    +-e^theta for chirality plus, -+e^-theta for minus."""
    r = math.exp(theta if chirality == "plus" else -theta)
    return r if (chirality == "plus") == (sign == "pos") else -r


def roots(p, r, theta, mu_max):
    """The roots of J_{p+1} = r J_p in (0, mu_max], ascending, from the
    brackets and solve of the whole spectrum."""
    return bs._roots(np.array([p]), [r], theta, mu_max)[1]


def dense_scan_roots(p, r, mu_max, step=0.002):
    """Independent root oracle: dense grid scan for sign changes of
    J_{p+1} - r J_p followed by plain bisection."""
    grid = np.arange(step, mu_max, step)
    g = sp.jv(p + 1, grid) - r * sp.jv(p, grid)
    roots = []
    for k in np.nonzero(np.sign(g[1:]) != np.sign(g[:-1]))[0]:
        lo, hi = grid[k], grid[k + 1]
        flo = sp.jv(p + 1, lo) - r * sp.jv(p, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = sp.jv(p + 1, mid) - r * sp.jv(p, mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestDegeneracy:
    def test_values(self):
        assert all(bs.degeneracy(n, 2) == 1 for n in range(6))
        assert bs.degeneracy(0, 4) == 2
        assert bs.degeneracy(1, 4) == 6
        assert bs.degeneracy(2, 6) == (8 // 2) * math.comb(6, 2)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            bs.degeneracy(-1, 2)


class TestFamilies:
    """The spectrum is the four families' roots at Bessel order
    p = n + m/2 - 1 of level n."""

    def test_ratio_mapping(self):
        th, mu_max = 0.7, 30.0
        mu, _, n_excl = bs.spectrum(th, 2, mu_max)
        expect = np.sort(np.concatenate([
            bs._roots(np.arange(n_excl), [ratio(c, s, th)], th, mu_max)[1]
            for c, s in FAMILIES]))
        assert mu.size == expect.size
        assert np.abs(mu - expect).max() < 1e-12

    def test_p_index(self):
        # the lowest eigenvalue at m = 4 is in level n = 0, order p = 1
        mu, w, _ = bs.spectrum(0.7, 4, 20.0)
        lowest = min(roots(1, ratio(c, s, 0.7), 0.7, 20.0)[0]
                     for c, s in FAMILIES)
        assert mu[0] == pytest.approx(lowest, rel=1e-13)
        assert w[0] == bs.degeneracy(0, 4)

    def test_validation(self):
        # an odd dimension has no spinor degeneracy
        with pytest.raises(ValueError):
            bs.spectrum(0.7, 3, 20.0)

    @pytest.mark.parametrize("m", (3, 0))
    def test_bad_m_refused_before_the_solve(self, m, monkeypatch):
        def solve(*args):
            raise AssertionError("roots solved for a bad m")
        monkeypatch.setattr(bs, "_roots", solve)
        with pytest.raises(ValueError, match="even"):
            bs.spectrum(0.5, m, 100.0)


class TestFindRoots:
    def test_first_root_j1_equals_j0(self):
        rs = roots(0, ratio("plus", "pos", 0.0), 0.0, 20.0)
        assert rs[0] == pytest.approx(1.4347, abs=2e-4)

    @pytest.mark.parametrize("theta", (0.0, 0.9, -1.6, 3.0))
    @pytest.mark.parametrize("chirality,sign",
                             [("plus", "pos"), ("plus", "neg"),
                              ("minus", "pos"), ("minus", "neg")])
    def test_against_dense_scan_oracle(self, theta, chirality, sign):
        # level n = 1 at m = 4
        r = ratio(chirality, sign, theta)
        rs = roots(2, r, theta, 25.0)
        oracle = dense_scan_roots(2, r, 25.0)
        assert len(rs) == len(oracle)
        assert np.abs(rs - oracle).max() < 1e-8

    def test_roots_satisfy_condition(self):
        # level n = 2 at m = 6
        p, r = 4, ratio("minus", "pos", 1.2)
        rs = roots(p, r, 1.2, 40.0)
        resid = np.abs(sp.jv(p + 1, rs) - r * sp.jv(p, rs))
        assert resid.max() < 1e-11
        assert np.all(np.diff(rs) > 0)

    def test_interlacing_with_bessel_zeros(self):
        # theta=0, p=0: roots of J1 = +-J0 interlace with zeros of J0
        z0 = sp.jn_zeros(0, 5)
        pos = roots(0, ratio("plus", "pos", 0.0), 0.0, z0[-1])
        for k in range(4):
            assert np.count_nonzero((pos > z0[k]) & (pos < z0[k + 1])) == 1
        assert np.count_nonzero(pos < z0[0]) == 1

    def test_theta_reflection_swaps_families(self):
        th = 0.8
        a = roots(0, ratio("plus", "pos", th), th, 30.0)
        b = roots(0, ratio("minus", "neg", -th), -th, 30.0)
        assert len(a) == len(b)
        assert np.abs(a - b).max() < 1e-11

    @pytest.mark.parametrize("p", (230, 231, 1000))
    def test_small_ratio_roots_against_mpmath(self, p):
        # r = e^-4: the one root below 100 sits near 2(p+1) r, far below p,
        # where J_p underflows in double precision
        mp = pytest.importorskip("mpmath")
        r = ratio("minus", "neg", 4.0)
        found = roots(p, r, 4.0, 100.0)
        assert len(found) == 1
        with mp.workdps(50):
            exact = mp.findroot(
                lambda z: mp.besselj(p + 1, z) / mp.besselj(p, z) - r,
                mp.mpf(found[0]))
            assert abs(found[0] / exact - 1) < 1e-12

    @pytest.mark.parametrize("theta", (1.0, 2.0, -2.0))
    @pytest.mark.parametrize("p", (30, 60, 90, 100, 120))
    def test_first_root_below_turning_point_against_mpmath(self, p, theta):
        # r = e^-|theta|: the first root lies below mu = p, where the phase
        # start crosses the flat turning region; at p >= mu_max = 100 it
        # runs from arctan R_p(mu_max), not pi/2
        mp = pytest.importorskip("mpmath")
        r = math.exp(-abs(theta))
        found = roots(p, r, theta, 100.0)[0]
        assert found < p
        with mp.workdps(50):
            exact = mp.findroot(
                lambda z: mp.besselj(p + 1, z) - r * mp.besselj(p, z),
                mp.mpf(found))
            assert abs(found / exact - 1) < 1e-14

    @pytest.mark.parametrize("theta,m", ((0.5, 2), (1.0, 2), (2.0, 2),
                                         (3.0, 2), (3.0, 12), (6.0, 2)))
    def test_phase_work_per_root(self, theta, m, phase_sizes):
        # every element the continued fraction evaluates in one spectrum
        # once the node table holds its brackets; the count repeats exactly
        warm(theta, m, phase_sizes)
        mu = bs.spectrum(theta, m, 100.0)[0]
        per_root = 1.01 if theta == 6.0 else 1.4
        assert sum(phase_sizes) <= per_root * mu.size

    def test_no_phase_pass_rechecks_the_roots(self, phase_sizes):
        # bounds decide every level past mu_max at theta = 1, and each root
        # retires in its first RK4 round: one pass, and the roots' check
        # reads it
        warm(1.0, 2, phase_sizes)
        bs.spectrum(1.0, 2, 100.0)
        assert len(phase_sizes) == 1

    @pytest.mark.parametrize("m", (2, 12))
    @pytest.mark.parametrize("theta,two_passes", (
        (0.5, 2.5), (1.0, 2.5), (1.5, 2.5), (2.0, 2.5), (3.0, 2.5),
        (6.0, 3.0)))
    def test_warm_solve_at_the_floor(self, theta, m, two_passes,
                                     phase_sizes):
        # at the cutoff of heat_trace on T_GRID, two passes per root, one
        # to step and one to confirm, take up to two_passes elements per
        # kept root; the RK4 step from the first pass lands on every root,
        # which retires there: a whole pass per root fewer, and with the
        # levels past mu_max decided by bounds one pass in all
        cutoff = bs._solve_cutoff(theta, m, bs.T_GRID[0], 100.0)
        bs.spectrum(theta, m, 100.0, cutoff)
        phase_sizes.clear()
        mu = bs.spectrum(theta, m, 100.0, cutoff)[0]
        assert sum(phase_sizes) <= (two_passes - 1.0) * mu.size
        assert len(phase_sizes) == 1

    @pytest.mark.parametrize("mu_max", (20.0, 100.0))
    def test_levels_past_mu_max_decided_by_bounds(self, mu_max,
                                                  phase_sizes):
        # a level p >= mu_max holds a root iff r > 0 and arctan R_p(mu_max)
        # >= arctan r; its bounds decide that without a pass wherever r is
        # outside them, and a pass at mu_max decides the levels where some
        # r falls between them.  r sits inside the bounds of level 7
        high = np.arange(int(mu_max), int(mu_max) + 300)
        lower, upper = bs._high_bounds(high, mu_max)
        inside = 0.5 * (lower[7] + upper[7])
        assert lower[7] < inside <= upper[7]
        top = plain_phase(high, np.full(high.size, mu_max))
        assert np.all((np.tan(top) >= lower) & (np.tan(top) <= upper))
        # just below and just above R_p(mu_max) of every 37th level
        cols = np.arange(0, high.size, 37)
        near = np.tan(top[cols]) * (1.0 + np.array([[-1e-9], [1e-9]]))
        r = np.concatenate(([-math.e, -0.3, 0.0, math.exp(-6.0), 0.05,
                             math.exp(-1.0), 0.9, 1.0, math.e, inside],
                            near.ravel()))[:, None]
        hit = bs._high_hits(high, r, mu_max)
        assert np.array_equal(hit, (r > 0.0) & (top >= np.arctan(r)))
        assert hit[3].all() and not hit[[0, 1, 2, 7, 8]].any()
        k = np.arange(cols.size)
        assert hit[10 + k, cols].all() and not hit[10 + cols.size + k,
                                                  cols].any()
        # one pass, at most over level 7 and the levels of near
        assert len(phase_sizes) == 1
        assert 1 <= phase_sizes[0] <= 1 + near.shape[1]
        # ratios outside every bound take no pass
        phase_sizes.clear()
        r = np.array([[-1.0], [math.exp(-6.0)], [1.0]])
        hit = bs._high_hits(high, r, mu_max)
        assert np.array_equal(hit, (r > 0.0) & (top >= np.arctan(r)))
        assert phase_sizes == []

    @pytest.mark.parametrize("mu_max", (3.0, 100.0, 1000.0))
    def test_start_past_mu_max_at_the_turning_point(self, mu_max):
        # a ratio at the bounds of the levels just past mu_max puts the
        # root near the turning point, where the start's fixed-point steps
        # overshoot: the start stays finite, without a warning
        high = np.arange(int(mu_max), int(mu_max) + 50)
        for r in bs._high_bounds(high, mu_max):
            assert np.all(np.isfinite(bs._high_start(high, r, mu_max)))

    @pytest.mark.parametrize("theta,m,build", (
        pytest.param(1.0, 2, 27_000, id="1.0-2"),
        pytest.param(3.0, 12, 25_000, id="3.0-12")))
    def test_node_table_build_from_empty(self, theta, m, build, phase_sizes):
        # the elements the continued fraction evaluates to solve the nodes
        # of every bracket of spectrum(theta, m, 100) from empty tables:
        # what a cold spectrum evaluates past a warm one
        bs._zero_table.cache_clear()
        bs._node_table.cache_clear()
        bs.spectrum(theta, m, 100.0)
        cold = sum(phase_sizes)
        phase_sizes.clear()
        bs.spectrum(theta, m, 100.0)
        assert 0 < cold - sum(phase_sizes) <= build

    @pytest.mark.parametrize("p", (60, 231))
    def test_root_count_against_mpmath(self, p):
        # sign changes of J_{p+1} - r J_p in 30-digit arithmetic on a 0.1
        # grid; roots of one family lie more than 2 apart
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            grid = [mp.mpf(k) / 10 for k in range(1, 1001)]
            jp = [mp.besselj(p, x) for x in grid]
            jp1 = [mp.besselj(p + 1, x) for x in grid]
            for c, s in FAMILIES:
                r = ratio(c, s, 4.0)
                sg = [mp.sign(a - mp.mpf(r) * b) for a, b in zip(jp1, jp)]
                changes = sum(a != b for a, b in zip(sg, sg[1:]))
                assert len(roots(p, r, 4.0, 100.0)) == changes

    @pytest.mark.parametrize("theta", (0.5, 4.0, 6.0))
    def test_roots_above_level_floor(self, theta, monkeypatch):
        # solve without the floor as the first bracket's lower end, in
        # every level up to 50 past the spectrum's cutoff: each root still
        # exceeds 2(p+1) rho/(1+rho), so no level past the cutoff has one
        _, _, n_excl = bs.spectrum(theta, 2, 100.0)
        monkeypatch.setattr(bs, "_level_floor", lambda p, theta: 0.0 * p)
        p, mu = bs._roots(np.arange(n_excl + 50),
                          [ratio(c, s, theta) for c, s in FAMILIES], theta,
                          100.0)
        rho = math.exp(-abs(theta))
        assert np.all(mu > 2 * (p + 1) * rho / (1 + rho))
        assert p.max() < n_excl

    def test_spectrum_satisfies_condition_in_jv(self):
        # an oracle apart from the continued fraction: scipy jv at every root
        # with mu >= p of the theta=1.3 disc spectrum (J_p underflows below)
        theta = 1.3
        n_excl = bs.spectrum(theta, 2, 100.0)[2]
        for c, s in FAMILIES:
            r = ratio(c, s, theta)
            p, mu = bs._roots(np.arange(n_excl), [r], theta, 100.0)
            for q in np.unique(p[mu >= p]):
                at = mu[(p == q) & (mu >= p)]
                jp1, jp = sp.jv(q + 1, at), sp.jv(q, at)
                scale = np.abs(jp1) + np.abs(r * jp)
                assert np.all(np.abs(jp1 - r * jp) <= 1e-12 * scale)

    @pytest.mark.parametrize("theta,m,mu_max,count", (
        (0.5, 2, 100.0, 5013), (2.0, 2, 100.0, 5277), (3.0, 2, 100.0, 5910),
        (4.0, 2, 100.0, 7636), (6.0, 2, 100.0, 25083), (0.0, 4, 40.0, 748),
        (0.7, 4, 40.0, 758), (-1.5, 4, 40.0, 806)))
    def test_spectrum_root_counts(self, theta, m, mu_max, count):
        assert bs.spectrum(theta, m, mu_max)[0].size == count

    def test_zero_table_grows_and_slices(self):
        # one table, a row per p: a request inside it is a slice, one past
        # a row's end grows it, and the zeros it already held keep their
        # bits
        bs._zero_table.cache_clear()
        level = np.array([7])
        short = bs._brackets(level, 20.0)[2]
        long = bs._brackets(level, 80.0)[2]
        assert short[-2] <= 20.0 < short[-1] and long[-2] <= 80.0 < long[-1]
        assert np.array_equal(long[:short.size], short)
        [table] = bs._zero_table()
        assert np.array_equal(table[7, :long.size], long)
        assert np.all(np.isinf(table[:7])) and np.all(np.isinf(table[:, -1]))
        assert np.array_equal(bs._brackets(level, 20.0)[2], short)
        assert bs._zero_table()[0] is table

    @pytest.mark.parametrize("cutoff", (0.5, 7.0, 30.0, 95.5))
    def test_brackets_between_zeros(self, cutoff):
        # every level at once, level by level in order: from 0 to the first
        # zero of J_p and on to the first zero past the cutoff
        levels = np.array([0, 3, 7, 40, 41, 99])
        p, lo, hi, at = bs._brackets(levels, cutoff)
        assert np.array_equal(bs._zero_table()[0].flat[at], hi)
        for q in levels:
            zs = sp.jn_zeros(int(q), 40)
            ends = zs[:np.searchsorted(zs, cutoff, side="right") + 1]
            assert np.array_equal(hi[p == q], ends)
            assert np.array_equal(lo[p == q], np.append(0.0, ends[:-1]))
        assert np.array_equal(p, np.sort(p))

    def test_cold_table_computes_no_more_zeros(self, monkeypatch):
        # the zeros computed for the theta = 6 disc spectrum from an empty
        # table: 1933, each level's once from its McMahon count
        bs._zero_table.cache_clear()
        jn_zeros, counts = sp.jn_zeros, []

        def spy(p, nt):
            counts.append(nt)
            return jn_zeros(p, nt)
        monkeypatch.setattr(bs, "jn_zeros", spy)
        bs.spectrum(6.0, 2, 100.0)
        assert 0 < sum(counts) <= 1933

    @pytest.mark.parametrize("p", range(0, 100, 9))
    def test_zeros_alike_at_any_count(self, p):
        # what the growing table rests on
        full = sp.jn_zeros(p, 40)
        for n in (5, 12, 20, 33):
            assert np.array_equal(sp.jn_zeros(p, n), full[:n])

    def test_invalid_mu_max(self):
        with pytest.raises(ValueError):
            roots(0, ratio("plus", "pos", 0.0), 0.0, -1.0)


class TestRootCheck:
    @pytest.mark.parametrize("theta,m", ((0.5, 2), (-1.3, 2), (3.0, 12),
                                         (6.0, 2)))
    def test_bound_covers_the_correction_at_the_root(self, theta, m,
                                                     monkeypatch):
        # the check reads each root's bound from the solve's last round;
        # the Newton correction re-evaluated at the returned root, by a
        # phase pass of its own, is never above it
        solve, solved = bs._solve, []

        def spy(p, target, lo, hi, start):
            root, left = solve(p, target, lo, hi, start)
            solved.append((p, target, root, left))
            return root, left
        bs.spectrum(theta, m, 100.0)  # the node table holds its brackets
        monkeypatch.setattr(bs, "_solve", spy)
        bs.spectrum(theta, m, 100.0)
        [(p, target, root, left)] = solved
        phase = bs._phase(p, root)
        again = np.abs((phase - target) / bs._slope(p, root, phase)) / root
        assert np.all(again <= left / root)
        assert np.max(left / root) <= bs.ROOT_RTOL

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(bs, "ROOT_RTOL", 1e-18)
        with pytest.raises(RuntimeError, match="root solve failed"):
            bs.spectrum(0.5, 2, 100.0)


def warm(theta, m, phase_sizes):
    """Empty the node table, fill it with the brackets of spectrum(theta,
    m, 100) and forget the passes that took."""
    bs._node_table.cache_clear()
    bs.spectrum(theta, m, 100.0)
    phase_sizes.clear()


class TestNodeTable:
    def test_cache_clear_empties_the_table(self):
        bs.spectrum(0.5, 2, 100.0)
        zeros, nodes = bs._node_table()
        assert zeros is bs._zero_table()[0] and np.isfinite(nodes).any()
        bs._node_table.cache_clear()
        zeros, nodes = bs._node_table()
        assert zeros.size == 0 and nodes.size == 0

    def test_node_bit_identical_alone_or_in_batch(self):
        # the nodes of level 7 solved alone, and with every level below
        # 100 as the table grows from cutoff 20 to 60: the same bits
        def nodes_of_level_7(cutoff):
            at = bs._brackets(np.array([7]), cutoff)[3]
            return bs._nodes(bs._zero_table()[0])[at]
        bs._zero_table.cache_clear()
        bs._node_table.cache_clear()
        alone = nodes_of_level_7(60.0)
        bs._zero_table.cache_clear()
        bs._node_table.cache_clear()
        bs._brackets(np.arange(100), 20.0)
        bs._nodes(bs._zero_table()[0])
        bs._brackets(np.arange(100), 60.0)
        batch = nodes_of_level_7(60.0)
        assert np.all(np.isfinite(alone)) and alone.shape[0] > 10
        assert np.array_equal(alone, batch)

    @pytest.mark.parametrize("p", (0, 7, 60, 99))
    def test_nodes_are_the_roots_at_their_phases(self, p):
        # each inner node mu_i solves arctan R_p = psi_i, and its slope is
        # 1 / psi'; the ends are the bracket's ends, a zero of J_p with
        # slope 1 or mu = 0 with slope 2(p + 1)
        _, lo, hi, at = bs._brackets(np.array([p]), 60.0)
        nodes = bs._nodes(bs._zero_table()[0])[at]
        low = np.where(lo == 0.0, 0.0, -np.pi / 2)
        psi = low[:, None] + (np.pi / 2 - low[:, None]) * np.linspace(
            0.0, 1.0, bs.SEGMENTS + 1)
        mu, rate = nodes[..., 0], nodes[..., 1]
        assert np.array_equal(mu[:, 0], lo) and np.array_equal(mu[:, -1], hi)
        assert np.all(rate[:, -1] == 1.0)
        assert np.array_equal(rate[:, 0], np.where(lo == 0.0, 2.0 * (p + 1),
                                                    1.0))
        inner = mu[:, 1:-1]
        phase = bs._phase(np.full(inner.size, p), inner.ravel()).reshape(
            inner.shape)
        assert np.abs(phase - psi[:, 1:-1]).max() < 1e-13
        assert np.all(np.diff(mu, axis=1) > 0)
        slope = bs._slope(p, inner, phase)
        assert np.allclose(rate[:, 1:-1], 1.0 / slope, rtol=1e-12)


def plain_phase(p, mu):
    """_phase as the plain recurrence R = mu / (2(p + j) - mu R), one new
    array per operation, started deeper: 21 + floor(sqrt(380.25 + 20 max
    mu)) steps past max(mu - p, 0), a bound from ln(1+x) >= x/(1+x)."""
    depth = (math.ceil(np.max(mu - p, initial=0.0)) + 21
             + int(math.sqrt(380.25 + 20.0 * np.max(mu, initial=0.0))))
    ratio = np.zeros(mu.shape)
    for j in range(depth, 0, -1):
        ratio = mu / (2.0 * (p + j) - mu * ratio)
    return np.arctan(ratio)


class TestPhase:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bit_identical_to_plain_recurrence(self, seed):
        # random levels below mu_max = 100 with mu on both sides of p and
        # at p itself, and the levels p >= mu_max taken at mu_max
        rng = np.random.default_rng(seed)
        p = rng.integers(0, 100, 400)
        mu = np.concatenate((rng.uniform(1e-3, 100.0, 200),
                             p[200:300] * rng.uniform(0.5, 1.5, 100) + 1e-3,
                             np.maximum(p[300:], 1e-3)))
        p = np.concatenate((p, np.arange(100, 160)))
        mu = np.concatenate((mu, np.full(60, 100.0)))
        assert np.array_equal(bs._phase(p, mu), plain_phase(p, mu))

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    @pytest.mark.parametrize("theta", (0.1, -1.0, 3.0, 6.0))
    def test_spectrum_passes_bit_identical_to_plain_recurrence(
            self, theta, m, monkeypatch):
        # every pass of a whole spectrum's solve gives, from its shallower
        # start, the bits of the deeper one
        phase, passes = bs._phase, []

        def spy(p, mu):
            passes.append((p, mu))
            return phase(p, mu)
        monkeypatch.setattr(bs, "_phase", spy)
        bs.spectrum(theta, m, 100.0)
        assert passes
        for p, mu in passes:
            assert np.array_equal(phase(p, mu), plain_phase(p, mu))

    @pytest.mark.parametrize("p", (0, 1, 5, 60, 230, 400))
    def test_against_mpmath(self, p):
        # mu on both sides of p up to 1000, and 1e-9 either side of the
        # first two zeros of J_p, where the phase jumps from pi/2 to -pi/2
        mp = pytest.importorskip("mpmath")
        zeros = sp.jn_zeros(p, 2)
        near = [q * p for q in (0.5, 0.99, 1.01, 1.5) if 0 < q * p <= 1000]
        mu = np.concatenate((np.geomspace(1e-3, 1000.0, 27), near,
                             zeros - 1e-9, zeros + 1e-9))
        phase = bs._phase(np.full(mu.size, p), mu)
        with mp.workdps(50):
            exact = np.array([float(mp.atan(mp.besselj(p + 1, mp.mpf(x))
                                            / mp.besselj(p, mp.mpf(x))))
                              for x in mu])
        assert np.abs(phase - exact).max() < 1e-14
        assert np.all(phase[-4:-2] > 1.5) and np.all(phase[-2:] < -1.5)

    @pytest.mark.parametrize("mu", (0.5, 7.3, 51.0, 100.0, 1000.0))
    def test_ratio_below_fixed_point(self, mu):
        # R_k = J_{k+1}/J_k <= rho_k from k + 1 = ceil(mu) on, in 50 digits
        mp = pytest.importorskip("mpmath")
        first = math.ceil(mu) - 1
        with mp.workdps(50):
            x = mp.mpf(mu)
            bessel = [mp.besselj(k, x) for k in range(first, first + 202)]
            for k in range(first, first + 201):
                rho = x / ((k + 1) + mp.sqrt((k + 1) ** 2 - x * x))
                assert bessel[k - first + 1] / bessel[k - first] <= rho, k

    @pytest.mark.parametrize("tops", (range(1, 2001), (10 ** 4,),
                                      (10 ** 5,), (10 ** 6,)),
                             ids=("to-2000", "1e4", "1e5", "1e6"))
    def test_tail_is_the_least_depth(self, tops):
        # rho_N prod_{j=M}^{N-1} rho_j^2 <= e^-40 at N = M + _tail(M), and
        # not at one step less, rho_j = e^-arccosh((j+1)/M)
        for top in tops:
            d = bs._tail(top)
            rho = np.exp(-np.arccosh(np.arange(top + 1, top + d + 2) / top))

            def bound(steps):
                return rho[steps] * np.prod(rho[:steps] ** 2)
            assert d >= 1 and bound(d) <= math.exp(-40.0) < bound(d - 1), \
                top

    def test_empty_pass_returns_at_once(self, depths):
        phase = bs._phase(np.zeros(0, dtype=int), np.zeros(0))
        assert phase.shape == (0,) and phase.dtype == float
        assert depths == []

    def test_heat_trace_steps(self, depths):
        # the continued fraction's steps in the passes of one heat trace,
        # summed over the passes and over their elements; an empty pass
        # takes none.  The counts repeat exactly
        bs.heat_trace(1.0, 2, bs.T_GRID, 100.0)
        assert all(size for _, size in depths)
        assert sum(depth for depth, _ in depths) <= 298
        assert sum(depth * size for depth, size in depths) <= 272_845


@pytest.fixture
def depths(monkeypatch):
    """The depth and element count of each _phase pass, in call order."""
    depth, calls = bs._depth, []

    def spy(p, mu):
        steps = depth(p, mu)
        calls.append((steps, mu.size))
        return steps
    monkeypatch.setattr(bs, "_depth", spy)
    return calls


@pytest.fixture
def phase_sizes(monkeypatch):
    """The element count of each _phase call, in call order."""
    phase, sizes = bs._phase, []

    def spy(p, mu):
        sizes.append(mu.size)
        return phase(p, mu)
    monkeypatch.setattr(bs, "_phase", spy)
    return sizes


@pytest.fixture
def fsum_sizes(monkeypatch):
    """The length of each sequence math.fsum sums, in call order."""
    fsum, sizes = math.fsum, []

    def spy(terms):
        sizes.append(len(terms))
        return fsum(terms)
    monkeypatch.setattr(math, "fsum", spy)
    return sizes


@pytest.fixture
def solves(monkeypatch):
    """The cutoff and result of each spectrum heat_trace solves."""
    spectrum, calls = bs.spectrum, []

    def spy(theta, m, mu_max, cutoff=None):
        result = spectrum(theta, m, mu_max, cutoff)
        calls.append((cutoff, result))
        return result
    monkeypatch.setattr(bs, "spectrum", spy)
    return calls


class TestHeatTrace:
    def test_large_t_dominated_by_lowest_modes(self):
        t = 5.0
        value = bs.heat_trace(0.0, 2, [t], 60.0)[0][0]
        # explicit few-term oracle: smallest eigenvalues from all families,
        # all levels whose first root is small enough to matter
        total = 0.0
        for n in range(6):
            for c, s in FAMILIES:
                mu = roots(n, ratio(c, s, 0.0), 0.0, 12.0)
                total += bs.degeneracy(n, 2) * \
                    float(np.sum(np.exp(-t * mu ** 2)))
        assert value == pytest.approx(total, rel=1e-10)

    def test_monotone_in_t(self):
        v1, v2 = bs.heat_trace(0.3, 2, [0.05, 0.1], 100.0)[0]
        assert v1 > v2 > 0

    def test_even_in_theta(self):
        a = bs.heat_trace(0.6, 2, [0.2], 80.0)[0][0]
        b = bs.heat_trace(-0.6, 2, [0.2], 80.0)[0][0]
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("theta,m", ((3.0, 2), (4.0, 2), (4.0, 4)))
    def test_truncation_bound_covers_tail(self, theta, m):
        # the trace to mu_max = 100 less the trace to 30 is what the bound
        # at 30 leaves out (the rest is below e^-200); the trace to 100
        # itself follows the closed-form a0, a1, a2 of the ball
        t = 0.02
        full = bs.heat_trace(theta, m, [t], 100.0)[0][0]
        ball = universal_constants(theta, m)
        assert full == pytest.approx(sum(
            a * t ** ((n - m) / 2) for n, a in
            enumerate((bs.pinned_a0(m), ball.a1_ball, ball.a2_ball))),
            rel=1e-3)
        mu, w, n_excl = bs.spectrum(theta, m, 30.0)
        part = math.fsum(w * np.exp(-t * mu * mu))
        bound = bs._truncation_bound(theta, m, t, 30.0, n_excl)
        assert 0.0 < full - part <= bound

    @pytest.mark.parametrize("m", (2, 8, 12))
    @pytest.mark.parametrize("theta", (0.5, -1.3, 2.0, 6.0))
    def test_equals_fsum_over_every_term(self, theta, m, monkeypatch,
                                         fsum_sizes):
        # the sum over the terms below the cut is the exactly rounded sum of
        # them all, and each bound, of the roots past the solve cutoff and
        # of the terms the cut leaves out, is below 2^-69 of the trace
        values, bounds = bs.heat_trace(theta, m, bs.T_GRID, 100.0)
        monkeypatch.undo()
        # the weights, then each t
        assert len(fsum_sizes) == 1 + bs.T_GRID.size
        mu, w, _ = bs.spectrum(theta, m, 100.0)
        for t, value, bound, k in zip(bs.T_GRID, values, bounds,
                                      fsum_sizes[1:]):
            terms = w * np.exp(-t * mu * mu)
            assert value == math.fsum(terms)
            assert math.fsum(terms[k:]) <= bound <= 2.0 ** -69 * value

    @pytest.mark.parametrize("m", (2, 8, 12))
    @pytest.mark.parametrize("theta", (0.5, -1.3, 2.0, 6.0))
    def test_solves_the_roots_of_the_full_spectrum(self, theta, m, solves):
        # the roots heat_trace solves are, bit for bit, those of the
        # spectrum to mu_max at or below its solve cutoff
        bs.heat_trace(theta, m, bs.T_GRID, 100.0)
        [(cutoff, (mu, w, n_excl))] = solves
        assert cutoff < 100.0
        full, weights, _ = bs.spectrum(theta, m, 100.0)
        assert np.array_equal(mu, full[full <= cutoff])
        assert np.array_equal(w, weights[full <= cutoff])
        assert n_excl == bs._level_count(theta, m, cutoff)

    @pytest.mark.parametrize("theta,m", ((0.5, 2), (-2.0, 8)))
    def test_mu_max_past_the_cutoff_changes_nothing(self, theta, m):
        at_100 = bs.heat_trace(theta, m, bs.T_GRID, 100.0)
        at_1000 = bs.heat_trace(theta, m, bs.T_GRID, 1000.0)
        assert all(np.array_equal(a, b) for a, b in zip(at_100, at_1000))

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_no_fallback_on_t_grid(self, m, solves):
        # one solve per trace, below mu_max, across the declared theta
        thetas = (-6.0, -3.0, -1.3, 0.0, 0.1, 0.5, 2.0, 4.0, 6.0)
        for theta in thetas:
            bs.heat_trace(theta, m, bs.T_GRID, 100.0)
        assert len(solves) == len(thetas)
        assert all(cutoff < 100.0 for cutoff, _ in solves)

    def test_large_t_takes_the_fallback(self, solves):
        # at t = 5 the interior term a_0 / t overshoots the trace: the tail
        # past the first cutoff is not proved small, so the spectrum to
        # mu_max is solved, and the value is that of every term
        value = bs.heat_trace(0.0, 2, [5.0], 100.0)[0][0]
        assert [cutoff for cutoff, _ in solves] == [
            bs._solve_cutoff(0.0, 2, 5.0, 100.0), 100.0]
        mu, w, _ = bs.spectrum(0.0, 2, 100.0)
        assert value == math.fsum(w * np.exp(-5.0 * mu * mu))

    def test_sums_only_the_terms_that_count(self, fsum_sizes):
        # the solve stops where the cut would: few of the roots to mu_max
        # are solved, and fewer summed
        bs.heat_trace(1.1, 2, [0.3], 100.0)
        solved, summed = fsum_sizes
        assert summed <= solved < 0.1 * bs.spectrum(1.1, 2, 100.0)[0].size

    def test_insufficient_cutoff(self):
        with pytest.raises(bs.InsufficientCutoffError):
            bs.heat_trace(0.0, 2, [0.01], 15.0)

    @pytest.mark.parametrize("mu_max", (100.0, 0.5))
    def test_underflowing_t_is_out_of_range(self, mu_max):
        # every term and the bound underflow: no cutoff can help
        with pytest.raises(ValueError, match=r"underflows at t=1000000\.0"):
            bs.heat_trace(0.5, 2, [1e6], mu_max)

    def test_empty_spectrum_asks_for_a_cutoff(self):
        # no root below mu_max = 0.5: a zero trace whose bound is not zero
        with pytest.raises(bs.InsufficientCutoffError, match="raise mu_max"):
            bs.heat_trace(0.0, 2, [1.0], 0.5)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            bs.heat_trace(0.0, 2, [-0.1], 50.0)

    @pytest.mark.parametrize("t", (math.nan, math.inf))
    def test_non_finite_t(self, t):
        # refused, not passed through as nan or read as a zero trace
        with pytest.raises(ValueError, match="t must be positive and finite"):
            bs.heat_trace(0.5, 2, [0.1, t], 60.0)

    @pytest.mark.parametrize("m,t,mu_max", ((2, 1e-300, 60.0),
                                            (8, 1e-12, 100.0),
                                            (12, 1e-300, 100.0)))
    def test_tiny_t_fails_at_once(self, m, t, mu_max):
        # the tail levels rise past MAX_LEVELS, so there is no bound: the
        # trace is refused, not summed for ever
        assert bs._truncation_bound(0.5, m, t, mu_max, 10) == math.inf
        start = time.perf_counter()
        with pytest.raises(bs.InsufficientCutoffError, match="bound inf"):
            bs.heat_trace(0.5, m, [t], mu_max)
        assert time.perf_counter() - start < 1.0

    def test_no_t(self):
        values, bounds = bs.heat_trace(0.5, 2, [], 100.0)
        assert values.shape == bounds.shape == (0,)


def lstsq_fit(ts, values, m):
    """a_1..a_5, the rms misfit and a_1..a_6 (None past a condition number
    of 1e10) of the fit with a_0 pinned, by np.linalg.lstsq on the design
    with unit columns."""
    t = np.asarray(ts, dtype=float)
    y = np.asarray(values, dtype=float) - bs.pinned_a0(m) * t ** (-m / 2)

    def solve(depth):
        design = np.stack([t ** ((n - m) / 2) for n in range(1, depth + 1)],
                          axis=1)
        scale = np.linalg.norm(design, axis=0)
        if np.linalg.cond(design / scale) > 1e10:
            return None, None
        coef = np.linalg.lstsq(design / scale, y, rcond=None)[0] / scale
        return coef, float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    coef, resid = solve(5)
    return coef, resid, solve(6)[0]


class TestFit:
    def test_recovers_synthetic_series(self):
        coeffs = (0.5, 0.2, -1.0 / 6.0, 0.03, 0.0, 0.0)
        ts = np.geomspace(0.02, 0.3, 20)
        values = sum(a * ts ** ((n - 2) / 2) for n, a in enumerate(coeffs))
        fit = bs.fit_heat_coefficients(ts, values, 2)
        assert np.abs(fit.coeffs - np.array(coeffs)).max() < 1e-8
        assert fit.residual < 1e-10

    def test_too_few_samples(self):
        ts = 0.1 * np.arange(1, 5)
        with pytest.raises(ValueError):
            bs.fit_heat_coefficients(ts, np.ones(4), 2)

    def test_ill_conditioned(self):
        ts = 0.1 + 1e-9 * np.arange(10)
        with pytest.raises(bs.IllConditionedFitError):
            bs.fit_heat_coefficients(ts, np.ones(10), 2)

    def test_ill_conditioned_again_from_the_cache(self):
        # the basis is set up once, and its condition number refuses the
        # fit every time
        ts = 0.1 + 1e-9 * np.arange(10)
        bs._fit_basis.cache_clear()
        for values in (np.ones(10), np.arange(10.0)):
            with pytest.raises(bs.IllConditionedFitError,
                               match="condition estimate"):
                bs.fit_heat_coefficients(ts, values, 2)
        assert bs._fit_basis.cache_info().currsize == 1

    def test_deeper_fit_falls_back_to_the_residual(self):
        # depth 5 is within bounds on these ts and depth 6 is not: every
        # error estimate is the rms misfit, as in the lstsq fit
        ts = np.linspace(0.1, 0.11, 10)
        values = 0.5 / ts + 0.2 / np.sqrt(ts) + 0.01 * ts ** 3
        fit = bs.fit_heat_coefficients(ts, values, 2)
        ref = lstsq_fit(ts, values, 2)
        assert ref[2] is None
        assert np.all(fit.coeff_errors[1:] == fit.residual)
        assert fit.condition_estimate < 1e10

    @pytest.mark.parametrize("theta,m", (
        (0.5, 2), (-1.3, 2), (2.0, 2), (6.0, 2), (3.0, 4), (0.5, 8),
        (-1.3, 8), (0.5, 12), (-1.3, 12)))
    def test_cached_fit_matches_lstsq(self, theta, m):
        # the pseudo-inverse of the cached basis against np.linalg.lstsq on
        # the heat traces of passing verify-ball rows
        values, _ = bs.heat_trace(theta, m, bs.T_GRID, 100.0)
        fit = bs.fit_heat_coefficients(bs.T_GRID, values, m)
        coef, resid, deeper = lstsq_fit(bs.T_GRID, values, m)
        assert fit.coeffs[1] == pytest.approx(coef[0], rel=1e-12, abs=0.0)
        assert fit.coeffs[2] == pytest.approx(coef[1], rel=1e-10, abs=0.0)
        assert fit.residual == pytest.approx(resid, rel=1e-6)
        assert np.allclose(fit.coeff_errors[1:], np.abs(deeper[:5] - coef),
                           rtol=1e-6, atol=1e-12)

    def test_disc_fit_against_closed_forms(self):
        theta = 0.5
        values, _ = bs.heat_trace(theta, 2, bs.T_GRID, 100.0)
        fit = bs.fit_heat_coefficients(bs.T_GRID, values, 2)
        a1_target = math.sqrt(math.pi) / 2 * (math.cosh(theta) - 1.0)
        assert abs(fit.coeffs[1] - a1_target) / a1_target < 0.01
        assert abs(fit.coeffs[2] + 1.0 / 6.0) < 0.01


def _norm_closed_form(p, mu):
    """1/C^2 from the Bessel-quadratic closed form; jv gives J_{-1} = -J_1
    at p = 0."""
    jp, jp1, jm1, jp2 = (sp.jv(q, mu) for q in (p, p + 1, p - 1, p + 2))
    return 0.5 * (jp * jp + jp1 * jp1 - jm1 * jp1 - jp * jp2)


def _norm_simplified(p, r, mu):
    """1/C^2 from the on-shell simplified normalization constants."""
    # C_+- carries -+(2p+1)e^(+-theta) on the (+) branch and the opposite
    # sign on the (-) branch: -(2p+1) r in every family
    return sp.jv(p, mu) ** 2 * (mu + mu * r * r - (2 * p + 1) * r) / mu


def _gamma5_closed_form(chirality, sign, p, theta, mu):
    ch = math.cosh(theta)
    branch = 1.0 if chirality == "plus" else -1.0
    shift = branch * (p + 0.5) / ch
    if sign == "pos":
        return -0.5 / (ch * (mu - shift))
    return 0.5 / (ch * (mu + shift))


def mode_integral_residuals(chirality, sign, p, theta, mu):
    """Residuals of the closed forms for the radial normalization constant
    and the chirality expectation value against adaptive quadrature, at an
    eigenvalue mu of the family at Bessel order p."""
    r = ratio(chirality, sign, theta)
    condition = sp.jv(p + 1, mu) - r * sp.jv(p, mu)
    assert abs(condition) <= 1e-9, f"mu={mu} is not an eigenvalue"
    norm_quad, _ = integrate.quad(
        lambda x: x * (sp.jv(p + 1, mu * x) ** 2 + sp.jv(p, mu * x) ** 2),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    norm_residual = max(abs(norm_quad - _norm_closed_form(p, mu)),
                        abs(norm_quad - _norm_simplified(p, r, mu)))
    diff_quad, _ = integrate.quad(
        lambda x: x * (sp.jv(p + 1, mu * x) ** 2 - sp.jv(p, mu * x) ** 2),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    orientation = 1.0 if chirality == "plus" else -1.0
    gamma5_quad = orientation * diff_quad / norm_quad
    return norm_residual, abs(
        gamma5_quad - _gamma5_closed_form(chirality, sign, p, theta, mu))


class TestModeIntegrals:
    def test_disc_gamma5_value(self):
        mu = float(roots(0, ratio("plus", "pos", 0.0), 0.0, 10.0)[0])
        expect = -0.5 / (mu - 0.5)
        assert expect == pytest.approx(-0.5350, abs=2e-4)
        assert max(mode_integral_residuals("plus", "pos", 0, 0.0, mu)) \
            < 1e-10

    def test_m4_third_root(self):
        # level n = 1 at m = 4
        mu = float(roots(2, ratio("plus", "pos", 0.6), 0.6, 30.0)[2])
        assert max(mode_integral_residuals("plus", "pos", 2, 0.6, mu)) \
            < 1e-10


def test_pinned_a0_disc():
    assert bs.pinned_a0(2) == pytest.approx(0.5, rel=1e-14)
