import itertools
import json
import math
import os
import subprocess
import sys
import time
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
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

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_weights_bit_identical(self, m):
        # the weights array, past the 65,536 entries of degeneracy's cache,
        # holds each degeneracy as a float
        want = np.array([bs.degeneracy(n, m) for n in range(1 << 17)],
                        dtype=float)
        got = bs._weights.__wrapped__(m, 1 << 17)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_spectrum_weights_are_the_degeneracies(self):
        theta, m, mu_max = 1.0, 6, 40.0
        mu, deg, n_levels = bs.spectrum(theta, m, mu_max)
        ratios = [ratio(c, s, theta) for c, s in FAMILIES]
        p, roots = bs._roots(np.arange(2, 2 + n_levels), ratios, theta,
                             mu_max)
        order = np.argsort(roots)
        assert np.array_equal(mu, roots[order])
        assert np.array_equal(deg, [bs.degeneracy(n, m)
                                    for n in p[order] - 2])


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
        # once the table holds its brackets; the count repeats exactly
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
        (0.0, 2.5), (0.3, 2.5), (0.5, 2.5), (1.0, 2.5), (1.5, 2.5),
        (2.0, 2.5), (3.0, 2.5), (6.0, 3.0)))
    def test_warm_solve_at_the_floor(self, theta, m, two_passes,
                                     phase_sizes):
        # at the cutoff of heat_trace on T_GRID, two passes per root, one
        # to step and one to confirm, take up to two_passes elements per
        # kept root; the RK4 step from the first pass lands on nearly every
        # root, which retires there: a whole pass per root fewer.  The
        # levels past the cutoff are decided by bounds, and their roots
        # retire in the first round, but near the turning point at
        # |theta| = 0.3-0.5: there a pass at mu_max decides a level, and a
        # round of a few roots follows the first
        passes = {(0.3, 2): 3, (0.3, 12): 3, (0.5, 2): 2, (0.5, 12): 3}
        cutoff = bs._solve_cutoff(theta, m, bs.T_GRID[0])
        bs.spectrum(theta, m, cutoff)
        phase_sizes.clear()
        mu = bs.spectrum(theta, m, cutoff)[0]
        assert sum(phase_sizes) <= (two_passes - 1.0) * mu.size
        assert len(phase_sizes) == passes.get((theta, m), 1)

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
        bs._table.cache_clear()
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

    @pytest.mark.parametrize("theta,m", ((0.5, 2), (0.1, 6), (2.0, 12)))
    def test_few_roots_solved_past_the_bound(self, theta, m, monkeypatch):
        # bounds keep the roots past mu_max out of the solve of every
        # spectrum: at most 1% of the solved roots lie past it
        bs.spectrum(theta, m, 100.0)
        solve, roots = bs._solve, []

        def spy(*args):
            result = solve(*args)
            roots.append(result[0])
            return result
        monkeypatch.setattr(bs, "_solve", spy)
        bs.spectrum(theta, m, 100.0)
        [roots] = roots
        assert np.count_nonzero(roots > 100.0) <= 0.01 * roots.size

    @pytest.mark.parametrize("theta,m,mu_max,count", (
        (0.5, 2, 100.0, 5013), (2.0, 2, 100.0, 5277), (3.0, 2, 100.0, 5910),
        (4.0, 2, 100.0, 7636), (6.0, 2, 100.0, 25083), (0.0, 4, 40.0, 748),
        (0.7, 4, 40.0, 758), (-1.5, 4, 40.0, 806)))
    def test_spectrum_root_counts(self, theta, m, mu_max, count):
        assert bs.spectrum(theta, m, mu_max)[0].size == count

    def test_zero_table_grows_and_slices(self):
        # one table, level by level: a request inside it is a slice, one
        # past a level's last zero grows it, and the zeros it already held
        # keep their bits
        bs._table.cache_clear()
        short = bs._level_brackets(7, 1, 20.0)[2]
        long = bs._level_brackets(7, 1, 80.0)[2]
        assert short[-2] <= 20.0 < short[-1] and long[-2] <= 80.0 < long[-1]
        assert np.array_equal(long[:short.size], short)
        table = bs._table()
        hi = table.hi
        assert np.array_equal(hi, long) and table.last[7] == long[-1]
        assert np.all(table.start[:8] == 0) and np.all(table.last[:7] < 0)
        assert np.array_equal(bs._level_brackets(7, 1, 20.0)[2], short)
        assert bs._table().hi is hi

    @pytest.mark.parametrize("cutoff", (0.5, 7.0, 30.0, 95.5))
    def test_brackets_between_zeros(self, cutoff):
        # every level at once, level by level in order: from 0 to the first
        # zero of J_p and on to the first zero past the cutoff
        p, lo, hi, nodes = bs._level_brackets(0, 100, cutoff)
        assert np.array_equal(nodes[:, 0, 0], lo)
        assert np.array_equal(nodes[:, -1, 0], hi)
        for q in (0, 3, 7, 40, 41, 99):
            zs = sp.jn_zeros(int(q), 40)
            ends = zs[:np.searchsorted(zs, cutoff, side="right") + 1]
            assert np.array_equal(hi[p == q], ends)
            assert np.array_equal(lo[p == q], np.append(0.0, ends[:-1]))
        assert np.array_equal(p, np.sort(p))

    def test_cold_table_computes_no_more_zeros(self, monkeypatch):
        # the zeros computed for the theta = 6 disc spectrum from an empty
        # table: 1858, in one call per level of floor((100 - p)/pi) + 3
        bs._table.cache_clear()
        jn_zeros, calls = sp.jn_zeros, []

        def spy(p, nt):
            calls.append((p, nt))
            return jn_zeros(p, nt)
        monkeypatch.setattr(bs, "jn_zeros", spy)
        bs.spectrum(6.0, 2, 100.0)
        levels = [p for p, _ in calls]
        assert len(levels) == len(set(levels)) == 100
        assert 0 < sum(nt for _, nt in calls) <= 1858

    def test_short_zero_row_refused(self, monkeypatch):
        # a row that does not reach past the cutoff is an error, not a
        # bracket lost, and the table is left without it
        bs._table.cache_clear()
        monkeypatch.setattr(bs, "jn_zeros",
                            lambda p, nt: sp.jn_zeros(p, max(1, nt - 3)))
        with pytest.raises(RuntimeError, match="zeros of J_0"):
            bs._level_brackets(0, 1, 30.0)
        assert bs._table().hi.size == 0 and bs._table().last[0] < 0
        bs._table.cache_clear()

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
        bs.spectrum(theta, m, 100.0)  # the table holds its brackets
        monkeypatch.setattr(bs, "_solve", spy)
        bs.spectrum(theta, m, 100.0)
        [(p, target, root, left)] = solved
        phase = bs._phase(p, root)
        again = np.abs((phase - target) / bs._slope(p, root, phase)) / root
        assert np.all(again <= left / root)
        assert np.max(left / root) <= bs.ROOT_RTOL

    @pytest.mark.parametrize("m", (2, 12))
    @pytest.mark.parametrize("theta", (0.0, 0.3, 0.75, 2.0, -2.0, 4.0, -4.0,
                                       6.0, 9.0))
    def test_bound_holds_from_midpoint_starts(self, theta, m, monkeypatch):
        # every root of the heat trace's spectrum solved again from the
        # midpoint of its bracket lands within its returned bound, and
        # within 1e-15 of it, of the root the production starts give
        solve, calls = bs._solve, []

        def spy(*args):
            calls.append((args, solve(*args)))
            return calls[-1][1]
        cutoff = bs._solve_cutoff(theta, m, bs.T_GRID[0])
        bs.spectrum(theta, m, cutoff)  # the table holds its brackets
        monkeypatch.setattr(bs, "_solve", spy)
        bs.spectrum(theta, m, cutoff)
        [((p, target, lo, hi, _), (root, _))] = calls
        again, left = solve(p, target, lo, hi, np.full(p.size, np.nan))
        assert np.all(np.abs(again - root) <= left + 1e-15 * root)

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(bs, "ROOT_RTOL", 1e-18)
        with pytest.raises(RuntimeError, match="root solve failed"):
            bs.spectrum(0.5, 2, 100.0)


def warm(theta, m, phase_sizes):
    """Empty the table, fill it with the brackets of spectrum(theta, m,
    100) and forget the passes that took."""
    bs._table.cache_clear()
    bs.spectrum(theta, m, 100.0)
    phase_sizes.clear()


class TestNodeTable:
    def test_cache_clear_empties_the_table(self):
        bs.spectrum(0.5, 2, 100.0)
        table = bs._table()
        assert np.array_equal(table.nodes[:, -1, 0], table.hi)
        assert table.hi.size and np.isfinite(table.nodes).all()
        bs._table.cache_clear()
        table = bs._table()
        assert table.hi.size == 0 and table.nodes.size == 0

    @pytest.mark.parametrize("grown,asked", (
        pytest.param(((0, 100, 20.0), (0, 100, 60.0)), (7, 1, 60.0),
                     id="alone"),
        pytest.param(((5, 95, 100.0), (0, 100, 100.0)), (0, 100, 100.0),
                     id="gaps"),
        pytest.param(((0, 100, 20.0), (0, 100, 60.0), (0, 100, 100.0)),
                     (0, 100, 100.0), id="rising")))
    def test_node_bit_identical_alone_or_in_batch(self, grown, asked):
        # the brackets and nodes of a request from a table built for it
        # alone, and from one grown by the requests grown: with every
        # level below 100 as the cutoff rises (the nodes of level 7 alone
        # against the batch), with levels 0..4 filled in after those of m =
        # 12, or level by level as the cutoff rises: the same bits
        bs._table.cache_clear()
        alone = bs._level_brackets(*asked)
        bs._table.cache_clear()
        for args in grown:
            bs._level_brackets(*args)
        batch = bs._level_brackets(*asked)
        assert np.all(np.isfinite(alone[3])) and alone[3].shape[0] > 10
        for a, b in zip(alone, batch):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p", (0, 7, 60, 99))
    def test_nodes_are_the_roots_at_their_phases(self, p):
        # each inner node mu_i solves arctan R_p = psi_i, and its slope is
        # 1 / psi'; the ends are the bracket's ends, a zero of J_p with
        # slope 1 or mu = 0 with slope 2(p + 1)
        _, lo, hi, nodes = bs._level_brackets(p, 1, 60.0)
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
    array per operation, each element started from R = 0 at its own depth
    max(M - p, 0) + _tail(M), M = ceil mu."""
    p = np.broadcast_to(p, mu.shape)
    depth = np.array([max(M - q, 0) + bs._tail(M) for q, M in zip(
        p.tolist(), np.ceil(mu).astype(int).tolist())], dtype=int)
    phase = np.empty(mu.shape)
    for d in np.unique(depth).tolist():
        at = depth == d
        q, x, ratio = p[at], mu[at], np.zeros(np.count_nonzero(at))
        for j in range(d, 0, -1):
            ratio = x / (2.0 * (q + j) - x * ratio)
        phase[at] = np.arctan(ratio)
    return phase


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
        # every pass of a whole spectrum's solve gives each element the bits
        # of the plain recurrence at its own depth, whatever shares the pass
        phase, passes = bs._phase, []

        def spy(p, mu):
            passes.append((p, mu))
            return phase(p, mu)
        monkeypatch.setattr(bs, "_phase", spy)
        bs.spectrum(theta, m, 100.0)
        assert passes
        for p, mu in passes:
            assert np.array_equal(phase(p, mu), plain_phase(p, mu))

    def test_element_alone_or_in_any_pass(self):
        # each element's bits depend on (p, mu) alone: the pass of every
        # element, of a shallow half and of each element on its own agree
        rng = np.random.default_rng(3)
        p = rng.integers(0, 200, 300)
        mu = rng.uniform(1e-3, 150.0, 300)
        whole = bs._phase(p, mu)
        shallow = mu < 40.0
        assert np.array_equal(bs._phase(p[shallow], mu[shallow]),
                              whole[shallow])
        assert np.array_equal([bs._phase(p[i:i + 1], mu[i:i + 1])[0]
                               for i in range(p.size)], whole)

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
        bs.heat_trace(1.0, 2, bs.T_GRID)
        assert all(total for _, total in depths)
        assert sum(depth for depth, _ in depths) <= 298
        assert sum(total for _, total in depths) <= 272_845


def plain_fraction(p, mu, ratio, steps):
    """_fraction as the plain loop: R = mu / (2(p + k + 1) - mu R) for k =
    steps - 1 down to 0."""
    for k in range(steps - 1, -1, -1):
        ratio = mu / (2.0 * (p + k + 1) - mu * ratio)
    return ratio


def plain_rk4(p, mu, psi, span, steps):
    """_rk4 with every stage's slope from _slope, and its last k4."""
    h = span / steps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            k1 = h / bs._slope(p, mu, psi)
            k2 = h / bs._slope(p, mu + 0.5 * k1, psi + 0.5 * h)
            k3 = h / bs._slope(p, mu + 0.5 * k2, psi + 0.5 * h)
            k4 = h / bs._slope(p, mu + k3, psi + h)
            mu, psi = mu + (k1 + 2.0 * (k2 + k3) + k4) / 6.0, psi + h
    return mu, k4


class TestInnerSteps:
    @pytest.mark.parametrize("steps", (1, 3, 4, 6, 8))
    def test_fraction_bit_identical_to_plain_loop(self, steps):
        # 2(p + k + 1) carried down by 2 a step rounds as the plain form,
        # from R = 0 and from rho, at one mu (_high_bounds) or one per level
        # (_high_start)
        rng = np.random.default_rng(steps)
        p = rng.integers(0, 20000, 500)
        mu = rng.uniform(1e-3, 1.0, 500) * p + 1e-3
        for x in (mu, float(mu[0])):
            for start in (0.0, bs._rho(p + steps, np.minimum(x, p))):
                assert np.array_equal(bs._fraction(p, x, start, steps),
                                      plain_fraction(p, x, start, steps))

    @pytest.mark.parametrize("steps", (1, 4))
    def test_rk4_bit_identical_to_plain_stages(self, steps):
        # one (p + 1/2) sin 2psi at the midpoint for stages 2 and 3 rounds
        # as a _slope each; near the field's poles both give the same inf
        # and NaN
        rng = np.random.default_rng(10 + steps)
        # and three starts on a pole, psi' = 0 at mu = (p + 1/2) sin 2psi
        p = np.append(rng.integers(0, 200, 2000), (3, 40, 0))
        mu = np.append(rng.uniform(1e-2, 250.0, 2000), (3.5, 40.5, 0.5))
        psi = np.append(rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 2000),
                        np.full(3, 0.25 * np.pi))
        span = np.append(rng.uniform(-1.0, 1.0, 2000), (0.1, -0.2, 0.3))
        got, want = (f(p, mu, psi, span, steps)
                     for f in (bs._rk4, plain_rk4))
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        assert not np.all(np.isfinite(got[0]))


@pytest.fixture
def depths(monkeypatch):
    """The steps of each _phase pass, the most any of its elements takes,
    and the steps its elements take in all, in call order."""
    depth, calls = bs._depth, []

    def spy(p, mu):
        steps = depth(p, mu)
        calls.append((int(steps.max()), int(steps.sum())))
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
def solves(monkeypatch):
    """The bound and result of each spectrum heat_trace solves."""
    spectrum, calls = bs.spectrum, []

    def spy(theta, m, mu_max):
        result = spectrum(theta, m, mu_max)
        calls.append((mu_max, result))
        return result
    monkeypatch.setattr(bs, "spectrum", spy)
    return calls


def assert_summed(value, terms):
    """value sums the non-negative terms: within heat_trace's stated bound,
    (N - 1) 2^-53 of their sum, of their exactly rounded sum, and within 8
    ulp of it, which a sum term by term would exceed"""
    exact = math.fsum(terms)
    assert abs(value - exact) <= max(len(terms) - 1, 0) * 2.0 ** -53 * exact
    assert abs(value - exact) <= 8 * np.spacing(exact)


def scalar_least(holds, below, above):
    """The scalar bisection of the reference bound and cutoff."""
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if holds(mid) else (mid, above)
    return above


def scalar_truncation_bound(theta, m, t, mu_max, n_excluded, path=None):
    """_truncation_bound at one t and one cutoff as a scalar formula, and
    the gain 1 / spacing + 1 / (1 - q) that carries a relative error of
    its exponentials into it: spacing = 1 - e^(-4 t mu_max) is formed by
    cancellation, and the geometric sum's factor 1 / (1 - q), q the ratio
    of the level terms at n_excluded and n_excluded + 1, turns an ulp of q
    into q / (1 - q) ulp of the tail.  The cases it takes go into the set
    path: the level term at n_excluded is "zero" or "nonzero", or there is
    no bound ("inf", q >= 1)."""
    path = set() if path is None else path
    spacing = max(1.0 - math.exp(-4.0 * t * mu_max), 1e-300)
    low, high = (max(mu_max, bs._level_floor(n + m // 2 - 1, theta))
                 for n in (n_excluded, n_excluded + 1))
    q = bs.degeneracy(n_excluded + 1, m) / bs.degeneracy(n_excluded, m) * (
        math.exp(-t * (high - low) * (high + low)))
    if q >= 1.0:
        path.add("inf")
        return math.inf, 0.0
    bound = 4.0 * (bs.spinor_dimension(m) // 2) * math.comb(
        n_excluded + m - 2, m - 1) * math.exp(-t * mu_max * mu_max) / spacing
    term = 4.0 * bs.degeneracy(n_excluded, m) * math.exp(-t * low * low) / (
        spacing)
    path.add("zero" if term == 0.0 else "nonzero")
    return bound + term / (1.0 - q), 1.0 / spacing + 1.0 / (1.0 - q)


def doubling_cutoff(theta, m, t):
    """_solve_cutoff as a bisection below the first of 8, 16, 32, ... that
    is enough, and the number of tail bounds it takes."""
    log_target = (math.log(2.0 ** -71 * bs.pinned_a0(m))
                  - 0.5 * m * math.log(t))
    tails = []

    def enough(mu):
        tails.append(mu)
        bound = float(bs._truncation_bound(theta, m, t, mu,
                                           bs._level_count(theta, m, mu)))
        return bound == 0.0 or math.log(bound) <= log_target
    top = 8.0
    while not enough(top):
        top *= 2.0
    cutoff = scalar_least(lambda k: enough(k / 8.0),
                          0 if top == 8.0 else int(4.0 * top),
                          int(8.0 * top)) / 8.0
    return cutoff, len(tails)


class TestHeatTrace:
    def test_truncation_bound_equals_scalar_formula(self):
        # at one t, one call over four cutoffs is the calls at each, bit
        # for bit, and each is the scalar formula, which sums its terms in
        # another order, within 4 2^-52 and 2^-1074 (a subnormal bound) of
        # its gain (measured up to 0.49 2^-52 of it), with inf at the same
        # places.  The grid reaches a level
        # term at n_excluded that underflows at some t and not at others,
        # and no bound (inf, q >= 1, at t = 1e-12)
        ts = np.concatenate((bs.T_GRID, [0.005, 0.3, 2.0, 5.0, 1e-12]))
        cases, mixed = set(), False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m, theta in itertools.product(
                    (2, 4, 6, 8, 10, 12),
                    (0.0, 0.5, -0.5, 2.0, -3.0, 6.0, 9.0)):
                cutoffs = [8.0, 30.0, 100.0,
                           bs._solve_cutoff(theta, m, bs.T_GRID[0])]
                ns = [bs._level_count(theta, m, x) for x in cutoffs]
                zero = [set() for _ in cutoffs]
                for t in ts.tolist():
                    got = bs._truncation_bound(theta, m, t, cutoffs, ns)
                    assert got.tolist() == [float(bs._truncation_bound(
                        theta, m, t, x, n)) for x, n in zip(cutoffs, ns)]
                    for bound, x, n, seen in zip(got.tolist(), cutoffs, ns,
                                                 zero):
                        path = set()
                        want, gain = scalar_truncation_bound(theta, m, t, x,
                                                             n, path)
                        assert (bound == math.inf) == (want == math.inf)
                        assert bound == want or abs(bound - want) <= (
                            4.0 * 2.0 ** -52 * want + 2.0 ** -1074) * gain, (
                                theta, m, t, x)
                        cases |= path
                        seen.add("zero" in path)
                mixed |= any(len(seen) == 2 for seen in zero)
        assert cases == {"zero", "nonzero", "inf"}
        assert mixed

    @pytest.mark.parametrize("t", (bs.T_GRID[-2], 0.3))
    def test_underflowing_level_terms_are_bounded(self, t, monkeypatch):
        # theta = 6.5, m = 2 at its T_GRID cutoff 53.5: at t = T_GRID[-2]
        # the level terms at n = 17820 and 17821 underflow to the same
        # subnormal, and at t = 0.3 to 0, so their quotient reads 1 or is
        # not a number; q from its exponent is below 1, and the bound is
        # finite (0 at t = 0.3, where its first term underflows too).  It
        # takes the floors of those two levels alone, with no search
        floor, levels = bs._level_floor, []

        def spy(p, theta):
            levels.append(p)
            return floor(p, theta)
        spacing = 1.0 - math.exp(-4.0 * t * 53.5)
        terms = [4.0 * bs.degeneracy(n, 2) * math.exp(
            -t * floor(n, 6.5) ** 2) / spacing for n in (17820, 17821)]
        assert terms[0] == terms[1] == (
            4 * 2.0 ** -1074 if t < 0.3 else 0.0)
        monkeypatch.setattr(bs, "_level_floor", spy)
        bound = float(bs._truncation_bound(6.5, 2, t, 53.5, 17820))
        assert levels == [17820, 17821]
        assert bound < math.inf
        assert bound > 0.0 if t < 0.3 else bound == 0.0
        assert bound == pytest.approx(
            scalar_truncation_bound(6.5, 2, t, 53.5, 17820)[0], rel=1e-15)

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_seeded_cutoff_equals_doubling_bisection(self, m, monkeypatch):
        # the scan up from the estimate finds the cutoff of the bisection
        # below 8, 16, 32, ..., which took 7 to 16 bounds (more at 1e-4):
        # after one bound at the level limit, in one bound of three cutoffs
        # at t in [0.005, 2]; at t = 1e-4 the estimate falls further short,
        # and the scan takes up to three.  At
        # t = 2 the least cutoff can lie below the first level's floor,
        # under an estimate that does too (m = 12, theta = 0: 0.125 and
        # 5.875 against a floor of 6); the spectrum to either is empty
        bound, calls = bs._truncation_bound, []

        def spy(theta, m, t, mu, n):
            calls.append(np.size(mu))
            return bound(theta, m, t, mu, n)
        for theta in np.linspace(-6.0, 6.0, 25).tolist():
            for t in (0.005, 0.02, 0.3, 2.0, 1e-4):
                want, tails = doubling_cutoff(theta, m, t)
                assert 7 <= tails <= 16 or t == 1e-4
                calls.clear()
                monkeypatch.setattr(bs, "_truncation_bound", spy)
                got = bs._solve_cutoff(theta, m, t)
                monkeypatch.undo()
                assert got == want or (
                    t == 2.0
                    and want < got < bs._level_floor(m // 2 - 1, theta)), (
                        theta, t)
                assert calls[0] == 1 and len(calls) <= 4
                assert calls == [1, 3] or t == 1e-4, (theta, t, calls)
                assert set(calls[1:]) == {3}

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_cutoff_estimate_just_below(self, m):
        # the estimate lies below the cutoff, so the scan up from the
        # multiple of 1/8 at or above it passes over no cutoff that is
        # enough, and within a stated gap of it at each t (measured up to
        # 0.338, 0.186, 0.174, 0.170 and 0.176); the points past the level
        # limit are spectrum's to refuse
        gaps = {0.001: 0.34, 0.005: 0.19, 0.01: 0.18, 0.02: 0.18, 0.3: 0.18}
        for theta in np.linspace(-10.0, 10.0, 161).tolist():
            for t, gap in gaps.items():
                cutoff = bs._solve_cutoff(theta, m, t)
                if bs._level_count(theta, m, cutoff) > bs.MAX_LEVELS:
                    continue
                log_target = (math.log(2.0 ** -71 * bs.pinned_a0(m))
                              - 0.5 * m * math.log(t))
                estimate = bs._cutoff_estimate(theta, m, t, log_target)
                assert 0.0 < cutoff - estimate <= gap, (theta, t)

    @pytest.mark.parametrize("shift", (-40.0, -3.0, -0.25, 0.25, 3.0, 40.0))
    def test_cutoff_from_any_estimate(self, shift, monkeypatch):
        # an estimate below the cutoff by any shift scans up to it; one
        # above it by shift gives the multiple of 1/8 at or above it, whose
        # tail bound is enough too, since the bound falls with the cutoff
        estimate = bs._cutoff_estimate
        monkeypatch.setattr(bs, "_cutoff_estimate",
                            lambda *args: max(estimate(*args) + shift, 0.0))
        for m in (2, 8, 12):
            for theta in (-6.0, -1.3, 0.0, 0.5, 2.0, 6.0):
                for t in (0.005, 0.02, 0.3):
                    least = doubling_cutoff(theta, m, t)[0]
                    cutoff = bs._solve_cutoff(theta, m, t)
                    if shift <= 0.0:
                        assert cutoff == least
                        continue
                    log_target = (math.log(2.0 ** -71 * bs.pinned_a0(m))
                                  - 0.5 * m * math.log(t))
                    assert cutoff == max(least, math.ceil(8.0 * (
                        estimate(theta, m, t, log_target) + shift)) / 8.0)
                    tail = float(bs._truncation_bound(
                        theta, m, t, cutoff, bs._level_count(
                            theta, m, cutoff)))
                    assert tail == 0.0 or math.log(tail) <= log_target

    def test_results_do_not_depend_on_earlier_requests(self, tmp_path):
        # verify-ball rows and T_GRID traces, in a fresh interpreter, then
        # again after spectra that grow the one bracket table in place, to
        # more levels and more brackets per level, and here, after every
        # test before this one: the same bits
        code = (
            "import contextlib, io, json, sys\n"
            "from chiralbag import ball_spectrum as bs, cli\n"
            "def run():\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        cli.main(['verify-ball', '--m', '2,8,12', '--theta',\n"
            "                  '0.5,-1.3,2,6', '--format', 'json'])\n"
            "    traces = [[x.hex() for a in bs.heat_trace(th, m, bs.T_GRID)\n"
            "               for x in a.tolist()]\n"
            "              for m in (2, 8, 12) for th in (0.5, -1.3, 2.0, 6.0)]\n"
            "    return [out.getvalue(), traces]\n"
            "fresh = run()\n"
            "bs.spectrum(6.0, 12, 200.0)\n"
            "bs.spectrum(0.5, 4, 150.0)\n"
            "print(json.dumps([fresh, run()]))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(bs.__file__).parents[1])}
        fresh, grown = json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True).stdout)
        assert fresh == grown
        traces = [[x.hex() for a in bs.heat_trace(theta, m, bs.T_GRID)
                   for x in a.tolist()]
                  for m in (2, 8, 12) for theta in (0.5, -1.3, 2.0, 6.0)]
        assert traces == fresh[1]

    def test_warm_requests_rebuild_no_table(self, monkeypatch):
        # after one pass over the theta of disc_fit (m = 2, |theta| in
        # [0.5, 2]) and over m = 2..12, theta in [0, 6], a second pass
        # computes no zero and solves no node: no request rebuilds the
        # table
        requests = [(sign * theta, 2)
                    for theta in np.linspace(0.5, 2.0, 13).tolist()
                    for sign in (1, -1)] + [
            (theta, m) for m in (2, 4, 6, 8, 10, 12)
            for theta in np.linspace(0.0, 6.0, 9).tolist()]
        for theta, m in requests:
            bs.heat_trace(theta, m, bs.T_GRID)
        calls = []
        for name in ("jn_zeros", "_solve_nodes"):
            def spy(*args, name=name, f=getattr(bs, name)):
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(bs, name, spy)
        for theta, m in requests:
            bs.heat_trace(theta, m, bs.T_GRID)
        assert calls == []

    def test_large_t_dominated_by_lowest_modes(self):
        t = 5.0
        value = bs.heat_trace(0.0, 2, [t])[0][0]
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
        v1, v2 = bs.heat_trace(0.3, 2, [0.05, 0.1])[0]
        assert v1 > v2 > 0

    def test_even_in_theta(self):
        a = bs.heat_trace(0.6, 2, [0.2])[0][0]
        b = bs.heat_trace(-0.6, 2, [0.2])[0][0]
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("theta,m", ((3.0, 2), (4.0, 2), (4.0, 4)))
    def test_truncation_bound_covers_tail(self, theta, m):
        # the trace to mu_max = 100 less the trace to 30 is what the bound
        # at 30 leaves out (the rest is below e^-200); the trace to 100
        # itself follows the closed-form a0, a1, a2 of the ball
        t = 0.02
        full = bs.heat_trace(theta, m, [t])[0][0]
        ball = universal_constants(theta, m)
        assert full == pytest.approx(sum(
            a * t ** ((n - m) / 2) for n, a in
            enumerate((bs.pinned_a0(m), ball.a1_ball, ball.a2_ball))),
            rel=1e-3)
        mu, w, n_excl = bs.spectrum(theta, m, 30.0)
        part = math.fsum(w * np.exp(-t * mu * mu))
        bound = bs._truncation_bound(theta, m, t, 30.0, n_excl)
        assert 0.0 < full - part <= bound

    @pytest.mark.parametrize("theta,m", (
        *itertools.product((0.5, -1.3, 2.0, 6.0), (2, 8, 12)), (9.0, 12)))
    def test_equals_fsum_over_every_term(self, theta, m, solves):
        # each value sums every solved term, within the stated bound of
        # their exactly rounded sum, and each bound, of the roots past the
        # solve cutoff, is below 2^-70 of the trace; theta = 9, m = 12 is a
        # spectrum of 371662 roots in 368225 levels
        values, bounds = bs.heat_trace(theta, m, bs.T_GRID)
        [(cutoff, (mu, w, _))] = solves
        full, weights, _ = bs.spectrum(theta, m, 100.0)
        past = full > cutoff
        for t, value, bound in zip(bs.T_GRID, values, bounds):
            assert_summed(value, w * np.exp(-t * mu * mu))
            assert math.fsum(weights[past] * np.exp(-t * full[past] ** 2)) \
                <= bound <= 2.0 ** -70 * value

    @pytest.mark.parametrize("m", (2, 8, 12))
    @pytest.mark.parametrize("theta", (0.5, -1.3, 2.0, 6.0))
    def test_solves_the_roots_of_the_full_spectrum(self, theta, m, solves):
        # the roots heat_trace solves are those of the spectrum to 100 at or
        # below its solve cutoff: bit for bit in the levels below the
        # cutoff, and within 3 ulp in the levels past it, whose roots start
        # otherwise
        bs.heat_trace(theta, m, bs.T_GRID)
        [(cutoff, (mu, w, n_excl))] = solves
        assert cutoff == bs._solve_cutoff(theta, m, bs.T_GRID[0]) < 100.0
        full, weights, _ = bs.spectrum(theta, m, 100.0)
        assert np.array_equal(w, weights[full <= cutoff])
        assert n_excl == bs._level_count(theta, m, cutoff)
        assert_same_roots(solved(theta, m, cutoff), solved(theta, m, 100.0),
                          cutoff)
        assert np.array_equal(mu, solved(theta, m, cutoff)[1])

    @pytest.mark.parametrize("m", (2, 4, 8, 12))
    @pytest.mark.parametrize("theta", (0.5, 1.0, -1.7, 2.0, 3.0, 6.0))
    def test_solves_few_roots_past_the_cutoff(self, theta, m, monkeypatch):
        # bounds keep the roots past heat_trace's solve cutoff out of the
        # solve: at most 1% of the solved roots lie past it (8-11% when
        # every bracket was solved), and each kept root is that of the full
        # solve (assert_same_roots)
        cutoff = bs._solve_cutoff(theta, m, bs.T_GRID[0])
        full = solved(theta, m, 100.0)  # and fills the tables
        solve, roots = bs._solve, []

        def spy(*args):
            result = solve(*args)
            roots.append(result[0])
            return result
        monkeypatch.setattr(bs, "_solve", spy)
        bs.spectrum(theta, m, cutoff)
        monkeypatch.undo()
        [roots] = roots
        assert np.count_nonzero(roots > cutoff) <= 0.01 * roots.size
        assert_same_roots(solved(theta, m, cutoff), full, cutoff)

    @pytest.mark.parametrize("theta,m", ((0.5, 2), (-2.0, 8)))
    def test_mu_max_past_the_cutoff_changes_nothing(self, theta, m):
        # a spectrum to 100 or to 200 holds, at or below the solve cutoff,
        # the roots the trace solves (assert_same_roots), and those past it
        # add less to the trace than its truncation bound
        cutoff = bs._solve_cutoff(theta, m, bs.T_GRID[0])
        roots = solved(theta, m, cutoff)
        bounds = bs.heat_trace(theta, m, bs.T_GRID)[1]
        for mu_max in (100.0, 200.0):
            assert_same_roots(roots, solved(theta, m, mu_max), cutoff)
            mu, w, _ = bs.spectrum(theta, m, mu_max)
            past = mu > cutoff
            assert all(math.fsum(w[past] * np.exp(-t * mu[past] ** 2))
                       <= bound for t, bound in zip(bs.T_GRID, bounds))

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_no_fallback_on_t_grid(self, m, solves):
        # one solve per trace, at its solve cutoff, below 100, across the
        # declared theta
        thetas = (-6.0, -3.0, -1.3, 0.0, 0.1, 0.5, 2.0, 4.0, 6.0)
        for theta in thetas:
            bs.heat_trace(theta, m, bs.T_GRID)
        assert [cutoff for cutoff, _ in solves] == [
            bs._solve_cutoff(theta, m, bs.T_GRID[0]) for theta in thetas]
        assert all(cutoff < 100.0 for cutoff, _ in solves)

    def test_large_t_takes_the_fallback(self, solves):
        # at large t the interior term a_0 t^(-m/2) overshoots the trace:
        # the tail past the first cutoff is not proved small, so the
        # spectrum is solved again to twice the cutoff until it is, and the
        # value sums every term of the spectrum to 100 (assert_summed)
        for m, theta, t in ((12, 0.0, 0.3), (12, 0.0, 2.0), (2, 0.0, 5.0)):
            solves.clear()
            value = bs.heat_trace(theta, m, [t])[0][0]
            first = bs._solve_cutoff(theta, m, t)
            assert len(solves) >= 2
            assert [cutoff for cutoff, _ in solves] == [
                first * 2.0 ** k for k in range(len(solves))]
            mu, w, _ = bs.spectrum(theta, m, 100.0)
            assert_summed(value, w * np.exp(-t * mu * mu))

    @pytest.mark.parametrize("theta,m,t", ((0.5, 2, 0.02), (-3.0, 12, 0.02),
                                           (6.0, 8, 0.005), (0.0, 12, 2.0)))
    def test_solve_cutoff_is_the_least_enough(self, theta, m, t):
        # the bisection below the first of 8, 16, 32, ... that is enough
        # finds the least multiple of 1/8 whose tail bound is below 2^-71
        # of the interior term a_0 t^(-m/2)
        cutoff = bs._solve_cutoff(theta, m, t)
        target = 2.0 ** -71 * bs.pinned_a0(m) * t ** (-m / 2)

        def tail(mu):
            return bs._truncation_bound(theta, m, t, mu,
                                        bs._level_count(theta, m, mu))
        assert cutoff % 0.125 == 0.0
        assert tail(cutoff) <= target < tail(cutoff - 0.125)

    def test_sums_only_the_terms_that_count(self, solves):
        # the solve stops where the terms stop counting: few of the roots
        # to 100 are solved
        bs.heat_trace(1.1, 2, [0.3])
        [(_, (mu, _, _))] = solves
        assert mu.size < 0.1 * bs.spectrum(1.1, 2, 100.0)[0].size

    def test_insufficient_cutoff(self, monkeypatch):
        # a truncation bound not below 1e-10 of the trace is refused.  Only
        # one that is not a number gets there: the solve doubles its
        # cutoff while the bound lies above 2^-70 of the trace.  The one
        # bound of a solve is at the smallest t, wherever it lies in ts.
        # The cutoff search refuses such a bound at the level limit
        cutoff = bs._solve_cutoff(0.0, 2, 0.01)
        monkeypatch.setattr(bs, "_truncation_bound",
                            lambda *args: np.array(math.nan))
        with pytest.raises(bs.InsufficientCutoffError,
                           match=r"^truncation bound nan at t=0\.01: no "
                                 r"cutoff within 1000000 angular levels"):
            bs._solve_cutoff(0.0, 2, 0.01)
        monkeypatch.setattr(bs, "_solve_cutoff", lambda theta, m, t: cutoff)
        with pytest.raises(bs.InsufficientCutoffError,
                           match=r"bound nan too large for trace .* "
                                 r"t=0\.01$"):
            bs.heat_trace(0.0, 2, [0.3, 0.01])

    @pytest.mark.parametrize("cutoff", (100.0, 0.5))
    def test_underflowing_t_is_out_of_range(self, cutoff, monkeypatch):
        # every term and the bound underflow: no cutoff can help, whichever
        # the solve starts from
        monkeypatch.setattr(bs, "_solve_cutoff", lambda theta, m, t: cutoff)
        with pytest.raises(ValueError, match=r"underflows at t=1000000\.0"):
            bs.heat_trace(0.5, 2, [1e6])

    def test_empty_spectrum_asks_for_a_cutoff(self, monkeypatch, solves):
        # no root below a first cutoff of 0.5: a zero trace whose tail bound
        # is not zero, so the spectrum is solved again to twice the cutoff
        # until the tail is small, and the value sums every term
        monkeypatch.setattr(bs, "_solve_cutoff", lambda theta, m, t: 0.5)
        value = bs.heat_trace(0.0, 2, [1.0])[0][0]
        assert solves[0][1][0].size == 0
        assert [cutoff for cutoff, _ in solves] == [
            0.5 * 2.0 ** k for k in range(len(solves))]
        mu, w, _ = bs.spectrum(0.0, 2, 100.0)
        assert_summed(value, w * np.exp(-mu * mu))

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            bs.heat_trace(0.0, 2, [-0.1])

    @pytest.mark.parametrize("t", (math.nan, math.inf))
    def test_non_finite_t(self, t):
        # refused, not passed through as nan or read as a zero trace
        with pytest.raises(ValueError, match="t must be positive and finite"):
            bs.heat_trace(0.5, 2, [0.1, t])

    @pytest.mark.parametrize("m,t,mu_max", ((2, 1e-300, 60.0),
                                            (8, 1e-12, 100.0),
                                            (12, 1e-300, 100.0)))
    def test_tiny_t_fails_at_once(self, m, t, mu_max):
        # the level terms still rise at the level limit (q >= 1), so no
        # cutoff within it has a bound: the trace is refused, not summed
        # for ever
        assert bs._truncation_bound(0.5, m, t, mu_max, 10) == math.inf
        start = time.perf_counter()
        with pytest.raises(bs.InsufficientCutoffError, match="bound inf"):
            bs.heat_trace(0.5, m, [t])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("theta,t", ((0.0, 1e-12), (11.0, 0.02)))
    def test_cutoff_past_the_level_limit_fails_at_once(self, theta, t,
                                                       monkeypatch):
        # the tail bound is finite, but the least cutoff that is enough
        # lies past the level limit (at 7.1e6 for theta = 0, t = 1e-12,
        # 1.6e7 scan steps up from the estimate): the scan stops at the
        # limit, and spectrum refuses its cutoff
        bound, calls = bs._truncation_bound, []

        def spy(*args):
            calls.append(args)
            assert len(calls) <= 100, "the scan runs on past the limit"
            return bound(*args)
        monkeypatch.setattr(bs, "_truncation_bound", spy)
        cutoff = bs._solve_cutoff(theta, 2, t)
        assert bs._level_count(theta, 2, cutoff) > bs.MAX_LEVELS
        with pytest.raises(ValueError, match="angular levels below"):
            bs.heat_trace(theta, 2, [t])

    def test_no_t(self):
        values, bounds = bs.heat_trace(0.5, 2, [])
        assert values.shape == bounds.shape == (0,)

    @pytest.mark.parametrize("theta,m,ts", (
        (0.5, 2, bs.T_GRID), (-1.3, 8, np.geomspace(0.005, 0.05, 20)),
        (2.0, 12, np.geomspace(0.01, 0.1, 20)), (0.0, 12, [2.0, 0.3, 5.0]),
        (0.0, 2, [5.0])))
    def test_one_bound_per_solve(self, theta, m, ts, solves, monkeypatch):
        # after the cutoff search, each spectrum solve takes one bound, at
        # its cutoff and the smallest t, wherever it lies in ts; the last
        # two traces take the doubling path
        bound, search, calls = bs._truncation_bound, bs._solve_cutoff, []

        def spy(theta, m, t, mu, n):
            calls.append((t, mu))
            return bound(theta, m, t, mu, n)

        def searched(*args):
            start = len(calls)
            cutoff = search(*args)
            del calls[start:]
            return cutoff
        monkeypatch.setattr(bs, "_truncation_bound", spy)
        monkeypatch.setattr(bs, "_solve_cutoff", searched)
        bs.heat_trace(theta, m, ts)
        assert calls == [(min(ts), cutoff) for cutoff, _ in solves]
        assert (len(solves) > 1) == (theta == 0.0)

    def test_too_many_brackets_refused_before_the_solve(self, monkeypatch):
        # theta = 0, t = 1e-10: the cutoff, ~7e5, lies inside the level
        # limit, but the levels below it hold ~8e10 brackets, a count
        # refused before a zero of J_p is asked for
        calls = []
        for name in ("_level_brackets", "jn_zeros"):
            monkeypatch.setattr(bs, name, lambda *args, name=name: (
                calls.append(name)))
        cutoff = bs._solve_cutoff(0.0, 2, 1e-10)
        assert bs._level_count(0.0, 2, cutoff) <= bs.MAX_LEVELS
        start = time.perf_counter()
        with pytest.raises(ValueError, match=(
                r"^[0-9.]+e\+10 brackets below mu_max=[0-9.]+, over "
                r"1000000$")):
            bs.heat_trace(0.0, 2, [1e-10])
        assert time.perf_counter() - start < 1.0
        assert calls == []

    @pytest.mark.parametrize("m,mu_max", ((2, 60.0), (12, 150.0)))
    def test_brackets_within_their_count(self, m, mu_max):
        # each level p < mu_max holds at most (mu_max - p)/pi + 2 brackets
        # below mu_max, which spectrum sums into the count it refuses by
        p0 = m // 2 - 1
        levels = math.ceil(mu_max) - p0
        held = np.bincount(bs._level_brackets(p0, levels, mu_max)[0] - p0,
                           minlength=levels)
        assert np.all(held <= (mu_max - np.arange(p0, p0 + levels)) / math.pi
                      + 2.0)
        assert held.sum() > 0.5 * mu_max ** 2 / (2.0 * math.pi)

@st.composite
def _trace_requests(draw):
    """theta of either sign, log-uniform in |theta| in [1e-6, 6], an even m
    in 2..12 and T_GRID or a geometric window of 1 to 20 t in [0.005,
    0.3]."""
    theta = math.copysign(math.exp(draw(st.floats(math.log(1e-6),
                                                  math.log(6.0)))),
                          draw(st.sampled_from((1.0, -1.0))))
    m = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    if draw(st.booleans()):
        return theta, m, bs.T_GRID
    low, high = sorted(math.exp(draw(st.floats(math.log(0.005),
                                               math.log(0.3))))
                       for _ in range(2))
    return theta, m, np.geomspace(low, high, draw(st.integers(1, 20)))


class TestHeatTraceProperty:
    @seed(2005)
    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(request=_trace_requests())
    def test_sums_within_the_stated_bound(self, request):
        # every value is finite and within the stated bound of the exactly
        # rounded sum of the solved terms, and every tail bound is below
        # 2^-70 of its value
        theta, m, ts = request
        spectrum, solves = bs.spectrum, []

        def spy(*args):
            solves.append(spectrum(*args))
            return solves[-1]
        with unittest.mock.patch.object(bs, "spectrum", spy):
            values, bounds = bs.heat_trace(theta, m, ts)
        mu, w, _ = solves[-1]
        assert np.all(np.isfinite(values))
        for t, value, bound in zip(ts.tolist(), values, bounds):
            assert_summed(value, w * np.exp(-t * mu * mu))
            assert bound <= 2.0 ** -70 * value


@st.composite
def _tail_requests(draw):
    """theta of either sign, log-uniform in |theta| in [1e-3, 6], an even m
    in 2..12 and T_GRID, one of the two small-t windows, or a geometric
    grid of 1 to 10 t in [0.005, 5], whose smallest t past ~0.3 takes the
    doubling path."""
    theta = math.copysign(math.exp(draw(st.floats(math.log(1e-3),
                                                  math.log(6.0)))),
                          draw(st.sampled_from((1.0, -1.0))))
    m = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    grid = draw(st.sampled_from(("T_GRID", "0.01-0.1", "0.005-0.05", "")))
    if grid:
        return theta, m, {"T_GRID": bs.T_GRID,
                          "0.01-0.1": np.geomspace(0.01, 0.1, 20),
                          "0.005-0.05": np.geomspace(0.005, 0.05, 20)}[grid]
    low, high = sorted(math.exp(draw(st.floats(math.log(0.005),
                                               math.log(5.0))))
                       for _ in range(2))
    return theta, m, np.geomspace(low, high, draw(st.integers(1, 10)))


class TestTailBoundProperty:
    @seed(2005)
    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(request=_tail_requests())
    def test_bound_holds_at_every_t(self, request):
        # the one bound at the smallest t, carried to each t as r times its
        # value, bounds the terms of the roots past the last solve's cutoff
        # at every t: those of a spectrum solved to 1.5 times the cutoff,
        # past which the rest is below e^-(1.25 t mu_c^2) of them
        theta, m, ts = request
        with unittest.mock.patch.object(bs, "spectrum",
                                        wraps=bs.spectrum) as spy:
            values, bounds = bs.heat_trace(theta, m, ts)
        cutoff = spy.call_args.args[2]
        mu, w, _ = bs.spectrum(theta, m, 1.5 * cutoff + 1.0)
        past = mu > cutoff
        for t, value, bound in zip(np.ravel(ts).tolist(), values, bounds):
            assert math.fsum(w[past] * np.exp(-t * mu[past] ** 2)) <= bound
            assert bound <= 2.0 ** -70 * value


def solved(theta, m, mu_max):
    """Level and value of each root of spectrum(theta, m, mu_max), ordered
    as its eigenvalues."""
    solve, out = bs._solve, []

    def spy(p, *args):
        out.append((p, *solve(p, *args)))
        return out[-1][1:]
    bs._solve = spy
    try:
        mu = bs.spectrum(theta, m, mu_max)[0]
    finally:
        bs._solve = solve
    p, root = (a[out[-1][1] <= mu_max] for a in out[-1][:2])
    order = np.lexsort((p, root))
    assert np.array_equal(root[order], mu)
    return p[order], root[order]


def assert_same_roots(kept, full, cutoff):
    """The roots solved to a bound past cutoff (full), at or below it, are
    those solved to cutoff (kept): bit for bit in the levels below cutoff,
    where both take the same brackets and starts, and within 3 ulp in the
    levels at or past it, whose one bracket (0, cutoff] starts its root
    otherwise (_high_start): the last step from another start rounds
    otherwise, and below the turning point psi' is small, so an ulp of
    the phase moves the root by more than an ulp."""
    p, root = kept
    below = full[1] <= cutoff
    q, other = (a[below] for a in full)
    assert np.array_equal(p, q)
    low = p < cutoff
    assert np.array_equal(root[low], other[low])
    assert np.all(np.abs(root - other) <= 3.0 * np.spacing(other))


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
        values, _ = bs.heat_trace(theta, m, bs.T_GRID)
        fit = bs.fit_heat_coefficients(bs.T_GRID, values, m)
        coef, resid, deeper = lstsq_fit(bs.T_GRID, values, m)
        assert fit.coeffs[1] == pytest.approx(coef[0], rel=1e-12, abs=0.0)
        assert fit.coeffs[2] == pytest.approx(coef[1], rel=1e-10, abs=0.0)
        assert fit.residual == pytest.approx(resid, rel=1e-6)
        assert np.allclose(fit.coeff_errors[1:], np.abs(deeper[:5] - coef),
                           rtol=1e-6, atol=1e-12)

    def test_disc_fit_against_closed_forms(self):
        theta = 0.5
        values, _ = bs.heat_trace(theta, 2, bs.T_GRID)
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
