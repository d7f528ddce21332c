import math

import numpy as np
import pytest
from scipy import special as sp

from chiralbag import ball_spectrum as bs
from chiralbag.coefficients import universal_constants


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
    def test_ratio_mapping(self):
        th = 0.7
        assert bs.EigenvalueFamily("plus", "pos", 0, 2).ratio(th) == \
            pytest.approx(math.exp(th))
        assert bs.EigenvalueFamily("minus", "pos", 0, 2).ratio(th) == \
            pytest.approx(-math.exp(-th))
        assert bs.EigenvalueFamily("plus", "neg", 0, 2).ratio(th) == \
            pytest.approx(-math.exp(th))
        assert bs.EigenvalueFamily("minus", "neg", 0, 2).ratio(th) == \
            pytest.approx(math.exp(-th))

    def test_p_index(self):
        assert bs.EigenvalueFamily("plus", "pos", 3, 4).p == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            bs.EigenvalueFamily("plus", "pos", -1, 2)
        with pytest.raises(ValueError):
            bs.EigenvalueFamily("plus", "pos", 0, 3)


class TestFindRoots:
    def test_first_root_j1_equals_j0(self):
        fam = bs.EigenvalueFamily("plus", "pos", 0, 2)
        rs = bs.find_roots(fam, 0.0, 20.0)
        assert rs[0] == pytest.approx(1.4347, abs=2e-4)

    @pytest.mark.parametrize("theta", (0.0, 0.9, -1.6, 3.0))
    @pytest.mark.parametrize("chirality,sign",
                             [("plus", "pos"), ("plus", "neg"),
                              ("minus", "pos"), ("minus", "neg")])
    def test_against_dense_scan_oracle(self, theta, chirality, sign):
        fam = bs.EigenvalueFamily(chirality, sign, 1, 4)
        rs = bs.find_roots(fam, theta, 25.0)
        oracle = dense_scan_roots(fam.p, fam.ratio(theta), 25.0)
        assert len(rs) == len(oracle)
        assert np.abs(rs - oracle).max() < 1e-8

    def test_roots_satisfy_condition(self):
        fam = bs.EigenvalueFamily("minus", "pos", 2, 6)
        rs = bs.find_roots(fam, 1.2, 40.0)
        p, r = fam.p, fam.ratio(1.2)
        resid = np.abs(sp.jv(p + 1, rs) - r * sp.jv(p, rs))
        assert resid.max() < 1e-11
        assert np.all(np.diff(rs) > 0)

    def test_interlacing_with_bessel_zeros(self):
        # theta=0, p=0: roots of J1 = +-J0 interlace with zeros of J0
        z0 = sp.jn_zeros(0, 5)
        pos = bs.find_roots(bs.EigenvalueFamily("plus", "pos", 0, 2),
                            0.0, z0[-1])
        for k in range(4):
            assert np.count_nonzero((pos > z0[k]) & (pos < z0[k + 1])) == 1
        assert np.count_nonzero(pos < z0[0]) == 1

    def test_theta_reflection_swaps_families(self):
        th = 0.8
        a = bs.find_roots(bs.EigenvalueFamily("plus", "pos", 0, 2),
                          th, 30.0)
        b = bs.find_roots(bs.EigenvalueFamily("minus", "neg", 0, 2),
                          -th, 30.0)
        assert len(a) == len(b)
        assert np.abs(a - b).max() < 1e-11

    @pytest.mark.parametrize("p", (230, 231, 1000))
    def test_small_ratio_roots_against_mpmath(self, p):
        # r = e^-4: the one root below 100 sits near 2(p+1) r, far below p,
        # where J_p underflows in double precision
        mp = pytest.importorskip("mpmath")
        fam = bs.EigenvalueFamily("minus", "neg", p, 2)
        r = fam.ratio(4.0)
        roots = bs.find_roots(fam, 4.0, 100.0)
        assert len(roots) == 1
        with mp.workdps(50):
            exact = mp.findroot(
                lambda z: mp.besselj(p + 1, z) / mp.besselj(p, z) - r,
                mp.mpf(roots[0]))
            assert abs(roots[0] / exact - 1) < 1e-12

    @pytest.mark.parametrize("p", (60, 231))
    def test_root_count_against_mpmath(self, p):
        # sign changes of J_{p+1} - r J_p in 30-digit arithmetic on a 0.1
        # grid; roots of one family lie more than 2 apart
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            grid = [mp.mpf(k) / 10 for k in range(1, 1001)]
            jp = [mp.besselj(p, x) for x in grid]
            jp1 = [mp.besselj(p + 1, x) for x in grid]
            for fam in bs.all_families(2, p):
                r = mp.mpf(fam.ratio(4.0))
                sg = [mp.sign(a - r * b) for a, b in zip(jp1, jp)]
                changes = sum(a != b for a, b in zip(sg, sg[1:]))
                assert len(bs.find_roots(fam, 4.0, 100.0)) == changes

    @pytest.mark.parametrize("theta", (0.5, 4.0, 6.0))
    def test_roots_above_level_floor(self, theta, monkeypatch):
        # solve without the floor as the first bracket's lower end, in
        # every level up to 50 past the spectrum's cutoff: each root still
        # exceeds 2(p+1) rho/(1+rho), so no level past the cutoff has one
        _, _, n_excl = bs.spectrum(theta, 2, 100.0)
        monkeypatch.setattr(bs, "_level_floor", lambda p, theta: 0.0 * p)
        ratios = [fam.ratio(theta) for fam in bs.all_families(2, 0)]
        p, roots = bs._roots(np.arange(n_excl + 50), ratios, theta, 100.0)
        rho = math.exp(-abs(theta))
        assert np.all(roots > 2 * (p + 1) * rho / (1 + rho))
        assert p.max() < n_excl

    def test_spectrum_satisfies_condition_in_jv(self):
        # an oracle apart from the continued fraction: scipy jv at every root
        # with mu >= p of the theta=1.3 disc spectrum (J_p underflows below)
        theta = 1.3
        n_excl = bs.spectrum(theta, 2, 100.0)[2]
        for fam in bs.all_families(2, 0):
            r = fam.ratio(theta)
            p, mu = bs._roots(np.arange(n_excl), [r], theta, 100.0)
            for q in np.unique(p[mu >= p]):
                at = mu[(p == q) & (mu >= p)]
                scale = np.abs(sp.jv(q + 1, at)) + np.abs(r * sp.jv(q, at))
                assert np.all(np.abs(bs._condition(int(q), r, at))
                              <= 1e-12 * scale)

    @pytest.mark.parametrize("theta,m,mu_max,count", (
        (0.5, 2, 100.0, 5013), (2.0, 2, 100.0, 5277), (3.0, 2, 100.0, 5910),
        (4.0, 2, 100.0, 7636), (6.0, 2, 100.0, 25083), (0.0, 4, 40.0, 748),
        (0.7, 4, 40.0, 758), (-1.5, 4, 40.0, 806)))
    def test_spectrum_root_counts(self, theta, m, mu_max, count):
        assert bs.spectrum(theta, m, mu_max)[0].size == count

    def test_invalid_mu_max(self):
        with pytest.raises(ValueError):
            bs.find_roots(bs.EigenvalueFamily("plus", "pos", 0, 2),
                          0.0, -1.0)


class TestPhase:
    @pytest.mark.parametrize("p", (0, 1, 5, 60, 230, 400))
    def test_against_mpmath(self, p):
        # mu on both sides of p up to 200, and 1e-9 either side of the first
        # two zeros of J_p, where the phase jumps from pi/2 to -pi/2
        mp = pytest.importorskip("mpmath")
        zeros = sp.jn_zeros(p, 2)
        near = [q * p for q in (0.5, 0.99, 1.01, 1.5) if 0 < q * p <= 200]
        mu = np.concatenate((np.geomspace(1e-3, 200.0, 23), near,
                             zeros - 1e-9, zeros + 1e-9))
        phase = bs._phase(np.full(mu.size, p), mu)
        with mp.workdps(50):
            exact = np.array([float(mp.atan(mp.besselj(p + 1, mp.mpf(x))
                                            / mp.besselj(p, mp.mpf(x))))
                              for x in mu])
        assert np.abs(phase - exact).max() < 1e-14
        assert np.all(phase[-4:-2] > 1.5) and np.all(phase[-2:] < -1.5)


class TestHeatTrace:
    def test_large_t_dominated_by_lowest_modes(self):
        t = 5.0
        value = bs.heat_trace(0.0, 2, [t], 60.0)[0][0]
        # explicit few-term oracle: smallest eigenvalues from all families,
        # all levels whose first root is small enough to matter
        total = 0.0
        for n in range(6):
            for fam in bs.all_families(2, n):
                roots = bs.find_roots(fam, 0.0, 12.0)
                total += bs.degeneracy(n, 2) * \
                    float(np.sum(np.exp(-t * roots ** 2)))
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

    def test_insufficient_cutoff(self):
        with pytest.raises(bs.InsufficientCutoffError):
            bs.heat_trace(0.0, 2, [0.01], 15.0)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            bs.heat_trace(0.0, 2, [-0.1], 50.0)


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

    def test_disc_fit_against_closed_forms(self):
        theta = 0.5
        values, _ = bs.heat_trace(theta, 2, bs.T_GRID, 100.0)
        fit = bs.fit_heat_coefficients(bs.T_GRID, values, 2)
        a1_target = math.sqrt(math.pi) / 2 * (math.cosh(theta) - 1.0)
        assert abs(fit.coeffs[1] - a1_target) / a1_target < 0.01
        assert abs(fit.coeffs[2] + 1.0 / 6.0) < 0.01


class TestModeIntegrals:
    def test_disc_gamma5_value(self):
        fam = bs.EigenvalueFamily("plus", "pos", 0, 2)
        mu = float(bs.find_roots(fam, 0.0, 10.0)[0])
        expect = -0.5 / (mu - 0.5)
        assert expect == pytest.approx(-0.5350, abs=2e-4)
        out = bs.verify_mode_integrals(fam, 0.0, mu)
        assert out["norm_residual"] < 1e-10
        assert out["gamma5_residual"] < 1e-10

    def test_m4_third_root(self):
        fam = bs.EigenvalueFamily("plus", "pos", 1, 4)
        mu = float(bs.find_roots(fam, 0.6, 30.0)[2])
        out = bs.verify_mode_integrals(fam, 0.6, mu)
        assert out["norm_residual"] < 1e-10
        assert out["gamma5_residual"] < 1e-10

    def test_off_shell_rejected(self):
        fam = bs.EigenvalueFamily("plus", "pos", 0, 2)
        with pytest.raises(bs.OffShellError):
            bs.verify_mode_integrals(fam, 0.0, 2.0)


def test_pinned_a0_disc():
    assert bs.pinned_a0(2) == pytest.approx(0.5, rel=1e-14)
