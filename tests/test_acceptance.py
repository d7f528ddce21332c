"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with its worst residual.

Identity residuals (criteria 2-4, 7) are scaled by max(1, |value|): the
compared closed forms are exact identities, so the attainable absolute
agreement is eps times the magnitude of the values, which reaches ~1e6 at
m=12, |theta|=2.
"""

import numpy as np

from chiralbag import ball_spectrum as bs
from chiralbag import cylinder as cy
from chiralbag import identities as idn
from chiralbag.coefficients import universal_constants
from test_ball_spectrum import FAMILIES, mode_integral_residuals, ratio, \
    roots
from test_clifford import build_gamma, copies, pi_plus_product

MS = (2, 4, 6, 8, 10, 12)
THETA_GRID = [round(-2.0 + 0.1 * k, 10) for k in range(41)]


RESULT_LINES = []  # echoed by conftest in the terminal summary


def _report(num, label, ok, detail):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} " \
           f"[{detail}]"
    RESULT_LINES.append(line)
    print("\n" + line)
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_01_theta_zero_reduction():
    expect = (0.0, -1.0 / 6.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    worst = 0.0
    for m in MS:
        uc = universal_constants(0.0, m)
        got = (uc.c1, uc.c2, uc.c3, uc.c4, uc.c5, uc.c6, uc.c7)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, expect)))
    _report(1, "theta=0 reduction of c1..c7", worst < 1e-12,
            f"max |error| = {worst:.3e}")


def test_02_c_d_relations():
    worst = 0.0
    for m in MS:
        for theta in THETA_GRID:
            uc = universal_constants(theta, m)
            scale = max(1.0, abs(uc.c5), abs(uc.c6))
            worst = max(worst,
                        abs(uc.c3 + 2 * uc.d4) / scale,
                        abs(uc.c4 + 2 * uc.d3) / scale,
                        abs(uc.c5 + 2 * uc.d2) / scale,
                        abs(uc.c6 + 2 * uc.d1) / scale)
    _report(2, "c/d pairing relations", worst < 1e-12,
            f"max scaled residual = {worst:.3e}")


def test_03_ball_cylinder_consistency():
    worst = 0.0
    for m in MS:
        for theta in THETA_GRID:
            point = idn.grid_point(theta, m)
            worst = max(worst, idn.check_ball_cylinder_d1(point),
                        idn.check_ball_cylinder_d2(point))
    _report(3, "ball vs cylinder eta constants", worst < 1e-11,
            f"max scaled residual = {worst:.3e}")


def test_04_c7_quotient():
    worst = 0.0
    for m in MS[1:]:
        for theta in THETA_GRID:
            worst = max(worst,
                        idn.check_c7_relation(idn.grid_point(theta, m)))
    _report(4, "c7/c2 quotient relation, m >= 4", worst < 1e-12,
            f"max scaled residual = {worst:.3e}")


def test_05_disc_spectral_fit():
    import time
    start = time.monotonic()
    ok = True
    details = []
    for theta in (0.0, 0.5, 1.0):
        values, _ = bs.heat_trace(theta, 2, bs.T_GRID)
        fit = bs.fit_heat_coefficients(bs.T_GRID, values, 2)
        target = universal_constants(theta, 2)
        a1, a2 = fit.coeffs[1], fit.coeffs[2]
        if theta == 0.0:
            # the coefficient-level fit error (shift under K -> K+1),
            # not the rms misfit: the contamination from neglected orders
            # is smooth, so the rms understates the a1 uncertainty
            a1_err = fit.coeff_errors[1]
            a1_ok = abs(a1) < 3.0 * a1_err
            details.append(f"theta=0: |a1|={abs(a1):.2e} "
                           f"(3*fit err={3 * a1_err:.2e})")
        else:
            rel = abs(a1 - target.a1_ball) / abs(target.a1_ball)
            a1_ok = rel < 0.01
            details.append(f"theta={theta}: a1 rel err {rel:.2e}")
        a2_err = abs(a2 + 1.0 / 6.0)
        a2_ok = a2_err < 0.01
        details.append(f"a2 err {a2_err:.2e}")
        ok = ok and a1_ok and a2_ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    details.append(f"runtime {elapsed:.1f}s")
    _report(5, "disc spectral fit of a1, a2", ok, "; ".join(details))


def test_06_cylinder_checks():
    worst = 0.0
    for omega in (0.5, 1.3, 2.0):
        for theta in (0.0, 0.4, 0.7, 1.2):
            for t in (0.1, 0.25):
                (r1, _), (r2, _) = cy.check_U_integrals(omega, theta, t)
                worst = max(worst, r1, r2)
            for s in (1.5, 2.5):
                worst = max(worst, cy.check_t_integral(s, omega, theta)[0])
    _report(6, "cylinder integrated identities + t-integral",
            worst < 1e-8, f"max residual = {worst:.3e}")


def test_07_special_function_oracles():
    paths_worst = 0.0
    for m in MS:
        for theta in (0.5, 1.0, 2.0):
            paths_worst = max(paths_worst, idn.check_evaluation_paths(
                idn.grid_point(theta, m)))
    _report(7, "2F1 evaluation-path oracle", paths_worst < 1e-12,
            f"2F1 path residual={paths_worst:.3e}")


def test_08_mode_integral_closed_forms():
    worst = 0.0
    for m in (2, 4, 6, 8):
        p = m // 2 - 1  # level n = 0
        for theta in (-0.6, 0.0, 0.6, 2.0):
            for chirality, sign in FAMILIES:
                for mu in roots(p, ratio(chirality, sign, theta), theta,
                                40.0)[:5]:
                    worst = max(worst, *mode_integral_residuals(
                        chirality, sign, p, theta, float(mu)))
    _report(8, "normalization and chirality mode integrals",
            worst < 1e-10, f"max residual = {worst:.3e}")


def test_09_clifford_invariants():
    # the package's 2x2 pair generates the algebra gt^2 = 1, gm^2 = -1,
    # gt gm = -gm gt; at every m the reference gt, a real +-1 diagonal, and
    # gm, a real signed permutation pairing each +1 index of gt with a -1
    # one, are exactly d_s/2 copies of that pair, and Pi+ Pi+* is too
    gt, gm, eye = cy.GAMMA_TILDE, cy.GAMMA_M, np.eye(2)
    worst = max(np.abs(gt @ gt - eye).max(), np.abs(gm @ gm + eye).max(),
                np.abs(gt @ gm + gm @ gt).max())
    for m in MS:
        rep = build_gamma(m)
        worst = max(worst, np.abs(rep.gamma_tilde - copies(rep, gt)).max(),
                    np.abs(rep.gamma_m - copies(rep, gm)).max())
        for theta in (0.0, 0.8, -1.5):
            worst = max(worst, np.abs(pi_plus_product(rep, theta) - copies(
                rep, cy._projector_product(theta))).max())
    _report(9, "Clifford and projector invariants", worst < 1e-13,
            f"max residual = {worst:.3e}")
