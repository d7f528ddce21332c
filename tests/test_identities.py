import pytest

from chiralbag import identities as idn
from chiralbag.coefficients import universal_constants
from chiralbag.specialfn import hyp2f1_euler

P = idn.grid_point


class TestBallCylinderD1:
    def test_spot_values(self):
        assert idn.check_ball_cylinder_d1(P(0.5, 4)) < 1e-12
        assert idn.check_ball_cylinder_d1(P(0.0, 6)) == 0.0
        assert idn.check_ball_cylinder_d1(P(1.5, 8)) < 1e-11


class TestBallCylinderD2:
    def test_m2_hand_reduction(self):
        # both sides equal cosh^2 at m=2
        assert idn.check_ball_cylinder_d2(P(0.8, 2)) < 1e-13

    def test_theta_zero(self):
        for m in (2, 4, 10):
            assert idn.check_ball_cylinder_d2(P(0.0, m)) < 1e-14

    def test_spot_value(self):
        assert idn.check_ball_cylinder_d2(P(1.2, 6)) < 1e-11


class TestC7Relation:
    def test_theta_zero(self):
        assert idn.check_c7_relation(P(0.0, 4)) < 1e-15

    def test_spot_values(self):
        assert idn.check_c7_relation(P(0.7, 4)) < 1e-12
        assert idn.check_c7_relation(P(1.3, 10)) < 1e-11

    def test_m2_rejected(self):
        with pytest.raises(ValueError):
            idn.check_c7_relation(P(0.5, 2))


class TestAlternateForms:
    def test_m2_both_forms_constant(self):
        # at m=2 c2 is -1/6 in both forms, and c7 sets Euler's integral
        # against the exact theta coth theta
        assert idn.check_alternate_forms(P(1.7, 2)) < 1e-13

    def test_theta_zero(self):
        for m in (2, 6, 12):
            assert idn.check_alternate_forms(P(0.0, m)) < 1e-14

    def test_spot_value(self):
        assert idn.check_alternate_forms(P(0.9, 4)) < 1e-12


class TestEvaluationPaths:
    @pytest.mark.parametrize("m", (4, 8, 12))
    def test_terminating_vs_euler(self, m):
        for theta in (0.4, 1.0, 2.0):
            assert idn.check_evaluation_paths(P(theta, m)) < 1e-12


def test_grid_report():
    report = idn.grid_report()
    assert set(report) == {"ball_cylinder_d1", "ball_cylinder_d2",
                           "c7_relation", "alternate_forms",
                           "evaluation_paths"}
    for key, val in report.items():
        assert val < 1e-11, f"{key} residual {val}"


def test_grid_point_shared_by_the_checks(monkeypatch):
    # one constants record per (theta, m), however many checks read it, and
    # one Euler call per theta for every b the requested m read: E+ at m is
    # E- at m + 2, so m = 2, 4, 6 read b = 1/2, 3/2, 5/2, 7/2
    records, calls = [], []

    def constants(theta, m):
        records.append((theta, m))
        return universal_constants(theta, m)

    def euler(b, theta):
        calls.append((theta, b))
        return hyp2f1_euler(b, theta)
    monkeypatch.setattr(idn, "universal_constants", constants)
    monkeypatch.setattr(idn, "hyp2f1_euler", euler)
    thetas, ms = (0.3, -1.1, 2.0), (2, 4, 6)
    idn.grid_report(thetas=thetas, ms=ms)
    assert sorted(records) == sorted((t, m) for t in thetas for m in ms)
    assert calls == [(t, [0.5, 1.5, 2.5, 3.5]) for t in thetas]


def test_shared_integrals_leave_the_report_unchanged():
    # one Euler call lends E+ at m as E- at m + 2, in any order of m; the
    # report equals the maximum over one-point reports, which share nothing
    thetas, ms = (0.3, -1.1, 2.0), (6, 2, 4, 2)
    want = {}
    for m in ms:
        for theta in thetas:
            for name, r in idn.grid_report(thetas=(theta,), ms=(m,)).items():
                want[name] = max(want.get(name, 0.0), r)
    assert idn.grid_report(thetas=thetas, ms=ms) == want


def test_grid_report_c7_only_with_m_from_4():
    assert "c7_relation" not in idn.grid_report(thetas=(0.5,), ms=(2,))
    assert "c7_relation" in idn.grid_report(thetas=(0.5,), ms=(2, 4))
