import math

import pytest

from chiralbag import identities as idn


class TestBallCylinderD1:
    def test_spot_values(self):
        assert idn.check_ball_cylinder_d1(0.5, 4) < 1e-12
        assert idn.check_ball_cylinder_d1(0.0, 6) == 0.0
        assert idn.check_ball_cylinder_d1(1.5, 8) < 1e-11


class TestBallCylinderD2:
    def test_m2_hand_reduction(self):
        # both sides equal cosh^2 at m=2
        assert idn.check_ball_cylinder_d2(0.8, 2) < 1e-13

    def test_theta_zero(self):
        for m in (2, 4, 10):
            assert idn.check_ball_cylinder_d2(0.0, m) < 1e-14

    def test_spot_value(self):
        assert idn.check_ball_cylinder_d2(1.2, 6) < 1e-11


class TestC7Relation:
    def test_theta_zero(self):
        assert idn.check_c7_relation(0.0, 4) < 1e-15

    def test_spot_values(self):
        assert idn.check_c7_relation(0.7, 4) < 1e-12
        assert idn.check_c7_relation(1.3, 10) < 1e-11

    def test_m2_rejected(self):
        with pytest.raises(ValueError):
            idn.check_c7_relation(0.5, 2)


class TestAlternateForms:
    def test_m2_both_forms_constant(self):
        # at m=2 c2 is -1/6 in both forms, and c7 sets Euler's integral
        # against the exact theta coth theta
        assert idn.check_alternate_forms(1.7, 2) < 1e-13

    def test_theta_zero(self):
        for m in (2, 6, 12):
            assert idn.check_alternate_forms(0.0, m) < 1e-14

    def test_spot_value(self):
        assert idn.check_alternate_forms(0.9, 4) < 1e-12


class TestEvaluationPaths:
    @pytest.mark.parametrize("m", (4, 8, 12))
    def test_terminating_vs_euler(self, m):
        for theta in (0.4, 1.0, 2.0):
            assert idn.check_evaluation_paths(theta, m) < 1e-12


def test_grid_report():
    report = idn.grid_report()
    assert set(report) == {"ball_cylinder_d1", "ball_cylinder_d2",
                           "c7_relation", "alternate_forms",
                           "evaluation_paths"}
    for key, val in report.items():
        assert val < 1e-11, f"{key} residual {val}"
