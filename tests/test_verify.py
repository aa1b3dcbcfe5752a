import numpy as np
import pytest

from evclplus import verify
from evclplus.numerics import SeededRng
from evclplus.verify import (
    finite_diff_check,
    kl_mc_estimate,
    logistic_fisher_analytic,
    selftest,
)


class TestFiniteDiff:
    def test_quadratic(self):
        report = finite_diff_check(lambda v: float(v[0] ** 2), np.array([3.0]),
                                   np.array([6.0]))
        assert report.passed
        assert abs(report.numeric[0] - 6.0) / 6.0 < 1e-8

    def test_constant_function(self):
        report = finite_diff_check(lambda v: 1.0, np.array([0.3, -0.4]),
                                   np.zeros(2))
        assert (report.numeric == 0).all()
        assert report.passed

    def test_kink_flags_nonzero_claim(self):
        # |x| at 0: central difference is exactly 0; a claimed gradient of 1
        # must fail the check
        report = finite_diff_check(lambda v: float(abs(v[0])), np.array([0.0]),
                                   np.array([1.0]))
        assert report.numeric[0] == 0.0
        assert not report.passed

    def test_nonfinite_losses_reported_per_coordinate(self):
        def loss(v):
            return float("nan") if v[0] > 0.5 else float(v[1])

        report = finite_diff_check(loss, np.array([0.5, 1.0]),
                                   np.array([0.0, 1.0]))
        assert report.nonfinite[0] and not report.nonfinite[1]
        assert not report.passed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^params and analytic gradient shapes "
                                             r"differ$"):
            finite_diff_check(lambda v: 0.0, np.zeros(1), np.zeros(2))


class TestLogisticFisher:
    def test_hand_values(self):
        assert logistic_fisher_analytic(0.0, [1.0]) == pytest.approx(0.25,
                                                                     abs=1e-15)
        assert logistic_fisher_analytic(0.0, [2.0]) == pytest.approx(1.0,
                                                                     abs=1e-15)

    def test_saturation(self):
        assert logistic_fisher_analytic(50.0, [1.0]) < 1e-15

    def test_mean_over_inputs(self):
        value = logistic_fisher_analytic(0.0, [1.0, 2.0])
        assert value == pytest.approx((0.25 + 1.0) / 2, abs=1e-15)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            logistic_fisher_analytic(0.0, [])


class TestKlMc:
    def test_identical_distributions(self):
        est, se = kl_mc_estimate((0.3, 0.7), (0.3, 0.7), 100_000, SeededRng(0))
        assert abs(est) <= 3 * max(se, 1e-12)

    def test_unit_shift_half(self):
        est, se = kl_mc_estimate((1.0, 1.0), (0.0, 1.0), 1_000_000, SeededRng(1))
        assert abs(est - 0.5) <= 3 * se

    def test_se_scales_with_sqrt_n(self):
        _, se_small = kl_mc_estimate((1.0, 2.0), (0.0, 1.0), 10_000, SeededRng(2))
        _, se_big = kl_mc_estimate((1.0, 2.0), (0.0, 1.0), 1_000_000, SeededRng(3))
        ratio = se_small / se_big
        assert 5.0 < ratio < 20.0  # expect ~10, allow factor-2 slack

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kl_mc_estimate((0.0, -1.0), (0.0, 1.0), 100, SeededRng(0))
        with pytest.raises(ValueError):
            kl_mc_estimate((0.0, 1.0), (0.0, 1.0), 1, SeededRng(0))


def test_selftest_battery_passes(capsys):
    assert selftest() is True
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out


def test_selftest_reports_a_raising_oracle_as_a_failure(monkeypatch, capsys):
    def broken():
        raise ZeroDivisionError("no data")

    monkeypatch.setattr(verify, "ORACLES", [("broken", broken)] + verify.ORACLES[:1])
    assert selftest() is False
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "[FAIL] broken: raised ZeroDivisionError: no data"
    assert lines[1].startswith("[PASS] ")
