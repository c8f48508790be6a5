import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import metrics as mt


@pytest.fixture
def true_voltage():
    rng = np.random.default_rng(14)
    return (1.0 + 0.05 * rng.standard_normal((3, 8))) * np.exp(
        1j * 0.02 * rng.standard_normal((3, 8))
    )


class TestWrapDegrees:
    def test_inside_range_unchanged(self):
        d = np.array([-179.0, -10.0, 0.0, 10.0, 180.0])
        assert np.allclose(mt.wrap_degrees(d), d)

    def test_wraps_across_boundary(self):
        # 179 vs -179 are two degrees apart, not 358
        assert abs(mt.wrap_degrees(np.array([358.0]))[0] + 2.0) < 1e-12
        assert abs(mt.wrap_degrees(np.array([-358.0]))[0] - 2.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1000.0, 1000.0))
    def test_range_and_equivalence(self, d):
        w = float(mt.wrap_degrees(np.array([d]))[0])
        assert -180.0 < w <= 180.0
        assert abs((w - d) % 360.0) < 1e-9 or abs((w - d) % 360.0 - 360.0) < 1e-9


class TestEvaluateEstimate:
    def test_perfect_estimate(self, true_voltage):
        rep = mt.evaluate_estimate(true_voltage, true_voltage)
        assert rep.mape_magnitude_pct == 0.0
        assert rep.mae_angle_deg == 0.0
        assert rep.rmse == 0.0

    def test_pure_magnitude_scaling(self, true_voltage):
        rep = mt.evaluate_estimate(1.01 * true_voltage, true_voltage)
        assert abs(rep.mape_magnitude_pct - 1.0) < 1e-10
        assert rep.mae_angle_deg < 1e-10

    def test_pure_rotation(self, true_voltage):
        rot = np.exp(1j * np.radians(1.0))
        rep = mt.evaluate_estimate(rot * true_voltage, true_voltage)
        assert rep.mape_magnitude_pct < 1e-10
        assert abs(rep.mae_angle_deg - 1.0) < 1e-9

    def test_rmse_known_offset(self):
        v = np.ones((2, 4), dtype=complex)
        rep = mt.evaluate_estimate(v + (0.3 + 0.4j), v)
        assert abs(rep.rmse - 0.5) < 1e-12

    def test_angle_wrap_near_branch_cut(self):
        v_true = np.array([[np.exp(1j * np.radians(179.5))]])
        v_est = np.array([[np.exp(1j * np.radians(-179.5))]])
        rep = mt.evaluate_estimate(v_est, v_true)
        assert abs(rep.mae_angle_deg - 1.0) < 1e-9

    def test_shape_mismatch(self, true_voltage):
        with pytest.raises(mt.MetricsError):
            mt.evaluate_estimate(true_voltage[:2], true_voltage)

    def test_zero_magnitude_rejected(self):
        v = np.ones((1, 2), dtype=complex)
        bad = v.copy()
        bad[0, 0] = 0.0
        with pytest.raises(mt.MetricsError):
            mt.evaluate_estimate(v, bad)


class TestConfidenceInterval:
    def test_two_samples_known_width(self):
        # mean 1, sample std sqrt(2), t_{0.975,1} = 12.706
        mean, hw = mt.confidence_interval([0.0, 2.0])
        assert abs(mean - 1.0) < 1e-12
        assert abs(hw - 12.706204736 * np.sqrt(2.0) / np.sqrt(2.0)) < 1e-6

    def test_five_samples_pinned_quantile(self):
        # t_{0.975,4} = 2.7764451051977934 (scipy 1.17)
        samples = np.array([1.0, 2.5, 0.5, 4.0, 3.0])
        mean, hw = mt.confidence_interval(samples)
        s = np.std(samples, ddof=1)
        assert mean == pytest.approx(2.2, rel=1e-12)
        assert hw == pytest.approx(2.7764451051977934 * s / np.sqrt(5), rel=1e-12)

    def test_requires_two(self):
        with pytest.raises(mt.MetricsError):
            mt.confidence_interval([1.0])

    def test_coverage_monte_carlo(self):
        """The 95% interval covers the true mean at roughly the nominal rate
        for Gaussian samples."""
        rng = np.random.default_rng(21)
        hits = 0
        trials = 400
        for _ in range(trials):
            mean, hw = mt.confidence_interval(rng.standard_normal(10))
            if abs(mean) <= hw:
                hits += 1
        assert 0.90 < hits / trials < 0.99


class TestAggregate:
    def _report(self, a, b, c):
        return mt.EstimateReport(mape_magnitude_pct=a, mae_angle_deg=b, rmse=c)

    def test_single_passthrough(self):
        rep = self._report(1.0, 2.0, 3.0)
        assert mt.aggregate_reports([rep]) is rep

    def test_means_and_ci_keys(self):
        agg = mt.aggregate_reports(
            [self._report(1.0, 2.0, 3.0), self._report(3.0, 4.0, 5.0)]
        )
        assert agg.n_runs == 2
        assert agg.mape_magnitude_pct == 2.0
        assert agg.mae_angle_deg == 3.0
        assert agg.rmse == 4.0
        assert set(agg.ci95) == {"mape_magnitude_pct", "mae_angle_deg", "rmse"}

    def test_empty_rejected(self):
        with pytest.raises(mt.MetricsError):
            mt.aggregate_reports([])

    def test_report_validation(self):
        with pytest.raises(mt.MetricsError):
            mt.EstimateReport(mape_magnitude_pct=-1.0, mae_angle_deg=0.0, rmse=0.0)
        with pytest.raises(mt.MetricsError):
            mt.EstimateReport(
                mape_magnitude_pct=0.0, mae_angle_deg=0.0, rmse=0.0,
                n_runs=1, ci95={"rmse": 0.1},
            )


class TestVoltageFromMatrix:
    def test_round_trip(self, true_voltage):
        from gridmc import datamatrix as dm
        s = np.zeros_like(true_voltage)
        mat = dm.build_matrix(true_voltage, s)
        v = mt.voltage_from_matrix(mat)
        assert np.array_equal(v, true_voltage)

    def test_bad_row_count(self):
        with pytest.raises(mt.MetricsError):
            mt.voltage_from_matrix(np.zeros((7, 3)))
