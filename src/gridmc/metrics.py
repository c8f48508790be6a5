"""Evaluation metrics: voltage-magnitude MAPE, voltage-angle MAE in degrees
with wrap-around, RMSE over stacked real and imaginary parts, and Student-t
confidence intervals over repeated runs."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datamatrix import ROWS_PER_STEP


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class EstimateReport:
    mape_magnitude_pct: float
    mae_angle_deg: float
    rmse: float  # per-unit
    n_runs: int = 1
    ci95: dict[str, float] | None = None

    def __post_init__(self):
        if min(self.mape_magnitude_pct, self.mae_angle_deg, self.rmse) < 0:
            raise MetricsError("metrics must be nonnegative")
        if self.ci95 is not None and self.n_runs < 2:
            raise MetricsError("confidence intervals require at least two runs")


def wrap_degrees(delta: np.ndarray) -> np.ndarray:
    """Map angle differences into (-180, 180]."""
    return 180.0 - np.mod(180.0 - np.asarray(delta), 360.0)


def evaluate_estimate(v_est: np.ndarray, v_true: np.ndarray) -> EstimateReport:
    """Single-run errors, averaged jointly over time steps and phases."""
    v_est = np.asarray(v_est, dtype=complex)
    v_true = np.asarray(v_true, dtype=complex)
    if v_est.shape != v_true.shape:
        raise MetricsError(f"shape mismatch: {v_est.shape} vs {v_true.shape}")
    mag_true = np.abs(v_true)
    if np.min(mag_true) == 0:
        raise MetricsError("true voltage has a zero-magnitude entry")
    mape = 100.0 * np.mean(np.abs(np.abs(v_est) - mag_true) / mag_true)
    delta = np.degrees(np.angle(v_est) - np.angle(v_true))
    mae = np.mean(np.abs(wrap_degrees(delta)))
    diff = v_est - v_true
    rmse = np.sqrt(np.mean(diff.real**2 + diff.imag**2))
    return EstimateReport(
        mape_magnitude_pct=float(mape), mae_angle_deg=float(mae), rmse=float(rmse)
    )


def confidence_interval(samples) -> tuple[float, float]:
    """Mean and 95% Student-t half-width."""
    # Imported here: scipy.stats adds ~43 MB of RSS and only --runs >= 2 needs it.
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise MetricsError("confidence interval requires at least two samples")
    mean = float(np.mean(samples))
    s = float(np.std(samples, ddof=1))
    t = float(stats.t.ppf(0.975, n - 1))
    return mean, t * s / np.sqrt(n)


def aggregate_reports(reports: list[EstimateReport]) -> EstimateReport:
    """Combine per-run reports into means with 95% half-widths."""
    if not reports:
        raise MetricsError("no reports to aggregate")
    if len(reports) == 1:
        return reports[0]
    means, ci = {}, {}
    for f in fields(EstimateReport)[:3]:  # the three metrics
        means[f.name], ci[f.name] = confidence_interval(
            [getattr(r, f.name) for r in reports])
    return EstimateReport(**means, n_runs=len(reports), ci95=ci)


def voltage_from_matrix(x: np.ndarray) -> np.ndarray:
    """Complex voltage time series (T, |P|) from the first two rows of each
    time block of a measurement-shaped matrix."""
    m = x.shape[0]
    if m % ROWS_PER_STEP != 0:
        raise MetricsError(f"row count is not a multiple of {ROWS_PER_STEP}")
    blocks = x.reshape(m // ROWS_PER_STEP, ROWS_PER_STEP, x.shape[1])
    return blocks[:, 0] + 1j * blocks[:, 1]
