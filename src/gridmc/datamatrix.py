"""Multi-period measurement matrix, observation masks, noise injection, and
singular-value diagnostics.

Row layout per time block t (five rows each): Re(v), Im(v), |v|, Re(s), Im(s),
one column per non-slack bus-phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROWS_PER_STEP = 5
# Re(v), Im(v), |v| are the first rows of each time block; the rest, Re(s)
# and Im(s), are the injection rows, the only rows an area's flow residual
# reads from a neighbor's columns.
VOLTAGE_ROWS = 3
_SCADA_ROWS = (2, 3, 4)  # |v|, Re(s), Im(s) within each time block


class DataMatrixError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Observed cells as a read-only boolean m x n array."""

    observed: np.ndarray
    policy: str

    def __post_init__(self):
        observed = np.array(self.observed)
        if observed.dtype != bool or observed.ndim != 2:
            raise DataMatrixError("mask must be a two-dimensional boolean array")
        if self.policy == "scada":
            seen = np.flatnonzero(observed.any(axis=1))
            if np.setdiff1d(seen, eligible_rows(observed.shape[0], "scada")).size:
                raise DataMatrixError("scada mask may not contain voltage-phasor rows")
        observed.flags.writeable = False
        object.__setattr__(self, "observed", observed)

    @property
    def shape(self) -> tuple[int, int]:
        return self.observed.shape

    def __len__(self) -> int:
        return int(np.count_nonzero(self.observed))


def build_matrix(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Assemble the 5T x |P| matrix from (T, |P|) voltage and injection windows."""
    v = np.asarray(v, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if v.shape != s.shape:
        raise DataMatrixError(f"shape mismatch: v {v.shape} vs s {s.shape}")
    if v.ndim != 2:
        raise DataMatrixError(f"v and s must be (T, |P|) windows, got shape {v.shape}")
    n_steps, n = v.shape
    blocks = np.stack([v.real, v.imag, np.abs(v), s.real, s.imag], axis=1)
    return blocks.reshape(ROWS_PER_STEP * n_steps, n)


def eligible_rows(m: int, policy: str) -> np.ndarray:
    """Rows a mask of this policy may observe, in increasing order."""
    rows = np.arange(m)
    if policy == "uniform":
        return rows
    if policy == "scada":
        return rows[np.isin(rows % ROWS_PER_STEP, _SCADA_ROWS)]
    raise DataMatrixError(f"unknown mask policy: {policy!r}")


def sample_mask(
    m: int, n: int, fraction: float, policy: str = "uniform", seed: int = 0
) -> ObservationMask:
    """Sample an observation mask without replacement; deterministic per seed.

    Counts are rounded half-up on the eligible-cell total.  Eligible cells
    are numbered row by row.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DataMatrixError("fraction must lie in [0, 1]")
    rows = eligible_rows(m, policy)
    n_cells = rows.size * n
    count = int(np.floor(fraction * n_cells + 0.5))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_cells, size=count, replace=False)
    observed = np.zeros((m, n), dtype=bool)
    observed[rows[chosen // n], chosen % n] = True
    return ObservationMask(observed=observed, policy=policy)


def apply_mask(x: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """P_Omega: keep observed entries, zero the rest."""
    if x.shape != observed.shape:
        raise DataMatrixError(f"matrix {x.shape} does not match mask {observed.shape}")
    return np.where(observed, x, 0.0)


def add_noise(x: np.ndarray, percent: float, seed: int = 0) -> np.ndarray:
    """Perturb each entry by Gaussian noise with std = percent/100 * |entry|."""
    if not 0 <= percent < math.inf:
        raise DataMatrixError(
            f"noise percent must be finite and nonnegative, got {percent}")
    rng = np.random.default_rng(seed)
    scale = (percent / 100.0) * np.abs(x)
    return x + scale * rng.standard_normal(x.shape)


def sv_spectrum(x: np.ndarray) -> np.ndarray:
    """Singular values in nonincreasing order."""
    return np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)


def is_low_observability(mask: ObservationMask) -> bool:
    """True when fewer than 2/3 of the SCADA-eligible cells are observed."""
    m, n = mask.shape
    eligible = eligible_rows(m, "scada").size * n
    return len(mask) < (2.0 / 3.0) * eligible

