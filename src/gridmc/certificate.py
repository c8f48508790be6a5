"""Global-optimality certificate for the factored completion problem.

Stacks the observed-entry samplers and the scaled flow-consistency rows into
one linear operator so the data and flow penalties collapse into a single
least-squares term, then evaluates the spectral-norm optimality condition,
the first-order stationarity residuals, the trace identities, complementary
slackness, and the Schur-complement dual-feasibility check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linflow import AreaMaps


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class StackedOperator:
    """Linear map B: R^{m x n} -> R^L with offset d, applied without forming
    B as a matrix.

    The first rows read the observed cells `obs` (`np.nonzero` of the mask,
    row-major order); the remaining rows are, area by area, the flow maps
    sum_j E_lj(X_j) of `maps` scaled by `scale` = sqrt(nu/mu).  `maps` is
    None when there are no flow rows."""

    obs: tuple[np.ndarray, np.ndarray]
    maps: AreaMaps | None
    scale: float
    d: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        rows = self.n_observed + sum(self.maps.residual_dim(l) for l in self.areas)
        if self.d.size != rows:
            raise CertificateError("operator rows do not match offset length")

    @property
    def n_observed(self) -> int:
        return self.obs[0].size

    @property
    def n_rows(self) -> int:
        return self.d.size

    @property
    def areas(self) -> list[int]:
        return self.maps.partition.areas if self.maps is not None else []

    @cached_property
    def b_mat(self) -> np.ndarray:
        """Dense reference view of B, an L x (m n) matrix acting on
        column-major flattenings.  Assembled on first read from
        `AreaMaps.e_mats`; `apply_B` and `apply_B_adjoint` never read it."""
        m, n = self.shape
        obs_i, obs_j = self.obs
        b_mat = np.zeros((self.n_rows, m * n))
        b_mat[np.arange(obs_i.size), obs_j * m + obs_i] = 1.0
        # area l's rows: E_lj scattered from area j's columns into those of X
        start = obs_i.size
        for l in self.areas:
            band = b_mat[start : start + self.maps.residual_dim(l)]
            for j in self.maps.sources(l):
                cols = (self.maps.cols[j][:, None] * m + np.arange(m)).ravel()
                band[:, cols] = self.scale * self.maps.e_mats[(l, j)]
            start += band.shape[0]
        return b_mat


def build_B_d(
    observed: np.ndarray,
    m_data: np.ndarray,
    area_maps: AreaMaps | None,
    mu: float,
    nu: float,
) -> StackedOperator:
    """Stacked operator for the boolean observation array `observed`; its
    entry rows follow the observed cells in row-major order."""
    if mu <= 0:
        raise CertificateError("mu must be positive")
    obs = np.nonzero(observed)
    maps = area_maps if nu != 0.0 else None
    scale = np.sqrt(nu / mu)
    flow = [scale * maps.f[l] for l in maps.partition.areas] if maps is not None else []
    return StackedOperator(obs=obs, maps=maps, scale=scale,
                           d=np.concatenate([m_data[obs], *flow]), shape=m_data.shape)


def apply_B(op: StackedOperator, x: np.ndarray) -> np.ndarray:
    if x.shape != op.shape:
        raise CertificateError(f"matrix {x.shape} does not match operator {op.shape}")
    out = [x[op.obs]]
    for l in op.areas:
        flow = sum(op.maps.apply(l, j, x[:, op.maps.cols[j]]) for j in op.maps.sources(l))
        out.append(op.scale * flow)
    return np.concatenate(out)


def apply_B_adjoint(op: StackedOperator, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float).ravel()
    if z.size != op.n_rows:
        raise CertificateError(f"vector length {z.size} does not match {op.n_rows} rows")
    out = np.zeros(op.shape)
    out[op.obs] = z[: op.n_observed]
    start = op.n_observed
    for l in op.areas:
        y = op.scale * z[start : start + op.maps.residual_dim(l)]
        for j in op.maps.sources(l):
            out[:, op.maps.cols[j]] += op.maps.apply_adjoint(l, j, y)
        start += y.size
    return out


def residual_matrix(op: StackedOperator, x: np.ndarray, mu: float) -> np.ndarray:
    """mu * B^*(B(X) - d), the matrix whose spectral norm Theorem-style
    optimality bounds by one."""
    return mu * apply_B_adjoint(op, apply_B(op, x) - op.d)


def spectral_norm(a: np.ndarray, tol: float = 1e-8, max_iters: int = 10000,
                  seed: int = 0) -> float:
    """Largest singular value by power iteration on a^T a with a seeded start."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for _ in range(max_iters):
        u = a @ v
        sigma = np.linalg.norm(u)
        if sigma == 0.0:
            return 0.0
        v = a.T @ (u / sigma)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        if abs(nv - sigma_prev) <= tol * max(nv, 1.0):
            return float(nv)
        sigma_prev = nv
    raise CertificateError("power iteration did not converge")


@dataclass
class CertificateReport:
    spectral_norm: float
    theorem1_pass: bool
    grad_u_norm: float | None = None
    grad_v_norm: float | None = None
    trace_residuals: tuple[float, float] | None = None
    comp_slack_residual: float | None = None
    dual_feasibility_min_eig: float | None = None
    mu: float | None = None

    def to_dict(self) -> dict:
        return {
            "spectral_norm": self.spectral_norm,
            "theorem1_pass": self.theorem1_pass,
            "grad_u_norm": self.grad_u_norm,
            "grad_v_norm": self.grad_v_norm,
            "trace_residuals": list(self.trace_residuals)
            if self.trace_residuals is not None else None,
            "comp_slack_residual": self.comp_slack_residual,
            "dual_feasibility_min_eig": self.dual_feasibility_min_eig,
            "mu": self.mu,
        }


def theorem1_check(r: np.ndarray, mu: float, seed: int = 0) -> CertificateReport:
    """Spectral-norm global-optimality test on the residual matrix
    r = `residual_matrix` of the assembled estimate."""
    norm = spectral_norm(r, seed=seed)
    return CertificateReport(
        spectral_norm=norm,
        theorem1_pass=norm <= 1.0 + 1e-9,
        mu=mu,
    )


def stationarity_and_traces(
    u: np.ndarray, v: np.ndarray, r: np.ndarray
) -> tuple[float, float, tuple[float, float]]:
    """First-order residual norms and the two trace-identity residuals, for
    the residual matrix r of X = UV."""
    x = u @ v
    grad_u = np.linalg.norm(r @ v.T + u)
    grad_v = np.linalg.norm(r.T @ u + v.T)
    cross = float(np.sum(r * x))
    traces = (cross + float(np.sum(v * v)), cross + float(np.sum(u * u)))
    return float(grad_u), float(grad_v), traces


def complementary_slackness(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> float:
    """|<W, M>| for the candidate primal block matrix (UU^T, UV; (UV)^T, V^TV)
    and the dual built from the residual matrix r of X = UV."""
    x = u @ v
    return float(abs(
        0.5 * np.sum(u * u) + 0.5 * np.sum(v * v) + np.sum(r * x)
    ))


def dual_feasibility_min_eig(r: np.ndarray) -> float:
    """Minimum eigenvalue of the Schur complement 0.5 I - 2 M2 M2^T with
    M2 = r / 2 = (mu/2) B^*(B(UV) - d); nonnegative iff the dual candidate
    is feasible."""
    m2 = 0.5 * r
    schur = 0.5 * np.eye(m2.shape[0]) - 2.0 * (m2 @ m2.T)
    return float(np.linalg.eigvalsh(schur)[0])


def full_report(
    u: np.ndarray, v: np.ndarray, op: StackedOperator, mu: float, seed: int = 0
) -> CertificateReport:
    """All checks at X = UV, from one residual matrix."""
    r = residual_matrix(op, u @ v, mu)
    report = theorem1_check(r, mu, seed=seed)
    gu, gv, traces = stationarity_and_traces(u, v, r)
    report.grad_u_norm = gu
    report.grad_v_norm = gv
    report.trace_residuals = traces
    report.comp_slack_residual = complementary_slackness(u, v, r)
    report.dual_feasibility_min_eig = dual_feasibility_min_eig(r)
    return report
