"""Global-optimality certificate for the factored completion problem.

Stacks the observed-entry samplers and the scaled flow-consistency rows into
one linear operator so the data and flow penalties collapse into a single
least-squares term, then evaluates the spectral-norm optimality condition,
the first-order stationarity residuals, the trace identities, complementary
slackness, and the Schur-complement dual-feasibility check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linflow import AreaMaps


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class StackedOperator:
    """Linear map B: R^{m x n} -> R^L stored as a dense L x (m n) matrix
    acting on column-major flattenings, with offset d.

    The first rows are single-entry indicators for the observed cells; the
    remaining rows are the per-area flow residual maps scaled by
    sqrt(nu/mu)."""

    b_mat: np.ndarray
    d: np.ndarray
    shape: tuple[int, int]
    n_observed: int

    def __post_init__(self):
        if self.b_mat.shape != (self.d.size, self.shape[0] * self.shape[1]):
            raise CertificateError("operator rows do not match offset length")

    @property
    def n_rows(self) -> int:
        return self.d.size


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
    m, n = m_data.shape
    obs_i, obs_j = np.nonzero(observed)
    areas = area_maps.partition.areas if area_maps is not None and nu != 0.0 else []
    scale = np.sqrt(nu / mu)
    n_flow = sum(area_maps.residual_dim(l) for l in areas)
    b_mat = np.zeros((obs_i.size + n_flow, m * n))
    b_mat[np.arange(obs_i.size), obs_j * m + obs_i] = 1.0
    d = [m_data[obs_i, obs_j]]

    # area l's rows: E_lj scattered from area j's columns into those of X
    start = obs_i.size
    for l in areas:
        band = b_mat[start : start + area_maps.residual_dim(l)]
        for j in area_maps.sources(l):
            cols = (area_maps.cols[j][:, None] * m + np.arange(m)).ravel()
            band[:, cols] = scale * area_maps.e_mats[(l, j)]
        d.append(scale * area_maps.f[l])
        start += band.shape[0]

    return StackedOperator(
        b_mat=b_mat,
        d=np.concatenate(d),
        shape=(m, n),
        n_observed=obs_i.size,
    )


def apply_B(op: StackedOperator, x: np.ndarray) -> np.ndarray:
    if x.shape != op.shape:
        raise CertificateError(f"matrix {x.shape} does not match operator {op.shape}")
    return op.b_mat @ x.ravel(order="F")


def apply_B_adjoint(op: StackedOperator, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float).ravel()
    if z.size != op.n_rows:
        raise CertificateError(f"vector length {z.size} does not match {op.n_rows} rows")
    return (op.b_mat.T @ z).reshape(op.shape, order="F")


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


def theorem1_check(x_bar: np.ndarray, op: StackedOperator, mu: float,
                   seed: int = 0) -> CertificateReport:
    """Spectral-norm global-optimality test on the assembled estimate."""
    norm = spectral_norm(residual_matrix(op, x_bar, mu), seed=seed)
    return CertificateReport(
        spectral_norm=norm,
        theorem1_pass=norm <= 1.0 + 1e-9,
        mu=mu,
    )


def stationarity_and_traces(
    u: np.ndarray, v: np.ndarray, op: StackedOperator, mu: float
) -> tuple[float, float, tuple[float, float]]:
    """First-order residual norms and the two trace-identity residuals."""
    x = u @ v
    r = residual_matrix(op, x, mu)
    grad_u = np.linalg.norm(r @ v.T + u)
    grad_v = np.linalg.norm(r.T @ u + v.T)
    cross = float(np.sum(r * x))
    traces = (cross + float(np.sum(v * v)), cross + float(np.sum(u * u)))
    return float(grad_u), float(grad_v), traces


def complementary_slackness(
    u: np.ndarray, v: np.ndarray, op: StackedOperator, mu: float
) -> float:
    """|<W, M>| for the candidate primal block matrix (UU^T, UV; (UV)^T, V^TV)
    and the dual built from the scaled residual matrix."""
    x = u @ v
    r = residual_matrix(op, x, mu)
    return float(abs(
        0.5 * np.sum(u * u) + 0.5 * np.sum(v * v) + np.sum(r * x)
    ))


def dual_feasibility_min_eig(
    u: np.ndarray, v: np.ndarray, op: StackedOperator, mu: float
) -> float:
    """Minimum eigenvalue of the Schur complement 0.5 I - 2 M2 M2^T with
    M2 = (mu/2) B^*(B(UV) - d); nonnegative iff the dual candidate is
    feasible."""
    m2 = 0.5 * residual_matrix(op, u @ v, mu)
    schur = 0.5 * np.eye(m2.shape[0]) - 2.0 * (m2 @ m2.T)
    return float(np.linalg.eigvalsh(schur)[0])


def full_report(
    u: np.ndarray, v: np.ndarray, op: StackedOperator, mu: float, seed: int = 0
) -> CertificateReport:
    report = theorem1_check(u @ v, op, mu, seed=seed)
    gu, gv, traces = stationarity_and_traces(u, v, op, mu)
    report.grad_u_norm = gu
    report.grad_v_norm = gv
    report.trace_residuals = traces
    report.comp_slack_residual = complementary_slackness(u, v, op, mu)
    report.dual_feasibility_min_eig = dual_feasibility_min_eig(u, v, op, mu)
    return report
