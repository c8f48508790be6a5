"""Global-optimality certificate for the factored completion problem.

Stacks the observed-entry samplers and the scaled flow-consistency rows into
one linear operator so the data and flow penalties collapse into a single
least-squares term, then evaluates, in one pass over one residual matrix, the
spectral-norm optimality condition, the first-order stationarity residuals,
the trace identities, complementary slackness, and the Schur-complement
dual-feasibility check.
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


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value: power iteration on a^T a from seed 0 to 1e-8."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for _ in range(10000):
        u = a @ v
        sigma = np.linalg.norm(u)
        if sigma == 0.0:
            return 0.0
        v = a.T @ (u / sigma)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        if abs(nv - sigma_prev) <= 1e-8 * max(nv, 1.0):
            return float(nv)
        sigma_prev = nv
    raise CertificateError("power iteration did not converge")


@dataclass(frozen=True)
class CertificateReport:
    spectral_norm: float
    theorem1_pass: bool
    grad_u_norm: float
    grad_v_norm: float
    stationarity_u: float
    stationarity_v: float
    trace_residuals: tuple[float, float]
    comp_slack_residual: float
    dual_feasibility_min_eig: float
    mu: float

    def to_dict(self) -> dict:
        return {**vars(self), "trace_residuals": list(self.trace_residuals)}


def full_report(u: np.ndarray, v: np.ndarray, op: StackedOperator,
                mu: float) -> CertificateReport:
    """Every check at X = UV, from R = mu B^*(B(X) - d) formed once.

    sigma_1(R) <= 1 (with 1e-9 slack) certifies X as a global optimum of the
    convex problem (`theorem1_pass`).  ||R V^T + U|| and ||R^T U + V^T|| are
    the first-order residuals of 1/2 (||U||^2 + ||V||^2) + mu/2 ||B(UV) - d||^2;
    the stationarity fields divide each by the size of its two terms,
    ||R V^T|| + ||U|| and ||R^T U|| + ||V||.
    At a stationary point the trace identities <R, X> + ||V||^2 = 0 and
    <R, X> + ||U||^2 = 0 hold, and so does complementary slackness:
    |<W, M>| = |1/2 ||U||^2 + 1/2 ||V||^2 + <R, X>| vanishes for the primal
    M = (UU^T, UV; (UV)^T, V^T V) and the dual W built from R.  That dual is
    feasible iff the Schur complement 1/2 I - 2 M2 M2^T with M2 = R / 2 is
    positive semidefinite; its least eigenvalue is reported."""
    x = u @ v
    r = residual_matrix(op, x, mu)
    norm = spectral_norm(r)
    cross = float(np.sum(r * x))
    uu, vv = float(np.sum(u * u)), float(np.sum(v * v))
    rv, ru = r @ v.T, r.T @ u
    grad_u, grad_v = float(np.linalg.norm(rv + u)), float(np.linalg.norm(ru + v.T))

    def relative(grad, a, b):  # grad <= |a| + |b|, so 0 where both are 0
        size = float(np.linalg.norm(a) + np.linalg.norm(b))
        return grad / size if size else 0.0

    m2 = 0.5 * r
    schur = 0.5 * np.eye(m2.shape[0]) - 2.0 * (m2 @ m2.T)
    return CertificateReport(
        spectral_norm=norm,
        theorem1_pass=norm <= 1.0 + 1e-9,
        grad_u_norm=grad_u,
        grad_v_norm=grad_v,
        stationarity_u=relative(grad_u, rv, u),
        stationarity_v=relative(grad_v, ru, v),
        trace_residuals=(cross + vv, cross + uu),
        comp_slack_residual=abs(0.5 * uu + 0.5 * vv + cross),
        dual_feasibility_min_eig=float(np.linalg.eigvalsh(schur)[0]),
        mu=mu,
    )
