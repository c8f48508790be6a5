"""Global-optimality certificate for the factored completion problem.

Stacks the observed-entry samplers and the scaled flow-consistency rows into
one linear operator so the data and flow penalties collapse into a single
least-squares term, then evaluates, in one pass over one residual matrix R,
the spectral-norm optimality condition and dual feasibility from one SVD of
R, the first-order stationarity residuals, the trace identities and
complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linflow import AreaFlow, AreaMaps


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class StackedOperator:
    """Linear map B: R^{m x n} -> R^L with offset d, applied without forming
    B as a matrix.

    The first rows read the observed cells `obs` (`np.nonzero` of the mask,
    row-major order); the remaining rows are, area by area, the flow maps
    E_ll(X_l) + sum_j E_lj(X_j) of `maps` scaled by `scale` = sqrt(nu/mu),
    applied through the products of each area's `AreaFlow`: the operator
    the solver minimizes, at the one data weight `mu` the residual matrix
    uses.  `maps` is None when there are no flow rows."""

    obs: tuple[np.ndarray, np.ndarray]
    maps: AreaMaps | None
    mu: float
    scale: float
    d: np.ndarray
    shape: tuple[int, int]

    @property
    def n_observed(self) -> int:
        return self.obs[0].size

    @property
    def n_rows(self) -> int:
        return self.d.size

    @property
    def areas(self) -> dict[int, AreaFlow]:
        return self.maps.areas if self.maps is not None else {}

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
        for l, flow in self.areas.items():
            band = b_mat[start : start + flow.f.size]
            for j in [l] + flow.neighbors:
                cols = (self.areas[j].cols[:, None] * m + np.arange(m)).ravel()
                band[:, cols] = self.scale * self.maps.e_mats[(l, j)]
            start += band.shape[0]
        return b_mat


def build_B_d(
    observed: np.ndarray,
    m_data: np.ndarray,
    maps: AreaMaps | None,
    mu: float,
    nu: float,
) -> StackedOperator:
    """Stacked operator for the boolean observation array `observed`, of the
    data's shape; its entry rows follow the observed cells in row-major
    order.  `maps` is None when there are no flow rows."""
    if mu <= 0:
        raise CertificateError("mu must be positive")
    if maps is not None and np.shape(m_data) != (maps.m, maps.partition.assignment.size):
        raise CertificateError(f"maps were built for {maps.m} rows (T = {maps.n_steps}) and "
                               f"{maps.partition.assignment.size} phases, the data has "
                               f"{len(m_data)} rows, shape {np.shape(m_data)}")
    if np.shape(observed) != np.shape(m_data):
        raise CertificateError(f"observed cells of shape {np.shape(observed)} "
                               f"for data of shape {np.shape(m_data)}")
    obs = np.nonzero(observed)
    scale = np.sqrt(nu / mu)
    flow = [scale * a.f.ravel() for a in maps.areas.values()] if maps is not None else []
    return StackedOperator(obs=obs, maps=maps, mu=mu, scale=scale,
                           d=np.concatenate([m_data[obs], *flow]), shape=m_data.shape)


def apply_B(op: StackedOperator, x: np.ndarray) -> np.ndarray:
    """B(X), from the solver's own products: `AreaFlow.terms` of each X_l
    gives E_ll(X_l) and the coordinates B_jl x_t it sends each neighbor j;
    area l's flow rows are E_ll(X_l) plus what it receives, laid out by
    `AreaFlow.gather`, times A_l^T."""
    if x.shape != op.shape:
        raise CertificateError(f"matrix {x.shape} does not match operator {op.shape}")
    out = [x[op.obs]]
    terms = {l: flow.terms(x[:, flow.cols]) for l, flow in op.areas.items()}
    for l, flow in op.areas.items():
        coords = flow.gather({j: terms[j][1][l] for j in flow.neighbors})
        out.append(op.scale * (terms[l][0] + coords @ flow.basis.T).ravel())
    return np.concatenate(out)


def apply_B_adjoint(op: StackedOperator, z: np.ndarray) -> np.ndarray:
    """B^*(z).  Area j's columns are [y_j, y_l A_lj ...] S_j per step, one
    product over its own flow rows y_j and the projections y_l A_lj of its
    neighbors' rows, in the order of S_j."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != op.n_rows:
        raise CertificateError(f"vector length {z.size} does not match {op.n_rows} rows")
    out = np.zeros(op.shape)
    out[op.obs] = z[: op.n_observed]
    areas, y = op.areas, {}
    start = op.n_observed
    for l, flow in areas.items():
        y[l] = op.scale * z[start : start + flow.f.size].reshape(flow.f.shape)
        start += y[l].size
    projected = {l: y[l] @ flow.basis for l, flow in areas.items()}
    for j, flow in areas.items():
        coords = [y[j]] + [projected[l][:, areas[l].basis_cols[j]] for l in flow.neighbors]
        out[:, flow.cols] += (np.concatenate(coords, axis=1) @ flow.stack).reshape(
            len(out), -1)
    return out


def residual_matrix(op: StackedOperator, x: np.ndarray) -> np.ndarray:
    """mu B^*(B(X) - d) at the operator's own `mu`, the matrix whose spectral
    norm Theorem-style optimality bounds by one."""
    return op.mu * apply_B_adjoint(op, apply_B(op, x) - op.d)


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


def full_report(u: np.ndarray, v: np.ndarray, op: StackedOperator) -> CertificateReport:
    """Every check at X = UV, from R = mu B^*(B(X) - d) formed once at the
    operator's own mu, which the report repeats as `mu`.

    sigma_1(R), the exact largest singular value from one SVD of R, is
    `spectral_norm`; sigma_1 <= 1 (with 1e-9 slack) certifies X as a global
    optimum of the convex problem (`theorem1_pass`).  The dual W built from
    R is feasible iff I/2 - R R^T / 2 is positive semidefinite, and the least
    eigenvalue of that matrix is 1/2 (1 - sigma_1^2), reported as
    `dual_feasibility_min_eig`.
    grad_U = R V^T + U and grad_V = R^T U + V^T are the first-order residuals
    of 1/2 (||U||^2 + ||V||^2) + mu/2 ||B(UV) - d||^2; `grad_u_norm` and
    `grad_v_norm` are their norms, and the stationarity fields divide each by
    the size of its two terms, ||R V^T|| + ||U|| and ||R^T U|| + ||V||.
    The trace residuals are the gradients' inner products with the factors,
    <grad_V, V^T> = <R, X> + ||V||^2 and <grad_U, U> = <R, X> + ||U||^2, so
    both vanish at a stationary point.  `comp_slack_residual` is half the
    absolute value of their sum, |<W, M>| = |1/2 ||U||^2 + 1/2 ||V||^2 +
    <R, X>| for the primal M = (UU^T, UV; (UV)^T, V^T V)."""
    x = u @ v
    r = residual_matrix(op, x)
    sigma1 = float(np.linalg.svd(r, compute_uv=False)[0])
    cross = float(np.sum(r * x))
    uu, vv = float(np.sum(u * u)), float(np.sum(v * v))
    rv, ru = r @ v.T, r.T @ u
    grad_u, grad_v = float(np.linalg.norm(rv + u)), float(np.linalg.norm(ru + v.T))

    def relative(grad, a, b):  # grad <= |a| + |b|, so 0 where both are 0
        size = float(np.linalg.norm(a) + np.linalg.norm(b))
        return grad / size if size else 0.0

    return CertificateReport(
        spectral_norm=sigma1,
        theorem1_pass=sigma1 <= 1.0 + 1e-9,
        grad_u_norm=grad_u,
        grad_v_norm=grad_v,
        stationarity_u=relative(grad_u, rv, u),
        stationarity_v=relative(grad_v, ru, v),
        trace_residuals=(cross + vv, cross + uu),
        comp_slack_residual=abs(0.5 * uu + 0.5 * vv + cross),
        dual_feasibility_min_eig=0.5 * (1.0 - sigma1 ** 2),
        mu=op.mu,
    )
