"""Reference computations that only the tests use, and the penalty weights
the unit tests are written against.

- `svt_oracle`/`svt_objective`: an independent singular-value-thresholding
  solver of the convex nuclear-norm problem, the certified reference for the
  nu = 0 case.
- `predict`/`h_from_loads`: the centralized evaluation of a linear flow
  model, the dense reference for the per-area maps and `decentralized_flow`.
- `update_q_per_edge`: the q step and flow dual ascent with one q_lj and one
  dual Lambda_lj per neighbor, the reference for `completion.update_q`.
"""

from __future__ import annotations

import functools

import numpy as np

from gridmc import completion as cp
from gridmc.linflow import LinearFlowModel

# Penalty weights of the unit and acceptance tests.  They are smaller than
# the paper's weights (the `AdmmConfig` defaults), which the tests that run
# the paper's configuration pass explicitly.
TEST_WEIGHTS = dict(mu=10.0, nu=1.0, gamma=1.0, lam=1.0)


def admm_config(**overrides) -> cp.AdmmConfig:
    """An `AdmmConfig` at `TEST_WEIGHTS`, with the given fields replaced."""
    return cp.AdmmConfig(**{**TEST_WEIGHTS, **overrides})


def svt_objective(x: np.ndarray, m_data: np.ndarray, mb: np.ndarray,
                  mu: float) -> float:
    sv = np.linalg.svd(x, compute_uv=False)
    diff = np.where(mb, x - m_data, 0.0)
    return float(np.sum(sv) + 0.5 * mu * np.sum(diff * diff))


def svt_oracle(
    m_data: np.ndarray,
    mask: np.ndarray,
    mu: float,
    max_iters: int = 20000,
) -> np.ndarray:
    """Proximal gradient with singular-value soft-thresholding for the convex
    nuclear-norm problem; certified reference for the nu = 0 case."""
    if mu <= 0:
        raise cp.CompletionError("mu must be positive")
    m_data = np.asarray(m_data, dtype=float)
    x = np.zeros_like(m_data)
    prev_obj = svt_objective(x, m_data, mask, mu)
    for _ in range(max_iters):
        grad_step = x - np.where(mask, x - m_data, 0.0)
        uu, sv, vt = np.linalg.svd(grad_step, full_matrices=False)
        sv = np.maximum(sv - 1.0 / mu, 0.0)
        x = (uu * sv[None, :]) @ vt
        obj = svt_objective(x, m_data, mask, mu)
        if prev_obj - obj < 1e-10:
            break
        prev_obj = obj
    return x


def h_from_loads(s: np.ndarray) -> np.ndarray:
    """Stack [Re s, Im s] per time step into a (T, 2|P|) real array."""
    s = np.atleast_2d(np.asarray(s, dtype=complex))
    return np.hstack([s.real, s.imag])


def predict(model: LinearFlowModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centralized evaluation: returns (v, |v|) of shape (T, |P|)."""
    h = np.atleast_2d(h)
    v = model.w[None, :] + h @ model.n_mat.T
    vmag = np.abs(model.w)[None, :] + h @ model.k_mat.T
    return v, vmag


def update_q_per_edge(
    prob: cp.AreaProblem,
    e_ll_val: np.ndarray,
    e_in: dict[int, np.ndarray],
    lam_duals: dict[int, np.ndarray],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Simultaneous closed-form solve of the coupled q system at one area,
    lam q_lj + nu sum_i q_li = lam (e_lj - Lambda_lj) + nu (f_l - E_ll X_l),
    then the dual steps Lambda_lj' = Lambda_lj + q_lj - e_lj.  Returns
    (j -> q_lj, j -> Lambda_lj')."""
    lam, nu = prob.config.lam, prob.config.nu
    own = nu * (prob.f_l - e_ll_val)
    rhs = {j: lam * (e_in[j] - lam_duals[j]) + own for j in prob.neighbors}
    total = functools.reduce(np.add, rhs.values())  # summed in neighbor order
    shift = (nu / (lam + nu * prob.deg)) * total
    q = {j: (rhs[j] - shift) / lam for j in prob.neighbors}
    return q, {j: lam_duals[j] + (q[j] - e_in[j]) for j in prob.neighbors}
