"""Reference computations that only the tests use, and the penalty weights
the unit tests are written against.

- `svt_oracle`/`svt_objective`: an independent singular-value-thresholding
  solver of the convex nuclear-norm problem, the certified reference for the
  nu = 0 case.
- `predict`/`h_from_loads`: the centralized evaluation of a linear flow
  model, the dense reference for the per-area maps and `decentralized_flow`.
"""

from __future__ import annotations

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
