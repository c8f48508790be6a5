"""Reference computations that only the tests use, and the penalty weights
the unit tests are written against.

- `admittance`/`_radial_admittance`: the bus admittance blocks y_ll and
  y_l0 of a radial `NetworkModel`, rebuilt from its tree and line
  impedances, the reference its path-sum Z-bus and no-load voltage are
  checked against.
- `svt_oracle`/`svt_objective`: an independent singular-value-thresholding
  solver of the convex nuclear-norm problem, the certified reference for the
  nu = 0 case.
- `real_maps`: the real expansion (N, K) of a linear flow model, v ~ w + N h
  and |v| ~ |w| + K h with h = [Re s; Im s], as whole |P| x 2|P| matrices.
- `predict`/`h_from_loads`: the centralized evaluation of a linear flow
  model through `real_maps`, the dense reference for the per-area maps and
  `decentralized_flow`.
- `truncate_model`: the dense model truncated to an area partition's
  couplings (G masked), which `predict` evaluates and
  `linflow.truncation_error` is measured against.
- `sources`/`step_block`/`apply`/`apply_adjoint`: the per-step block G_lj
  of E_lj, built from the linear model alone, not from the coupling
  factors, and E_lj and its adjoint applied through it: the dense per-pair
  reference for the stacked S_l and A_l of `AreaMaps`.
- `step_block_loop`: G_lj entry by entry from the N and K of `real_maps`,
  the reference for `linflow._step_block` itself, which forms only the
  entries of N and K a block reads.
- `factor_step_block`: the exact rank factorization of an off-diagonal
  step block by the SVD of its real injection columns, the reference for
  `linflow._coupling_factors`, which factors the complex block of G.
- `factors`/`expand`/`project`/`coordinates`: one coupling block of
  `AreaMaps` at a time, read out of the stacks, the per-neighbor reference
  for the solver's products with the whole S_l and A_l.
- `decentralized_flow`: the same evaluation, area by area, by the solver's
  exchange protocol over the message bus (Algorithm-2 style).
- `update_q_per_edge`: the q step and flow dual ascent with one q_lj and one
  dual Lambda_lj per neighbor, the reference for `completion.update_q`.
- `update_duals_per_edge`: the basis dual ascent through the consensus point
  S_lj of each edge, the reference for `completion.update_duals`.
"""

from __future__ import annotations

import functools

import numpy as np

from gridmc import completion as cp
from gridmc import linflow as lf
from gridmc.datamatrix import ROWS_PER_STEP, VOLTAGE_ROWS
from gridmc.gridmodel import AreaPartition, NetworkModel
from gridmc.linflow import AreaMaps, LinearFlowModel, LinFlowError
from gridmc.simnet import MessageBus

# Penalty weights of the unit and acceptance tests.  They are smaller than
# the paper's weights (the `AdmmConfig` defaults), which the tests that run
# the paper's configuration pass explicitly.
TEST_WEIGHTS = dict(mu=10.0, nu=1.0, gamma=1.0, lam=1.0)


def admm_config(**overrides) -> cp.AdmmConfig:
    """An `AdmmConfig` at `TEST_WEIGHTS`, with the given fields replaced."""
    return cp.AdmmConfig(**{**TEST_WEIGHTS, **overrides})


def _radial_admittance(parents: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Bus admittance matrix of a radial network, slack bus 0 first: bus
    b >= 1 hangs off bus ``parents[b - 1]`` through a line whose
    n_ph x n_ph admittance block is ``blocks[b - 1]``.  One unbuffered
    ``np.add.at`` adds the lines in bus order, so every entry sums its terms
    in the order of a loop over the lines."""
    n_lines, n_ph, _ = blocks.shape
    child = np.arange(1, n_lines + 1)
    # per line: +y at (b, b) and (p, p), -y at (b, p) and (p, b)
    rows = np.stack([child, parents, child, parents], axis=1)
    cols = np.stack([child, parents, parents, child], axis=1)
    vals = np.stack([blocks, blocks, -blocks, -blocks], axis=1)
    ph = np.arange(n_ph)
    y_full = np.zeros(((n_lines + 1) * n_ph,) * 2, dtype=complex)
    np.add.at(y_full, (rows[:, :, None, None] * n_ph + ph[:, None],
                       cols[:, :, None, None] * n_ph + ph), vals)
    return y_full


def admittance(net: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """(y_ll, y_l0) of `net`: its bus admittance matrix with the slack
    bus's phases split off as y_l0.  Each line's admittance block is
    ``1 / z`` on a single-phase network and ``inv(z)`` of its 3 x 3
    impedance block on a three-phase one."""
    if net.v0.size == 1:
        blocks = 1.0 / net.z_line
    else:
        blocks = np.linalg.inv(net.z_line)
    y_full, k = _radial_admittance(net.parents, blocks), net.v0.size
    return y_full[k:, k:], y_full[k:, :k]


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


def real_maps(model: LinearFlowModel) -> tuple[np.ndarray, np.ndarray]:
    """(N, K) of v ~ w + N h, |v| ~ |w| + K h with h = [Re s; Im s]:
    N = [G, -iG] (complex, |P| x 2|P|) and K = Re(diag(conj w / |w|) N), the
    first-order expansion of |w + delta| around w."""
    n_mat = np.hstack([model.g, -1j * model.g])
    phase = (np.conj(model.w) / np.abs(model.w))[:, None]
    return n_mat, np.real(phase * n_mat)


def predict(model: LinearFlowModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centralized evaluation: returns (v, |v|) of shape (T, |P|)."""
    h = np.atleast_2d(h)
    n_mat, k_mat = real_maps(model)
    v = model.w[None, :] + h @ n_mat.T
    vmag = np.abs(model.w)[None, :] + h @ k_mat.T
    return v, vmag


def truncate_model(model: LinearFlowModel, part: AreaPartition) -> LinearFlowModel:
    """Zero all couplings of G outside same-area/neighbor-area blocks (so
    also those of N and K): the dense model the area maps evaluate."""
    a = part.assignment
    if a.shape[0] != model.n_phases:
        raise LinFlowError("partition does not cover the model's phases")
    coupled = {(x, x) for x in part.areas}
    coupled |= {(x, y) for pair in part.adjacency for x in pair for y in pair}
    keep = np.array([[(x, y) in coupled for y in a] for x in a])
    return LinearFlowModel(g=np.where(keep, model.g, 0.0), w=model.w,
                           n_steps=model.n_steps)


def sources(maps: AreaMaps, l: int) -> list[int]:
    """Area l and its neighbors: the areas whose columns E_l reads."""
    return [l] + maps.partition.neighbors(l)


def step_block(maps: AreaMaps, l: int, j: int) -> np.ndarray:
    """G_lj (3n_l x 5n_j), built from the model the maps hold."""
    return lf._step_block(maps.model, maps.cols[l], maps.cols[j], same_area=l == j)


def step_block_loop(model: LinearFlowModel, own: np.ndarray, src: np.ndarray,
                    same_area: bool) -> np.ndarray:
    """G_lj one entry at a time, by the layout `linflow._step_block`
    documents: row (target phase a, [Re v, Im v, |v|]), column (row k of
    one time step, source phase b).  The injection rows k = 3, 4 (Re s,
    Im s of phase b) hold 0.0 minus Re N, Im N and K of `real_maps` at the
    column of that injection; within one area the voltage row k of the same
    component holds 1.0 at a = b."""
    n = model.n_phases
    n_mat, k_mat = real_maps(model)
    g = np.zeros((3 * own.size, ROWS_PER_STEP * src.size))
    for a, p in enumerate(own):
        for b, q in enumerate(src):
            for k, col in ((3, q), (4, q + n)):
                entries = (n_mat[p, col].real, n_mat[p, col].imag, k_mat[p, col])
                for c, value in enumerate(entries):
                    g[3 * a + c, k * src.size + b] = 0.0 - value
            if same_area and a == b:
                for c in range(3):
                    g[3 * a + c, c * src.size + b] = 1.0
    return g


def factor_step_block(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact rank factorization g = A B with orthonormal A, at the default
    rank tolerance of np.linalg.matrix_rank, of an off-diagonal step block.
    Only its injection-row columns, the last 2 n_j, are nonzero, so the SVD
    is taken over those and B is zero on the others; the tolerance uses the
    full block's shape."""
    first = VOLTAGE_ROWS * (g.shape[1] // ROWS_PER_STEP)
    u, s, vt = np.linalg.svd(g[:, first:], full_matrices=False)
    tol = s[0] * max(g.shape) * np.finfo(g.dtype).eps if s.size else 0.0
    rho = int(np.sum(s > tol))
    b = np.zeros((rho, g.shape[1]))
    b[:, first:] = s[:rho, None] * vt[:rho]
    return u[:, :rho], b


def apply(maps: AreaMaps, l: int, j: int, x_j: np.ndarray) -> np.ndarray:
    """E_lj(X_j) for the m x n_j block x_j, a (T, 3n_l) residual block of l."""
    return x_j.reshape(maps.n_steps, -1) @ step_block(maps, l, j).T


def apply_adjoint(maps: AreaMaps, l: int, j: int, y: np.ndarray) -> np.ndarray:
    """E_lj^T y for a (T, 3n_l) residual block y of l, as an m x n_j block."""
    return (y @ step_block(maps, l, j)).reshape(maps.m, -1)


def factors(maps: AreaMaps, l: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_lj, B_lj) with G_lj = A_lj B_lj: A_lj from the basis of l, B_lj from
    the stack of j."""
    return maps.bases[l][:, maps.basis_cols[l][j]], maps.stacks[j][maps.stack_rows[j][l]]


def expand(maps: AreaMaps, l: int, j: int, coords: np.ndarray) -> np.ndarray:
    """The (T, 3n_l) residual block coords A_lj^T of area l, from the
    (T, rho_lj) coordinates coords."""
    return coords @ factors(maps, l, j)[0].T


def project(maps: AreaMaps, l: int, j: int, y: np.ndarray) -> np.ndarray:
    """The (T, rho_lj) coordinates y A_lj of a (T, 3n_l) residual block y of
    l; the adjoint of `expand`."""
    return y @ factors(maps, l, j)[0]


def coordinates(maps: AreaMaps, l: int, x_l: np.ndarray) -> dict[int, np.ndarray]:
    """j -> the (T, rho_jl) coordinates B_jl x_t of E_jl(X_l), x_t the
    row-major step blocks of X_l, for every neighbor j of l: what area l
    sends j."""
    x_steps = x_l.reshape(maps.n_steps, -1)
    return {j: x_steps @ factors(maps, j, l)[1].T for j in maps.partition.neighbors(l)}


def decentralized_flow(
    maps: AreaMaps, h: np.ndarray, bus: MessageBus | None = None
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Evaluate the truncated model v = w + N h, |v| = |w| + K h (`real_maps`)
    by the solver's exchange protocol.

    Area l holds X_l, whose voltage rows are zero and whose injection rows
    are its own columns of h, so its flow residual E(X) - f_l is -v.  In
    the first bus round it sends each neighbor j the coordinates of
    E_jl(X_l) (`coordinates`, a (T, rho_jl) block, tag "flow-term"); in the
    second it returns f_l - E_ll(X_l) - sum_j expand(l, j, received), E_ll
    from the first rows of its stack S_l.
    Returns per-area (v, |v|) arrays of shape (T, n_l)."""
    part = maps.partition
    n = part.assignment.size
    h = np.atleast_2d(h)
    if h.shape != (maps.n_steps, 2 * n):
        raise LinFlowError(f"injections of shape {h.shape} do not match maps "
                           f"of {maps.n_steps} steps and {n} phases")
    if bus is None:
        bus = MessageBus(part.adjacency)
    x = {}
    for l in part.areas:
        cols = maps.cols[l]
        x_l = np.zeros((maps.n_steps, ROWS_PER_STEP, cols.size))
        x_l[:, 3] = h[:, cols]
        x_l[:, 4] = h[:, cols + n]
        x[l] = x_l.reshape(maps.m, cols.size)

    def send_node(l: int):
        def fn(inbox):
            coords = coordinates(maps, l, x[l])
            return None, [(j, "flow-term", c) for j, c in coords.items()]

        return fn

    def recv_node(l: int):
        def fn(inbox):
            g_ll = maps.stacks[l][:3 * maps.cols[l].size]  # E_ll's rows of S_l
            v = maps.f[l] - x[l].reshape(maps.n_steps, -1) @ g_ll.T
            for j in part.neighbors(l):
                v -= expand(maps, l, j, inbox[(j, "flow-term")])
            v = v.reshape(maps.n_steps, -1, 3)  # (step, phase, [Re v, Im v, |v|])
            return (v[..., 0] + 1j * v[..., 1], v[..., 2]), []

        return fn

    bus.run_round({l: send_node(l) for l in part.areas})
    return bus.run_round({l: recv_node(l) for l in part.areas})


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


def update_duals_per_edge(
    gamma: dict[int, np.ndarray],
    u_l: np.ndarray,
    u_in: dict[int, np.ndarray],
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The basis consensus step of area l in its textbook form: the
    consensus point S_lj = (U_l + U_j) / 2 of each edge, the dual ascent
    Gamma_lj' = Gamma_lj + U_l - S_lj, and the point sum_j (S_lj - Gamma_lj')
    the next U update is pulled to.  Returns (j -> Gamma_lj', the pull)."""
    s = {j: 0.5 * (u_l + u_j) for j, u_j in u_in.items()}
    gamma_new = {j: gamma[j] + u_l - s[j] for j in s}
    return gamma_new, sum(s[j] - gamma_new[j] for j in s)
