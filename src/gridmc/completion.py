"""Factored matrix-completion objective and its solvers: the per-area
proximal ADMM updates, the driver that runs them over the message bus (a
single area is the same driver with no neighbors), and an independent
singular-value-thresholding oracle for the convex problem.

Every function here takes the observation mask as a boolean m x n array
(`ObservationMask.observed`)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datamatrix import ROWS_PER_STEP
from .gridmodel import AreaPartition
from .linflow import AreaMaps
from .simnet import Message, MessageBus


class CompletionError(Exception):
    pass


class DivergenceError(CompletionError):
    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at iteration {iteration}")


@dataclass(frozen=True)
class AdmmConfig:
    mu: float = 10.0
    nu: float = 1.0
    gamma: float = 1.0
    lam: float = 1.0
    prox_c: float = 0.1
    rank: int | None = None  # default min(10, m)
    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if min(self.mu, self.nu, self.gamma, self.lam) <= 0:
            raise CompletionError("penalty parameters must be positive")
        if self.prox_c < 0 or self.tol <= 0:
            raise CompletionError("prox_c must be >= 0 and tol > 0")

    def resolve_rank(self, m: int) -> int:
        return self.rank if self.rank is not None else min(10, m)


@dataclass
class FactorPair:
    u: np.ndarray  # m x r
    v: np.ndarray  # r x n

    def __post_init__(self):
        if self.u.shape[1] != self.v.shape[0]:
            raise CompletionError("factor inner dimensions disagree")
        if self.rank > min(self.u.shape[0], self.v.shape[1]):
            raise CompletionError("rank bound exceeds matrix dimensions")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.u @ self.v


@dataclass
class AreaState:
    """Per-area ADMM variables plus mirror copies of neighbor quantities."""

    u: np.ndarray
    v: np.ndarray
    x: np.ndarray  # X_l = U_l V_l, formed once per iteration
    e_ll: np.ndarray | None = None  # E_ll(X_l), set by each iteration with flow maps
    s: dict[int, np.ndarray] = field(default_factory=dict)  # S_lj
    q: dict[int, np.ndarray] = field(default_factory=dict)  # q_lj
    gamma: dict[int, np.ndarray] = field(default_factory=dict)  # dual for U_l = S_lj
    lam: dict[int, np.ndarray] = field(default_factory=dict)  # dual for E_lj = q_lj
    # mirrors of the neighbor-owned quantities this area's updates need, in
    # the coupling coordinates of AreaMaps (A_jl^T q_jl, B_jl X_l, ...)
    q_in: dict[int, np.ndarray] = field(default_factory=dict)  # q_jl
    lam_in: dict[int, np.ndarray] = field(default_factory=dict)  # Lambda_jl
    e_out: dict[int, np.ndarray] = field(default_factory=dict)  # E_jl(X_l), last sent
    e_in: dict[int, np.ndarray] = field(default_factory=dict)  # E_lj(X_j), last received
    u_in: dict[int, np.ndarray] = field(default_factory=dict)  # U_j, last received


@dataclass
class ConvergenceTrace:
    rmse: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    consensus: list[float] = field(default_factory=list)
    max_area_seconds: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective)


@dataclass
class SolveResult:
    x_blocks: dict[int, np.ndarray]
    states: dict[int, AreaState]
    trace: ConvergenceTrace
    partition: AreaPartition
    bus: MessageBus
    converged: bool  # stopped by the tolerance test, not the iteration cap
    u_history: list[dict[int, np.ndarray]] | None = None

    @property
    def x(self) -> np.ndarray:
        part = self.partition
        any_block = next(iter(self.x_blocks.values()))
        n = part.assignment.size
        out = np.empty((any_block.shape[0], n))
        for l, block in self.x_blocks.items():
            out[:, part.phases_in(l)] = block
        return out

    def factors(self) -> FactorPair:
        """Assembled (U, V): consensus average of the basis factors and the
        column-concatenated coefficients."""
        part = self.partition
        u = np.mean([self.states[l].u for l in part.areas], axis=0)
        r = u.shape[1]
        v = np.empty((r, part.assignment.size))
        for l in part.areas:
            v[:, part.phases_in(l)] = self.states[l].v
        return FactorPair(u=u, v=v)


# --- objective --------------------------------------------------------------

def objective_factored(
    u: np.ndarray,
    v: np.ndarray,
    m_data: np.ndarray,
    mask: np.ndarray,
    area_maps: AreaMaps | None,
    mu: float,
    nu: float,
) -> float:
    """Centralized factored objective: 0.5(|U|^2+|V|^2) + data + flow terms."""
    x = u @ v
    if x.shape != m_data.shape:
        raise CompletionError("factor product does not match data shape")
    val = 0.5 * (np.sum(u * u) + np.sum(v * v))
    diff = np.where(mask, x - m_data, 0.0)
    val += 0.5 * mu * np.sum(diff * diff)
    if area_maps is not None and nu != 0.0:
        for l in area_maps.partition.areas:
            res = area_maps.residual(l, x)
            val += 0.5 * nu * float(res @ res)
    return val


def _objective_decentralized(problems, states, config) -> float:
    """Area-wise objective with the communicated q terms in place of the
    neighbor flow contributions."""
    val = 0.0
    n_areas = len(problems)
    for l, prob in problems.items():
        st = states[l]
        val += 0.5 * (np.sum(st.u * st.u) / n_areas + np.sum(st.v * st.v))
        diff = np.where(prob.mask, st.x - prob.m_l, 0.0)
        val += 0.5 * config.mu * np.sum(diff * diff)
        if prob.maps is not None:
            res = st.e_ll - prob.f_l
            for j in prob.neighbors:
                res = res + st.q[j]
            val += 0.5 * config.nu * float(res @ res)
    return val


# --- initialization ---------------------------------------------------------

def init_factors(
    m_data: np.ndarray, mask: np.ndarray, r: int, seed: int = 0
) -> FactorPair:
    """Balanced factors from the rank-r SVD of P_Omega(M); seeded Gaussian
    fallback when the observed matrix has lower rank."""
    if r < 1:
        raise CompletionError("rank must be >= 1")
    observed = np.where(mask, m_data, 0.0)
    uu, sv, vt = np.linalg.svd(observed, full_matrices=False)
    if np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 0.0)) < r:
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(r)
        return FactorPair(
            u=scale * rng.standard_normal((m_data.shape[0], r)),
            v=scale * rng.standard_normal((r, m_data.shape[1])),
        )
    uu, sv, vt = uu[:, :r], sv[:r], vt[:r]
    # sign convention: largest-magnitude entry of each left vector positive
    for k in range(r):
        idx = np.argmax(np.abs(uu[:, k]))
        if uu[idx, k] < 0:
            uu[:, k] = -uu[:, k]
            vt[k] = -vt[k]
    root = np.sqrt(sv)
    return FactorPair(u=uu * root[None, :], v=root[:, None] * vt)


# --- per-area subproblem machinery ------------------------------------------

@dataclass
class AreaProblem:
    """Constant data for one area's subproblems.

    The flow terms act on each time step's 5 x n_l row block X_t of X_l
    through vec_F(X_t): the own-area block G_ll and the coupling factor B_jl
    of each neighbor (see `AreaMaps`).  The flow Hessian of one step,
    H = nu G_ll^T G_ll + lam sum_j B_jl^T B_jl, is weighted once per run and
    stored in the two layouts the U and V contractions consume."""

    area: int
    cols: np.ndarray
    m_l: np.ndarray  # m x n_l data block
    mask: np.ndarray  # boolean m x n_l
    m_obs: np.ndarray  # m_l with unobserved entries set to 0
    neighbors: list[int]
    n_areas: int
    maps: AreaMaps | None
    f_l: np.ndarray | None
    g_ll: np.ndarray | None  # G_ll, 3n_l x 5n_l
    b_from: dict[int, np.ndarray]  # j -> B_jl, rho_jl x 5n_l
    h_u: np.ndarray | None  # H as (col, (row, row', col')): n_l x 25 n_l
    h_v: np.ndarray | None  # H as ((col, col'), (row, row')): n_l^2 x 25

    @property
    def m(self) -> int:
        return self.m_l.shape[0]

    @property
    def n_l(self) -> int:
        return self.m_l.shape[1]

    @property
    def deg(self) -> int:
        return len(self.neighbors)


def _build_problems(
    m_data: np.ndarray,
    mask: np.ndarray,
    area_maps: AreaMaps | None,
    part: AreaPartition,
    config: AdmmConfig,
) -> dict[int, AreaProblem]:
    problems = {}
    for l in part.areas:
        cols = part.phases_in(l)
        neighbors = part.neighbors(l)
        n_l = cols.size
        g_ll = h_u = h_v = None
        b_from = {}
        if area_maps is not None:
            g_ll = area_maps.step_blocks[(l, l)]
            b_from = {j: area_maps.coupling[(j, l)][1] for j in neighbors}
            gram_own = g_ll.T @ g_ll
            gram_nb = sum((b.T @ b for b in b_from.values()), np.zeros_like(gram_own))
            h = config.nu * gram_own + config.lam * gram_nb
            h = h.reshape(n_l, ROWS_PER_STEP, n_l, ROWS_PER_STEP)  # (c, k, c', k')
            h_u = h.transpose(0, 1, 3, 2).reshape(n_l, -1)
            h_v = h.transpose(0, 2, 1, 3).reshape(n_l * n_l, -1)
        problems[l] = AreaProblem(
            area=l,
            cols=cols,
            m_l=m_data[:, cols],
            mask=mask[:, cols],
            m_obs=np.where(mask[:, cols], m_data[:, cols], 0.0),
            neighbors=neighbors,
            n_areas=part.n_areas,
            maps=area_maps,
            f_l=area_maps.f[l] if area_maps is not None else None,
            g_ll=g_ll,
            b_from=b_from,
            h_u=h_u,
            h_v=h_v,
        )
    return problems


def _steps(x: np.ndarray, t_steps: int) -> np.ndarray:
    """(T, 5n) rows vec_F(X_t) of the 5 x n row blocks of an m x n matrix."""
    n = x.shape[1]
    return x.reshape(t_steps, ROWS_PER_STEP, n).transpose(0, 2, 1).reshape(t_steps, -1)


def _own_flow(prob: AreaProblem, x_l: np.ndarray) -> np.ndarray:
    """E_ll(X_l), in the residual order of `AreaMaps`."""
    return prob.maps.from_steps(_steps(x_l, prob.maps.n_steps) @ prob.g_ll.T)


def _flow_coords(prob: AreaProblem, x_l: np.ndarray) -> dict[int, np.ndarray]:
    """j -> coordinates B_jl vec_F(X_t) of E_jl(X_l), step major."""
    x_steps = _steps(x_l, prob.maps.n_steps)
    return {j: (x_steps @ b.T).ravel() for j, b in prob.b_from.items()}


def _flow_target(prob: AreaProblem, st: AreaState, config: AdmmConfig) -> np.ndarray:
    """Z (m x n_l): the flow terms are sum_t 0.5 vec(X_t)^T H vec(X_t) - <Z, X_l>
    plus a constant, so Z V^T and U^T Z enter the right-hand sides."""
    t_steps = prob.maps.n_steps
    target = prob.f_l.copy()
    for j in prob.neighbors:
        target -= st.q[j]
    z = config.nu * (prob.maps.to_steps(target) @ prob.g_ll)
    for j, b in prob.b_from.items():
        coords = (st.q_in[j] + st.lam_in[j]).reshape(t_steps, b.shape[0])
        z += config.lam * (coords @ b)
    z = z.reshape(t_steps, prob.n_l, ROWS_PER_STEP).transpose(0, 2, 1)
    return z.reshape(prob.m, prob.n_l)  # undoes _steps


def _outer_rows(a: np.ndarray) -> np.ndarray:
    """Row i of the result is the flattened outer product a_i a_i^T."""
    return (a[:, :, None] * a[:, None, :]).reshape(a.shape[0], -1)


def _solve_quadratic(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve h x = rhs, or a stack of such systems (h: (..., n, n), rhs: (..., n))."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # cannot occur for prox_c>0 or gamma>0
        raise CompletionError(f"singular normal matrix in block update: {exc}")


def _solve_checked(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations and verify the gradient vanishes at the
    solution, over the whole stack of systems."""
    sol = _solve_quadratic(h, rhs)
    grad = (h @ sol[..., None])[..., 0] - rhs
    scale = np.linalg.norm(h) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    if not np.linalg.norm(grad) <= 1e-9 * (1.0 + scale):
        raise CompletionError("block update does not solve its normal equations")
    return sol


def _block_diag(blocks: np.ndarray, base: float) -> np.ndarray:
    """(n_sys, k, r, r) -> (n_sys, k, r, k, r): each system's k blocks on its
    block diagonal, plus base on its main diagonal."""
    n_sys, k, r, _ = blocks.shape
    out = np.zeros((n_sys, k, r, k, r))
    diag = np.arange(k)
    out[:, diag, :, diag, :] = blocks.transpose(1, 0, 2, 3)
    out.reshape(n_sys, -1)[:, :: k * r + 1] += base
    return out


def update_u(prob: AreaProblem, st: AreaState, config: AdmmConfig,
             z: np.ndarray | None) -> np.ndarray:
    """Exact minimizer of the Lagrangian restricted to U_l plus the proximal
    term, given the flow target z = `_flow_target` (None without flow maps).
    Rows of U couple only through the flow terms, which act within one time
    step, so the normal equations split into T systems of size 5r (m systems
    of size r without flow maps) on the row-major blocks U_t."""
    m, r = st.u.shape
    v = st.v
    base = 1.0 / prob.n_areas + config.prox_c + config.gamma * prob.deg
    rhs = config.prox_c * st.u + config.mu * (prob.m_obs @ v.T)
    for j in prob.neighbors:
        rhs += config.gamma * (st.s[j] - st.gamma[j])
    # data Gram of row i: mu sum over observed columns c of v_c v_c^T
    data = config.mu * (prob.mask @ _outer_rows(v.T))
    rows = ROWS_PER_STEP if prob.maps is not None else 1
    h = _block_diag(data.reshape(m // rows, rows, r, r), base)
    if prob.maps is not None:
        rhs += z @ v.T
        # (V^T kron I_5)^T H (V^T kron I_5), the same for every step
        flow = ((v @ prob.h_u).reshape(-1, prob.n_l) @ v.T).reshape(r, rows, rows, r)
        h += flow.transpose(1, 0, 2, 3)  # (k, j, k', j')
    h = h.reshape(-1, rows * r, rows * r)
    return _solve_checked(h, rhs.reshape(m // rows, rows * r)).reshape(m, r)


def update_v(prob: AreaProblem, st: AreaState, u_new: np.ndarray,
             config: AdmmConfig, z: np.ndarray | None) -> np.ndarray:
    """Exact minimizer over V_l, given the same z as `update_u`: one system
    on vec_F(V_l), block diagonal per column in its data part, with the flow
    Hessian contracted against W = sum_t vec(U_t) vec(U_t)^T."""
    m, r = u_new.shape
    n_l = prob.n_l
    rhs = config.prox_c * st.v + config.mu * (u_new.T @ prob.m_obs)
    data = config.mu * (prob.mask.T @ _outer_rows(u_new))
    h = _block_diag(data.reshape(1, n_l, r, r), 1.0 + config.prox_c)[0]
    if prob.maps is not None:
        rhs += u_new.T @ z
        u_steps = u_new.reshape(prob.maps.n_steps, ROWS_PER_STEP * r)
        w = (u_steps.T @ u_steps).reshape(ROWS_PER_STEP, r, ROWS_PER_STEP, r)
        w = w.transpose(0, 2, 1, 3)  # (k, k', j, j')
        flow = (prob.h_v @ w.reshape(ROWS_PER_STEP**2, r * r)).reshape(n_l, n_l, r, r)
        h += flow.transpose(0, 2, 1, 3)  # (c, j, c', j')
    h = h.reshape(n_l * r, n_l * r)
    return _solve_checked(h, rhs.T.ravel()).reshape(n_l, r).T


def update_s(u_l: np.ndarray, u_j: np.ndarray) -> np.ndarray:
    """Consensus average for the shared-basis auxiliary variable."""
    return 0.5 * (u_l + u_j)


def update_q(
    prob: AreaProblem,
    e_ll_val: np.ndarray,
    e_in: dict[int, np.ndarray],
    lam_duals: dict[int, np.ndarray],
    config: AdmmConfig,
) -> dict[int, np.ndarray]:
    """Simultaneous closed-form solve of the coupled q system at one area."""
    if config.lam == 0:
        raise CompletionError("unsupported config: q update requires lambda > 0")
    lam, nu = config.lam, config.nu
    deg = prob.deg
    rhs = {
        j: lam * (e_in[j] - lam_duals[j]) + nu * (prob.f_l - e_ll_val)
        for j in prob.neighbors
    }
    if not rhs:
        return {}
    total = np.sum(list(rhs.values()), axis=0)
    factor = nu / (lam + nu * deg)
    return {j: (rhs[j] - factor * total) / lam for j in prob.neighbors}


def update_duals(
    st: AreaState,
    u_new: np.ndarray,
    s_new: dict[int, np.ndarray],
    q_new: dict[int, np.ndarray],
    e_in: dict[int, np.ndarray],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    gamma_new = {j: st.gamma[j] + u_new - s_new[j] for j in s_new}
    lam_new = {j: st.lam[j] + (q_new[j] - e_in[j]) for j in q_new}
    return gamma_new, lam_new


# --- drivers ----------------------------------------------------------------

def _init_states(
    problems: dict[int, AreaProblem],
    m_data: np.ndarray,
    mask,
    r: int,
    seed: int,
) -> dict[int, AreaState]:
    pair = init_factors(m_data, mask, r, seed)
    states = {}
    for l, prob in problems.items():
        u = pair.u.copy()
        v = pair.v[:, prob.cols].copy()
        st = AreaState(u=u, v=v, x=u @ v)
        if prob.maps is not None:
            st.e_out = _flow_coords(prob, st.x)
        for j in prob.neighbors:
            st.s[j] = u.copy()
            st.gamma[j] = np.zeros_like(u)
            if prob.maps is not None:
                st.lam[j] = np.zeros(prob.maps.residual_dim(l))
                st.lam_in[j] = np.zeros_like(st.e_out[j])
        states[l] = st
    # q_lj and its mirrors start at the corresponding E values so the first
    # primal solve sees a consistent decentralized model
    for l, prob in problems.items():
        st = states[l]
        for j in prob.neighbors:
            if prob.maps is not None:
                e_lj = states[j].e_out[l]  # coordinates of E_lj(X_j), from area j
                st.q[j] = prob.maps.expand(l, j, e_lj)
                st.e_in[j] = e_lj.copy()
    for l, prob in problems.items():
        for j in prob.neighbors:
            if prob.maps is not None:
                states[l].q_in[j] = prob.maps.project(j, l, states[j].q[l])
    return states


def _consensus_residual(problems, states) -> float:
    """Largest |U_l - U_j| over the adjacent pairs, each visited once."""
    worst = 0.0
    for l, prob in problems.items():
        for j in prob.neighbors:
            if j > l:
                worst = max(worst, float(np.linalg.norm(states[l].u - states[j].u)))
    return worst


def run_decentralized(
    m_data: np.ndarray,
    mask: np.ndarray,
    area_maps: AreaMaps | None,
    part: AreaPartition,
    config: AdmmConfig,
    reference: np.ndarray | None = None,
    bus: MessageBus | None = None,
    order: dict[int, list[int]] | None = None,
    keep_history: bool = False,
) -> SolveResult:
    """Proximal ADMM over the area graph, two bus rounds per iteration.

    Round A delivers last iteration's q terms, then every area solves its
    U/V subproblems and sends its basis factor and the flow terms its
    neighbors need.  Round B computes q, the consensus average, and the dual
    ascent steps, then sends q.  Stops when both the consensus residual and
    the relative iterate change fall below tol (`converged`), or after
    max_iters iterations.  With a single area nothing is sent, the
    consensus residual is 0, and the iteration is the plain block U/V
    update of the whole matrix.

    Flow and q terms travel in the coupling coordinates of `AreaMaps`: area
    l sends B_jl X_l (T rho_jl reals) and area j expands it with A_jl; area
    j sends A_jl^T q_jl back.  A_jl has orthonormal columns, so
    |A B x - y|^2 = |B x - A^T y|^2 + const and every update keeps the
    minimizer it has with full residual-space vectors.
    """
    m_data = np.asarray(m_data, dtype=float)
    m = m_data.shape[0]
    r = config.resolve_rank(m)
    problems = _build_problems(m_data, mask, area_maps, part, config)
    states = _init_states(problems, m_data, mask, r, config.seed)
    if bus is None:
        bus = MessageBus(part.areas, part.adjacency)
    trace = ConvergenceTrace()
    history: list[dict[int, np.ndarray]] = [] if keep_history else None
    timings: dict[int, float] = {}

    def node_a(l: int):
        prob, st = problems[l], states[l]

        def fn(inbox):
            t0 = time.perf_counter()
            for j in prob.neighbors:
                key = (j, "q-term")
                if key in inbox:  # refresh mirrors of the neighbor-owned duals
                    q_jl = inbox[key]
                    st.lam_in[j] = st.lam_in[j] + (q_jl - st.e_out[j])
                    st.q_in[j] = q_jl
            z = _flow_target(prob, st, config) if prob.maps is not None else None
            u_new = update_u(prob, st, config, z)
            v_new = update_v(prob, st, u_new, config, z)
            st.u, st.v, st.x = u_new, v_new, u_new @ v_new
            if prob.maps is not None:
                st.e_ll = _own_flow(prob, st.x)
            sends = []
            if prob.neighbors:
                if prob.maps is not None:
                    st.e_out = _flow_coords(prob, st.x)
                for j in prob.neighbors:
                    sends.append(Message(dest=j, tag="factor", payload=u_new))
                    if prob.maps is not None:
                        sends.append(
                            Message(dest=j, tag="flow-term", payload=st.e_out[j])
                        )
            timings[l] = time.perf_counter() - t0
            return None, sends

        return fn

    def node_b(l: int):
        prob, st = problems[l], states[l]

        def fn(inbox):
            t0 = time.perf_counter()
            sends = []
            if prob.neighbors:
                for j in prob.neighbors:
                    st.u_in[j] = inbox[(j, "factor")].reshape(st.u.shape)
                    if prob.maps is not None:
                        st.e_in[j] = inbox[(j, "flow-term")]
                if prob.maps is not None:
                    e_full = {j: prob.maps.expand(l, j, st.e_in[j])
                              for j in prob.neighbors}
                    q_new = update_q(prob, st.e_ll, e_full, st.lam, config)
                else:
                    e_full, q_new = {}, {}
                s_new = {j: update_s(st.u, st.u_in[j]) for j in prob.neighbors}
                gamma_new, lam_new = update_duals(st, st.u, s_new, q_new, e_full)
                st.s, st.gamma = s_new, gamma_new
                if prob.maps is not None:
                    st.q, st.lam = q_new, lam_new
                    for j in prob.neighbors:
                        sends.append(Message(
                            dest=j, tag="q-term",
                            payload=prob.maps.project(l, j, q_new[j]),
                        ))
            timings[l] += time.perf_counter() - t0
            return None, sends

        return fn

    x_prev = None
    converged = False
    for k in range(config.max_iters):
        order_a = order.get(2 * k) if order else None
        order_b = order.get(2 * k + 1) if order else None
        bus.run_round({l: node_a(l) for l in part.areas}, order=order_a)
        bus.run_round({l: node_b(l) for l in part.areas}, order=order_b)

        x_full = np.empty_like(m_data)
        for l, prob in problems.items():
            x_full[:, prob.cols] = states[l].x
        if not np.all(np.isfinite(x_full)):
            raise DivergenceError(iteration=k)

        consensus = _consensus_residual(problems, states)
        trace.consensus.append(consensus)
        trace.objective.append(_objective_decentralized(problems, states, config))
        trace.max_area_seconds.append(max(timings.values()))
        if reference is not None:
            trace.rmse.append(
                float(np.sqrt(np.mean((x_full - reference) ** 2)))
            )
        if keep_history:
            history.append({l: states[l].u.copy() for l in part.areas})

        if x_prev is not None:
            denom = max(np.linalg.norm(x_prev), 1e-30)
            change = np.linalg.norm(x_full - x_prev) / denom
            if consensus < config.tol and change < config.tol:
                converged = True
                break
        x_prev = x_full

    return SolveResult(
        x_blocks={l: states[l].x for l in part.areas},
        states=states,
        trace=trace,
        partition=part,
        bus=bus,
        converged=converged,
        u_history=history,
    )


# --- independent convex oracle ----------------------------------------------

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
        raise CompletionError("mu must be positive")
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
