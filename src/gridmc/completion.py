"""Factored matrix-completion objective and its solvers: the per-area
proximal ADMM updates and the driver that runs them over the message bus (a
single area is the same driver with no neighbors).

Every function here takes the observation mask as a boolean m x n array
(`ObservationMask.observed`)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .datamatrix import ROWS_PER_STEP, VOLTAGE_ROWS
from .gridmodel import AreaPartition
from .linflow import AreaFlow, AreaMaps
from .simnet import MessageBus


class CompletionError(Exception):
    pass


class DivergenceError(CompletionError):
    def __init__(self, iteration: int | None = None):
        self.iteration = iteration
        at = "" if iteration is None else f" at iteration {iteration}"
        super().__init__(f"iterate diverged{at}")


@dataclass(frozen=True)
class AdmmConfig:
    # the paper's weights: mu data fit, nu flow model, and the ADMM penalties
    # gamma (basis consensus) and lam (flow-term consensus)
    mu: float = 1e4
    nu: float = 1e4
    gamma: float = 1e3
    lam: float = 1e3
    prox_c: float = 0.1
    rank: int | None = None  # default min(10, m, n)
    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("mu", "nu", "gamma", "lam", "prox_c", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise CompletionError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.mu, self.nu, self.gamma, self.lam) <= 0:
            raise CompletionError("penalty parameters must be positive")
        if self.prox_c < 0 or self.tol <= 0:
            raise CompletionError("prox_c must be >= 0 and tol > 0")
        if self.max_iters < 1:
            raise CompletionError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rank is not None and self.rank < 1:
            raise CompletionError(f"rank must be >= 1, got {self.rank}")

    def resolve_rank(self, m: int, n: int) -> int:
        """The factor rank r for an m x n matrix; raises CompletionError when
        the requested rank exceeds min(m, n)."""
        if self.rank is None:
            return min(10, m, n)
        if self.rank > min(m, n):
            raise CompletionError(
                f"rank {self.rank} exceeds min(m, n) = {min(m, n)} of a {m} x {n} matrix")
        return self.rank


@dataclass
class AreaState:
    """One area's ADMM variables: the quantities it owns, and the points its
    neighbors send it that a later round reads.  Each quantity is held once,
    by one area, in the form the updates read it."""

    u: np.ndarray
    v: np.ndarray
    x: np.ndarray  # X_l = U_l V_l, formed once per iteration
    # sum_j (U_j - Gamma_lj) over the factors received and the duals before
    # their step, all the U update reads of the consensus terms (round B)
    pull: np.ndarray
    # the duals Gamma_lj of U_l = U_j, one (m, r) slice per neighbor in
    # `AreaProblem.neighbors` order
    gamma: np.ndarray
    # with flow maps, (T, 3n_l): E_ll(X_l) of the current X_l, and Lambda_l,
    # the one dual of every E_lj(X_j) = q_lj (see `update_q`)
    e_ll: np.ndarray | None = None
    lam: np.ndarray | None = None
    # with flow maps, (T, rows of S_l): the point each row of S_l x_t is
    # pulled to.  Its G_ll columns hold f_l - sum_j q_lj; the B_jl columns
    # of neighbor j hold A_jl^T (q_jl + Lambda_j), which j, the owner of
    # q_jl and Lambda_j, sends (see `AreaProblem`)
    row_targets: np.ndarray | None = None


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
    x: np.ndarray  # the estimate X, assembled from the areas' last X_l
    states: dict[int, AreaState]
    trace: ConvergenceTrace
    partition: AreaPartition
    bus: MessageBus
    converged: bool  # stopped by the tolerance test, not the iteration cap

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Assembled (U, V), (m, r) and (r, n): consensus average of the
        basis factors and the column-concatenated coefficients."""
        part = self.partition
        u = np.mean([self.states[l].u for l in part.areas], axis=0)
        r = u.shape[1]
        v = np.empty((r, part.assignment.size))
        for l in part.areas:
            v[:, part.phases_in(l)] = self.states[l].v
        return u, v


# --- objective --------------------------------------------------------------

def _sum_squares(a: np.ndarray) -> float:
    """The sum of squares of a's entries, as one BLAS dot product: the
    ndarray method, which skips the dispatch of `@` and `np.dot`."""
    flat = a.reshape(-1)
    return float(flat.dot(flat))


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) (Frobenius), from the same dot product."""
    return math.sqrt(_sum_squares(a))


def _objective_decentralized(problems, states, config) -> float:
    """Area-wise objective with the communicated q terms in place of the
    neighbor flow contributions."""
    val = 0.0
    n_areas = len(problems)
    for l, prob in problems.items():
        st = states[l]
        val += 0.5 * (_sum_squares(st.u) / n_areas + _sum_squares(st.v))
        diff = np.where(prob.mask, st.x, 0.0) - prob.m_obs
        val += 0.5 * config.mu * _sum_squares(diff)
        if prob.flow is not None:
            own = st.row_targets[:, :3 * prob.n_l]  # f_l - sum_j q_lj
            val += 0.5 * config.nu * _sum_squares(st.e_ll - own)
    return val


# --- initialization ---------------------------------------------------------

def init_factors(
    m_data: np.ndarray, mask: np.ndarray, r: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced factors (U, V) from the rank-r SVD of P_Omega(M); seeded
    Gaussian fallback when the observed matrix has lower rank."""
    if r < 1:
        raise CompletionError("rank must be >= 1")
    observed = np.where(mask, m_data, 0.0)
    uu, sv, vt = np.linalg.svd(observed, full_matrices=False)
    if np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 0.0)) < r:
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(r)
        return (scale * rng.standard_normal((m_data.shape[0], r)),
                scale * rng.standard_normal((r, m_data.shape[1])))
    uu, sv, vt = uu[:, :r], sv[:r], vt[:r]
    # sign convention: largest-magnitude entry of each left vector positive
    for k in range(r):
        idx = np.argmax(np.abs(uu[:, k]))
        if uu[idx, k] < 0:
            uu[:, k] = -uu[:, k]
            vt[k] = -vt[k]
    root = np.sqrt(sv)
    return uu * root[None, :], root[:, None] * vt


def balance(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The balanced pair with the same product: U = Q_u R_u, V^T = Q_v R_v
    and R_u R_v^T = A S B^T give U' = Q_u A S^(1/2) and V' = S^(1/2) B^T Q_v^T,
    so U'V' = UV, U'^T U' = V' V'^T = S and 0.5 (|U'|^2 + |V'|^2) = tr S,
    the least over all factor pairs of UV.  Exact for rank-deficient
    factors, whose zero singular values zero the columns the QR leaves
    arbitrary.  Both QRs are one batched call on the zero-padded stack."""
    (m, r), n = u.shape, v.shape[1]
    stack = np.zeros((2, max(m, n), r))
    stack[0, :m], stack[1, :n] = u, v.T
    q, rr = np.linalg.qr(stack)
    a, s, bt = np.linalg.svd(rr[0] @ rr[1].T)
    root = np.sqrt(s)
    return q[0, :m] @ (a * root), (root[:, None] * bt) @ q[1, :n].T


# --- per-area subproblem machinery ------------------------------------------

@dataclass
class AreaProblem:
    """Constant data for one area's subproblems.

    The flow terms act on each step's 5 x n_l row block X_t of X_l, read
    row-major as x_t (row t of X_l.reshape(T, 5n_l)), through the rows of
    S_l = `flow.stack`: G_ll, weighted by nu, and the coupling factor B_jl
    of each neighbor, weighted by lam.  They are
    sum_t 0.5 |W^(1/2) (S_l x_t - y_t)|^2, y_t row t of
    `AreaState.row_targets` and W = diag(`row_weights`).  The flow Hessian
    of one step, H = S_l^T W S_l = nu G_ll^T G_ll + lam sum_j B_jl^T B_jl,
    has 5 x 5 blocks H_kk' of n_l x n_l, one per pair of rows of the step;
    the 16 of `_FLOW_BLOCKS` are formed once per run and stored, the other
    9 are nu I and 0.  The updates read their weights from `config`, the
    one H and the data terms were weighted with.  `flow` is area l's record
    of `AreaMaps.areas`, or None without flow maps."""

    area: int
    config: AdmmConfig
    cols: np.ndarray
    mask: np.ndarray  # boolean m x n_l
    m_obs: np.ndarray  # m x n_l data block, unobserved entries set to 0
    mu_m_obs: np.ndarray  # mu * m_obs, the data part of the U and V right-hand sides
    # m x n_l: the weight of v_c v_c^T in the diagonal block of row i of U,
    # and of u_i u_i^T in that of column c of V: mu on the observed cells,
    # plus nu on the voltage rows with flow maps, which is how H's diagonal
    # blocks nu I enter (as nu V_l V_l^T and nu (W_00 + W_11 + W_22))
    gram_weights: np.ndarray
    neighbors: list[int]
    n_areas: int
    flow: AreaFlow | None
    row_weights: np.ndarray | None  # W, per row of S_l
    h_blocks: np.ndarray | None  # the H_kk' of `_FLOW_BLOCKS`, each row-major: (16, n_l^2)
    # flat positions of the blocks (k, k') of `_FLOW_BLOCKS` in the 5r x 5r
    # U matrix of one step (unknowns U_t row-major, (k, j)), (16, r, r); of
    # the diagonal blocks of the T stacked U matrices, (T 5 r^2,); and of the
    # column blocks of the r n_l x r n_l V matrix (unknowns V_l row-major,
    # (j, c)), (n_l, r^2)
    u_blocks: np.ndarray | None
    u_diag: np.ndarray | None
    v_diag: np.ndarray
    n_l: int  # the area's phases, the columns of its blocks
    deg: int  # the number of its neighbors


# The rows Re v, Im v, |v| come first in each step (`datamatrix`).  G_ll's
# columns on them are unit vectors and every B_jl is zero on them, so the
# blocks H_kk' of two voltage rows are nu I (k = k') and 0: the flow Hessian's
# other blocks, those with an injection row k or k', are `_FLOW_BLOCKS`.
_FLOW_BLOCKS = np.array([(k, kk) for k in range(ROWS_PER_STEP)
                         for kk in range(ROWS_PER_STEP) if max(k, kk) >= VOLTAGE_ROWS]).T


def _block_positions(rows: np.ndarray, cols: np.ndarray, k: int, r: int,
                     interleaved: bool = False) -> np.ndarray:
    """Flat positions, (len(rows), r, r), of the r x r blocks (rows[b],
    cols[b]) of a kr x kr matrix whose block i acts on the unknowns i r + j,
    or on j k + i when `interleaved` (column i of a row-major r x k matrix)."""
    j = np.arange(r)

    def unknowns(i):
        return j * k + i[:, None] if interleaved else i[:, None] * r + j

    return unknowns(rows)[:, :, None] * (k * r) + unknowns(cols)[:, None, :]


def _build_problems(
    m_data: np.ndarray,
    mask: np.ndarray,
    area_maps: AreaMaps | None,
    part: AreaPartition,
    config: AdmmConfig,
) -> dict[int, AreaProblem]:
    m, r = m_data.shape[0], config.resolve_rank(*m_data.shape)
    u_blocks = u_diag = None
    # nu on the voltage rows of each step (see `AreaProblem.gram_weights`)
    voltage_weight = np.zeros((m, 1))
    if area_maps is not None:
        u_blocks = _block_positions(*_FLOW_BLOCKS, ROWS_PER_STEP, r)
        rows = np.arange(ROWS_PER_STEP)
        steps = np.arange(m // ROWS_PER_STEP)[:, None, None, None] * (ROWS_PER_STEP * r) ** 2
        u_diag = (steps + _block_positions(rows, rows, ROWS_PER_STEP, r)).reshape(-1)
        voltage_weight.reshape(-1, ROWS_PER_STEP)[:, :VOLTAGE_ROWS] = config.nu
    problems = {}
    for l in part.areas:
        cols = part.phases_in(l)
        neighbors = part.neighbors(l)
        n_l = cols.size
        m_obs = np.where(mask[:, cols], m_data[:, cols], 0.0)
        flow = weights = h_blocks = None
        if area_maps is not None:
            flow, own = area_maps.areas[l], 3 * n_l
            weights = np.full(flow.stack.shape[0], config.lam)
            weights[:own] = config.nu
            g_ll, b_in = flow.stack[:own], flow.stack[own:]
            h = config.nu * (g_ll.T @ g_ll) + config.lam * (b_in.T @ b_in)
            h = h.reshape(ROWS_PER_STEP, n_l, ROWS_PER_STEP, n_l).transpose(0, 2, 1, 3)
            voltage = config.nu * np.eye(VOLTAGE_ROWS)[:, :, None, None] * np.eye(n_l)
            if not np.array_equal(h[:VOLTAGE_ROWS, :VOLTAGE_ROWS], voltage):
                raise CompletionError(
                    f"area {l}: the flow Hessian's voltage blocks are not nu I and 0")
            h_blocks = h[tuple(_FLOW_BLOCKS)].reshape(-1, n_l * n_l)
        problems[l] = AreaProblem(
            area=l,
            config=config,
            cols=cols,
            mask=mask[:, cols],
            m_obs=m_obs,
            mu_m_obs=config.mu * m_obs,
            gram_weights=config.mu * mask[:, cols] + voltage_weight,
            neighbors=neighbors,
            n_areas=part.n_areas,
            flow=flow,
            row_weights=weights,
            h_blocks=h_blocks,
            u_blocks=u_blocks,
            u_diag=u_diag,
            v_diag=_block_positions(np.arange(n_l), np.arange(n_l), n_l, r,
                                    interleaved=True).reshape(n_l, r * r),
            n_l=n_l,
            deg=len(neighbors),
        )
    return problems


def _flow_target(prob: AreaProblem, st: AreaState) -> np.ndarray:
    """Z + mu P_Omega(M_l) (m x n_l): the flow terms are
    sum_t 0.5 x_t^T H x_t - <Z, X_l> plus a constant, x_t as in
    `AreaProblem`, so Z = sum_t (W y_t)^T S_l, one product over every row,
    and the linear parts of the U and V right-hand sides are this sum times
    V^T and U^T.  Without flow maps, mu P_Omega(M_l) alone."""
    if prob.flow is None:
        return prob.mu_m_obs
    z = (st.row_targets * prob.row_weights) @ prob.flow.stack
    return z.reshape(-1, prob.n_l) + prob.mu_m_obs


def _outer_rows(a: np.ndarray) -> np.ndarray:
    """Row i of the result is the flattened outer product a_i a_i^T."""
    return (a[:, :, None] * a[:, None, :]).reshape(a.shape[0], -1)


def _solve_quadratic(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve h x = rhs, or a stack of such systems (h: (..., n, n), rhs: (..., n))."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # every system is positive definite in exact arithmetic (its diagonal
        # gains 1/L + prox_c + gamma deg or 1 + prox_c), but rounding can lose
        # that term once a diverging iterate is far out of scale
        raise DivergenceError() from None


def _solve_checked(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations and verify the gradient vanishes at the
    solution, over the whole stack of systems; non-finite input fails that check."""
    sol = _solve_quadratic(h, rhs)
    grad = (h @ sol[..., None])[..., 0] - rhs
    if not _norm(grad) <= 1e-9 * (1.0 + (_norm(h) * _norm(sol) + _norm(rhs))):
        if not (np.isfinite(h).all() and np.isfinite(rhs).all()):
            raise DivergenceError()
        raise CompletionError("block update does not solve its normal equations")
    return sol


def update_u(prob: AreaProblem, st: AreaState, z: np.ndarray) -> np.ndarray:
    """Exact minimizer of the Lagrangian restricted to U_l plus the proximal
    term, given z = `_flow_target`.
    Rows of U couple only through the flow terms, which act within one time
    step, so the normal equations split into T systems of size 5r (m systems
    of size r without flow maps) on the row-major blocks U_t."""
    config = prob.config
    m, r = st.u.shape
    v = st.v
    rhs = z @ v.T
    rhs += config.prox_c * st.u
    rhs += config.gamma * st.pull
    # diagonal block of row i: sum_c gram_weights[i, c] v_c v_c^T + base I
    data = prob.gram_weights @ _outer_rows(v.T)
    data[:, :: r + 1] += 1.0 / prob.n_areas + config.prox_c + config.gamma * prob.deg
    if prob.flow is None:
        return _solve_checked(data.reshape(m, r, r), rhs)
    # (V^T kron I_5)^T H (V^T kron I_5), the same for every step: the blocks
    # V H_kk' V^T of `_FLOW_BLOCKS` from two products, 0 between two voltage
    # rows; nu V V^T on the voltage diagonal comes with the data blocks
    hv = (prob.h_blocks.reshape(-1, prob.n_l) @ v.T).reshape(-1, prob.n_l, r)
    flow = np.zeros((ROWS_PER_STEP * r) ** 2)
    flow[prob.u_blocks] = np.matmul(v, hv)
    h = np.empty((m // ROWS_PER_STEP, flow.size))
    h[...] = flow
    h.reshape(-1)[prob.u_diag] += data.reshape(-1)
    h = h.reshape(-1, ROWS_PER_STEP * r, ROWS_PER_STEP * r)
    return _solve_checked(h, rhs.reshape(h.shape[:2])).reshape(m, r)


def update_v(prob: AreaProblem, st: AreaState, u_new: np.ndarray,
             z: np.ndarray) -> np.ndarray:
    """Exact minimizer over V_l, given the same z as `update_u`: one system
    on V_l row-major, block diagonal over the columns in its data part, with
    the flow Hessian contracted against W = sum_t u_t u_t^T, u_t the
    row-major U_t."""
    config = prob.config
    r, n_l = st.v.shape
    rhs = (u_new.T @ z).ravel()
    rhs += config.prox_c * st.v.ravel()
    # block of column c: sum_i gram_weights[i, c] u_i u_i^T + (1 + prox_c) I
    data = prob.gram_weights.T @ _outer_rows(u_new)
    data[:, :: r + 1] += 1.0 + config.prox_c
    if prob.flow is None:
        h = np.zeros((r * n_l, r * n_l))
    else:
        # sum_kk' W_kk' kron H_kk' over `_FLOW_BLOCKS`: one product gives
        # ((j, j'), (c, c')), copied to (j, c, j', c') in runs of n_l;
        # nu (W_00 + W_11 + W_22) on every column block comes with the data
        u_steps = u_new.reshape(-1, ROWS_PER_STEP * r)
        w = (u_steps.T @ u_steps).reshape(-1)  # (k, j, k', j')
        flow = w[prob.u_blocks].reshape(-1, r * r).T @ prob.h_blocks
        h = np.empty((r * n_l, r * n_l))
        h.reshape(r, n_l, r, n_l)[...] = flow.reshape(r, r, n_l, n_l).transpose(0, 2, 1, 3)
    h.reshape(-1)[prob.v_diag] += data
    return _solve_checked(h, rhs).reshape(r, n_l)


def update_q(
    prob: AreaProblem,
    e_ll_val: np.ndarray,
    coords_in: dict[int, np.ndarray],
    lam_dual: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Closed-form q step and flow dual ascent at area l, from E_ll(X_l), the
    (T, rho_lj) coordinates c_lj of e_lj = E_lj(X_j) = A_lj c_lj its
    neighbors sent, and its dual Lambda_l.  Returns sum_j q_lj, Lambda_l'
    (both (T, 3n_l)) and, per neighbor j, the (T, rho_lj) pull point
    A_lj^T (q_lj + Lambda_l') that area l sends j.

    Per edge, the q_lj minimize 0.5 nu |f_l - E_ll X_l - sum_j q_lj|^2
    + 0.5 lam sum_j |q_lj - e_lj + Lambda_lj|^2, and then
    Lambda_lj' = Lambda_lj + q_lj - e_lj = (nu / lam)(f_l - E_ll X_l - sum_i q_li)
    takes one value for every j; from Lambda_lj = 0 the duals are one vector.
    So q_lj = e_lj + Lambda_l' - Lambda_l, sum_j q_lj = sum_j e_lj
    + d (Lambda_l' - Lambda_l) with d = deg l, and substituting the sum,
    Lambda_l' = nu (f_l - E_ll X_l - sum_j e_lj + d Lambda_l) / (lam + nu d).
    A_lj is orthonormal, so each pull point is c_lj + A_lj^T (2 Lambda_l' - Lambda_l).
    With the c_lj side by side, in neighbor order whatever order the areas
    run in, sum_j e_lj and every A_lj^T are one product with A_l."""
    lam, nu, d, flow = prob.config.lam, prob.config.nu, prob.deg, prob.flow
    coords = flow.gather(coords_in)
    e_sum = coords @ flow.basis.T
    lam_new = (nu / (lam + nu * d)) * (flow.f - e_ll_val - e_sum + d * lam_dual)
    step = 2.0 * lam_new - lam_dual  # q_lj + Lambda_l' = e_lj + step
    pulls = coords + step @ flow.basis
    return (e_sum + d * (lam_new - lam_dual), lam_new,
            {j: pulls[:, c] for j, c in flow.basis_cols.items()})


def update_duals(
    st: AreaState, u_in: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Basis dual ascent at area l from the factors U_j its neighbors sent,
    stacked (d, m, r) in neighbor order (`update_q` steps Lambda_l):
    Gamma_lj' = Gamma_lj + (U_l - U_j) / 2 and the pull sum_j (U_j - Gamma_lj),
    which are Gamma_lj + U_l - S_lj and sum_j (S_lj - Gamma_lj') at
    S_lj = (U_l + U_j) / 2, never formed.  Every step is elementwise, so area
    j's step negates area l's bit for bit and Gamma_lj = -Gamma_jl exactly;
    the pull sums over the neighbors in order."""
    return st.gamma + 0.5 * (st.u - u_in), np.add.reduce(u_in - st.gamma, axis=0)


# --- drivers ----------------------------------------------------------------

def _init_states(
    problems: dict[int, AreaProblem],
    m_data: np.ndarray,
    mask,
    r: int,
    seed: int,
) -> dict[int, AreaState]:
    u0, v0 = init_factors(m_data, mask, r, seed)
    states = {}
    for l, prob in problems.items():
        u = u0.copy()
        v = v0[:, prob.cols].copy()
        # every U_j starts at U_l and Gamma_lj at 0
        states[l] = AreaState(u=u, v=v, x=u @ v, pull=prob.deg * u,
                              gamma=np.zeros((prob.deg, *u.shape)))
    if next(iter(problems.values())).flow is None:
        return states
    # q_lj starts at e_lj = E_lj(X_j) and Lambda_l at 0, so the first primal
    # solve sees a consistent decentralized model, and the first pull point
    # A_jl^T (q_jl + Lambda_j) = A_jl^T e_jl is B_jl x_t, what l sends j
    sent = {l: prob.flow.terms(states[l].x)[1] for l, prob in problems.items()}
    for l, prob in problems.items():
        st, flow = states[l], prob.flow
        e_sum = flow.gather({j: sent[j][l] for j in prob.neighbors}) @ flow.basis.T
        st.lam = np.zeros_like(flow.f)
        st.row_targets = np.empty((len(flow.f), flow.stack.shape[0]))
        st.row_targets[:, :3 * prob.n_l] = flow.f - e_sum
        for j, rows in flow.stack_rows.items():
            st.row_targets[:, rows] = sent[l][j]
    return states


def _relaxation_factor(omega: float, step: float, prev_step: float) -> float:
    """The next over-relaxation factor of a single area's U/V steps, by
    adaptive SOR (Hageman & Young, Applied Iterative Methods, ch. 9) from the
    contraction ratio lam = step / prev_step of two successive iterate
    changes |X_k - X_{k-1}|: for omega - 1 < lam < 1, mu^2 = min((lam +
    omega - 1)^2 / (omega^2 lam), 0.9999) estimates the squared spectral
    radius of the plain iteration and omega = 2 / (1 + sqrt(1 - mu^2)),
    which stays below 2 / 1.01; for lam >= 1, or a zero prev_step, 1 (no
    relaxation); otherwise omega unchanged."""
    if not prev_step > 0.0:
        return 1.0
    ratio = step / prev_step
    if ratio >= 1.0:
        return 1.0
    if ratio <= omega - 1.0:
        return omega
    mu_sq = min((ratio + omega - 1.0) ** 2 / (omega * omega * ratio), 0.9999)
    return 2.0 / (1.0 + math.sqrt(1.0 - mu_sq))


def _consensus_residual(problems, states) -> float:
    """Largest |U_l - U_j| over the adjacent pairs, each visited once."""
    worst = 0.0
    for l, prob in problems.items():
        for j in prob.neighbors:
            if j > l:
                worst = max(worst, _norm(states[l].u - states[j].u))
    return worst


def run_decentralized(
    m_data: np.ndarray,
    mask: np.ndarray,
    area_maps: AreaMaps | None,
    part: AreaPartition,
    config: AdmmConfig,
    reference: np.ndarray | None = None,
    order: dict[int, list[int]] | None = None,
) -> SolveResult:
    """Proximal ADMM over the area graph, two bus rounds per iteration.

    Round A delivers the flow pull points of the last round B, then every
    area solves its U/V subproblems and sends its basis factor U_l, (m, r),
    and the flow terms its neighbors need.  Round B computes q and the dual
    ascent steps from what it received, then sends each neighbor the point
    its flow term pulls to.  Stops when both the consensus residual and the
    relative iterate change fall below tol (`converged`), or after max_iters
    iterations.  The area graph must be connected (CompletionError
    otherwise), so only a single area has no neighbors.  It sends nothing,
    its consensus residual is 0, and its iteration is the block U/V update
    of the whole matrix: each exact block minimizer U*, V* over-relaxed,
    U <- U + omega (U* - U) before the V solve reads U, then V <- V + omega
    (V* - V), then `balance`, so the stop comes near a stationary point.
    omega starts at 1 and is re-estimated after each iteration from the
    ratio of the last two changes |X_k - X_{k-1}| (`_relaxation_factor`).
    Any omega in (0, 2) keeps each relaxed step a descent step of its
    quadratic block objective, so the objective never rises.  A relaxed V
    misses its block minimizer, so the iteration the run ends at (tolerance
    met or max_iters reached) takes one exact V step and `balance` before
    its trace row is written.  The factor adapts because a fixed one slows
    small runs, and several areas keep the plain ADMM steps because
    relaxing them costs accuracy (figures in CHANGES.md).

    Flow terms travel in the coupling coordinates of `AreaFlow`: area l
    sends c_jl = B_jl X_l, (T, rho_jl), area j expands it with A_jl and, as
    owner of q_jl and Lambda_j, returns A_jl^T (q_jl + Lambda_j), (T, rho_jl).
    A_jl has orthonormal columns, so |A B x - y|^2 = |B x - A^T y|^2 + const
    and every update keeps the minimizer it has with full residual-space
    blocks.
    """
    if area_maps is not None and not (
            np.array_equal(area_maps.partition.assignment, part.assignment)
            and area_maps.partition.adjacency == part.adjacency):
        raise CompletionError("area_maps were built for another partition")
    if area_maps is not None and area_maps.m != len(m_data):
        raise CompletionError(f"area_maps were built for {area_maps.m} rows "
                              f"(T = {area_maps.n_steps}), the data has {len(m_data)}")
    if np.shape(m_data)[1:] != (part.assignment.size,):
        raise CompletionError(f"data of shape {np.shape(m_data)} for {part.assignment.size} phases")
    if np.shape(mask) != np.shape(m_data):
        raise CompletionError(
            f"mask of shape {np.shape(mask)} for data of shape {np.shape(m_data)}")
    reached = {1}
    for _ in part.areas:  # a connected graph's paths have fewer steps than areas
        reached |= {j for l in reached for j in part.neighbors(l)}
    if len(reached) < part.n_areas:
        raise CompletionError(f"the area graph is not connected: area 1 reaches {sorted(reached)}")
    m_data = np.asarray(m_data, dtype=float)
    r = config.resolve_rank(*m_data.shape)
    problems = _build_problems(m_data, mask, area_maps, part, config)
    states = _init_states(problems, m_data, mask, r, config.seed)
    bus = MessageBus(part.adjacency)
    trace = ConvergenceTrace()
    timings: dict[int, float] = {}

    def node_a(l: int):
        prob, st = problems[l], states[l]

        def fn(inbox):
            t0 = time.perf_counter()
            for (j, _), pull in inbox.items():  # only round B's flow pull points
                st.row_targets[:, prob.flow.stack_rows[j]] = pull
            z = _flow_target(prob, st)
            u_new = update_u(prob, st, z)
            if part.n_areas > 1:
                v_new = update_v(prob, st, u_new, z)
            else:
                # each exact block step over-relaxed, U before the V solve
                # reads it; U -> UD, V -> D^-1 V keeps X, and the block
                # updates only creep along it to the balanced pair;
                # balancing several areas needs the Gram sum_l V_l V_l^T of
                # all of them
                u_new = st.u + omega * (u_new - st.u)
                v_new = st.v + omega * (update_v(prob, st, u_new, z) - st.v)
                u_new, v_new = balance(u_new, v_new)
            st.u, st.v, st.x = u_new, v_new, u_new @ v_new
            sends = [(j, "factor", u_new) for j in prob.neighbors]
            if prob.flow is not None:
                st.e_ll, coords = prob.flow.terms(st.x)
                sends += [(j, "flow-term", c) for j, c in coords.items()]
            timings[l] = time.perf_counter() - t0
            return None, sends

        return fn

    def node_b(l: int):
        prob, st = problems[l], states[l]

        def fn(inbox):
            if not prob.neighbors:  # a single area exchanges nothing
                return None, []
            t0 = time.perf_counter()
            sends = []
            if prob.flow is not None:  # no q terms without flow maps
                coords_in = {j: inbox[(j, "flow-term")] for j in prob.neighbors}
                q_sum, st.lam, pulls = update_q(prob, st.e_ll, coords_in, st.lam)
                st.row_targets[:, :3 * prob.n_l] = prob.flow.f - q_sum
                sends = [(j, "flow-pull", pull) for j, pull in pulls.items()]
            u_in = np.stack([inbox[(j, "factor")] for j in prob.neighbors])
            st.gamma, st.pull = update_duals(st, u_in)
            timings[l] += time.perf_counter() - t0
            return None, sends

        return fn

    nodes_a = {l: node_a(l) for l in part.areas}
    nodes_b = {l: node_b(l) for l in part.areas}
    x_prev = None
    converged = False
    # the over-relaxation factor of a single area and |X_k - X_{k-1}| of the
    # last iteration (0 until two iterates are known)
    omega, prev_step = 1.0, 0.0
    for k in range(config.max_iters):
        try:
            bus.run_round(nodes_a, order=order.get(2 * k) if order else None)
        except DivergenceError:  # a solve met a diverging iterate
            raise DivergenceError(iteration=k) from None
        bus.run_round(nodes_b, order=order.get(2 * k + 1) if order else None)

        x_full = np.empty_like(m_data)
        for l, prob in problems.items():
            x_full[:, prob.cols] = states[l].x
        if not np.isfinite(x_full).all():
            raise DivergenceError(iteration=k)

        consensus = _consensus_residual(problems, states)
        if x_prev is not None:
            step = _norm(x_full - x_prev)
            converged = consensus < config.tol and step / max(_norm(x_prev), 1e-30) < config.tol
            omega, prev_step = _relaxation_factor(omega, step, prev_step), step
        x_prev = x_full
        if part.n_areas == 1 and (converged or k == config.max_iters - 1):
            # end on an exact V step: a relaxed V misses its block minimizer
            prob, st = problems[1], states[1]
            st.u, st.v = balance(st.u, update_v(prob, st, st.u, _flow_target(prob, st)))
            x_full = st.x = st.u @ st.v
            if prob.flow is not None:
                st.e_ll = prob.flow.terms(st.x)[0]

        trace.consensus.append(consensus)
        trace.objective.append(_objective_decentralized(problems, states, config))
        trace.max_area_seconds.append(max(timings.values()))
        if reference is not None:
            err = x_full - reference
            trace.rmse.append(math.sqrt(_sum_squares(err) / err.size))
        if converged:
            break

    return SolveResult(
        x=x_full,
        states=states,
        trace=trace,
        partition=part,
        bus=bus,
        converged=converged,
    )
