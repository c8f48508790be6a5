"""Linear voltage model (N, K, w), area truncation, Algorithm-2 style
decentralized evaluation, and the per-area linear maps feeding the
completion objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamatrix import ROWS_PER_STEP
from .gridmodel import AreaPartition, NetworkModel
from .simnet import Message, MessageBus


class LinFlowError(Exception):
    pass


@dataclass(frozen=True)
class LinearFlowModel:
    """v ~ w + N h, |v| ~ |w| + K h with h = [Re s; Im s], identical blocks
    replicated over n_steps time steps."""

    n_mat: np.ndarray  # complex, |P| x 2|P|
    k_mat: np.ndarray  # real, |P| x 2|P|
    w: np.ndarray  # complex, |P|
    n_steps: int

    @property
    def n_phases(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class TruncatedFlowModel(LinearFlowModel):
    partition: AreaPartition = None

    def __post_init__(self):
        if self.partition is None:
            raise LinFlowError("truncated model requires a partition")


def build_linear_model(net: NetworkModel, n_steps: int = 1) -> LinearFlowModel:
    """First fixed-point iterate around the no-load profile w."""
    w = net.no_load_voltage
    if np.min(np.abs(w)) < 1e-9:
        raise LinFlowError("degenerate linearization: no-load voltage has a zero entry")
    g = net.solve_y_ll(np.diag(1.0 / np.conj(w)))
    n_mat = np.hstack([g, -1j * g])
    # first-order expansion of |w + delta| around w
    phase = (np.conj(w) / np.abs(w))[:, None]
    k_mat = np.real(phase * n_mat)
    return LinearFlowModel(n_mat=n_mat, k_mat=k_mat, w=w, n_steps=n_steps)


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


def _coupling_mask(part: AreaPartition) -> np.ndarray:
    """Boolean |P| x |P|: True where phases share an area or adjacent areas."""
    a = part.assignment
    keep = a[:, None] == a[None, :]
    for pair in part.adjacency:
        x, y = sorted(pair)
        keep |= (a[:, None] == x) & (a[None, :] == y)
        keep |= (a[:, None] == y) & (a[None, :] == x)
    return keep


def truncate_model(model: LinearFlowModel, part: AreaPartition) -> TruncatedFlowModel:
    """Zero all couplings outside same-area/neighbor-area blocks (applied to
    both N and K)."""
    n = model.n_phases
    if part.assignment.shape[0] != n:
        raise LinFlowError("partition does not cover the model's phases")
    keep = _coupling_mask(part)
    keep2 = np.hstack([keep, keep])  # N columns pair up (Re s, Im s) per phase
    return TruncatedFlowModel(
        n_mat=np.where(keep2, model.n_mat, 0.0),
        k_mat=np.where(keep2, model.k_mat, 0.0),
        w=model.w,
        n_steps=model.n_steps,
        partition=part,
    )


def truncation_error(model: LinearFlowModel, truncated: LinearFlowModel) -> float:
    """Relative Frobenius error between the full and truncated N matrices."""
    if model.n_mat.shape != truncated.n_mat.shape:
        raise LinFlowError("model shapes do not match")
    denom = np.linalg.norm(model.n_mat)
    if denom == 0:
        raise LinFlowError("undefined metric: N is zero")
    return float(np.linalg.norm(model.n_mat - truncated.n_mat) / denom)


@dataclass(frozen=True)
class FlowTerm:
    """Aggregated contribution of one area's injections to one phase: complex
    phasor part p and real magnitude part q, per time step."""

    p: np.ndarray  # complex, (T,)
    q: np.ndarray  # real, (T,)

    def stacked(self) -> np.ndarray:
        """Flat real layout [Re p; Im p; q] used on the wire."""
        return np.concatenate([self.p.real, self.p.imag, self.q])

    @classmethod
    def from_stacked(cls, payload: np.ndarray) -> "FlowTerm":
        t = payload.size // 3
        return cls(p=payload[:t] + 1j * payload[t : 2 * t], q=payload[2 * t :])

    @classmethod
    def zeros(cls, n_steps: int) -> "FlowTerm":
        return cls(p=np.zeros(n_steps, dtype=complex), q=np.zeros(n_steps))

    def __add__(self, other: "FlowTerm") -> "FlowTerm":
        return FlowTerm(p=self.p + other.p, q=self.q + other.q)


def area_flow_terms(
    model: TruncatedFlowModel, h: np.ndarray, area: int
) -> dict[int, FlowTerm]:
    """T_{area,i} for every phase i in the given area or an adjacent area."""
    part = model.partition
    if area not in part.areas:
        raise LinFlowError(f"unknown area id {area}")
    h = np.atleast_2d(h)
    n = model.n_phases
    src = part.phases_in(area)
    cols = np.concatenate([src, src + n])
    targets = list(part.phases_in(area))
    for k in part.neighbors(area):
        targets.extend(part.phases_in(k))
    out = {}
    for i in sorted(targets):
        p = h[:, cols] @ model.n_mat[i, cols]
        q = h[:, cols] @ model.k_mat[i, cols]
        out[int(i)] = FlowTerm(p=p, q=q)
    return out


def decentralized_flow(
    model: TruncatedFlowModel,
    h: np.ndarray,
    part: AreaPartition | None = None,
    bus: MessageBus | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Evaluate the truncated model by the per-area exchange protocol.

    Each area sends the aggregated flow terms for its neighbors' phases, then
    assembles its own voltages.  Returns per-area (v, |v|) arrays of shape
    (T, n_l); identical to dense evaluation of the truncated model.
    """
    part = part if part is not None else model.partition
    h = np.atleast_2d(h)
    n_steps = h.shape[0]
    if bus is None:
        bus = MessageBus(part.areas, part.adjacency)

    local_terms = {l: area_flow_terms(model, h, l) for l in part.areas}

    def send_node(area: int):
        def fn(inbox):
            sends = []
            for k in part.neighbors(area):
                for i in part.phases_in(k):
                    sends.append(
                        Message(
                            dest=k,
                            tag=f"flow-term:{i}",
                            payload=local_terms[area][int(i)].stacked(),
                        )
                    )
            return None, sends

        return fn

    def recv_node(area: int):
        def fn(inbox):
            own = part.phases_in(area)
            v = np.empty((n_steps, own.size), dtype=complex)
            vmag = np.empty((n_steps, own.size))
            for pos, i in enumerate(own):
                total = local_terms[area][int(i)]
                for src in part.neighbors(area):
                    payload = inbox[(src, f"flow-term:{i}")]
                    total = total + FlowTerm.from_stacked(payload)
                v[:, pos] = model.w[i] + total.p
                vmag[:, pos] = np.abs(model.w[i]) + total.q
            return (v, vmag), []

        return fn

    bus.run_round({l: send_node(l) for l in part.areas})
    return bus.run_round({l: recv_node(l) for l in part.areas})


# --- per-area linear maps over the measurement matrix -----------------------

@dataclass(frozen=True)
class AreaMaps:
    """Linear maps E_lj from area-j measurement columns to the area-l residual
    space, plus the affine targets f_l.

    The residual space of area l stacks, for each of its phases (in phase
    order) and each time step, the real rows [Re v, Im v, |v|], giving
    3T * n_l entries.  e_mats[(l, j)] acts on the column-major flattening of
    the m x n_j block X_j.

    E_lj repeats one per-step block G_lj = step_blocks[(l, j)] (3n_l x 5n_j)
    on every time step; it acts on vec_F of the step's 5 x n_j row block of
    X_j, and its rows are (phase, [Re v, Im v, |v|]).  For neighbors l != j,
    coupling[(l, j)] = (A, B) factors it exactly as G_lj = A B with A
    orthonormal (3n_l x rho) and rho = rank(G_lj).  The coordinates of
    E_lj(X_j) are B applied per step (T * rho reals, step major); `expand`
    maps them back into the residual space of l."""

    partition: AreaPartition
    n_steps: int
    n_phases: int
    cols: dict[int, np.ndarray]
    e_mats: dict[tuple[int, int], np.ndarray]
    f: dict[int, np.ndarray]
    step_blocks: dict[tuple[int, int], np.ndarray]
    coupling: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]

    @property
    def m(self) -> int:
        return ROWS_PER_STEP * self.n_steps

    def residual_dim(self, area: int) -> int:
        return 3 * self.n_steps * self.cols[area].size

    def sources(self, area: int) -> list[int]:
        return [area] + self.partition.neighbors(area)

    def block(self, x: np.ndarray, area: int) -> np.ndarray:
        return x[:, self.cols[area]]

    def apply(self, l: int, j: int, x: np.ndarray) -> np.ndarray:
        """E_lj evaluated on the full m x |P| matrix x."""
        return self.apply_block(l, j, self.block(x, j))

    def apply_block(self, l: int, j: int, x_j: np.ndarray) -> np.ndarray:
        """E_lj evaluated on the area-j column block itself."""
        return self.e_mats[(l, j)] @ x_j.ravel(order="F")

    def residual(self, l: int, x: np.ndarray) -> np.ndarray:
        """E_ll(X) + sum_j E_lj(X) - f_l."""
        out = -self.f[l].copy()
        for j in self.sources(l):
            out += self.apply(l, j, x)
        return out

    def coupling_rank(self, l: int, j: int) -> int:
        """rank(G_lj): reals per time step that carry E_lj(X_j)."""
        return self.coupling[(l, j)][1].shape[0]

    def to_steps(self, y: np.ndarray) -> np.ndarray:
        """Residual-space vector of an area as rows of per-step blocks,
        (T, 3n_l), in the row order of G_lj."""
        per_step = y.reshape(-1, self.n_steps, 3).transpose(1, 0, 2)
        return per_step.reshape(self.n_steps, -1)

    def from_steps(self, y: np.ndarray) -> np.ndarray:
        """Inverse of `to_steps`."""
        return y.reshape(self.n_steps, -1, 3).transpose(1, 0, 2).ravel()

    def expand(self, l: int, j: int, coords: np.ndarray) -> np.ndarray:
        """Residual-space vector (I_T kron A_lj) coords, in residual order."""
        a = self.coupling[(l, j)][0]
        return self.from_steps(coords.reshape(self.n_steps, a.shape[1]) @ a.T)

    def project(self, l: int, j: int, y: np.ndarray) -> np.ndarray:
        """Coordinates (I_T kron A_lj)^T y of a residual-space vector of l;
        the adjoint of `expand`."""
        return (self.to_steps(y) @ self.coupling[(l, j)][0]).ravel()


def _factor_step_block(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact rank factorization g = A B with orthonormal A, at the default
    rank tolerance of np.linalg.matrix_rank."""
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    tol = s[0] * max(g.shape) * np.finfo(g.dtype).eps if s.size else 0.0
    rho = int(np.sum(s > tol))
    return u[:, :rho], s[:rho, None] * vt[:rho]


def _step_block(
    model: TruncatedFlowModel, own: np.ndarray, src: np.ndarray, same_area: bool
) -> np.ndarray:
    """Per-step block of E_lj: rows (target phase, [Re v, Im v, |v|]), columns
    (source phase, row of one time step); within one area the target phase's
    own voltage rows enter with +1."""
    n = model.n_phases
    g = np.zeros((own.size, 3, src.size, ROWS_PER_STEP))
    n_re = model.n_mat[np.ix_(own, src)]
    n_im = model.n_mat[np.ix_(own, src + n)]
    g[:, 0, :, 3] -= n_re.real
    g[:, 0, :, 4] -= n_im.real
    g[:, 1, :, 3] -= n_re.imag
    g[:, 1, :, 4] -= n_im.imag
    g[:, 2, :, 3] -= model.k_mat[np.ix_(own, src)]
    g[:, 2, :, 4] -= model.k_mat[np.ix_(own, src + n)]
    if same_area:
        pos = np.arange(own.size)
        for c in range(3):
            g[pos, c, pos, c] = 1.0
    return g.reshape(3 * own.size, ROWS_PER_STEP * src.size)


def _repeat_steps(g: np.ndarray, n_src: int, t_steps: int, n_groups: int) -> np.ndarray:
    """Dense map applying the per-step block g on every time step of
    vec_F(X_src) (an m x n_src block).  The rows of g split into n_groups
    equal groups, and the output rows are ordered (group, step, row)."""
    per_group = g.shape[0] // n_groups
    out = np.zeros((n_groups, t_steps, per_group, n_src, t_steps, ROWS_PER_STEP))
    g4 = g.reshape(n_groups, per_group, n_src, ROWS_PER_STEP)
    for t in range(t_steps):
        out[:, t, :, :, t, :] = g4
    return out.reshape(t_steps * g.shape[0], n_src * t_steps * ROWS_PER_STEP)


def build_area_maps(model: TruncatedFlowModel, part: AreaPartition | None = None) -> AreaMaps:
    part = part if part is not None else model.partition
    t_steps = model.n_steps
    cols = {l: part.phases_in(l) for l in part.areas}
    w3 = np.stack([model.w.real, model.w.imag, np.abs(model.w)], axis=1)

    e_mats: dict[tuple[int, int], np.ndarray] = {}
    step_blocks: dict[tuple[int, int], np.ndarray] = {}
    coupling: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    f: dict[int, np.ndarray] = {}
    for l in part.areas:
        own = cols[l]
        f[l] = np.repeat(w3[own], t_steps, axis=0).ravel()
        for j in [l] + part.neighbors(l):
            g = step_blocks[(l, j)] = _step_block(model, own, cols[j], same_area=j == l)
            e_mats[(l, j)] = _repeat_steps(g, cols[j].size, t_steps, n_groups=own.size)
            if j != l:
                coupling[(l, j)] = _factor_step_block(g)

    return AreaMaps(
        partition=part,
        n_steps=t_steps,
        n_phases=model.n_phases,
        cols=cols,
        e_mats=e_mats,
        f=f,
        step_blocks=step_blocks,
        coupling=coupling,
    )
