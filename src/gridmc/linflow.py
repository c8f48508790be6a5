"""Linear voltage model (G, w), its area truncation error, and the
per-area linear maps feeding the completion objective."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datamatrix import ROWS_PER_STEP
from .gridmodel import AreaPartition, NetworkModel


class LinFlowError(Exception):
    pass


@dataclass(frozen=True)
class LinearFlowModel:
    """v ~ w + G conj(s), identical blocks replicated over n_steps time
    steps.  Its real expansion N = [G, -iG], v ~ w + N [Re s; Im s], and
    K = Re(diag(conj w / |w|) N) for |v| are formed per block (`_step_block`)."""

    g: np.ndarray  # complex, |P| x |P|
    w: np.ndarray  # complex, |P|
    n_steps: int

    @property
    def n_phases(self) -> int:
        return self.w.shape[0]


def build_linear_model(net: NetworkModel, n_steps: int = 1) -> LinearFlowModel:
    """First fixed-point iterate around the no-load profile w: the
    network's Z-bus with its columns scaled, Z diag(1 / conj w)."""
    w = net.no_load_voltage
    if np.min(np.abs(w)) < 1e-9:
        raise LinFlowError("degenerate linearization: no-load voltage has a zero entry")
    return LinearFlowModel(g=net.z_bus * (1.0 / np.conj(w)), w=w, n_steps=n_steps)


def _check_cover(model: LinearFlowModel, part: AreaPartition) -> None:
    if part.assignment.shape[0] != model.n_phases:
        raise LinFlowError("partition does not cover the model's phases")


def _coupling_mask(part: AreaPartition) -> np.ndarray:
    """Boolean |P| x |P|: True where phases share an area or adjacent areas."""
    a = part.assignment
    keep = a[:, None] == a[None, :]
    for pair in part.adjacency:
        x, y = sorted(pair)
        keep |= (a[:, None] == x) & (a[None, :] == y)
        keep |= (a[:, None] == y) & (a[None, :] == x)
    return keep


def truncation_error(model: LinearFlowModel, part: AreaPartition) -> float:
    """Relative Frobenius error of G truncated to the same-area and
    neighbor-area couplings of `part`: the norm of the dropped entries over
    that of G, which is also that of N = [G, -iG]."""
    _check_cover(model, part)
    denom = np.linalg.norm(model.g)
    if denom == 0:
        raise LinFlowError("undefined metric: G is zero")
    dropped = np.where(_coupling_mask(part), 0.0, model.g)
    return float(np.linalg.norm(dropped) / denom)


# --- per-area linear maps over the measurement matrix -----------------------

@dataclass(frozen=True)
class AreaMaps:
    """Linear maps E_lj from area-j measurement columns to the area-l residual
    space, plus the affine targets f_l.

    The residual space of area l holds, per time step and per phase (in
    phase order), the real rows [Re v, Im v, |v|]: a (T, 3n_l) block, row t
    the step's rows in the row order of G_lj.  `f[l]` and the solver's
    residual-space quantities are such blocks; the certificate's flat B(X)
    reads them row-major.

    E_lj repeats one per-step block G_lj (3n_l x 5n_j) on every time step.
    Its rows are (phase, [Re v, Im v, |v|]); its columns read the step's
    5 x n_j row block of X_j row-major, (row, phase), so X_j.reshape(T, 5n_j)
    is the per-step matrix with no copy.  For neighbors l != j, G_lj = A_lj
    B_lj exactly, with A_lj orthonormal (3n_l x rho) and rho = rank(G_lj).
    The coordinates of E_lj(X_j) are B_lj applied per step, a (T, rho)
    block; A_lj maps them back into the residual space of l.

    The flow model is held in one form, each area's blocks stacked in
    `partition.neighbors` order j1 ... jd: stacks[l] = S_l = [G_ll; B_{j1 l};
    ...; B_{jd l}], the rows every flow term applies to X_l, and bases[l] =
    A_l = [A_{l j1} ... A_{l jd}], the bases of what l receives.  Each B_jl
    is the rows stack_rows[l][j] of S_l and each A_lj the columns
    basis_cols[l][j] of A_l.  `model` is the linear model they were built
    from; `n_steps`, the dense reference view `e_mats` and the
    `truncation_error` that `cli` reports read it."""

    partition: AreaPartition
    model: LinearFlowModel
    cols: dict[int, np.ndarray]
    f: dict[int, np.ndarray]  # f_l, (T, 3n_l)
    stacks: dict[int, np.ndarray]  # S_l, (3n_l + sum_j rho_jl) x 5n_l
    bases: dict[int, np.ndarray]  # A_l, 3n_l x sum_j rho_lj
    stack_rows: dict[int, dict[int, slice]]
    basis_cols: dict[int, dict[int, slice]]

    @property
    def n_steps(self) -> int:
        return self.model.n_steps

    @property
    def m(self) -> int:
        return ROWS_PER_STEP * self.n_steps

    def residual_dim(self, area: int) -> int:
        return 3 * self.n_steps * self.cols[area].size

    @cached_property
    def e_mats(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense reference views: e_mats[(l, j)] is E_lj as a 3T n_l x m n_j
        matrix acting on the column-major flattening of X_j, for j = l and
        each neighbor.  Assembled from the model on first read; no
        estimation step and no certificate product reads them."""
        return {
            (l, j): _repeat_steps(
                _step_block(self.model, self.cols[l], self.cols[j], same_area=l == j),
                self.cols[j].size, self.n_steps)
            for l in self.partition.areas for j in [l] + self.partition.neighbors(l)
        }

    def coupling_rank(self, l: int, j: int) -> int:
        """rank(G_lj): reals per time step that carry E_lj(X_j)."""
        rows = self.stack_rows[j][l]
        return rows.stop - rows.start


def _slices(sizes: list[int], start: int = 0) -> list[slice]:
    """Consecutive slices of the given sizes from `start`."""
    ends = np.cumsum([start] + sizes).tolist()
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _coupling_factors(
    model: LinearFlowModel, own: np.ndarray, src: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact rank factorization A B, A orthonormal, of the off-diagonal step
    block `_step_block(model, own, src, False)`, formed from G[own, src].

    That block maps the step's injections s to the rows [Re, Im, Re(phase .)]
    of -G conj(s) at each target phase.  A mode sigma_i a_i b_i^H of the
    complex SVD of G[own, src] carries c_i = b_i^H conj(s): two real
    coordinates, Re c_i and Im c_i, whose residual columns are those rows of
    a_i and of i a_i.  So the real rank is twice the complex rank, counted
    at the default tolerance of np.linalg.matrix_rank on the complex
    singular values with the real block's shape.  One QR of the columns
    gives A = Q, and B = R Y for the coordinates' rows Y, which are zero on
    the voltage columns."""
    u, s, vh = np.linalg.svd(model.g[own[:, None], src], full_matrices=False)
    tol = s[0] * max(3 * own.size, ROWS_PER_STEP * src.size) * np.finfo(float).eps
    k = int(np.count_nonzero(s > tol))  # complex rank
    u, y = u[:, :k], -s[:k, None] * vh[:k]  # G[own, src] = -u y
    w = model.w[own]
    pu = (np.conj(w) / np.abs(w))[:, None] * u
    # columns Re c_1 ... Re c_k, then Im c_1 ... Im c_k
    cols = np.stack([u.real, -u.imag, u.imag, u.real, pu.real, -pu.imag], axis=1)
    q, r = np.linalg.qr(cols.reshape(3 * own.size, 2 * k))
    b = np.zeros((2 * k, ROWS_PER_STEP, src.size))  # Re, Im of y conj(s) over rows 3, 4
    b[:k, 3], b[:k, 4], b[k:, 3], b[k:, 4] = y.real, y.imag, y.imag, -y.real
    return q, r @ b.reshape(2 * k, ROWS_PER_STEP * src.size)


def _step_block(
    model: LinearFlowModel, own: np.ndarray, src: np.ndarray, same_area: bool
) -> np.ndarray:
    """Per-step block of E_lj: rows (target phase, [Re v, Im v, |v|]), columns
    (row of one time step, source phase), the row-major order of the step's
    5 x n_j block; within one area the target phase's own voltage rows
    enter with +1.  The injection columns hold N and K, the first-order
    expansion of |w + delta| around w, formed from G[own, src] alone."""
    g = np.zeros((own.size, 3, ROWS_PER_STEP, src.size))
    g_s = model.g[own[:, None], src]
    n_s = np.stack([g_s, -1j * g_s], axis=1)  # (Re s, Im s) columns
    phase = (np.conj(model.w[own]) / np.abs(model.w[own]))[:, None, None]
    g[:, 0, 3:] -= n_s.real
    g[:, 1, 3:] -= n_s.imag
    g[:, 2, 3:] -= np.real(phase * n_s)
    if same_area:
        pos = np.arange(own.size)
        for c in range(3):
            g[pos, c, c, pos] = 1.0
    return g.reshape(3 * own.size, ROWS_PER_STEP * src.size)


def _repeat_steps(g: np.ndarray, n_src: int, t_steps: int) -> np.ndarray:
    """Dense map applying the per-step block g on every time step of
    vec_F(X_src) (an m x n_src block); the output rows are (step, row).  The
    one place the row-major step order of g meets the column-major vec_F."""
    out = np.zeros((t_steps, g.shape[0], n_src, t_steps, ROWS_PER_STEP))
    g3 = g.reshape(g.shape[0], ROWS_PER_STEP, n_src).transpose(0, 2, 1)
    for t in range(t_steps):
        out[t, :, :, t, :] = g3
    return out.reshape(t_steps * g.shape[0], n_src * t_steps * ROWS_PER_STEP)


def build_area_maps(model: LinearFlowModel, part: AreaPartition) -> AreaMaps:
    """Per-step blocks of the truncated model: they read only the same-area
    and neighbor-area couplings, which truncation keeps, so the full model
    and its truncation give the same maps."""
    _check_cover(model, part)
    cols = {l: part.phases_in(l) for l in part.areas}
    w3 = np.stack([model.w.real, model.w.imag, np.abs(model.w)], axis=1)
    f = {l: np.tile(w3[cols[l]].ravel(), (model.n_steps, 1)) for l in part.areas}
    factors = {(l, j): _coupling_factors(model, cols[l], cols[j])
               for l in part.areas for j in part.neighbors(l)}

    stacks, bases, stack_rows, basis_cols = {}, {}, {}, {}
    for l in part.areas:
        nbrs, own = part.neighbors(l), cols[l]
        b_in = [factors[(j, l)][1] for j in nbrs]
        a_in = [factors[(l, j)][0] for j in nbrs]
        stacks[l] = np.concatenate([_step_block(model, own, own, same_area=True)] + b_in)
        bases[l] = np.concatenate([np.empty((3 * own.size, 0))] + a_in, axis=1)
        stack_rows[l] = dict(zip(nbrs, _slices([b.shape[0] for b in b_in], 3 * own.size)))
        basis_cols[l] = dict(zip(nbrs, _slices([a.shape[1] for a in a_in])))

    return AreaMaps(
        partition=part,
        model=model,
        cols=cols,
        f=f,
        stacks=stacks,
        bases=bases,
        stack_rows=stack_rows,
        basis_cols=basis_cols,
    )
