"""Network data model, area partitions, synthetic radial feeders, and an
exact fixed-point power-flow solver used to produce ground-truth voltages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridModelError(Exception):
    """Base class for network-model failures."""


class DivergedFlowError(GridModelError):
    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power flow diverged: residual {residual:.3e} after {iterations} iterations"
        )


@dataclass(frozen=True)
class NetworkModel:
    """A radial feeder without shunts, per-unit.  Bus 0 is the slack bus;
    bus b >= 1 hangs off bus ``parents[b - 1]`` through a line whose
    n_ph x n_ph impedance block is ``z_line[b - 1]``.  Phase index
    ``(b - 1) n_ph + a`` is phase a of bus b.

    Construction forms the Z-bus once, as ``Z = P D_z P^T``: P is the 0/1
    bus-by-line path matrix (P[i, e] = 1 when line e lies on bus i's path
    to the slack bus) and D_z holds the line blocks, so Z_ik sums the
    impedance of the lines that buses i and k share on their way to the
    slack bus.  The no-load voltage is v0 at every bus.
    """

    parents: np.ndarray  # parent bus of buses 1..n, each parent before its child
    z_line: np.ndarray  # n x n_ph x n_ph line impedance blocks
    v0: np.ndarray  # slack voltage, one entry per slack phase
    # Z and w, the no-load voltage: formed once, at construction; read-only
    z_bus: np.ndarray = field(init=False, repr=False, compare=False)
    no_load_voltage: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, n_ph = self.parents.size, self.v0.size
        if n < 1:
            raise GridModelError("network must have at least one line")
        if self.v0.shape != (n_ph,) or n_ph not in (1, 3):
            raise GridModelError("slack bus must have 1 or 3 phases")
        if self.z_line.shape != (n, n_ph, n_ph):
            raise GridModelError(
                f"z_line shape {self.z_line.shape} inconsistent with {n} lines of "
                f"{n_ph} phases"
            )
        if self.parents.shape != (n,) or not np.all(
                (0 <= self.parents) & (self.parents <= np.arange(n))):
            raise GridModelError("each parent must be a bus that precedes its child")
        if not np.all(np.isfinite(self.z_line)):
            raise GridModelError("line impedances must be finite")
        path = np.zeros((n, n))
        for b, a in enumerate(self.parents):
            if a:
                path[b] = path[a - 1]
            path[b, b] = 1.0
        # one (n_ph^2 n x n) (n x n) product: block (a, c) is P diag(z_ac) P^T
        scaled = (self.z_line.transpose(1, 2, 0)[:, :, None, :] * path).reshape(-1, n)
        z = (scaled @ path.T).reshape(n_ph, n_ph, n, n).transpose(2, 0, 3, 1)
        z = z.reshape(n * n_ph, n * n_ph)
        z.flags.writeable = False
        object.__setattr__(self, "z_bus", z)
        w = np.tile(self.v0, n)
        w.flags.writeable = False
        object.__setattr__(self, "no_load_voltage", w)

    @property
    def n_phases(self) -> int:
        return len(self.z_bus)


@dataclass(frozen=True)
class AreaPartition:
    """Assignment of phase indices to areas plus the area adjacency graph."""

    assignment: np.ndarray  # int area id in [1, n_areas] per phase index
    n_areas: int
    adjacency: frozenset[frozenset[int]] = field(default_factory=frozenset)

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        object.__setattr__(self, "assignment", a)
        if self.n_areas < 1:
            raise GridModelError("partition needs at least one area")
        present = set(np.unique(a).tolist())
        if present != set(range(1, self.n_areas + 1)):
            raise GridModelError(
                f"every area in 1..{self.n_areas} must be non-empty, got {sorted(present)}"
            )
        for pair in self.adjacency:
            if len(pair) != 2:
                raise GridModelError("adjacency pairs must join two distinct areas")
            if not all(1 <= x <= self.n_areas for x in pair):
                raise GridModelError("adjacency references unknown area")

    @property
    def areas(self) -> list[int]:
        return list(range(1, self.n_areas + 1))

    def phases_in(self, area: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == area)

    def neighbors(self, area: int) -> list[int]:
        out = set()
        for pair in self.adjacency:
            if area in pair:
                out.add(next(x for x in pair if x != area))
        return sorted(out)

    @classmethod
    def contiguous(cls, n_phases: int, n_areas: int) -> "AreaPartition":
        """Split phases into n_areas contiguous index ranges, chain adjacency."""
        assignment = 1 + (np.arange(n_phases) * n_areas) // n_phases
        adjacency = frozenset(
            frozenset((a, a + 1)) for a in range(1, n_areas)
        )
        return cls(assignment=assignment, n_areas=n_areas, adjacency=adjacency)


def _sample_complex(rng: np.random.Generator, lo: complex, hi: complex,
                    size) -> np.ndarray:
    re = rng.uniform(lo.real, hi.real, size)
    im = rng.uniform(lo.imag, hi.imag, size)
    return re + 1j * im


def _load_scenario(rng: np.random.Generator, n: int, n_steps: int,
                   scale: float = 1.0) -> np.ndarray:
    """The n_steps x n complex injections of consumption at n phases: a base
    value per phase (times ``scale``), a smooth ramp and 1% process noise,
    drawn from rng in that order."""
    if n_steps < 1:
        raise GridModelError(f"need at least one time step, got n_steps={n_steps}")
    base = scale * _sample_complex(rng, 0.002 + 0.0005j, 0.01 + 0.004j, n)
    t = np.arange(n_steps) / n_steps
    ramp = 1.0 + 0.2 * t[:, None]  # smooth loading increase over the window
    noise = 1.0 + 0.01 * rng.standard_normal((n_steps, n))
    return -base[None, :] * ramp * noise  # negative: consumption


def generate_radial_feeder(
    n_buses: int,
    seed: int = 0,
    n_steps: int = 1,
    three_phase: bool = False,
) -> tuple[NetworkModel, np.ndarray]:
    """Generate a connected radial feeder rooted at the slack bus, and its
    T x |P| complex injections.

    Bus 0 is the slack bus.  Each new bus attaches to the previous bus with
    probability 1/2, otherwise to a uniformly random earlier bus.  In
    three-phase mode the tree is replicated per phase with inter-phase
    mutual impedance at 0.3x the self impedance.  Loads follow
    `_load_scenario` over ``n_steps``, scaled by ``min(1, 129 / n_buses)``:
    the chain to the deepest bus grows with the feeder, so a fixed per-bus
    load would collapse the voltage of a large one.  Feeders of at most 129
    buses keep their unscaled loads.
    """
    if n_buses < 2:
        raise GridModelError("need at least 2 buses (slack + one load bus)")
    rng = np.random.default_rng(seed)

    parents = np.zeros(n_buses, dtype=int)
    for b in range(1, n_buses):
        if b == 1 or rng.random() > 0.5:
            parents[b] = b - 1
        else:
            parents[b] = int(rng.integers(0, b))

    z = _sample_complex(rng, 0.01 + 0.01j, 0.04 + 0.03j, n_buses)[1:, None, None]

    if three_phase:
        z = z * (np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3)))
        v0 = np.exp(-2j * np.pi * np.arange(3) / 3)
    else:
        v0 = np.array([1.0 + 0.0j])
    net = NetworkModel(parents=parents[1:], z_line=z, v0=v0)
    return net, _load_scenario(rng, net.n_phases, n_steps,
                               scale=min(1.0, 129 / n_buses))


# Parent bus of buses 2..33 in the classic 33-bus radial feeder: a main
# trunk (2..18) with laterals off buses 2, 3, and 6.
_FEEDER33_PARENTS = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,  # trunk
    2, 19, 20, 21,  # lateral off bus 2
    3, 23, 24,      # lateral off bus 3
    6, 26, 27, 28, 29, 30, 31, 32,  # lateral off bus 6
)

# Contiguous area splits of the 32 non-slack buses.  The canonical 4-area
# partition keeps the trunk whole and puts each lateral in its own area, so
# every lateral area neighbors only the trunk.  The 5-area partition splits
# the trunk; the long lateral attaches near the head but couples strongly to
# the deep trunk, so that pair is declared adjacent as well.
_FEEDER33_PARTITIONS = {
    1: ((32,), ()),
    2: ((17, 15), ((1, 2),)),
    3: ((17, 7, 8), ((1, 2), (1, 3))),
    4: ((17, 4, 3, 8), ((1, 2), (1, 3), (1, 4))),
    5: ((8, 9, 4, 3, 8), ((1, 2), (1, 3), (1, 4), (1, 5), (2, 5))),
}


def feeder33_analog(
    seed: int = 0,
    n_steps: int = 1,
    n_areas: int = 4,
) -> tuple[NetworkModel, np.ndarray, AreaPartition]:
    """Desk-scale stand-in for the 33-bus feeder with its canonical 4-area
    contiguous partition.  Topology is fixed; impedances and loads are
    sampled per seed.  Loads follow the same `_load_scenario` as
    generate_radial_feeder."""
    if n_areas not in _FEEDER33_PARTITIONS:
        raise GridModelError(f"no canonical partition with {n_areas} areas")
    rng = np.random.default_rng(seed)
    n = len(_FEEDER33_PARENTS)  # 32 non-slack buses

    z = _sample_complex(rng, 0.02 + 0.01j, 0.06 + 0.04j, n)
    net = NetworkModel(parents=np.array(_FEEDER33_PARENTS) - 1,
                       z_line=z[:, None, None], v0=np.array([1.0 + 0.0j]))
    s = _load_scenario(rng, n, n_steps)

    sizes, adjacency = _FEEDER33_PARTITIONS[n_areas]
    assignment = np.concatenate(
        [np.full(sz, i + 1) for i, sz in enumerate(sizes)]
    )
    part = AreaPartition(
        assignment=assignment,
        n_areas=n_areas,
        adjacency=frozenset(frozenset(p) for p in adjacency),
    )
    return net, s, part


def solve_exact_flow(
    net: NetworkModel,
    s: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve the nonlinear power flow by the Z-bus fixed-point iteration.

    Returns the T x |P| voltages v with v_t = w + Z diag(conj(v_t))^{-1}
    conj(s_t) to residual infinity-norm <= tol, for each row s_t of the
    T x |P| injections s.  The rows are swept together: each sweep is one
    product with the network's Z-bus, over the rows not yet converged, and a
    row stops on its own residual.  A sweep's residual product is the next
    sweep's iterate, so it is never repeated.  Raises DivergedFlowError,
    with the number of sweeps run and the residual of the earliest failing
    row, when a row's voltage turns non-finite or collapses, or when a row
    has not converged after max_iters sweeps, and GridModelError when s is
    not a (T, |P|) window.
    """
    rhs = np.conj(np.asarray(s, dtype=complex))
    if rhs.ndim != 2 or rhs.shape[1] != net.n_phases:
        raise GridModelError(f"injections must be a (T, |P|) = (T, {net.n_phases}) "
                             f"window, got shape {rhs.shape}")
    w, z_t = net.no_load_voltage, net.z_bus.T
    out = np.empty_like(rhs)
    active = np.arange(rhs.shape[0])
    v = w + (rhs / np.conj(w)) @ z_t
    residual = np.full(rhs.shape[0], np.inf)
    for it in range(max_iters):
        v_next = w + (rhs[active] / np.conj(v)) @ z_t
        residual = np.max(np.abs(v - v_next), axis=1)
        done = residual <= tol
        out[active[done]] = v[done]
        broken = ~done & (~np.all(np.isfinite(v), axis=1)
                          | (np.min(np.abs(v), axis=1) < 1e-6))
        if broken.any():
            raise DivergedFlowError(residual=float(residual[broken][0]),
                                    iterations=it + 1)
        active, v = active[~done], v_next[~done]
        if active.size == 0:
            return out
    raise DivergedFlowError(residual=float(residual[0]), iterations=max_iters)
