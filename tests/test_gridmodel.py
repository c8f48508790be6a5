import hashlib

import numpy as np
import pytest
from scipy.optimize import fsolve

from gridmc import gridmodel as gm
from reference import _radial_admittance, admittance


def newton_flow_oracle(net, s):
    """Independent power-flow solve: root-find the injection equations
    s_i = v_i * conj(I_i) with scipy's general-purpose solver."""

    n = net.n_phases
    y_ll, y_l0 = admittance(net)

    def residual(x):
        v = x[:n] + 1j * x[n:]
        i_inj = y_ll @ v + y_l0 @ net.v0
        mismatch = v * np.conj(i_inj) - s
        return np.concatenate([mismatch.real, mismatch.imag])

    x0 = np.concatenate([np.ones(n), np.zeros(n)])
    x, info, ier, msg = fsolve(residual, x0, full_output=True, xtol=1e-13)
    assert ier == 1, msg
    return x[:n] + 1j * x[n:]


def two_bus(z=0.03 + 0.02j):
    """One line of impedance z from the slack bus at 1.0 pu."""
    return gm.NetworkModel(parents=np.array([0]), z_line=np.array([[[z]]]),
                           v0=np.array([1.0 + 0j]))


class TestNetworkModel:
    def test_rejects_empty(self):
        with pytest.raises(gm.GridModelError, match="at least one line"):
            gm.NetworkModel(
                parents=np.zeros(0, dtype=int),
                z_line=np.zeros((0, 1, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )

    def test_rejects_bad_slack_count(self):
        with pytest.raises(gm.GridModelError, match="1 or 3 phases"):
            gm.NetworkModel(
                parents=np.array([0]),
                z_line=np.ones((1, 2, 2), dtype=complex),
                v0=np.ones(2, dtype=complex),
            )

    @pytest.mark.parametrize("parents", [[0, 3, 1], [0, 2, 1], [0, -1, 1]],
                             ids=["later", "itself", "negative"])
    def test_rejects_parent_that_does_not_precede_its_child(self, parents):
        # bus 2 hanging off bus 3, off itself, off bus -1
        with pytest.raises(gm.GridModelError, match="precedes its child"):
            gm.NetworkModel(
                parents=np.array(parents),
                z_line=np.full((3, 1, 1), 0.03 + 0.02j),
                v0=np.array([1.0 + 0j]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.03, np.inf)],
                             ids=["nan", "inf", "inf-imag"])
    def test_rejects_non_finite_line_impedance(self, bad):
        z_line = np.full((3, 1, 1), 0.03 + 0.02j)
        z_line[1, 0, 0] = bad
        with pytest.raises(gm.GridModelError, match="finite"):
            gm.NetworkModel(parents=np.array([0, 1, 1]), z_line=z_line,
                            v0=np.array([1.0 + 0j]))

    def test_no_load_voltage_is_read_only(self, small_feeder):
        net, _, _ = small_feeder
        assert net.no_load_voltage is net.no_load_voltage
        with pytest.raises(ValueError):
            net.no_load_voltage[0] = 0.0
        with pytest.raises(ValueError):
            net.z_bus[0, 0] = 0.0

    def test_shape_validation(self):
        # two line blocks for one line; three-phase blocks on a one-phase slack
        for shape in [(2, 1, 1), (1, 3, 3)]:
            with pytest.raises(gm.GridModelError, match="inconsistent"):
                gm.NetworkModel(
                    parents=np.array([0]),
                    z_line=np.ones(shape, dtype=complex),
                    v0=np.array([1.0 + 0j]),
                )

    def test_no_load_voltage_two_bus(self):
        # single line of impedance z from slack at 1.0 pu: w = v0 exactly
        net = two_bus()
        assert np.array_equal(net.no_load_voltage, [1.0 + 0j])
        assert np.array_equal(net.z_bus, [[0.03 + 0.02j]])

    def test_three_phase_bus_major_order(self):
        """Phase (b - 1) n_ph + a is phase a of bus b: on a chain 0-1-2 the
        Z-bus blocks of buses (1, 1), (1, 2) and (2, 1) are line 1's block,
        and (2, 2) is the sum of both lines' blocks."""
        rng = np.random.default_rng(0)
        z_line = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        v0 = np.exp(-2j * np.pi * np.arange(3) / 3)
        net = gm.NetworkModel(parents=np.array([0, 1]), z_line=z_line, v0=v0)
        z = net.z_bus
        assert np.array_equal(z[:3, :3], z_line[0])
        assert np.array_equal(z[3:, :3], z_line[0])
        assert np.array_equal(z[:3, 3:], z_line[0])
        assert np.array_equal(z[3:, 3:], z_line[0] + z_line[1])
        assert np.array_equal(net.no_load_voltage, np.tile(v0, 2))


class TestPathSumZBus:
    """The path-sum Z-bus and no-load voltage equal inv(y_ll) and
    -inv(y_ll) y_l0 v0 of the admittance reference, within TOL of the
    largest |Z| entry (and of |v0| = 1 for w)."""

    TOL = 1e-12

    def check(self, net):
        y_ll, y_l0 = admittance(net)
        z_ref = np.linalg.inv(y_ll)
        w_ref = -z_ref @ (y_l0 @ net.v0)
        scale = np.max(np.abs(z_ref))
        assert np.max(np.abs(net.z_bus - z_ref)) <= self.TOL * scale
        assert np.max(np.abs(net.no_load_voltage - w_ref)) <= self.TOL

    @pytest.mark.parametrize("n_buses", [2, 33, 129, 513])
    @pytest.mark.parametrize("seed", range(3))
    def test_single_phase(self, n_buses, seed):
        self.check(gm.generate_radial_feeder(n_buses, seed=seed)[0])

    @pytest.mark.parametrize("n_buses, seed", [(n, s) for n in (2, 33, 129)
                                               for s in range(3)] + [(513, 0)])
    def test_three_phase(self, n_buses, seed):
        self.check(gm.generate_radial_feeder(n_buses, seed=seed, three_phase=True)[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_feeder33_analog(self, seed):
        self.check(gm.feeder33_analog(seed=seed)[0])


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a.view(float)),
                                                   np.signbit(b.view(float)))


def line_loop_admittance(parents, blocks):
    """Reference: add each line's blocks one line at a time, in bus order."""
    n_lines, n_ph, _ = blocks.shape
    y_full = np.zeros(((n_lines + 1) * n_ph,) * 2, dtype=complex)

    def sl(bus):
        return slice(bus * n_ph, (bus + 1) * n_ph)

    for b in range(1, n_lines + 1):
        yb, p = blocks[b - 1], parents[b - 1]
        y_full[sl(b), sl(b)] += yb
        y_full[sl(p), sl(p)] += yb
        y_full[sl(b), sl(p)] -= yb
        y_full[sl(p), sl(b)] -= yb
    return y_full


class TestRadialAdmittance:
    @pytest.mark.parametrize("n_ph", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_line_by_line_loop(self, n_ph, seed):
        # star-heavy random trees, so some buses sum many lines' terms
        rng = np.random.default_rng(seed)
        n_lines = 40
        parents = np.array([rng.integers(0, min(b, 4)) for b in range(1, n_lines + 1)])
        blocks = (rng.standard_normal((n_lines, n_ph, n_ph))
                  + 1j * rng.standard_normal((n_lines, n_ph, n_ph)))
        y_full = _radial_admittance(parents, blocks)
        reference = line_loop_admittance(parents, blocks)
        assert same_bits(y_full, reference)


class TestLineBlocks:
    """Each generator stores its line impedance draws as the network's line
    blocks, bit for bit: ``z`` on a single-phase feeder and ``z * M`` on a
    three-phase one, with mutual-impedance pattern M."""

    MUTUAL = np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3))

    @staticmethod
    def captured(monkeypatch, build):
        """The network `build()` returns and its line impedances (the
        feeder's first `_sample_complex` draw)."""
        draws = []
        sample = gm._sample_complex
        monkeypatch.setattr(gm, "_sample_complex",
                            lambda *args: draws.append(sample(*args)) or draws[-1])
        return build()[0], draws[0]

    @pytest.mark.parametrize("three_phase", [False, True])
    @pytest.mark.parametrize("n_buses", [8, 33, 129])
    @pytest.mark.parametrize("seed", range(3))
    def test_radial_feeder(self, monkeypatch, three_phase, n_buses, seed):
        net, z = self.captured(monkeypatch, lambda: gm.generate_radial_feeder(
            n_buses, seed=seed, three_phase=three_phase))
        if three_phase:
            per_line = [zk * self.MUTUAL for zk in z[1:]]
        else:
            per_line = [np.array([[zk]]) for zk in z[1:]]
        assert same_bits(net.z_line, np.stack(per_line))

    @pytest.mark.parametrize("seed", range(3))
    def test_feeder33_analog(self, monkeypatch, seed):
        net, z = self.captured(monkeypatch, lambda: gm.feeder33_analog(seed=seed))
        assert same_bits(net.z_line, np.stack([np.array([[zk]]) for zk in z]))


class TestAreaPartition:
    def test_every_area_nonempty(self):
        with pytest.raises(gm.GridModelError):
            gm.AreaPartition(assignment=np.array([1, 1, 3]), n_areas=3)

    def test_adjacency_no_self_pairs(self):
        with pytest.raises(gm.GridModelError):
            gm.AreaPartition(
                assignment=np.array([1, 2]),
                n_areas=2,
                adjacency=frozenset({frozenset({1})}),
            )

    def test_neighbors_symmetric(self):
        part = gm.AreaPartition.contiguous(10, 4)
        for a in part.areas:
            for b in part.neighbors(a):
                assert a in part.neighbors(b)

    def test_contiguous_covers_all(self):
        part = gm.AreaPartition.contiguous(7, 3)
        sizes = [part.phases_in(a).size for a in part.areas]
        assert sum(sizes) == 7
        assert min(sizes) >= 1

    def test_single_area_has_no_neighbors(self):
        part = gm.AreaPartition.contiguous(5, 1)
        assert part.neighbors(1) == []


class TestGenerateRadialFeeder:
    def test_deterministic_per_seed(self):
        a1, l1 = gm.generate_radial_feeder(10, seed=5, n_steps=3)
        a2, l2 = gm.generate_radial_feeder(10, seed=5, n_steps=3)
        assert np.array_equal(a1.parents, a2.parents)
        assert np.array_equal(a1.z_line, a2.z_line)
        assert np.array_equal(l1, l2)

    def test_shapes(self):
        net, loads = gm.generate_radial_feeder(8, n_steps=4)
        assert net.n_phases == 7
        assert loads.shape == (4, 7)

    def test_three_phase_mode(self):
        net, loads = gm.generate_radial_feeder(5, three_phase=True)
        assert net.n_phases == 12
        assert net.z_line.shape == (4, 3, 3)
        assert net.z_bus.shape == (12, 12)

    def test_rejects_single_bus(self):
        with pytest.raises(gm.GridModelError):
            gm.generate_radial_feeder(1)

    def test_rejects_no_time_steps(self):
        with pytest.raises(gm.GridModelError, match="time step"):
            gm.generate_radial_feeder(9, n_steps=0)

    def test_admittance_row_sums_vanish_with_slack(self):
        # Kirchhoff structure: [y_l0, y_ll] rows sum to zero for a pure
        # line network
        net, _ = gm.generate_radial_feeder(9, seed=1)
        y_ll, y_l0 = admittance(net)
        rows = np.hstack([y_l0, y_ll]).sum(axis=1)
        assert np.max(np.abs(rows)) < 1e-12


class TestFeederPins:
    # sha256 over the bytes of y_ll, y_l0, v0 and s, in that order, as
    # generated before loads were scaled with feeder size; y_ll and y_l0
    # are rebuilt from the network's tree and line impedances
    PINNED = {
        (9, 2, 2, False): "5144e4eaa9a6f8061f2bdebb67cd3da5c3758e301044a98bdcbdf1c5796a2019",
        (33, 0, 5, False): "168f26b23d48ac5d74243a98eecb408ec8d3fb4ef2eb30564f2d170b7e344fe4",
        (129, 0, 5, False): "49b7556fd2591d9a75e818519b2ae51988bf53e872b3803240e4b184ab91cc66",
        (29, 1, 3, True): "cc0966a93961c0025d4f0a4cd4392f680fc7bfac8573e294c7ed849cae0d3a5c",
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_feeders_up_to_129_buses_are_unchanged(self, key):
        n_buses, seed, n_steps, three_phase = key
        net, s = gm.generate_radial_feeder(n_buses, seed=seed, n_steps=n_steps,
                                              three_phase=three_phase)
        digest = hashlib.sha256()
        for a in (*admittance(net), net.v0, s):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == self.PINNED[key]

    @pytest.mark.parametrize("n_buses", [385, 513])
    def test_large_feeders_solve(self, n_buses):
        """Unscaled, these loads collapsed the flow (DivergedFlowError at
        residuals 0.38 and 0.73)."""
        net, s = gm.generate_radial_feeder(n_buses, seed=0, n_steps=2)
        v = gm.solve_exact_flow(net, s)
        assert np.min(np.abs(v)) > 0.8


class TestFeeder33Analog:
    def test_partition_sizes(self):
        _, _, part = gm.feeder33_analog(n_areas=4)
        assert [part.phases_in(a).size for a in part.areas] == [17, 4, 3, 8]

    def test_unknown_partition_count(self):
        with pytest.raises(gm.GridModelError):
            gm.feeder33_analog(n_areas=7)

    def test_phase_count(self):
        net, loads, part = gm.feeder33_analog(n_steps=3, n_areas=5)
        assert net.n_phases == 32
        assert loads.shape == (3, 32)
        assert part.n_areas == 5


class TestSolveExactFlow:
    def test_fixed_point_residual(self, small_feeder):
        net, s, _ = small_feeder
        v = gm.solve_exact_flow(net, s[:1])
        w = net.no_load_voltage
        residual = v - (w + (np.conj(s[:1]) / np.conj(v)) @ net.z_bus.T)
        assert np.max(np.abs(residual)) <= 1e-10

    @pytest.mark.parametrize("feeder", ["feeder33", "random129"])
    def test_admittance_form_residual(self, feeder):
        """The flow equations in admittance form, Y_LL (v - w) = conj(s) /
        conj(v), checked with the admittance reference's Y_LL rather than
        through the Z-bus the solver uses.  The last sweep moves v by at
        most tol, so the residual is at most |Y_LL|_inf tol plus rounding."""
        if feeder == "feeder33":
            net, s, _ = gm.feeder33_analog(seed=0, n_steps=5, n_areas=5)
        else:
            net, s = gm.generate_radial_feeder(129, seed=0, n_steps=5)
        tol = 1e-10
        v = gm.solve_exact_flow(net, s, tol=tol)
        y_ll = admittance(net)[0]
        residual = (v - net.no_load_voltage) @ y_ll.T - np.conj(s) / np.conj(v)
        assert np.max(np.abs(residual)) <= 2 * np.linalg.norm(y_ll, np.inf) * tol

    def test_matches_newton_oracle(self, small_feeder):
        net, s, _ = small_feeder
        v_fp = gm.solve_exact_flow(net, s[:1])[0]
        v_newton = newton_flow_oracle(net, s[0])
        assert np.max(np.abs(v_fp - v_newton)) < 1e-8

    def test_two_bus_closed_form(self):
        # one line, one load: v solves v*conj((v - v0)/z) = s, a scalar
        # quadratic with closed-form root
        z = 0.05 + 0.03j
        s = -0.04 - 0.01j
        net = two_bus(z)
        v = gm.solve_exact_flow(net, np.array([[s]]))[0, 0]
        # verify against the quadratic v^2 - v0 v - z conj(s) scaled form
        assert abs(v * np.conj((v - 1.0) / z) - s) < 1e-8

    def test_zero_load_gives_no_load_profile(self, small_feeder):
        net, _, _ = small_feeder
        v = gm.solve_exact_flow(net, np.zeros((1, net.n_phases), dtype=complex))
        assert np.allclose(v[0], net.no_load_voltage, atol=1e-12)

    def test_diverges_on_absurd_load(self, small_feeder):
        net, _, _ = small_feeder
        s = np.full((1, net.n_phases), -50.0 - 20.0j)
        with pytest.raises(gm.DivergedFlowError):
            gm.solve_exact_flow(net, s)

    def test_non_finite_load_reports_sweeps_run(self, small_feeder):
        net, s, _ = small_feeder
        s = s.copy()
        s[1, 3] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(gm.DivergedFlowError) as excinfo:
            gm.solve_exact_flow(net, s)
        assert excinfo.value.iterations == 1

    def test_multi_step(self, small_feeder):
        net, s, _ = small_feeder
        v = gm.solve_exact_flow(net, s)
        assert v.shape == s.shape

    def test_rejects_a_window_that_is_not_t_by_phases(self, small_feeder):
        """A single (|P|,) vector, a window of the wrong width or a 3-D array
        is refused with a typed error naming the window shape."""
        net, s, _ = small_feeder
        for bad in (s[0], s[:, :-1], s[..., None]):
            with pytest.raises(gm.GridModelError, match=r"\(T, \|P\|\) = \(T, 8\)"):
                gm.solve_exact_flow(net, bad)

    WINDOWS = {
        "feeder33": lambda: gm.feeder33_analog(seed=0, n_steps=10, n_areas=1)[:2],
        "random": lambda: gm.generate_radial_feeder(129, seed=0, n_steps=5),
        "three_phase": lambda: gm.generate_radial_feeder(33, seed=0, n_steps=5,
                                                         three_phase=True),
    }

    @pytest.mark.parametrize("feeder", list(WINDOWS))
    def test_batched_equals_row_by_row(self, feeder):
        """A window and its steps solved one (1, |P|) window at a time agree
        within 1e-14 of max|v|: one product over the window rounds
        differently from a product per step (1.24e-16 measured, at 1 and 2
        BLAS threads), and each step still stops on its own residual."""
        net, s = self.WINDOWS[feeder]()
        batched = gm.solve_exact_flow(net, s)
        rows = np.concatenate([gm.solve_exact_flow(net, s[t:t + 1])
                               for t in range(len(s))])
        assert batched.shape == s.shape
        assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))
