import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import fsolve

from gridmc import gridmodel as gm


def newton_flow_oracle(net, s):
    """Independent power-flow solve: root-find the injection equations
    s_i = v_i * conj(I_i) with scipy's general-purpose solver."""

    n = net.n_phases

    def residual(x):
        v = x[:n] + 1j * x[n:]
        i_inj = net.y_ll @ v + net.y_l0 @ net.v0
        mismatch = v * np.conj(i_inj) - s
        return np.concatenate([mismatch.real, mismatch.imag])

    x0 = np.concatenate([np.ones(n), np.zeros(n)])
    x, info, ier, msg = fsolve(residual, x0, full_output=True, xtol=1e-13)
    assert ier == 1, msg
    return x[:n] + 1j * x[n:]


class TestNetworkModel:
    def test_rejects_empty(self):
        with pytest.raises(gm.GridModelError, match="at least one"):
            gm.NetworkModel(
                y_ll=np.zeros((0, 0), dtype=complex),
                y_l0=np.zeros((0, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )

    def test_rejects_bad_slack_count(self):
        with pytest.raises(gm.GridModelError, match="1 or 3 phases"):
            gm.NetworkModel(
                y_ll=np.eye(1, dtype=complex),
                y_l0=np.zeros((1, 2), dtype=complex),
                v0=np.ones(2, dtype=complex),
            )

    def test_singular_admittance_rejected(self):
        y_ll = np.ones((2, 2), dtype=complex)  # rank 1
        with pytest.raises(gm.SingularAdmittanceError):
            gm.NetworkModel(
                y_ll=y_ll,
                y_l0=np.zeros((2, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )

    def test_exactly_singular_raises_through_lapack(self):
        with pytest.raises(gm.SingularAdmittanceError) as excinfo:
            gm.NetworkModel(
                y_ll=np.ones((2, 2), dtype=complex),
                y_l0=np.zeros((2, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    def test_rank_deficient_up_to_rounding_rejected(self):
        # rank 2 in exact arithmetic; in floating point the LU's last pivot
        # is about 3.5e-16, not zero, so LAPACK solves without complaint
        u = np.array([1.0 + 0.5j, 0.3 - 0.2j, 0.7 + 0.1j])
        v = np.array([0.9 - 0.4j, 1.1 + 0.3j, -0.6 + 0.8j])
        y_ll = np.outer(u, u) + np.outer(v, v)
        np.linalg.solve(y_ll, np.ones(3))
        with pytest.raises(gm.SingularAdmittanceError, match="condition"):
            gm.NetworkModel(
                y_ll=y_ll,
                y_l0=np.zeros((3, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )

    def test_no_load_voltage_is_read_only(self, small_feeder):
        net, _, _ = small_feeder
        assert net.no_load_voltage is net.no_load_voltage
        with pytest.raises(ValueError):
            net.no_load_voltage[0] = 0.0

    def test_shape_validation(self):
        with pytest.raises(gm.GridModelError):
            gm.NetworkModel(
                y_ll=np.eye(2, dtype=complex),
                y_l0=np.zeros((1, 1), dtype=complex),
                v0=np.array([1.0 + 0j]),
            )

    def test_no_load_voltage_two_bus(self):
        # single line of impedance z from slack at 1.0 pu: w = v0 exactly
        z = 0.03 + 0.02j
        net = gm.NetworkModel(
            y_ll=np.array([[1 / z]]),
            y_l0=np.array([[-1 / z]]),
            v0=np.array([1.0 + 0j]),
        )
        assert np.allclose(net.no_load_voltage, [1.0 + 0j], atol=1e-14)


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
        y_full = gm._radial_admittance(parents, blocks)
        reference = line_loop_admittance(parents, blocks)
        assert same_bits(y_full, reference)


class TestLineBlocks:
    """The line admittance blocks, built for all lines at once, equal the
    blocks built one line at a time, and so do the networks they make."""

    MUTUAL = np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3))

    @staticmethod
    def captured(monkeypatch, build):
        """The network `build()` returns, its line impedances (the feeder's
        first `_sample_complex` draw) and its `_radial_network` arguments."""
        draws, calls = [], []
        sample, network = gm._sample_complex, gm._radial_network
        monkeypatch.setattr(gm, "_sample_complex",
                            lambda *args: draws.append(sample(*args)) or draws[-1])
        monkeypatch.setattr(gm, "_radial_network",
                            lambda *args: calls.append(args) or network(*args))
        return build()[0], draws[0], calls[0]

    def check(self, net, args, per_line):
        parents, blocks, v0 = args
        per_line = np.stack(per_line)
        ref = gm._radial_network(parents, per_line, v0)
        assert same_bits(blocks, per_line)
        for got, want in [(net.y_ll, ref.y_ll), (net.y_l0, ref.y_l0),
                          (net.z_bus, ref.z_bus)]:
            assert same_bits(got, want)

    @pytest.mark.parametrize("three_phase", [False, True])
    @pytest.mark.parametrize("n_buses", [8, 33, 129])
    @pytest.mark.parametrize("seed", range(3))
    def test_radial_feeder(self, monkeypatch, three_phase, n_buses, seed):
        net, z, args = self.captured(monkeypatch, lambda: gm.generate_radial_feeder(
            n_buses, seed=seed, three_phase=three_phase))
        if three_phase:
            per_line = [np.linalg.inv(zk * self.MUTUAL) for zk in z[1:]]
        else:
            per_line = [np.array([[1.0 / zk]]) for zk in z[1:]]
        self.check(net, args, per_line)

    @pytest.mark.parametrize("seed", range(3))
    def test_feeder33_analog(self, monkeypatch, seed):
        net, z, args = self.captured(monkeypatch, lambda: gm.feeder33_analog(seed=seed))
        self.check(net, args, [np.array([[1.0 / zk]]) for zk in z])


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
        assert np.array_equal(a1.y_ll, a2.y_ll)
        assert np.array_equal(l1.s, l2.s)

    def test_shapes(self):
        net, loads = gm.generate_radial_feeder(8, n_steps=4)
        assert net.n_phases == 7
        assert loads.s.shape == (4, 7)

    def test_three_phase_mode(self):
        net, loads = gm.generate_radial_feeder(5, three_phase=True)
        assert net.n_phases == 12
        assert net.y_l0.shape == (12, 3)

    def test_rejects_single_bus(self):
        with pytest.raises(gm.GridModelError):
            gm.generate_radial_feeder(1)

    def test_admittance_row_sums_vanish_with_slack(self):
        # Kirchhoff structure: [y_l0, y_ll] rows sum to zero for a pure
        # line network
        net, _ = gm.generate_radial_feeder(9, seed=1)
        rows = np.hstack([net.y_l0, net.y_ll]).sum(axis=1)
        assert np.max(np.abs(rows)) < 1e-12


class TestFeederPins:
    # sha256 over the bytes of y_ll, y_l0, v0 and s, in that order, as
    # generated before loads were scaled with feeder size
    PINNED = {
        (9, 2, 2, False): "5144e4eaa9a6f8061f2bdebb67cd3da5c3758e301044a98bdcbdf1c5796a2019",
        (33, 0, 5, False): "168f26b23d48ac5d74243a98eecb408ec8d3fb4ef2eb30564f2d170b7e344fe4",
        (129, 0, 5, False): "49b7556fd2591d9a75e818519b2ae51988bf53e872b3803240e4b184ab91cc66",
        (29, 1, 3, True): "cc0966a93961c0025d4f0a4cd4392f680fc7bfac8573e294c7ed849cae0d3a5c",
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_feeders_up_to_129_buses_are_unchanged(self, key):
        n_buses, seed, n_steps, three_phase = key
        net, scen = gm.generate_radial_feeder(n_buses, seed=seed, n_steps=n_steps,
                                              three_phase=three_phase)
        digest = hashlib.sha256()
        for a in (net.y_ll, net.y_l0, net.v0, scen.s):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == self.PINNED[key]

    @pytest.mark.parametrize("n_buses", [385, 513])
    def test_large_feeders_solve(self, n_buses):
        """Unscaled, these loads collapsed the flow (DivergedFlowError at
        residuals 0.38 and 0.73)."""
        net, scen = gm.generate_radial_feeder(n_buses, seed=0, n_steps=2)
        v = gm.solve_exact_flow(net, scen.s)
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
        assert loads.s.shape == (3, 32)
        assert part.n_areas == 5


class TestSolveExactFlow:
    def test_fixed_point_residual(self, small_feeder):
        net, scen, _ = small_feeder
        v = gm.solve_exact_flow(net, scen.s[0])
        w = net.no_load_voltage
        residual = v - (w + net.solve_y_ll(np.conj(scen.s[0]) / np.conj(v)))
        assert np.max(np.abs(residual)) <= 1e-10

    @pytest.mark.parametrize("feeder", ["feeder33", "random129"])
    def test_admittance_form_residual(self, feeder):
        """The flow equations in admittance form, Y_LL (v - w) = conj(s) /
        conj(v), checked with Y_LL itself rather than through the Z-bus the
        solver uses.  The last sweep moves v by at most tol, so the residual
        is at most |Y_LL|_inf tol plus rounding."""
        if feeder == "feeder33":
            net, scen, _ = gm.feeder33_analog(seed=0, n_steps=5, n_areas=5)
        else:
            net, scen = gm.generate_radial_feeder(129, seed=0, n_steps=5)
        tol = 1e-10
        v = gm.solve_exact_flow(net, scen.s, tol=tol)
        residual = (v - net.no_load_voltage) @ net.y_ll.T - np.conj(scen.s) / np.conj(v)
        assert np.max(np.abs(residual)) <= 2 * np.linalg.norm(net.y_ll, np.inf) * tol

    def test_matches_newton_oracle(self, small_feeder):
        net, scen, _ = small_feeder
        v_fp = gm.solve_exact_flow(net, scen.s[0])
        v_newton = newton_flow_oracle(net, scen.s[0])
        assert np.max(np.abs(v_fp - v_newton)) < 1e-8

    def test_two_bus_closed_form(self):
        # one line, one load: v solves v*conj((v - v0)/z) = s, a scalar
        # quadratic with closed-form root
        z = 0.05 + 0.03j
        s = -0.04 - 0.01j
        net = gm.NetworkModel(
            y_ll=np.array([[1 / z]]),
            y_l0=np.array([[-1 / z]]),
            v0=np.array([1.0 + 0j]),
        )
        v = gm.solve_exact_flow(net, np.array([s]))[0]
        # verify against the quadratic v^2 - v0 v - z conj(s) scaled form
        assert abs(v * np.conj((v - 1.0) / z) - s) < 1e-8

    def test_zero_load_gives_no_load_profile(self, small_feeder):
        net, _, _ = small_feeder
        v = gm.solve_exact_flow(net, np.zeros(net.n_phases, dtype=complex))
        assert np.allclose(v, net.no_load_voltage, atol=1e-12)

    def test_diverges_on_absurd_load(self, small_feeder):
        net, _, _ = small_feeder
        s = np.full(net.n_phases, -50.0 - 20.0j)
        with pytest.raises(gm.DivergedFlowError):
            gm.solve_exact_flow(net, s)

    def test_non_finite_load_reports_sweeps_run(self, small_feeder):
        net, scen, _ = small_feeder
        s = scen.s.copy()
        s[1, 3] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(gm.DivergedFlowError) as excinfo:
            gm.solve_exact_flow(net, s)
        assert excinfo.value.iterations == 1

    def test_multi_step(self, small_feeder):
        net, scen, _ = small_feeder
        v = gm.solve_exact_flow(net, scen.s)
        assert v.shape == scen.s.shape

    # The thread count changes the rounding of a multi-column LAPACK solve,
    # and this process's BLAS may run several; a fresh interpreter pins one.
    ROW_BY_ROW = """
import sys
import numpy as np
from gridmc import gridmodel as gm
if sys.argv[1] == "feeder33":
    net, scen, _ = gm.feeder33_analog(seed=0, n_steps=10, n_areas=1)
else:
    net, scen = gm.generate_radial_feeder(129, seed=0, n_steps=5)
batched = gm.solve_exact_flow(net, scen.s)
rows = np.stack([gm.solve_exact_flow(net, row) for row in scen.s])
print(batched.shape == scen.s.shape and np.array_equal(batched, rows))
"""

    @pytest.mark.parametrize("feeder", ["feeder33", "random"])
    def test_batched_equals_row_by_row(self, feeder):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", self.ROW_BY_ROW, feeder],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

