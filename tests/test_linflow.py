import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import gridmodel as gm
from gridmc import linflow as lf
from gridmc import simnet as sn
from reference import (apply, apply_adjoint, decentralized_flow, expand, factor_step_block,
                       factors, h_from_loads, predict, project, real_maps, sources,
                       step_block, step_block_loop, truncate_model)


class TestBuildLinearModel:
    def test_shapes(self, small_instance):
        model = small_instance["model"]
        n = small_instance["net"].n_phases
        assert model.g.shape == (n, n)
        n_mat, k_mat = real_maps(model)
        assert n_mat.shape == (n, 2 * n)
        assert k_mat.shape == (n, 2 * n)

    def test_matches_finite_difference(self, small_feeder):
        """Columns of N and K equal the sensitivity of the exact flow to each
        load component, evaluated at zero load."""
        net, _, _ = small_feeder
        n_mat, k_mat = real_maps(lf.build_linear_model(net))
        n = net.n_phases
        eps = 1e-7
        for col in [0, 2, n, n + 3]:
            s = np.zeros((1, n), dtype=complex)
            if col < n:
                s[0, col] = eps
            else:
                s[0, col - n] = 1j * eps
            v = gm.solve_exact_flow(net, s, tol=1e-14)[0]
            dv = (v - net.no_load_voltage) / eps
            dmag = (np.abs(v) - np.abs(net.no_load_voltage)) / eps
            assert np.max(np.abs(dv - n_mat[:, col])) < 1e-5
            assert np.max(np.abs(dmag - k_mat[:, col])) < 1e-5

    def test_prediction_accuracy(self, small_instance):
        model = small_instance["model"]
        s = small_instance["s"]
        v_exact = small_instance["v"]
        v_lin, vmag_lin = predict(model, h_from_loads(s))
        assert np.max(np.abs(v_lin - v_exact)) < 0.01
        assert np.max(np.abs(vmag_lin - np.abs(v_exact))) < 0.01

    def test_degenerate_profile_rejected(self):
        net = gm.NetworkModel(
            parents=np.array([0]),
            z_line=np.array([[[0.03 + 0.02j]]]),
            v0=np.array([0.0 + 0j]),  # dead slack bus: w = 0
        )
        with pytest.raises(lf.LinFlowError, match="degenerate"):
            lf.build_linear_model(net)


class TestTruncation:
    def test_single_area_is_exact(self, small_instance):
        model = small_instance["model"]
        part = gm.AreaPartition.contiguous(model.n_phases, 1)
        assert lf.truncation_error(model, part) == 0.0

    def test_idempotent(self, small_instance):
        """Truncating twice changes nothing, and the truncated model has no
        coupling left for `truncation_error` to count."""
        model, part = small_instance["model"], small_instance["part"]
        once = truncate_model(model, part)
        twice = truncate_model(once, part)
        assert np.array_equal(once.g, twice.g)
        assert lf.truncation_error(once, part) == 0.0

    def test_extra_adjacency_reduces_error(self, small_instance):
        """Keeping more couplings can only shrink the truncation metric."""
        model, part = small_instance["model"], small_instance["part"]
        richer = gm.AreaPartition(
            assignment=part.assignment,
            n_areas=part.n_areas,
            adjacency=part.adjacency | {frozenset({1, 3})},
        )
        e_chain = lf.truncation_error(model, part)
        e_rich = lf.truncation_error(model, richer)
        # with three areas the extra pair makes the coupling graph complete,
        # so the richer truncation is exact
        assert e_chain > 0
        assert 0 <= e_rich < e_chain

    def test_zeroes_only_cross_area_blocks(self, small_instance):
        model, part = small_instance["model"], small_instance["part"]
        trunc = truncate_model(model, part)
        n_full, n_trunc = real_maps(model)[0], real_maps(trunc)[0]
        a = part.assignment
        n = model.n_phases
        adj = {tuple(sorted(p)) for p in part.adjacency}
        for i in range(n):
            for j in range(n):
                coupled = a[i] == a[j] or tuple(sorted((a[i], a[j]))) in adj
                assert trunc.g[i, j] == (model.g[i, j] if coupled else 0.0)
                for col in (j, j + n):
                    if coupled:
                        assert n_trunc[i, col] == n_full[i, col]
                    else:
                        assert n_trunc[i, col] == 0.0

    @pytest.mark.parametrize("feeder, areas", [("feeder33", 4), ("feeder33", 5),
                                               ("random129", 5)])
    def test_equals_the_dense_truncation_bit_for_bit(self, feeder, areas):
        """||G - G_trunc|| / ||G|| with G_trunc the dense truncated model,
        to the last bit: the kept entries of G - G_trunc are x - x = 0 and
        the dropped ones x - 0 = x.  The real expansion N = [G, -iG] gives
        the same ratio up to rounding."""
        if feeder == "feeder33":
            net, _, part = gm.feeder33_analog(seed=0, n_steps=1, n_areas=areas)
        else:
            net, _ = gm.generate_radial_feeder(129, seed=0, n_steps=1)
            part = gm.AreaPartition.contiguous(net.n_phases, areas)
        model = lf.build_linear_model(net)
        trunc = truncate_model(model, part)
        dense = float(np.linalg.norm(model.g - trunc.g) / np.linalg.norm(model.g))
        assert dense > 0.0
        assert lf.truncation_error(model, part) == dense
        n_full, n_trunc = real_maps(model)[0], real_maps(trunc)[0]
        n_form = np.linalg.norm(n_full - n_trunc) / np.linalg.norm(n_full)
        assert abs(n_form - dense) <= 1e-14 * dense
        with pytest.raises(lf.LinFlowError):
            lf.truncation_error(
                model, gm.AreaPartition.contiguous(model.n_phases - 1, areas))

    def test_partition_size_mismatch(self, small_instance):
        model = small_instance["model"]
        with pytest.raises(lf.LinFlowError):
            lf.truncation_error(model, gm.AreaPartition.contiguous(3, 1))


@pytest.fixture(scope="module")
def three_phase_instance():
    """Three-phase 29-bus radial feeder, T=2, in 4 contiguous areas."""
    net, _ = gm.generate_radial_feeder(29, seed=3, n_steps=2, three_phase=True)
    part = gm.AreaPartition.contiguous(net.n_phases, 4)
    model = lf.build_linear_model(net, n_steps=2)
    return {"model": model, "part": part, "maps": lf.build_area_maps(model, part)}


class TestDecentralizedFlow:
    def test_matches_dense_truncated_evaluation(self, small_instance,
                                                three_phase_instance):
        """On the 3-area chain and on the three-phase feeder."""
        for inst in (small_instance, three_phase_instance):
            model, part, maps = inst["model"], inst["part"], inst["maps"]
            trunc = truncate_model(model, part)
            rng = np.random.default_rng(11)
            for _ in range(10):
                h = 0.01 * rng.standard_normal((model.n_steps, 2 * model.n_phases))
                v_dense, vmag_dense = predict(trunc, h)
                per_area = decentralized_flow(maps, h)
                for area in part.areas:
                    v_l, vmag_l = per_area[area]
                    cols = part.phases_in(area)
                    assert np.max(np.abs(v_l - v_dense[:, cols])) < 1e-12
                    assert np.max(np.abs(vmag_l - vmag_dense[:, cols])) < 1e-12

    def test_rejects_injections_of_another_window(self, small_instance):
        """One step of injections is not broadcast over the maps' two."""
        maps = small_instance["maps"]
        with pytest.raises(lf.LinFlowError):
            decentralized_flow(maps, np.zeros((1, 2 * maps.partition.assignment.size)))

    def test_sends_the_coupling_coordinates_once(self, maps):
        """Round 0 carries, per adjacent pair, the T rho reals of each
        direction's coupling coordinates under "flow-term"; round 1 sends
        nothing."""
        part = maps.partition
        bus = sn.MessageBus(part.adjacency)
        decentralized_flow(maps, np.zeros((maps.n_steps, 2 * part.assignment.size)), bus)
        assert bus.round_index == 2
        for pair in part.adjacency:
            l, j = sorted(pair)
            sent = maps.n_steps * (maps.coupling_rank(l, j) + maps.coupling_rank(j, l))
            assert {key: units for key, units in bus.ledger.counts.items()
                    if key[0] == pair} == {(pair, 0, "flow-term"): sent}


def flow_residual(maps, l, x):
    """E_ll(X) + sum_j E_lj(X) - f_l on the full m x |P| matrix x."""
    return sum(apply(maps, l, j, x[:, maps.cols[j]]) for j in sources(maps, l)) - maps.f[l]


class TestAreaMaps:
    def test_residual_matches_dense_oracle(self, small_instance):
        """E_ll(X) + sum E_lj(X) - f_l computed independently from the
        voltage and injection rows of X and the truncated coefficients."""
        trunc = small_instance["trunc"]
        part = small_instance["part"]
        maps = small_instance["maps"]
        n_mat, k_mat = real_maps(trunc)
        n = trunc.n_phases
        t_steps = trunc.n_steps
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5 * t_steps, n))
        for l in part.areas:
            got = flow_residual(maps, l, x)
            keep = np.isin(
                part.assignment, [l] + part.neighbors(l)
            )
            expected = [[] for _ in range(t_steps)]
            for t in range(t_steps):
                for c in part.phases_in(l):
                    vr, vi, vm = x[5 * t, c], x[5 * t + 1, c], x[5 * t + 2, c]
                    h_re = np.where(keep, x[5 * t + 3], 0.0)
                    h_im = np.where(keep, x[5 * t + 4], 0.0)
                    pred = n_mat[c, :n] @ h_re + n_mat[c, n:] @ h_im
                    pred_mag = k_mat[c, :n] @ h_re + k_mat[c, n:] @ h_im
                    w = trunc.w[c]
                    expected[t].extend([
                        vr - pred.real - w.real,
                        vi - pred.imag - w.imag,
                        vm - pred_mag - np.abs(w),
                    ])
            assert np.max(np.abs(got - np.array(expected))) < 1e-12

    def test_residual_zero_at_linear_solution(self, small_instance):
        """A matrix assembled from the truncated model's own predictions has
        zero flow residual."""
        trunc = small_instance["trunc"]
        maps = small_instance["maps"]
        part = small_instance["part"]
        s = small_instance["s"]
        h = h_from_loads(s)
        v_lin, vmag_lin = predict(trunc, h)
        x = np.empty((5 * trunc.n_steps, trunc.n_phases))
        for t in range(trunc.n_steps):
            x[5 * t] = v_lin[t].real
            x[5 * t + 1] = v_lin[t].imag
            x[5 * t + 2] = vmag_lin[t]
            x[5 * t + 3] = s[t].real
            x[5 * t + 4] = s[t].imag
        for l in part.areas:
            assert np.max(np.abs(flow_residual(maps, l, x))) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
    def test_linearity(self, small_instance, seed, scale):
        maps = small_instance["maps"]
        part = small_instance["part"]
        rng = np.random.default_rng(seed)
        shape = (maps.m, part.assignment.size)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        for l in part.areas:
            for j in sources(maps, l):
                lhs = apply(maps, l, j, (scale * x + y)[:, maps.cols[j]])
                rhs = (scale * apply(maps, l, j, x[:, maps.cols[j]])
                       + apply(maps, l, j, y[:, maps.cols[j]]))
                assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + scale)

    @pytest.mark.parametrize("n_phases", [7, 9])
    def test_partition_must_cover_the_model_phases(self, small_instance, n_phases):
        """A partition of fewer phases than the model (which would drop the
        last) or of more (which would index past G) is refused."""
        model = small_instance["model"]
        assert model.n_phases == 8
        with pytest.raises(lf.LinFlowError, match="does not cover"):
            lf.build_area_maps(model, gm.AreaPartition.contiguous(n_phases, 3))

    def test_residual_dims(self, small_instance):
        maps = small_instance["maps"]
        part = small_instance["part"]
        for l in part.areas:
            n_l = part.phases_in(l).size
            assert maps.residual_dim(l) == 3 * maps.n_steps * n_l
            assert maps.f[l].shape == (maps.n_steps, 3 * n_l)


class TestResidualLayout:
    """Residual blocks are (T, 3n_l): row t is step t, in the row order of
    the per-step blocks G_lj."""

    def test_step_rows_follow_the_step_blocks(self, small_instance,
                                              three_phase_instance):
        """Each unit matrix X_j, one entry k of the row-major step block x_t
        set, maps to G_lj x_t in row t and to zero in the other rows,
        exactly."""
        for inst in (small_instance, three_phase_instance):
            model, maps = inst["model"], inst["maps"]
            t_steps = maps.n_steps
            w3 = np.column_stack([model.w.real, model.w.imag, np.abs(model.w)])
            for l in maps.partition.areas:
                for t in range(t_steps):
                    assert np.array_equal(maps.f[l][t], w3[maps.cols[l]].ravel())
                for j in sources(maps, l):
                    g, n_j = step_block(maps, l, j), maps.cols[j].size
                    for t in range(t_steps):
                        for k in range(5 * n_j):
                            x_j = np.zeros((maps.m, n_j))
                            x_j[5 * t + k // n_j, k % n_j] = 1.0
                            want = np.zeros((t_steps, g.shape[0]))
                            want[t] = g @ x_j[5 * t : 5 * t + 5].ravel()
                            assert np.array_equal(apply(maps, l, j, x_j), want)


@pytest.fixture(scope="module")
def feeder33_maps():
    net, s, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
    model = lf.build_linear_model(net, n_steps=2)
    return lf.build_area_maps(model, part)


@pytest.fixture(params=["small", "feeder33"])
def maps(request, small_instance, feeder33_maps):
    return small_instance["maps"] if request.param == "small" else feeder33_maps


class TestStepBlock:
    @pytest.mark.parametrize("feeder", ["feeder33", "random129"])
    def test_matches_the_entrywise_layout(self, feeder):
        """Every own and neighbor block of a 5-area instance equals the
        entry-by-entry reference bit for bit, signed zeros included: the
        129-bus feeder's N and K hold exact zeros of both signs, and 0.0 - x
        makes each +0.0 where -x would make a +0.0 entry -0.0.  The
        reference reads the whole N and K of `real_maps`; `_step_block`
        forms only its block's entries of them, from G."""
        if feeder == "feeder33":
            net, _, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
        else:
            net, _ = gm.generate_radial_feeder(129, seed=0, n_steps=2)
            part = gm.AreaPartition.contiguous(net.n_phases, 5)
        model = lf.build_linear_model(net, n_steps=2)
        for l in part.areas:
            for j in [l] + part.neighbors(l):
                own, src = part.phases_in(l), part.phases_in(j)
                got = lf._step_block(model, own, src, same_area=l == j)
                want = step_block_loop(model, own, src, same_area=l == j)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCouplingFactors:
    def _adjacent(self, maps):
        part = maps.partition
        return [(j, l) for l in part.areas for j in part.neighbors(l)]

    def test_factors_reproduce_every_step_block(self, maps):
        t_steps, m = maps.n_steps, maps.m
        for j, l in self._adjacent(maps):
            a, b = factors(maps, j, l)
            assert np.max(np.abs(a.T @ a - np.eye(a.shape[1]))) < 1e-12
            e = maps.e_mats[(j, l)]
            n_j, n_l = maps.cols[j].size, maps.cols[l].size
            for t in range(t_steps):
                rows = [3 * (t * n_j + pos) + c
                        for pos in range(n_j) for c in range(3)]
                cols = [dpos * m + 5 * t + k
                        for k in range(5) for dpos in range(n_l)]
                g = e[np.ix_(rows, cols)]
                assert np.array_equal(step_block(maps, j, l), g)
                assert np.linalg.norm(a @ b - g) <= 1e-12 * np.linalg.norm(g)

    def test_coordinates_expand_to_dense_map(self, maps):
        """Expanding the coordinates B_jl x_t of the row-major step blocks of
        X_l gives the dense E_jl, off-step blocks included, and project is
        the left inverse of expand."""
        rng = np.random.default_rng(0)
        t_steps, m = maps.n_steps, maps.m
        for j, l in self._adjacent(maps):
            e = maps.e_mats[(j, l)]
            b = factors(maps, j, l)[1]
            n_l = maps.cols[l].size
            # rows (step, coordinate), columns vec_F(X_l) = (phase, step, row);
            # the columns of B_jl are (row, phase)
            coords = np.zeros((t_steps, b.shape[0], n_l, t_steps, 5))
            for t in range(t_steps):
                coords[t, :, :, t, :] = b.reshape(b.shape[0], 5, n_l).transpose(0, 2, 1)
            coords = coords.reshape(t_steps, b.shape[0], n_l * m)
            recon = np.column_stack([expand(maps, j, l, coords[..., k]).ravel()
                                     for k in range(n_l * m)])
            assert np.linalg.norm(recon - e) <= 1e-12 * np.linalg.norm(e)
            c = rng.standard_normal(coords.shape[:2])
            assert np.max(np.abs(project(maps, j, l, expand(maps, j, l, c)) - c)) < 1e-12

    def test_stacks_hold_every_block_once(self, small_instance):
        """S_l stacks G_ll and each B_jl, and A_l each A_lj, in neighbor
        order, bit-equal to the blocks built and factored one pair at a time
        (the 3-area chain, and feeder33 in 5 areas, whose area 1 has degree
        4); `stack_rows` and `basis_cols` name each block's place."""
        net, _, part5 = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
        for model, part in [(small_instance["model"], small_instance["part"]),
                            (lf.build_linear_model(net, n_steps=2), part5)]:
            maps = lf.build_area_maps(model, part)
            for l in part.areas:
                nbrs, own = part.neighbors(l), maps.cols[l]
                s_l, a_l = maps.stacks[l], maps.bases[l]
                rows = [lf._step_block(model, own, own, True)] + [
                    lf._coupling_factors(model, maps.cols[j], own)[1] for j in nbrs]
                cols = [lf._coupling_factors(model, own, maps.cols[j])[0] for j in nbrs]
                assert np.array_equal(s_l, np.concatenate(rows))
                assert np.array_equal(a_l, np.concatenate(cols, axis=1))
                for j, b, a in zip(nbrs, rows[1:], cols):
                    assert np.array_equal(s_l[maps.stack_rows[l][j]], b)
                    assert np.array_equal(a_l[:, maps.basis_cols[l][j]], a)
                    assert maps.coupling_rank(j, l) == b.shape[0]

    def test_radial_feeder_couples_through_the_boundary_bus(self, feeder33_maps):
        for j, l in self._adjacent(feeder33_maps):
            assert feeder33_maps.coupling_rank(j, l) == 2


class TestCouplingFactorPins:
    """Every coupling block of three instances: the factorization of the
    complex block of G is exact, each rank is the real block's numerical
    rank and the one the real SVD gave, and A_lj spans the same space as
    the real SVD's basis.  The three-phase feeder's no-load voltages are
    not real, so its |v| rows are the Re v and Im v rows turned by the
    phase of w; on a single-phase feeder w = 1 and they equal the Re v
    rows."""

    RANKS = {
        "feeder33": {(1, 2): 2, (1, 3): 2, (1, 4): 2, (1, 5): 2, (2, 1): 2,
                     (2, 5): 2, (3, 1): 2, (4, 1): 2, (5, 1): 2, (5, 2): 2},
        "random129": {(1, 2): 18, (2, 1): 18, (2, 3): 18, (3, 2): 18,
                      (3, 4): 18, (4, 3): 18, (4, 5): 16, (5, 4): 16},
        "three_phase33": {(1, 2): 28, (2, 1): 28, (2, 3): 24, (3, 2): 24},
    }

    @pytest.mark.parametrize("feeder", sorted(RANKS))
    def test_factors_and_ranks(self, feeder):
        t_steps = 5
        if feeder == "feeder33":
            net, _, part = gm.feeder33_analog(seed=0, n_steps=t_steps, n_areas=5)
        elif feeder == "random129":
            net, _ = gm.generate_radial_feeder(129, seed=0, n_steps=t_steps)
            part = gm.AreaPartition.contiguous(net.n_phases, 5)
        else:
            t_steps = 3
            net, _ = gm.generate_radial_feeder(33, seed=1, n_steps=t_steps, three_phase=True)
            part = gm.AreaPartition.contiguous(96, 3)
            assert np.max(np.abs(np.angle(net.no_load_voltage))) > 1.0
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=t_steps), part)
        ranks = {}
        for l, j in [(l, j) for l in part.areas for j in part.neighbors(l)]:
            a, b = factors(maps, l, j)
            g = step_block(maps, l, j)
            assert np.max(np.abs(a.T @ a - np.eye(a.shape[1]))) < 1e-12
            assert np.linalg.norm(g - a @ b) <= 1e-12 * np.linalg.norm(g)
            assert a.shape[1] == b.shape[0] == np.linalg.matrix_rank(g)
            a_svd = factor_step_block(g)[0]
            assert a_svd.shape == a.shape
            assert np.max(np.abs(a @ a.T - a_svd @ a_svd.T)) <= 1e-12
            ranks[(l, j)] = maps.coupling_rank(l, j)
        assert ranks == self.RANKS[feeder]


class TestPerStepApply:
    def test_matches_dense_reference(self, maps):
        """The reference `apply` and `apply_adjoint`, step by step, equal the
        dense E_lj of the view `e_mats` and its transpose on every block."""
        rng = np.random.default_rng(1)
        pairs = [(l, j) for l in maps.partition.areas for j in sources(maps, l)]
        assert sorted(maps.e_mats) == sorted(pairs)
        for (l, j), e in maps.e_mats.items():
            x_j = rng.standard_normal((maps.m, maps.cols[j].size))
            want = e @ x_j.ravel(order="F")
            got = apply(maps, l, j, x_j).ravel()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            y = rng.standard_normal((maps.n_steps, 3 * maps.cols[l].size))
            want = (e.T @ y.ravel()).reshape(x_j.shape, order="F")
            got = apply_adjoint(maps, l, j, y)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
