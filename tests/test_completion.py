import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import completion as cp
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm
from gridmc import linflow as lf

# Independently pinned optimum of the seeded nuclear-norm problem below,
# computed once with an interior-point style convex solver at eps 1e-10.
PINNED_CONVEX_OBJECTIVE = 41.46865834462826


@pytest.fixture(scope="module")
def small_setup(small_instance):
    """Masked data, maps, and per-area problems for the 9-bus instance."""
    mat = small_instance["mat"]
    part = small_instance["part"]
    maps = small_instance["maps"]
    mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=4).observed
    problems = cp._build_problems(mat.data, mask, maps, part, cp.AdmmConfig())
    return mat.data, mask, maps, part, problems


class TestConfig:
    def test_defaults(self):
        cfg = cp.AdmmConfig()
        assert cfg.mu == 10.0 and cfg.prox_c == 0.1
        assert cfg.resolve_rank(25) == 10
        assert cfg.resolve_rank(5) == 5
        assert cp.AdmmConfig(rank=3).resolve_rank(25) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"mu": 0.0}, {"nu": -1.0}, {"gamma": 0.0}, {"lam": 0.0},
         {"prox_c": -0.1}, {"tol": 0.0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(cp.CompletionError):
            cp.AdmmConfig(**kwargs)


class TestFactorPair:
    def test_inner_dim_mismatch(self):
        with pytest.raises(cp.CompletionError):
            cp.FactorPair(u=np.zeros((4, 3)), v=np.zeros((2, 5)))

    def test_rank_exceeds_dims(self):
        with pytest.raises(cp.CompletionError):
            cp.FactorPair(u=np.zeros((2, 3)), v=np.zeros((3, 5)))


class TestInitFactors:
    def test_balanced_norms_match_truncated_nuclear_norm(self):
        """0.5(|U|^2+|V|^2) equals the sum of the top-r singular values of
        the observed matrix, the variational nuclear-norm identity."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 8))
        mb = rng.random((12, 8)) < 0.7
        r = 4
        pair = cp.init_factors(a, mb, r)
        sv = np.linalg.svd(np.where(mb, a, 0.0), compute_uv=False)
        half = 0.5 * (np.sum(pair.u**2) + np.sum(pair.v**2))
        assert abs(half - np.sum(sv[:r])) < 1e-10
        assert abs(np.sum(pair.u**2) - np.sum(pair.v**2)) < 1e-10

    def test_product_is_best_rank_r(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 6))
        mb = np.ones((10, 6), dtype=bool)
        pair = cp.init_factors(a, mb, 3)
        uu, sv, vt = np.linalg.svd(a)
        best = (uu[:, :3] * sv[:3]) @ vt[:3]
        assert np.max(np.abs(pair.x - best)) < 1e-10

    def test_gaussian_fallback_on_rank_deficient(self):
        a = np.outer(np.arange(1.0, 7.0), np.ones(4))  # rank 1
        mb = np.ones((6, 4), dtype=bool)
        p1 = cp.init_factors(a, mb, 3, seed=5)
        p2 = cp.init_factors(a, mb, 3, seed=5)
        p3 = cp.init_factors(a, mb, 3, seed=6)
        assert np.array_equal(p1.u, p2.u)
        assert not np.array_equal(p1.u, p3.u)
        # scaled so the expected squared column norm is 1
        assert 0.2 < np.mean(p1.u**2) * 3 < 5.0

    def test_rejects_bad_rank(self):
        with pytest.raises(cp.CompletionError):
            cp.init_factors(np.zeros((3, 3)), np.ones((3, 3), bool), 0)


class TestObjective:
    def test_shape_mismatch(self):
        with pytest.raises(cp.CompletionError):
            cp.objective_factored(
                np.zeros((4, 2)), np.zeros((2, 3)), np.zeros((4, 4)),
                np.ones((4, 4), bool), None, 1.0, 1.0,
            )

    def test_manual_value_no_flow(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0, 0.0]])
        m_data = np.array([[2.0, 9.0], [6.0, 9.0]])
        mb = np.array([[True, False], [True, False]])
        # 0.5(5 + 9) + 0.5*2*((3-2)^2 + (6-6)^2)
        val = cp.objective_factored(u, v, m_data, mb, None, 2.0, 1.0)
        assert abs(val - 8.0) < 1e-12


@pytest.fixture(scope="module")
def three_step_setup():
    """Masked data, maps, and per-area problems for a T=3 three-area feeder."""
    net, scen = gm.generate_radial_feeder(9, branching=0.5, seed=2, n_steps=3)
    part = gm.AreaPartition.contiguous(net.n_phases, 3)
    mat = dm.build_matrix(gm.solve_exact_flow(net, scen.s), scen.s)
    model = lf.build_linear_model(net, n_steps=3)
    maps = lf.build_area_maps(lf.truncate_model(model, part))
    mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=4).observed
    return mat.data, mask, maps, part, cp._build_problems(
        mat.data, mask, maps, part, cp.AdmmConfig())


def _z(prob, st, config):
    """The flow target run_decentralized passes to both updates."""
    return cp._flow_target(prob, st, config) if prob.maps is not None else None


def _perturbed_states(problems, m_data, mask, r, seed):
    """Initial states with nontrivial dual and auxiliary variables."""
    states = cp._init_states(problems, m_data, mask, r, 0)
    rng = np.random.default_rng(seed)
    for l, prob in problems.items():
        st = states[l]
        for j in prob.neighbors:
            st.gamma[j] = 0.1 * rng.standard_normal(st.u.shape)
            st.lam_in[j] = 0.1 * rng.standard_normal(st.lam_in[j].shape)
    return states


class TestSubproblems:
    def _lagrangian(self, prob, st, config, u, v):
        """Explicit scalar objective, from the dense maps E_ll and E_jl,
        whose exact minimizers the U and V updates claim to return."""
        maps = prob.maps
        l = prob.area
        val = 0.5 * np.sum(u * u) / prob.n_areas + 0.5 * np.sum(v * v)
        val += 0.5 * config.prox_c * (np.sum((u - st.u) ** 2)
                                      + np.sum((v - st.v) ** 2))
        for j in prob.neighbors:
            val += 0.5 * config.gamma * np.sum(
                (u - (st.s[j] - st.gamma[j])) ** 2
            )
        x = u @ v
        diff = np.where(prob.mask, x - prob.m_l, 0.0)
        val += 0.5 * config.mu * np.sum(diff * diff)
        x_vec = x.ravel(order="F")
        target = maps.f[l] - sum(st.q[j] for j in prob.neighbors)
        res = maps.e_mats[(l, l)] @ x_vec - target
        val += 0.5 * config.nu * float(res @ res)
        for j in prob.neighbors:
            # |B x - c| = |A B x - A c|: A_jl has orthonormal columns
            res_j = (maps.e_mats[(j, l)] @ x_vec
                     - maps.expand(j, l, st.q_in[j] + st.lam_in[j]))
            val += 0.5 * config.lam * float(res_j @ res_j)
        return val

    def _assert_minimizer(self, f, point, rng):
        """Central differences vanish at point, and perturbations only
        increase f."""
        f0 = f(point)
        eps = 1e-6
        for _ in range(5):
            d = rng.standard_normal(point.shape)
            d /= np.linalg.norm(d)
            fp, fm = f(point + eps * d), f(point - eps * d)
            assert abs(fp - fm) / (2 * eps) < 1e-4 * (1 + abs(f0))
            assert fp >= f0 - 1e-12 and fm >= f0 - 1e-12

    def test_update_u_minimizes_lagrangian(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2)
        states = _perturbed_states(problems, m_data, mask, 2, 8)
        rng = np.random.default_rng(8)
        for l in part.areas:
            prob, st = problems[l], states[l]
            u_new = cp.update_u(prob, st, config, _z(prob, st, config))
            self._assert_minimizer(
                lambda u: self._lagrangian(prob, st, config, u, st.v), u_new, rng)

    def test_update_v_minimizes_lagrangian(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2)
        states = _perturbed_states(problems, m_data, mask, 2, 9)
        rng = np.random.default_rng(9)
        for l in part.areas:
            prob, st = problems[l], states[l]
            z = _z(prob, st, config)
            u_new = cp.update_u(prob, st, config, z)
            v_new = cp.update_v(prob, st, u_new, config, z)
            self._assert_minimizer(
                lambda v: self._lagrangian(prob, st, config, u_new, v), v_new, rng)

    def test_huge_prox_freezes_update(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2, prox_c=1e12)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        for l in part.areas:
            prob, st = problems[l], states[l]
            z = _z(prob, st, config)
            u_new = cp.update_u(prob, st, config, z)
            v_new = cp.update_v(prob, st, u_new, config, z)
            assert np.max(np.abs(u_new - st.u)) < 1e-6
            assert np.max(np.abs(v_new - st.v)) < 1e-6

    def test_unsolved_normal_equations_raise(self, small_setup, monkeypatch):
        """The post-solve gradient check is a typed error, so it also holds
        under python -O."""
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        prob, st = problems[2], states[2]
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solve(h, rhs) + 1.0)
        z = _z(prob, st, config)
        with pytest.raises(cp.CompletionError):
            cp.update_u(prob, st, config, z)
        with pytest.raises(cp.CompletionError):
            cp.update_v(prob, st, st.u, config, z)

    def test_normal_equation_check_survives_optimize_flag(self):
        """The same check in a `python -O` interpreter, which strips
        `assert` statements: a wrong solve still raises CompletionError."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from gridmc import completion as cp
            from gridmc import gridmodel as gm
            if not sys.flags.optimize:
                sys.exit(2)
            rng = np.random.default_rng(0)
            m_data = rng.standard_normal((6, 4))
            mask = rng.random((6, 4)) < 0.7
            config = cp.AdmmConfig(rank=2)
            part = gm.AreaPartition.single_area(4)
            prob = cp._build_problems(m_data, mask, None, part, config)[1]
            st = cp._init_states({1: prob}, m_data, mask, 2, 0)[1]
            solve = cp._solve_quadratic
            cp._solve_quadratic = lambda h, rhs: solve(h, rhs) + 1.0
            try:
                cp.update_u(prob, st, config, None)
            except cp.CompletionError:
                sys.exit(0)
            sys.exit(1)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_normal_matrices_match_kron(self, three_step_setup, monkeypatch):
        """The per-step U blocks and the V matrix equal the textbook
        Kronecker forms of the normal matrices at T=3; the U blocks are the
        whole U matrix, which couples no two time steps."""
        m_data, mask, maps, part, _ = three_step_setup
        config = cp.AdmmConfig(rank=3, mu=3.0, nu=2.0, gamma=1.5, lam=0.5)
        problems = cp._build_problems(m_data, mask, maps, part, config)
        states = _perturbed_states(problems, m_data, mask, 3, 3)
        solved = []
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solved.append(h) or solve(h, rhs))
        l = 2
        prob, st = problems[l], states[l]
        m, r, n_l, t_steps = prob.m, 3, prob.n_l, maps.n_steps
        z = _z(prob, st, config)
        u_new = cp.update_u(prob, st, config, z)
        cp.update_v(prob, st, u_new, config, z)
        h_u, h_v = solved

        local_cols, rows = np.nonzero(mask[:, prob.cols].T)
        sampler = np.eye(m * n_l)[local_cols * m + rows]
        e_ll = maps.e_mats[(l, l)]

        def normal(lin, base):
            """base I + the data, own-flow and neighbor-flow Grams of the
            linear map lin from the unknowns to vec_F(X_l)."""
            h = base * np.eye(lin.shape[1])
            h += config.mu * (sampler @ lin).T @ (sampler @ lin)
            h += config.nu * (e_ll @ lin).T @ (e_ll @ lin)
            for j in prob.neighbors:
                e_jl = maps.e_mats[(j, l)] @ lin
                h += config.lam * e_jl.T @ e_jl
            return h

        base_u = 1.0 / prob.n_areas + config.prox_c + config.gamma * prob.deg
        full_u = normal(np.kron(st.v.T, np.eye(m)), base_u)  # on vec_F(U)
        assert h_u.shape == (t_steps, 5 * r, 5 * r)
        # block t acts on U_t, the rows 5t..5t+4 of U, in row-major order
        order = np.arange(m * r).reshape(r, m).T.ravel()
        assembled = np.zeros_like(full_u)
        for t in range(t_steps):
            idx = order[5 * r * t:5 * r * (t + 1)]
            assembled[np.ix_(idx, idx)] = h_u[t]
        assert np.max(np.abs(assembled - full_u)) < 1e-10 * np.max(np.abs(full_u))

        full_v = normal(np.kron(np.eye(n_l), u_new), 1.0 + config.prox_c)
        assert np.max(np.abs(h_v - full_v)) < 1e-10 * np.max(np.abs(full_v))

    def test_unmapped_u_splits_per_row(self, three_step_setup, monkeypatch):
        """Without flow maps the U blocks are the r x r diagonal blocks of
        the textbook normal matrix, one per row of U."""
        m_data, mask, *_ = three_step_setup
        config = cp.AdmmConfig(rank=3, mu=3.0)
        prob = cp._build_problems(
            m_data, mask, None, gm.AreaPartition.single_area(m_data.shape[1]), config
        )[1]
        st = cp._init_states({1: prob}, m_data, mask, 3, 0)[1]
        solved = []
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solved.append(h) or solve(h, rhs))
        cp.update_u(prob, st, config, None)
        m, r = st.u.shape
        local_cols, rows = np.nonzero(mask.T)
        sampled = (np.eye(m * prob.n_l)[local_cols * m + rows]
                   @ np.kron(st.v.T, np.eye(m)))
        full = (1.0 + config.prox_c) * np.eye(m * r) + config.mu * sampled.T @ sampled
        full = full.reshape(r, m, r, m).transpose(1, 0, 3, 2)  # (row, j, row', j')
        assert solved[0].shape == (m, r, r)
        for i in range(m):
            gap = np.max(np.abs(solved[0][i] - full[i, :, i, :]))
            assert gap < 1e-10 * np.max(np.abs(full))
        off_diagonal = full.copy()
        off_diagonal[np.arange(m), :, np.arange(m), :] = 0.0
        assert not np.any(off_diagonal)


class TestQUpdate:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), lam=st.floats(0.1, 100.0),
           nu=st.floats(0.1, 100.0))
    def test_solves_coupled_system(self, small_setup, seed, lam, nu):
        """The closed form satisfies the defining normal equations
        lam*q_j + nu*sum_i q_i = rhs_j for every neighbor j."""
        m_data, mask, maps, part, problems = small_setup
        prob = problems[2]  # middle area, degree 2
        config = cp.AdmmConfig(lam=lam, nu=nu)
        rng = np.random.default_rng(seed)
        d = maps.residual_dim(2)
        e_ll_val = rng.standard_normal(d)
        e_in = {j: rng.standard_normal(d) for j in prob.neighbors}
        duals = {j: rng.standard_normal(d) for j in prob.neighbors}
        q = cp.update_q(prob, e_ll_val, e_in, duals, config)
        total = sum(q.values())
        for j in prob.neighbors:
            rhs = lam * (e_in[j] - duals[j]) + nu * (prob.f_l - e_ll_val)
            assert np.max(np.abs(lam * q[j] + nu * total - rhs)) < 1e-7 * (
                1 + np.max(np.abs(rhs))
            )

    def test_no_neighbors(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        single = cp._build_problems(
            m_data, mask, None, gm.AreaPartition.single_area(m_data.shape[1]),
            cp.AdmmConfig(),
        )[1]
        assert cp.update_q(single, np.zeros(0), {}, {}, cp.AdmmConfig()) == {}


@pytest.fixture(scope="module")
def short_run(small_setup):
    m_data, mask, maps, part, problems = small_setup
    config = cp.AdmmConfig(rank=2, max_iters=20, tol=1e-14)
    return cp.run_decentralized(
        m_data, mask, maps, part, config,
        reference=m_data, keep_history=True,
    ), m_data, part


class TestDecentralizedRun:
    def test_trace_lengths(self, short_run):
        result, m_data, part = short_run
        assert result.trace.iterations == 20
        assert len(result.trace.rmse) == 20
        assert len(result.trace.consensus) == 20
        assert len(result.u_history) == 20

    def test_assembled_x_matches_blocks(self, short_run):
        result, m_data, part = short_run
        x = result.x
        assert x.shape == m_data.shape
        for l in part.areas:
            assert np.array_equal(x[:, part.phases_in(l)], result.x_blocks[l])

    def test_consensus_dual_antisymmetry(self, short_run):
        """Opposite-direction basis duals stay exact negatives of each other,
        the invariant that makes the pairwise average the consensus point."""
        result, m_data, part = short_run
        for l in part.areas:
            for j in part.neighbors(l):
                g_lj = result.states[l].gamma[j]
                g_jl = result.states[j].gamma[l]
                assert np.max(np.abs(g_lj + g_jl)) < 1e-10

    def test_flow_mirrors_consistent(self, short_run):
        """Every received flow term equals what the sender computed."""
        result, m_data, part = short_run
        for l in part.areas:
            for j in part.neighbors(l):
                sent = result.states[j].e_out[l]
                got = result.states[l].e_in[j]
                assert np.array_equal(sent, got)

    def test_objective_decreases_overall(self, short_run):
        result, _, _ = short_run
        obj = result.trace.objective
        assert obj[-1] < obj[0]

    def test_divergence_error_reports_iteration(self):
        err = cp.DivergenceError(iteration=7)
        assert err.iteration == 7
        assert "7" in str(err)


class TestOncePerIteration:
    def test_area_work_runs_once_per_area_per_iteration(self, small_setup,
                                                        monkeypatch):
        """The flow target Z, E_ll(X_l) and the sent flow coordinates are
        computed once per area per iteration; the stored X_l and E_ll(X_l)
        are those of the final factors."""
        m_data, mask, maps, part, problems = small_setup
        counts = {"_flow_target": 0, "_own_flow": 0, "_flow_coords": 0}

        def counted(name):
            fn = getattr(cp, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(cp, name, counted(name))
        at_init = {}
        init = cp._init_states

        def init_counted(*args):
            states = init(*args)
            at_init.update(counts)
            return states

        monkeypatch.setattr(cp, "_init_states", init_counted)
        k = 4
        config = cp.AdmmConfig(rank=2, max_iters=k, tol=1e-14)
        result = cp.run_decentralized(m_data, mask, maps, part, config)
        assert result.trace.iterations == k and part.n_areas == 3
        per_iteration = {name: counts[name] - at_init[name] for name in counts}
        assert per_iteration == {name: part.n_areas * k for name in counts}
        for l in part.areas:
            st = result.states[l]
            assert np.array_equal(st.x, st.u @ st.v)
            assert np.array_equal(st.e_ll, cp._own_flow(problems[l], st.x))
            assert result.x_blocks[l] is st.x


class TestSvtOracle:
    def test_matches_pinned_convex_solution(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 15))
        mb = rng.random((20, 15)) < 0.6
        x = cp.svt_oracle(a, mb, 50.0)
        obj = cp.svt_objective(x, a, mb, 50.0)
        assert abs(obj - PINNED_CONVEX_OBJECTIVE) < 1e-6 * PINNED_CONVEX_OBJECTIVE

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(cp.CompletionError):
            cp.svt_oracle(np.zeros((3, 3)), np.ones((3, 3), bool), 0.0)

    def test_full_observation_large_mu_recovers_data(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 5))
        x = cp.svt_oracle(a, np.ones((8, 5), bool), 1e8)
        assert np.max(np.abs(x - a)) < 1e-6
