import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import completion as cp
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm

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
    problems = cp._build_problems(mat.data, mask, maps, part)
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


class TestSubproblems:
    def _lagrangian_u(self, prob, st, config, u):
        """Explicit scalar objective whose exact minimizer the basis update
        claims to return."""
        val = 0.5 * np.sum(u * u) / prob.n_areas
        val += 0.5 * config.prox_c * np.sum((u - st.u) ** 2)
        for j in prob.neighbors:
            val += 0.5 * config.gamma * np.sum(
                (u - (st.s[j] - st.gamma[j])) ** 2
            )
        x_vec = (u @ st.v).ravel(order="F")
        diff = x_vec[prob.obs_idx] - prob.obs_val
        val += 0.5 * config.mu * np.sum(diff * diff)
        if prob.maps is not None:
            target = prob.f_l - sum(st.q[j] for j in prob.neighbors)
            res = prob.e_ll @ x_vec - target
            val += 0.5 * config.nu * float(res @ res)
            for j in prob.neighbors:
                res_j = prob.e_from[j] @ x_vec - (st.q_in[j] + st.lam_in[j])
                val += 0.5 * config.lam * float(res_j @ res_j)
        return val

    def test_update_u_minimizes_lagrangian(self, small_setup):
        """Finite differences of the explicit objective vanish at the
        returned point, and random perturbations only increase it."""
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        rng = np.random.default_rng(8)
        for l in part.areas:
            prob, st = problems[l], states[l]
            # make the dual/aux variables nontrivial
            for j in prob.neighbors:
                st.gamma[j] = 0.1 * rng.standard_normal(st.u.shape)
                st.lam_in[j] = 0.1 * rng.standard_normal(st.lam_in[j].shape)
            u_new = cp.update_u(prob, st, config)
            f0 = self._lagrangian_u(prob, st, config, u_new)
            eps = 1e-6
            for _ in range(5):
                d = rng.standard_normal(u_new.shape)
                d /= np.linalg.norm(d)
                fp = self._lagrangian_u(prob, st, config, u_new + eps * d)
                fm = self._lagrangian_u(prob, st, config, u_new - eps * d)
                assert abs(fp - fm) / (2 * eps) < 1e-4 * (1 + abs(f0))
                assert fp >= f0 - 1e-12 and fm >= f0 - 1e-12

    def test_huge_prox_freezes_update(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2, prox_c=1e12)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        for l in part.areas:
            prob, st = problems[l], states[l]
            u_new = cp.update_u(prob, st, config)
            v_new = cp.update_v(prob, st, u_new, config)
            assert np.max(np.abs(u_new - st.u)) < 1e-6
            assert np.max(np.abs(v_new - st.v)) < 1e-6

    def test_unsolved_normal_equations_raise(self, small_setup, monkeypatch):
        """The post-solve gradient check is a typed error, so it also holds
        under python -O."""
        m_data, mask, maps, part, problems = small_setup
        config = cp.AdmmConfig(rank=2)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        prob, st = problems[2], states[2]
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: np.linalg.solve(h, rhs) + 1.0)
        with pytest.raises(cp.CompletionError):
            cp.update_u(prob, st, config)
        with pytest.raises(cp.CompletionError):
            cp.update_v(prob, st, st.u, config)

    def test_row_builders_match_kron(self, small_setup):
        """The scatter/einsum constructions equal the textbook Kronecker
        forms of the composed linear maps."""
        m_data, mask, maps, part, problems = small_setup
        prob = problems[2]
        rng = np.random.default_rng(3)
        r = 3
        u = rng.standard_normal((prob.m, r))
        v = rng.standard_normal((r, prob.n_l))
        full = np.eye(prob.m * prob.n_l)[prob.obs_idx]
        assert np.max(np.abs(
            cp._data_rows_u(prob, v) - full @ np.kron(v.T, np.eye(prob.m))
        )) < 1e-12
        assert np.max(np.abs(
            cp._flow_rows_u(prob.e_ll, v, prob.m)
            - prob.e_ll @ np.kron(v.T, np.eye(prob.m))
        )) < 1e-12
        assert np.max(np.abs(
            cp._flow_rows_v(prob.e_ll, u)
            - prob.e_ll @ np.kron(np.eye(prob.n_l), u)
        )) < 1e-12


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
            m_data, mask, None, gm.AreaPartition.single_area(m_data.shape[1])
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
