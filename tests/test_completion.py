import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import cli
from gridmc import completion as cp
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm
from gridmc import linflow as lf
from gridmc import simnet as sn
from reference import (admm_config, apply, coordinates, expand, factors, project, sources,
                       svt_objective, svt_oracle, update_duals_per_edge, update_q_per_edge)

# Independently pinned optimum of the seeded nuclear-norm problem below,
# computed once with an interior-point style convex solver at eps 1e-10.
PINNED_CONVEX_OBJECTIVE = 41.46865834462826


@pytest.fixture(scope="module")
def small_setup(small_instance):
    """Masked data, maps, and per-area problems for the 9-bus instance,
    built with the rank-2 config the subproblem tests solve with."""
    mat = small_instance["mat"]
    part = small_instance["part"]
    maps = small_instance["maps"]
    mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=4).observed
    problems = cp._build_problems(mat, mask, maps, part, admm_config(rank=2))
    return mat, mask, maps, part, problems


class TestConfig:
    def test_defaults(self):
        cfg = cp.AdmmConfig()
        assert (cfg.mu, cfg.nu, cfg.gamma, cfg.lam) == (1e4, 1e4, 1e3, 1e3)
        assert cfg.prox_c == 0.1
        assert cfg.resolve_rank(25, 33) == 10
        assert cfg.resolve_rank(5, 33) == 5
        # a one-column matrix has no rank-5 factors
        assert cfg.resolve_rank(5, 1) == 1
        assert cp.AdmmConfig(rank=3).resolve_rank(25, 33) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"mu": 0.0}, {"nu": -1.0}, {"gamma": 0.0}, {"lam": 0.0},
         {"prox_c": -0.1}, {"tol": 0.0}, {"max_iters": 0}, {"max_iters": -1},
         *({name: bad} for name in ("mu", "nu", "gamma", "lam", "prox_c", "tol")
           for bad in (float("nan"), float("inf"))),
         {"rank": 0}, {"rank": -1}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(cp.CompletionError):
            cp.AdmmConfig(**kwargs)


class TestRankAboveMatrixDims:
    """A rank above min(m, n) is refused where the rank is decided, and so
    by `run_decentralized` before any factor is formed."""

    def test_resolve_rank_raises(self):
        assert cp.AdmmConfig(rank=5).resolve_rank(5, 33) == 5
        with pytest.raises(cp.CompletionError, match="exceeds"):
            cp.AdmmConfig(rank=6).resolve_rank(5, 33)
        with pytest.raises(cp.CompletionError, match="exceeds"):
            cp.AdmmConfig(rank=8).resolve_rank(10, 7)

    def test_run_decentralized_raises(self, small_instance):
        mat, part, maps = small_instance["mat"], small_instance["part"], small_instance["maps"]
        mask = np.ones(mat.shape, dtype=bool)
        with pytest.raises(cp.CompletionError, match="exceeds"):
            cp.run_decentralized(mat, mask, maps, part,
                                 admm_config(rank=min(mat.shape) + 1, max_iters=1))


class TestInitFactors:
    def test_balanced_norms_match_truncated_nuclear_norm(self):
        """0.5(|U|^2+|V|^2) equals the sum of the top-r singular values of
        the observed matrix, the variational nuclear-norm identity."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 8))
        mb = rng.random((12, 8)) < 0.7
        r = 4
        u, v = cp.init_factors(a, mb, r)
        sv = np.linalg.svd(np.where(mb, a, 0.0), compute_uv=False)
        half = 0.5 * (np.sum(u**2) + np.sum(v**2))
        assert abs(half - np.sum(sv[:r])) < 1e-10
        assert abs(np.sum(u**2) - np.sum(v**2)) < 1e-10

    def test_product_is_best_rank_r(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 6))
        mb = np.ones((10, 6), dtype=bool)
        u, v = cp.init_factors(a, mb, 3)
        uu, sv, vt = np.linalg.svd(a)
        best = (uu[:, :3] * sv[:3]) @ vt[:3]
        assert np.max(np.abs(u @ v - best)) < 1e-10

    def test_gaussian_fallback_on_rank_deficient(self):
        a = np.outer(np.arange(1.0, 7.0), np.ones(4))  # rank 1
        mb = np.ones((6, 4), dtype=bool)
        u1, _ = cp.init_factors(a, mb, 3, seed=5)
        u2, _ = cp.init_factors(a, mb, 3, seed=5)
        u3, _ = cp.init_factors(a, mb, 3, seed=6)
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)
        # scaled so the expected squared column norm is 1
        assert 0.2 < np.mean(u1**2) * 3 < 5.0

    def test_rejects_bad_rank(self):
        with pytest.raises(cp.CompletionError):
            cp.init_factors(np.zeros((3, 3)), np.ones((3, 3), bool), 0)


def _half_norms(u, v):
    return 0.5 * (np.linalg.norm(u) ** 2 + np.linalg.norm(v) ** 2)


class TestBalance:
    def check(self, u, v):
        """balance keeps X and balances the Grams within 1e-12 relative, and
        0.5(|U|^2 + |V|^2) falls to the nuclear norm of X."""
        bu, bv = cp.balance(u, v)
        assert bu.shape == u.shape and bv.shape == v.shape
        assert np.isfinite(bu).all() and np.isfinite(bv).all()
        x = u @ v
        assert np.linalg.norm(bu @ bv - x) <= 1e-12 * np.linalg.norm(x)
        gram = bu.T @ bu
        assert np.linalg.norm(gram - bv @ bv.T) <= 1e-12 * np.linalg.norm(gram)
        half = _half_norms(bu, bv)
        assert half <= (1 + 1e-12) * _half_norms(u, v)
        nuclear = np.sum(np.linalg.svd(x, compute_uv=False))
        assert half == pytest.approx(nuclear, rel=1e-12)
        return bu, bv

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 5000), m=st.integers(1, 30), n=st.integers(1, 30),
           r=st.integers(1, 10), spread=st.floats(0.0, 3.0))
    def test_random_factors(self, seed, m, n, r, spread):
        """Factors whose columns differ in scale by up to 10^spread either
        way, the imbalance U -> UD, V -> D^-1 V that leaves X unchanged."""
        r = min(r, m, n)
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-spread, spread, r)
        self.check(rng.standard_normal((m, r)) * d,
                   rng.standard_normal((r, n)) / d[:, None])

    def test_zero_column(self):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((12, 4)), rng.standard_normal((4, 9))
        u[:, 1] = 0.0
        bu, bv = self.check(u, v)
        sigma = np.linalg.svd(bu.T @ bu, compute_uv=False)
        assert sigma[3] <= 1e-12 * sigma[0]

    def test_rank_one_factors(self):
        """Rank-1 factors of rank bound 3: the Gram of either factor is
        singular, and the QR leaves two columns of Q arbitrary."""
        rng = np.random.default_rng(4)
        u = np.outer(rng.standard_normal(15), [1.0, 2.0, -1.0])
        v = np.outer([0.5, 1.0, 3.0], rng.standard_normal(20))
        bu, bv = self.check(u, v)
        sigma = np.linalg.svd(bu.T @ bu, compute_uv=False)
        assert sigma[1] <= 1e-12 * sigma[0]

    def test_balanced_input_keeps_its_product_and_norms(self):
        u, v = cp.init_factors(np.random.default_rng(5).standard_normal((10, 7)),
                               np.ones((10, 7), dtype=bool), 3)
        bu, bv = self.check(u, v)
        assert _half_norms(bu, bv) == pytest.approx(_half_norms(u, v), rel=1e-12)


def objective_factored(u, v, m_data, mask, area_maps, mu, nu):
    """Centralized factored objective: 0.5(|U|^2+|V|^2) + data + flow terms."""
    x = u @ v
    if x.shape != m_data.shape:
        raise cp.CompletionError("factor product does not match data shape")
    val = 0.5 * (np.sum(u * u) + np.sum(v * v))
    diff = np.where(mask, x - m_data, 0.0)
    val += 0.5 * mu * np.sum(diff * diff)
    if area_maps is not None and nu != 0.0:
        for l in area_maps.partition.areas:
            res = sum(apply(area_maps, l, j, x[:, area_maps.areas[j].cols])
                      for j in sources(area_maps, l)) - area_maps.areas[l].f
            val += 0.5 * nu * float(np.sum(res * res))
    return val


class TestObjective:
    def test_shape_mismatch(self):
        with pytest.raises(cp.CompletionError):
            objective_factored(
                np.zeros((4, 2)), np.zeros((2, 3)), np.zeros((4, 4)),
                np.ones((4, 4), bool), None, 1.0, 1.0,
            )

    def test_manual_value_no_flow(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0, 0.0]])
        m_data = np.array([[2.0, 9.0], [6.0, 9.0]])
        mb = np.array([[True, False], [True, False]])
        # 0.5(5 + 9) + 0.5*2*((3-2)^2 + (6-6)^2)
        val = objective_factored(u, v, m_data, mb, None, 2.0, 1.0)
        assert abs(val - 8.0) < 1e-12


@pytest.fixture(scope="module")
def three_step_setup():
    """Masked data, maps, and per-area problems for a T=3 three-area feeder."""
    net, s = gm.generate_radial_feeder(9, seed=2, n_steps=3)
    part = gm.AreaPartition.contiguous(net.n_phases, 3)
    mat = dm.build_matrix(gm.solve_exact_flow(net, s), s)
    model = lf.build_linear_model(net, n_steps=3)
    maps = lf.build_area_maps(model, part)
    mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=4).observed
    return mat, mask, maps, part, cp._build_problems(
        mat, mask, maps, part, admm_config())


def _perturbed_states(problems, m_data, mask, r, seed):
    """Initial states with nontrivial dual and auxiliary variables."""
    states = cp._init_states(problems, m_data, mask, r, 0)
    rng = np.random.default_rng(seed)
    for l, prob in problems.items():
        st = states[l]
        for i, j in enumerate(prob.neighbors):
            st.gamma[i] = 0.1 * rng.standard_normal(st.u.shape)
            if prob.flow is not None:
                pull = st.row_targets[:, prob.flow.stack_rows[j]]  # a view: noise goes in place
                pull += 0.1 * rng.standard_normal(pull.shape)
        # every U_j starts at U_l
        st.pull = np.sum(st.u - st.gamma, axis=0)
    return states


class TestSubproblems:
    def _lagrangian(self, maps, prob, st, u, v):
        """Explicit scalar objective, from the dense maps E_ll and E_jl,
        whose exact minimizers the U and V updates claim to return."""
        config = prob.config
        l = prob.area
        val = 0.5 * np.sum(u * u) / prob.n_areas + 0.5 * np.sum(v * v)
        val += 0.5 * config.prox_c * (np.sum((u - st.u) ** 2)
                                      + np.sum((v - st.v) ** 2))
        # sum_j 0.5 gamma |u - pull_j|^2 up to a constant: only the sum of
        # the pull points enters the U minimizer
        val += 0.5 * config.gamma * (prob.deg * np.sum(u * u)
                                     - 2.0 * np.sum(u * st.pull))
        x = u @ v
        diff = np.where(prob.mask, x, 0.0) - prob.m_obs
        val += 0.5 * config.mu * np.sum(diff * diff)
        x_vec = x.ravel(order="F")
        # f_l - sum_j q_lj, and the pull point of each neighbor j
        target = st.row_targets[:, :3 * prob.n_l].ravel()
        res = maps.e_mats[(l, l)] @ x_vec - target
        val += 0.5 * config.nu * float(res @ res)
        for j in prob.neighbors:
            # |B x - c| = |A B x - A c|: A_jl has orthonormal columns
            pull = st.row_targets[:, prob.flow.stack_rows[j]]
            res_j = maps.e_mats[(j, l)] @ x_vec - expand(maps, j, l, pull).ravel()
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
        states = _perturbed_states(problems, m_data, mask, 2, 8)
        rng = np.random.default_rng(8)
        for l in part.areas:
            prob, st = problems[l], states[l]
            u_new = cp.update_u(prob, st, cp._flow_target(prob, st))
            self._assert_minimizer(
                lambda u: self._lagrangian(maps, prob, st, u, st.v), u_new, rng)

    def test_update_v_minimizes_lagrangian(self, small_setup):
        m_data, mask, maps, part, problems = small_setup
        states = _perturbed_states(problems, m_data, mask, 2, 9)
        rng = np.random.default_rng(9)
        for l in part.areas:
            prob, st = problems[l], states[l]
            z = cp._flow_target(prob, st)
            u_new = cp.update_u(prob, st, z)
            v_new = cp.update_v(prob, st, u_new, z)
            self._assert_minimizer(
                lambda v: self._lagrangian(maps, prob, st, u_new, v), v_new, rng)

    def test_huge_prox_freezes_update(self, small_setup):
        m_data, mask, maps, part, _ = small_setup
        config = admm_config(rank=2, prox_c=1e12)
        problems = cp._build_problems(m_data, mask, maps, part, config)
        states = cp._init_states(problems, m_data, mask, 2, 0)
        for l in part.areas:
            prob, st = problems[l], states[l]
            z = cp._flow_target(prob, st)
            u_new = cp.update_u(prob, st, z)
            v_new = cp.update_v(prob, st, u_new, z)
            assert np.max(np.abs(u_new - st.u)) < 1e-6
            assert np.max(np.abs(v_new - st.v)) < 1e-6

    def test_unsolved_normal_equations_raise(self, small_setup, monkeypatch):
        """The post-solve gradient check is a typed error, so it also holds
        under python -O."""
        m_data, mask, maps, part, problems = small_setup
        states = cp._init_states(problems, m_data, mask, 2, 0)
        prob, st = problems[2], states[2]
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solve(h, rhs) + 1.0)
        z = cp._flow_target(prob, st)
        with pytest.raises(cp.CompletionError):
            cp.update_u(prob, st, z)
        with pytest.raises(cp.CompletionError):
            cp.update_v(prob, st, st.u, z)

    def test_normal_equation_check_survives_optimize_flag(self):
        """The same check in a `python -O` interpreter, which strips
        `assert` statements: a wrong solve still raises CompletionError."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from gridmc import completion as cp
            from gridmc import gridmodel as gm
            from reference import admm_config
            if not sys.flags.optimize:
                sys.exit(2)
            rng = np.random.default_rng(0)
            m_data = rng.standard_normal((6, 4))
            mask = rng.random((6, 4)) < 0.7
            config = admm_config(rank=2)
            part = gm.AreaPartition.contiguous(4, 1)
            prob = cp._build_problems(m_data, mask, None, part, config)[1]
            st = cp._init_states({1: prob}, m_data, mask, 2, 0)[1]
            solve = cp._solve_quadratic
            cp._solve_quadratic = lambda h, rhs: solve(h, rhs) + 1.0
            try:
                cp.update_u(prob, st, cp._flow_target(prob, st))
            except cp.CompletionError:
                sys.exit(0)
            sys.exit(1)
        """)
        tests = Path(__file__).resolve().parent
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
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
        m, r, n_l, t_steps = prob.m_obs.shape[0], 3, prob.n_l, maps.n_steps
        z = cp._flow_target(prob, st)
        u_new = cp.update_u(prob, st, z)
        cp.update_v(prob, st, u_new, z)
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

        full_v = normal(np.kron(np.eye(n_l), u_new), 1.0 + config.prox_c)  # on vec_F(V)
        # the V matrix acts on V row-major: unknown (j, c) is entry c r + j of vec_F(V)
        order = np.arange(r * n_l).reshape(n_l, r).T.ravel()
        full_v = full_v[np.ix_(order, order)]
        assert np.max(np.abs(h_v - full_v)) < 1e-10 * np.max(np.abs(full_v))

    def test_unmapped_u_splits_per_row(self, three_step_setup, monkeypatch):
        """Without flow maps the U blocks are the r x r diagonal blocks of
        the textbook normal matrix, one per row of U."""
        m_data, mask, *_ = three_step_setup
        config = admm_config(rank=3, mu=3.0)
        prob = cp._build_problems(
            m_data, mask, None, gm.AreaPartition.contiguous(m_data.shape[1], 1), config
        )[1]
        st = cp._init_states({1: prob}, m_data, mask, 3, 0)[1]
        solved = []
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solved.append(h) or solve(h, rhs))
        cp.update_u(prob, st, cp._flow_target(prob, st))
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


def _block_diag(blocks, base):
    """(n_sys, k, r, r) -> (n_sys, k, r, k, r): each system's k blocks on its
    block diagonal, plus base on its main diagonal, all else zero: the data
    part of the U and V normal matrices, assembled without an index."""
    n_sys, k, r, _ = blocks.shape
    out = np.zeros((n_sys, k, r, k, r))
    diag = np.arange(k)
    out[:, diag, :, diag, :] = blocks.transpose(1, 0, 2, 3)
    out.reshape(n_sys, -1)[:, :: k * r + 1] += base
    return out


def _flow_hessian(prob, config):
    """One step's flow Hessian nu G_ll^T G_ll + lam sum_j B_jl^T B_jl of
    the area, all 25 of its blocks, as (k, c, k', c')."""
    own, n_l = 3 * prob.n_l, prob.n_l
    g_ll, b_in = prob.flow.stack[:own], prob.flow.stack[own:]
    h = config.nu * (g_ll.T @ g_ll) + config.lam * (b_in.T @ b_in)
    return h.reshape(5, n_l, 5, n_l)


def _reference_u_system(maps, prob, st, config, z):
    """update_u's normal matrices and right-hand side: the zero-filled data
    blocks plus base, then the flow part contracted from all 25 blocks of
    H, V H_kk' V^T at (k, k')."""
    m, r = st.u.shape
    v = st.v
    base = 1.0 / prob.n_areas + config.prox_c + config.gamma * prob.deg
    rhs = z @ v.T + config.prox_c * st.u + config.gamma * st.pull
    data = (config.mu * prob.mask) @ cp._outer_rows(v.T)
    rows = 5 if maps is not None else 1
    h = _block_diag(data.reshape(m // rows, rows, r, r), base)
    if maps is not None:
        h += np.einsum("jc,kcKd,Jd->kjKJ", v, _flow_hessian(prob, config), v)
    return h.reshape(-1, rows * r, rows * r), rhs.reshape(m // rows, rows * r)


def _reference_v_system(maps, prob, st, u_new, config, z):
    """update_v's normal matrix and right-hand side on V row-major, (j, c):
    the zero-filled data block of each column c plus base, then
    sum_kk' W_kk' kron H_kk' over all 25 blocks of H."""
    r, n_l = u_new.shape[1], prob.n_l
    rhs = u_new.T @ z + config.prox_c * st.v
    data = (config.mu * prob.mask.T) @ cp._outer_rows(u_new)
    h = _block_diag(data.reshape(1, n_l, r, r), 1.0 + config.prox_c)[0]
    h = h.transpose(1, 0, 3, 2)  # (c, j, c', j') -> (j, c, j', c')
    if maps is not None:
        u_steps = u_new.reshape(maps.n_steps, 5, r)
        w = np.einsum("tkj,tKJ->kjKJ", u_steps, u_steps)
        h = h + np.einsum("kjKJ,kcKd->jcJd", w, _flow_hessian(prob, config))
    return h.reshape(r * n_l, r * n_l), rhs.ravel()


class TestNormalMatrixAssembly:
    """The U and V normal matrices, written through flat block positions,
    equal the zero-filled assembly with the flow part from all of H: bit
    for bit without flow maps, and within 1e-12 relative with them, whose
    flow blocks and voltage diagonal sum in another order.  Their
    right-hand sides are equal bit for bit."""

    @pytest.mark.parametrize("areas", ["three", "single"])
    @pytest.mark.parametrize("with_maps", [True, False])
    def test_bit_equal_to_block_diag_assembly(self, three_step_setup, monkeypatch,
                                              areas, with_maps):
        m_data, mask, maps, part, _ = three_step_setup
        if areas == "single":
            # the same T=3 feeder as one area
            net, _ = gm.generate_radial_feeder(9, seed=2, n_steps=3)
            part = gm.AreaPartition.contiguous(net.n_phases, 1)
            model = lf.build_linear_model(net, n_steps=3)
            maps = lf.build_area_maps(model, part)
        config = cp.AdmmConfig(rank=3, mu=3.0, nu=2.0, gamma=1.5, lam=0.5)
        maps = maps if with_maps else None
        problems = cp._build_problems(m_data, mask, maps, part, config)
        states = _perturbed_states(problems, m_data, mask, 3, 5)
        solved = []
        solve = cp._solve_quadratic
        monkeypatch.setattr(cp, "_solve_quadratic",
                            lambda h, rhs: solved.append((h, rhs)) or solve(h, rhs))

        def assert_matches(h, ref):
            if with_maps:
                assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
            else:
                assert np.array_equal(h, ref)

        for l, prob in problems.items():
            st = states[l]
            z = cp._flow_target(prob, st)
            u_new = cp.update_u(prob, st, z)
            cp.update_v(prob, st, u_new, z)
            (h_u, rhs_u), (h_v, rhs_v) = solved[-2:]
            ref_h_u, ref_rhs_u = _reference_u_system(maps, prob, st, config, z)
            ref_h_v, ref_rhs_v = _reference_v_system(maps, prob, st, u_new, config, z)
            assert h_u.shape == ref_h_u.shape and h_v.shape == ref_h_v.shape
            assert_matches(h_u, ref_h_u)
            assert_matches(h_v, ref_h_v)
            assert np.array_equal(rhs_u, ref_rhs_u) and np.array_equal(rhs_v, ref_rhs_v)
        assert len(solved) == 2 * len(problems)

    @pytest.mark.parametrize("n_sys, k, with_flow", [
        (4, 5, True),  # U: one 5r system per step, with flow maps
        (20, 1, False),  # U: one r system per row, without
        (1, 6, True),  # V: one n_l r system
        (1, 6, False),
    ])
    def test_normal_matrix_equals_zero_filled_blocks(self, n_sys, k, with_flow):
        """Data blocks added at the flat positions `_block_positions` gives
        the diagonal blocks, over a flow part the same for every system,
        equal the zero-filled assembly plus the flow part bit for bit,
        whether block i holds the unknowns i r + j (U_t row-major) or j k + i
        (column i of V row-major)."""
        rng = np.random.default_rng(7)
        r, base = 3, 0.7
        data = rng.standard_normal((n_sys, k, r, r))
        flow = rng.standard_normal((k, r, k, r)) if with_flow else np.zeros((k, r, k, r))
        want = _block_diag(data, base) + flow  # (n_sys, block, j, block', j')
        blocks = data + base * np.eye(r)
        diag = np.arange(k)
        for interleaved, axes in ((False, (0, 1, 2, 3, 4)), (True, (0, 2, 1, 4, 3))):
            got = np.empty((n_sys, (k * r) ** 2))
            got[...] = flow[None].transpose(axes).reshape(1, -1)
            got[:, cp._block_positions(diag, diag, k, r, interleaved)] += blocks
            assert np.array_equal(got, want.transpose(axes).reshape(n_sys, -1))


def _flow_instance(kind: str, n_areas: int):
    """Partition and area maps, T=2, of feeder33, the 129-bus random feeder
    or a 33-bus three-phase random feeder."""
    if kind == "feeder33":
        net, _, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=n_areas)
    else:
        net, _ = gm.generate_radial_feeder(129 if kind == "random128" else 33, seed=0,
                                           n_steps=2, three_phase=kind == "three-phase")
        part = gm.AreaPartition.contiguous(net.n_phases, n_areas)
    return part, lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)


class TestFlowHessianBlocks:
    @pytest.mark.parametrize("kind, n_areas", [
        ("feeder33", 1), ("feeder33", 5), ("random128", 5), ("three-phase", 3),
    ])
    def test_voltage_blocks_are_nu_identity(self, kind, n_areas):
        """On every area, the 9 blocks of H between two voltage rows are
        exactly nu I and 0, as `_build_problems` checks, and `h_blocks`
        holds the 16 others exactly."""
        part, maps = _flow_instance(kind, n_areas)
        config = admm_config(rank=3, nu=3.0, lam=0.5)
        m, n = 10, part.assignment.size
        problems = cp._build_problems(np.zeros((m, n)), np.zeros((m, n), dtype=bool),
                                      maps, part, config)
        assert len(problems) == n_areas
        fixed = [(k, kk) for k in range(3) for kk in range(3)]
        assert sorted(fixed + [tuple(b) for b in cp._FLOW_BLOCKS.T.tolist()]) == [
            (k, kk) for k in range(5) for kk in range(5)]
        for prob in problems.values():
            h, n_l = _flow_hessian(prob, config), prob.n_l
            for k, kk in fixed:
                assert np.array_equal(h[k, :, kk, :], config.nu * (k == kk) * np.eye(n_l))
            for block, (k, kk) in zip(prob.h_blocks, cp._FLOW_BLOCKS.T):
                assert np.array_equal(block.reshape(n_l, n_l), h[k, :, kk, :])

    @pytest.mark.parametrize("row", ["own", "neighbor"])
    def test_voltage_column_entry_is_refused(self, small_instance, row):
        """A stack with a nonzero off the unit entries of the voltage columns,
        in G_ll or in a B_jl, is refused with a typed error."""
        mat, maps = small_instance["mat"], small_instance["maps"]
        stack = maps.areas[2].stack.copy()
        stack[1 if row == "own" else 3 * maps.areas[2].cols.size, 0] = 0.25
        areas = {**maps.areas, 2: dataclasses.replace(maps.areas[2], stack=stack)}
        broken = dataclasses.replace(maps, areas=areas)
        mask = np.ones(mat.shape, dtype=bool)
        with pytest.raises(cp.CompletionError, match="area 2"):
            cp._build_problems(mat, mask, broken, small_instance["part"], admm_config())


def test_each_problem_holds_only_its_own_blocks():
    """An area's problem holds its own record of the area maps, the very
    `AreaFlow` that `AreaMaps.areas` holds, so the solver copies nothing,
    and no field holds the maps themselves, whose other areas' blocks the
    area's updates must not reach."""
    part, maps = _flow_instance("feeder33", 5)
    m, n = 10, part.assignment.size
    problems = cp._build_problems(np.zeros((m, n)), np.zeros((m, n), dtype=bool),
                                  maps, part, admm_config(rank=3))
    assert sorted(problems) == list(part.areas)
    for l, prob in problems.items():
        assert not any(isinstance(getattr(prob, f.name), lf.AreaMaps)
                       for f in dataclasses.fields(prob))
        assert prob.flow is maps.areas[l]


def _star(small_instance, deg: int = 4):
    """The 9-bus feeder in five areas, area 1 adjacent to areas 2 .. deg + 1:
    its partition, area maps and per-area problems.  Phases 0 and 3-6 lie
    on one branch, so every coupling block of area 1 has positive rank."""
    mat, model = small_instance["mat"], small_instance["model"]
    part = gm.AreaPartition(
        assignment=np.array([1, 1, 1, 2, 3, 4, 5, 1]), n_areas=5,
        adjacency=frozenset(frozenset((1, j)) for j in range(2, deg + 2)),
    )
    maps = lf.build_area_maps(model, part)
    mask = np.ones(mat.shape, dtype=bool)
    return part, maps, cp._build_problems(mat, mask, maps, part, admm_config())


@pytest.fixture(scope="module")
def star_setup(small_instance):
    """deg -> (area maps, area 1's problem) of `_star` with area 1 of that
    degree, for degrees 1 to 4."""
    stars = {deg: _star(small_instance, deg) for deg in range(1, 5)}
    return {deg: (maps, problems[1]) for deg, (_, maps, problems) in stars.items()}


class TestQUpdate:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), lam=st.floats(0.1, 100.0),
           nu=st.floats(0.1, 100.0))
    def test_solves_coupled_system(self, small_setup, seed, lam, nu):
        """q_lj = e_lj - Lambda_l + Lambda_l' and the returned sum satisfy
        the defining normal equations lam*q_j + nu*sum_i q_i = rhs_j for
        every neighbor j."""
        m_data, mask, maps, part, _ = small_setup
        config = admm_config(lam=lam, nu=nu)
        prob = cp._build_problems(m_data, mask, maps, part, config)[2]  # degree 2
        rng = np.random.default_rng(seed)
        d = maps.areas[2].f.shape
        e_ll_val = rng.standard_normal(d)
        coords = {j: rng.standard_normal((maps.n_steps, maps.coupling_rank(2, j)))
                  for j in prob.neighbors}
        e_in = {j: expand(maps, 2, j, c) for j, c in coords.items()}
        dual = rng.standard_normal(d)
        total, dual_new, _ = cp.update_q(prob, e_ll_val, coords, dual)
        for j in prob.neighbors:
            q_j = e_in[j] - dual + dual_new
            rhs = lam * (e_in[j] - dual) + nu * (prob.flow.f - e_ll_val)
            assert np.max(np.abs(lam * q_j + nu * total - rhs)) < 1e-7 * (
                1 + np.max(np.abs(rhs))
            )

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 5000), lam=st.floats(0.1, 100.0),
           nu=st.floats(0.1, 100.0), deg=st.integers(1, 4))
    def test_matches_per_edge_update(self, star_setup, seed, lam, nu, deg):
        """From a common dual Lambda_lj = Lambda_l, the per-edge update gives
        every Lambda_lj' the returned Lambda_l', sum_j q_lj the returned sum,
        and A_lj^T (q_lj + Lambda_lj') the returned pull point for each j,
        within 1e-12 relative.  The per-edge form forms q_lj as a difference
        of terms of size |rhs_j| / lam (see `test_solves_coupled_system`), so
        its rounding is relative to the largest of them when they exceed the
        result."""
        maps, prob = star_setup[deg]
        prob = dataclasses.replace(prob, config=admm_config(lam=lam, nu=nu))
        assert prob.deg == deg
        rng = np.random.default_rng(seed)
        l, d = prob.area, maps.areas[prob.area].f.shape
        e_ll_val = rng.standard_normal(d)
        coords = {j: rng.standard_normal((maps.n_steps, maps.coupling_rank(l, j)))
                  for j in prob.neighbors}
        e_in = {j: expand(maps, l, j, c) for j, c in coords.items()}
        dual = rng.standard_normal(d)
        total, dual_new, pulls = cp.update_q(prob, e_ll_val, coords, dual)
        q, duals = update_q_per_edge(prob, e_ll_val, e_in,
                                     {j: dual for j in prob.neighbors})

        own = nu * (prob.flow.f - e_ll_val)
        cancelled = max(np.linalg.norm(lam * (e_in[j] - dual) + own)
                        for j in prob.neighbors) / lam

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want),
                                                             cancelled)

        assert list(pulls) == prob.neighbors
        assert close(total, sum(q.values()))
        for j in prob.neighbors:
            assert close(dual_new, duals[j])
            assert close(pulls[j], project(maps, l, j, q[j] + duals[j]))

    def test_no_neighbors(self, small_instance, small_setup, monkeypatch):
        """A single area has no q terms: a run with flow maps never calls
        `update_q`."""
        m_data, mask, *_ = small_setup
        part = gm.AreaPartition.contiguous(m_data.shape[1], 1)
        maps = lf.build_area_maps(small_instance["model"], part)
        calls = []
        monkeypatch.setattr(cp, "update_q", lambda *args: calls.append(args))
        result = cp.run_decentralized(m_data, mask, maps, part,
                                      admm_config(rank=2, max_iters=5, tol=1e-14))
        assert result.trace.iterations == 5 and calls == []


class TestDualUpdate:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 5000), deg=st.integers(1, 4),
           scale=st.floats(1e-3, 1e3))
    def test_matches_per_edge_update(self, seed, deg, scale):
        """For random per-edge duals Gamma_lj (not one another's negations)
        and received factors U_j, the returned Gamma_lj' and pull match the
        form through S_lj = (U_l + U_j) / 2 within 1e-12 relative to the
        largest input, the size of the terms both forms add."""
        rng = np.random.default_rng(seed)
        shape = (10, 3)
        u_l = scale * rng.standard_normal(shape)
        u_in = scale * rng.standard_normal((deg, *shape))  # stacked in neighbor order
        gamma = scale * rng.standard_normal((deg, *shape))
        before = gamma.copy()
        st = cp.AreaState(u=u_l, v=None, x=None, pull=None, gamma=gamma)
        got_gamma, got_pull = cp.update_duals(st, u_in)
        want_gamma, want_pull = update_duals_per_edge(dict(enumerate(before)), u_l,
                                                      dict(enumerate(u_in)))
        size = max(np.linalg.norm(a) for a in [u_l, *u_in, *gamma])

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), size)

        assert got_gamma.shape == gamma.shape
        assert close(got_pull, want_pull)
        for j in range(deg):
            assert close(got_gamma[j], want_gamma[j])
        # a new array: the state's duals are not stepped in place
        assert st.gamma is gamma and np.array_equal(gamma, before)
        assert not np.shares_memory(got_gamma, gamma)


@pytest.fixture(scope="module")
def short_run(small_setup):
    """20 iterations, plus the (area, U) of every U update of the run."""
    m_data, mask, maps, part, problems = small_setup
    config = admm_config(rank=2, max_iters=20, tol=1e-14)
    solved = []
    update_u = cp.update_u

    def recorded(prob, st, z):
        solved.append((prob.area, update_u(prob, st, z)))
        return solved[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "update_u", recorded)
        result = cp.run_decentralized(m_data, mask, maps, part, config,
                                      reference=m_data)
    return result, m_data, part, solved


class TestDecentralizedRun:
    def test_trace_lengths(self, short_run):
        result, m_data, part, solved = short_run
        assert result.trace.iterations == 20
        assert len(result.trace.rmse) == 20
        assert len(result.trace.consensus) == 20
        assert len(solved) == 20 * part.n_areas
        for l in part.areas:  # the last U each area solved is the one it kept
            last = [u for area, u in solved if area == l][-1]
            assert last is result.states[l].u

    def test_assembled_x_matches_blocks(self, short_run):
        result, m_data, part, _ = short_run
        x = result.x
        assert x.shape == m_data.shape
        for l in part.areas:
            assert np.array_equal(x[:, part.phases_in(l)], result.states[l].x)

    def test_consensus_dual_antisymmetry(self, short_run):
        """Opposite-direction basis duals stay exact negatives of each other,
        bit for bit: each end of an edge steps its dual by the negation of
        the other end's step."""
        result, m_data, part, _ = short_run
        for l in part.areas:
            for j in part.neighbors(l):
                g_lj = result.states[l].gamma[part.neighbors(l).index(j)]
                g_jl = result.states[j].gamma[part.neighbors(j).index(l)]
                assert np.any(g_lj) and np.array_equal(g_lj, -g_jl)

    def test_flow_pull_is_the_owners_projection(self, small_setup, monkeypatch):
        """Every U update reads, for each neighbor j, the pull point
        A_jl^T (q_jl + Lambda_j) = c_jl + A_jl^T (2 Lambda_j - Lambda_j^prev)
        of area j's own dual, before and after its last q update, and of the
        coordinates c_jl of E_jl(X_l) area l sent, formed one block at a time
        (`reference.coordinates`, `reference.project`), within 1e-13 of the
        size of those two terms: no area keeps a copy of a neighbor's dual."""
        m_data, mask, maps, part, _ = small_setup
        states, before, checked = {}, {}, []
        init, update_q, update_u = cp._init_states, cp.update_q, cp.update_u

        def init_kept(*args):
            states.update(init(*args))
            return states

        def update_q_kept(prob, e_ll_val, coords_in, dual):
            before[prob.area] = dual
            return update_q(prob, e_ll_val, coords_in, dual)

        def update_u_checked(prob, st, z):
            l = prob.area
            for j in prob.neighbors:
                owner = states[j]
                step = 2.0 * owner.lam - before.get(j, owner.lam)
                c, a_step = coordinates(maps, l, st.x)[j], project(maps, j, l, step)
                read = st.row_targets[:, prob.flow.stack_rows[j]]
                gap = np.linalg.norm(read - (c + a_step))
                checked.append((gap <= 1e-13 * (np.linalg.norm(c) + np.linalg.norm(a_step)),
                                bool(np.any(owner.lam))))
            return update_u(prob, st, z)

        monkeypatch.setattr(cp, "_init_states", init_kept)
        monkeypatch.setattr(cp, "update_q", update_q_kept)
        monkeypatch.setattr(cp, "update_u", update_u_checked)
        k = 20
        cp.run_decentralized(m_data, mask, maps, part,
                             admm_config(rank=2, max_iters=k, tol=1e-14))
        pairs = sum(len(part.neighbors(l)) for l in part.areas)
        assert len(checked) == k * pairs
        assert all(same for same, _ in checked)
        assert sum(moved for _, moved in checked) == (k - 1) * pairs  # duals start at 0

    def test_objective_decreases_overall(self, short_run):
        result, _, _, _ = short_run
        obj = result.trace.objective
        assert obj[-1] < obj[0]

    def test_maps_of_another_partition_are_refused(self):
        """Maps built for another partition, one with a different assignment
        or one with the same assignment and another adjacency, are refused
        with a typed error (they used to raise a bare KeyError); an equal
        partition built anew is accepted."""
        net, _, part = gm.feeder33_analog(seed=0, n_steps=1, n_areas=4)
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=1), part)
        five = gm.feeder33_analog(seed=0, n_steps=1, n_areas=5)[2]
        chain = gm.AreaPartition(assignment=part.assignment, n_areas=4,
                                 adjacency=gm.AreaPartition.contiguous(32, 4).adjacency)
        rng = np.random.default_rng(0)
        m_data, mask = rng.standard_normal((5, 32)), np.ones((5, 32), dtype=bool)
        config = admm_config(rank=2, max_iters=1)
        for other in (five, chain):
            with pytest.raises(cp.CompletionError, match="another partition"):
                cp.run_decentralized(m_data, mask, maps, other, config)
        rebuilt = gm.feeder33_analog(seed=1, n_steps=1, n_areas=4)[2]
        assert rebuilt is not part
        result = cp.run_decentralized(m_data, mask, maps, rebuilt, config)
        assert result.trace.iterations == 1

    def test_maps_of_another_window_are_refused(self, small_instance):
        """Maps built for T = 2 and a T = 3 matrix are refused with a typed
        error naming both row counts."""
        maps, part = small_instance["maps"], small_instance["part"]
        m_data = np.random.default_rng(0).standard_normal((15, part.assignment.size))
        with pytest.raises(cp.CompletionError, match="built for 10 rows .* has 15"):
            cp.run_decentralized(m_data, np.ones(m_data.shape, dtype=bool), maps,
                                 part, admm_config(rank=2, max_iters=1))

    def test_data_of_other_width_is_refused(self, analog33):
        """feeder33's 32-phase partition refuses a matrix of 33 columns,
        whose last column no area owns, one of 31 and a vector, with a
        typed error naming the data's shape and the phase count."""
        net, _, part = analog33
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)
        for shape in [(10, 33), (10, 31), (10,)]:
            m_data = np.random.default_rng(0).standard_normal(shape)
            with pytest.raises(cp.CompletionError) as err:
                cp.run_decentralized(m_data, np.ones(m_data.shape, dtype=bool), maps,
                                     part, admm_config(rank=2, max_iters=1))
            assert str(err.value) == f"data of shape {shape} for 32 phases"

    def test_mask_of_other_shape_is_refused(self, analog33):
        """A mask wider, taller or narrower than the data is refused with a
        typed error naming both shapes."""
        net, _, part = analog33
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)
        m_data = np.random.default_rng(0).standard_normal((10, 32))
        for shape in [(10, 33), (15, 32), (10, 31)]:
            with pytest.raises(cp.CompletionError) as err:
                cp.run_decentralized(m_data, np.ones(shape, dtype=bool), maps,
                                     part, admm_config(rank=2, max_iters=1))
            assert str(err.value) == f"mask of shape {shape} for data of shape (10, 32)"

    def test_divergence_error_reports_iteration(self):
        err = cp.DivergenceError(iteration=7)
        assert err.iteration == 7
        assert "7" in str(err)

    def test_divergence_inside_an_iteration_reports_that_iteration(self, monkeypatch):
        """An iterate that turns non-finite inside an iteration raises
        DivergenceError with that iteration, from the first solve that meets
        it: area 2's U scaled by 1e200 in iteration 3 of a feeder33, T=2,
        five-area run overflows area 2's V system."""
        config = cli.ExperimentConfig(feeder="feeder33", time_steps=2, areas=5,
                                      admm=cp.AdmmConfig(rank=5, max_iters=10))
        instance = cli._build_instance(config)
        update_u, solved = cp.update_u, []

        def scaled(prob, st, z):
            solved.append(prob.area)
            u_new = update_u(prob, st, z)
            return 1e200 * u_new if solved.count(2) == 4 and prob.area == 2 else u_new

        monkeypatch.setattr(cp, "update_u", scaled)
        # numpy's overflow warnings, as a run outside pytest leaves them
        with np.errstate(all="ignore"), pytest.raises(cp.DivergenceError) as err:
            cli._single_run(config, instance, 0)
        assert err.value.iteration == 3

    def test_singular_block_solve_reports_divergence(self, small_setup, monkeypatch):
        """A block solve whose normal matrix is singular, as rounding can
        make it once a diverging iterate is far out of scale, is divergence,
        raised with the iteration of the failing solve: `np.linalg.solve`
        fails area 2's U solve in iteration 3 of a three-area run."""
        m_data, mask, maps, part, _ = small_setup
        update_u, solve, solved, failed = cp.update_u, np.linalg.solve, [], []

        def counted(prob, st, z):
            solved.append(prob.area)
            return update_u(prob, st, z)

        def singular(h, rhs):
            if solved[-1] == 2 and solved.count(2) == 4 and not failed:
                failed.append(h.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(h, rhs)

        monkeypatch.setattr(cp, "update_u", counted)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(cp.DivergenceError) as err:
            cp.run_decentralized(m_data, mask, maps, part, admm_config(rank=2, max_iters=10))
        assert err.value.iteration == 3
        assert failed == [(maps.n_steps, 10, 10)]  # T stacked 5r x 5r U systems

    def test_disconnected_area_graph_is_refused(self):
        """No path joins the bases U_l of two areas in different pieces of
        the area graph, so the consensus average the certificate reads mixes
        unrelated factors: feeder33's 5-area assignment without adjacency
        pairs, and a 4-area partition of two connected halves, are refused.
        One area still runs."""
        five = gm.feeder33_analog(seed=0, n_steps=1, n_areas=5)[2]
        four = gm.feeder33_analog(seed=0, n_steps=1, n_areas=4)[2]
        cut = gm.AreaPartition(assignment=five.assignment, n_areas=5)
        halves = gm.AreaPartition(assignment=four.assignment, n_areas=4,
                                  adjacency=frozenset({frozenset({1, 2}), frozenset({3, 4})}))
        rng = np.random.default_rng(0)
        m_data, mask = rng.standard_normal((5, 32)), np.ones((5, 32), dtype=bool)
        config = admm_config(rank=2, max_iters=1)
        for part in (cut, halves):
            with pytest.raises(cp.CompletionError, match="not connected"):
                cp.run_decentralized(m_data, mask, None, part, config)
        one = gm.AreaPartition.contiguous(32, 1)
        assert cp.run_decentralized(m_data, mask, None, one, config).trace.iterations == 1


class TestOverRelaxation:
    @pytest.mark.parametrize("omega", [1.0, 1.5, 1.98])
    def test_growth_or_zero_step_resets_to_one(self, omega):
        for ratio in (1.0, 1.5, 1e6):
            assert cp._relaxation_factor(omega, ratio * 0.3, 0.3) == 1.0
        assert cp._relaxation_factor(omega, 0.3, 0.0) == 1.0
        assert cp._relaxation_factor(omega, 0.0, 0.0) == 1.0

    def test_first_estimate(self):
        got = cp._relaxation_factor(1.0, 0.9, 1.0)
        assert got == pytest.approx(2.0 / (1.0 + np.sqrt(0.1)), rel=1e-14)
        assert got == pytest.approx(1.5195, abs=1e-4)

    @pytest.mark.parametrize("omega", [1.2, 1.5, 1.9])
    def test_ratio_at_most_omega_minus_one_keeps_omega(self, omega):
        for ratio in (0.0, 0.5 * (omega - 1.0), omega - 1.0):
            assert cp._relaxation_factor(omega, ratio, 1.0) == omega

    @pytest.mark.parametrize("omega", [1.0, 1.5, 1.98])
    def test_stays_below_two_as_the_ratio_nears_one(self, omega):
        for gap in (1e-2, 1e-6, 1e-12, 1e-16):
            got = cp._relaxation_factor(omega, 1.0 - gap, 1.0)
            assert 1.0 <= got < 1.9802  # 2 / (1 + sqrt(1 - 0.9999))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("time_steps", [10, 5])
    def test_single_area_objective_never_increases(self, time_steps, seed):
        """Each relaxed block step at omega < 2 is a descent step of its
        quadratic, and `balance` keeps X and lowers the norm term, so a
        single area's objective never rises (feeder33, paper weights), nor
        at the final exact V step, whose state the last trace row reads."""
        config = cli.ExperimentConfig(
            feeder="feeder33", time_steps=time_steps, areas=1,
            admm=cp.AdmmConfig(rank=5))
        part, _, mat, maps = instance = cli._build_instance(config)
        result, _, mask, data = cli._single_run(config, instance, seed)
        problems = cp._build_problems(data, mask.observed, maps, part, config.admm)
        obj = result.trace.objective
        assert obj[-1] == cp._objective_decentralized(problems, result.states, config.admm)
        assert result.trace.rmse[-1] == pytest.approx(
            np.sqrt(np.mean((result.x - mat) ** 2)), rel=1e-12)
        assert result.converged and len(obj) > 10
        for before, after in zip(obj, obj[1:]):
            assert after <= before * (1.0 + 1e-12)


class TestOncePerIteration:
    def test_area_work_runs_once_per_area_per_iteration(self, small_setup,
                                                        monkeypatch):
        """The flow target Z, and E_ll(X_l) with the sent flow coordinates
        (one product with S_l), are computed once per area per iteration;
        the stored X_l and E_ll(X_l) are those of the final factors."""
        m_data, mask, maps, part, _ = small_setup
        counts = {"_flow_target": 0, "terms": 0}
        owners = {"_flow_target": cp, "terms": lf.AreaFlow}

        def counted(name):
            fn = getattr(owners[name], name)

            def call(*args):
                counts[name] += 1
                return fn(*args)

            return call

        for name in counts:
            monkeypatch.setattr(owners[name], name, counted(name))
        at_init = {}
        init = cp._init_states

        def init_counted(*args):
            states = init(*args)
            at_init.update(counts)
            return states

        monkeypatch.setattr(cp, "_init_states", init_counted)
        k = 4
        config = admm_config(rank=2, max_iters=k, tol=1e-14)
        result = cp.run_decentralized(m_data, mask, maps, part, config)
        assert result.trace.iterations == k and part.n_areas == 3
        per_iteration = {name: counts[name] - at_init[name] for name in counts}
        assert per_iteration == {name: part.n_areas * k for name in counts}
        for l in part.areas:
            st = result.states[l]
            assert np.array_equal(st.x, st.u @ st.v)
            want = apply(maps, l, l, st.x)
            assert np.linalg.norm(st.e_ll - want) <= 1e-13 * np.linalg.norm(want)
            assert np.array_equal(result.x[:, part.phases_in(l)], st.x)


class TestStackedFlowProducts:
    def test_star_matches_the_per_neighbor_formulas(self, small_instance, monkeypatch):
        """On the degree-4 star, the row blocks of S_1 are bit-equal to G_11
        and to each B_j1 built one pair at a time.  In every iteration after
        the first, the Z of area 1 equals nu (f_1 - sum_j q_1j) G_11 + sum_j
        lam y_j B_j1 + mu P_Omega(M_1) per step, from the q sum its last q
        update returned and the pull points y_j its neighbors' q updates
        returned; and at the end E_11(X_1) and the coordinates each neighbor
        received equal `reference.apply` and `reference.coordinates`; all
        within 1e-13 relative."""
        part, maps, problems = _star(small_instance)
        model, mat = small_instance["model"], small_instance["mat"]
        prob = problems[1]
        own = maps.areas[1].cols
        s_1 = maps.areas[1].stack
        assert prob.neighbors == [2, 3, 4, 5] and s_1 is prob.flow.stack
        blocks = np.split(s_1, np.cumsum([3 * own.size] + [
            maps.coupling_rank(j, 1) for j in prob.neighbors])[:-1])
        g_11 = lf._step_block(model, own, own, True)
        assert np.array_equal(blocks[0], g_11)
        b_in = {j: lf._coupling_factors(model, maps.areas[j].cols, own)[1]
                for j in prob.neighbors}
        for j, block in zip(prob.neighbors, blocks[1:]):
            assert np.array_equal(block, b_in[j])

        config = prob.config
        q_sum, pulls, received, checked = {}, {}, {}, []
        update_q, update_u = cp.update_q, cp.update_u

        def update_q_kept(p, e_ll_val, coords_in, dual):
            out = update_q(p, e_ll_val, coords_in, dual)
            if p.area == 1:
                q_sum["last"] = out[0]
            else:
                pulls[p.area], received[p.area] = out[2][1], coords_in[1]
            return out

        def relative_gap(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        def update_u_checked(p, st, z):
            if p.area == 1 and "last" in q_sum:
                want = config.nu * ((maps.areas[1].f - q_sum["last"]) @ g_11)
                for j in p.neighbors:
                    want += config.lam * (pulls[j] @ b_in[j])
                want = want.reshape(-1, p.n_l) + config.mu * p.m_obs
                checked.append(relative_gap(z, want))
            return update_u(p, st, z)

        monkeypatch.setattr(cp, "update_q", update_q_kept)
        monkeypatch.setattr(cp, "update_u", update_u_checked)
        k = 5
        result = cp.run_decentralized(mat, np.ones(mat.shape, dtype=bool), maps, part,
                                      dataclasses.replace(config, max_iters=k, tol=1e-14))
        assert result.trace.iterations == k and len(checked) == k - 1
        assert max(checked) <= 1e-13
        st = result.states[1]
        assert relative_gap(st.e_ll, apply(maps, 1, 1, st.x)) <= 1e-13
        sent = coordinates(maps, 1, st.x)
        assert set(received) == set(sent)
        for j, c in sent.items():
            assert relative_gap(received[j], c) <= 1e-13


class TestMessagePayloads:
    def test_delivered_payloads_never_change(self, three_step_setup, monkeypatch):
        """A message holds the sender's array, not a copy, so no area may
        update a sent array in place: every payload delivered so far still
        has its bytes at the start of each later round and after the run."""
        m_data, mask, maps, part, _ = three_step_setup
        delivered = []  # (payload, its bytes when delivered)

        def unchanged():
            return all(payload.tobytes() == snapshot for payload, snapshot in delivered)

        run_round = sn.MessageBus.run_round

        def checked_round(bus, nodes, order=None):
            assert unchanged(), f"a payload changed before round {bus.round_index}"
            out = run_round(bus, nodes, order=order)
            delivered.extend((payload, payload.tobytes())
                             for inbox in bus._pending.values()
                             for payload in inbox.values())
            return out

        monkeypatch.setattr(sn.MessageBus, "run_round", checked_round)
        config = admm_config(rank=3, max_iters=5, tol=1e-14)
        result = cp.run_decentralized(m_data, mask, maps, part, config)
        assert result.trace.iterations == 5 and part.n_areas == 3
        assert result.bus.round_index == 10 and len(delivered) > 0
        assert unchanged(), "a payload changed after the last round"

    def test_payloads_are_the_blocks_the_products_make(self, monkeypatch):
        """One iteration on feeder33 in 5 areas, T=2: every message
        `run_decentralized` builds goes out as the array its product made.
        A "factor" is the sender's U_l, (m, r); a "flow-term" from l to j is
        (T, rank(G_jl)) and a "flow-pull" from l to j is (T, rank(G_lj))."""
        net, s, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
        mat = dm.build_matrix(gm.solve_exact_flow(net, s), s)
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)
        mask = dm.sample_mask(*mat.shape, 0.5, policy="scada", seed=0).observed
        sent = []

        run_round = sn.MessageBus.run_round

        def recorded_round(bus, nodes, order=None):
            def sender(l, fn):
                def call(inbox):
                    out, sends = fn(inbox)
                    sent.extend((l, *msg) for msg in sends)
                    return out, sends
                return call

            return run_round(bus, {l: sender(l, fn) for l, fn in nodes.items()}, order=order)

        monkeypatch.setattr(sn.MessageBus, "run_round", recorded_round)
        config = admm_config(rank=3, max_iters=1)
        result = cp.run_decentralized(mat, mask, maps, part, config)
        edges = sum(len(part.neighbors(l)) for l in part.areas)
        tags = [tag for _, _, tag, _ in sent]
        assert {tag: tags.count(tag) for tag in set(tags)} == {
            "factor": edges, "flow-term": edges, "flow-pull": edges}
        for l, j, tag, payload in sent:
            if tag == "factor":
                assert payload is result.states[l].u
                assert payload.shape == (maps.m, 3)
            elif tag == "flow-term":
                assert payload.shape == (maps.n_steps, maps.coupling_rank(j, l))
            else:
                assert payload.shape == (maps.n_steps, maps.coupling_rank(l, j))


class TestRankZeroCoupling:
    def test_uncoupled_neighbors_send_only_their_factors(self):
        """In the 9-bus feeder of seed 0 in 3 contiguous areas, areas 1 and
        2 share no line on their way to the slack bus, so G_12 and G_21 are
        exactly 0: both coupling ranks are 0, the factors are empty, and
        the pair exchanges only its basis factors, 2mr reals per
        iteration."""
        net, s = gm.generate_radial_feeder(9, seed=0, n_steps=2)
        part = gm.AreaPartition.contiguous(net.n_phases, 3)
        maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)
        pair = frozenset({1, 2})
        assert pair in part.adjacency
        assert not maps.model.g[np.ix_(maps.areas[1].cols, maps.areas[2].cols)].any()
        for l, j in [(1, 2), (2, 1)]:
            assert maps.coupling_rank(l, j) == 0
            a, b = factors(maps, l, j)
            assert a.shape == (3 * maps.areas[l].cols.size, 0)
            assert b.shape == (0, 5 * maps.areas[j].cols.size)
        assert maps.coupling_rank(2, 3) > 0 and maps.coupling_rank(3, 2) > 0

        mat = dm.build_matrix(gm.solve_exact_flow(net, s), s)
        mask = dm.sample_mask(*mat.shape, 0.6, policy="uniform", seed=4).observed
        k, r = 5, 2
        result = cp.run_decentralized(mat, mask, maps, part,
                                      admm_config(rank=r, max_iters=k, tol=1e-14))
        assert result.trace.iterations == k and result.bus.round_index == 2 * k
        per_iteration = [0] * k
        for (edge, rnd, _), units in result.bus.ledger.counts.items():
            if edge == pair:
                per_iteration[rnd // 2] += units
        assert per_iteration == [sn.protocol_comm_formula(maps.m, r, 0, 0)] * k
        assert np.isfinite(result.x).all()


class TestSvtOracle:
    def test_matches_pinned_convex_solution(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 15))
        mb = rng.random((20, 15)) < 0.6
        x = svt_oracle(a, mb, 50.0)
        obj = svt_objective(x, a, mb, 50.0)
        assert abs(obj - PINNED_CONVEX_OBJECTIVE) < 1e-6 * PINNED_CONVEX_OBJECTIVE

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(cp.CompletionError):
            svt_oracle(np.zeros((3, 3)), np.ones((3, 3), bool), 0.0)

    def test_full_observation_large_mu_recovers_data(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 5))
        x = svt_oracle(a, np.ones((8, 5), bool), 1e8)
        assert np.max(np.abs(x - a)) < 1e-6
