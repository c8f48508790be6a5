import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import certificate as ct
from gridmc import completion as cp
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm
from gridmc import linflow as lf
from reference import admm_config, h_from_loads, predict, sources


@pytest.fixture(scope="module")
def flow_operator(small_instance):
    """Stacked operator over the 9-bus instance with both row families."""
    mat = small_instance["mat"]
    maps = small_instance["maps"]
    mask = dm.sample_mask(*mat.shape, 0.5, policy="uniform", seed=9)
    op = ct.build_B_d(mask.observed, mat, maps, mu=10.0, nu=2.0)
    return op, mat, mask, maps


@pytest.fixture(scope="module")
def sampling_operator():
    rng = np.random.default_rng(12)
    m_data = rng.standard_normal((10, 6))
    mask = dm.sample_mask(10, 6, 0.4, policy="uniform", seed=12)
    return ct.build_B_d(mask.observed, m_data, None, mu=5.0, nu=0.0), m_data, mask


@pytest.fixture(scope="module")
def feeder33_operator():
    """Stacked operator over the 5-area feeder33 analog, T=2."""
    net, scen, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=5)
    mat = dm.build_matrix(gm.solve_exact_flow(net, scen.s), scen.s)
    model = lf.build_linear_model(net, n_steps=2)
    maps = lf.build_area_maps(model, part)
    mask = dm.sample_mask(*mat.shape, 0.5, policy="scada", seed=0)
    return ct.build_B_d(mask.observed, mat, maps, mu=10.0, nu=1.0)


@pytest.fixture(scope="module")
def random129_operator():
    """Stacked operator over the 129-bus random feeder in 5 contiguous
    areas, T=2, whose coupling blocks have rank 16 to 18."""
    net, scen = gm.generate_radial_feeder(129, seed=0, n_steps=2)
    part = gm.AreaPartition.contiguous(net.n_phases, 5)
    mat = dm.build_matrix(gm.solve_exact_flow(net, scen.s), scen.s)
    maps = lf.build_area_maps(lf.build_linear_model(net, n_steps=2), part)
    mask = dm.sample_mask(*mat.shape, 0.5, policy="scada", seed=0)
    return ct.build_B_d(mask.observed, mat, maps, mu=10.0, nu=1.0)


class TestBuildOperator:
    def test_row_count(self, flow_operator):
        op, m_data, mask, maps = flow_operator
        flow_rows = sum(maps.residual_dim(l) for l in maps.partition.areas)
        assert op.n_observed == len(mask)
        assert op.n_rows == len(mask) + flow_rows

    def test_sampling_rows_pick_entries(self, sampling_operator):
        """B applied to the data reproduces the observed values in sorted
        cell order."""
        op, m_data, mask = sampling_operator
        got = ct.apply_B(op, m_data)
        cells = sorted(zip(*np.nonzero(mask.observed)))
        expected = [m_data[i, j] for (i, j) in cells]
        assert np.allclose(got, expected)
        assert np.allclose(got, op.d)

    def test_flow_rows_vanish_on_consistent_matrix(self, flow_operator,
                                                   small_instance):
        """On a matrix that satisfies the linear flow model exactly, only the
        entry rows are active: B(X) - d is zero past the observed block."""
        op, m_data, mask, maps = flow_operator
        trunc = small_instance["trunc"]
        scen = small_instance["scen"]
        v_lin, vmag_lin = predict(trunc, h_from_loads(scen.s))
        x = np.empty(op.shape)
        for t in range(trunc.n_steps):
            x[5 * t] = v_lin[t].real
            x[5 * t + 1] = v_lin[t].imag
            x[5 * t + 2] = vmag_lin[t]
            x[5 * t + 3] = scen.s[t].real
            x[5 * t + 4] = scen.s[t].imag
        res = ct.apply_B(op, x) - op.d
        assert np.max(np.abs(res[op.n_observed:])) < 1e-10

    def test_matches_per_column_reference(self, flow_operator):
        """The in-place scatter equals, exactly, the operator assembled by
        copying each area's flow map one measurement column at a time."""
        op, m_data, mask, maps = flow_operator
        m, n = m_data.shape
        scale = np.sqrt(2.0 / 10.0)
        obs_i, obs_j = np.nonzero(mask.observed)
        rows = [np.zeros((obs_i.size, m * n))]
        rows[0][np.arange(obs_i.size), obs_j * m + obs_i] = 1.0
        for l in maps.partition.areas:
            block = np.zeros((maps.residual_dim(l), m * n))
            for j in sources(maps, l):
                g = maps.e_mats[(l, j)]
                for pos, c in enumerate(maps.cols[j]):
                    block[:, c * m:(c + 1) * m] += g[:, pos * m:(pos + 1) * m]
            rows.append(scale * block)
        assert maps.partition.n_areas == 3
        assert np.array_equal(op.b_mat, np.vstack(rows))

    def test_rejects_nonpositive_mu(self, small_instance):
        mat = small_instance["mat"]
        mask = dm.sample_mask(*mat.shape, 0.5, seed=0)
        with pytest.raises(ct.CertificateError):
            ct.build_B_d(mask.observed, mat, None, mu=0.0, nu=1.0)

    def test_empty_mask(self, small_instance):
        mat = small_instance["mat"]
        maps = small_instance["maps"]
        op = ct.build_B_d(np.zeros(mat.shape, dtype=bool), mat, maps,
                          mu=1.0, nu=1.0)
        assert op.n_observed == 0
        assert op.n_rows > 0


class TestAdjoint:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inner_product_identity(self, flow_operator, seed):
        """<B(X), z> == <X, B*(z)> for random X and z."""
        op, *_ = flow_operator
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(op.shape)
        z = rng.standard_normal(op.n_rows)
        lhs = float(ct.apply_B(op, x) @ z)
        rhs = float(np.sum(x * ct.apply_B_adjoint(op, z)))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))

    def test_shape_errors(self, sampling_operator):
        op, *_ = sampling_operator
        with pytest.raises(ct.CertificateError):
            ct.apply_B(op, np.zeros((3, 3)))
        with pytest.raises(ct.CertificateError):
            ct.apply_B_adjoint(op, np.zeros(op.n_rows + 1))


class TestMatrixFree:
    @pytest.fixture(params=["small", "feeder33", "sampling"])
    def op(self, request, flow_operator, feeder33_operator, sampling_operator):
        return {
            "small": flow_operator[0],
            "feeder33": feeder33_operator,
            "sampling": sampling_operator[0],
        }[request.param]

    def test_matches_dense_reference(self, op):
        """B and B* applied block by block equal the dense reference matrix
        and its transpose."""
        assert (op.maps is None) == (op.n_rows == op.n_observed)
        rng = np.random.default_rng(2)
        for _ in range(3):
            x = rng.standard_normal(op.shape)
            want = op.b_mat @ x.ravel(order="F")
            got = ct.apply_B(op, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            z = rng.standard_normal(op.n_rows)
            want = op.b_mat.T @ z
            got = ct.apply_B_adjoint(op, z).ravel(order="F")
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def tied_residual(mu=3.0, seed=0):
    """Factors and a fully observed operator whose residual matrix R = mu
    (UV - D) has singular values (1, 1, 0.5, 0.25, 0.1).  The top two tie, as
    at acceptance 10's optimum, where power iteration is least reliable."""
    rng = np.random.default_rng(seed)
    m, n = 8, 5
    u = rng.standard_normal((m, 2))
    v = rng.standard_normal((2, n))
    left, _ = np.linalg.qr(rng.standard_normal((m, n)))
    right, _ = np.linalg.qr(rng.standard_normal((n, n)))
    target = (left * [1.0, 1.0, 0.5, 0.25, 0.1]) @ right.T
    observed = dm.sample_mask(m, n, 1.0, policy="uniform").observed
    op = ct.build_B_d(observed, u @ v - target / mu, None, mu=mu, nu=0.0)
    return u, v, op


class TestExactSigma1:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_spectral_norm_is_the_svd_sigma1_on_a_tie(self, seed):
        u, v, op = tied_residual(seed=seed)
        r = ct.residual_matrix(op, u @ v)
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[1] == pytest.approx(sv[0], rel=1e-12)
        report = ct.full_report(u, v, op)
        assert report.spectral_norm == sv[0]
        assert report.spectral_norm == pytest.approx(1.0, rel=1e-12)
        assert report.theorem1_pass

    @pytest.mark.parametrize("case", ["tie", "sampling", "flow"])
    def test_dual_feasibility_is_the_least_eigenvalue(
            self, case, sampling_operator, flow_operator):
        """1/2 (1 - sigma_1^2) against the least eigenvalue of the Schur
        complement I/2 - R R^T / 2, formed here as the reference."""
        rng = np.random.default_rng(4)
        if case == "tie":
            u, v, op = tied_residual()
        else:
            op = sampling_operator[0] if case == "sampling" else flow_operator[0]
            u = rng.standard_normal((op.shape[0], 2))
            v = rng.standard_normal((2, op.shape[1]))
        r = ct.residual_matrix(op, u @ v)
        schur = 0.5 * np.eye(r.shape[0]) - 0.5 * (r @ r.T)
        want = np.linalg.eigvalsh(schur)[0]
        got = ct.full_report(u, v, op).dual_feasibility_min_eig
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(schur).max())


class TestTheorem:
    def test_exact_fit_passes(self, sampling_operator):
        """A matrix matching every observed entry has zero residual and a
        passing certificate."""
        op, m_data, mask = sampling_operator
        u, v = np.linalg.qr(m_data)
        fit = dataclasses.replace(op, d=ct.apply_B(op, u @ v))
        report = ct.full_report(u, v, fit)
        assert report.spectral_norm == 0.0
        assert report.theorem1_pass

    def test_gross_misfit_fails(self, sampling_operator):
        op, m_data, mask = sampling_operator
        u, v = np.linalg.qr(m_data + 10.0)
        report = ct.full_report(u, v, op)
        assert report.spectral_norm > 1.0
        assert not report.theorem1_pass

    def test_report_dict_round_trip(self, sampling_operator):
        op, m_data, mask = sampling_operator
        rng = np.random.default_rng(0)
        u = rng.standard_normal((10, 2))
        v = rng.standard_normal((2, 6))
        d = ct.full_report(u, v, op).to_dict()
        assert set(d) == {
            "spectral_norm", "theorem1_pass", "grad_u_norm", "grad_v_norm",
            "stationarity_u", "stationarity_v", "trace_residuals", "comp_slack_residual",
            "dual_feasibility_min_eig", "mu",
        }
        assert d["mu"] == op.mu == 5.0
        assert isinstance(d["trace_residuals"], list)


class TestStationarity:
    def test_random_point_is_not_stationary(self, flow_operator):
        op, *_ = flow_operator
        rng = np.random.default_rng(3)
        u = rng.standard_normal((op.shape[0], 3))
        v = rng.standard_normal((3, op.shape[1]))
        report = ct.full_report(u, v, op)
        assert report.grad_u_norm > 1e-6 and report.grad_v_norm > 1e-6
        # each relative figure is its gradient over the size of its two terms
        assert 1e-3 < report.stationarity_u <= 1.0
        assert 1e-3 < report.stationarity_v <= 1.0
        r = ct.residual_matrix(op, u @ v)
        assert report.stationarity_u == pytest.approx(
            report.grad_u_norm / (np.linalg.norm(r @ v.T) + np.linalg.norm(u)), rel=1e-12)
        traces = report.trace_residuals
        assert abs(traces[0]) > 1e-6 and abs(traces[1]) > 1e-6
        # the trace residuals are the gradients' inner products with the
        # factors, and the slack is half the absolute value of their sum
        inner_v = float(np.sum((r.T @ u + v.T) * v.T))
        inner_u = float(np.sum((r @ v.T + u) * u))
        tol = 1e-12 * 0.5 * (np.sum(u * u) + np.sum(v * v))
        assert traces[0] == pytest.approx(inner_v, abs=tol)
        assert traces[1] == pytest.approx(inner_u, abs=tol)
        assert report.comp_slack_residual == pytest.approx(
            0.5 * abs(inner_u + inner_v), abs=tol)

    def test_gradients_match_finite_difference(self, sampling_operator):
        """The reported first-order residuals are the gradients of the
        least-squares objective plus the factor norms."""
        op, m_data, mask = sampling_operator
        mu = op.mu
        rng = np.random.default_rng(5)
        u = rng.standard_normal((10, 2))
        v = rng.standard_normal((2, 6))

        def objective(uu, vv):
            res = ct.apply_B(op, uu @ vv) - op.d
            return 0.5 * (np.sum(uu * uu) + np.sum(vv * vv)) \
                + 0.5 * mu * float(res @ res)

        r = ct.residual_matrix(op, u @ v)
        grad_u = r @ v.T + u
        grad_v = (r.T @ u + v.T).T
        eps = 1e-6
        for _ in range(5):
            du = rng.standard_normal(u.shape)
            dv = rng.standard_normal(v.shape)
            fd = (objective(u + eps * du, v + eps * dv)
                  - objective(u - eps * du, v - eps * dv)) / (2 * eps)
            analytic = float(np.sum(grad_u * du) + np.sum(grad_v * dv))
            assert abs(fd - analytic) < 1e-4 * (1 + abs(analytic))


class TestComplementarySlackness:
    def test_constructed_consistent_data(self, small_instance):
        """When the offset is exactly the image of the factors, the residual
        matrix vanishes and the reported value is the half sum of the squared
        factor norms."""
        rng = np.random.default_rng(6)
        m, n, r = 8, 5, 2
        u = rng.standard_normal((m, r))
        v = rng.standard_normal((r, n))
        mask = dm.sample_mask(m, n, 1.0, policy="uniform")
        op = ct.build_B_d(mask.observed, u @ v, None, mu=3.0, nu=0.0)
        got = ct.full_report(u, v, op).comp_slack_residual
        expected = 0.5 * (np.sum(u * u) + np.sum(v * v))
        assert abs(got - expected) < 1e-10

    def test_zero_factors_zero_data(self, sampling_operator):
        op, m_data, mask = sampling_operator
        zero_op = dataclasses.replace(op, d=np.zeros(op.n_rows))
        u = np.zeros((10, 2))
        v = np.zeros((2, 6))
        report = ct.full_report(u, v, zero_op)
        assert report.comp_slack_residual == 0.0
        assert report.stationarity_u == report.stationarity_v == 0.0
        assert report.dual_feasibility_min_eig == 0.5


class TestDualFeasibility:
    def test_small_residual_is_feasible(self, sampling_operator):
        """A residual matrix of spectral norm below 1 keeps the Schur
        complement positive semidefinite."""
        op, m_data, mask = sampling_operator
        x = m_data + 1e-3  # tiny uniform misfit on the observed cells
        uu, sv, vt = np.linalg.svd(x, full_matrices=False)
        u = uu * np.sqrt(sv)
        v = np.sqrt(sv)[:, None] * vt
        # full-rank balanced factors: the product is exactly x
        assert np.max(np.abs(u @ v - x)) < 1e-10
        report = ct.full_report(u, v, op)
        assert report.spectral_norm < 1.0
        assert report.dual_feasibility_min_eig > 0.0

    def test_large_residual_is_infeasible(self, sampling_operator):
        op, m_data, mask = sampling_operator
        rng = np.random.default_rng(1)
        u = 10.0 * rng.standard_normal((10, 2))
        v = 10.0 * rng.standard_normal((2, 6))
        assert ct.full_report(u, v, op).dual_feasibility_min_eig < 0.0


class TestSolverOperator:
    """The certificate applies the operator the solver minimizes: the
    stacks S_l and bases A_l of `AreaMaps`, on two 5-area instances."""

    @pytest.fixture(params=["feeder33", "random129"])
    def op(self, request, feeder33_operator, random129_operator):
        return {"feeder33": feeder33_operator, "random129": random129_operator}[request.param]

    @staticmethod
    def bands(op, b):
        """Area -> its flow rows of the operator output b."""
        ends = np.cumsum([op.n_observed] + [op.maps.residual_dim(l) for l in op.areas])
        return {l: b[start:end] for l, start, end in zip(op.areas, ends, ends[1:])}

    def test_flow_rows_are_the_solver_products(self, op):
        """Each area's flow rows are scale (E_ll(X_l) + the coordinates its
        neighbors send, times A_l^T), from `completion._flow_terms`."""
        maps = op.maps
        problems = cp._build_problems(np.zeros(op.shape), np.ones(op.shape, dtype=bool),
                                      maps, maps.partition, admm_config())
        x = np.random.default_rng(3).standard_normal(op.shape)
        terms = {l: cp._flow_terms(prob, x[:, prob.cols]) for l, prob in problems.items()}
        got = self.bands(op, ct.apply_B(op, x))
        for l, prob in problems.items():
            received = [terms[j][1][l] for j in prob.neighbors]
            e_sum = np.concatenate(received, axis=1) @ prob.basis.T
            want = op.scale * (terms[l][0] + e_sum).ravel()
            assert np.linalg.norm(got[l] - want) <= 1e-14 * np.linalg.norm(want)

    def test_reads_the_stacked_factors(self, op):
        """Changing one row of B_jl inside S_l moves area j's flow rows of
        B(X) and area l's columns of B^*(z), and nothing else."""
        maps = op.maps
        l = maps.partition.areas[0]
        j = maps.partition.neighbors(l)[0]
        stack = maps.stacks[l].copy()
        stack[maps.stack_rows[l][j].start, 3 * maps.cols[l].size:] += 1.0  # injection columns
        moved = dataclasses.replace(
            op, maps=dataclasses.replace(maps, stacks={**maps.stacks, l: stack}))
        rng = np.random.default_rng(4)
        x, z = rng.standard_normal(op.shape), rng.standard_normal(op.n_rows)
        before = self.bands(op, ct.apply_B(op, x))
        after = self.bands(moved, ct.apply_B(moved, x))
        for k in op.areas:
            assert np.array_equal(before[k], after[k]) == (k != j)
        before, after = ct.apply_B_adjoint(op, z), ct.apply_B_adjoint(moved, z)
        for k in op.areas:
            cols = maps.cols[k]
            assert np.array_equal(before[:, cols], after[:, cols]) == (k != l)

    def test_inner_product_identity(self, op):
        """<B(X), z> == <X, B*(z)>, within rounding of |B(X)| |z|."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, z = rng.standard_normal(op.shape), rng.standard_normal(op.n_rows)
            bx = ct.apply_B(op, x)
            gap = abs(float(bx @ z) - float(np.sum(x * ct.apply_B_adjoint(op, z))))
            assert gap <= 1e-14 * np.linalg.norm(bx) * np.linalg.norm(z)

    def test_report_matches_the_dense_operator(self, op, monkeypatch):
        """At a stationary pair the certificate equals the one read through
        the dense reference B.  Fully observed data with d = B(UV) - z and
        mu B^*(z) = R = -P Q^T + 2 p q^T, for U = P S^(1/2), V = S^(1/2) Q^T
        and unit p, q orthogonal to P, Q, make R V^T + U and R^T U + V^T
        vanish, and sigma_1(R) = 2.  The order-one fields match within 1e-12
        relative.  The gradients, the trace residuals and the slack are then
        rounding residuals of order-one terms, which a change of summation
        order moves by up to 90% of themselves, so they match within an
        absolute tolerance scaled by 0.5 (|U|^2 + |V|^2), and the
        stationarity fields, their ratios to order-one sizes, within 1e-12
        absolute."""
        rng = np.random.default_rng(6)
        (m, n), r, mu = op.shape, 3, 10.0
        p, _ = np.linalg.qr(rng.standard_normal((m, r + 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n, r + 1)))
        s = rng.uniform(1.0, 3.0, r)
        u, v = p[:, :r] * np.sqrt(s), np.sqrt(s)[:, None] * q[:, :r].T
        resid = -p[:, :r] @ q[:, :r].T + 2.0 * np.outer(p[:, r], q[:, r])
        full = ct.build_B_d(np.ones(op.shape, dtype=bool), np.zeros(op.shape), op.maps,
                            mu=mu, nu=1.0)
        z = np.concatenate([resid.ravel() / mu, np.zeros(full.n_rows - full.n_observed)])
        full = dataclasses.replace(full, d=ct.apply_B(full, u @ v) - z)
        got = ct.full_report(u, v, full).to_dict()
        b = full.b_mat
        monkeypatch.setattr(ct, "apply_B", lambda o, x: b @ x.ravel(order="F"))
        monkeypatch.setattr(ct, "apply_B_adjoint",
                            lambda o, y: (b.T @ y).reshape(o.shape, order="F"))
        want = ct.full_report(u, v, full).to_dict()
        assert want["spectral_norm"] == pytest.approx(2.0, rel=1e-12)
        tol = 1e-12 * 0.5 * (np.sum(u * u) + np.sum(v * v))
        assert max(want["grad_u_norm"], want["grad_v_norm"]) <= tol
        for name in ("grad_u_norm", "grad_v_norm", "trace_residuals", "comp_slack_residual"):
            assert got.pop(name) == pytest.approx(want.pop(name), rel=0, abs=tol), name
        for name in ("stationarity_u", "stationarity_v"):
            assert got.pop(name) == pytest.approx(want.pop(name), rel=0, abs=1e-12), name
        assert got == pytest.approx(want, rel=1e-12)
