import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import certificate as ct
from gridmc import datamatrix as dm


@pytest.fixture(scope="module")
def flow_operator(small_instance):
    """Stacked operator over the 9-bus instance with both row families."""
    mat = small_instance["mat"]
    maps = small_instance["maps"]
    mask = dm.sample_mask(*mat.shape, 0.5, policy="uniform", seed=9)
    op = ct.build_B_d(mask.observed, mat.data, maps, mu=10.0, nu=2.0)
    return op, mat.data, mask, maps


@pytest.fixture(scope="module")
def sampling_operator():
    rng = np.random.default_rng(12)
    m_data = rng.standard_normal((10, 6))
    mask = dm.sample_mask(10, 6, 0.4, policy="uniform", seed=12)
    return ct.build_B_d(mask.observed, m_data, None, mu=5.0, nu=0.0), m_data, mask


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
        from gridmc import linflow as lf
        trunc = small_instance["trunc"]
        scen = small_instance["scen"]
        v_lin, vmag_lin = lf.predict(trunc, lf.h_from_loads(scen.s))
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
            for j in maps.sources(l):
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
            ct.build_B_d(mask.observed, mat.data, None, mu=0.0, nu=1.0)

    def test_empty_mask(self, small_instance):
        mat = small_instance["mat"]
        maps = small_instance["maps"]
        op = ct.build_B_d(np.zeros(mat.shape, dtype=bool), mat.data, maps,
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


class TestSpectralNorm:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_dense_svd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 5))
        dense = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(ct.spectral_norm(a) - dense) < 1e-6 * dense

    def test_zero_matrix(self):
        assert ct.spectral_norm(np.zeros((4, 4))) == 0.0


class TestTheorem:
    def test_exact_fit_passes(self, sampling_operator):
        """A matrix matching every observed entry has zero residual and a
        passing certificate."""
        op, m_data, mask = sampling_operator
        report = ct.theorem1_check(m_data, op, mu=5.0)
        assert report.spectral_norm == 0.0
        assert report.theorem1_pass

    def test_gross_misfit_fails(self, sampling_operator):
        op, m_data, mask = sampling_operator
        report = ct.theorem1_check(m_data + 10.0, op, mu=5.0)
        assert report.spectral_norm > 1.0
        assert not report.theorem1_pass

    def test_report_dict_round_trip(self, sampling_operator):
        op, m_data, mask = sampling_operator
        rng = np.random.default_rng(0)
        u = rng.standard_normal((10, 2))
        v = rng.standard_normal((2, 6))
        d = ct.full_report(u, v, op, mu=5.0).to_dict()
        assert set(d) == {
            "spectral_norm", "theorem1_pass", "grad_u_norm", "grad_v_norm",
            "trace_residuals", "comp_slack_residual",
            "dual_feasibility_min_eig", "mu",
        }
        assert isinstance(d["trace_residuals"], list)


class TestStationarity:
    def test_random_point_is_not_stationary(self, flow_operator):
        op, *_ = flow_operator
        rng = np.random.default_rng(3)
        u = rng.standard_normal((op.shape[0], 3))
        v = rng.standard_normal((3, op.shape[1]))
        gu, gv, traces = ct.stationarity_and_traces(u, v, op, mu=10.0)
        assert gu > 1e-6 and gv > 1e-6
        assert abs(traces[0]) > 1e-6 and abs(traces[1]) > 1e-6

    def test_gradients_match_finite_difference(self, sampling_operator):
        """The reported first-order residuals are the gradients of the
        least-squares objective plus the factor norms."""
        op, m_data, mask = sampling_operator
        mu = 5.0
        rng = np.random.default_rng(5)
        u = rng.standard_normal((10, 2))
        v = rng.standard_normal((2, 6))

        def objective(uu, vv):
            res = ct.apply_B(op, uu @ vv) - op.d
            return 0.5 * (np.sum(uu * uu) + np.sum(vv * vv)) \
                + 0.5 * mu * float(res @ res)

        r = ct.residual_matrix(op, u @ v, mu)
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
        got = ct.complementary_slackness(u, v, op, mu=3.0)
        expected = 0.5 * (np.sum(u * u) + np.sum(v * v))
        assert abs(got - expected) < 1e-10

    def test_zero_factors_zero_data(self, sampling_operator):
        op, m_data, mask = sampling_operator
        zero_op = ct.StackedOperator(
            b_mat=op.b_mat, d=np.zeros(op.n_rows), shape=op.shape,
            n_observed=op.n_observed,
        )
        u = np.zeros((10, 2))
        v = np.zeros((2, 6))
        assert ct.complementary_slackness(u, v, zero_op, mu=5.0) == 0.0
        assert ct.dual_feasibility_min_eig(u, v, zero_op, mu=5.0) == 0.5


class TestDualFeasibility:
    def test_small_residual_is_feasible(self, sampling_operator):
        """Residuals below the 1/2 spectral bound keep the Schur complement
        positive semidefinite."""
        op, m_data, mask = sampling_operator
        x = m_data + 1e-3  # tiny uniform misfit on the observed cells
        r = ct.residual_matrix(op, x, 5.0)
        assert ct.spectral_norm(r) < 1.0
        uu, sv, vt = np.linalg.svd(x, full_matrices=False)
        u = uu * np.sqrt(sv)
        v = np.sqrt(sv)[:, None] * vt
        # full-rank balanced factors: the product is exactly x
        assert np.max(np.abs(u @ v - x)) < 1e-10
        assert ct.dual_feasibility_min_eig(u, v, op, mu=5.0) > 0.0

    def test_large_residual_is_infeasible(self, sampling_operator):
        op, m_data, mask = sampling_operator
        rng = np.random.default_rng(1)
        u = 10.0 * rng.standard_normal((10, 2))
        v = 10.0 * rng.standard_normal((2, 6))
        assert ct.dual_feasibility_min_eig(u, v, op, mu=5.0) < 0.0
