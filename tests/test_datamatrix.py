import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmc import cli
from gridmc import datamatrix as dm
from gridmc import gridmodel as gm


@pytest.fixture(scope="module")
def sample_vs():
    rng = np.random.default_rng(3)
    v = (1.0 + 0.05 * rng.standard_normal((3, 6))
         + 1j * 0.02 * rng.standard_normal((3, 6)))
    s = -0.01 * (rng.random((3, 6)) + 0.3j * rng.random((3, 6)))
    return v, s


class TestBuildMatrix:
    def test_row_layout(self, sample_vs):
        v, s = sample_vs
        mat = dm.build_matrix(v, s)
        assert mat.shape == (15, 6)
        for t in range(3):
            r = 5 * t
            assert np.array_equal(mat[r], v[t].real)
            assert np.array_equal(mat[r + 1], v[t].imag)
            assert np.allclose(mat[r + 2], np.abs(v[t]))
            assert np.array_equal(mat[r + 3], s[t].real)
            assert np.array_equal(mat[r + 4], s[t].imag)

    def test_shape_mismatch(self, sample_vs):
        v, s = sample_vs
        with pytest.raises(dm.DataMatrixError):
            dm.build_matrix(v, s[:2])

    def test_rejects_a_single_step_vector(self, sample_vs):
        v, s = sample_vs
        with pytest.raises(dm.DataMatrixError, match=r"\(T, \|P\|\) windows"):
            dm.build_matrix(v[0], s[0])


class TestMask:
    def test_scada_excludes_phasor_rows(self):
        rows = dm.eligible_rows(10, "scada")
        assert rows.tolist() == [2, 3, 4, 7, 8, 9]

    def test_scada_mask_rejects_phasor_entries(self):
        observed = np.zeros((5, 3), dtype=bool)
        observed[0, 0] = True
        with pytest.raises(dm.DataMatrixError):
            dm.ObservationMask(observed=observed, policy="scada")

    def test_rejects_non_boolean_or_non_2d_array(self):
        for observed in (np.zeros((5, 3)), np.zeros(15, dtype=bool),
                         np.zeros((5, 3, 1), dtype=bool)):
            with pytest.raises(dm.DataMatrixError):
                dm.ObservationMask(observed=observed, policy="uniform")

    def test_observed_array_is_a_read_only_copy(self):
        observed = np.ones((5, 3), dtype=bool)
        mask = dm.ObservationMask(observed=observed, policy="uniform")
        observed[0, 0] = False
        assert mask.observed.all() and len(mask) == 15
        with pytest.raises(ValueError):
            mask.observed[0, 0] = False

    @pytest.mark.parametrize("policy", ["uniform", "scada"])
    def test_sampled_cells_numbered_row_by_row(self, policy):
        """The sampler draws indices into the eligible cells listed row by
        row, so a seed selects the same cells as drawing from that list."""
        m, n, seed = 15, 7, 5
        cells = [(i, j) for i in dm.eligible_rows(m, policy) for j in range(n)]
        count = int(np.floor(0.4 * len(cells) + 0.5))
        chosen = np.random.default_rng(seed).choice(len(cells), size=count,
                                                    replace=False)
        mask = dm.sample_mask(m, n, 0.4, policy=policy, seed=seed)
        assert set(zip(*np.nonzero(mask.observed))) == {cells[k] for k in chosen}

    def test_unknown_policy(self):
        with pytest.raises(dm.DataMatrixError):
            dm.sample_mask(5, 3, 0.5, policy="mystery")

    def test_fraction_count_half_up(self):
        mask = dm.sample_mask(5, 3, 0.5, policy="uniform", seed=0)
        assert len(mask) == 8  # 15 cells * 0.5 rounds half-up

    def test_full_and_empty(self):
        assert len(dm.sample_mask(5, 3, 1.0, policy="uniform")) == 15
        assert len(dm.sample_mask(5, 3, 0.0, policy="uniform")) == 0

    def test_deterministic_per_seed(self):
        m1 = dm.sample_mask(10, 6, 0.4, seed=7)
        m2 = dm.sample_mask(10, 6, 0.4, seed=7)
        assert np.array_equal(m1.observed, m2.observed)

    def test_fraction_out_of_range(self):
        with pytest.raises(dm.DataMatrixError):
            dm.sample_mask(5, 3, 1.2)

    @settings(max_examples=30, deadline=None)
    @given(
        frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_apply_mask_idempotent(self, frac, seed):
        mask = dm.sample_mask(10, 4, frac, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10, 4))
        once = dm.apply_mask(x, mask.observed)
        assert np.array_equal(dm.apply_mask(once, mask.observed), once)
        assert np.count_nonzero(once) <= len(mask)

    def test_apply_mask_shape_mismatch(self):
        mask = dm.sample_mask(5, 3, 0.5)
        with pytest.raises(dm.DataMatrixError):
            dm.apply_mask(np.zeros((5, 4)), mask.observed)


class TestNoise:
    def test_zero_percent_is_identity(self, sample_vs):
        mat = dm.build_matrix(*sample_vs)
        assert np.array_equal(dm.add_noise(mat, 0.0), mat)

    def test_noise_scale(self):
        mat = np.full((5, 2000), 2.0)
        noisy = dm.add_noise(mat, 1.0, seed=0)
        std = np.std(noisy - mat)
        assert 0.015 < std < 0.025  # 1% of 2.0

    def test_negative_percent_rejected(self, sample_vs):
        mat = dm.build_matrix(*sample_vs)
        with pytest.raises(dm.DataMatrixError):
            dm.add_noise(mat, -1.0)

    @pytest.mark.parametrize("percent", [float("nan"), float("inf")])
    def test_non_finite_percent_rejected(self, sample_vs, percent):
        mat = dm.build_matrix(*sample_vs)
        with pytest.raises(dm.DataMatrixError, match="finite"):
            dm.add_noise(mat, percent)


class TestDiagnostics:
    def test_spectrum_sorted(self, sample_vs):
        mat = dm.build_matrix(*sample_vs)
        sv = dm.sv_spectrum(mat)
        assert np.all(np.diff(sv) <= 0)

    def test_low_observability_boundary(self):
        # 5x3 matrix: 9 scada-eligible cells, threshold at 6
        below = dm.sample_mask(5, 3, 5 / 9, policy="scada", seed=0)
        at = dm.sample_mask(5, 3, 6 / 9, policy="scada", seed=0)
        assert dm.is_low_observability(below)
        assert not dm.is_low_observability(at)


class TestCsvRoundTrip:
    def test_matrix(self, tmp_path):
        """The matrix.csv that `gridmc gen-feeder` writes reads back as the
        measurement matrix of its feeder, bit for bit."""
        assert cli.main(["gen-feeder", "--time-steps", "2", "--areas", "2",
                         "--out", str(tmp_path)]) == 0
        net, s, _ = gm.feeder33_analog(seed=0, n_steps=2, n_areas=2)
        mat = dm.build_matrix(gm.solve_exact_flow(net, s), s)
        again = np.loadtxt(tmp_path / "matrix.csv", delimiter=",")
        assert np.array_equal(again, mat)
