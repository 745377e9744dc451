import numpy as np
import pytest

from mmgcn import metrics as M
from mmgcn.numerics import NumericalFailure

from conftest import historical_average_baseline, historical_average_rmse, zeros_baseline_rmse


class TestRmse:
    def test_perfect_prediction(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        assert M.rmse(x, x) == 0.0

    def test_constant_error(self):
        targets = np.zeros((3, 4))
        assert M.rmse(targets + 2.0, targets) == pytest.approx(2.0)

    def test_mixed_errors(self):
        predictions = np.array([[0.0, 3.0], [4.0, 0.0]])
        targets = np.zeros((2, 2))
        assert M.rmse(predictions, targets) == pytest.approx(2.5)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(0)
        predictions = rng.normal(size=(6, 4))
        targets = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        assert M.rmse(predictions, targets) == pytest.approx(
            M.rmse(predictions[perm], targets[perm])
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.rmse(np.zeros((2, 2)), np.zeros((2, 3)))


def weekly_series(patterns, vertices=3):
    """Stack per-week city patterns into a (V, n_weeks * W) array."""
    rows = np.concatenate(patterns)
    return np.tile(rows[None, :], (vertices, 1)) / vertices


class TestKlTemporalDrift:
    WEEK = 336

    def test_identical_week_zero(self):
        rng = np.random.default_rng(1)
        week = rng.uniform(1.0, 5.0, self.WEEK)
        values = weekly_series([week, week])
        kls = M.kl_temporal_drift(values[:, : self.WEEK], values[:, self.WEEK :], 30)
        assert kls == [0.0]

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        train = weekly_series([rng.uniform(1.0, 5.0, self.WEEK)])
        test = weekly_series([rng.uniform(1.0, 5.0, self.WEEK) for _ in range(3)])
        kls = M.kl_temporal_drift(train, test, 30)
        assert len(kls) == 3
        assert all(kl >= 0.0 for kl in kls)

    def test_incomplete_week_rejected(self):
        values = weekly_series([np.ones(self.WEEK)])
        with pytest.raises(ValueError, match="whole weeks"):
            M.kl_temporal_drift(values, values[:, :100], 30)

    def test_growing_shift_grows_divergence(self):
        base = 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(self.WEEK) / 48.0)
        test_weeks = [base + offset for offset in (0.5, 1.0, 2.0, 4.0)]
        kls = M.kl_temporal_drift(weekly_series([base]), weekly_series(test_weeks), 30)
        assert all(b > a for a, b in zip(kls, kls[1:]))


def score(activations, include_diagonal=True):
    """The independence score of (rows, features) activations."""
    return M.feature_independence(np.cov(activations, rowvar=False), include_diagonal)


class TestFeatureIndependence:
    def test_perfectly_correlated_features(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=100000)
        z = (z - z.mean()) / z.std(ddof=1)  # exactly unit sample variance
        activations = np.stack([z, z], axis=1)
        assert score(activations) == pytest.approx(-np.log(2.0), abs=1e-9)

    def test_independent_features_variance_v(self):
        rng = np.random.default_rng(4)
        v = 2.5
        activations = rng.normal(0.0, np.sqrt(v), size=(100000, 2))
        expected = -np.log(v * np.sqrt(2.0))
        assert score(activations) == pytest.approx(expected, abs=0.05)

    def test_scaling_shifts_by_minus_two_log(self):
        rng = np.random.default_rng(5)
        activations = rng.normal(size=(500, 4))
        base = score(activations)
        for c in (2.0, 10.0):
            scaled = score(c * activations)
            assert scaled == pytest.approx(base - 2.0 * np.log(c), rel=1e-9)

    def test_constant_activations_flagged(self):
        with pytest.warns(UserWarning, match="zero"):
            value = score(np.ones((10, 3)))
        assert value == float("inf")

    def test_off_diagonal_variant(self):
        rng = np.random.default_rng(6)
        activations = rng.normal(size=(2000, 3))
        full = score(activations)
        off = score(activations, include_diagonal=False)
        assert off > full  # dropping the variances shrinks the norm

    def test_input_validation(self):
        # a covariance is a square matrix of at least 2 features
        for cov in (np.ones((2, 3)), np.ones((1, 1)), np.ones(4), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="square covariance"):
                M.feature_independence(cov)


class TestModalityRelationship:
    def test_identity_covariance(self):
        matrix = M.modality_relationship(np.eye(3))
        np.testing.assert_array_equal(matrix, np.eye(3))

    def test_rank_one_covariance(self):
        matrix = M.modality_relationship(np.array([[4.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(matrix, np.ones((2, 2)))

    def test_negative_relationship(self):
        sigma = np.array([[1.0, -0.5], [-0.5, 1.0]])
        matrix = M.modality_relationship(sigma)
        assert matrix[0, 1] == pytest.approx(-0.5)

    def test_unit_diagonal_and_bounds(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(3, 3))
        matrix = M.modality_relationship(b @ b.T + 0.1 * np.eye(3))
        np.testing.assert_array_equal(np.diagonal(matrix), np.ones(3))
        assert (np.abs(matrix) <= 1.0).all()

    def test_nonpositive_diagonal_fails(self):
        with pytest.raises(NumericalFailure):
            M.modality_relationship(np.diag([1.0, 0.0]))


class TestBaselines:
    def _samples(self):
        from mmgcn import data as D

        values = np.vstack(
            [np.linspace(1, 3, 400), np.linspace(2, 4, 400)]
        )
        return D.make_windows(D.DemandSeries(values))

    def test_zeros_baseline(self):
        samples = self._samples()
        targets = M.stack_targets(samples)
        assert zeros_baseline_rmse(samples) == pytest.approx(
            float(np.sqrt(np.mean(targets**2)))
        )

    def test_historical_average(self):
        samples = self._samples()
        split = len(samples) // 2
        train, rest = samples[:split], samples[split:]
        expected = M.stack_targets(train).mean(axis=0)
        np.testing.assert_allclose(historical_average_baseline(train), expected)
        assert historical_average_rmse(train, rest) > 0.0
