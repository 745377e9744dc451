import numpy as np
import pytest

from mmgcn.numerics import mode_product, mode_unfold, spd_inverse
from mmgcn.regularization import (
    FLIP_FLOP_INVERSE_MLE,
    FLIP_FLOP_LITERAL,
    CovarianceSet,
    RegularizerConfig,
    flip_flop_update,
    group_lasso,
    normalize_trace,
    tensor_normal_loss,
)

from conftest import finite_diff_gradient, random_spd


def random_cov(rng, dims, frozen=(False, False, False, False)):
    sigma = [np.eye(d) if fz else random_spd(rng, d) for d, fz in zip(dims, frozen)]
    return CovarianceSet(sigma, frozen)


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class TestRegularizerConfig:
    def test_defaults(self):
        cfg = RegularizerConfig()
        assert cfg.frozen_modes == ("I", "O")

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            RegularizerConfig(epsilon=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            RegularizerConfig(frozen_modes=("I", "X"))

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            RegularizerConfig(alpha_low=-1.0)


class TestCovarianceSet:
    def test_frozen_must_be_identity(self):
        with pytest.raises(ValueError, match="identity"):
            CovarianceSet([2 * np.eye(2)] + [np.eye(2)] * 3, (True, False, False, False))

    def test_replace_frozen_rejected(self):
        cov = CovarianceSet.identity((2, 2, 2, 2), ("I",))
        with pytest.raises(ValueError, match="frozen"):
            cov.replace(0, 2 * np.eye(2))

    def test_identity_constructor(self):
        cov = CovarianceSet.identity((2, 3, 4, 5), ("I", "O"))
        assert cov.dims == (2, 3, 4, 5)
        assert cov.frozen == (True, True, False, False)


class TestGroupLasso:
    def test_zero_weights(self):
        loss, grad = group_lasso(np.zeros((2, 2, 3, 2, 2)), 0.1)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_single_intra_block(self):
        w = np.zeros((2, 2, 1, 2, 2))
        w[0, 0] = np.ones((1, 2, 2))  # Frobenius norm 2
        loss, _ = group_lasso(w, 0.1)
        assert loss == pytest.approx(0.2)

    def test_intra_and_inter_blocks(self):
        w = np.zeros((2, 2, 1, 1, 1))
        w[0, 0, 0, 0, 0] = 1.0  # intra, norm 1
        w[0, 1, 0, 0, 0] = 1.0  # inter, norm 1
        loss, grad = group_lasso(w, 0.1)
        assert loss == pytest.approx(1.1)
        assert grad[0, 0, 0, 0, 0] == pytest.approx(0.1)
        assert grad[0, 1, 0, 0, 0] == pytest.approx(1.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 3, 2, 2, 3))
        base, _ = group_lasso(w, 0.1)
        for c in (-2.0, 0.5, 3.0):
            scaled, _ = group_lasso(c * w, 0.1)
            assert scaled == pytest.approx(abs(c) * base, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        shape = (2, 2, 2, 3, 2)
        w = rng.normal(size=shape)
        _, grad = group_lasso(w, 0.1)
        fd = finite_diff_gradient(
            lambda v: group_lasso(v.reshape(shape), 0.1)[0], w.reshape(-1), 1e-5
        )
        rel = np.abs(grad.reshape(-1) - fd) / np.maximum(np.abs(fd) + np.abs(grad.reshape(-1)), 1e-8)
        assert rel.max() < 1e-4


class TestTensorNormalLoss:
    def test_identity_covariances(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 3, 2, 2))
        cov = CovarianceSet.identity(w.shape)
        loss, grad = tensor_normal_loss(w, cov)
        assert loss == pytest.approx(0.5 * np.sum(w**2))
        np.testing.assert_allclose(grad, w)

    def test_all_ones_tensor(self):
        w = np.ones((2, 2, 2, 2))
        loss, _ = tensor_normal_loss(w, CovarianceSet.identity(w.shape))
        assert loss == pytest.approx(8.0)

    def test_against_explicit_kronecker(self):
        rng = np.random.default_rng(3)
        for dims in [(2, 2, 2, 2), (3, 2, 1, 3), (1, 2, 3, 2)]:
            w = rng.normal(size=dims)
            cov = random_cov(rng, dims)
            precision = kron_chain([np.linalg.inv(s) for s in cov.sigma])
            vec = w.reshape(-1)
            expected = 0.5 * float(vec @ precision @ vec)
            loss, _ = tensor_normal_loss(w, cov)
            assert loss == pytest.approx(expected, rel=1e-8)

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(4)
        dims = (2, 2, 2, 2)
        cov = random_cov(rng, dims)
        assert tensor_normal_loss(np.zeros(dims), cov)[0] == 0.0
        for _ in range(5):
            loss, _ = tensor_normal_loss(rng.normal(size=dims), cov)
            assert loss > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2, 2)
        w = rng.normal(size=dims)
        cov = random_cov(rng, dims, frozen=(True, False, False, False))
        _, grad = tensor_normal_loss(w, cov)
        fd = finite_diff_gradient(
            lambda v: tensor_normal_loss(v.reshape(dims), cov)[0], w.reshape(-1), 1e-5
        )
        rel = np.abs(grad.reshape(-1) - fd) / np.maximum(np.abs(fd) + np.abs(grad.reshape(-1)), 1e-8)
        assert rel.max() < 1e-4

    def test_skipping_frozen_modes_is_bit_identical(self):
        # frozen modes hold exactly I; skipping them must not move a bit
        # against the explicit product over all four modes
        rng = np.random.default_rng(8)
        for _ in range(50):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=4))
            w = rng.normal(size=dims)
            cov = random_cov(rng, dims, frozen=(True, True, False, False))
            inverses = [np.eye(s.shape[0]) if fz else spd_inverse(s)
                        for s, fz in zip(cov.sigma, cov.frozen)]
            image = w
            for mode, inv in enumerate(inverses):
                image = mode_product(image, inv, mode)
            loss, grad = tensor_normal_loss(w, cov)
            assert loss == 0.5 * float(np.vdot(w, image).real)
            assert np.array_equal(grad, image)

    def test_all_frozen_gradient_is_a_copy(self):
        w = np.ones((2, 2, 2, 2))
        _, grad = tensor_normal_loss(w, CovarianceSet.identity(w.shape, ("I", "O", "C", "M")))
        np.testing.assert_array_equal(grad, w)
        assert not np.shares_memory(grad, w)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_normal_loss(np.zeros((2, 2, 2, 2)), CovarianceSet.identity((2, 2, 2, 3)))


class TestFlipFlopUpdate:
    def test_zero_weights_give_jitter(self):
        cov = CovarianceSet.identity((2, 2, 2, 2))
        sigma = flip_flop_update(np.zeros((2, 2, 2, 2)), cov, 3, 1e-6)
        np.testing.assert_allclose(sigma, 1e-6 * np.eye(2))

    def test_single_unit_entry(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 1, 0, 1] = 1.0  # mode-3 index 1
        cov = CovarianceSet.identity(w.shape)
        sigma = flip_flop_update(w, cov, 3, 1e-6)
        expected = 1e-6 * np.eye(2)
        expected[1, 1] += 2.0 / 16.0
        np.testing.assert_allclose(sigma, expected)

    def test_identity_others_match_unfold_oracle(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 2, 2, 2))
        cov = CovarianceSet.identity(w.shape)
        for mode in range(4):
            unf = mode_unfold(w, mode)
            expected = (2.0 / 16.0) * (unf @ unf.T) + 1e-6 * np.eye(2)
            got = flip_flop_update(w, cov, mode, 1e-6)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("form", [FLIP_FLOP_LITERAL, FLIP_FLOP_INVERSE_MLE])
    def test_against_explicit_kronecker(self, form):
        rng = np.random.default_rng(7)
        for dims in [(2, 2, 2, 2), (3, 2, 2, 3), (2, 1, 3, 2)]:
            w = rng.normal(size=dims)
            cov = random_cov(rng, dims)
            for mode in range(4):
                others = [
                    cov.sigma[k] if form == FLIP_FLOP_LITERAL else np.linalg.inv(cov.sigma[k])
                    for k in range(4)
                    if k != mode
                ]
                unf = mode_unfold(w, mode)
                expected = (dims[mode] / w.size) * (unf @ kron_chain(others) @ unf.T)
                expected += 1e-6 * np.eye(dims[mode])
                got = flip_flop_update(w, cov, mode, 1e-6, form)
                np.testing.assert_allclose(got, expected, atol=1e-8)

    @pytest.mark.parametrize("form", [FLIP_FLOP_LITERAL, FLIP_FLOP_INVERSE_MLE])
    def test_output_is_spd(self, form):
        rng = np.random.default_rng(8)
        for _ in range(10):
            dims = tuple(rng.integers(1, 4, size=4))
            w = rng.normal(size=dims)
            cov = random_cov(rng, dims)
            for mode in range(4):
                sigma = flip_flop_update(w, cov, mode, 1e-6, form)
                assert np.abs(sigma - sigma.T).max() < 1e-10
                assert np.linalg.eigvalsh(sigma)[0] >= 1e-6 - 1e-12

    def test_frozen_mode_rejected(self):
        cov = CovarianceSet.identity((2, 2, 2, 2), ("I", "O"))
        with pytest.raises(ValueError, match="frozen"):
            flip_flop_update(np.zeros((2, 2, 2, 2)), cov, 0, 1e-6)


class TestNormalizeTrace:
    def test_unit_trace_average(self):
        rng = np.random.default_rng(9)
        sigma = random_spd(rng, 4) + 1e-6 * np.eye(4)
        scaled = normalize_trace(sigma, 1e-6)
        assert np.trace(scaled) / 4 == pytest.approx(1.0)

    def test_keeps_epsilon_floor(self):
        rng = np.random.default_rng(10)
        base = random_spd(rng, 3, ridge=0.0)
        sigma = 50.0 * base + 1e-6 * np.eye(3)
        scaled = normalize_trace(sigma, 1e-6)
        assert np.linalg.eigvalsh(scaled)[0] >= 1e-6 - 1e-15

    def test_floor_matrix_unchanged(self):
        sigma = 1e-6 * np.eye(3)
        np.testing.assert_array_equal(normalize_trace(sigma, 1e-6), sigma)
