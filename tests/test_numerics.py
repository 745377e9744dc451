import itertools

import numpy as np
import pytest

from mmgcn.numerics import (
    NumericalFailure,
    mode_product,
    mode_unfold,
    spd_inverse,
)

from conftest import finite_diff_gradient, mode_refold, numerical_rank, random_spd


class TestModeUnfold:
    def test_single_entry(self):
        t = np.array([3.5]).reshape(1, 1, 1, 1)
        np.testing.assert_array_equal(mode_unfold(t, 0), [[3.5]])

    def test_vector_mode0(self):
        t = np.array([1.0, 2.0]).reshape(2, 1, 1, 1)
        np.testing.assert_array_equal(mode_unfold(t, 0), [[1.0], [2.0]])

    def test_against_index_enumeration(self):
        # oracle: place each entry by definition of the canonical column order
        rng = np.random.default_rng(0)
        dims = (2, 3, 2, 3)
        t = rng.normal(size=dims)
        for mode in range(4):
            rest = [d for k, d in enumerate(dims) if k != mode]
            expected = np.zeros((dims[mode], int(np.prod(rest))))
            for idx in itertools.product(*(range(d) for d in dims)):
                rest_idx = [i for k, i in enumerate(idx) if k != mode]
                col = 0
                for i, d in zip(rest_idx, rest):
                    col = col * d + i
                expected[idx[mode], col] = t[idx]
            np.testing.assert_array_equal(mode_unfold(t, mode), expected)

    def test_round_trip_all_modes(self):
        rng = np.random.default_rng(1)
        for dims in itertools.product((1, 2, 3), repeat=4):
            t = rng.normal(size=dims)
            for mode in range(4):
                np.testing.assert_array_equal(
                    mode_refold(mode_unfold(t, mode), dims, mode), t
                )

    def test_mode_out_of_range(self):
        t = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError):
            mode_unfold(t, 4)
        with pytest.raises(ValueError):
            mode_refold(np.zeros((1, 1)), (1, 1, 1, 1), -1)


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(spd_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_random_spd_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mat = random_spd(rng, 5, ridge=1.0)
            inv = spd_inverse(mat)
            np.testing.assert_allclose(mat @ inv, np.eye(5), atol=1e-8)
            np.testing.assert_allclose(inv, inv.T)

    def test_singular_raises(self):
        singular = np.outer([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NumericalFailure):
            spd_inverse(singular)

    def test_indefinite_raises(self):
        with pytest.raises(NumericalFailure):
            spd_inverse(np.diag([1.0, -1.0]))


class TestFiniteDiffGradient:
    def test_quadratic_bowl(self):
        grad = finite_diff_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [1.0, 2.0], atol=1e-8)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda x: 7.0, np.array([0.3, -0.4, 5.0]))
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_product_rule(self):
        grad = finite_diff_gradient(lambda x: float(x[0] * x[1]), np.array([3.0, 5.0]), 1e-5)
        np.testing.assert_allclose(grad, [5.0, 3.0], atol=1e-6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(2), h=0.0)


def test_mode_product_shape_check():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3, 2, 2)), np.eye(2), 1)


def test_numerical_rank():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(2, 5))
    assert numerical_rank(a @ b) == 2
    assert numerical_rank(np.zeros((4, 4))) == 0
