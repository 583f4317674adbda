import numpy as np
import pytest

from uavris.linalg import _PIVOT_RTOL, RankDeficientError, all_finite, right_pinv

from conftest import random_cmatrix


class TestRightPinv:
    def test_padded_identity(self):
        a = np.hstack([np.eye(2), np.zeros((2, 2))])
        expected = np.vstack([np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(right_pinv(a), expected, atol=1e-12)

    def test_diagonal_case(self):
        a = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        expected = np.array([[1.0, 0], [0, 0.5], [0, 0]])
        np.testing.assert_allclose(right_pinv(a), expected, atol=1e-12)

    def test_residual(self, rng):
        a = random_cmatrix(rng, 2, 4)
        res = a @ right_pinv(a) - np.eye(2)
        assert np.linalg.norm(res) <= 1e-10

    def test_residual_sweep(self):
        for seed in range(200):
            a = random_cmatrix(np.random.default_rng(seed), 2, 4)
            res = a @ right_pinv(a) - np.eye(2)
            assert np.linalg.norm(res) <= 1e-9

    def test_rank_deficient(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        a = np.vstack([row, row * (1 + 1e-14)])
        with pytest.raises(RankDeficientError):
            right_pinv(a)

    def test_too_many_rows(self, rng):
        with pytest.raises(ValueError):
            right_pinv(random_cmatrix(rng, 4, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_nonfinite(self, rng, bad):
        a = random_cmatrix(rng, 2, 4)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            right_pinv(a)

    @pytest.mark.parametrize(
        "a", [np.ones(4), np.ones((1, 2, 4)), np.float64(1.0)], ids=["1-D", "3-D", "scalar"]
    )
    def test_rejects_non_matrix(self, a):
        with pytest.raises(ValueError, match="2-D"):
            right_pinv(a)

    def test_non_positive_definite_gram(self):
        # a zero row makes A A^H singular, so the factorization itself fails
        a = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        with pytest.raises(RankDeficientError, match="not positive definite"):
            right_pinv(a)

    def test_pivot_ratio_below_tolerance(self):
        # the Cholesky pivots of A A^H are 1 and about 1e-12: it factors,
        # but the ratio falls below _PIVOT_RTOL
        assert 1e-12 < _PIVOT_RTOL < 1e-8
        a = np.array([[1.0, 0.0, 0.0], [1.0, 1e-6, 0.0]])
        with pytest.raises(RankDeficientError, match="pivot ratio"):
            right_pinv(a)

    def test_pivot_ratio_above_tolerance(self):
        # pivots 1 and 1e-8: ill-conditioned (the normal equations square
        # the condition number to 4e8) but inverted
        a = np.array([[1.0, 0.0, 0.0], [1.0, 1e-4, 0.0]])
        np.testing.assert_allclose(a @ right_pinv(a), np.eye(2), atol=1e-6)

    def test_rank_deficient_is_a_linalg_error(self):
        assert issubclass(RankDeficientError, np.linalg.LinAlgError)


class TestAllFinite:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([1.0, -2.0, 3.5]),
            np.array([1.0, np.nan]),
            np.array([np.inf, 1.0]),
            np.array([np.inf, -np.inf]),
            np.array([1.0 + 2.0j, 3.0 + np.inf * 1j]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            np.zeros(0),
            np.arange(4),
        ],
    )
    def test_matches_isfinite(self, a):
        with np.errstate(invalid="ignore"):  # inf - inf in the sum
            assert all_finite(a) == bool(np.isfinite(a).all())

    def test_overflowing_sum_of_finite_entries(self):
        # the sum overflows to inf, so the elementwise test decides
        a = np.array([1e308, 1e308, -1e308])
        with np.errstate(over="ignore"):
            assert all_finite(a)
            assert all_finite(a.astype(np.complex128))
