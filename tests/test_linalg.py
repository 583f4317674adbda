import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavris.linalg import (
    _PIVOT_RTOL,
    RankDeficientError,
    all_finite,
    diag_embed,
    hermitian,
    kron,
    matmul,
    right_pinv,
    trace,
)

from conftest import random_cmatrix


def naive_matmul(a, b):
    # independent triple-loop oracle
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        a = random_cmatrix(rng, 2, 3)
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_imaginary_unit(self):
        np.testing.assert_allclose(matmul([[1j]], [[1j]]), [[-1.0 + 0j]])

    def test_against_naive_loop(self, rng):
        a = random_cmatrix(rng, 3, 2)
        b = random_cmatrix(rng, 2, 4)
        np.testing.assert_allclose(matmul(a, b), naive_matmul(a, b), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            matmul(random_cmatrix(rng, 2, 3), random_cmatrix(rng, 2, 3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matmul([[np.nan]], [[1.0]])


class TestHermitian:
    def test_scalar(self):
        np.testing.assert_array_equal(hermitian([[1 + 1j]]), [[1 - 1j]])

    def test_involution(self, rng):
        a = random_cmatrix(rng, 3, 5)
        np.testing.assert_array_equal(hermitian(hermitian(a)), a)

    def test_reverses_products(self, rng):
        a = random_cmatrix(rng, 3, 3)
        b = random_cmatrix(rng, 3, 3)
        np.testing.assert_allclose(
            hermitian(matmul(a, b)), matmul(hermitian(b), hermitian(a)), atol=1e-12
        )


class TestKron:
    def test_scalar_one_identity(self, rng):
        b = random_cmatrix(rng, 2, 3)
        np.testing.assert_array_equal(kron([[1.0]], b), b)

    def test_all_ones_columns(self):
        ones = [[1.0], [1.0]]
        np.testing.assert_array_equal(kron(ones, ones), np.ones((4, 1)))

    def test_index_formula(self, rng):
        a = random_cmatrix(rng, 2, 1)
        b = random_cmatrix(rng, 3, 1)
        c = kron(a, b)
        for i in range(2):
            for k in range(3):
                assert c[i * 3 + k, 0] == pytest.approx(a[i, 0] * b[k, 0], rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mixed_product_property(self, seed):
        r = np.random.default_rng(seed)
        a, b = random_cmatrix(r, 2, 2), random_cmatrix(r, 2, 3)
        c, d = random_cmatrix(r, 2, 2), random_cmatrix(r, 3, 2)
        lhs = matmul(kron(a, b), kron(c, d))
        rhs = kron(matmul(a, c), matmul(b, d))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestDiagEmbed:
    def test_identity(self):
        np.testing.assert_array_equal(diag_embed([1.0, 1.0]), np.eye(2))

    def test_off_diagonals_zero(self):
        m = diag_embed([1j, -1j])
        assert m[0, 1] == 0 and m[1, 0] == 0

    def test_trace_is_sum(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert trace(diag_embed(v)) == pytest.approx(np.sum(v))


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(4)) == 4

    def test_complex_diag(self):
        assert trace(diag_embed([1 + 1j, 2.0])) == pytest.approx(3 + 1j)

    def test_gram_trace_is_frobenius(self, rng):
        a = random_cmatrix(rng, 4, 3)
        t = trace(matmul(hermitian(a), a))
        assert t.imag == pytest.approx(0.0, abs=1e-12)
        assert t.real == pytest.approx(np.sum(np.abs(a) ** 2))
        assert t.real >= 0

    def test_non_square_errors(self, rng):
        with pytest.raises(ValueError):
            trace(random_cmatrix(rng, 2, 3))


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
        res = matmul(a, right_pinv(a)) - np.eye(2)
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
