"""The linear algebra of the interference-cancelling precoder.

``right_pinv`` is the right pseudo-inverse of a 2-D complex128 matrix,
the inverse behind the IC precoder.  It goes through the normal
equations A @ A^H: LAPACK's Cholesky factorization
(``np.linalg.cholesky``) detects rank deficiency from the pivot ratio
instead of an SVD, and one LAPACK solve (``np.linalg.solve``) applies
the inverse.

``all_finite`` is the finiteness check of the value types built on every
environment step (phases, precoders, actions): one reduction where the
elementwise test would take two.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = ["RankDeficientError", "all_finite", "right_pinv"]

# smallest admissible Cholesky pivot, relative to the largest one
_PIVOT_RTOL = 1e-10


class RankDeficientError(np.linalg.LinAlgError):
    """The matrix handed to right_pinv is (numerically) row-rank deficient."""


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a real or complex array.

    A finite sum has only finite terms, so the elementwise test runs only
    when the sum is not finite: a non-finite entry, or entries near the
    float64 limit whose sum overflows.  numpy warns about an overflowing
    sum and about a sum of +inf and -inf.
    """
    return cmath.isfinite(a.sum()) or bool(np.isfinite(a).all())


def right_pinv(a) -> np.ndarray:
    """Right pseudo-inverse A^+ = A^H (A A^H)^{-1} of a fat full-row-rank matrix.

    Satisfies A @ right_pinv(A) == I.  Raises RankDeficientError when the
    rows are numerically dependent: the Gram matrix A A^H is not positive
    definite, or its smallest Cholesky pivot is below _PIVOT_RTOL times
    the largest.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not all_finite(a):
        raise ValueError("matrix contains non-finite entries")
    rows, cols = a.shape
    if rows > cols:
        raise ValueError(f"right_pinv needs rows <= cols, got {a.shape}")
    gram = a @ a.conj().T
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientError("the normal-equations matrix is not positive definite") from None
    pivots = np.diagonal(low).real ** 2
    if pivots.min() < _PIVOT_RTOL * pivots.max():
        raise RankDeficientError(
            f"pivot ratio {pivots.min() / pivots.max():.3e} below {_PIVOT_RTOL:.0e}"
        )
    # (A A^H)^{-1} A, conjugate-transposed: the Gram matrix is Hermitian
    return np.linalg.solve(gram, a).conj().T
