"""Complex dense linear algebra primitives.

Matrices are plain 2-D complex128 numpy arrays.  The only nontrivial
routine is the right pseudo-inverse used by the interference-cancelling
precoder.  It goes through the normal equations A @ A^H: LAPACK's
Cholesky factorization (``np.linalg.cholesky``) detects rank deficiency
from the pivot ratio instead of an SVD, and one LAPACK solve
(``np.linalg.solve``) applies the inverse.

``all_finite`` is the finiteness check of the value types built on every
environment step (phases, precoders, actions): one reduction where the
elementwise test would take two.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "RankDeficientError",
    "all_finite",
    "as_cmatrix",
    "matmul",
    "hermitian",
    "kron",
    "diag_embed",
    "trace",
    "right_pinv",
]

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


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, validating shape and entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not all_finite(m):
        raise ValueError("matrix contains non-finite entries")
    return m


def matmul(a, b) -> np.ndarray:
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def hermitian(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_cmatrix(a).conj().T


def kron(a, b) -> np.ndarray:
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def diag_embed(v) -> np.ndarray:
    """Square diagonal matrix with the entries of ``v`` on its diagonal."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("diag_embed expects a 1-D vector")
    return np.diag(v)


def trace(a) -> complex:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def right_pinv(a) -> np.ndarray:
    """Right pseudo-inverse A^+ = A^H (A A^H)^{-1} of a fat full-row-rank matrix.

    Satisfies A @ right_pinv(A) == I.  Raises RankDeficientError when the
    rows are numerically dependent: the Gram matrix A A^H is not positive
    definite, or its smallest Cholesky pivot is below _PIVOT_RTOL times
    the largest.
    """
    a = as_cmatrix(a)
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
