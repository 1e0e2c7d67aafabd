"""Dense complex linear algebra primitives and the exact Cholesky solver.

Vectors are 1-D complex128 ndarrays and matrices are 2-D complex128
ndarrays throughout the package; a batch of frames stacks them along a
leading axis, which the norms, Hermitian checks and Cholesky routines
accept as is.  Products and Hermitian inner products are numpy's
`np.matvec` and `np.vecdot` (which conjugates its first argument).  These
primitives do not re-validate their operands: problems are checked once,
when an `MmseProblem` is built.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
CHOLESKY_PIVOT_TOL = 1e-14


class NotPositiveDefiniteError(ArithmeticError):
    """Raised when a factorization hits a non-positive pivot.

    Attributes
    ----------
    pivot_index : int
        Zero-based index of the failing pivot.
    pivot_value : float
        The offending (real) pivot value.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} = {pivot_value:.6g}"
        )


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def hermitian_defect(a: np.ndarray) -> float:
    """max |A(i,j) - conj(A(j,i))| over every matrix of a (..., M, M) stack.

    Zero for exactly Hermitian input, NaN when an entry is NaN.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix is not square: {a.shape}")
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """The (..., M, M) stack as complex128, or ValueError if any matrix is not
    Hermitian within tol or holds a non-finite entry."""
    a = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite values")
    defect = hermitian_defect(a)
    if not defect <= tol:
        raise ValueError(f"matrix is not Hermitian within {tol:g} (defect {defect:.3g})")
    return a


def norm2(x: np.ndarray):
    """Euclidean norm over the last axis."""
    return np.sqrt(np.vecdot(x, x).real)


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L^H = A for Hermitian positive definite A.

    A may be a (B, M, M) stack.  Checks that A is Hermitian and finite
    (require_hermitian), then factors it with cholesky_lower.
    """
    return cholesky_lower(require_hermitian(a))


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """cholesky_factor for a complex128 stack already known to be Hermitian and finite.

    Raises NotPositiveDefiniteError (carrying the failing pivot index of the
    first failing matrix) when a pivot falls below CHOLESKY_PIVOT_TOL,
    including the tiny positive pivots that LAPACK accepts.
    """
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for one in a.reshape(-1, *a.shape[-2:]):
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(*_failing_pivot(one)) from None
        raise
    pivots = low.diagonal(0, -2, -1).real ** 2
    if np.count_nonzero(pivots <= CHOLESKY_PIVOT_TOL):
        first = tuple(np.argwhere(pivots <= CHOLESKY_PIVOT_TOL)[0])
        raise NotPositiveDefiniteError(int(first[-1]), float(pivots[first]))
    return low


def _failing_pivot(a: np.ndarray) -> tuple[int, float]:
    """First pivot at or below CHOLESKY_PIVOT_TOL (or NaN), once LAPACK has failed.

    Pivot j is the ratio of the leading principal minors of orders j+1 and
    j.  Should rounding let every ratio pass, the smallest is reported.
    """
    minors = np.array([np.linalg.det(a[:k, :k]).real for k in range(a.shape[0] + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        pivots = minors[1:] / minors[:-1]
    bad = np.flatnonzero(~(pivots > CHOLESKY_PIVOT_TOL))
    j = int(bad[0]) if bad.size else int(np.argmin(pivots))
    return j, float(pivots[j])


def cholesky_solve(low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve (L L^H) s = y: forward solve with L, then backward with L^H.

    L may be a (B, M, M) stack with y of shape (B, M).
    """
    low = np.asarray(low, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    n = low.shape[-1]
    if low.ndim not in (2, 3) or low.shape[-2] != n or y.shape != low.shape[:-1]:
        raise ValueError(f"dimension mismatch: L is {low.shape}, y is {y.shape}")
    forward = np.linalg.solve(low, y[..., None])
    return np.linalg.solve(low.conj().swapaxes(-1, -2), forward)[..., 0]


def hermitian_eigen_extrema(a: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(require_hermitian(as_complex_matrix(a)))
    return float(eigs[0]), float(eigs[-1])
