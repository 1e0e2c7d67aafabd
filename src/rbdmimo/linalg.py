"""Dense complex linear algebra primitives and the exact Cholesky solver.

Vectors are 1-D complex128 ndarrays and matrices are 2-D complex128
ndarrays throughout the package.  The serialization order for the text
fixture format is column-major; in-memory layout is whatever numpy uses.

All functions are pure; the optional `counter` arguments only accumulate
operation tallies on the caller's object (see `rbdmimo.complexity`).
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


def as_complex_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    return v


def hermitian_defect(a: np.ndarray) -> float:
    """max_ij |A(i,j) - conj(A(j,i))|, zero for exactly Hermitian input."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_complex_matrix(a)
    defect = hermitian_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian within {tol:g} (defect {defect:.3g})")
    return a


def matvec(a: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
    """Matrix-vector product A @ x with dimension checking."""
    a = as_complex_matrix(a)
    x = as_complex_vector(x)
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, x has length {len(x)}")
    if counter is not None:
        counter.tally_matvec(a.shape[0], a.shape[1])
    return a @ x


def inner_hermitian(x: np.ndarray, y: np.ndarray, counter=None) -> complex:
    """Hermitian inner product x^H y (first argument conjugated)."""
    x = as_complex_vector(x)
    y = as_complex_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if counter is not None:
        counter.tally(mults=len(x), adds=max(len(x) - 1, 0))
    return complex(np.vdot(x, y))


def norm2(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L^H = A for Hermitian positive definite A.

    Raises NotPositiveDefiniteError (carrying the failing pivot index) when
    a pivot falls below CHOLESKY_PIVOT_TOL, including the tiny positive
    pivots that LAPACK accepts.
    """
    a = require_hermitian(a)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(*_failing_pivot(a)) from None
    pivots = low.diagonal().real ** 2
    small = np.flatnonzero(pivots <= CHOLESKY_PIVOT_TOL)
    if small.size:
        raise NotPositiveDefiniteError(int(small[0]), float(pivots[small[0]]))
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
    """Solve (L L^H) s = y: forward solve with L, then backward with L^H."""
    low = as_complex_matrix(low)
    y = as_complex_vector(y)
    n = low.shape[0]
    if low.shape[1] != n or y.shape[0] != n:
        raise ValueError(f"dimension mismatch: L is {low.shape}, y has length {len(y)}")
    return np.linalg.solve(low.conj().T, np.linalg.solve(low, y))


def hermitian_eigen_extrema(a: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a Hermitian matrix."""
    eigs = np.linalg.eigvalsh(require_hermitian(a))
    return float(eigs[0]), float(eigs[-1])


def save_matrix(path, a: np.ndarray) -> None:
    """Write a matrix in the text fixture format.

    Header line `rows cols`, then one `re im` pair per entry in
    column-major order, 17 significant digits (lossless for float64).
    """
    a = as_complex_matrix(a)
    rows, cols = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for z in a.flatten(order="F"):
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = tokens[2:]
    if len(values) != 2 * rows * cols:
        raise ValueError(
            f"{path}: expected {2 * rows * cols} numbers for a {rows}x{cols} matrix, got {len(values)}"
        )
    re = np.array(values[0::2], dtype=np.float64)
    im = np.array(values[1::2], dtype=np.float64)
    return (re + 1j * im).reshape((rows, cols), order="F")


def save_vector(path, x: np.ndarray) -> None:
    """Write a vector as a single-column matrix in the text fixture format."""
    save_matrix(path, as_complex_vector(x)[:, None])


def load_vector(path) -> np.ndarray:
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise ValueError(f"{path}: expected a single-column matrix, got {m.shape}")
    return m[:, 0]
