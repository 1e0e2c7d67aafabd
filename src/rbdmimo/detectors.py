"""MMSE preprocessing and the residual-based uplink detectors.

The detection problem is A s = y_mf with A = H^H H + sigma2 I (Hermitian
positive definite) and y_mf = H^H y.  Three iterative detectors minimize
the residual norm ||y_mf - A s_k|| per step:

* minres_detect: steepest residual descent, two A-products per iteration.
* gmres_detect:  Arnoldi basis plus incremental Givens least squares.
* cr_detect:     conjugate residual recurrences, one A-product per
  iteration after initialization.

exact_detect is the Cholesky ground truth.  minres and cr are written
with two shared kernels, a multiply-accumulate update (kernel_mac) and a
ratio of Hermitian inner products (kernel_coeff).

gmres, the bulk of the Krylov work, keeps its state in three arrays it
allocates itself: the Arnoldi basis, the Hessenberg columns and the real
product of the Givens rotations.  One fused step per column (arnoldi_step)
updates them in place, and R is formed once after the loop
(givens_triangle).  An in-place step takes the operands of the plain
expression in the same order, so it rounds exactly as the allocating form
does; cr and minres make one numpy call per arithmetic step and keep the
allocating form.

The three iterative detectors share one per-call scaffold, _Run: the
argument checks, the batch view of the problem, the early-stop masks, the
trace columns and the result.  Each detector body keeps only its own
recurrence.  Operations are counted in the detector bodies only, and only
when a counter is passed: each step tallies the kernels it invoked by
name (`run.count(matvec=1, coeff=1, mac=1)`), and the counter costs them
from `rbdmimo.complexity.KERNEL_OPS`.  The kernels and the fused
Arnoldi-Givens step do not count.

Detectors are pure functions of (problem, iteration count); starting
iterates are always zero and every trace therefore begins at
||y_mf||.  An iteration stops early once the residual falls below
EARLY_STOP_REL times ||y_mf||.

Every detector is written once over a leading batch axis: a problem may
hold a (B, M, M) stack of matrices with (B, M) right-hand sides, and each
frame of a batch gives exactly what it gives alone.  Early stop and
Arnoldi breakdown are per-frame masks; a frame that has stopped gets zero
step coefficients, so its iterate no longer moves, while the others go
on.  A single problem is the batch of one and comes back with plain types:
`iterations` an int, the trace entries lists of floats, `s_hat` 1-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import (
    cholesky_lower,
    cholesky_solve,
    hermitian_eigen_extrema,
    norm2,
    require_hermitian,
)

EARLY_STOP_REL = 1e-13
ARNOLDI_BREAKDOWN_REL = 1e-13
_DEGENERATE_DENOM = 1e-300


@dataclass(frozen=True, eq=False)
class MmseProblem:
    """Preprocessed detection problem: A = G + sigma2 I, y_mf = H^H y.

    A is M x M with y_mf of length M, or a (B, M, M) stack with (B, M)
    right-hand sides, one frame per row.  Construction checks the shapes
    and that every A is Hermitian and finite, so the detectors need not.
    """

    A: np.ndarray
    y_mf: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=np.complex128)
        y = np.asarray(self.y_mf, dtype=np.complex128)
        if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1] or y.shape != a.shape[:-1]:
            raise ValueError(f"inconsistent problem dimensions: A {a.shape}, y_mf {y.shape}")
        require_hermitian(a, tol=1e-10)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "y_mf", y)

    @property
    def M(self) -> int:
        return self.A.shape[-1]


@dataclass
class DetectionTrace:
    """Per-iteration evidence: residual_norms[k] = ||y_mf - A s_k||, iterate_norms[k] = ||s_k||.

    Lists of floats for one problem.  For a batch, (B, L) arrays whose row
    b is NaN past frame b's last iteration.
    """

    residual_norms: list[float] = field(default_factory=list)
    iterate_norms: list[float] = field(default_factory=list)


@dataclass
class DetectionResult:
    """s_hat, iterations and trace; for a batch, (B, M), (B,) and (B, L) arrays."""

    s_hat: np.ndarray
    iterations: int | np.ndarray
    trace: DetectionTrace

    def frame(self, b: int) -> "DetectionResult":
        """Frame b of a batched result, typed like the result for one problem."""
        n = int(self.iterations[b]) + 1
        return DetectionResult(
            s_hat=self.s_hat[b],
            iterations=n - 1,
            trace=DetectionTrace(
                residual_norms=self.trace.residual_norms[b, :n].tolist(),
                iterate_norms=self.trace.iterate_norms[b, :n].tolist(),
            ),
        )


def _batch_view(prob: MmseProblem):
    """(single, A, y_mf): whether prob holds one problem, and its arrays with a leading batch axis."""
    single = prob.A.ndim == 2
    return (single, prob.A[None], prob.y_mf[None]) if single else (single, prob.A, prob.y_mf)


class _Run:
    """The scaffold of one detector call.

    It checks the iteration count and that a counted call holds one
    problem, views the problem with a leading batch axis, and keeps the
    per-frame stop state (`iterations`, `running`, and `live`, the mask for
    kernel_coeff once a frame has stopped, else None) and the trace columns.
    `count(**kernels)` tallies kernel invocations on length-M vectors
    (`size=v` for length v) if a counter was passed, and is a no-op if not.
    """

    def __init__(self, prob: MmseProblem, k: int, counter=None):
        if k < 1:
            raise ValueError(f"iteration count must be >= 1, got {k}")
        self.single, self.a, self.y = _batch_view(prob)
        if counter is not None and not self.single:
            raise ValueError("operation counts are per problem: count one problem, not a batch")
        self.count = (lambda **kernels: None) if counter is None else partial(counter.count, size=prob.M)
        self.stop = EARLY_STOP_REL * norm2(self.y)
        self.iterations = np.full(len(self.y), k)
        self.running = np.ones(len(self.y), dtype=bool)
        self.live = None
        self.residual_cols, self.iterates = [], []

    def step(self, k: int, rn, s=None, happy=None) -> bool:
        """Record trace column k and retire the frames that stopped there.

        rn holds the (B,) residual norms and s, unless None, the iterates.
        A frame stops once its residual falls to the threshold, or where the
        mask `happy` is set; it keeps k as its iteration count.  Returns
        whether every frame has stopped.
        """
        self.residual_cols.append(rn)
        if s is not None:
            self.iterates.append(s)
        stopped = rn <= self.stop
        if happy is not None:
            stopped |= happy
        if self.live is not None:  # else every frame is still running
            stopped &= self.running
        if np.count_nonzero(stopped):
            self.iterations[stopped] = k
            self.running = self.running & ~stopped
            if not np.count_nonzero(self.running):
                return True
            self.live = self.running
        return False

    def result(self, s, iterate_cols=None) -> DetectionResult:
        """The result, with the norms of the recorded iterates unless iterate_cols are given.

        Each frame's trace has iterations + 1 entries.
        """
        res = np.array(self.residual_cols).T
        its = (norm2(np.array(self.iterates)) if iterate_cols is None else np.array(iterate_cols)).T
        if self.single:
            return DetectionResult(s[0], int(self.iterations[0]), DetectionTrace(res[0].tolist(), its[0].tolist()))
        past = np.arange(res.shape[-1]) > self.iterations[:, None]
        res[past] = its[past] = np.nan
        return DetectionResult(s_hat=s, iterations=self.iterations, trace=DetectionTrace(res, its))


def preprocess(h, y, sigma2: float) -> MmseProblem:
    """Form the MMSE problem from the channel and received vector.

    h may be a (B, N, M) stack with y of shape (B, N).  The Gram matrix is
    mirrored from its lower triangle so A is exactly Hermitian with a real
    diagonal.
    """
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if h.ndim not in (2, 3):
        raise ValueError(f"expected an N x M channel or a stack of them, got ndim={h.ndim}")
    n, m = h.shape[-2:]
    if n < m:
        raise ValueError(f"require N >= M, got N={n}, M={m}")
    if y.shape != h.shape[:-1]:
        raise ValueError(f"dimension mismatch: H is {h.shape}, y is {y.shape}")
    for name, value in (("H", h), ("y", y), ("sigma2", sigma2)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} contains non-finite values")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    h_herm = h.conj().swapaxes(-1, -2)
    gram = h_herm @ h
    lower = np.tril(gram, -1)
    a = lower + lower.conj().swapaxes(-1, -2)
    diag = np.arange(m)
    a[..., diag, diag] = gram[..., diag, diag].real + sigma2
    return MmseProblem(A=a, y_mf=np.matvec(h_herm, y))


def kernel_mac(x, a, b) -> np.ndarray:
    """Multiply-accumulate kernel: x + a * b, one coefficient per row of a batch."""
    return x + (a[..., None] if isinstance(a, np.ndarray) else a) * b


def kernel_coeff(m, n, p, q, live=None):
    """Coefficient kernel: (m^H n) / (p^H q), one per row of a batch.

    Rows outside the boolean mask `live` (frames that have stopped) get a
    zero coefficient and are exempt from the degenerate-denominator check.
    """
    den = np.vecdot(p, q)
    if live is not None:
        den = np.where(live, den, 1.0)
    size = np.abs(den)
    if np.count_nonzero(size < _DEGENERATE_DENOM):
        raise ZeroDivisionError(f"degenerate coefficient denominator |p^H q| = {size.min():.3g}")
    coeff = np.vecdot(m, n) / den
    return coeff if live is None else np.where(live, coeff, 0.0)


def minres_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Minimal-residual detection.

    Each iteration recomputes r = y_mf - A s by an explicit product, then
    steps s <- s + alpha r with alpha = (r^H A r) / ||A r||^2.
    """
    run = _Run(prob, k_iters, counter)
    a, y = run.a, run.y
    s = np.zeros_like(y)
    for k in range(k_iters):
        r = y - np.matvec(a, s)
        run.count(matvec=1, sub=1)
        if run.step(k, norm2(r), s):
            return run.result(s)
        ar = np.matvec(a, r)
        alpha = kernel_coeff(r, ar, ar, ar, run.live)
        s = kernel_mac(s, alpha, r)
        run.count(matvec=1, coeff=1, mac=1)
    # final trace entry is instrumentation, not an algorithm step
    run.step(k_iters, norm2(y - np.matvec(a, s)), s)
    return run.result(s)


def cr_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Conjugate-residual detection.

    Initialization computes r0 = y_mf - A s0, e0 = A p0 and m0 = A r0 as
    written, then each iteration performs exactly one product m_k = A r_k
    and updates e_k by the recurrence e_k = m_k + beta_k e_{k-1}.  A run
    that does not stop early also executes and counts the second half of
    its last iteration (m, beta, p and e), which nothing reads; dropping it
    changes the recorded operation counts.
    """
    run = _Run(prob, k_iters, counter)
    a, y = run.a, run.y
    s = np.zeros_like(y)
    r = y - np.matvec(a, s)
    p = r.copy()
    e = np.matvec(a, p)
    m = np.matvec(a, r)
    run.count(matvec=3, sub=1)
    if run.step(0, norm2(r), s):
        return run.result(s)
    for k in range(1, k_iters + 1):
        alpha = kernel_coeff(r, m, e, e, run.live)
        s = kernel_mac(s, alpha, p)
        r_next = kernel_mac(r, -alpha, e)
        run.count(coeff=1, mac=2)
        if run.step(k, norm2(r_next), s):
            break
        m_next = np.matvec(a, r_next)
        beta = kernel_coeff(r_next, m_next, r, m, run.live)
        p = kernel_mac(r_next, beta, p)
        e = kernel_mac(m_next, beta, e)
        run.count(matvec=1, coeff=1, mac=2)
        r, m = r_next, m_next
    return run.result(s)


def arnoldi_step(a, basis, h_col, product, j: int, tol):
    """Extend the (V+1, B, M) basis by vector j+1, then rotate the new column's pivot.

    w = A q_j is formed in the slot of q_{j+1} and orthogonalized there by
    classical Gram-Schmidt: one vecdot writes every h_ij = q_i^H w, i <= j,
    into h_col, the (V+1, B) column j of the Hessenberg matrix, and
    w -= sum_i h_ij q_i removes them.  The sum runs over the outer axis of
    the products, which adds the terms in the order i = 0..j for every
    frame, so a frame of a batch rounds exactly as it does alone (a BLAS
    matrix-vector product does not).  The step executes the same j+1 inner
    products and multiply-accumulates as modified Gram-Schmidt.

    Classical Gram-Schmidt loses orthogonality as O(eps cond(A)^2) where
    modified Gram-Schmidt loses O(eps cond(A)) (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005).  On square channels gmres(M) keeps its
    relative residual below 6e-14 up to cond(A) = 1e8 (5e-11 at 1e10), and
    on MMSE frames both lose the same orthogonality at full depth, which
    the residual's convergence sets (tests/test_detectors.py measures both).

    Of the rotated column only the pivot rho = (row j of the real rotation
    product, (B, V+1, V+1)) . Re h_col[:j+1] meets the new rotation, which
    annihilates (rho, sigma = ||w||) with real c, b = (rho, sigma) /
    hypot(rho, sigma) (Saad, Iterative Methods for Sparse Linear Systems,
    2nd ed., 2003, 6.5.3), or is the identity for a zero pair; it changes
    rows j and j+1 of the product, whose first column times beta is g.

    Returns the (B,) mask of happy breakdowns (||w|| <= tol) and whether
    any pair was zero.  A frame that breaks down gets a zero basis vector:
    its Krylov space is invariant and its least-squares iterate is exact.
    """
    w = np.matvec(a, basis[j], basis[j + 1])
    q, h = basis[: j + 1], h_col[: j + 1]
    np.vecdot(q, w, out=h)
    w -= np.add.reduce(h[..., None] * q, 0)
    sigma = norm2(w)
    h_col[j + 1] = sigma
    happy = sigma <= tol  # such a frame's w / inf is zero
    np.divide(w, (np.where(happy, np.inf, sigma) if np.count_nonzero(happy) else sigma)[:, None], w)
    # row j+1 of the product is still e_{j+1}, so the rotation mixes two rows
    row_j, row_next = product[:, j, : j + 2], product[:, j + 1, : j + 2]
    rho = np.vecdot(row_j[:, : j + 1], h.real.T)
    hyp = np.hypot(rho, sigma)
    flat = np.count_nonzero(hyp) < len(hyp)
    if flat:
        zero = hyp == 0.0
        rho, hyp = np.where(zero, 1.0, rho), np.where(zero, 1.0, hyp)
    c, b = rho / hyp, sigma / hyp
    np.multiply(-b[:, None], row_j[:, : j + 1], row_next[:, : j + 1])
    row_next[:, j + 1] = c
    row_j *= c[:, None]
    row_j[:, j + 1] = b
    return happy, flat


def givens_triangle(product, columns, v: int) -> np.ndarray:
    """The (B, v, v) triangle R = P[:v, :v+1] Hbar of the first v (V, V+1, B) Hessenberg columns.

    Row i of P is final after step i; a frame's zero columns past its stop add exact zeros.
    """
    return np.triu(product[:, :v, : v + 1] @ columns[:v, : v + 1].transpose(2, 1, 0))


def _partial_solutions(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(..., V, V) array whose column v-1 is the solution of R[:v, :v] p = g[:v], zero-padded.

    R^-1 is upper triangular, so its leading v x v block inverts R[:v, :v]
    and p_v is the running sum of R^-1[:, l] g[l] over l < v.
    """
    diag = np.abs(r.diagonal(0, -2, -1))
    if np.count_nonzero(diag < _DEGENERATE_DENOM):
        i = tuple(np.argwhere(diag < _DEGENERATE_DENOM)[0])
        raise ZeroDivisionError(f"singular triangular factor: |R({i[-1]},{i[-1]})| = {diag[i]:.3g}")
    return np.cumsum(np.linalg.inv(r) * g[..., None, :], axis=-1)


def gmres_detect(prob: MmseProblem, v_iters: int, counter=None) -> DetectionResult:
    """GMRES detection with incremental Givens residual tracking.

    Runs Arnoldi for at most min(v_iters, M) columns, each step rotating
    only its new pivot, then forms R, solves the triangle and updates s = Q p
    once.  The trace holds the rotated-residual magnitudes |gamma_j|; the
    final one is cross-checked against the explicitly formed residual,
    frame by frame.  The iterate norms ||s_j|| = ||p_j|| (by orthonormality)
    come from the same triangular solve, since R[:j, :j] and g[:j] are final
    after step j.
    """
    v_max = min(v_iters, prob.M)
    run = _Run(prob, v_max, counter)
    a, y = run.a, run.y
    frames, size = len(y), prob.M
    s = np.zeros_like(y)
    r0 = y - np.matvec(a, s)
    run.count(matvec=1, sub=1)
    beta = norm2(r0)
    if run.step(0, beta):
        return run.result(s, [np.zeros(frames)])
    # the basis, the Hessenberg columns (Hbar of frame b is columns[..., b].T) and the
    # real rotation product (g is beta times its first column); frames done at step 0
    # run on an all-zero basis (r0 / inf = 0), which breaks down at once
    basis = np.zeros((v_max + 1, frames, size), dtype=np.complex128)
    np.divide(r0, (beta if run.live is None else np.where(run.live, beta, np.inf))[:, None], basis[0])
    run.count(norm=1, scale=1)
    columns = np.zeros((v_max, v_max + 1, frames), dtype=np.complex128)
    product = np.tile(np.eye(v_max + 1), (frames, 1, 1))
    tol = ARNOLDI_BREAKDOWN_REL * beta
    for j in range(v_max):
        happy, flat = arnoldi_step(a, basis, columns[j], product, j, tol)
        if counter is not None:
            # as charged: j + 1 rotations of the column and one of g; a breakdown
            # skips the divisions, a zero pair the rotation parameters
            run.count(matvec=1, inner=j + 1, mac=j + 1, norm=1, scale=not happy.any(),
                      rotation=j + 2, rotation_params=not flat)
        live = run.live
        if run.step(j + 1, beta * np.abs(product[:, j + 1, 0]), happy=happy):
            break
        if run.live is not live:  # frames stopped here: zero their new basis vector
            basis[j + 1] *= run.live[:, None]
    v, iterations = j + 1, run.iterations
    r, g = givens_triangle(product, columns, v), beta[:, None] * product[:, :v, 0]
    if np.count_nonzero(iterations != v):
        # pad each frame's triangle with the identity past its last column
        short = np.arange(v) >= iterations[:, None]
        r = np.where(short[:, None, :], np.eye(v), r)
        g = np.where(short, 0.0, g)
    partial = _partial_solutions(r, g)
    # running sums over the columns, which padding zeros cannot reorder, keep
    # s and the iterate norms of a frame the same in any batch; s is copied
    # out so that a result does not hold on to every partial sum
    s = np.cumsum(basis[:v] * partial[..., -1].T[..., None], axis=0)[-1].copy()
    run.count(size=v, trisolve=1, inner=size)  # s = Q p is M inner products of length v
    explicit = norm2(y - np.matvec(a, s))
    # a stopped frame's later rotations are identities, so its row of the
    # product still holds its last rotated residual
    rotated = beta * np.abs(product[np.arange(frames), iterations, 0])
    bad = np.abs(explicit - rotated) > 1e-8 * np.maximum(beta, 1.0)
    if np.count_nonzero(bad):
        b = np.flatnonzero(bad)[0]
        raise ArithmeticError(
            f"rotated residual {rotated[b]:.3g} disagrees with explicit residual {explicit[b]:.3g}"
            + ("" if run.single else f" in frame {b}")
        )
    norms = np.sqrt(np.cumsum(partial.real**2 + partial.imag**2, axis=-2)[:, -1])
    return run.result(s, [np.zeros(frames), *norms.T])


def exact_detect(prob: MmseProblem) -> DetectionResult:
    """Cholesky ground-truth detection: solve A s = y_mf directly.

    The problem has already checked that A is Hermitian and finite, so only
    the pivots are checked here.  A direct solve makes no iterations; its
    trace holds the one residual and iterate norm of the solution.
    """
    single, a, y = _batch_view(prob)
    s = cholesky_solve(cholesky_lower(a), y)
    trace = DetectionTrace(norm2(y - np.matvec(a, s))[:, None], norm2(s)[:, None])
    batch = DetectionResult(s_hat=s, iterations=np.zeros(len(y), dtype=int), trace=trace)
    return batch.frame(0) if single else batch


ITERATIVE_DETECTORS = {"minres": minres_detect, "gmres": gmres_detect, "cr": cr_detect}
DETECTOR_NAMES = ("cholesky", *ITERATIVE_DETECTORS)


@dataclass(frozen=True)
class ConvergenceBound:
    """Spectral quantities governing per-iteration residual contraction."""

    lambda_min: float
    lambda_max: float

    @property
    def tau2(self) -> float:
        """Spectral condition number lambda_max / lambda_min."""
        return self.lambda_max / self.lambda_min

    @property
    def minres_step_factor(self) -> float:
        """Squared-residual contraction factor 1 - mu(A) mu(A^-1), in [0, 1).

        mu(A) = lambda_min and mu(A^-1) = 1 / lambda_max for Hermitian PD A.
        """
        return 1.0 - self.lambda_min * (1.0 / self.lambda_max)

    def gmres_factor(self, k: int) -> float:
        """Residual-norm bound factor ((tau2^2 - 1) / tau2^2)^(k/2) after k gmres steps."""
        if k < 0:
            raise ValueError(f"iteration count must be >= 0, got {k}")
        tau_sq = self.tau2 ** 2
        return float(((tau_sq - 1.0) / tau_sq) ** (k / 2.0))


def residual_bound_minres(a) -> ConvergenceBound:
    """Contraction bound for minimal-residual iterations on Hermitian PD A."""
    lo, hi = hermitian_eigen_extrema(a)
    if lo <= 0:
        raise ValueError(f"matrix is not positive definite: lambda_min = {lo:.3g}")
    return ConvergenceBound(lambda_min=lo, lambda_max=hi)


def residual_bound_gmres(a, k: int) -> float:
    """Residual-norm bound factor ((tau2^2 - 1) / tau2^2)^(k/2) for Hermitian PD A."""
    return residual_bound_minres(a).gmres_factor(k)
