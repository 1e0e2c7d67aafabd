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

gmres, the bulk of the Krylov work, keeps its state in four arrays it
allocates itself: the Arnoldi basis, the Hessenberg columns, the product
of the Givens rotations and the triangle R.  Its two steps update them in
place: arnoldi_step forms and orthogonalizes each basis vector in its slot
of the basis (three numpy calls per modified Gram-Schmidt step, h_ij
written straight into the Hessenberg column), and givens_lsq_update writes
R and the rotated product rows where they lie.  An in-place step takes the
operands of the plain expression in the same order, so it rounds exactly
as the allocating form does.  cr and minres already make one numpy call
per arithmetic step and keep the allocating form.

Operations are counted in the three detectors only, and only when a
counter is passed: each adds the tally of a step beside it, from
OpCounter.tally_matvec and the rules in _inner_ops, _mac_ops, _coeff_ops
and _gmres_step_ops.  The kernels and the Arnoldi and Givens steps do not
count (see `rbdmimo.complexity` for the convention).

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


def _frames(prob: MmseProblem, counter=None):
    """(A, y_mf, single): the problem with a leading batch axis, and whether it had none."""
    single = prob.A.ndim == 2
    if counter is not None and not single:
        raise ValueError("operation counts are per problem: count one problem, not a batch")
    if single:
        return prob.A[None], prob.y_mf[None], True
    return prob.A, prob.y_mf, False


def _result(s, iterations, residual_cols, iterate_cols, single: bool) -> DetectionResult:
    """Assemble a result from per-step (B,) trace columns (a list, or an (L, B) array).

    Each frame's trace has iterations + 1 entries.
    """
    res = np.array(residual_cols).T
    its = np.array(iterate_cols).T
    batch = DetectionResult(s_hat=s, iterations=iterations, trace=DetectionTrace(res, its))
    if single:
        return batch.frame(0)
    past = np.arange(res.shape[-1]) > iterations[:, None]
    res[past] = its[past] = np.nan
    return batch


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


def _inner_ops(size: int) -> tuple[int, int]:
    """(mults, adds) of one Hermitian inner product of length-`size` vectors."""
    return size, max(size - 1, 0)


def _mac_ops(size: int) -> tuple[int, int]:
    """(mults, adds) of one kernel_mac on length-`size` vectors."""
    return size, size


def _coeff_ops(size: int) -> tuple[int, int]:
    """(mults, adds) of one kernel_coeff: two inner products and the division."""
    mults, adds = _inner_ops(size)
    return 2 * mults + 1, 2 * adds


def _gmres_step_ops(size: int, j: int, happy: bool, flat: bool) -> tuple[int, int]:
    """(mults, adds) of gmres step j besides its product.

    The Arnoldi step makes j+1 inner products and updates, the norm and its
    square root, and the normalizing divisions unless it broke down (happy).
    The Givens update applies j rotations, forms R[j, j] and the new row of
    the product, and rho^2, sigma^2, a square root and two divisions unless
    the (rho, sigma) pair was zero (flat).
    """
    inner_mults, inner_adds = _inner_ops(size)
    mac_mults, mac_adds = _mac_ops(size)
    arnoldi_mults = (j + 1) * (inner_mults + mac_mults) + size + 1 + (0 if happy else size)
    givens_mults = 4 * j + 8 + (0 if flat else 5)
    return arnoldi_mults + givens_mults, (j + 1) * (inner_adds + mac_adds) + 2 * j + 4


def minres_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Minimal-residual detection.

    Each iteration recomputes r = y_mf - A s by an explicit product, then
    steps s <- s + alpha r with alpha = (r^H A r) / ||A r||^2.
    """
    if k_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {k_iters}")
    a, y, single = _frames(prob, counter)
    size = prob.M
    coeff_mults, coeff_adds = _coeff_ops(size)
    mac_mults, mac_adds = _mac_ops(size)
    s = np.zeros_like(y)
    stop = EARLY_STOP_REL * norm2(y)
    iterations = np.full(len(y), k_iters)
    running = np.ones(len(y), dtype=bool)
    live = None
    res_norms, iterates = [], []
    for k in range(k_iters):
        r = y - np.matvec(a, s)
        if counter is not None:
            counter.tally_matvec(size, size)
            counter.tally(adds=size)
        rn = norm2(r)
        res_norms.append(rn)
        iterates.append(s)
        stopped = running & (rn <= stop)
        if np.count_nonzero(stopped):
            iterations[stopped] = k
            running = running & ~stopped
            if not np.count_nonzero(running):
                return _result(s, iterations, res_norms, norm2(np.array(iterates)), single)
            live = running
        ar = np.matvec(a, r)
        alpha = kernel_coeff(r, ar, ar, ar, live)
        s = kernel_mac(s, alpha, r)
        if counter is not None:
            counter.tally_matvec(size, size)
            counter.tally(coeff_mults + mac_mults, coeff_adds + mac_adds)
    # final trace entry is instrumentation, not an algorithm step
    res_norms.append(norm2(y - np.matvec(a, s)))
    iterates.append(s)
    return _result(s, iterations, res_norms, norm2(np.array(iterates)), single)


def cr_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Conjugate-residual detection.

    Initialization computes r0 = y_mf - A s0, e0 = A p0 and m0 = A r0 as
    written, then each iteration performs exactly one product m_k = A r_k
    and updates e_k by the recurrence e_k = m_k + beta_k e_{k-1}.
    """
    if k_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {k_iters}")
    a, y, single = _frames(prob, counter)
    size = prob.M
    coeff_mults, coeff_adds = _coeff_ops(size)
    mac_mults, mac_adds = _mac_ops(size)
    s = np.zeros_like(y)
    r = y - np.matvec(a, s)
    p = r.copy()
    e = np.matvec(a, p)
    m = np.matvec(a, r)
    if counter is not None:
        for _ in range(3):  # r0, e0 = A p0 and m0 = A r0
            counter.tally_matvec(size, size)
        counter.tally(adds=size)
    stop = EARLY_STOP_REL * norm2(y)
    res_norms = [norm2(r)]
    iterates = [s]
    running = res_norms[0] > stop
    iterations = np.where(running, k_iters, 0)
    if not np.count_nonzero(running):
        return _result(s, iterations, res_norms, norm2(np.array(iterates)), single)
    live = None if running.all() else running
    for k in range(1, k_iters + 1):
        alpha = kernel_coeff(r, m, e, e, live)
        s = kernel_mac(s, alpha, p)
        r_next = kernel_mac(r, -alpha, e)
        if counter is not None:
            counter.tally(coeff_mults + 2 * mac_mults, coeff_adds + 2 * mac_adds)
        rn = norm2(r_next)
        res_norms.append(rn)
        iterates.append(s)
        stopped = running & (rn <= stop)
        if np.count_nonzero(stopped):
            iterations[stopped] = k
            running = running & ~stopped
            if not np.count_nonzero(running):
                break
            live = running
        m_next = np.matvec(a, r_next)
        beta = kernel_coeff(r_next, m_next, r, m, live)
        p = kernel_mac(r_next, beta, p)
        e = kernel_mac(m_next, beta, e)
        if counter is not None:
            counter.tally_matvec(size, size)
            counter.tally(coeff_mults + 2 * mac_mults, coeff_adds + 2 * mac_adds)
        r, m = r_next, m_next
    return _result(s, iterations, res_norms, norm2(np.array(iterates)), single)


def arnoldi_step(a, basis, h_col, j: int, tol) -> np.ndarray:
    """Extend the (V+1, B, M) basis by vector j+1 using modified Gram-Schmidt.

    w = A q_j is formed in the slot of q_{j+1} and orthogonalized there in
    place: for each earlier q_i, h_ij = q_i^H w goes straight into h_col,
    the (V+1, B) column j of the Hessenberg matrix, and w -= h_ij q_i, which
    rounds exactly as w + (-h_ij) q_i.

    Returns the (B,) mask of happy breakdowns (||w|| <= tol after
    orthogonalization).  Such a frame gets a zero basis vector: its Krylov
    space is invariant and its least-squares iterate is exact.
    """
    w = np.matvec(a, basis[j], basis[j + 1])
    scratch = np.empty_like(w)
    # the interpreter floor: three numpy calls per inner step, looked up once
    vecdot, multiply, subtract = np.vecdot, np.multiply, np.subtract
    for q, h, h_rows in zip(basis[: j + 1], h_col[: j + 1], h_col[: j + 1, :, None]):
        vecdot(q, w, h)
        multiply(h_rows, q, scratch)
        subtract(w, scratch, w)
    wn = norm2(w)
    h_col[j + 1] = wn
    happy = wn <= tol
    if np.count_nonzero(happy):
        np.divide(w, np.where(happy, 1.0, wn)[:, None], w)
        w[happy] = 0.0
    else:
        np.divide(w, wn[:, None], w)
    return happy


def givens_lsq_update(product, r, col, j: int) -> np.ndarray:
    """Fold Hessenberg column j, col of shape (B, V+1), into the QR factorization.

    product (B, V+1, V+1) is the product of the j rotations so far, so one
    matrix-vector product applies them all.  The new rotation (c, b)
    annihilates the trailing (rho, sigma) pair with
    c = rho / sqrt(rho^2 + sigma^2), b = sigma / sqrt(rho^2 + sigma^2);
    its parameters are real, which triangularizes the numerically real
    Hessenberg of Hermitian inputs.  The finished column of R (B, V, V) is
    written in place and the rotation folded into the product, whose first
    column times beta is the rotated right-hand side g.  Returns the R
    column, a view into r.
    """
    # the previous rotations touch entries 0..j only
    head = np.matvec(product[..., : j + 1, : j + 1], col[..., : j + 1])
    diag, sub = head[..., j], col[..., j + 1]
    rho, sigma = diag.real, sub.real
    hyp = np.hypot(rho, sigma)
    if np.count_nonzero(hyp) < hyp.size:
        # a zero pair keeps the identity rotation
        flat = hyp == 0.0
        hyp = np.where(flat, 1.0, hyp)
        c, b = np.where(flat, 1.0, rho / hyp), sigma / hyp
    else:
        c, b = rho / hyp, sigma / hyp
    r_col = r[..., : j + 1, j]
    r_col[...] = head
    np.add(c * diag, b * sub, r_col[..., j])
    # row j+1 of the product is still e_{j+1}, so the rotation mixes two rows
    row_j, row_next = product[..., j, : j + 2], product[..., j + 1, : j + 2]
    np.multiply(-b[..., None], row_j[..., : j + 1], row_next[..., : j + 1])
    row_next[..., j + 1] = c
    row_j *= c[..., None]
    row_j[..., j + 1] = b
    return r_col


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

    Runs Arnoldi for at most min(v_iters, M) columns, folds each Hessenberg
    column into the QR factorization as it appears, and performs the
    triangular solve and solution update s = Q p once, after the loop.  The
    trace holds the rotated-residual magnitudes |gamma_j|; the final one is
    cross-checked against the explicitly formed residual, frame by frame.
    The iterate norms ||s_j|| = ||p_j|| (by orthonormality) come from the
    same triangular solve, since R[:j, :j] and g[:j] are final after step j.
    """
    if v_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {v_iters}")
    a, y, single = _frames(prob, counter)
    frames, size = len(y), prob.M
    v_max = min(v_iters, size)
    s = np.zeros_like(y)
    r0 = y - np.matvec(a, s)
    if counter is not None:
        counter.tally_matvec(size, size)
        counter.tally(adds=size)
    beta = norm2(r0)
    running = (beta > EARLY_STOP_REL * norm2(y)) & (beta != 0.0)
    iterations = np.where(running, v_max, 0)
    res_norms = [beta]
    if not np.count_nonzero(running):
        return _result(s, iterations, res_norms, [np.zeros(frames)], single)
    # the basis vectors, the Hessenberg columns (Hbar of frame b is
    # columns[..., b].T), the rotation product (g is beta times its first
    # column) and R; frames done at step 0 run on an all-zero basis, which
    # breaks down at once
    basis = np.zeros((v_max + 1, frames, size), dtype=np.complex128)
    basis[0] = np.where(running[:, None], r0 / np.where(running, beta, 1.0)[:, None], 0.0)
    if counter is not None:
        counter.tally(mults=2 * size + 1)  # the norm, then the normalizing divisions
    columns = np.zeros((v_max, v_max + 1, frames), dtype=np.complex128)
    product = np.tile(np.eye(v_max + 1, dtype=np.complex128), (frames, 1, 1))
    r = np.zeros((frames, v_max, v_max), dtype=np.complex128)
    tol, stop = ARNOLDI_BREAKDOWN_REL * beta, EARLY_STOP_REL * beta
    for j in range(v_max):
        happy = arnoldi_step(a, basis, columns[j], j, tol)
        r_col = givens_lsq_update(product, r, columns[j].T, j)
        if counter is not None:
            # Re R[j, j] is hypot(rho, sigma) > 0, or 0 for a zero pair
            flat = r_col[..., j].real == 0.0
            counter.tally_matvec(size, size)
            counter.tally(*_gmres_step_ops(size, j, happy.any(), flat.any()))
        estimate = beta * np.abs(product[:, j + 1, 0])
        res_norms.append(estimate)
        stopped = running & (happy | (estimate <= stop))
        if np.count_nonzero(stopped):
            iterations[stopped] = j + 1
            running = running & ~stopped
            if not np.count_nonzero(running):
                break
            basis[j + 1] *= running[:, None]
    v = j + 1
    r, g = r[..., :v, :v], beta[:, None] * product[:, :v, 0]
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
    if counter is not None:
        counter.tally(mults=v * (v + 1) // 2, adds=v * (v - 1) // 2)  # the triangular solve
        counter.tally(mults=size * v, adds=size * max(v - 1, 0))
    explicit = norm2(y - np.matvec(a, s))
    # a stopped frame's later rotations are identities, so its row of the
    # product still holds its last rotated residual
    rotated = beta * np.abs(product[np.arange(frames), iterations, 0])
    bad = np.abs(explicit - rotated) > 1e-8 * np.maximum(beta, 1.0)
    if np.count_nonzero(bad):
        b = np.flatnonzero(bad)[0]
        raise ArithmeticError(
            f"rotated residual {rotated[b]:.3g} disagrees with explicit residual {explicit[b]:.3g}"
            + ("" if single else f" in frame {b}")
        )
    norms = np.sqrt(np.cumsum(partial.real**2 + partial.imag**2, axis=-2)[:, -1])
    return _result(s, iterations, res_norms, [np.zeros(frames), *norms.T], single)


def exact_detect(prob: MmseProblem) -> DetectionResult:
    """Cholesky ground-truth detection: solve A s = y_mf directly.

    The problem has already checked that A is Hermitian and finite, so only
    the pivots are checked here.
    """
    a, y, single = _frames(prob)
    s = cholesky_solve(cholesky_lower(a), y)
    residual = norm2(y - np.matvec(a, s))
    return _result(s, np.zeros(len(y), dtype=int), [residual], [norm2(s)], single)


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
