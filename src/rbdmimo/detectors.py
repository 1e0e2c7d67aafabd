"""MMSE preprocessing and the residual-based uplink detectors.

The detection problem is A s = y_mf with A = H^H H + sigma2 I (Hermitian
positive definite) and y_mf = H^H y.  Three iterative detectors minimize
the residual norm ||y_mf - A s_k|| per step:

* minres_detect: steepest residual descent, two A-products per iteration.
* gmres_detect:  Arnoldi basis plus incremental Givens least squares.
* cr_detect:     conjugate residual recurrences, one A-product per
  iteration after initialization.

exact_detect is the Cholesky ground truth.  All iterations are expressed
through two shared kernels, a multiply-accumulate update and a ratio of
Hermitian inner products, so instrumented operation counts line up with
the unified accounting in `rbdmimo.complexity`.

Detectors are pure functions of (problem, iteration count); starting
iterates are always zero and every trace therefore begins at
||y_mf||.  An iteration stops early once the residual falls below
EARLY_STOP_REL times ||y_mf||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_complex_matrix,
    as_complex_vector,
    cholesky_factor,
    cholesky_solve,
    hermitian_defect,
    hermitian_eigen_extrema,
    inner_hermitian,
    matvec,
    norm2,
)

EARLY_STOP_REL = 1e-13
ARNOLDI_BREAKDOWN_REL = 1e-13
_DEGENERATE_DENOM = 1e-300

DETECTOR_NAMES = ("cholesky", "minres", "gmres", "cr")


@dataclass(frozen=True, eq=False)
class MmseProblem:
    """Preprocessed detection problem: A = G + sigma2 I, y_mf = H^H y."""

    A: np.ndarray
    y_mf: np.ndarray
    sigma2: float
    N: int
    M: int

    def __post_init__(self):
        a = as_complex_matrix(self.A)
        y = as_complex_vector(self.y_mf)
        if a.shape != (self.M, self.M) or y.shape != (self.M,):
            raise ValueError(
                f"inconsistent problem dimensions: A {a.shape}, y_mf {y.shape}, M={self.M}"
            )
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        defect = hermitian_defect(a)
        if defect > 1e-10:
            raise ValueError(f"A is not Hermitian within 1e-10 (defect {defect:.3g})")


@dataclass
class DetectionTrace:
    """Per-iteration evidence: residual_norms[k] = ||y_mf - A s_k||, iterate_norms[k] = ||s_k||."""

    residual_norms: list[float] = field(default_factory=list)
    iterate_norms: list[float] = field(default_factory=list)


@dataclass
class DetectionResult:
    s_hat: np.ndarray
    iterations: int
    trace: DetectionTrace


def preprocess(h, y, sigma2: float) -> MmseProblem:
    """Form the MMSE problem from the channel and received vector.

    The Gram matrix is mirrored from its lower triangle so A is exactly
    Hermitian with a real diagonal.
    """
    h = as_complex_matrix(h)
    y = as_complex_vector(y)
    n, m = h.shape
    if n < m:
        raise ValueError(f"require N >= M, got N={n}, M={m}")
    if y.shape[0] != n:
        raise ValueError(f"dimension mismatch: H is {h.shape}, y has length {len(y)}")
    for name, value in (("H", h), ("y", y), ("sigma2", sigma2)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} contains non-finite values")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    gram = h.conj().T @ h
    lower = np.tril(gram, -1)
    gram = lower + lower.conj().T + np.diag(gram.diagonal().real)
    a = gram + sigma2 * np.eye(m)
    y_mf = h.conj().T @ y
    return MmseProblem(A=a, y_mf=y_mf, sigma2=float(sigma2), N=n, M=m)


def kernel_mac(x, a: complex, b, counter=None) -> np.ndarray:
    """Multiply-accumulate kernel: x + a * b."""
    x = as_complex_vector(x)
    b = as_complex_vector(b)
    if x.shape != b.shape:
        raise ValueError(f"length mismatch: {len(x)} vs {len(b)}")
    if counter is not None:
        counter.tally(mults=len(x), adds=len(x))
    return x + a * b


def kernel_coeff(m, n, p, q, counter=None) -> complex:
    """Coefficient kernel: (m^H n) / (p^H q)."""
    den = inner_hermitian(p, q, counter)
    if abs(den) < _DEGENERATE_DENOM:
        raise ZeroDivisionError(f"degenerate coefficient denominator |p^H q| = {abs(den):.3g}")
    num = inner_hermitian(m, n, counter)
    if counter is not None:
        counter.tally(mults=1)  # the division
    return num / den


def _result(s, iterations, res_norms, it_norms) -> DetectionResult:
    return DetectionResult(
        s_hat=s,
        iterations=iterations,
        trace=DetectionTrace(residual_norms=res_norms, iterate_norms=it_norms),
    )


def minres_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Minimal-residual detection.

    Each iteration recomputes r = y_mf - A s by an explicit product, then
    steps s <- s + alpha r with alpha = (r^H A r) / ||A r||^2.
    """
    if k_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {k_iters}")
    a, y = prob.A, prob.y_mf
    s = np.zeros(prob.M, dtype=np.complex128)
    stop = EARLY_STOP_REL * norm2(y)
    res_norms: list[float] = []
    it_norms: list[float] = []
    for k in range(k_iters):
        r = y - matvec(a, s, counter)
        if counter is not None:
            counter.tally(adds=prob.M)
        rn = norm2(r)
        res_norms.append(rn)
        it_norms.append(norm2(s))
        if rn <= stop:
            return _result(s, k, res_norms, it_norms)
        ar = matvec(a, r, counter)
        alpha = kernel_coeff(r, ar, ar, ar, counter)
        s = kernel_mac(s, alpha, r, counter)
    # final trace entry is instrumentation, not an algorithm step
    res_norms.append(norm2(y - a @ s))
    it_norms.append(norm2(s))
    return _result(s, k_iters, res_norms, it_norms)


def cr_detect(prob: MmseProblem, k_iters: int, counter=None) -> DetectionResult:
    """Conjugate-residual detection.

    Initialization computes r0 = y_mf - A s0, e0 = A p0 and m0 = A r0 as
    written, then each iteration performs exactly one product m_k = A r_k
    and updates e_k by the recurrence e_k = m_k + beta_k e_{k-1}.
    """
    if k_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {k_iters}")
    a, y = prob.A, prob.y_mf
    s = np.zeros(prob.M, dtype=np.complex128)
    r = y - matvec(a, s, counter)
    if counter is not None:
        counter.tally(adds=prob.M)
    p = r.copy()
    e = matvec(a, p, counter)
    m = matvec(a, r, counter)
    stop = EARLY_STOP_REL * norm2(y)
    res_norms = [norm2(r)]
    it_norms = [norm2(s)]
    iterations = k_iters
    if res_norms[0] <= stop:
        return _result(s, 0, res_norms, it_norms)
    for k in range(1, k_iters + 1):
        alpha = kernel_coeff(r, m, e, e, counter)
        s = kernel_mac(s, alpha, p, counter)
        r_next = kernel_mac(r, -alpha, e, counter)
        res_norms.append(norm2(r_next))
        it_norms.append(norm2(s))
        if res_norms[-1] <= stop:
            iterations = k
            break
        m_next = matvec(a, r_next, counter)
        beta = kernel_coeff(r_next, m_next, r, m, counter)
        p = kernel_mac(r_next, beta, p, counter)
        e = kernel_mac(m_next, beta, e, counter)
        r, m = r_next, m_next
    return _result(s, iterations, res_norms, it_norms)


@dataclass
class ArnoldiState:
    """Arnoldi factorization state: A Q[:, :V] = Q[:, :V+1] Hbar[:V+1, :V].

    Q has orthonormal columns filled progressively; Hbar is upper
    Hessenberg.  `v` counts completed columns and `beta` is the norm of
    the starting residual (breakdown tolerance scale).
    """

    Q: np.ndarray
    Hbar: np.ndarray
    beta: float
    v: int = 0

    @property
    def breakdown_tol(self) -> float:
        return ARNOLDI_BREAKDOWN_REL * self.beta


def init_arnoldi(r0, v_max: int, counter=None) -> ArnoldiState:
    r0 = as_complex_vector(r0)
    beta = norm2(r0)
    if beta == 0.0:
        raise ValueError("cannot start Arnoldi from a zero residual")
    m = r0.shape[0]
    q = np.zeros((m, v_max + 1), dtype=np.complex128)
    q[:, 0] = r0 / beta
    if counter is not None:
        counter.tally(mults=2 * m + 1)  # norm then the normalizing divisions
    return ArnoldiState(Q=q, Hbar=np.zeros((v_max + 1, v_max), dtype=np.complex128), beta=beta)


def arnoldi_step(a, state: ArnoldiState, j: int, counter=None) -> bool:
    """Extend the basis by column j (0-based) using modified Gram-Schmidt.

    Returns True on happy breakdown (||w|| below tolerance after
    orthogonalization), in which case no new basis vector is added and the
    Krylov space is invariant: the least-squares iterate is exact.
    """
    if j != state.v:
        raise ValueError(f"state holds {state.v} completed columns, cannot extend column {j}")
    w = matvec(a, state.Q[:, j], counter)
    for i in range(j + 1):
        hij = inner_hermitian(state.Q[:, i], w, counter)
        state.Hbar[i, j] = hij
        w = kernel_mac(w, -hij, state.Q[:, i], counter)
    wn = norm2(w)
    if counter is not None:
        counter.tally(mults=len(w) + 1)  # norm accumulation plus square root
    state.Hbar[j + 1, j] = wn
    state.v = j + 1
    if wn <= state.breakdown_tol:
        return True
    state.Q[:, j + 1] = w / wn
    if counter is not None:
        counter.tally(mults=len(w))
    return False


@dataclass
class GivensChain:
    """Accumulated plane rotations triangularizing the Hessenberg matrix.

    rotations[i] = (c, b) with c^2 + b^2 = 1 annihilates subdiagonal i;
    g is the rotated beta * e1 right-hand side, so |g[j+1]| is the running
    least-squares residual after j+1 columns.  R collects the triangular
    columns.  The rotation parameters are real, which triangularizes the
    numerically real Hessenberg produced by Hermitian inputs.
    """

    rotations: list[tuple[float, float]]
    g: np.ndarray
    R: np.ndarray

    @property
    def residual_estimate(self) -> float:
        return float(abs(self.g[len(self.rotations)]))


def init_givens(beta: float, v_max: int) -> GivensChain:
    g = np.zeros(v_max + 1, dtype=np.complex128)
    g[0] = beta
    return GivensChain(rotations=[], g=g, R=np.zeros((v_max, v_max), dtype=np.complex128))


def givens_lsq_update(chain: GivensChain, hbar_col, j: int, counter=None) -> np.ndarray:
    """Fold Hessenberg column j into the QR factorization.

    Applies the j previous rotations, forms the new rotation (c, b)
    annihilating the trailing (rho, sigma) pair with
    c = rho / sqrt(rho^2 + sigma^2), b = sigma / sqrt(rho^2 + sigma^2),
    stores the finished R column, and rotates g.  Returns the R column.
    """
    if len(chain.rotations) != j:
        raise ValueError(f"chain holds {len(chain.rotations)} rotations, cannot update column {j}")
    col = np.array(as_complex_vector(hbar_col)[: j + 2], dtype=np.complex128)
    for i, (c, b) in enumerate(chain.rotations):
        top = c * col[i] + b * col[i + 1]
        col[i + 1] = -b * col[i] + c * col[i + 1]
        col[i] = top
        if counter is not None:
            counter.tally(mults=4, adds=2)
    rho = float(col[j].real)
    sigma = float(col[j + 1].real)
    if rho == 0.0 and sigma == 0.0:
        c, b = 1.0, 0.0
    else:
        hyp = float(np.hypot(rho, sigma))
        c, b = rho / hyp, sigma / hyp
        if counter is not None:
            counter.tally(mults=5)  # rho^2, sigma^2, sqrt, two divisions
    chain.rotations.append((c, b))
    col[j] = c * col[j] + b * col[j + 1]
    chain.R[: j + 1, j] = col[: j + 1]
    g_top = c * chain.g[j] + b * chain.g[j + 1]
    chain.g[j + 1] = -b * chain.g[j] + c * chain.g[j + 1]
    chain.g[j] = g_top
    if counter is not None:
        counter.tally(mults=8, adds=4)
    return chain.R[: j + 1, j].copy()


def hessenberg_back_substitute(r, g, counter=None) -> np.ndarray:
    """Solve the upper-triangular system R p = g by back substitution."""
    r = as_complex_matrix(r)
    g = as_complex_vector(g)
    v = g.shape[0]
    if r.shape != (v, v):
        raise ValueError(f"dimension mismatch: R is {r.shape}, g has length {v}")
    p = np.zeros(v, dtype=np.complex128)
    for i in range(v - 1, -1, -1):
        if abs(r[i, i]) < _DEGENERATE_DENOM:
            raise ZeroDivisionError(f"singular triangular factor: |R({i},{i})| = {abs(r[i, i]):.3g}")
        p[i] = (g[i] - r[i, i + 1:] @ p[i + 1:]) / r[i, i]
    if counter is not None:
        counter.tally(mults=v * (v + 1) // 2, adds=v * (v - 1) // 2)
    return p


def gmres_detect(prob: MmseProblem, v_iters: int, counter=None) -> DetectionResult:
    """GMRES detection with incremental Givens residual tracking.

    Runs Arnoldi for at most min(v_iters, M) columns, folds each Hessenberg
    column into the QR factorization as it appears, and performs the
    triangular solve and solution update s = Q p once, after the loop or at
    breakdown.  The trace holds the rotated-residual magnitudes |gamma_j|;
    the final one is cross-checked against the explicitly formed residual.
    """
    if v_iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {v_iters}")
    a, y = prob.A, prob.y_mf
    v_max = min(v_iters, prob.M)
    s = np.zeros(prob.M, dtype=np.complex128)
    r0 = y - matvec(a, s, counter)
    if counter is not None:
        counter.tally(adds=prob.M)
    beta = norm2(r0)
    res_norms = [beta]
    it_norms = [0.0]
    if beta <= EARLY_STOP_REL * norm2(y) or beta == 0.0:
        return _result(s, 0, res_norms, it_norms)
    state = init_arnoldi(r0, v_max, counter)
    chain = init_givens(beta, v_max)
    stop = EARLY_STOP_REL * beta
    for j in range(v_max):
        happy = arnoldi_step(a, state, j, counter)
        givens_lsq_update(chain, state.Hbar[:, j], j, counter)
        res_norms.append(chain.residual_estimate)
        v = j + 1
        # iterate norm ||s_j|| = ||p_j|| by orthonormality; diagnostic only
        it_norms.append(norm2(hessenberg_back_substitute(chain.R[:v, :v], chain.g[:v])))
        if happy or chain.residual_estimate <= stop:
            break
    v = state.v
    p = hessenberg_back_substitute(chain.R[:v, :v], chain.g[:v], counter)
    s = state.Q[:, :v] @ p
    if counter is not None:
        counter.tally(mults=prob.M * v, adds=prob.M * max(v - 1, 0))
    explicit = norm2(y - a @ s)
    if abs(explicit - res_norms[-1]) > 1e-8 * max(beta, 1.0):
        raise ArithmeticError(
            f"rotated residual {res_norms[-1]:.3g} disagrees with explicit residual {explicit:.3g}"
        )
    return _result(s, v, res_norms, it_norms)


def exact_detect(prob: MmseProblem) -> DetectionResult:
    """Cholesky ground-truth detection: solve A s = y_mf directly."""
    low = cholesky_factor(prob.A)
    s = cholesky_solve(low, prob.y_mf)
    trace = DetectionTrace(
        residual_norms=[norm2(prob.y_mf - prob.A @ s)],
        iterate_norms=[norm2(s)],
    )
    return DetectionResult(s_hat=s, iterations=0, trace=trace)


@dataclass(frozen=True)
class ConvergenceBound:
    """Spectral quantities governing per-iteration residual contraction."""

    mu_a: float
    mu_a_inv: float
    tau2: float
    lambda_min: float
    lambda_max: float

    @property
    def minres_step_factor(self) -> float:
        """Squared-residual contraction factor 1 - mu(A) mu(A^-1), in [0, 1)."""
        return 1.0 - self.mu_a * self.mu_a_inv


def residual_bound_minres(a) -> ConvergenceBound:
    """Contraction bound for minimal-residual iterations on Hermitian PD A."""
    lo, hi = hermitian_eigen_extrema(a)
    if lo <= 0:
        raise ValueError(f"matrix is not positive definite: lambda_min = {lo:.3g}")
    return ConvergenceBound(mu_a=lo, mu_a_inv=1.0 / hi, tau2=hi / lo, lambda_min=lo, lambda_max=hi)


def residual_bound_gmres(a, k: int) -> float:
    """Residual-norm bound factor ((tau2^2 - 1) / tau2^2)^(k/2) for Hermitian PD A."""
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    bound = residual_bound_minres(a)
    tau_sq = bound.tau2 ** 2
    return float(((tau_sq - 1.0) / tau_sq) ** (k / 2.0))
