"""Operation-count accounting for the detectors.

COUNTING_CONVENTION states what counts, for the closed forms below and for
the totals a detector adds to an OpCounter passed to it; `rbdmimo
complexity` prints it with BASELINE_CONVENTION.  Preprocessing (Gram
matrix and matched filter) is excluded because every compared scheme
shares it, and the residual norms a detector records for its trace are
diagnostics, not algorithm steps.  KERNEL_OPS is the convention's
per-kernel table: a detector reports how often it invoked each kernel,
and its counted total is those invocations times the table's (mults,
adds) per invocation.

The closed-form per-detector counts are, for M users and k iterations:

    minres: adds 2kM,          mults 4kM^2 + 2kM
    gmres:  adds (k^2/2 + 3k/2 + 1)M,
            mults (5k^2/2 + k/2 + 1)M^2 + (k^2/2 + k/2)M
    cr:     adds (4k+1)M,      mults (k+3)M^2 + 8kM

These are the paper's formulas, kept as published (criterion 7).  Term by
term, against the kernels a k-step run executes and counts:

* Adds.  Every closed form counts vector additions only: minres's 2kM is
  the residual subtraction r = y - A s and the update s + alpha r of each
  step; cr's (4k+1)M is the initial subtraction and the four updates (s,
  r, p, e) of each step; gmres's (k^2/2 + 3k/2 + 1)M is the initial
  subtraction, the k(k+1)/2 Arnoldi multiply-accumulates and the k
  accumulations of s = Q p.  The counted adds also charge the sums inside
  every product (M(M-1)) and inner product (M-1).
* minres mults.  4kM^2 charges four M x M products per step.  The code
  runs two: A s, because it forms r = y - A s explicitly, and A r, which
  serves both quadratic forms of alpha = (r^H A r) / ||A r||^2.  So the
  executed term is 2kM^2, half the paper's: the closed form matches only
  if each of the two quadratic forms is charged a product of its own
  beside the two that run; the abstract, the paper text in this
  repository, does not say which products it charged.  2kM is the two
  inner products of alpha; the code also counts alpha's division and the
  update's M (3kM + k).
* cr mults.  (k+3)M^2 is the three products of the initialization (A s0,
  A p0, A r0) and one per step, as executed; 8kM is the four inner
  products of the two coefficients and the four updates per step.  The
  count adds the two divisions per step: 2k more than the closed form.
* gmres mults.  The code runs k+1 products ((k+1)M^2: A s0 and one per
  Arnoldi step) and k(k+1)/2 inner products and as many
  multiply-accumulates of length M.  The closed form's
  (k^2/2 + k/2)M term is one M per Arnoldi inner product, but its M^2
  coefficient grows as 5k^2/2, and the only executed work that grows as k^2
  is those inner products and multiply-accumulates.  So the closed form
  charges M^2-order work per Arnoldi inner product, not M: step j costs
  (5j - 2)M^2 in it (plus M^2 once for the initial residual), which no
  mix of the executed kernels reproduces.  It is not a count of this
  code.  The normalizations, Givens rotations and the final triangular
  solve and s = Q p are counted under their own KERNEL_OPS rules.  Step j
  is still charged the j + 2 rotations of an incremental QR, though it
  runs one pivot inner product and R is formed once after the loop.
* KERNEL_OPS["norm"], a basis vector's norm, charges M + 1 mults (M
  squared magnitudes and the square root) and no adds, while "inner"
  charges M - 1 adds for the same sum of products.  gmres's counted adds
  therefore leave out M - 1 per norm, (v + 1)(M - 1) in a v-step run.
  The rule stays as it is: changing it changes the recorded counts.

The baseline for reduction figures is the traditional explicit-inversion
detector (see cholesky_cost); the cheaper factor-and-solve variant is
exposed separately (cholesky_solve_cost) so claims can be bracketed
between the two conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelScenario, generate_channel
from .detectors import ITERATIVE_DETECTORS, MmseProblem, preprocess
from .rngstream import complex_normal, mix_seed, uniform_stream

COUNTED_ALGORITHMS = tuple(ITERATIVE_DETECTORS)

COUNTING_CONVENTION = (
    "complex multiplication, real-by-complex scaling, division and square root = 1 mult each; "
    "complex addition or subtraction = 1 add; preprocessing and trace norms excluded"
)
# (mults, adds) of one kernel invocation on length-m vectors, under COUNTING_CONVENTION
# (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., SIAM 2003, Ch. 5-6)
KERNEL_OPS = {
    "matvec": lambda m: (m * m, m * (m - 1)),  # M x M product
    "sub": lambda m: (0, m),  # vector subtraction
    "inner": lambda m: (m, max(m - 1, 0)),  # inner product
    "mac": lambda m: (m, m),  # kernel_mac: x + a b
    "coeff": lambda m: (2 * m + 1, 2 * max(m - 1, 0)),  # kernel_coeff: two inner products, one division
    # gmres: the norm of a basis vector (squared magnitudes and the square
    # root) and its normalizing divisions; a real Givens rotation of one
    # entry pair and the parameters of a new one (rho^2, sigma^2, the square
    # root and two divisions); back-substitution with a v x v triangle
    "norm": lambda m: (m + 1, 0),
    "scale": lambda m: (m, 0),
    "rotation": lambda m: (4, 2),
    "rotation_params": lambda m: (5, 0),
    "trisolve": lambda v: (v * (v + 1) // 2, v * (v - 1) // 2),
}
BASELINE_CONVENTION = (
    "explicit inverse via Cholesky: factorization + triangular inversion + "
    "inverse assembly + matrix-vector apply"
)


@dataclass(frozen=True)
class Cost:
    complex_adds: int
    complex_mults: int


class OpCounter:
    """Per-invocation accumulator of scalar complex operations.

    Detectors call `count`; the counter is never shared between invocations.
    """

    def __init__(self):
        self.mults = 0
        self.adds = 0
        self.matvecs = 0

    def count(self, size: int, **kernels: int) -> None:
        """Add the cost of `kernels[name]` invocations of each KERNEL_OPS kernel on length-`size` vectors."""
        for name, calls in kernels.items():
            mults, adds = KERNEL_OPS[name](size)
            self.mults += calls * mults
            self.adds += calls * adds
        self.matvecs += kernels.get("matvec", 0)

    def cost(self) -> Cost:
        return Cost(complex_adds=self.adds, complex_mults=self.mults)


def analytic_cost(algorithm: str, m: int, k: int) -> Cost:
    """Closed-form operation count for one detection, exact integer arithmetic.

    The half-integer coefficients in the gmres row always cancel because
    k^2 + k and k^2 + 3k are even for every integer k.
    """
    if m < 1 or k < 1:
        raise ValueError(f"require M >= 1 and k >= 1, got M={m}, k={k}")
    if algorithm == "minres":
        return Cost(complex_adds=2 * k * m, complex_mults=4 * k * m * m + 2 * k * m)
    if algorithm == "gmres":
        adds = ((k * k + 3 * k) // 2 + 1) * m
        mults = ((5 * k * k + k) // 2 + 1) * m * m + ((k * k + k) // 2) * m
        return Cost(complex_adds=adds, complex_mults=mults)
    if algorithm == "cr":
        return Cost(complex_adds=(4 * k + 1) * m, complex_mults=(k + 3) * m * m + 8 * k * m)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {COUNTED_ALGORITHMS}")


def as_implemented_cost(algorithm: str, m: int, k: int) -> Cost:
    """What the counter charges a k-step run that neither stops early nor breaks down.

    The closed-form sum of each detector's KERNEL_OPS invocations; k < M
    keeps gmres and cr clear of their exact finish.
    """
    if m < 1 or k < 1:
        raise ValueError(f"require M >= 1 and k >= 1, got M={m}, k={k}")
    if algorithm == "minres":
        return Cost(complex_adds=k * (2 * m * m + 2 * m - 2), complex_mults=k * (2 * m * m + 3 * m + 1))
    if algorithm == "gmres":
        adds = (k + 1) * m * m + (k * k + k - 1) * m + k * k + 2 * k
        mults = (k + 1) * m * m + (k * k + 4 * k + 2) * m + (5 * k * k + 25 * k) // 2 + 1
        return Cost(complex_adds=adds, complex_mults=mults)
    if algorithm == "cr":
        adds = 3 * m * m - 2 * m + k * (m * m + 7 * m - 4)
        return Cost(complex_adds=adds, complex_mults=(k + 3) * m * m + 8 * k * m + 2 * k)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {COUNTED_ALGORITHMS}")


def cholesky_solve_cost(m: int) -> Cost:
    """Factor-and-solve detection cost (the cheap direct method).

    Multiplications: M^3/6 + M^2/2 - 2M/3 for the factorization (divisions
    and square roots counted as multiplications) plus M^2 in total for the
    two triangular solves.  Additions are the inner-product accumulations:
    (M^3 - M)/6 for the factorization plus M^2 - M for the solves.
    """
    if m < 1:
        raise ValueError(f"require M >= 1, got M={m}")
    factor_mults = (m**3 + 3 * m**2 - 4 * m) // 6
    factor_adds = (m**3 - m) // 6
    return Cost(
        complex_adds=factor_adds + m * m - m,
        complex_mults=factor_mults + m * m,
    )


def cholesky_cost(m: int) -> Cost:
    """Traditional explicit-inversion baseline cost.

    Forms A^-1 and applies it: Cholesky factorization
    (M^3/6 + M^2/2 - 2M/3), inversion of the triangular factor
    (M(M+1)(M+2)/6), assembly of A^-1 = L^-H L^-1 computing the Hermitian
    lower triangle with dense length-M inner products (M^2 (M+1)/2), and
    the final matrix-vector application (M^2).  Leading order 5M^3/6.
    """
    if m < 1:
        raise ValueError(f"require M >= 1, got M={m}")
    factor_mults = (m**3 + 3 * m**2 - 4 * m) // 6
    invert_mults = m * (m + 1) * (m + 2) // 6
    assembly_mults = m * m * (m + 1) // 2
    apply_mults = m * m
    factor_adds = (m**3 - m) // 6
    invert_adds = (m**3 - m) // 6 - m * (m - 1) // 2
    assembly_adds = m * (m * m - 1) // 2
    apply_adds = m * (m - 1)
    return Cost(
        complex_adds=factor_adds + invert_adds + assembly_adds + apply_adds,
        complex_mults=factor_mults + invert_mults + assembly_mults + apply_mults,
    )


def measured_cost(algorithm: str, prob: MmseProblem, k: int) -> Cost:
    """Run the detector with a counter and report the operations it counted."""
    return measured_counter(algorithm, prob, k).cost()


def measured_counter(algorithm: str, prob: MmseProblem, k: int) -> OpCounter:
    """Like measured_cost but returns the full counter (including matvec tally)."""
    if algorithm not in ITERATIVE_DETECTORS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {COUNTED_ALGORITHMS}")
    counter = OpCounter()
    ITERATIVE_DETECTORS[algorithm](prob, k, counter=counter)
    return counter


@dataclass(frozen=True)
class CostReport:
    algorithm: str
    M: int
    k: int
    analytic: Cost
    measured: Cost
    baseline: Cost

    @property
    def reduction_vs_baseline(self) -> float:
        return 1.0 - self.measured.complex_mults / self.baseline.complex_mults


def random_problem(m: int, seed: int, n: int | None = None, sigma2: float = 1.0) -> MmseProblem:
    """Deterministic random SPD detection problem for counted runs."""
    n = 2 * m if n is None else n
    h = generate_channel(n, m, ChannelScenario(), mix_seed(seed, 0)).H
    y = complex_normal(uniform_stream(mix_seed(seed, 1)), n)
    return preprocess(h, y, sigma2)


def cost_report(algorithm: str, m: int, k: int, seed: int = 0) -> CostReport:
    prob = random_problem(m, seed)
    return CostReport(
        algorithm=algorithm,
        M=m,
        k=k,
        analytic=analytic_cost(algorithm, m, k),
        measured=measured_cost(algorithm, prob, k),
        baseline=cholesky_cost(m),
    )


REPORT_COLUMNS = (
    "algorithm,M,k,analytic_adds,analytic_mults,measured_adds,measured_mults,"
    "baseline_mults,reduction"
)


def report_rows(m_values, k: int, seed: int = 0) -> list[str]:
    """CSV rows (without header) for every algorithm across an M grid."""
    rows = []
    for algorithm in COUNTED_ALGORITHMS:
        for m in m_values:
            rep = cost_report(algorithm, m, k, seed)
            rows.append(
                f"{rep.algorithm},{rep.M},{rep.k},"
                f"{rep.analytic.complex_adds},{rep.analytic.complex_mults},"
                f"{rep.measured.complex_adds},{rep.measured.complex_mults},"
                f"{rep.baseline.complex_mults},{rep.reduction_vs_baseline:.6f}"
            )
    return rows


def leading_coefficient(m_values, mult_counts) -> float:
    """Quadratic leading coefficient of measured counts as a function of M."""
    return float(np.polyfit(np.asarray(m_values, float), np.asarray(mult_counts, float), 2)[0])
