"""Operation-count accounting for the detectors.

COUNTING_CONVENTION states what counts, for the closed forms below and for
the totals a detector adds to an OpCounter passed to it; `rbdmimo
complexity` prints it with BASELINE_CONVENTION.  Preprocessing (Gram
matrix and matched filter) is excluded because every compared scheme
shares it, and the residual norms a detector records for its trace are
diagnostics, not algorithm steps.

The closed-form per-detector counts are, for M users and k iterations:

    minres: adds 2kM,          mults 4kM^2 + 2kM
    gmres:  adds (k^2/2 + 3k/2 + 1)M,
            mults (5k^2/2 + k/2 + 1)M^2 + (k^2/2 + k/2)M
    cr:     adds (4k+1)M,      mults (k+3)M^2 + 8kM

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
BASELINE_CONVENTION = (
    "explicit inverse via Cholesky: factorization + triangular inversion + "
    "inverse assembly + matrix-vector apply"
)


@dataclass(frozen=True)
class Cost:
    complex_adds: int
    complex_mults: int

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.complex_adds + other.complex_adds, self.complex_mults + other.complex_mults)


class OpCounter:
    """Per-invocation accumulator of scalar complex operations.

    Detectors call `tally` and `tally_matvec`; the counter is never shared
    between invocations.
    """

    def __init__(self):
        self.mults = 0
        self.adds = 0
        self.matvecs = 0

    def tally(self, mults: int = 0, adds: int = 0) -> None:
        self.mults += mults
        self.adds += adds

    def tally_matvec(self, rows: int, cols: int) -> None:
        self.matvecs += 1
        self.mults += rows * cols
        self.adds += rows * (cols - 1)

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
