"""Tests for closed-form operation counts and the counted totals of the detectors."""

import numpy as np
import pytest

from rbdmimo.complexity import (
    OpCounter,
    analytic_cost,
    as_implemented_cost,
    cholesky_cost,
    cholesky_solve_cost,
    leading_coefficient,
    measured_cost,
    measured_counter,
    random_problem,
    report_rows,
)
from rbdmimo.detectors import ITERATIVE_DETECTORS, MmseProblem, gmres_detect
from rbdmimo.selftest import check_complexity_tables, check_matvec_budget


def diagonal_problem(y_mf):
    """A = diag(1..5): y_mf = e_2 is solved by the first step, y_mf = 0 before it."""
    a = np.diag(np.arange(1.0, 6.0)).astype(complex)
    return MmseProblem(A=a, y_mf=np.asarray(y_mf, dtype=complex))


E2_PROBLEM = diagonal_problem([0, 1, 0, 0, 0])
ZERO_PROBLEM = diagonal_problem(np.zeros(5))


class TestAnalyticCost:
    def test_spot_values_m8_k3(self):
        check_complexity_tables()
        assert analytic_cost("minres", 8, 3).complex_adds == 48

    def test_closed_forms_on_grid(self):
        # float evaluation of the polynomial forms must agree exactly with
        # the integer arithmetic over the whole M <= 1024, k <= 16 grid
        check_complexity_tables(m_values=range(1, 1025), k_values=range(1, 17))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            analytic_cost("jacobi", 8, 3)

    def test_ordering_at_m60_k3(self):
        check_complexity_tables()

    @pytest.mark.parametrize("bad", [0, -2, 8.5, 8.0, True, "8"])
    def test_non_integer_or_small_counts_rejected(self, bad):
        # M and k of every closed form must be integers >= 1, named in the error
        for cost in (analytic_cost, as_implemented_cost):
            with pytest.raises(ValueError, match=r"require integer M >= 1, got M="):
                cost("cr", bad, 2)
            with pytest.raises(ValueError, match=r"require integer k >= 1, got k="):
                cost("cr", 8, bad)
        for cost in (cholesky_cost, cholesky_solve_cost):
            with pytest.raises(ValueError, match=r"require integer M >= 1, got M="):
                cost(bad)

    def test_numpy_integer_counts_accepted(self):
        assert analytic_cost("gmres", np.int64(8), np.int32(3)) == analytic_cost("gmres", 8, 3)
        assert cholesky_cost(np.uint8(8)) == cholesky_cost(8)


class TestBaselines:
    def test_solve_cost_m1(self):
        # factorization term vanishes at M=1, the two solves leave 1 mult
        assert cholesky_solve_cost(1).complex_mults == 1

    def test_solve_cost_m60_frozen(self):
        # convention formula: 60^3/6 + 60^2/2 - 2*60/3 + 60^2 = 37760 + 3600
        assert cholesky_solve_cost(60).complex_mults == 41360

    def test_inversion_baseline_m60_frozen(self):
        # factor 37760 + invert 37820 + assembly 109800 + apply 3600
        assert cholesky_cost(60).complex_mults == 188980

    def test_monotone_in_m(self):
        solve = [cholesky_solve_cost(m).complex_mults for m in range(1, 80)]
        inv = [cholesky_cost(m).complex_mults for m in range(1, 80)]
        assert all(b > a for a, b in zip(solve, solve[1:]))
        assert all(b > a for a, b in zip(inv, inv[1:]))

    def test_reduction_windows_at_m60_k3(self):
        check_complexity_tables()  # cr within 20% of the baseline
        baseline = cholesky_cost(60).complex_mults
        assert analytic_cost("minres", 60, 3).complex_mults <= 0.30 * baseline
        assert analytic_cost("gmres", 60, 3).complex_mults <= 0.60 * baseline


class TestMeasured:
    def test_random_problem_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="require integer M >= 1, got M=2.0"):
            random_problem(2.0, 1)

    def test_cr_within_ten_percent_of_table(self):
        prob = random_problem(8, 1)
        got = measured_cost("cr", prob, 3).complex_mults
        assert abs(got - 576) <= 0.10 * 576

    def test_minres_two_products_per_iteration(self):
        check_matvec_budget([random_problem(8, 2)], depths=(1, 2, 4))

    def test_cr_products(self):
        check_matvec_budget([random_problem(8, 3)], depths=(1, 2, 4))

    def test_counted_totals_exact(self):
        # exact (mults, adds, matvecs) the detectors count: where they add
        # their tallies may change, the totals may not
        want = {
            ("minres", 1, 1): (6, 2, 2),
            ("gmres", 1, 1): (24, 6, 2),
            ("cr", 1, 1): (8, 3, 3),
            ("minres", 8, 3): (459, 426, 6),
            ("gmres", 8, 3): (501, 359, 4),
            ("cr", 8, 3): (582, 524, 6),
            ("minres", 17, 17): (10710, 10370, 34),
            ("gmres", 17, 17): (12241, 10710, 18),
            ("cr", 17, 17): (8126, 7701, 20),
        }
        for (algorithm, m, k), counts in want.items():
            counter = measured_counter(algorithm, random_problem(m, 6), k)
            assert (counter.mults, counter.adds, counter.matvecs) == counts, (algorithm, m, k)
        # early stop after the first step (gmres by happy breakdown), and a
        # zero right-hand side, which every detector returns before iterating
        degenerate = {
            ("minres", E2_PROBLEM, 1): (66, 58, 2),
            ("minres", E2_PROBLEM, 3): (91, 83, 3),
            ("gmres", E2_PROBLEM, 3): (96, 58, 2),
            ("cr", E2_PROBLEM, 3): (96, 83, 3),
            ("minres", ZERO_PROBLEM, 2): (25, 25, 1),
            ("gmres", ZERO_PROBLEM, 2): (25, 25, 1),
            ("cr", ZERO_PROBLEM, 2): (75, 65, 3),
        }
        for (algorithm, prob, k), counts in degenerate.items():
            counter = measured_counter(algorithm, prob, k)
            assert (counter.mults, counter.adds, counter.matvecs) == counts, (algorithm, prob.y_mf, k)

    @pytest.mark.parametrize("algorithm", list(ITERATIVE_DETECTORS))
    def test_as_implemented_cost_is_the_counter(self, algorithm):
        # k < M steps on these problems neither stop early nor break down
        for m in range(1, 33):
            prob = random_problem(m, 7)
            for k in range(1, m):
                counter = measured_counter(algorithm, prob, k)
                assert counter.cost() == as_implemented_cost(algorithm, m, k), (m, k)

    def test_as_implemented_cost_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            as_implemented_cost("gmres", 0, 1)
        with pytest.raises(ValueError):
            as_implemented_cost("lsqr", 4, 2)

    def test_zero_rotation_pair_counted_without_its_square_root(self):
        # A = 0 gives a zero (rho, sigma) pair at step 0: the identity rotation
        # skips rho^2, sigma^2, the square root and the two divisions, then the
        # singular triangle stops the solve with the step already counted
        counter = OpCounter()
        prob = MmseProblem(A=np.zeros((2, 2)), y_mf=np.array([1.0, 0.0]))
        with pytest.raises(ZeroDivisionError):
            gmres_detect(prob, 2, counter=counter)
        assert (counter.mults, counter.adds, counter.matvecs) == (28, 13, 2)

    @pytest.mark.parametrize("algorithm", list(ITERATIVE_DETECTORS))
    def test_counting_does_not_perturb_the_detection(self, algorithm):
        # random problems, an early stop, a zero right-hand side, and at M = 1
        # gmres's happy breakdown at its first step
        detect = ITERATIVE_DETECTORS[algorithm]
        problems = [random_problem(m, seed) for m in (1, 3, 8, 13) for seed in (0, 6)]
        for prob in (*problems, E2_PROBLEM, ZERO_PROBLEM):
            for k in range(1, prob.M + 3):
                plain = detect(prob, k)
                counted = detect(prob, k, counter=OpCounter())
                assert np.array_equal(counted.s_hat, plain.s_hat), (prob.M, k)
                assert counted.iterations == plain.iterations, (prob.M, k)
                assert counted.trace == plain.trace, (prob.M, k)

    def test_deterministic(self):
        prob = random_problem(8, 4)
        a = measured_cost("gmres", prob, 3)
        b = measured_cost("gmres", prob, 3)
        assert a == b

    def test_cr_leading_coefficient_fit(self):
        for k in (2, 3, 4):
            m_values = [8, 16, 32, 64]
            counts = [measured_cost("cr", random_problem(m, 5), k).complex_mults for m in m_values]
            coeff = leading_coefficient(m_values, counts)
            assert abs(coeff - (k + 3)) <= 0.05 * (k + 3)

    def test_counter_costs_compose(self):
        # a 4 x 4 product and a subtraction, then two coefficients of length 3
        counter = OpCounter()
        counter.count(4, matvec=1, sub=1)
        counter.count(3, coeff=2)
        cost = counter.cost()
        assert cost.complex_mults == 16 + 2 * 7
        assert cost.complex_adds == 12 + 4 + 2 * 4
        assert counter.matvecs == 1


class TestReport:
    def test_reduction_column(self):
        algorithm, m, k, *_, baseline, reduction = report_rows([60], 3, seed=0)[2].split(",")
        assert (algorithm, m, k) == ("cr", "60", "3")
        assert float(reduction) >= 0.80
        assert int(baseline) == cholesky_cost(60).complex_mults

    def test_rows_cover_algorithms_and_grid(self):
        rows = report_rows([8, 16], 3)
        assert len(rows) == 6
        assert rows[0].startswith("minres,8,3,")
        fields = rows[0].split(",")
        assert len(fields) == 9
