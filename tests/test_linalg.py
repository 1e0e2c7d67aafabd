"""Tests for the dense complex primitives and the Cholesky ground truth.

The package forms its products with numpy's `np.matvec` and its Hermitian
inner products with `np.vecdot`; the detector tests of `kernel_coeff` pin
the convention it relies on, the first argument conjugated.
"""

import numpy as np
import pytest
from conftest import random_complex

from rbdmimo.linalg import (
    NotPositiveDefiniteError,
    cholesky_factor,
    cholesky_solve,
    hermitian_defect,
    hermitian_eigen_extrema,
    require_hermitian,
)
from rbdmimo.rngstream import uniform_stream


def recurrence_pivots(a):
    """Independent column-by-column Cholesky pivots, up to the first non-positive one."""
    m = a.shape[0]
    low = np.zeros((m, m), dtype=complex)
    pivots = []
    for j in range(m):
        pivots.append(a[j, j].real - np.vdot(low[j, :j], low[j, :j]).real)
        if pivots[-1] <= 0:
            break
        low[j, j] = np.sqrt(pivots[-1])
        low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j].conj()) / low[j, j]
    return pivots


NAN_MATRIX = [[1.0, np.nan], [np.nan, 1.0]]


def random_spd(gen, m, shift=0.1):
    b = random_complex(gen, m, m)
    return b @ b.conj().T + shift * np.eye(m)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_factor(np.eye(4, dtype=complex)), np.eye(4), atol=1e-15)

    def test_2x2_frozen(self):
        # direct multiplication oracle: [[2,0],[1,sqrt(2)]] @ its H-transpose = [[4,2],[2,3]]
        a = np.array([[4.0, 2.0], [2.0, 3.0]], dtype=complex)
        low = cholesky_factor(a)
        want = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.abs(low - want).max() < 1e-14
        assert np.abs(low @ low.conj().T - a).max() < 1e-14

    def test_indefinite_carries_pivot_index(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(a)
        assert err.value.pivot_index == 1

    def test_indefinite_4x4_carries_later_pivot_index(self):
        # A = L D L^H with unit-lower L has Cholesky pivots D; the third is negative
        low = np.array([[1, 0, 0, 0], [0.5, 1, 0, 0], [0.25, 0.5j, 1, 0], [1, 0, 0.5, 1]])
        a = low @ np.diag([4.0, 1.0, -2.0, 1.0]) @ low.conj().T
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(a)
        assert err.value.pivot_index == 2
        assert err.value.pivot_value == pytest.approx(-2.0)

    def test_tiny_positive_pivot_rejected(self):
        # pivots 4, 1, 1e-15: LAPACK factors this, cholesky_factor must still reject pivot 2
        a = np.array([[4.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1e-15]], dtype=complex)
        np.linalg.cholesky(a)
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(a)
        assert err.value.pivot_index == 2
        assert err.value.pivot_value == pytest.approx(1e-15)

    def test_failing_pivot_matches_recurrence(self):
        gen = uniform_stream(112)
        for _ in range(200):
            m = int(gen.integers(2, 13))
            a = random_spd(gen, m)
            lo, hi = np.linalg.eigvalsh(a)[[0, -1]]
            a = a - (lo + gen.uniform(0.05, 1.0) * (hi - lo)) * np.eye(m)  # indefinite
            want = recurrence_pivots(a)
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky_factor(a)
            assert err.value.pivot_index == len(want) - 1
            assert abs(err.value.pivot_value - want[-1]) <= 1e-9 * np.abs(a).max()

    def test_rejects_non_finite(self):
        for a in (NAN_MATRIX, [[np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                cholesky_factor(np.array(a, dtype=complex))

    def test_stack_matches_single_matrices(self):
        gen = uniform_stream(113)
        a = np.stack([random_spd(gen, 5) for _ in range(4)])
        y = random_complex(gen, 4, 5)
        low = cholesky_factor(a)
        s = cholesky_solve(low, y)
        for i in range(4):
            assert np.array_equal(low[i], cholesky_factor(a[i]))
            assert np.array_equal(s[i], cholesky_solve(low[i], y[i]))

    def test_stack_reports_first_failing_matrix(self):
        gen = uniform_stream(114)
        bad = np.diag([1.0, 2.0, -1.0]).astype(complex)
        a = np.stack([random_spd(gen, 3), bad, random_spd(gen, 3)])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(a)
        assert err.value.pivot_index == 2

    def test_reconstruction_random(self):
        gen = uniform_stream(104)
        for _ in range(30):
            m = int(gen.integers(2, 17))
            a = random_spd(gen, m)
            low = cholesky_factor(a)
            assert np.triu(low, 1).any() == False  # noqa: E712 - strictly lower
            assert np.all(np.diag(low).real > 0)
            rel = np.linalg.norm(low @ low.conj().T - a) / np.linalg.norm(a)
            assert rel < 1e-10

    def test_solve_identity(self):
        y = np.array([1.0, 2.0, 3.0], dtype=complex)
        low = cholesky_factor(np.eye(3, dtype=complex))
        assert np.allclose(cholesky_solve(low, y), y, atol=1e-15)

    def test_solve_2x2_cramer_oracle(self):
        # Cramer on [[4,2],[2,3]] s = (8,7): det 8, s = ((24-14)/8, (-16+28)/8)
        a = np.array([[4.0, 2.0], [2.0, 3.0]], dtype=complex)
        s = cholesky_solve(cholesky_factor(a), np.array([8.0, 7.0], dtype=complex))
        assert np.abs(s - np.array([1.25, 1.5])).max() < 1e-14

    def test_solve_residual_random(self):
        gen = uniform_stream(105)
        for _ in range(1000):
            m = int(gen.integers(2, 17))
            a = random_spd(gen, m)
            y = random_complex(gen, m)
            s = cholesky_solve(cholesky_factor(a), y)
            assert np.linalg.norm(a @ s - y) <= 1e-9 * np.linalg.norm(y)


class TestEigenExtrema:
    def test_identity(self):
        assert hermitian_eigen_extrema(np.eye(3, dtype=complex)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = hermitian_eigen_extrema(np.diag([1.0, 5.0]).astype(complex))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(5.0)

    def test_2x2_quadratic_formula_oracle(self):
        gen = uniform_stream(106)
        for _ in range(50):
            d1, d2 = gen.standard_normal(2)
            off = complex(*gen.standard_normal(2))
            a = np.array([[d1, off], [np.conj(off), d2]])
            # roots of l^2 - (d1+d2) l + (d1 d2 - |off|^2)
            tr, det = d1 + d2, d1 * d2 - abs(off) ** 2
            disc = np.sqrt(tr * tr - 4 * det)
            want = ((tr - disc) / 2, (tr + disc) / 2)
            got = hermitian_eigen_extrema(a)
            assert abs(got[0] - want[0]) < 1e-10 * max(1, abs(want[0]))
            assert abs(got[1] - want[1]) < 1e-10 * max(1, abs(want[1]))

    def test_against_numpy_oracle(self):
        gen = uniform_stream(107)
        for _ in range(20):
            m = int(gen.integers(2, 13))
            b = random_complex(gen, m, m)
            a = (b + b.conj().T) / 2
            w = np.linalg.eigvalsh(a)
            lo, hi = hermitian_eigen_extrema(a)
            scale = max(1.0, abs(w).max())
            assert abs(lo - w.min()) < 1e-8 * scale
            assert abs(hi - w.max()) < 1e-8 * scale

    def test_rayleigh_quotient_bracket(self):
        gen = uniform_stream(108)
        a = random_spd(gen, 6)
        lo, hi = hermitian_eigen_extrema(a)
        for _ in range(50):
            x = random_complex(gen, 6)
            quad = np.real(np.vdot(x, a @ x))
            nrm = np.real(np.vdot(x, x))
            assert lo * nrm <= quad * (1 + 1e-12) + 1e-12
            assert quad <= hi * nrm * (1 + 1e-12) + 1e-12

    def test_rejects_non_hermitian(self):
        for a in ([[1.0, 2.0], [3.0, 1.0]], NAN_MATRIX):
            with pytest.raises(ValueError):
                hermitian_eigen_extrema(np.array(a, dtype=complex))


class TestHermitianDefect:
    def test_exact_hermitian(self):
        gen = uniform_stream(109)
        a = random_spd(gen, 5)
        assert hermitian_defect(a) < 1e-12

    def test_detects_asymmetry(self):
        a = np.eye(3, dtype=complex)
        a[0, 1] = 1e-6
        assert hermitian_defect(a) > 1e-7

    def test_nan_entry_fails_require_hermitian(self):
        # a NaN defect compares false against any tolerance; it must still fail
        assert np.isnan(hermitian_defect(np.array(NAN_MATRIX, dtype=complex)))
        with pytest.raises(ValueError, match="non-finite"):
            require_hermitian(np.array(NAN_MATRIX, dtype=complex))
