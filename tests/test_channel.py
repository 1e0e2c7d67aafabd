"""Tests for correlation matrices and seeded channel generation."""

import re

import numpy as np
import pytest

from rbdmimo.channel import (
    ChannelScenario,
    ConfigError,
    correlate_channel,
    correlation_matrix,
    generate_channel,
    matrix_sqrt_psd,
)
from rbdmimo.complexity import (analytic_cost, as_implemented_cost, cholesky_cost, cholesky_solve_cost,
                                random_problem)
from rbdmimo.detectors import ITERATIVE_DETECTORS
from rbdmimo.linalg import hermitian_defect, hermitian_eigen_extrema
import rbdmimo.rngstream as rngstream
from rbdmimo.rngstream import complex_normal, mix_seed, uniform_stream
from rbdmimo.sim import snr_to_sigma2

BLOCK = 8192  # seeds per chunk draw of the moment tests


def drawn_channels(n, m, scenario, master, count):
    """(count, N, M) channels, channel i generate_channel(n, m, scenario, mix_seed(master, i)).H.

    They are drawn BLOCK seeds at a time in one chunk draw, which gives
    each row what a fresh stream gives alone; the first rows are checked
    against generate_channel itself.
    """
    h = np.empty((count, n, m), dtype=complex)
    for lo in range(0, count, BLOCK):
        seeds = mix_seed(master, np.arange(lo, min(lo + BLOCK, count)))
        w, = rngstream._chunk_normals([(seeds, n * m, 1.0)])
        h[lo:lo + len(seeds)] = correlate_channel(w.reshape(-1, n, m), scenario)
    for i in range(64):
        assert np.array_equal(h[i], generate_channel(n, m, scenario, mix_seed(master, i)).H)
    return h


class TestCorrelationMatrix:
    def test_zero_factor_is_identity(self):
        assert np.array_equal(correlation_matrix(3, 0.0), np.eye(3))

    def test_real_exponential_profile(self):
        want = np.array([[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]])
        assert np.abs(correlation_matrix(3, 0.3, 0.0) - want).max() < 1e-15

    def test_quarter_turn_phase(self):
        r = correlation_matrix(2, 0.2, np.pi / 2)
        want = np.array([[1.0, 0.2j], [-0.2j, 1.0]])
        assert np.abs(r - want).max() < 1e-15

    def test_rejects_unit_factor(self):
        with pytest.raises(ValueError):
            correlation_matrix(3, 1.0)

    @pytest.mark.parametrize("zeta, theta, message", [
        (0.5, float("nan"), "theta must be finite, got nan"),
        (0.5, float("inf"), "theta must be finite, got inf"),
        ("0.5", 0.0, "zeta must be a real number, got '0.5'"),
        (0.5, "x", "theta must be a real number, got 'x'"),
    ], ids=["nan", "inf", "str-zeta", "str-theta"])
    def test_factor_and_phase_are_finite_reals(self, zeta, theta, message):
        # NaN and inf gave a NaN matrix, a string a bare TypeError
        with pytest.raises(ConfigError, match=re.escape(message)):
            correlation_matrix(3, zeta, theta)

    def test_hermitian_unit_diagonal_positive(self):
        for dim in (2, 8, 64):
            for zeta in np.arange(0.0, 1.0, 0.1):
                for theta in (0.0, np.pi / 4, np.pi / 2):
                    r = correlation_matrix(dim, float(zeta), theta)
                    assert hermitian_defect(r) < 1e-12
                    assert np.abs(np.diag(r) - 1.0).max() < 1e-15
                    if dim <= 8:
                        lo, _ = hermitian_eigen_extrema(r)
                        assert lo > 0.0


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(4, dtype=complex)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex))
        assert np.abs(s - np.diag([2.0, 3.0])).max() < 1e-14

    def test_random_psd_reconstruction(self):
        gen = uniform_stream(200)
        for _ in range(10):
            b = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
            r = b @ b.conj().T
            s = matrix_sqrt_psd(r)
            assert hermitian_defect(s) < 1e-12
            assert np.linalg.norm(s @ s - r) / np.linalg.norm(r) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            matrix_sqrt_psd(np.diag([1.0, -1.0]).astype(complex))


class TestScenario:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ChannelScenario(kind="diagonal")

    def test_forced_zeros(self):
        with pytest.raises(ValueError):
            ChannelScenario(kind="uncorrelated", zeta_t=0.1)
        with pytest.raises(ValueError):
            ChannelScenario(kind="user_correlated", zeta_t=0.2, zeta_r=0.1)
        with pytest.raises(ValueError):
            ChannelScenario(kind="bs_correlated", zeta_t=0.2, zeta_r=0.1)


class TestGenerateChannel:
    def test_reproducible_bit_for_bit(self):
        sc = ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3)
        a = generate_channel(8, 4, sc, 777).H
        b = generate_channel(8, 4, sc, 777).H
        assert np.array_equal(a, b)

    def test_zero_correlation_matches_uncorrelated(self):
        uncorr = generate_channel(8, 4, ChannelScenario(), 31).H
        full = generate_channel(8, 4, ChannelScenario("fully_correlated"), 31).H
        assert np.array_equal(uncorr, full)

    def test_user_correlated_definition(self):
        # with D_r identity the draw must equal W @ Rt^(1/2) computed externally
        sc = ChannelScenario("user_correlated", zeta_t=0.4, theta=0.3)
        h = generate_channel(6, 3, sc, 55).H
        w = complex_normal(uniform_stream(55), 18).reshape(6, 3)
        rt_sqrt = matrix_sqrt_psd(correlation_matrix(3, 0.4, 0.3))
        assert np.abs(h - w @ rt_sqrt).max() < 1e-12

    def test_correlates_the_drawn_w(self):
        sc = ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3, theta=0.4)
        w = complex_normal(uniform_stream(55), 18).reshape(6, 3)
        assert np.array_equal(generate_channel(6, 3, sc, 55).H, correlate_channel(w, sc))
        assert correlate_channel(w, ChannelScenario()) is w

    @pytest.mark.parametrize("seed", [[5, 7], np.array([5, 7], dtype=np.uint64), 5.0, True],
                             ids=["list", "uint64-array", "float", "bool"])
    def test_one_integer_seed(self, seed):
        # a batch of seeds, or anything else but an integer, is no seed
        with pytest.raises(TypeError, match="seed must be an integer"):
            generate_channel(8, 2, ChannelScenario(), seed)

    def test_scenario_must_be_a_channel_scenario(self):
        # a kind's name was read as a scenario, and failed on its missing zeta_r
        with pytest.raises(ConfigError, match="scenario must be a ChannelScenario, got 'uncorrelated'"):
            generate_channel(8, 2, "uncorrelated", 1)
        with pytest.raises(ConfigError, match="scenario must be a ChannelScenario, got 'bs_correlated'"):
            correlate_channel(np.ones((8, 2), dtype=complex), "bs_correlated")

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            generate_channel(2, 4, ChannelScenario(), 0)

    @pytest.mark.parametrize("n, m, got", [(8.0, 2, "N=8.0"), (8, 2.0, "M=2.0"), (8, True, "M=True"), ("8", 2, "N='8'")])
    def test_dims_must_be_integers(self, n, m, got):
        with pytest.raises(ValueError, match=f"require integer {got[0]} >= 1, got {got}"):
            generate_channel(n, m, ChannelScenario(), 1)

    def test_entry_moments(self):
        # 1e5 draws of a 4x2 matrix: entries should be zero-mean unit-variance
        draws = drawn_channels(4, 2, ChannelScenario(), 9000, 100_000).reshape(-1, 8)
        mean = draws.mean()
        var = np.mean(np.abs(draws) ** 2)
        assert abs(mean.real) <= 0.02 and abs(mean.imag) <= 0.02
        assert 0.98 <= var <= 1.02

    def test_kronecker_covariance_oracle(self):
        # cov(vec H) for the doubly correlated model is Rt^T (x) Rr
        sc = ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3)
        vecs = drawn_channels(2, 2, sc, 9100, 100_000).transpose(0, 2, 1).reshape(-1, 4)  # vec H, column-major
        cov = (vecs.T @ vecs.conj()) / vecs.shape[0]  # cov[a,b] = E[v_a conj(v_b)]
        rt = correlation_matrix(2, 0.2, 0.0)
        rr = correlation_matrix(2, 0.3, 0.0)
        want = np.kron(rt.T, rr)
        assert np.abs(cov - want).max() < 0.03


COUNT_ARGUMENTS = {
    "correlation_matrix-dim": ("dim", lambda v: correlation_matrix(v, 0.5)),
    "generate_channel-N": ("N", lambda v: generate_channel(v, 2, ChannelScenario(), 1)),
    "generate_channel-M": ("M", lambda v: generate_channel(8, v, ChannelScenario(), 1)),
    "snr_to_sigma2-M": ("M", lambda v: snr_to_sigma2(0.0, v)),
    "analytic_cost-M": ("M", lambda v: analytic_cost("cr", v, 2)),
    "analytic_cost-k": ("k", lambda v: analytic_cost("cr", 8, v)),
    "as_implemented_cost-M": ("M", lambda v: as_implemented_cost("cr", v, 2)),
    "as_implemented_cost-k": ("k", lambda v: as_implemented_cost("cr", 8, v)),
    "cholesky_cost-M": ("M", cholesky_cost),
    "cholesky_solve_cost-M": ("M", cholesky_solve_cost),
    "random_problem-M": ("M", lambda v: random_problem(v, 1)),
    **{f"{name}_detect-k": ("k", lambda v, detect=detect: detect(random_problem(2, 1), v))
       for name, detect in ITERATIVE_DETECTORS.items()},
}


@pytest.mark.parametrize("name, call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS)
def test_count_rule(name, call):
    # every count is an int or numpy integer >= 1, never a bool, and says so in one
    # message; the detectors run at M = 2, where gmres's min(k, M) would take 2.5 as 2
    for bad in (0, -2, 2.5, 8.5, 2.0, 8.0, True, np.bool_(True), "3", "8"):
        with pytest.raises(ValueError, match=re.escape(f"require integer {name} >= 1, got {name}={bad!r}")):
            call(bad)
