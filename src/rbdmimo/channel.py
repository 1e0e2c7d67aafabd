"""Rayleigh channel generation with optional Kronecker spatial correlation.

A channel realization is H = R_r^(1/2) W R_t^(1/2) where W has i.i.d.
circularly-symmetric complex Gaussian entries of unit variance, R_r is the
receive-side (base station) correlation and R_t the transmit-side (user)
correlation.  Both correlation matrices follow the exponential profile
R(i,k) = (zeta e^{j theta})^(k-i) for i <= k, conjugate-mirrored below the
diagonal.  Four scenarios restrict which factors are present.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_complex_matrix, require_hermitian
from .rngstream import complex_normal_rows

UNCORRELATED = "uncorrelated"
USER_CORRELATED = "user_correlated"
BS_CORRELATED = "bs_correlated"
FULLY_CORRELATED = "fully_correlated"

SCENARIO_KINDS = (UNCORRELATED, USER_CORRELATED, BS_CORRELATED, FULLY_CORRELATED)


class ConfigError(ValueError):
    """Invalid simulation configuration or config file."""


def finite_real(name: str, value) -> float:
    """value as a float; bools, strings and non-finite numbers raise ConfigError naming `name`."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ChannelScenario:
    """Correlation configuration driving channel generation.

    kind selects which correlation factors apply; the unused zeta values
    must be zero (uncorrelated forces both, user_correlated forces zeta_r,
    bs_correlated forces zeta_t).  zeta_t, zeta_r and theta are stored as
    floats.
    """

    kind: str = UNCORRELATED
    zeta_t: float = 0.0
    zeta_r: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}")
        for name in ("zeta_t", "zeta_r", "theta"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        for name, value in (("zeta_t", self.zeta_t), ("zeta_r", self.zeta_r)):
            if not (0.0 <= value < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        if self.kind == UNCORRELATED and (self.zeta_t != 0.0 or self.zeta_r != 0.0):
            raise ConfigError("uncorrelated scenario requires zeta_t = zeta_r = 0")
        if self.kind == USER_CORRELATED and self.zeta_r != 0.0:
            raise ConfigError("user_correlated scenario requires zeta_r = 0")
        if self.kind == BS_CORRELATED and self.zeta_t != 0.0:
            raise ConfigError("bs_correlated scenario requires zeta_t = 0")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """H is N x M for one seed, or (B, N, M) for a sequence of B seeds."""

    H: np.ndarray
    scenario: ChannelScenario
    seed: int | tuple[int, ...]


def correlation_matrix(dim: int, zeta: float, theta: float = 0.0) -> np.ndarray:
    """Exponential correlation matrix R(i,k) = (zeta e^{j theta})^(k-i), i <= k.

    Hermitian with unit diagonal; requires 0 <= zeta < 1 (zeta = 1 risks a
    singular, non-PSD matrix).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (0.0 <= zeta < 1.0):
        raise ValueError(f"zeta must lie in [0, 1), got {zeta}")
    base = zeta * np.exp(1j * theta)
    lag = -np.subtract.outer(np.arange(dim), np.arange(dim))  # lag[i, k] = k - i
    upper = base ** np.where(lag >= 0, lag, 0)
    lower = np.conj(base) ** np.where(lag < 0, -lag, 0)
    return np.where(lag >= 0, upper, lower)


def matrix_sqrt_psd(r: np.ndarray) -> np.ndarray:
    """Hermitian principal square root S with S @ S = R, via eigendecomposition.

    Eigenvalues in [-1e-10, 0] are clamped to zero; anything lower raises.
    """
    r = require_hermitian(as_complex_matrix(r))
    w, v = np.linalg.eigh(r)
    if w.min() < -1e-10:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {w.min():.3g}")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


@lru_cache(maxsize=64)
def _correlation_sqrt(dim: int, zeta: float, theta: float) -> np.ndarray:
    s = matrix_sqrt_psd(correlation_matrix(dim, zeta, theta))
    s.flags.writeable = False
    return s


def generate_channel(n: int, m: int, scenario: ChannelScenario, rng_seed) -> ChannelRealization:
    """Draw one N x M channel matrix for the given scenario, deterministically.

    Given a sequence of seeds instead of one, draws a (B, N, M) stack whose
    matrix b is the draw for seed b.  W entries come from the seeded
    Box-Muller stream in row-major order with per-entry variance 1.
    Scenario assembly:

    * uncorrelated:     H = W
    * user_correlated:  H = W R_t^(1/2)
    * bs_correlated:    H = R_r^(1/2) W
    * fully_correlated: H = R_r^(1/2) W R_t^(1/2)

    Identity factors are skipped outright so that a zero correlation
    factor reproduces the uncorrelated draw bit for bit.
    """
    if m < 1 or n < m:
        raise ValueError(f"require N >= M >= 1, got N={n}, M={m}")
    batched = not isinstance(rng_seed, (int, np.integer))
    seeds = tuple(int(s) for s in rng_seed) if batched else (int(rng_seed),)
    h = complex_normal_rows(seeds, n * m).reshape(len(seeds), n, m)
    if scenario.kind in (BS_CORRELATED, FULLY_CORRELATED) and scenario.zeta_r != 0.0:
        h = _correlation_sqrt(n, scenario.zeta_r, scenario.theta) @ h
    if scenario.kind in (USER_CORRELATED, FULLY_CORRELATED) and scenario.zeta_t != 0.0:
        h = h @ _correlation_sqrt(m, scenario.zeta_t, scenario.theta)
    if not batched:
        return ChannelRealization(H=h[0], scenario=scenario, seed=seeds[0])
    return ChannelRealization(H=h, scenario=scenario, seed=seeds)
