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
from .rngstream import _is_integer, complex_normal, uniform_stream

UNCORRELATED = "uncorrelated"
USER_CORRELATED = "user_correlated"
BS_CORRELATED = "bs_correlated"
FULLY_CORRELATED = "fully_correlated"

SCENARIO_KINDS = (UNCORRELATED, USER_CORRELATED, BS_CORRELATED, FULLY_CORRELATED)


class ConfigError(ValueError):
    """Invalid simulation configuration or config file."""


def real_number(name: str, value):
    """value itself if it is an int or a float, numpy's included.

    Anything else, a bool or a string included, raises ConfigError naming `name`.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value


def finite_real(name: str, value) -> float:
    """value as a float; bools, strings and non-finite numbers raise ConfigError naming `name`."""
    if not np.isfinite(real_number(name, value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _count(name: str, value) -> int:
    """A count (M, N, k, dim) as an int: anything but an int or numpy integer >= 1 raises ValueError naming it."""
    if not (_is_integer(value) and value >= 1):
        raise ValueError(f"require integer {name} >= 1, got {name}={value!r}")
    return int(value)


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

    @property
    def correlated(self) -> bool:
        """Whether a correlation factor applies, so that H is not W itself."""
        return self.zeta_r != 0.0 or self.zeta_t != 0.0


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """H is the N x M channel matrix of one seed."""

    H: np.ndarray


def correlation_matrix(dim: int, zeta: float, theta: float = 0.0) -> np.ndarray:
    """Exponential correlation matrix R(i,k) = (zeta e^{j theta})^(k-i), i <= k.

    Hermitian with unit diagonal; requires 0 <= zeta < 1 (zeta = 1 risks a
    singular, non-PSD matrix).
    """
    dim = _count("dim", dim)
    zeta, theta = finite_real("zeta", zeta), finite_real("theta", theta)
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


def correlate_channel(w: np.ndarray, scenario: ChannelScenario, outs=()) -> np.ndarray:
    """The scenario's channel R_r^(1/2) W R_t^(1/2) for a (..., N, M) draw W of unit-variance entries.

    Scenario assembly:

    * uncorrelated:     H = W
    * user_correlated:  H = W R_t^(1/2)
    * bs_correlated:    H = R_r^(1/2) W
    * fully_correlated: H = R_r^(1/2) W R_t^(1/2)

    A scenario's unused correlation factors are zero (ChannelScenario), so
    a factor applies exactly when its zeta is nonzero, and identity factors
    are skipped outright: a zero correlation factor reproduces the
    uncorrelated draw bit for bit, and with no factor the result is w
    itself.  Each product is written by np.matmul into the next of outs, a
    fresh array once outs run out, and w is left as it is unless it is one
    of them.  The first product reads w and the second reads the first, so
    sim's chunk draw passes a spare array and then w itself, once w is
    dead: the products ping-pong between the two and allocate nothing.
    """
    if not isinstance(scenario, ChannelScenario):
        raise ConfigError(f"scenario must be a ChannelScenario, got {scenario!r}")
    n, m = w.shape[-2:]
    outs = iter(outs)
    if scenario.zeta_r != 0.0:
        w = np.matmul(_correlation_sqrt(n, scenario.zeta_r, scenario.theta), w, out=next(outs, None))
    if scenario.zeta_t != 0.0:
        w = np.matmul(w, _correlation_sqrt(m, scenario.zeta_t, scenario.theta), out=next(outs, None))
    return w


def generate_channel(n: int, m: int, scenario: ChannelScenario, rng_seed: int) -> ChannelRealization:
    """Draw one N x M channel matrix for the given scenario, deterministically.

    W is complex_normal(uniform_stream(rng_seed), N M) in row-major order,
    per-entry variance 1, and H = correlate_channel(W, scenario).  rng_seed
    is one integer (see uniform_stream).
    """
    m, n = _count("M", m), _count("N", n)
    if n < m:
        raise ValueError(f"require N >= M >= 1, got N={n}, M={m}")
    w = complex_normal(uniform_stream(rng_seed), n * m).reshape(n, m)
    return ChannelRealization(H=correlate_channel(w, scenario))
