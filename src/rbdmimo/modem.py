"""Gray-mapped square QAM and AWGN injection.

Bit-to-symbol convention (fixed for reproducibility, arbitrary otherwise):
the first half of each symbol's bits drives the in-phase axis and the
second half the quadrature axis.  Within an axis the bit group is read
MSB first as a binary-reflected Gray codeword, with the all-zeros word
mapping to the most negative amplitude level.  Constellations are scaled
to unit average symbol energy.

The modulator and the slicer also take a batch of frames, one frame per
row; awgn_add takes one frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rngstream import _check_variance, _unchecked_complex_normal, uniform_stream

SUPPORTED_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class QamSpec:
    order: int
    bits_per_symbol: int
    scale: float


@lru_cache(maxsize=8)
def qam_spec(order: int) -> QamSpec:
    """Constellation parameters for a supported square order (4, 16, 64)."""
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}, expected one of {SUPPORTED_ORDERS}")
    bits_per_symbol = int(np.log2(order))
    side = 1 << (bits_per_symbol // 2)
    levels = 2 * np.arange(side) - (side - 1)
    scale = 1.0 / np.sqrt(2.0 * np.mean(levels.astype(float) ** 2))
    return QamSpec(order=order, bits_per_symbol=bits_per_symbol, scale=float(scale))


@lru_cache(maxsize=8)
def _axis_tables(order: int):
    """Per-axis lookup tables: Gray codeword <-> level index <-> level."""
    side = int(round(np.sqrt(order)))
    idx = np.arange(side)
    idx_to_gray = idx ^ (idx >> 1)
    gray_to_idx = np.empty(side, dtype=np.int64)
    gray_to_idx[idx_to_gray] = idx
    levels = (2 * idx - (side - 1)).astype(np.float64)
    for t in (idx_to_gray, gray_to_idx, levels):
        t.flags.writeable = False
    return idx_to_gray, gray_to_idx, levels


def qam_modulate(bits, spec: QamSpec) -> np.ndarray:
    """Map {0,1} bits, one block per row, onto unit-energy QAM symbols.

    Bits of a float or any other non-integer type must be exactly 0 or 1:
    a fraction is not truncated.
    """
    bits = np.asarray(bits)
    if bits.dtype.kind not in "biu" and not np.isin(bits, (0, 1)).all():
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    bits = bits.astype(np.int64, copy=False)
    if bits.ndim not in (1, 2):
        raise ValueError(f"expected one bit block or a batch of blocks, got ndim={bits.ndim}")
    if bits.shape[-1] % spec.bits_per_symbol != 0:
        raise ValueError(
            f"bit count {bits.shape[-1]} is not a multiple of bits_per_symbol={spec.bits_per_symbol}"
        )
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    _, gray_to_idx, levels = _axis_tables(spec.order)
    half = spec.bits_per_symbol // 2
    groups = bits.reshape(*bits.shape[:-1], -1, spec.bits_per_symbol)
    weights = 1 << np.arange(half - 1, -1, -1)
    gray_i = groups[..., :half] @ weights
    gray_q = groups[..., half:] @ weights
    return spec.scale * (levels[gray_to_idx[gray_i]] + 1j * levels[gray_to_idx[gray_q]])


def qam_demodulate_hard(symbols, spec: QamSpec) -> np.ndarray:
    """Hard slicing to the nearest constellation point, returning its bits.

    Per-axis threshold slicing; equivalent to full nearest-neighbor search
    over the constellation because the lattice is separable.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim not in (1, 2):
        raise ValueError(f"expected symbols of one frame or a batch of frames, got ndim={symbols.ndim}")
    if not np.isfinite(symbols).all():
        raise ValueError("symbols must be finite to slice, got a nan or inf entry")
    idx_to_gray, _, _ = _axis_tables(spec.order)
    side = idx_to_gray.shape[0]
    half = spec.bits_per_symbol // 2
    shifts = np.arange(half - 1, -1, -1)

    def slice_axis(u):
        i = np.clip(np.rint((u / spec.scale + (side - 1)) / 2.0), 0, side - 1).astype(np.int64)
        return (idx_to_gray[i][..., None] >> shifts) & 1

    bits = np.empty((*symbols.shape, spec.bits_per_symbol), dtype=np.int64)
    bits[..., :half] = slice_axis(symbols.real)
    bits[..., half:] = slice_axis(symbols.imag)
    return bits.reshape(*symbols.shape[:-1], -1)


def awgn_add(x, sigma2: float, rng_seed: int) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of per-entry variance sigma2 to one frame.

    x is 1-D and the noise is complex_normal(uniform_stream(rng_seed),
    x.size, sigma2); rng_seed is one integer (see uniform_stream).
    """
    if isinstance(sigma2, (bool, np.bool_)) or np.ndim(sigma2):
        raise ValueError(f"sigma2 must be one real number, got {sigma2!r}")
    _check_variance(sigma2, name="sigma2")
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected one frame, got ndim={x.ndim}")
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite values")
    return x + _unchecked_complex_normal(uniform_stream(rng_seed), x.size, sigma2)
