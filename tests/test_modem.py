"""Tests for the Gray-mapped QAM modem and AWGN injection."""

import numpy as np
import pytest

import rbdmimo.modem as modem
import rbdmimo.rngstream as rngstream
from rbdmimo.modem import awgn_add, qam_demodulate_hard, qam_modulate, qam_spec
from rbdmimo.rngstream import uniform_stream


def all_bit_patterns(bits_per_symbol):
    n = 1 << bits_per_symbol
    out = np.zeros((n, bits_per_symbol), dtype=np.int64)
    for i in range(n):
        for j in range(bits_per_symbol):
            out[i, j] = (i >> (bits_per_symbol - 1 - j)) & 1
    return out


def constellation(order):
    spec = qam_spec(order)
    patterns = all_bit_patterns(spec.bits_per_symbol)
    return spec, patterns, qam_modulate(patterns.reshape(-1), spec)


def test_scales():
    assert qam_spec(4).scale == pytest.approx(1 / np.sqrt(2))
    assert qam_spec(16).scale == pytest.approx(1 / np.sqrt(10))
    assert qam_spec(64).scale == pytest.approx(1 / np.sqrt(42))


def test_unsupported_order():
    with pytest.raises(ValueError):
        qam_spec(32)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_unit_average_energy(order):
    # per-axis level energies sum to order/2 * (scale^-2 / ... ) by construction;
    # enumerating every point is the direct check
    _, _, points = constellation(order)
    assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12


def test_qpsk_convention_value():
    # convention table: 1 bit per axis, Gray word 0 -> most negative level
    spec = qam_spec(4)
    assert qam_modulate(np.array([0, 0]), spec)[0] == pytest.approx((-1 - 1j) / np.sqrt(2))
    assert qam_modulate(np.array([1, 1]), spec)[0] == pytest.approx((1 + 1j) / np.sqrt(2))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_roundtrip_all_patterns(order):
    spec, patterns, points = constellation(order)
    back = qam_demodulate_hard(points, spec)
    assert np.array_equal(back, patterns.reshape(-1))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gray_property(order):
    # horizontally or vertically adjacent points differ in exactly one bit
    spec, patterns, points = constellation(order)
    labels = {
        (round(p.real / spec.scale), round(p.imag / spec.scale)): patterns[i]
        for i, p in enumerate(points)
    }
    side = 1 << (spec.bits_per_symbol // 2)
    levels = [2 * i - (side - 1) for i in range(side)]
    for re in levels:
        for im in levels:
            for nre, nim in ((re + 2, im), (re, im + 2)):
                if (nre, nim) in labels:
                    dist = int(np.sum(labels[(re, im)] != labels[(nre, nim)]))
                    assert dist == 1


@pytest.mark.parametrize("order", [4, 16, 64])
def test_small_perturbation_is_transparent(order):
    spec, patterns, points = constellation(order)
    gen = uniform_stream(300 + order)
    half_min_dist = spec.scale  # lattice spacing is 2*scale
    for _ in range(20):
        jitter = (gen.standard_normal(points.size) + 1j * gen.standard_normal(points.size))
        jitter *= 0.9 * half_min_dist / np.abs(jitter).max() / np.sqrt(2)
        noisy = points + jitter * 0.5
        assert np.array_equal(qam_demodulate_hard(noisy, spec), patterns.reshape(-1))


@pytest.mark.parametrize("order", [4, 16, 64])
def test_slicing_matches_exhaustive_search(order):
    spec, patterns, points = constellation(order)
    gen = uniform_stream(400 + order)
    symbols = 2.5 * (gen.standard_normal(10_000) + 1j * gen.standard_normal(10_000)) * spec.scale
    got = qam_demodulate_hard(symbols, spec).reshape(-1, spec.bits_per_symbol)
    nearest = np.argmin(np.abs(symbols[:, None] - points[None, :]), axis=1)
    want = patterns[nearest]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_batch_rows_match_single_blocks(order):
    spec = qam_spec(order)
    bits = uniform_stream(500 + order).integers(0, 2, size=(5, 3 * spec.bits_per_symbol))
    symbols = qam_modulate(bits, spec)
    assert symbols.shape == (5, 3)
    for row, got in zip(bits, symbols):
        assert np.array_equal(got, qam_modulate(row, spec))
    assert np.array_equal(qam_demodulate_hard(symbols, spec), bits)


def test_bit_count_validation():
    with pytest.raises(ValueError):
        qam_modulate(np.array([0, 1, 0]), qam_spec(16))


def test_fractional_bits_rejected():
    # 0.9 was truncated to 0; float bits that are exactly 0 or 1 map as ints do
    spec = qam_spec(16)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        qam_modulate(np.array([0.9, 1, 0, 1]), spec)
    assert np.array_equal(qam_modulate(np.array([1.0, 1, 0, 1]), spec), qam_modulate([1, 1, 0, 1], spec))


@pytest.mark.parametrize("bad", [np.nan + 0j, complex(0.0, np.inf), complex(-np.inf, 1.0)], ids=["nan", "inf", "-inf"])
def test_non_finite_symbols_rejected(bad):
    # a named error, not a cast warning and an out-of-range index
    for symbols in (np.array([bad, 1 + 1j]), np.array([[0j, 0j], [0j, bad]])):
        with pytest.raises(ValueError, match="symbols must be finite"):
            qam_demodulate_hard(symbols, qam_spec(4))


class TestAwgn:
    def test_zero_variance_exact(self):
        x = np.array([1.0 + 2j, -3.5j, 0.25])
        assert np.array_equal(awgn_add(x, 0.0, 42), x)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn_add(np.zeros(2, dtype=complex), -1.0, 0)

    def test_rejects_non_finite(self):
        x = np.zeros(4, dtype=complex)
        for sigma2 in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
                awgn_add(x, sigma2, 0)
        for bad in (np.inf, np.nan, complex(0, np.inf)):
            y = x.copy()
            y[2] = bad
            with pytest.raises(ValueError, match="x contains non-finite"):
                awgn_add(y, 1.0, 0)

    @pytest.mark.parametrize("sigma2", [True, np.array([0.1, 0.2])], ids=["bool", "array"])
    def test_sigma2_is_one_real_number(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be one real number, got "):
            awgn_add(np.zeros(4, dtype=complex), sigma2, 1)

    def test_variance_checked_once(self, monkeypatch):
        # awgn_add checks sigma2 itself, so its draw must not check it again
        check, calls = rngstream._check_variance, []

        def counted(*args, **kw):
            calls.append(args)
            check(*args, **kw)

        monkeypatch.setattr(modem, "_check_variance", counted)
        monkeypatch.setattr(rngstream, "_check_variance", counted)
        awgn_add(np.zeros(4, dtype=complex), 0.5, 3)
        assert len(calls) == 1

    def test_one_frame(self):
        with pytest.raises(ValueError, match="expected one frame, got ndim=2"):
            awgn_add(np.zeros((3, 4), dtype=complex), 0.5, 5)

    @pytest.mark.parametrize("seed", [[5, 7, 9], np.array([5, 7, 9], dtype=np.uint64), 5.0, True],
                             ids=["list", "uint64-array", "float", "bool"])
    def test_one_integer_seed(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            awgn_add(np.zeros(3, dtype=complex), 0.5, seed)

    def test_deterministic(self):
        x = np.zeros(16, dtype=complex)
        assert np.array_equal(awgn_add(x, 1.0, 5), awgn_add(x, 1.0, 5))

    def test_moments(self):
        n = awgn_add(np.zeros(1_000_000, dtype=complex), 2.0, 314159)
        var = np.mean(np.abs(n) ** 2)
        assert 1.99 <= var <= 2.01
        assert abs(n.real.mean()) < 0.005 and abs(n.imag.mean()) < 0.005
