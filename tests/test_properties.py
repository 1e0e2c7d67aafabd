"""Property tests of the detector invariants, the modem round trip and the
frame-chunk schedule of a BER point.

Examples come from the deterministic hypothesis profile in conftest.py.
"""

import functools

import numpy as np
import pytest
from conftest import assert_same_result, make_problem, stack_problems
from hypothesis import given
from hypothesis import strategies as st

from rbdmimo.detectors import MmseProblem, cr_detect, exact_detect, gmres_detect, minres_detect
from rbdmimo.modem import SUPPORTED_ORDERS, qam_demodulate_hard, qam_modulate, qam_spec
from rbdmimo.rngstream import uniform_stream
import rbdmimo.sim as sim

DETECTORS = {"minres": minres_detect, "cr": cr_detect, "gmres": gmres_detect}

# one random detection problem: M users, N = M x factor antennas, noise level, seed
problems = st.builds(
    lambda m, factor, sigma2, seed: make_problem(m, seed, n=m * factor, sigma2=sigma2),
    m=st.integers(2, 16),
    factor=st.integers(2, 16),
    sigma2=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32),
)


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@given(problems)
def test_full_depth_krylov_matches_exact(prob):
    # acceptance criterion 1's bound, scaled by cond(A) as the benchmark's oracle check is
    want = exact_detect(prob).s_hat
    tol = 1e-8 * np.linalg.cond(prob.A)
    assert relative_error(cr_detect(prob, prob.M).s_hat, want) <= tol
    assert relative_error(gmres_detect(prob, prob.M).s_hat, want) <= tol


@given(problems, st.integers(1, 12))
def test_residual_traces_never_increase(prob, k):
    for detect in (minres_detect, cr_detect):
        r = detect(prob, k).trace.residual_norms
        assert all(b <= a * (1 + 1e-12) for a, b in zip(r, r[1:]))


@given(problems)
def test_rotated_gmres_residual_equals_explicit(prob):
    # the first j steps of a full run are the whole of a j-step run, so trace
    # entry j is the rotated residual of the j-step iterate
    full = gmres_detect(prob, prob.M)
    scale = np.linalg.norm(prob.y_mf)
    for j in range(1, full.iterations + 1):
        s = gmres_detect(prob, j).s_hat
        explicit = np.linalg.norm(prob.y_mf - prob.A @ s)
        assert abs(full.trace.residual_norms[j] - explicit) <= 1e-9 * scale


def toy_frame(kind: int, m: int, seed: int) -> MmseProblem:
    """A frame that runs to the end (kind 0), breaks down or stops early after
    about `kind` steps (A with `kind` distinct eigenvalues), or stops at 0 (kind 4,
    zero right-hand side)."""
    gen = uniform_stream(seed)
    q, _ = np.linalg.qr(gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m)))
    eig = gen.uniform(0.2, 3.0, m) if kind in (0, 4) else gen.choice(gen.uniform(0.2, 3.0, kind), m)
    a = (q * eig) @ q.conj().T
    y = gen.standard_normal(m) + 1j * gen.standard_normal(m)
    return MmseProblem(A=(a + a.conj().T) / 2, y_mf=0.0 * y if kind == 4 else y)


@given(
    st.sampled_from(sorted(DETECTORS)),
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2**32)), min_size=1, max_size=6),
    st.integers(1, 8),
)
def test_batch_frames_equal_single_calls(name, m, kinds, k):
    detect = DETECTORS[name]
    frames = [toy_frame(kind, m, seed) for kind, seed in kinds]
    batch = detect(stack_problems(frames), k)
    for i, frame in enumerate(frames):
        assert_same_result(batch.frame(i), detect(frame, k))


@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32))
def test_modulate_then_demap_returns_bits(order, frames, symbols, seed):
    spec = qam_spec(order)
    bits = uniform_stream(seed).integers(0, 2, size=(frames, symbols * spec.bits_per_symbol))
    assert np.array_equal(qam_demodulate_hard(qam_modulate(bits, spec), spec), bits)
    assert np.array_equal(qam_demodulate_hard(qam_modulate(bits[0], spec), spec), bits[0])


# one error-target point (0 dB) and one bit-budget point (12 dB) of 100 frames
SCHEDULE_CONFIG = sim.SimConfig(
    n=16, m=4, qam_order=16, detector="cr", k_iterations=2, snr_db_list=(0.0, 12.0),
    target_bit_errors=100, max_bits=100 * 16, master_seed=5,
)


def sweep_with_schedule(first: int, cap: int) -> sim.SweepResult:
    """run_sweep with a first chunk of `first` frames and a cap of `cap` frames."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "FIRST_CHUNK_FRAMES", first)
        patch.setattr(sim, "CHUNK_ENTRIES", cap * SCHEDULE_CONFIG.n * SCHEDULE_CONFIG.m)
        return sim.run_sweep(SCHEDULE_CONFIG)


@functools.cache
def frame_by_frame_sweep() -> sim.SweepResult:
    return sweep_with_schedule(1, 1)


@given(st.integers(1, 70), st.integers(1, 70))
def test_ber_points_independent_of_chunk_schedule(first, cap):
    assert sweep_with_schedule(first, cap) == frame_by_frame_sweep()
