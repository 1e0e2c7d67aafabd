"""Tests for the seed mixer and the row draws: ints and integer arrays give
the same seeds, and a row of a chunk is what a fresh stream gives alone."""

import sys
import threading

import numpy as np
import pytest
from conftest import RecordingThread
from hypothesis import given
from hypothesis import strategies as st

import rbdmimo.rngstream as rngstream
from rbdmimo.channel import ChannelScenario, generate_channel
from rbdmimo.detectors import preprocess
from rbdmimo.modem import awgn_add
from rbdmimo.rngstream import (
    complex_normal,
    complex_normal_rows,
    mix_seed,
    seed_array,
    splitmix64,
    uniform_bits_rows,
    uniform_stream,
)

EDGE_COMPONENTS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, -1, -(2**63), 2**64, 2**64 + 5, 2**70 + 3]


def test_splitmix64_reference_value():
    # first output of the reference splitmix64 generator seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_int_components_wrap_modulo_2_64():
    assert mix_seed(-1, 7) == mix_seed(2**64 - 1, 7)
    assert mix_seed(2**64 + 5, 7) == mix_seed(5, 7)
    assert type(mix_seed(3, 4)) is int


@pytest.mark.parametrize("component", EDGE_COMPONENTS)
def test_array_matches_scalar_at_edges(component):
    arr = seed_array([component, 9])
    assert arr.dtype == np.uint64
    assert [int(x) for x in mix_seed(arr, 4)] == [mix_seed(component, 4), mix_seed(9, 4)]
    assert [int(x) for x in mix_seed(4, arr)] == [mix_seed(4, component), mix_seed(4, 9)]


def test_signed_arrays_wrap_like_ints():
    signed = np.array([-1, -(2**63), 0, 5], dtype=np.int64)
    assert [int(x) for x in mix_seed(11, signed)] == [mix_seed(11, int(c)) for c in signed]


def test_components_broadcast():
    trials = seed_array([mix_seed(1, t) for t in range(5)])
    sub = mix_seed(trials[:, None], np.arange(3))
    assert sub.shape == (5, 3)
    assert all(int(sub[i, k]) == mix_seed(int(t), k) for i, t in enumerate(trials) for k in range(3))


def test_non_integer_array_rejected():
    with pytest.raises(TypeError, match="integers"):
        mix_seed(np.array([1.5]))


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=1, max_size=8),
       st.integers(min_value=-(2**70), max_value=2**70))
def test_array_matches_scalar(components, master):
    got = mix_seed(master, seed_array(components), 2)
    assert [int(x) for x in got] == [mix_seed(master, c, 2) for c in components]


SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, mix_seed(5, 7)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 48, 96, 1000])
def test_bits_from_raw_words_equal_integers(n):
    rows = uniform_bits_rows(SEEDS, n)
    assert rows.shape == (len(SEEDS), n) and rows.dtype == np.int64
    for row, seed in zip(rows, SEEDS):
        assert np.array_equal(row, uniform_stream(seed).integers(0, 2, n))


def test_empty_bit_rows():
    assert uniform_bits_rows([], 5).shape == (0, 5)
    assert uniform_bits_rows(SEEDS, 0).shape == (len(SEEDS), 0)


@pytest.mark.parametrize("helper", [True, False])
@pytest.mark.parametrize("n", [1, 5, 1024])
def test_complex_normal_rows_match_single_streams(monkeypatch, helper, n):
    # the chunk's Box-Muller runs with the helper thread forced on or off,
    # whatever the array size and CPU count; one row alone never uses it here
    want = [complex_normal(uniform_stream(seed), n, variance=0.3) for seed in SEEDS]
    monkeypatch.setattr(rngstream, "_helper_runs", lambda size: helper)
    monkeypatch.setattr(rngstream.threading, "Thread", RecordingThread)
    RecordingThread.started = 0
    rows = complex_normal_rows(SEEDS, n, variance=0.3)
    assert RecordingThread.started == int(helper)
    for row, one in zip(rows, want):
        assert np.array_equal(row, one)


@pytest.mark.parametrize("cpus, processes", [(1, 1), (2, 1), (2, 2), (64, 2)])
def test_helper_runs_from_threshold_on_a_spare_cpu(monkeypatch, cpus, processes):
    # a serial process (one drawing process) needs two CPUs, a pool of two workers three
    monkeypatch.setattr(rngstream, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(rngstream, "_drawing_processes", 1)  # restored after the test
    rngstream._share_cpus(processes)
    assert not rngstream._helper_runs(rngstream.TRIG_THREAD_ENTRIES - 1)
    assert rngstream._helper_runs(rngstream.TRIG_THREAD_ENTRIES) == (cpus > processes)


@pytest.mark.parametrize("helper", [True, False])
def test_groups_share_one_session(monkeypatch, helper):
    # each group of a chunk's session is its own complex_normal_rows draw, at its own variance
    groups = [(SEEDS, 24, 1.0), (SEEDS[::-1], 3, 0.25), (SEEDS[:2], 0, 2.0)]
    want = [complex_normal_rows(seeds, n, variance) for seeds, n, variance in groups]
    monkeypatch.setattr(rngstream, "_helper_runs", lambda size: helper)
    monkeypatch.setattr(rngstream.threading, "Thread", RecordingThread)
    RecordingThread.started = 0
    got = rngstream._chunk_normals(groups)
    assert RecordingThread.started == int(helper)
    assert len(got) == len(want)
    for rows, one in zip(got, want):
        assert np.array_equal(rows, one)


def test_helper_threshold_counts_the_whole_session(monkeypatch):
    # two groups that each fall short of the threshold reach it together
    monkeypatch.setattr(rngstream, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(rngstream, "_drawing_processes", 1)
    monkeypatch.setattr(rngstream.threading, "Thread", RecordingThread)
    half = rngstream.TRIG_THREAD_ENTRIES // 2
    for sizes, starts in (((half, half - 1), 0), ((half, half), 1)):
        RecordingThread.started = 0
        rngstream._chunk_normals([([1], sizes[0], 1.0), ([2], sizes[1], 0.5)])
        assert RecordingThread.started == starts


def test_threads_draw_their_own_rows():
    # two threads reset and read the per-thread generator row by row at the same
    # time; a shared generator would hand one thread the other's stream
    n, rounds = 64, 200
    seeds = {0: [mix_seed(1, i) for i in range(3)], 1: [mix_seed(2, i) for i in range(3)]}
    want = {t: [complex_normal(uniform_stream(seed), n) for seed in s] for t, s in seeds.items()}
    bad, done = {0: 0, 1: 0}, {0: 0, 1: 0}

    def draw(t):
        for _ in range(rounds):
            rows = complex_normal_rows(seeds[t], n)
            bad[t] += sum(not np.array_equal(row, one) for row, one in zip(rows, want[t]))
            done[t] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(t,)) for t in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == {0: rounds, 1: rounds} and bad == {0: 0, 1: 0}


@pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf"), -float("inf")])
def test_bad_variance_rejected_before_any_draw(variance):
    gen = uniform_stream(3)
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        complex_normal(gen, 3, variance)
    assert gen.random() == uniform_stream(3).random()  # nothing was drawn
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        rngstream._chunk_normals([(SEEDS, 4, 1.0), (SEEDS, 2, variance)])
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        complex_normal_rows(SEEDS, 4, variance)


def test_public_draws_are_fresh_arrays():
    # each public draw, and preprocess, returns its own memory: later draws and
    # preprocessing of any size, in or out of the chunk buffer, leave it as it was
    h = generate_channel(32, 4, ChannelScenario(), SEEDS).H
    y = awgn_add(np.matvec(h, np.ones(4)), 0.5, SEEDS)
    prob = preprocess(h, y, 0.5)
    draws = [
        complex_normal_rows(SEEDS, 1024, 0.5),
        complex_normal_rows(SEEDS[:2], 3, 0.25),
        complex_normal(uniform_stream(4), 100),
        h, y, prob.A, prob.y_mf,
    ]
    kept = [d.copy() for d in draws]
    for n in (4, 2048, 5):
        complex_normal_rows(SEEDS, n)
        w, noise = rngstream._chunk_normals([(SEEDS, n * 4, 1.0), (SEEDS, n, 2.0)])
        preprocess(w.reshape(len(SEEDS), n, 4), noise, 0.5)
    for draw, copy in zip(draws, kept):
        assert np.array_equal(draw, copy)
        assert not np.shares_memory(draw, rngstream._thread.chunk)
    # nor do the public draws and preprocess give a thread a chunk buffer of its own
    has_buffer = []

    def draw_and_preprocess():
        h = generate_channel(32, 4, ChannelScenario(), SEEDS).H
        preprocess(h, awgn_add(np.matvec(h, np.ones(4)), 0.5, SEEDS), 0.5)
        complex_normal(uniform_stream(4), 100)
        has_buffer.append(hasattr(rngstream._thread, "chunk"))

    thread = threading.Thread(target=draw_and_preprocess)
    thread.start()
    thread.join(timeout=60)
    assert has_buffer == [False]


def test_workspace_draws_equal_public_draws():
    # the chunk buffer's draws are views of it, with the public draws' values
    groups = [(SEEDS, 24, 1.0), (SEEDS[::-1], 3, 0.25), (SEEDS[:2], 0, 2.0)]
    want = [complex_normal_rows(seeds, n, variance) for seeds, n, variance in groups]
    got = rngstream._chunk_normals(groups)
    assert all(np.shares_memory(rows, rngstream._thread.chunk) for rows in got if rows.size)
    for rows, one in zip(got, want):
        assert np.array_equal(rows, one)
