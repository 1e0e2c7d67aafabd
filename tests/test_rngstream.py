"""Tests for the seed mixer and the row draws: ints and integer arrays give
the same seeds, and a row of a chunk is what a fresh stream gives alone."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rbdmimo.rngstream as rngstream
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


class RecordingThread(threading.Thread):
    started = 0

    def start(self):
        RecordingThread.started += 1
        super().start()


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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs the CPU affinity of the process")
def test_helper_runs_from_threshold_on_more_than_one_cpu():
    assert not rngstream._helper_runs(rngstream.TRIG_THREAD_ENTRIES - 1)
    assert rngstream._helper_runs(rngstream.TRIG_THREAD_ENTRIES) == (len(os.sched_getaffinity(0)) > 1)


def test_disabled_helper_never_runs(monkeypatch):
    monkeypatch.setattr(rngstream, "_helper_allowed", True)  # restored after the test
    rngstream._disable_helper()
    assert not rngstream._helper_runs(2**30)
