"""Tests for the seed mixer and the draws: ints and integer arrays give the
same seeds, a public draw takes one integer seed, and a row of a chunk is
what a fresh stream gives alone."""

import numpy as np
import pytest
from conftest import fail_thread_starts, run_in_threads
from hypothesis import given
from hypothesis import strategies as st

import rbdmimo.rngstream as rngstream
from rbdmimo.channel import ChannelScenario, generate_channel
from rbdmimo.detectors import preprocess
from rbdmimo.modem import awgn_add
from rbdmimo.rngstream import (
    complex_normal,
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


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "1", None])
def test_non_integer_component_rejected(seed):
    # neither truncated nor taken as 1
    with pytest.raises(TypeError, match="seed must be an integer"):
        mix_seed(seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        mix_seed(5, seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        seed_array([2, seed])


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=1, max_size=8),
       st.integers(min_value=-(2**70), max_value=2**70))
def test_array_matches_scalar(components, master):
    got = mix_seed(master, seed_array(components), 2)
    assert [int(x) for x in got] == [mix_seed(master, c, 2) for c in components]


SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, mix_seed(5, 7)]


@pytest.mark.parametrize("seed", [[5, 7], np.array([5, 7], dtype=np.uint64), 5.0, 1.5, True, np.bool_(True)],
                         ids=["list", "uint64-array", "float", "fraction", "bool", "numpy-bool"])
def test_stream_takes_one_integer_seed(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        uniform_stream(seed)


def test_numpy_integer_seeds_key_as_ints():
    # every integer seed is taken modulo 2**64, whatever its type
    for seed, same in ((np.uint64(2**64 - 1), -1), (np.int64(-1), 2**64 - 1), (2**64 + 5, np.uint8(5))):
        assert uniform_stream(seed).random(4).tolist() == uniform_stream(same).random(4).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 48, 96, 1000])
def test_bits_from_raw_words_equal_integers(n):
    rows = uniform_bits_rows(SEEDS, n)
    assert rows.shape == (len(SEEDS), n) and rows.dtype == np.int64
    for row, seed in zip(rows, SEEDS):
        assert np.array_equal(row, uniform_stream(seed).integers(0, 2, n))


def test_empty_bit_rows():
    assert uniform_bits_rows([], 5).shape == (0, 5)
    assert uniform_bits_rows(SEEDS, 0).shape == (len(SEEDS), 0)


def public_draws(groups):
    """Per group, the list of complex_normal(uniform_stream(seed), n, variance) over its seeds."""
    return [[complex_normal(uniform_stream(seed), n, variance) for seed in seeds] for seeds, n, variance in groups]


def assert_rows_equal(got, want):
    for rows, ones in zip(got, want):
        assert len(rows) == len(ones)
        for row, one in zip(rows, ones):
            assert np.array_equal(row, one)


@pytest.mark.parametrize("threads_fail", [True, False])
@pytest.mark.parametrize("n", [1, 5, 1024])
def test_complex_normal_rows_match_single_streams(monkeypatch, threads_fail, n):
    # each row of a chunk is its own stream's draw, also where no thread can start
    want = public_draws([(SEEDS, n, 0.3)])
    if threads_fail:
        fail_thread_starts(monkeypatch)
    got = rngstream._chunk_normals([(SEEDS, n, 0.3)])
    assert_rows_equal(got, want)


@pytest.mark.parametrize("threads_fail", [True, False])
def test_groups_share_one_session(monkeypatch, threads_fail):
    # each row of each group of a chunk is its own stream's draw, at its group's
    # variance, also where no thread can start
    groups = [(SEEDS, 24, 1.0), (SEEDS[::-1], 3, 0.25), (SEEDS[:2], 0, 2.0)]
    want = public_draws(groups)
    if threads_fail:
        fail_thread_starts(monkeypatch)
    got = rngstream._chunk_normals(groups)
    assert len(got) == len(want)
    assert_rows_equal(got, want)


def test_threads_draw_their_own_rows():
    # two threads reset and read the per-thread generator row by row at the same
    # time; a shared generator would hand one thread the other's stream
    n, rounds = 64, 200
    seeds = {0: [mix_seed(1, i) for i in range(3)], 1: [mix_seed(2, i) for i in range(3)]}
    want = {t: [complex_normal(uniform_stream(seed), n) for seed in s] for t, s in seeds.items()}
    bad, done = {0: 0, 1: 0}, {0: 0, 1: 0}

    def draw(t):
        for _ in range(rounds):
            rows, = rngstream._chunk_normals([(seeds[t], n, 1.0)])
            bad[t] += sum(not np.array_equal(row, one) for row, one in zip(rows, want[t]))
            done[t] += 1

    run_in_threads(lambda: draw(0), lambda: draw(1), switch_interval=1e-6)
    assert done == {0: rounds, 1: rounds} and bad == {0: 0, 1: 0}


@pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf"), -float("inf"), True,
                                      pytest.param("0.5", id="str"), pytest.param(b"0.5", id="bytes")])
def test_bad_variance_rejected_before_any_draw(variance):
    gen = uniform_stream(3)
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        complex_normal(gen, 3, variance)
    assert gen.random() == uniform_stream(3).random()  # nothing was drawn
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        rngstream._chunk_normals([(SEEDS, 4, 1.0), (SEEDS, 2, variance)])


@pytest.mark.parametrize("threads_fail", [True, False])
def test_per_row_variances_match_single_streams(monkeypatch, threads_fail):
    # a packed chunk's noise has one variance per row (frames of several SNRs);
    # each row is what a fresh stream gives alone at that row's variance, also
    # where no thread can start
    if threads_fail:
        fail_thread_starts(monkeypatch)
    variances = [0.3, 2.0, 2.0, 0.0, 1e-3, 0.3]
    w, noise = rngstream._chunk_normals([(SEEDS, 24, 1.0), (SEEDS[::-1], 128, np.array(variances))])
    assert_rows_equal([w], public_draws([(SEEDS, 24, 1.0)]))
    for seed, variance, row in zip(SEEDS[::-1], variances, noise):
        assert np.array_equal(row, complex_normal(uniform_stream(seed), 128, variance))


@pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf")])
def test_bad_per_row_variance_rejected_before_any_draw(monkeypatch, variance):
    variances = np.full(len(SEEDS), 0.5)
    variances[2] = variance
    monkeypatch.setattr(rngstream, "_fill_rows", lambda *args, **kwargs: pytest.fail("a row was drawn"))
    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        rngstream._chunk_normals([(SEEDS, 4, 1.0), (SEEDS, 2, variances)])
    with pytest.raises(ValueError, match="one per row"):
        rngstream._chunk_normals([(SEEDS, 4, 1.0), (SEEDS, 2, np.full(len(SEEDS) - 1, 0.5))])


def test_public_draws_are_fresh_arrays():
    # each public draw, and preprocess, returns its own memory: later draws and
    # preprocessing of any size, in or out of the chunk buffer, leave it as it was
    h = generate_channel(32, 4, ChannelScenario(), SEEDS[0]).H
    y = awgn_add(np.matvec(h, np.ones(4)), 0.5, SEEDS[1])
    prob = preprocess(h, y, 0.5)
    draws = [
        complex_normal(uniform_stream(4), 1024, 0.5),
        complex_normal(uniform_stream(5), 3, 0.25),
        h, y, prob.A, prob.y_mf,
    ]
    kept = [d.copy() for d in draws]
    for n in (4, 2048, 5):
        complex_normal(uniform_stream(6), n)
        w, noise = rngstream._chunk_normals([(SEEDS, n * 4, 1.0), (SEEDS, n, 2.0)])
        preprocess(w.reshape(len(SEEDS), n, 4), noise, 0.5)
    for draw, copy in zip(draws, kept):
        assert np.array_equal(draw, copy)
        assert not np.shares_memory(draw, rngstream._thread.chunk)
    # nor do the public draws and preprocess give a thread a chunk buffer or a
    # generator of its own
    per_thread = []

    def draw_and_preprocess():
        h = generate_channel(32, 4, ChannelScenario(), SEEDS[0]).H
        preprocess(h, awgn_add(np.matvec(h, np.ones(4)), 0.5, SEEDS[1]), 0.5)
        complex_normal(uniform_stream(4), 100)
        per_thread.append([hasattr(rngstream._thread, name) for name in ("chunk", "philox")])

    run_in_threads(draw_and_preprocess)
    assert per_thread == [[False, False]]


def test_workspace_draws_equal_public_draws():
    # the chunk buffer's draws are views of it, with the public draws' values
    groups = [(SEEDS, 24, 1.0), (SEEDS[::-1], 3, 0.25), (SEEDS[:2], 0, 2.0)]
    want = public_draws(groups)
    got = rngstream._chunk_normals(groups)
    assert all(np.shares_memory(rows, rngstream._thread.chunk) for rows in got if rows.size)
    assert_rows_equal(got, want)
