"""Tests for the Monte-Carlo harness: trials, points, sweeps, persistence."""

import math
import multiprocessing
import os
import re
import sys
import threading

import numpy as np
import pytest
from conftest import RecordingThread, blas_threads

from rbdmimo.channel import ChannelScenario, generate_channel
from rbdmimo.detectors import exact_detect, preprocess
from rbdmimo.modem import awgn_add, qam_demodulate_hard, qam_modulate, qam_spec
import rbdmimo.rngstream as rngstream
from rbdmimo.rngstream import mix_seed, uniform_stream
import rbdmimo.sim as sim
from rbdmimo.sim import (
    FLAG_BELOW_RESOLUTION,
    FLAG_OK,
    BerPoint,
    ConfigError,
    SimConfig,
    SweepResult,
    apply_overrides,
    config_as_dict,
    config_from_dict,
    draw_frames,
    frame_errors,
    interpolate_snr_at_ber,
    read_results,
    run_ber_point,
    run_sweep,
    run_sweeps,
    run_trial,
    snr_gap,
    snr_to_sigma2,
    write_plot_data,
    write_results,
)


def small_config(**kwargs):
    base = dict(
        n=16, m=4, qam_order=16, detector="cr", k_iterations=4,
        snr_db_list=(0.0, 4.0, 8.0), target_bit_errors=100,
        max_bits=40_000, master_seed=11,
    )
    base.update(kwargs)
    return SimConfig(**base)


class TestSnrConversion:
    def test_reference_values(self):
        assert snr_to_sigma2(0.0, 8) == pytest.approx(8.0)
        assert snr_to_sigma2(10.0, 16) == pytest.approx(1.6)

    def test_monotone_to_zero(self):
        values = [snr_to_sigma2(s, 4) for s in range(-10, 60, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4

    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 1e5, -1e5, 4000.0])
    def test_no_finite_variance_rejected(self, snr_db):
        with pytest.raises(ValueError, match=f"snr_db {snr_db} dB gives no finite noise variance sigma2 > 0"):
            snr_to_sigma2(snr_db, 4)

    @pytest.mark.parametrize("m", [2.5, 4.0, True, np.bool_(True), "4", 0])
    def test_m_must_be_a_positive_integer(self, m):
        # 2.5 gave sigma2 = 2.5 and True gave 1.0
        with pytest.raises(ValueError, match=re.escape(f"require integer M >= 1, got M={m!r}")):
            snr_to_sigma2(0.0, m)

    @pytest.mark.parametrize("snr_db", [True, "0", None])
    def test_snr_must_be_a_number(self, snr_db):
        # True was read as 1 dB, and "0" failed inside the division with a TypeError
        with pytest.raises(ConfigError, match=re.escape(f"snr_db must be a real number, got {snr_db!r}")):
            snr_to_sigma2(snr_db, 4)


class TestConfigValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            small_config(n=2)

    def test_rejects_unknown_detector(self):
        with pytest.raises(ConfigError):
            small_config(detector="zf")

    def test_rejects_unsorted_snrs(self):
        with pytest.raises(ConfigError):
            small_config(snr_db_list=(4.0, 0.0))

    def test_rejects_unsupported_qam_order(self):
        with pytest.raises(ConfigError, match=r"\(4, 16, 64\)"):
            small_config(qam_order=32)

    def test_rejects_low_error_target(self):
        with pytest.raises(ConfigError):
            small_config(target_bit_errors=50)

    def test_unknown_key_rejected(self):
        raw = config_as_dict(small_config())
        raw["bandwidth"] = 20
        with pytest.raises(ConfigError, match="bandwidth"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key,value", [
        ("n", 16.9), ("m", True), ("k_iterations", 2.5), ("master_seed", 1.5), ("max_bits", 4000.7),
        ("snr_db_list", [math.nan]), ("snr_db_list", [math.inf]), ("snr_db_list", "5"),
        ("snr_db_list", [4000.0]), ("snr_db_list", [-4000.0]),
        ("scenario.theta_rad", math.nan), ("scenario.theta_rad", "x"),
    ])
    def test_inexact_integers_rejected(self, key, value):
        # SimConfig(...), config_from_dict and apply_overrides reject the value alike
        raw = config_as_dict(small_config())
        if key.startswith("scenario."):
            raw["scenario"][key.split(".")[1]] = value
            name = "theta"
            direct = lambda: small_config(scenario=ChannelScenario(theta=value))  # noqa: E731
        else:
            raw[key] = value
            name = key
            direct = lambda: small_config(**{key: value})  # noqa: E731
        for build in (direct, lambda: config_from_dict(raw), lambda: apply_overrides(small_config(), {key: value})):
            with pytest.raises(ConfigError, match=name):
                build()

    @pytest.mark.parametrize("seed", [-1, -(2**64) + 5, 2**64, 2**64 + 5])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        # mix_seed takes seeds modulo 2**64, so each of these would alias a seed in range
        raw = config_as_dict(small_config())
        raw["master_seed"] = seed
        for build in (
            lambda: small_config(master_seed=seed),
            lambda: config_from_dict(raw),
            lambda: apply_overrides(small_config(), {"master_seed": seed}),
        ):
            with pytest.raises(ConfigError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
                build()

    def test_master_seed_range_ends_accepted(self):
        assert small_config(master_seed=0).master_seed == 0
        assert apply_overrides(small_config(), {"master_seed": 2**64 - 1}).master_seed == 2**64 - 1

    def test_integral_float_accepted(self):
        raw = config_as_dict(small_config())
        raw["n"] = 16.0
        assert config_from_dict(raw) == small_config()

    def test_numpy_integer_accepted(self):
        for cfg in (
            small_config(n=np.int64(16), master_seed=np.uint64(11)),
            apply_overrides(small_config(), {"n": np.int32(16), "max_bits": np.int64(40_000)}),
        ):
            assert cfg == small_config()
            assert type(cfg.n) is int and type(cfg.master_seed) is int and type(cfg.max_bits) is int

    def test_dict_roundtrip(self):
        cfg = small_config()
        assert config_from_dict(config_as_dict(cfg)) == cfg

    def test_overrides(self):
        cfg = apply_overrides(small_config(), {"detector": "minres", "k_iterations": 2})
        assert cfg.detector == "minres" and cfg.k_iterations == 2

    def test_scenario_override(self):
        cfg = apply_overrides(small_config(), {"scenario.kind": "user_correlated", "scenario.zeta_t": 0.2})
        assert cfg.scenario.kind == "user_correlated"
        assert cfg.scenario.zeta_t == 0.2

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides(small_config(), {"qam": 64})


SCENARIOS = {
    "uncorrelated": ChannelScenario(),
    "fully_correlated": ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3, theta=0.4),
    "bs_correlated": ChannelScenario("bs_correlated", zeta_r=0.7, theta=0.4),
    "user_correlated": ChannelScenario("user_correlated", zeta_t=0.5, theta=-0.3),
}


class TestDrawFrames:
    @pytest.mark.parametrize("scenario", SCENARIOS.values(), ids=SCENARIOS.keys())
    @pytest.mark.parametrize("frames", [1, 14, 15, 16, 64, 128])
    def test_joint_draw_equals_separate_draws(self, monkeypatch, scenario, frames):
        # a 128x8 chunk's channels and noise share one Box-Muller session, with the
        # helper thread forced on (one start per chunk), forced off, or by its own
        # rule (a frame is 1,152 entries, so 14 frames fall below TRIG_THREAD_ENTRIES
        # and 15 reach it); every frame is what the public per-frame draws give,
        # each called alone on that frame's seed.  A correlated scenario's products
        # run in the chunk buffer (one-sided for bs_ and user_correlated), the public
        # draw's in fresh arrays.  128 frames is the cap at 128x8
        cfg = small_config(n=128, m=8, qam_order=64, scenario=scenario)
        seeds = mix_seed(5, 2, np.arange(frames))
        sigma2 = snr_to_sigma2(6.0, 8)
        bits, want = [], []
        for seed in map(int, seeds):
            bits.append(uniform_stream(mix_seed(seed, 0)).integers(0, 2, 48))
            h = generate_channel(128, 8, scenario, mix_seed(seed, 1)).H
            y = awgn_add(np.matvec(h, qam_modulate(bits[-1], qam_spec(64))), sigma2, mix_seed(seed, 2))
            want.append(preprocess(h, y, sigma2))
        monkeypatch.setattr(rngstream.threading, "Thread", RecordingThread)
        by_rule = rngstream._helper_runs(frames * 1152)
        assert by_rule == (frames >= 15 and rngstream._usable_cpus() > rngstream._drawing_processes)
        for helper in (True, False, by_rule):
            monkeypatch.setattr(rngstream, "_helper_runs", lambda size: helper)
            RecordingThread.started = 0
            got_bits, got = draw_frames(cfg, sigma2, seeds)
            assert RecordingThread.started == int(helper)
            assert np.array_equal(got_bits, bits)
            for b, one in enumerate(want):
                assert np.array_equal(got.A[b], one.A) and np.array_equal(got.y_mf[b], one.y_mf)

    def test_frames_of_several_snrs_in_one_chunk(self):
        # one noise variance per frame: a chunk packing frames of two SNRs equals
        # a chunk of each SNR drawn alone
        cfg = small_config(n=128, m=8, qam_order=64)
        seeds = mix_seed(5, 3, np.arange(7))
        sigma2 = [snr_to_sigma2(4.0, 8), snr_to_sigma2(12.0, 8)]
        bits, prob = draw_frames(cfg, np.repeat(sigma2, [3, 4]), seeds)
        for part, (lo, hi) in zip(sigma2, ((0, 3), (3, 7))):
            want_bits, want = draw_frames(cfg, part, seeds[lo:hi])
            assert np.array_equal(bits[lo:hi], want_bits)
            assert np.array_equal(prob.A[lo:hi], want.A) and np.array_equal(prob.y_mf[lo:hi], want.y_mf)

    def test_chunk_outlives_later_draws(self):
        # a chunk's bits and problem are fresh arrays: no later draw in the
        # thread's chunk buffer, of any shape or size, changes them
        cfg = small_config(n=128, m=8, qam_order=64)
        bits, prob = draw_frames(cfg, snr_to_sigma2(6.0, 8), mix_seed(5, 2, np.arange(64)))
        kept = [bits.copy(), prob.A.copy(), prob.y_mf.copy()]
        for n, m, frames in ((128, 8, 64), (128, 16, 32), (16, 4, 1), (128, 8, 7)):
            draw_frames(small_config(n=n, m=m, qam_order=64), snr_to_sigma2(3.0, m), mix_seed(6, 0, np.arange(frames)))
        for array, copy in zip((bits, prob.A, prob.y_mf), kept):
            assert np.array_equal(array, copy)
            assert not np.shares_memory(array, rngstream._thread.chunk)

    @staticmethod
    def drawn_channels(monkeypatch):
        """(H, a copy of it) for each chunk draw_frames preprocesses from here on."""
        seen = []

        def recording(h, y, sigma2):
            seen.append((h, h.copy()))
            return preprocess(h, y, sigma2)

        monkeypatch.setattr(sim, "preprocess", recording)
        return seen

    @pytest.mark.parametrize("scenario", [SCENARIOS["fully_correlated"], SCENARIOS["bs_correlated"]],
                             ids=["fully_correlated", "bs_correlated"])
    def test_correlated_chunk_stays_in_the_chunk_buffer(self, monkeypatch, scenario):
        # the products go into a spare region of the thread's chunk buffer and back
        # over W, so H is a view of the buffer, and a second chunk of the same size
        # draws into the same buffer again
        seen = self.drawn_channels(monkeypatch)
        cfg = small_config(n=128, m=8, qam_order=64, scenario=scenario)
        draw_frames(cfg, snr_to_sigma2(3.0, 8), mix_seed(7, 1, np.arange(128)))
        buffer = rngstream._thread.chunk
        draw_frames(cfg, snr_to_sigma2(3.0, 8), mix_seed(7, 2, np.arange(128)))
        assert rngstream._thread.chunk is buffer
        assert len(seen) == 2 and all(np.shares_memory(h, buffer) for h, _ in seen)
        assert not np.array_equal(seen[0][1], seen[1][1])

    def test_only_a_correlated_chunk_grows_the_buffer_for_its_products(self):
        # in a thread of its own, so it starts without a chunk buffer: an i.i.d.
        # chunk holds its normals alone, a correlated one as many entries again
        sizes = []

        def draw():
            for scenario in (SCENARIOS["uncorrelated"], SCENARIOS["user_correlated"]):
                cfg = small_config(n=128, m=8, qam_order=64, scenario=scenario)
                draw_frames(cfg, snr_to_sigma2(3.0, 8), mix_seed(7, 3, np.arange(128)))
                sizes.append(rngstream._thread.chunk.nbytes)

        thread = threading.Thread(target=draw)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # 128 frames of 1,024 channel and 128 noise entries, then 1,024 spare entries, 16 bytes each
        assert sizes == [128 * 1152 * 16, 128 * 2176 * 16]

    @pytest.mark.parametrize("scenario", [SCENARIOS["uncorrelated"], SCENARIOS["fully_correlated"]],
                             ids=["uncorrelated", "fully_correlated"])
    def test_sweep_buffer_within_the_stated_bound(self, scenario):
        # the rngstream docstring's bound on a simulating thread's chunk buffer:
        # 16 (1 + 1/M) CHUNK_ENTRIES bytes, and 16 CHUNK_ENTRIES more for a
        # correlated scenario's products; a serial sweep in a thread of its own
        cfg = small_config(n=128, m=8, qam_order=64, scenario=scenario, snr_db_list=(4.0, 10.0, 12.0),
                           max_bits=100 * 48, master_seed=20_260_809)
        sizes = []

        def sweep():
            run_sweep(cfg)
            sizes.append(rngstream._thread.chunk.nbytes)

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        bound = 16 * (1 + 1 / 8 + scenario.correlated) * sim.CHUNK_ENTRIES
        assert sizes and sizes[0] <= bound
        assert bound == (4.25 if scenario.correlated else 2.25) * 2**20

    def test_workspace_stops_growing_after_warm_up(self):
        # in a thread of its own, so it starts without a chunk buffer: the warm-up
        # chunk sizes the buffer, and chunks no larger reuse it
        seen = []

        def draw():
            draw_frames(small_config(n=128, m=8, qam_order=64), snr_to_sigma2(3.0, 8), mix_seed(7, 0, np.arange(64)))
            warm = rngstream._thread.chunk
            for n, m, frames in ((128, 8, 64), (128, 8, 33), (128, 16, 32), (16, 4, 1)):
                cfg = small_config(n=n, m=m, qam_order=64)
                draw_frames(cfg, snr_to_sigma2(3.0, m), mix_seed(8, 0, np.arange(frames)))
                seen.append(rngstream._thread.chunk is warm)
            seen.append(warm.nbytes)

        thread = threading.Thread(target=draw)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # 64 frames of 1,024 channel and 128 noise entries, 16 bytes each
        assert seen == [True] * 4 + [64 * 1152 * 16]

    def test_threads_draw_their_own_chunks(self):
        # two threads draw chunks at once, each in its own chunk buffer; a shared
        # buffer would hand one thread's normals to the other
        cfgs = {0: small_config(n=128, m=8, qam_order=64), 1: small_config(n=64, m=4, qam_order=16)}
        seeds = {t: mix_seed(9, t, np.arange(40)) for t in cfgs}
        want = {t: draw_frames(cfgs[t], snr_to_sigma2(5.0, cfgs[t].m), seeds[t]) for t in cfgs}
        rounds, bad, done = 30, {0: 0, 1: 0}, {0: 0, 1: 0}

        def draw(t):
            for _ in range(rounds):
                bits, prob = draw_frames(cfgs[t], snr_to_sigma2(5.0, cfgs[t].m), seeds[t])
                bad[t] += not (np.array_equal(bits, want[t][0]) and np.array_equal(prob.A, want[t][1].A)
                               and np.array_equal(prob.y_mf, want[t][1].y_mf))
                done[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(t,)) for t in cfgs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert done == {0: rounds, 1: rounds} and bad == {0: 0, 1: 0}


class TestRunTrial:
    def test_noiseless_exact_detection_is_error_free(self):
        # manual pipeline at sigma2 = 0: detection must reproduce the bits
        spec = qam_spec(64)
        for seed in range(10):
            bits = uniform_stream(mix_seed(600, seed)).integers(0, 2, size=4 * spec.bits_per_symbol)
            symbols = qam_modulate(bits, spec)
            h = generate_channel(16, 4, ChannelScenario(), mix_seed(601, seed)).H
            prob = preprocess(h, h @ symbols, 0.0)
            back = qam_demodulate_hard(exact_detect(prob).s_hat, spec)
            assert np.array_equal(back, bits)

    def test_repeatable(self):
        cfg = small_config()
        assert run_trial(cfg, 4.0, 999) == run_trial(cfg, 4.0, 999)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        # neither is taken as trial seed 1
        with pytest.raises(TypeError, match="seed must be an integer"):
            run_trial(small_config(), 0.0, seed)

    @pytest.mark.parametrize("snr_db", [1e5, -1e5, math.nan])
    def test_snr_without_finite_variance_rejected(self, snr_db):
        with pytest.raises(ValueError, match=f"snr_db {snr_db} dB gives no finite noise variance"):
            run_trial(small_config(), snr_db, 1)

    def test_non_config_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("config must be a SimConfig, got {'m': 4}")):
            run_trial({"m": 4}, 0.0, 1)

    @pytest.mark.parametrize("snr_db", [True, "0"])
    def test_snr_must_be_a_number(self, snr_db):
        # True ran a 1 dB frame; "0" failed inside snr_to_sigma2 with a TypeError
        with pytest.raises(ConfigError, match=re.escape(f"snr_db must be a real number, got {snr_db!r}")):
            run_trial(small_config(), snr_db, 1)

    @pytest.mark.parametrize("detector", ["cholesky", "minres", "gmres", "cr"])
    def test_chunk_matches_single_frames(self, detector):
        cfg = small_config(detector=detector, k_iterations=2)
        seeds = [mix_seed(78, t) for t in range(12)]
        chunk = frame_errors(cfg, *draw_frames(cfg, snr_to_sigma2(0.0, cfg.m), seeds))
        assert chunk.tolist() == [run_trial(cfg, 0.0, t)[0] for t in seeds]
        assert chunk.sum() > 0

    def test_cr_full_rank_matches_cholesky_decisions(self):
        cfg_cr = small_config(detector="cr", k_iterations=4)  # K = M
        cfg_ch = small_config(detector="cholesky")
        for t in range(50):
            seed = mix_seed(77, t)
            assert run_trial(cfg_cr, 4.0, seed) == run_trial(cfg_ch, 4.0, seed)


class TestBerPoint:
    def test_counts_are_consistent(self):
        cfg = small_config()
        pt = run_ber_point(cfg, 0.0)
        assert 0.0 <= pt.ber <= 1.0
        assert pt.bits_sent <= cfg.max_bits + cfg.m * 4  # one frame of slack at the cap
        assert pt.bits_sent == pt.frames * cfg.m * 4
        assert pt.ber == pt.bit_errors / pt.bits_sent
        assert pt.frames >= 10

    def test_zero_errors_flagged(self):
        cfg = small_config(qam_order=4, snr_db_list=(60.0,), max_bits=200, target_bit_errors=100)
        pt = run_ber_point(cfg, 60.0)
        assert pt.bit_errors == 0 and pt.ber == 0.0
        assert pt.flag == FLAG_BELOW_RESOLUTION

    def test_target_reached_flag(self):
        pt = run_ber_point(small_config(), 0.0)
        assert pt.flag == FLAG_OK and pt.bit_errors >= 100

    def test_non_config_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("config must be a SimConfig, got {'snr_db_list': ")):
            run_ber_point({"snr_db_list": (0.0,)}, 0.0)

    @pytest.mark.parametrize("snr_db", ["0", None, True, math.nan])
    def test_snr_must_be_a_finite_number(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db must be"):
            run_ber_point(small_config(), snr_db)

    def test_runs_the_configured_entry(self):
        # an int or a negative zero finds the 0 dB entry, and the point carries that entry
        cfg = small_config(snr_db_list=(0.0, 4.0))
        point = run_ber_point(cfg, 0.0)
        assert run_ber_point(cfg, 0) == point
        assert math.copysign(1.0, run_ber_point(cfg, -0.0).snr_db) == 1.0

    def test_points_pinned(self):
        # (bits_sent, bit_errors, frames, flag) recorded from the seeding
        # contract; a shift of every trial index moves them
        want = {
            ("cr", 5, 0.0): (512, 100, 32, FLAG_OK),
            ("cr", 5, 3.0): (960, 99, 60, FLAG_BELOW_RESOLUTION),
            ("cholesky", 5, 0.0): (528, 102, 33, FLAG_OK),
            ("cholesky", 5, 3.0): (960, 101, 60, FLAG_OK),
            ("cr", 2026, 0.0): (624, 104, 39, FLAG_OK),
            ("cr", 2026, 3.0): (960, 95, 60, FLAG_BELOW_RESOLUTION),
            ("cholesky", 2026, 0.0): (624, 102, 39, FLAG_OK),
            ("cholesky", 2026, 3.0): (960, 97, 60, FLAG_BELOW_RESOLUTION),
        }
        for (detector, seed, snr_db), counts in want.items():
            cfg = small_config(
                detector=detector, k_iterations=3, snr_db_list=(0.0, 3.0), max_bits=60 * 16, master_seed=seed
            )
            pt = run_ber_point(cfg, snr_db)
            assert (pt.bits_sent, pt.bit_errors, pt.frames, pt.flag) == counts, (detector, seed, snr_db)

    def test_exact_detector_ber_monotone_within_3_sigma(self):
        cfg = small_config(detector="cholesky", snr_db_list=(0.0, 3.0, 6.0, 9.0), max_bits=60_000)
        sweep = run_sweep(cfg)
        for a, b in zip(sweep.points, sweep.points[1:]):
            sigma = math.sqrt(max(a.bit_errors, 1)) / a.bits_sent
            assert b.ber <= a.ber + 3 * sigma


class TestSweep:
    def test_point_per_snr(self):
        res = run_sweep(small_config())
        assert len(res.points) == 3
        assert [p.snr_db for p in res.points] == [0.0, 4.0, 8.0]

    def test_serial_parallel_identical(self):
        cfg = small_config()
        assert run_sweep(cfg, workers=None) == run_sweep(cfg, workers=3)

    @pytest.mark.parametrize("detector", ["cholesky", "gmres", "cr"])
    def test_chunk_size_and_workers_invariant(self, monkeypatch, detector):
        # error-target points (0 dB) stop mid-chunk; budget points (8 dB) at the budget
        cfg = small_config(detector=detector, max_bits=4_000)
        reference = run_sweep(cfg)
        assert {p.flag for p in reference.points} == {FLAG_OK, FLAG_BELOW_RESOLUTION}
        # (first chunk, cap) in frames: frame by frame, one chunk per point, an odd start
        for first, cap in ((1, 1), (4096, 4096), (3, 7)):
            monkeypatch.setattr(sim, "FIRST_CHUNK_FRAMES", first)
            monkeypatch.setattr(sim, "CHUNK_ENTRIES", cap * cfg.n * cfg.m)
            assert run_sweep(cfg) == reference
            # the serial sweep packs its points; each one alone schedules only itself
            assert [run_ber_point(cfg, snr_db) for snr_db in cfg.snr_db_list] == list(reference.points)
        assert run_sweep(cfg, workers=3) == reference

    def test_rerun_identical(self):
        cfg = small_config()
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_subset_reproduces_points(self):
        cfg = small_config()
        full = run_sweep(cfg)
        # a point's frames are seeded by its SNR's index in the config's list
        assert [run_ber_point(cfg, snr_db) for snr_db in cfg.snr_db_list] == list(full.points)
        with pytest.raises(ValueError, match="not in the configured sweep list"):
            run_ber_point(cfg, 2.0)

    @pytest.mark.parametrize("workers", [
        None,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork", reason="the patched point reaches workers only through fork"
        )),
    ])
    def test_failed_point_reported_after_the_others_ran(self, monkeypatch, tmp_path, workers):
        # every draw holding 4 dB frames raises; a serial sweep's packed draws
        # hold every point's frames, so its points run again one at a time
        snr_of = {snr_to_sigma2(snr_db, 4): snr_db for snr_db in small_config().snr_db_list}
        real = sim.draw_frames

        def failing_at_4_db(config, sigma2, seeds):
            snrs = {snr_of[float(v)] for v in np.atleast_1d(sigma2)}
            for snr_db in snrs:
                (tmp_path / f"{snr_db}").touch()  # a file, so that a worker's call is seen too
            if 4.0 in snrs:
                raise ValueError("boom")
            return real(config, sigma2, seeds)

        monkeypatch.setattr(sim, "draw_frames", failing_at_4_db)
        with pytest.raises(RuntimeError) as info:
            run_sweep(small_config(), workers=workers)
        assert str(info.value) == "1 sweep point(s) failed: snr_db=4.0: boom"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["0.0", "4.0", "8.0"]

    def test_packed_failure_reruns_each_point_alone(self, monkeypatch):
        # a failure only a packed draw meets: the points, run again one at a
        # time through the same schedule, give the sweep's results
        cfg = small_config()
        reference = [run_ber_point(cfg, snr_db) for snr_db in cfg.snr_db_list]
        real, sizes = sim.draw_frames, []

        def failing_when_packed(config, sigma2, seeds):
            if len(set(np.atleast_1d(sigma2).tolist())) > 1:
                raise ValueError("packed")
            sizes.append(len(seeds))
            return real(config, sigma2, seeds)

        monkeypatch.setattr(sim, "draw_frames", failing_when_packed)
        assert run_sweep(cfg).points == tuple(reference)
        assert sum(sizes) >= sum(p.frames for p in reference)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ConfigError, match="workers must be None or an integer >= 1"):
            run_sweep(small_config(), workers=workers)
        with pytest.raises(ConfigError, match="workers must be None or an integer >= 1"):
            run_sweeps([small_config()], workers=workers)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patches reach workers only through fork")
    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_pool_workers_on_every_cpu_run_without_helper(self, monkeypatch, tmp_path, cpus):
        # a pool of two workers on `cpus` usable CPUs: the helper thread stays
        # off in each worker unless there are more CPUs than workers; the
        # parent process keeps it
        serial, real = run_sweep(small_config()), sim._run_schedule

        def recording(configs, points):
            for _, snr_db in points:
                (tmp_path / f"{snr_db} {rngstream._helper_runs(rngstream.TRIG_THREAD_ENTRIES)}").touch()
            return real(configs, points)

        monkeypatch.setattr(sim, "_run_schedule", recording)
        monkeypatch.setattr(rngstream, "_usable_cpus", lambda: cpus)
        assert run_sweep(small_config(), workers=2) == serial
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{snr} {cpus > 2}" for snr in (0.0, 4.0, 8.0)]
        assert rngstream._drawing_processes == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches workers only through fork")
    @pytest.mark.skipif(blas_threads() is None, reason="no OpenBLAS thread count to read")
    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch, tmp_path):
        parent, real = blas_threads(), sim._run_schedule

        def recording(configs, points):
            for _, snr_db in points:
                (tmp_path / f"{snr_db} {blas_threads()}").touch()
            return real(configs, points)

        monkeypatch.setattr(sim, "_run_schedule", recording)
        run_sweep(small_config(), workers=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{snr} 1" for snr in (0.0, 4.0, 8.0)]
        assert blas_threads() == parent

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches workers only through fork")
    def test_pool_starts_no_more_workers_than_points(self, monkeypatch, tmp_path):
        # 8 workers asked for 3 points: 3 start, and each shares the CPUs among 3
        serial, real = run_sweep(small_config()), sim._init_pool_worker

        def recording(workers):
            real(workers)
            (tmp_path / f"{os.getpid()} {rngstream._drawing_processes}").touch()

        monkeypatch.setattr(sim, "_init_pool_worker", recording)
        assert run_sweep(small_config(), workers=8) == serial
        assert [p.name.split()[1] for p in tmp_path.iterdir()] == ["3"] * 3


class TestRunSweeps:
    DETECTORS = (("cholesky", 1), ("minres", 2), ("gmres", 3), ("cr", 2))

    @pytest.mark.parametrize("scenario", [
        ChannelScenario(), ChannelScenario("fully_correlated", zeta_t=0.2, zeta_r=0.3, theta=0.4),
    ], ids=["uncorrelated", "fully_correlated"])
    def test_equals_separate_sweeps(self, monkeypatch, scenario):
        configs = [
            small_config(detector=det, k_iterations=k, scenario=scenario, snr_db_list=(0.0, 4.0, 16.0), max_bits=4_000)
            for det, k in self.DETECTORS
        ]
        separate = tuple(run_sweep(cfg) for cfg in configs)
        # at 0 dB the detectors reach the error target at different frames
        assert len({sweep.points[0].frames for sweep in separate}) > 1
        assert {p.flag for sweep in separate for p in sweep.points} == {FLAG_OK, FLAG_BELOW_RESOLUTION}
        assert run_sweeps(configs) == separate
        for first, cap in ((1, 1), (4096, 4096), (3, 7)):
            monkeypatch.setattr(sim, "FIRST_CHUNK_FRAMES", first)
            monkeypatch.setattr(sim, "CHUNK_ENTRIES", cap * configs[0].n * configs[0].m)
            assert run_sweeps(configs) == separate
        monkeypatch.undo()
        assert run_sweeps(configs, workers=3) == separate

    def test_each_chunk_drawn_once(self, monkeypatch):
        configs = [small_config(detector=det, k_iterations=k) for det, k in self.DETECTORS]
        cfg = configs[0]
        # (snr index, trial index) of every trial seed within the bit budget
        budget = cfg.max_bits // (cfg.m * 4)
        frame_of = {
            int(seed): (i, t)
            for i in range(len(cfg.snr_db_list))
            for t, seed in enumerate(mix_seed(cfg.master_seed, i, np.arange(budget)))
        }
        draws = []

        def recording(config, sigma2, seeds):
            frames = [frame_of[int(seed)] for seed in seeds]
            assert np.array_equal(sigma2, [snr_to_sigma2(cfg.snr_db_list[i], cfg.m) for i, _ in frames])
            draws.append(frames)
            return draw_frames(config, sigma2, seeds)

        monkeypatch.setattr(sim, "draw_frames", recording)
        results = run_sweeps(configs)
        assert any(len({i for i, _ in frames}) > 1 for frames in draws)  # the points share draws
        assert max(map(len, draws)) <= sim.CHUNK_ENTRIES // (cfg.n * cfg.m)
        # each point reads its frames in order, once, and as many as its
        # longest-running config, at most one of its ranges more
        for i in range(len(cfg.snr_db_list)):
            trials = [t for frames in draws for at, t in frames if at == i]
            assert trials == list(range(len(trials)))
            drawn = [n for n in (sum(at == i for at, _ in frames) for frames in draws) if n]
            longest = max(result.points[i].frames for result in results)
            assert sum(drawn[:-1]) < longest <= sum(drawn)

    @pytest.mark.parametrize("change", [
        dict(n=32), dict(m=2), dict(qam_order=64), dict(snr_db_list=(0.0, 4.0)), dict(master_seed=12),
        dict(target_bit_errors=200), dict(max_bits=8_000), dict(scenario=ChannelScenario("user_correlated", zeta_t=0.2)),
    ])
    def test_mixed_configs_rejected(self, change):
        with pytest.raises(ConfigError, match="config 1 differs from config 0"):
            run_sweeps([small_config(), small_config(detector="gmres", **change)])

    @pytest.mark.parametrize("index", [0, 1])
    def test_non_config_rejected(self, monkeypatch, index):
        configs = [small_config(), small_config(detector="gmres")]
        configs[index] = "sweep.json"
        monkeypatch.setattr(sim, "_run_points", lambda configs, points: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match=f"config {index} must be a SimConfig, got 'sweep.json'"):
            run_sweeps(configs)

    def test_no_config_rejected(self):
        with pytest.raises(ConfigError, match="at least one config"):
            run_sweeps([])

    def test_bare_config_rejected(self, monkeypatch):
        monkeypatch.setattr(sim, "_run_points", lambda configs, points: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match="run_sweeps expects a sequence of SimConfigs, got one SimConfig"):
            run_sweeps(small_config())


class TestChunkSchedule:
    @staticmethod
    def requested(monkeypatch, cfg, snr_db):
        """The point, and the frame count of each chunk it drew."""
        sizes = []

        def recording(config, sigma2, seeds):
            sizes.append(len(seeds))
            return draw_frames(config, sigma2, seeds)

        monkeypatch.setattr(sim, "draw_frames", recording)
        return run_ber_point(cfg, snr_db), sizes

    def test_budget_point_doubles_to_the_last_frame(self, monkeypatch):
        # 128x8 caps a chunk at 2**17 // 1024 = 128 frames; 100 frames of budget
        cfg = small_config(n=128, m=8, qam_order=64, snr_db_list=(40.0,), max_bits=100 * 48)
        point, sizes = self.requested(monkeypatch, cfg, 40.0)
        assert (point.frames, point.flag) == (100, FLAG_BELOW_RESOLUTION)
        assert sizes == [16, 32, 52]

    def test_chunk_capped_by_channel_entries(self, monkeypatch):
        cfg = small_config(n=128, m=16, qam_order=64, snr_db_list=(40.0,), max_bits=200 * 96)
        point, sizes = self.requested(monkeypatch, cfg, 40.0)
        assert point.frames == 200
        # 128x16 caps a chunk at 2**17 // 2048 = 64 frames
        assert sizes == [16, 32, 64, 64, 24] and max(sizes) == sim.CHUNK_ENTRIES // (128 * 16)

    def test_oversized_frame_runs_alone(self, monkeypatch):
        cfg = small_config(n=2080, m=64, qam_order=4, k_iterations=1, snr_db_list=(60.0,), max_bits=1)
        assert cfg.n * cfg.m > sim.CHUNK_ENTRIES
        point, sizes = self.requested(monkeypatch, cfg, 60.0)
        assert point.frames == sim.MIN_FRAMES_PER_POINT
        assert sizes == [1] * sim.MIN_FRAMES_PER_POINT

    @pytest.mark.parametrize("detector", ["cholesky", "cr", "gmres", "minres"])
    def test_benchmark_sweep_packs_its_points(self, monkeypatch, detector):
        # 128x8, 64-QAM, 100 errors or 100 frames: 4 dB reaches the error target
        # within its first two ranges (16 + 32 frames), 10 and 12 dB run to the
        # budget (16 + 32 + 52).  The rounds pack 16 + 16 + 16, then 32 + 32 + 32,
        # then 52 + 52 frames, one draw each, never past the 128-frame cap
        cfg = small_config(n=128, m=8, qam_order=64, detector=detector, k_iterations=4,
                           snr_db_list=(4.0, 10.0, 12.0), max_bits=100 * 48, master_seed=20_260_809)
        sizes = []

        def recording(config, sigma2, seeds):
            sizes.append(len(seeds))
            return draw_frames(config, sigma2, seeds)

        monkeypatch.setattr(sim, "draw_frames", recording)
        points = run_sweep(cfg).points
        assert sizes == [48, 96, 104] and max(sizes) <= sim.CHUNK_ENTRIES // (128 * 8)
        assert 16 < points[0].frames <= 48 and points[0].flag == FLAG_OK
        assert [p.frames for p in points[1:]] == [100, 100]

    def test_error_target_point_draws_at_most_one_chunk_past_its_stop(self, monkeypatch):
        point, sizes = self.requested(monkeypatch, small_config(), 0.0)
        assert point.flag == FLAG_OK and len(sizes) >= 2
        assert sum(sizes[:-1]) < point.frames <= sum(sizes)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        res = run_sweep(small_config(master_seed=0, target_bit_errors=500, max_bits=20_000_000))
        path = tmp_path / "r.csv"
        write_results(res, path)
        assert read_results(path) == res

    def test_header_schema(self, tmp_path):
        res = run_sweep(small_config())
        path = tmp_path / "r.csv"
        write_results(res, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "detector,k,N,M,qam,scenario,zeta_t,zeta_r,theta_rad,snr_db,bits,errors,ber,flag"
        )

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detector,k,N,M\ncr,4,16,4\n")
        with pytest.raises(ConfigError, match="qam"):
            read_results(path)

    def test_plot_data_pairs(self, tmp_path):
        res = run_sweep(small_config())
        path = tmp_path / "plot.csv"
        write_plot_data(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "snr_db,ber"
        pairs = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert pairs == [(p.snr_db, p.ber) for p in res.points]

    def test_bad_field_reports_line(self, tmp_path):
        res = run_sweep(small_config())
        good = tmp_path / "good.csv"
        write_results(res, good)
        lines = good.read_text().splitlines()
        lines[1] = lines[1].replace("cr,4", "cr,four", 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=":2:"):
            read_results(bad)

    def edited_row(self, tmp_path, **fields):
        """A written three-point cr sweep at 16x4, 16-QAM with fields of its second data row replaced."""
        rows = ((0.0, 1600, 300, FLAG_OK), (4.0, 4800, 120, FLAG_OK), (8.0, 40_000, 7, FLAG_BELOW_RESOLUTION))
        points = tuple(
            BerPoint(snr_db=snr, bits_sent=bits, bit_errors=errors, ber=errors / bits, frames=bits // 16, flag=flag)
            for snr, bits, errors, flag in rows
        )
        path = tmp_path / "r.csv"
        write_results(SweepResult(config=small_config(), points=points), path)
        lines = path.read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        row.update(fields)
        lines[2] = ",".join(row.values())
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("column, value, reason", [
        ("detector", "foo", "unknown detector"), ("qam", "32", "unsupported qam_order"),
    ])
    def test_bad_first_row_config_reports_line(self, tmp_path, column, value, reason):
        # the file's config is built from its first data row, which is named like any other
        path = self.edited_row(tmp_path)
        header, first = path.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        row[column] = value
        path.write_text(f"{header}\n{','.join(row.values())}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: {reason}"):
            read_results(path)

    @pytest.mark.parametrize("fields, column", [
        *(({col: value}, col) for col, value in (
            ("detector", "gmres"), ("k", "2"), ("N", "64"), ("M", "8"), ("qam", "64"),
            ("scenario", "fully_correlated"), ("zeta_t", "0.5"), ("zeta_r", "0.5"), ("theta_rad", "0.3"),
        )),
        (dict(detector="gmres", k="2", N="64", bits="4801", errors="5000", ber="1.5", flag="bogus"), "detector"),
        ({"flag": "bogus"}, "flag"),
        ({"errors": "-1", "ber": f"{-1 / 4800:.17g}"}, "errors"),
        ({"errors": "4801", "ber": f"{4801 / 4800:.17g}"}, "errors"),
        ({"bits": "4801", "errors": "0", "ber": "0"}, "bits"),
        ({"bits": "0", "errors": "0", "ber": "0"}, "bits"),
        ({"bits": "-16", "errors": "0", "ber": "0"}, "bits"),
        ({"ber": "1.5"}, "ber"),
        ({"ber": f"{math.nextafter(120 / 4800, 1.0):.17g}"}, "ber"),
        ({"snr_db": "0"}, "snr_db"),
    ])
    def test_inconsistent_row_rejected(self, tmp_path, fields, column):
        with pytest.raises(ConfigError, match=f":3: field '{column}'"):
            read_results(self.edited_row(tmp_path, **fields))


def synthetic_points(pairs):
    return [BerPoint(snr_db=s, bits_sent=10**6, bit_errors=int(b * 10**6), ber=b, frames=1000) for s, b in pairs]


class TestSnrGap:
    def test_same_curve_zero(self):
        pts = synthetic_points([(0.0, 1e-1), (2.0, 1e-2), (4.0, 1e-3)])
        assert snr_gap(pts, pts, 3e-2) == 0.0

    def test_log_linear_interpolation_value(self):
        # crossing 1e-2 between (2, 1e-1) and (4, 1e-3): midway in log10 space
        pts = synthetic_points([(2.0, 1e-1), (4.0, 1e-3)])
        assert interpolate_snr_at_ber(pts, 1e-2) == pytest.approx(3.0)

    def test_shifted_curves_gap(self):
        a = synthetic_points([(2.0, 1e-1), (4.0, 1e-3)])
        b = synthetic_points([(2.5, 1e-1), (4.5, 1e-3)])
        assert snr_gap(b, a, 1e-2) == pytest.approx(0.5)

    def test_no_crossing_raises(self):
        pts = synthetic_points([(0.0, 1e-1), (2.0, 1e-2)])
        with pytest.raises(ValueError):
            interpolate_snr_at_ber(pts, 1e-4)
