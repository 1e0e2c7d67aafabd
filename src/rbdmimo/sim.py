"""Seeded Monte-Carlo link-level BER simulation.

One trial is one block-fading frame: draw bits, modulate, draw a fresh
channel, add noise, preprocess, detect, hard-demap, count bit errors.
Every random draw derives from (master_seed, snr_index, trial_index)
through the documented 64-bit mixer; run_sweeps says what that reproduces.

Frames run in chunks, in two stages.  `draw_frames` draws the bits,
channels and noise of a whole chunk as stacked arrays and preprocesses
them into the MMSE problem; it reads no detector field of the config, and
it takes one noise variance per frame, so a chunk may hold frames of
several SNRs.  `frame_errors` then detects and demaps the drawn chunk
under one config's detector and counts each frame's bit errors.  Each
frame of a chunk equals `run_trial` on its own seed and SNR.

One scheduler, `_run_schedule`, runs a list of points in rounds of
shared draws; its docstring states the schedule.  Each config adds up its
per-frame errors and stops at the first frame where the serial stop rule
holds, so frames, bits, errors and flags depend neither on the ranges nor
on the packing, and the seeding contract is unchanged.

Trial seeds do not depend on the detector, so configs that differ only in
detector and k_iterations see the same frames.  `run_sweeps` takes such a
set of configs and draws each frame once for all of them: every config
still running at one of a draw's points decides the draw, and the rounds
go on until the last config stops at every point.  Its results equal
separate sweeps exactly.  Every route of `run_sweeps` runs one task,
`_run_points`: a serial sweep's task holds all its points, a pool task
one point, and if the schedule raises, the task runs its points again
one at a time, so a failure names only its own SNR.  `run_sweep` is
`run_sweeps` of one config, so there is one chunk loop.

SNR convention: sigma2 = M / 10^(snr_db / 10), i.e. per-receive-antenna
SNR at unit average symbol energy.  Detector comparisons are SNR gaps
between curves and are invariant to this choice.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .channel import ChannelScenario, ConfigError, _count, correlate_channel, finite_real, real_number
from .detectors import DETECTOR_NAMES, ITERATIVE_DETECTORS, MmseProblem, exact_detect, preprocess
from .modem import SUPPORTED_ORDERS, qam_demodulate_hard, qam_modulate, qam_spec
from .rngstream import _chunk_normals, _is_integer, mix_seed, seed_array, uniform_bits_rows

SNR_CONVENTION = "sigma2 = M / 10^(snr_db/10) (per-receive-antenna SNR, unit symbol energy)"

FLAG_OK = "ok"
FLAG_BELOW_RESOLUTION = "below_resolution"

MIN_FRAMES_PER_POINT = 10
FIRST_CHUNK_FRAMES = 16
# most entries of H in one chunk (2 MiB of complex128): 128 frames at 128x8,
# so each round of a 4-12 dB 128x8 sweep is one draw.  It also bounds each
# drawing thread's rngstream chunk buffer: 2.25 MiB for 128x8 chunks, and
# 2 MiB more for a correlated scenario's products
CHUNK_ENTRIES = 2**17
_SUB_STREAMS = np.arange(3)  # bits, channel, noise

# results CSV config column -> config_as_dict key, scenario keys dotted under "scenario."
_CONFIG_COLUMNS = {
    "detector": "detector", "k": "k_iterations", "N": "n", "M": "m", "qam": "qam_order",
    "scenario": "scenario.kind", "zeta_t": "scenario.zeta_t", "zeta_r": "scenario.zeta_r",
    "theta_rad": "scenario.theta_rad",
}
RESULT_COLUMNS = [*_CONFIG_COLUMNS, "snr_db", "bits", "errors", "ber", "flag"]

_INTEGER_FIELDS = ("n", "m", "qam_order", "k_iterations", "target_bit_errors", "max_bits", "master_seed")


def _check_seed(seed, name: str = "master_seed") -> None:
    """The master seed rule: an integer in [0, 2**64); anything else raises ConfigError naming `name`."""
    if not _is_integer(seed):
        raise ConfigError(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{name} must lie in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SimConfig:
    """One seeded sweep, validated on construction.

    This is the one check of a config, whichever route built it: the
    integer fields take integral numbers and store ints, and a bad type or
    value raises ConfigError naming the field.
    """

    n: int
    m: int
    qam_order: int
    detector: str
    k_iterations: int
    snr_db_list: tuple[float, ...]
    scenario: ChannelScenario = ChannelScenario()
    target_bit_errors: int = 500
    max_bits: int = 20_000_000
    master_seed: int = 0

    def __post_init__(self):
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (float, np.floating)) and float(value).is_integer():
                value = int(value)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.scenario, ChannelScenario):
            raise ConfigError(f"scenario must be a ChannelScenario, got {self.scenario!r}")
        if self.m < 1 or self.n < self.m:
            raise ConfigError(f"require N >= M >= 1, got N={self.n}, M={self.m}")
        if self.qam_order not in SUPPORTED_ORDERS:
            raise ConfigError(f"unsupported qam_order {self.qam_order}, expected one of {SUPPORTED_ORDERS}")
        if self.detector not in DETECTOR_NAMES:
            raise ConfigError(f"unknown detector {self.detector!r}, expected one of {DETECTOR_NAMES}")
        if self.k_iterations < 1:
            raise ConfigError(f"k_iterations must be >= 1, got {self.k_iterations}")
        if not isinstance(self.snr_db_list, (list, tuple)):
            raise ConfigError(f"snr_db_list must be a list or tuple, got {self.snr_db_list!r}")
        snrs = tuple(finite_real("snr_db_list", s) for s in self.snr_db_list)
        if not snrs:
            raise ConfigError("snr_db_list must not be empty")
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ConfigError("snr_db_list must be strictly increasing")
        for snr in snrs:
            try:
                snr_to_sigma2(snr, self.m)
            except ValueError:
                raise ConfigError(f"snr_db_list entry {snr} dB gives no finite noise variance sigma2 > 0") from None
        object.__setattr__(self, "snr_db_list", snrs)
        if self.target_bit_errors < 100:
            raise ConfigError(f"target_bit_errors must be >= 100, got {self.target_bit_errors}")
        if self.max_bits < 1:
            raise ConfigError(f"max_bits must be >= 1, got {self.max_bits}")
        _check_seed(self.master_seed)


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    frames: int
    flag: str = FLAG_OK


@dataclass(frozen=True)
class SweepResult:
    config: SimConfig
    points: tuple[BerPoint, ...]


def snr_to_sigma2(snr_db: float, m: int) -> float:
    """The noise variance of an SNR (see SNR_CONVENTION); ValueError unless it is finite and > 0.

    snr_db must be a real number and M an int or numpy integer >= 1; a
    bool, a string or a non-integral M raises ValueError naming it.
    """
    m = _count("M", m)
    snr_db = real_number("snr_db", snr_db)
    try:
        sigma2 = m / 10.0 ** (snr_db / 10.0)
    except ArithmeticError:  # 10**(snr/10) overflows, or underflows to a zero divisor
        sigma2 = math.nan
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"snr_db {snr_db} dB gives no finite noise variance sigma2 > 0")
    return sigma2


def _check_config(config, name: str = "config") -> None:
    if not isinstance(config, SimConfig):
        raise ConfigError(f"{name} must be a SimConfig, got {config!r}")


def draw_frames(config: SimConfig, sigma2, trial_seeds) -> tuple[np.ndarray, MmseProblem]:
    """The sent bits and the MMSE problem of each frame of a chunk, one frame per trial seed.

    The draw reads no detector field of the config, so every config that
    differs only in detector and k_iterations gets the same frames.
    sigma2 is the noise variance, one float or one per frame (a packed
    chunk holds frames of several SNRs).  trial_seeds is an integer array
    or a sequence of ints, each taken modulo 2**64 (see seed_array).
    Sub-streams: mix_seed(trial_seed, 0) for bits, (..., 1) for the
    channel, (..., 2) for the noise, derived for the whole chunk at once.
    The chunk's channel entries and noise are drawn, on this thread, in its
    rngstream chunk buffer, and a correlated scenario's products are
    written by correlate_channel into a spare region of the same buffer
    and back over W, so H is a view of it; each frame equals
    generate_channel and awgn_add, each called alone on that frame's seed
    and variance, and preprocess checks that every h and y is finite.  The
    bits and the problem are fresh arrays, which later draws leave alone.
    """
    spec = qam_spec(config.qam_order)
    n_bits = config.m * spec.bits_per_symbol
    sub_seeds = mix_seed(seed_array(trial_seeds)[:, None], _SUB_STREAMS).T
    bits = uniform_bits_rows(sub_seeds[0], n_bits)
    symbols = qam_modulate(bits, spec)
    entries = config.n * config.m
    groups = [(sub_seeds[1], entries, 1.0), (sub_seeds[2], config.n, sigma2)]
    # a correlated W's products ping-pong: into a spare region of W's size, then back over the dead W
    w, noise, *spare = _chunk_normals(groups, len(sub_seeds[1]) * entries if config.scenario.correlated else 0)
    w = w.reshape(-1, config.n, config.m)
    h = correlate_channel(w, config.scenario, (spare[0].reshape(w.shape), w) if spare else ())
    y = np.matvec(h, symbols)
    y += noise
    return bits, preprocess(h, y, sigma2)


def frame_errors(config: SimConfig, bits: np.ndarray, prob: MmseProblem) -> np.ndarray:
    """Bit errors of each frame of a drawn chunk under the config's detector."""
    if config.detector == "cholesky":
        detected = exact_detect(prob)
    else:
        detected = ITERATIVE_DETECTORS[config.detector](prob, config.k_iterations)
    bits_hat = qam_demodulate_hard(detected.s_hat, qam_spec(config.qam_order))
    return np.count_nonzero(bits_hat != bits, axis=-1)


def run_trial(config: SimConfig, snr_db: float, trial_seed: int) -> tuple[int, int]:
    """One frame; returns (bit_errors, bits_sent).  Deterministic in trial_seed."""
    _check_config(config)
    errors = frame_errors(config, *draw_frames(config, snr_to_sigma2(snr_db, config.m), [trial_seed]))
    return int(errors[0]), config.m * qam_spec(config.qam_order).bits_per_symbol


def run_ber_point(config: SimConfig, snr_db: float) -> BerPoint:
    """Accumulate trials at one SNR until target_bit_errors or max_bits.

    At least MIN_FRAMES_PER_POINT frames are always run.  Points that stop
    short of the error target carry the below-resolution flag.  The point
    runs alone on the schedule of _run_schedule and ends at the first frame
    that meets the stop rule.  snr_db must be in the config's snr_db_list,
    whose index for it seeds the frames; a detector's exception propagates.
    """
    _check_config(config)
    snr_db = finite_real("snr_db", snr_db)
    try:
        snr_index = config.snr_db_list.index(snr_db)
    except ValueError:
        raise ValueError(f"snr_db {snr_db} is not in the configured sweep list") from None
    return _run_schedule((config,), [(snr_index, config.snr_db_list[snr_index])])[0][0]


class _Point:
    """A point of a schedule: its SNR, and each config's errors and last frame."""

    def __init__(self, snr_index: int, snr_db: float, m: int, configs: int):
        self.snr_index, self.snr_db = snr_index, float(snr_db)
        self.sigma2 = snr_to_sigma2(snr_db, m)  # a Python float, repeated exactly for each of its frames
        self.errors = [0] * configs
        self.ends = [0] * configs  # a config's last frame, 0 while it runs


def _run_schedule(configs, points) -> list[list[BerPoint]]:
    """For each (snr_index, snr_db) point, one BerPoint per config: the chunk loop.

    The configs differ only in detector and k_iterations.  Every running
    point is at the same frame; one range per round.  The ranges are
    FIRST_CHUNK_FRAMES frames, then twice the last, never more than the cap
    of CHUNK_ENTRIES // (N*M) frames (at least one) nor past the bit
    budget's last frame.  A round draws its range of every point where a
    config still runs, as many points to a draw as the cap holds, in point
    order, and decides each draw under every config that runs at one of
    its points.  Each config stops at each point at its own frame under the
    serial rule, so neither the ranges nor the packing change a result.
    """
    config = configs[0]
    n_bits = config.m * qam_spec(config.qam_order).bits_per_symbol
    # the bit budget ends a point at this frame, whatever its error count
    last_frame = max(MIN_FRAMES_PER_POINT, -(-config.max_bits // n_bits))
    cap = max(1, CHUNK_ENTRIES // (config.n * config.m))
    state = [_Point(i, snr_db, config.m, len(configs)) for i, snr_db in points]
    start, size = 0, min(FIRST_CHUNK_FRAMES, cap)
    while running := [point for point in state if not all(point.ends)]:
        stop = min(start + size, last_frame)
        per_draw = cap // (stop - start)
        for first in range(0, len(running), per_draw):
            _draw_and_decide(configs, running[first:first + per_draw], start, stop, last_frame)
        start, size = stop, min(2 * size, cap)
    return [
        [_ber_point(cfg, point.snr_db, errs, end, n_bits) for cfg, errs, end in zip(configs, point.errors, point.ends)]
        for point in state
    ]


def _draw_and_decide(configs, points, start: int, stop: int, last_frame: int) -> None:
    """Draw frames [start, stop) of the points together and apply each config's stop rule at each point.

    A config that runs at any point of the draw decides all of its frames.
    """
    config = configs[0]
    indices = np.array([point.snr_index for point in points])
    seeds = mix_seed(config.master_seed, indices[:, None], np.arange(start, stop)).ravel()
    bits, prob = draw_frames(config, np.repeat([point.sigma2 for point in points], stop - start), seeds)
    counts = np.arange(start + 1, stop + 1)
    for i, cfg in enumerate(configs):
        if all(point.ends[i] for point in points):
            continue
        for point, errors in zip(points, frame_errors(cfg, bits, prob).reshape(len(points), -1)):
            if point.ends[i]:
                continue
            totals = point.errors[i] + np.cumsum(errors)
            stops = ((counts >= MIN_FRAMES_PER_POINT) & (totals >= cfg.target_bit_errors)) | (counts == last_frame)
            end = int(np.argmax(stops)) if stops.any() else len(counts) - 1
            point.errors[i] = int(totals[end])
            if stops[end]:
                point.ends[i] = int(counts[end])


def _ber_point(cfg: SimConfig, snr_db: float, errors: int, frames: int, n_bits: int) -> BerPoint:
    bits_sent = frames * n_bits
    return BerPoint(
        snr_db=snr_db,
        bits_sent=bits_sent,
        bit_errors=errors,
        ber=errors / bits_sent,
        frames=frames,
        flag=FLAG_OK if errors >= cfg.target_bit_errors else FLAG_BELOW_RESOLUTION,
    )


def _run_points(configs, points):
    """(each point's BerPoints, one per config; the failure texts): the task of every run_sweeps route.

    The points run on one schedule.  If it raises, each point runs again
    alone, so a failure names only its own SNR, and its BerPoints are None.
    """
    try:
        return _run_schedule(configs, points), []
    except Exception as exc:  # noqa: BLE001 - run_sweeps aggregates and re-raises
        if len(points) == 1:
            return [None], [f"snr_db={points[0][1]}: {exc}"]
    return _each_alone(map, configs, points)


def _each_alone(mapper, configs, points):
    """_run_points of each point alone through `mapper` (map, or a pool's map), merged in point order."""
    results, failures = [], []
    for found, texts in mapper(_run_points, [configs] * len(points), [[point] for point in points]):
        results += found
        failures += texts
    return results, failures


def run_sweeps(configs, workers: int | None = None) -> tuple[SweepResult, ...]:
    """One SweepResult per config, drawing each frame once for all of them.

    The configs are SimConfigs that may differ only in detector and
    k_iterations; anything else raises ConfigError, naming the first
    offending config's index, before any point runs.  Each frame is drawn
    once and decided for every config still running at its point, and
    each config's points equal those of run_sweep on it alone.  workers is
    None or an integer >= 1.  A pool of min(workers, points) processes,
    if that is more than one, runs one point per task, each worker with
    BLAS on one thread (`blas` says why); else one task runs every point in
    this process, on its BLAS threads (see _run_schedule).  Every draw runs on
    its worker's or this process's one thread.  Index-based seeds give any
    subset of points, in any order, the same frames on every route,
    bit-identical but where one BLAS thread rounds a correlated scenario's
    products apart from several (OpenBLAS 0.3.31 does at N >= 256; a BerPoint
    moves only if a bit flips).  Per-point failures are collected and raised
    together after every point has been attempted (see _run_points).
    """
    if workers is not None:
        if not (_is_integer(workers) and workers >= 1):
            raise ConfigError(f"workers must be None or an integer >= 1, got {workers!r}")
        workers = int(workers)
    if isinstance(configs, SimConfig):
        raise ConfigError("run_sweeps expects a sequence of SimConfigs, got one SimConfig (run_sweep takes one)")
    configs = tuple(configs)
    if not configs:
        raise ConfigError("run_sweeps needs at least one config")
    first = configs[0]
    for i, cfg in enumerate(configs):
        _check_config(cfg, f"config {i}")
        if replace(cfg, detector=first.detector, k_iterations=first.k_iterations) != first:
            raise ConfigError(f"config {i} differs from config 0 in more than detector and k_iterations")
    points = list(enumerate(first.snr_db_list))
    workers = min(workers or 1, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 10-15 ms of import that only a pool needs

        from .blas import single_thread

        with ProcessPoolExecutor(max_workers=workers, initializer=single_thread) as pool:
            results, failures = _each_alone(pool.map, configs, points)
    else:
        results, failures = _run_points(configs, points)
    if failures:
        raise RuntimeError(f"{len(failures)} sweep point(s) failed: " + "; ".join(failures))
    return tuple(SweepResult(config=cfg, points=tuple(found[i] for found in results)) for i, cfg in enumerate(configs))


def run_sweep(config: SimConfig, workers: int | None = None) -> SweepResult:
    """One BerPoint per configured SNR: run_sweeps of the one config."""
    return run_sweeps((config,), workers)[0]


def write_results(result: SweepResult, path) -> None:
    """Write the sweep as CSV with the fixed column schema."""
    raw = config_as_dict(result.config)
    values = [section[sub] for section, sub in (_config_section(raw, key) for key in _CONFIG_COLUMNS.values())]
    config_cells = [f"{value:.17g}" if isinstance(value, float) else value for value in values]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for p in result.points:
            writer.writerow([*config_cells, f"{p.snr_db:.17g}", p.bits_sent, p.bit_errors, f"{p.ber:.17g}", p.flag])


def _point_defect(rec: dict, n_bits: int):
    """(column, reason) of the first inconsistent point field of a results row, or None."""
    bits, errors = rec["bits"], rec["errors"]
    if rec["flag"] not in (FLAG_OK, FLAG_BELOW_RESOLUTION):
        return "flag", f"is not {FLAG_OK!r} or {FLAG_BELOW_RESOLUTION!r}"
    if bits < 1 or bits % n_bits:
        return "bits", f"is not a positive multiple of {n_bits} bits per frame"
    if not 0 <= errors <= bits:
        return "errors", f"lies outside [0, bits = {bits}]"
    if rec["ber"] != errors / bits:
        return "ber", f"is not errors / bits = {errors / bits!r}"
    return None


def read_results(path) -> SweepResult:
    """Read a CSV written by write_results.

    Fields not stored in the file (master seed, stopping parameters) take
    their SimConfig defaults.  Malformed or inconsistent files raise
    ConfigError naming the offending line and column: every row must carry
    the first row's config, an snr_db above the previous row's, a known
    flag, 0 <= errors <= bits, whole frames of bits and ber = errors / bits
    exactly (it is written with 17 significant digits).
    """
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty results file") from None
        if header != RESULT_COLUMNS:
            missing = [c for c in RESULT_COLUMNS if c not in header]
            if missing:
                raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
            raise ConfigError(f"{path}: unexpected column order {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RESULT_COLUMNS):
                raise ConfigError(f"{path}:{lineno}: expected {len(RESULT_COLUMNS)} fields, got {len(row)}")
            rec = dict(zip(RESULT_COLUMNS, row))
            for col in ("k", "N", "M", "qam", "bits", "errors"):
                try:
                    rec[col] = int(rec[col])
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: field {col!r} is not an integer: {rec[col]!r}") from None
            for col in ("zeta_t", "zeta_r", "theta_rad", "snr_db", "ber"):
                try:
                    rec[col] = float(rec[col])
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: field {col!r} is not a number: {rec[col]!r}") from None
            for col in _CONFIG_COLUMNS:
                if rows and rec[col] != rows[0][1][col]:
                    raise ConfigError(
                        f"{path}:{lineno}: field {col!r} is {rec[col]!r}, the first row has {rows[0][1][col]!r}"
                    )
            if rows and not rec["snr_db"] > rows[-1][1]["snr_db"]:
                raise ConfigError(
                    f"{path}:{lineno}: field 'snr_db' is {rec['snr_db']!r}, not above the previous row's "
                    f"{rows[-1][1]['snr_db']!r}"
                )
            rows.append((lineno, rec))
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    first_line, first = rows[0]
    raw = {"snr_db_list": [r["snr_db"] for _, r in rows], "scenario": {}}
    for col, key in _CONFIG_COLUMNS.items():
        section, sub = _config_section(raw, key)
        section[sub] = first[col]
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}:{first_line}: {exc}") from None
    n_bits = config.m * qam_spec(config.qam_order).bits_per_symbol
    for lineno, r in rows:
        defect = _point_defect(r, n_bits)
        if defect:
            col, why = defect
            raise ConfigError(f"{path}:{lineno}: field {col!r} {why}: {r[col]!r}")
    points = tuple(
        BerPoint(snr_db=r["snr_db"], bits_sent=r["bits"], bit_errors=r["errors"], ber=r["ber"],
                 frames=r["bits"] // n_bits, flag=r["flag"])
        for _, r in rows
    )
    return SweepResult(config=config, points=points)


def write_plot_data(result: SweepResult, path) -> None:
    """Write bare `snr_db,ber` lines for external plotting tools."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("snr_db,ber\n")
        for p in result.points:
            fh.write(f"{p.snr_db:.17g},{p.ber:.17g}\n")


def interpolate_snr_at_ber(points, ber_level: float) -> float:
    """SNR (dB) where the curve crosses ber_level, log-linear interpolation.

    Uses the first bracketing pair scanning in increasing SNR; points with
    zero errors are ignored.  Raises if the curve never crosses the level.
    """
    if ber_level <= 0:
        raise ValueError(f"ber_level must be > 0, got {ber_level}")
    usable = [(p.snr_db, p.ber) for p in sorted(points, key=lambda p: p.snr_db) if p.ber > 0]
    if len(usable) < 2:
        raise ValueError("need at least two nonzero-BER points to interpolate")
    target = math.log10(ber_level)
    for (s0, b0), (s1, b1) in zip(usable, usable[1:]):
        l0, l1 = math.log10(b0), math.log10(b1)
        if (l0 - target) == 0.0:
            return s0
        if (l0 - target) * (l1 - target) <= 0.0 and l0 != l1:
            return s0 + (s1 - s0) * (target - l0) / (l1 - l0)
    raise ValueError(f"curve does not cross BER {ber_level:g} within the sweep range")


def snr_gap(points_a, points_b, ber_level: float) -> float:
    """SNR gap (dB) between two curves at a BER level: curve A minus curve B."""
    return interpolate_snr_at_ber(points_a, ber_level) - interpolate_snr_at_ber(points_b, ber_level)


_SCENARIO_KEYS = {"kind", "zeta_t", "zeta_r", "theta_rad"}
_CONFIG_FIELDS = fields(SimConfig)


def config_from_dict(raw: dict) -> SimConfig:
    """Build a SimConfig from parsed JSON.

    Only unknown and missing keys are checked here; SimConfig checks the values.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {f.name for f in _CONFIG_FIELDS}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = {f.name for f in _CONFIG_FIELDS if f.default is MISSING} - set(raw)
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(sorted(missing))}")
    scenario_raw = raw.get("scenario", {})
    if not isinstance(scenario_raw, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(scenario_raw) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")
    scenario = {("theta" if key == "theta_rad" else key): value for key, value in scenario_raw.items()}
    return SimConfig(**{**raw, "scenario": ChannelScenario(**scenario)})


def load_config(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw)


def apply_overrides(config: SimConfig, overrides: dict[str, object]) -> SimConfig:
    """Apply flat or dotted key=value overrides on top of a config.

    The overrides are merged into the config's dict form, which then goes
    through config_from_dict exactly like a config file.
    """
    merged = config_as_dict(config)
    for key, value in overrides.items():
        section, sub = _config_section(merged, key)
        if sub not in section or (section is merged and sub == "scenario"):
            raise ConfigError(f"unknown override key: {key}")
        section[sub] = value
    return config_from_dict(merged)


def _config_section(raw: dict, key: str) -> tuple[dict, str]:
    """(the dict holding key, key's name in it) for a flat or `scenario.`-dotted key of a config dict."""
    if key.startswith("scenario."):
        return raw["scenario"], key[len("scenario."):]
    return raw, key


def config_as_dict(config: SimConfig) -> dict:
    """Round-trippable dict form of a config (JSON-compatible)."""
    raw = asdict(config)
    raw["snr_db_list"] = list(config.snr_db_list)
    raw["scenario"]["theta_rad"] = raw["scenario"].pop("theta")
    return raw
