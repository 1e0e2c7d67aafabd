"""Seeded Monte-Carlo link-level BER simulation.

One trial is one block-fading frame: draw bits, modulate, draw a fresh
channel, add noise, preprocess, detect, hard-demap, count bit errors.
Every random draw derives from (master_seed, snr_index, trial_index)
through the documented 64-bit mixer, so any subset of points reproduces
exactly, in any execution order, serial or parallel.

Frames run in chunks, in two stages.  `draw_frames` draws the bits,
channels and noise of a whole chunk as stacked arrays and preprocesses
them into the MMSE problem; it reads no detector field of the config.
`frame_errors` then detects and demaps the drawn chunk under one config's
detector and counts each frame's bit errors.  `run_frames` is the two in
turn, and each frame of a chunk equals `run_trial` on its own seed.

A point starts with FIRST_CHUNK_FRAMES frames and doubles the chunk after
each one, up to CHUNK_ENTRIES entries of H (at least one frame), so it
pays the fixed cost of a chunk only a few times.  Each config adds up its
per-frame errors and stops at the first frame where the serial stop rule
holds, so frames, bits, errors and flags do not depend on the chunk
schedule, and the seeding contract is unchanged.

Trial seeds do not depend on the detector, so configs that differ only in
detector and k_iterations see the same frames.  `run_sweeps` takes such a
set of configs and draws each chunk once for all of them: every config
still running at a point decides the chunk, and the chunks go on until
the last config stops.  Its results equal separate sweeps exactly.
`run_sweep` is `run_sweeps` of one config and `run_ber_point` one point of
it, so there is one chunk loop.

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

from .channel import ChannelScenario, ConfigError, correlate_channel, finite_real
from .detectors import DETECTOR_NAMES, ITERATIVE_DETECTORS, MmseProblem, exact_detect, preprocess
from .modem import SUPPORTED_ORDERS, qam_demodulate_hard, qam_modulate, qam_spec
from .rngstream import _chunk_normals, _share_cpus, mix_seed, seed_array, uniform_bits_rows

SNR_CONVENTION = "sigma2 = M / 10^(snr_db/10) (per-receive-antenna SNR, unit symbol energy)"

FLAG_OK = "ok"
FLAG_BELOW_RESOLUTION = "below_resolution"

MIN_FRAMES_PER_POINT = 10
FIRST_CHUNK_FRAMES = 16
# most entries of H in one chunk (1 MiB of complex128); it also bounds each
# drawing thread's rngstream chunk buffer, at 1.125 MiB for 128x8 chunks
CHUNK_ENTRIES = 2**16
_SUB_STREAMS = np.arange(3)  # bits, channel, noise

# results CSV config column -> config_as_dict key, scenario keys dotted under "scenario."
_CONFIG_COLUMNS = {
    "detector": "detector", "k": "k_iterations", "N": "n", "M": "m", "qam": "qam_order",
    "scenario": "scenario.kind", "zeta_t": "scenario.zeta_t", "zeta_r": "scenario.zeta_r",
    "theta_rad": "scenario.theta_rad",
}
RESULT_COLUMNS = [*_CONFIG_COLUMNS, "snr_db", "bits", "errors", "ber", "flag"]

_INTEGER_FIELDS = ("n", "m", "qam_order", "k_iterations", "target_bit_errors", "max_bits", "master_seed")


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
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
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
                sigma2 = snr_to_sigma2(snr, self.m)
            except ArithmeticError:  # 10**(snr/10) overflows, or underflows to a zero divisor
                sigma2 = math.nan
            if not (math.isfinite(sigma2) and sigma2 > 0):
                raise ConfigError(f"snr_db_list entry {snr} dB gives no finite noise variance sigma2 > 0")
        object.__setattr__(self, "snr_db_list", snrs)
        if self.target_bit_errors < 100:
            raise ConfigError(f"target_bit_errors must be >= 100, got {self.target_bit_errors}")
        if self.max_bits < 1:
            raise ConfigError(f"max_bits must be >= 1, got {self.max_bits}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")


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
    if m < 1:
        raise ValueError(f"require M >= 1, got {m}")
    return m / 10.0 ** (snr_db / 10.0)


def draw_frames(config: SimConfig, snr_db: float, trial_seeds) -> tuple[np.ndarray, MmseProblem]:
    """The sent bits and the MMSE problem of each frame of a chunk, one frame per trial seed.

    The draw reads no detector field of the config, so every config that
    differs only in detector and k_iterations gets the same frames.
    trial_seeds is an integer array or a sequence of ints, each taken
    modulo 2**64 (see seed_array).  Sub-streams: mix_seed(trial_seed, 0)
    for bits, (..., 1) for the channel, (..., 2) for the noise, derived for
    the whole chunk at once.  The chunk's channel entries and noise come
    from one Box-Muller session in this thread's rngstream chunk buffer; each
    frame equals generate_channel and awgn_add on its own seeds, and
    preprocess checks that every h and y is finite.  The bits and the
    problem are fresh arrays, which later draws leave alone.
    """
    spec = qam_spec(config.qam_order)
    n_bits = config.m * spec.bits_per_symbol
    sub_seeds = mix_seed(seed_array(trial_seeds)[:, None], _SUB_STREAMS).T
    bits = uniform_bits_rows(sub_seeds[0], n_bits)
    symbols = qam_modulate(bits, spec)
    sigma2 = snr_to_sigma2(snr_db, config.m)
    w, noise = _chunk_normals([(sub_seeds[1], config.n * config.m, 1.0), (sub_seeds[2], config.n, sigma2)])
    h = correlate_channel(w.reshape(-1, config.n, config.m), config.scenario)
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


def run_frames(config: SimConfig, snr_db: float, trial_seeds) -> np.ndarray:
    """Bit errors of each frame of a chunk, one frame per trial seed (see draw_frames)."""
    return frame_errors(config, *draw_frames(config, snr_db, trial_seeds))


def run_trial(config: SimConfig, snr_db: float, trial_seed: int) -> tuple[int, int]:
    """One frame; returns (bit_errors, bits_sent).  Deterministic in trial_seed."""
    errors = run_frames(config, snr_db, [trial_seed])
    return int(errors[0]), config.m * qam_spec(config.qam_order).bits_per_symbol


def run_ber_point(config: SimConfig, snr_db: float, snr_index: int | None = None) -> BerPoint:
    """Accumulate trials at one SNR until target_bit_errors or max_bits.

    At least MIN_FRAMES_PER_POINT frames are always run.  Points that stop
    short of the error target carry the below-resolution flag.  Frames run
    in chunks of FIRST_CHUNK_FRAMES, then twice the previous chunk, never
    more than CHUNK_ENTRIES // (N*M) frames (at least one) nor past the
    bit budget's last frame; the point ends at the first frame that meets
    the stop rule, whatever the schedule.
    """
    if snr_index is None:
        try:
            snr_index = config.snr_db_list.index(float(snr_db))
        except ValueError:
            raise ValueError(f"snr_db {snr_db} is not in the configured sweep list") from None
    return _run_points((config,), snr_db, snr_index)[0]


def _run_points(configs, snr_db: float, snr_index: int) -> list[BerPoint]:
    """One BerPoint per config at one SNR, each chunk drawn once for every config still running.

    The configs differ only in detector and k_iterations.  Each one stops
    at its own frame under the serial rule; the chunks go on while any
    config runs, so a config that runs reads every frame of each chunk.
    """
    config = configs[0]
    n_bits = config.m * qam_spec(config.qam_order).bits_per_symbol
    # the bit budget ends a point at this frame, whatever its error count
    last_frame = max(MIN_FRAMES_PER_POINT, -(-config.max_bits // n_bits))
    cap = max(1, CHUNK_ENTRIES // (config.n * config.m))
    size = min(FIRST_CHUNK_FRAMES, cap)
    errors = [0] * len(configs)
    ends = [0] * len(configs)  # a config's last frame, 0 while it runs
    frames = 0
    while not all(ends):
        counts = np.arange(frames + 1, min(frames + size, last_frame) + 1)
        seeds = mix_seed(config.master_seed, snr_index, np.arange(frames, counts[-1]))
        bits, prob = draw_frames(config, snr_db, seeds)
        for i, cfg in enumerate(configs):
            if ends[i]:
                continue
            totals = errors[i] + np.cumsum(frame_errors(cfg, bits, prob))
            stops = ((counts >= MIN_FRAMES_PER_POINT) & (totals >= cfg.target_bit_errors)) | (counts == last_frame)
            end = int(np.argmax(stops)) if stops.any() else len(counts) - 1
            errors[i] = int(totals[end])
            if stops[end]:
                ends[i] = int(counts[end])
        frames = int(counts[-1])
        size = min(2 * size, cap)
    points = []
    for cfg, errs, end in zip(configs, errors, ends):
        bits_sent = end * n_bits
        points.append(BerPoint(
            snr_db=float(snr_db),
            bits_sent=bits_sent,
            bit_errors=errs,
            ber=errs / bits_sent,
            frames=end,
            flag=FLAG_OK if errs >= cfg.target_bit_errors else FLAG_BELOW_RESOLUTION,
        ))
    return points


def _point_task(args):
    """(the configs' points, None), or (None, the failure text) if the point raises."""
    configs, snr_db, snr_index = args
    try:
        return _run_points(configs, snr_db, snr_index), None
    except Exception as exc:  # noqa: BLE001 - run_sweeps aggregates and re-raises
        return None, f"snr_db={snr_db}: {exc}"


def _init_pool_worker(workers: int) -> None:
    """Set up a worker of a pool of `workers`: OpenBLAS on one thread, and the CPUs shared with the pool.

    The workers already run points in parallel, so BLAS threads of their
    own, or Box-Muller helper threads on CPUs the pool occupies, only
    contend with one another.  The parent process keeps both.
    """
    from .blas import single_thread

    single_thread()
    _share_cpus(workers)


def run_sweeps(configs, workers: int | None = None) -> tuple[SweepResult, ...]:
    """One SweepResult per config, drawing each frame once for all of them.

    The configs may differ only in detector and k_iterations; any other
    difference raises ConfigError.  Each point draws a chunk once and
    decides it for every config still running there, and each config's
    points equal those of run_sweep on it alone.  workers is None or an
    integer >= 1; points run in parallel across SNRs if workers > 1: seed
    derivation is index-based, so serial and parallel execution give
    bit-identical results.  Each pool worker runs BLAS on one thread (see
    _init_pool_worker).  Per-point failures are collected and raised
    together after every point has been attempted.
    """
    if workers is not None:
        if isinstance(workers, (bool, np.bool_)) or not isinstance(workers, (int, np.integer)) or workers < 1:
            raise ConfigError(f"workers must be None or an integer >= 1, got {workers!r}")
        workers = int(workers)
    configs = tuple(configs)
    if not configs:
        raise ConfigError("run_sweeps needs at least one config")
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if replace(cfg, detector=first.detector, k_iterations=first.k_iterations) != first:
            raise ConfigError(f"config {i} differs from config 0 in more than detector and k_iterations")
    tasks = [(configs, snr_db, i) for i, snr_db in enumerate(first.snr_db_list)]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 10-15 ms of import that only a pool needs

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker, initargs=(workers,)) as pool:
            outcomes = list(pool.map(_point_task, tasks))
    else:
        outcomes = [_point_task(task) for task in tasks]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise RuntimeError(f"{len(failures)} sweep point(s) failed: " + "; ".join(failures))
    return tuple(
        SweepResult(config=cfg, points=tuple(points[i] for points, _ in outcomes)) for i, cfg in enumerate(configs)
    )


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


def plot_data(result: SweepResult) -> list[tuple[float, float]]:
    """(snr_db, ber) pairs of a sweep, ready for external plotting."""
    return [(p.snr_db, p.ber) for p in result.points]


def write_plot_data(result: SweepResult, path) -> None:
    """Write bare `snr_db,ber` lines for external plotting tools."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("snr_db,ber\n")
        for snr_db, ber in plot_data(result):
            fh.write(f"{snr_db:.17g},{ber:.17g}\n")


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
