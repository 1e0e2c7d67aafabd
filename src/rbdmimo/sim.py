"""Seeded Monte-Carlo link-level BER simulation.

One trial is one block-fading frame: draw bits, modulate, draw a fresh
channel, add noise, preprocess, detect, hard-demap, count bit errors.
Every random draw derives from (master_seed, snr_index, trial_index)
through the documented 64-bit mixer, so any subset of points reproduces
exactly, in any execution order, serial or parallel.

Frames run in chunks: `run_frames` draws, detects and demaps a whole
chunk as stacked arrays, and each frame of the chunk equals `run_trial` on
its own seed.  `run_ber_point` starts with FIRST_CHUNK_FRAMES frames and
doubles the chunk after each one, up to CHUNK_ENTRIES entries of H (at
least one frame), so a point pays the fixed cost of a chunk only a few
times.  It adds up the per-frame errors and stops at the first frame where
the serial stop rule holds, so frames, bits, errors and flags do not
depend on the chunk schedule, and the seeding contract is unchanged.

SNR convention: sigma2 = M / 10^(snr_db / 10), i.e. per-receive-antenna
SNR at unit average symbol energy.  Detector comparisons are SNR gaps
between curves and are invariant to this choice.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .channel import ChannelScenario, ConfigError, finite_real, generate_channel
from .detectors import DETECTOR_NAMES, ITERATIVE_DETECTORS, exact_detect, preprocess
from .modem import SUPPORTED_ORDERS, awgn_add, qam_demodulate_hard, qam_modulate, qam_spec
from .rngstream import mix_seed, seed_array, uniform_bits_rows

SNR_CONVENTION = "sigma2 = M / 10^(snr_db/10) (per-receive-antenna SNR, unit symbol energy)"

FLAG_OK = "ok"
FLAG_BELOW_RESOLUTION = "below_resolution"

MIN_FRAMES_PER_POINT = 10
FIRST_CHUNK_FRAMES = 16
CHUNK_ENTRIES = 2**16  # most entries of H in one chunk (1 MiB of complex128)
_SUB_STREAMS = np.arange(3)  # bits, channel, noise

RESULT_COLUMNS = [
    "detector", "k", "N", "M", "qam", "scenario", "zeta_t", "zeta_r",
    "theta_rad", "snr_db", "bits", "errors", "ber", "flag",
]

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


def _detect(config: SimConfig, prob):
    if config.detector == "cholesky":
        return exact_detect(prob)
    return ITERATIVE_DETECTORS[config.detector](prob, config.k_iterations)


def run_frames(config: SimConfig, snr_db: float, trial_seeds) -> np.ndarray:
    """Bit errors of each frame of a chunk, one frame per trial seed.

    trial_seeds is an integer array or a sequence of ints, each taken
    modulo 2**64 (see seed_array).  Sub-streams: mix_seed(trial_seed, 0)
    for bits, (..., 1) for the channel, (..., 2) for the noise, derived for
    the whole chunk at once.
    """
    spec = qam_spec(config.qam_order)
    n_bits = config.m * spec.bits_per_symbol
    sub_seeds = mix_seed(seed_array(trial_seeds)[:, None], _SUB_STREAMS).T
    bits = uniform_bits_rows(sub_seeds[0], n_bits)
    symbols = qam_modulate(bits, spec)
    h = generate_channel(config.n, config.m, config.scenario, sub_seeds[1]).H
    sigma2 = snr_to_sigma2(snr_db, config.m)
    y = awgn_add(np.matvec(h, symbols), sigma2, sub_seeds[2])
    detected = _detect(config, preprocess(h, y, sigma2))
    bits_hat = qam_demodulate_hard(detected.s_hat, spec)
    return np.count_nonzero(bits_hat != bits, axis=-1)


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
    n_bits = config.m * qam_spec(config.qam_order).bits_per_symbol
    # the bit budget ends a point at this frame, whatever its error count
    last_frame = max(MIN_FRAMES_PER_POINT, -(-config.max_bits // n_bits))
    cap = max(1, CHUNK_ENTRIES // (config.n * config.m))
    size = min(FIRST_CHUNK_FRAMES, cap)
    errors = frames = 0
    done = False
    while not done:
        counts = np.arange(frames + 1, min(frames + size, last_frame) + 1)
        seeds = mix_seed(config.master_seed, snr_index, np.arange(frames, counts[-1]))
        totals = errors + np.cumsum(run_frames(config, snr_db, seeds))
        stops = ((counts >= MIN_FRAMES_PER_POINT) & (totals >= config.target_bit_errors)) | (counts == last_frame)
        end = int(np.argmax(stops)) if stops.any() else len(counts) - 1
        frames, errors, done = int(counts[end]), int(totals[end]), bool(stops[end])
        size = min(2 * size, cap)
    bits = frames * n_bits
    flag = FLAG_OK if errors >= config.target_bit_errors else FLAG_BELOW_RESOLUTION
    return BerPoint(
        snr_db=float(snr_db),
        bits_sent=bits,
        bit_errors=errors,
        ber=errors / bits,
        frames=frames,
        flag=flag,
    )


def _point_task(args):
    config, snr_db, snr_index = args
    return run_ber_point(config, snr_db, snr_index)


def run_sweep(config: SimConfig, workers: int | None = None) -> SweepResult:
    """One BerPoint per configured SNR; optionally parallel across points.

    Seed derivation is index-based, so serial and parallel execution give
    bit-identical results.  Per-point failures are collected and raised
    together after every point has been attempted.
    """
    tasks = [(config, snr_db, i) for i, snr_db in enumerate(config.snr_db_list)]
    points: list[BerPoint | None] = [None] * len(tasks)
    failures: list[str] = []
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_point_task, task) for task in tasks]
            for i, future in enumerate(futures):
                try:
                    points[i] = future.result()
                except Exception as exc:  # noqa: BLE001 - aggregate and re-raise below
                    failures.append(f"snr_db={tasks[i][1]}: {exc}")
    else:
        for i, task in enumerate(tasks):
            try:
                points[i] = _point_task(task)
            except Exception as exc:  # noqa: BLE001 - aggregate and re-raise below
                failures.append(f"snr_db={task[1]}: {exc}")
    if failures:
        raise RuntimeError(f"{len(failures)} sweep point(s) failed: " + "; ".join(failures))
    return SweepResult(config=config, points=tuple(points))


def write_results(result: SweepResult, path) -> None:
    """Write the sweep as CSV with the fixed column schema."""
    cfg = result.config
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for p in result.points:
            writer.writerow([
                cfg.detector,
                cfg.k_iterations,
                cfg.n,
                cfg.m,
                cfg.qam_order,
                cfg.scenario.kind,
                f"{cfg.scenario.zeta_t:.17g}",
                f"{cfg.scenario.zeta_r:.17g}",
                f"{cfg.scenario.theta:.17g}",
                f"{p.snr_db:.17g}",
                p.bits_sent,
                p.bit_errors,
                f"{p.ber:.17g}",
                p.flag,
            ])


def read_results(path) -> SweepResult:
    """Read a CSV written by write_results.

    Fields not stored in the file (master seed, stopping parameters) take
    their SimConfig defaults.  Malformed files raise ConfigError naming the
    offending line and column.
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
            rows.append(rec)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    first = rows[0]
    config = SimConfig(
        n=first["N"],
        m=first["M"],
        qam_order=first["qam"],
        detector=first["detector"],
        k_iterations=first["k"],
        snr_db_list=tuple(r["snr_db"] for r in rows),
        scenario=ChannelScenario(
            kind=first["scenario"],
            zeta_t=first["zeta_t"],
            zeta_r=first["zeta_r"],
            theta=first["theta_rad"],
        ),
    )
    points = tuple(
        BerPoint(
            snr_db=r["snr_db"],
            bits_sent=r["bits"],
            bit_errors=r["errors"],
            ber=r["ber"],
            frames=r["bits"] // (first["M"] * qam_spec(first["qam"]).bits_per_symbol),
            flag=r["flag"],
        )
        for r in rows
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
        section, sub = merged, key
        if key.startswith("scenario."):
            section, sub = merged["scenario"], key[len("scenario."):]
        if sub not in section or (section is merged and sub == "scenario"):
            raise ConfigError(f"unknown override key: {key}")
        section[sub] = value
    return config_from_dict(merged)


def config_as_dict(config: SimConfig) -> dict:
    """Round-trippable dict form of a config (JSON-compatible)."""
    return {
        "n": config.n,
        "m": config.m,
        "qam_order": config.qam_order,
        "detector": config.detector,
        "k_iterations": config.k_iterations,
        "snr_db_list": list(config.snr_db_list),
        "scenario": {
            "kind": config.scenario.kind,
            "zeta_t": config.scenario.zeta_t,
            "zeta_r": config.scenario.zeta_r,
            "theta_rad": config.scenario.theta,
        },
        "target_bit_errors": config.target_bit_errors,
        "max_bits": config.max_bits,
        "master_seed": config.master_seed,
    }
