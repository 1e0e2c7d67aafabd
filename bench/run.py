"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the run times repeated passes of the workload for S seconds
and reports the end-to-end metrics.  With --trace 1 it also replays one
pass call by call with spans and reports the per-layer metrics instead.
Either way every pass is checked (see workloads.py), each metric is
printed as `name = value unit`, a full record goes to bench/out/, and the
last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from machine import REFERENCE_WORK_S, cap_blas_threads, machine_info, reference_work
from spans import Tracer, durations_us, read_spans, self_time_us, summarize, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_PASSES = 3
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
REFERENCE_REPEATS = 5

# Spans that only a traced replay runs: run_trial cross-checks and
# reference probes beside the replayed path.
TRACE_ONLY_SPANS = {"sim.run_trial", "linalg.cholesky", "linalg.np_solve", "linalg.eigen_extrema"}
# Spans whose durations are reported but that repeat work outside the
# replayed path, so they are left out of the layers' self times.
PROBE_SPANS = TRACE_ONLY_SPANS | {"complexity.uncounted_run"}
TIMED_SPANS = (
    "rngstream.uniform_stream", "rngstream.bits", "channel.generate_channel",
    "modem.qam_modulate", "modem.awgn_add", "modem.qam_demodulate_hard",
    "detectors.preprocess", "detectors.cholesky", "detectors.minres", "detectors.gmres",
    "detectors.cr", "linalg.cholesky", "linalg.eigen_extrema", "linalg.np_solve", "sim.run_trial",
)
SELF_TIME_LAYERS = ("rngstream", "channel", "modem", "detectors", "complexity", "sim")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20_260_809)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_once(workload: str, seed: int) -> float:
    """Seconds one cold set-up takes, measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Peak resident set of this process; the set-up probes' children are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mismatches(got, want) -> set[int]:
    """Indices where two digests differ, every index if their lengths differ."""
    if len(got) != len(want):
        return set(range(max(len(got), len(want))))
    return {i for i, (a, b) in enumerate(zip(got, want)) if a != b}


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(spans, counts, workload, untraced_s: float, traced_s: float) -> dict:
    from workloads import COUNTED

    durations = durations_us(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        stats = summarize(durations.get(name, []))
        metrics[f"{name}_us.p50"] = (stats["p50"], "us")
        metrics[f"{name}_us.tail"] = (stats["tail"], "us")
        metrics[f"{name}_us.n"] = (stats["n"], "count")
    metrics["rngstream.normals_per_frame"] = (workload.normals_per_item, "count")
    for det in COUNTED:
        metrics[f"detectors.{det}.iterations_mean"] = (_mean(counts.get(f"detectors.{det}.iterations")), "count")
        metrics[f"detectors.{det}.early_stop_frac"] = (_mean(counts.get(f"detectors.{det}.early_stop")), "frac")
        metrics[f"complexity.{det}.mults_per_solve"] = (_mean(counts.get(f"complexity.{det}.mults")), "count")
        metrics[f"complexity.{det}.adds_per_solve"] = (_mean(counts.get(f"complexity.{det}.adds")), "count")
    uncounted = sum(durations.get("complexity.uncounted_run", []))
    counted = sum(durations.get("complexity.measured_cost", []))
    metrics["complexity.counted_over_plain"] = (counted / uncounted if uncounted else 0.0, "ratio")

    # Glue: each frame's run_trial time minus the stage spans of its replay.
    run_trial_us: dict[int, float] = {}
    frame_ids: dict[int, int] = {}
    stage_us: dict[int, float] = defaultdict(float)
    for sid, _, item, name, start, end in spans:
        if name == "sim.run_trial":
            run_trial_us[item] = (end - start) / 1e3
        elif name == "sim.frame":
            frame_ids[sid] = item
    for _, parent, _, _, start, end in spans:
        if parent in frame_ids:
            stage_us[frame_ids[parent]] += (end - start) / 1e3
    glue = [run_trial_us[i] - stage_us[i] for i in run_trial_us if i in stage_us]
    metrics["sim.glue_us"] = (summarize(glue)["p50"], "us")
    metrics["sim.frames"] = (len(frame_ids), "count")
    # The traced replay over the same replay with tracing off, less the
    # probes that only the traced replay runs.
    probe_s = sum(sum(durations.get(name, [])) for name in TRACE_ONLY_SPANS) / 1e6
    metrics["trace_overhead"] = ((traced_s - probe_s) / untraced_s, "ratio")

    replayed = [s for s in spans if s[3] not in PROBE_SPANS]
    items = len({s[2] for s in replayed}) or 1
    self_us = self_time_us(replayed)
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us_per_item"] = (self_us.get(layer, 0.0) / items, "us")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import rbdmimo

    if Path(rbdmimo.__file__).resolve().parent != (SRC / "rbdmimo").resolve():
        print(f"rbdmimo was imported from {rbdmimo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BerSweep

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    OUT.mkdir(exist_ok=True)

    inputs = workload.prepare(args.seed)
    workload.warm_up(inputs)

    # Passes run until their summed time reaches --seconds, each followed
    # by the fixed reference work.  The set-up probes are spread over that
    # time, so that they see the same mix of machine load as the passes.
    probes = 0 if args.trace else SETUP_REPEATS
    setup_s: list[float] = []
    pass_s: list[float] = []
    reference_s: list[float] = []
    attempted = failed = 0
    first = None
    while len(pass_s) < MIN_PASSES or sum(pass_s) < args.seconds:
        if len(setup_s) < probes and sum(pass_s) >= len(setup_s) * args.seconds / probes:
            setup_s.append(setup_once(args.workload, args.seed))
        start = time.perf_counter()
        output = workload.run_pass(inputs)
        pass_s.append(time.perf_counter() - start)
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_work()
            reference_s.append(time.perf_counter() - start)
        digest = workload.digest(output)
        if first is None:
            first, items = digest, workload.items(output)
        bad = workload.check(inputs, output, reference) | mismatches(digest, first)
        attempted += len(digest)
        failed += len(bad)

    tracers = [Tracer(False)] + ([Tracer(True)] if args.trace else [])
    replay_s = []
    for tracer in tracers:
        start = time.perf_counter()
        replayed, bad = workload.replay(inputs, tracer)
        replay_s.append(time.perf_counter() - start)
        bad |= mismatches(replayed, first)
        attempted += len(replayed)
        failed += len(bad)
    # Other tenants of a shared machine slow whole stretches of a run, often
    # all of it, so every time is scaled by how much slower than on the
    # reference machine the reference work ran in between.
    slowdown = statistics.median(reference_s) / REFERENCE_WORK_S
    wall_s = statistics.median(pass_s) / slowdown

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(ROOT, blas_cap), "items_per_pass": items, "pass_s": pass_s,
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(spans_path, tracer.spans)
        metrics = layer_metrics(read_spans(spans_path), tracer.counts, workload, *replay_s)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        extra = {}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s) / slowdown, "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (items / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record["setup_samples_s"] = setup_s
        record["reference_s"] = reference_s
        if isinstance(workload, BerSweep):
            extra = {
                "frames_per_s": (items / wall_s, "1/s"),
                "info_mbit_per_s": (items * workload.bits_per_item / wall_s / 1e6, "Mbit/s"),
            }
        else:
            extra = {"solves_per_s": (items / wall_s, "1/s")}
    extra["failed_frac"] = (failed / attempted, "frac")
    extra["slowdown"] = (slowdown, "ratio")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["metrics"] = result["metrics"]
    record["extra"] = {name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()}
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print(f"workload {args.workload} seed {args.seed}: {len(pass_s)} passes of {items} items, "
          f"{failed} of {attempted} checks failed; record in {record_path.relative_to(ROOT)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
