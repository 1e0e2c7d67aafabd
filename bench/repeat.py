"""Run the benchmark over ten seeds and report each metric's spread.

    python3 bench/repeat.py [--out FILE]

Runs `run.py --trace 0` for seeds 1..10 on every workload of
BENCHMARK.json, for its run_seconds, one run at a time.  For every
end-to-end metric it prints the median of the runs, their quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to
the metric's bound.  It fails if a run fails, reports a wrong
result, or reports other metric names or units than BENCHMARK.json lists.
With --out it also writes the summary and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900
RUNS = 10
FIRST_SEED = 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    summary: dict[str, dict] = {}
    machine = None
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(lines[-1])
            got_units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or got_units != units:
                raise SystemExit(f"{workload} seed {seed}: wrong result or metric set: {lines[-1]}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            record = BENCH / "out" / f"result-{workload}-seed{seed}-trace0.json"
            machine = json.loads(record.read_text(encoding="ascii"))["machine"]
        summary[workload] = {}
        print(f"{workload}: {RUNS} runs of {seconds:g} s, seeds {FIRST_SEED}..{seed}")
        for m in metrics:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median if median else 0.0
            bound = m["bound"]
            summary[workload][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": xs,
            }
            print(f"  {m['name']:<15} median {median:<12.6g} {m['unit']:<6} spread {spread:.4f}  bound {bound:g}")
    if args.out:
        out = {"runs": RUNS, "first_seed": FIRST_SEED, "seconds": seconds,
               "machine": machine, "workloads": summary}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
