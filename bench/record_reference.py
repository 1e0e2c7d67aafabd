"""Record the reference outputs that the benchmark checks against.

    python3 bench/record_reference.py

Writes bench/reference.json with
* every BER point (detector, snr_db, frames, bits, errors, flag) of each
  ber-* workload at the default seed and at one held-out seed: the
  seeding contract says any later version must reproduce them exactly;
* the operation counts of the counted run of krylov-m2-32 for every
  (algorithm, M), which depend on nothing else.

Run it only at a commit whose outputs are trusted.
"""

import json
import re
import sys
from pathlib import Path

from machine import cap_blas_threads

BENCH = Path(__file__).resolve().parent
HELD_OUT_SEED = 1802


def main() -> None:
    cap_blas_threads()
    sys.path.insert(0, str(BENCH.parent / "src"))
    from workloads import COUNTED, MASTER_SEED, WORKLOADS, BerSweep, counted_run

    from rbdmimo.complexity import measured_cost, random_problem

    ber_points = {
        w.name: {
            str(seed): [list(row) for row in w.digest(w.run_pass(w.prepare(seed)))]
            for seed in (MASTER_SEED, HELD_OUT_SEED)
        }
        for w in WORKLOADS.values()
        if isinstance(w, BerSweep)
    }
    counted_ops: dict[str, dict[str, list[int]]] = {alg: {} for alg in COUNTED}
    for m in range(2, WORKLOADS["krylov-m2-32"].m_range[1] + 1):
        for index in range(len(COUNTED)):
            alg, k = counted_run(index, m)
            cost = measured_cost(alg, random_problem(m, MASTER_SEED), k)
            counted_ops[alg][str(m)] = [cost.complex_adds, cost.complex_mults]
    reference = {
        "master_seed": MASTER_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "ber_points": ber_points,
        "counted_ops": counted_ops,
    }
    # One line per innermost list keeps the file short and its diffs readable.
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(reference, indent=1))
    (BENCH / "reference.json").write_text(text + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
