"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Set-up is importing the package, building the workload's inputs and the
first-call warm-up (correlation square roots, QAM tables).  Prints the
seconds it took.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.warm_up(workload.prepare(int(sys.argv[2])))
print(time.perf_counter() - start)
