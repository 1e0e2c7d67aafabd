"""Machine record, BLAS thread cap and a reference computation that gauges machine speed.

Importing this module does not import numpy, so `cap_blas_threads` can set
the thread environment before the BLAS library loads.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Every workload runs in one process on matrices of at most 128 x 32, where
# BLAS threads only add hand-off cost; one thread also keeps the run's
# thread count below the cores the machine reports.
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Set the BLAS thread variables to BLAS_THREADS and return the cap."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.readlines()
    except OSError:
        return []


def _cpu_model() -> str:
    for line in _read_lines("/proc/cpuinfo"):
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be queried."""
    lines = _read_lines("/proc/self/maps")
    paths = sorted({line.split()[-1] for line in lines if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == root.resolve() else None


def _source_stats(src: Path) -> tuple[int, str]:
    """Line count and sha256 of every .py file under src, in path order."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def machine_info(root: Path, blas_cap: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines, src_sha = _source_stats(root / "src")
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_cap": blas_cap,
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
        "src_sha256": src_sha,
    }


_QAM64 = [complex(a, b) for a in range(-7, 8, 2) for b in range(-7, 8, 2)]
# The median time of reference_work in benchmark runs on the 2-vCPU Xeon VM
# the bounds were set on, with BLAS capped at one thread.  Times scaled by
# it read about as in a typical run on that machine.
REFERENCE_WORK_S = 5.5e-3


def reference_work() -> int:
    """A fixed computation in the workloads' mix, used to gauge the machine's speed.

    Forty 128 x 8 frames: draw a channel, symbols and noise, form the
    normal equations, take four residual-descent steps in a Python loop and
    slice to the nearest 64-QAM point.  It uses numpy only, never rbdmimo,
    so its time does not change with the program.
    """
    import numpy as np

    gen = np.random.default_rng(7)
    const = np.array(_QAM64) / np.sqrt(42.0)
    eye = 0.1 * np.eye(8)
    decided = 0
    for _ in range(40):
        h = gen.standard_normal((128, 8)) + 1j * gen.standard_normal((128, 8))
        y = h @ const[gen.integers(0, 64, size=8)] + 0.1 * gen.standard_normal(128)
        a = h.conj().T @ h + eye
        b = h.conj().T @ y
        s = np.zeros(8, complex)
        r = b
        for _ in range(4):
            ar = a @ r
            s = s + (np.vdot(ar, r) / np.vdot(ar, ar)) * r
            r = b - a @ s
        decided += int(np.abs(s[:, None] - const[None, :]).argmin(axis=1).sum())
    return decided
