"""Tests for the OpenBLAS thread control that a sweep's pool workers run."""

import os
import subprocess
import sys
from pathlib import Path

import rbdmimo
import rbdmimo.blas as blas


def test_does_nothing_without_openblas(monkeypatch):
    # a BLAS that exports none of the OpenBLAS thread-count names is left alone
    monkeypatch.setattr(blas, "_SYMBOLS", {"set": ("no_such_symbol",), "get": ("no_such_symbol",)})
    assert blas.openblas_function("get") is None and blas.openblas_function("set") is None
    blas.single_thread()


def test_package_import_leaves_it_unloaded():
    # the child imports the package this test imported, installed or not
    path = [str(Path(rbdmimo.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rbdmimo; print('rbdmimo.blas' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert out.stdout.split() == ["False"]
