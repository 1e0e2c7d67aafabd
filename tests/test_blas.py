"""Tests for the OpenBLAS thread control that a sweep's pool workers run."""

import subprocess
import sys

import rbdmimo.blas as blas


def test_does_nothing_without_openblas(monkeypatch):
    # a BLAS that exports none of the OpenBLAS thread-count names is left alone
    monkeypatch.setattr(blas, "_SYMBOLS", {"set": ("no_such_symbol",), "get": ("no_such_symbol",)})
    assert blas.openblas_function("get") is None and blas.openblas_function("set") is None
    blas.single_thread()


def test_package_import_leaves_it_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rbdmimo; print('rbdmimo.blas' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["False"]
