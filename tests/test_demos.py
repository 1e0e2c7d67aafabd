"""Smoke tests: the demos run to the end against the public API.

Each demo runs with runpy in a temporary working directory, since
ber_sweep.py writes its CSVs to the cwd.  correlation_study.py is left out
because it takes about half a minute.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["solver_convergence.py", "complexity_comparison.py", "ber_sweep.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
