"""The scripts in ``demos/`` run to the end against the current API."""
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script,argv,expected", [
    ("01_worked_example.py", [], ["hand-run steps bitwise_equal to reindex: True",
                                  "soup preserved: True", "matches serial baseline: True"]),
    ("02_use_cases.py", [], ["16 in, 10 out", "round trip exact: True"]),
    ("03_benchmark.py", ["8"], ["vertices_out", "wrote bench.csv"]),
])
def test_demo_runs(tmp_path, monkeypatch, capsys, script, argv, expected):
    monkeypatch.chdir(tmp_path)  # 03_benchmark.py writes bench.csv here
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    stdout = capsys.readouterr().out
    for line in expected:
        assert line in stdout
