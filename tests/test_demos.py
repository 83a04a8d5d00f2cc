"""Smoke test: the demo scripts run to completion (each asserts its own checks)."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["pipeline_tour.py", "warmup_tour.py"])
def test_demo_runs(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert "0 mismatches" in capsys.readouterr().out


def test_size_report_prints_one_row_per_size_and_variant(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["size_report.py"])
    runpy.run_path(str(DEMOS / "size_report.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [r for r in rows if len(r) == 6 and r[1] in ("third", "average")]
    assert [(int(r[0]), r[1]) for r in rows] == [
        (n, v) for n in (200, 500, 1000) for v in ("third", "average")
    ]
    for n, _, mean, top, quarter, half in rows:
        assert 0 < float(mean) <= int(top)
        assert (int(quarter), int(half)) == (int(n) // 4, int(n) // 2)
