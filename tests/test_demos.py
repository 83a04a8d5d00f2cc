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
