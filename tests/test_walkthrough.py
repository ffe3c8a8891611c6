"""Smoke test: the guided tour in scripts/ runs against the current API."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "duality_walkthrough.py"


def test_duality_walkthrough_runs(capsys):
    runpy.run_path(str(SCRIPT), run_name="walkthrough")["main"]()
    out = capsys.readouterr().out
    assert "(matches: True)" in out
    assert "squares to zero: True" in out
