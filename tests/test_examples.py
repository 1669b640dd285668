"""Every example script must run to completion as an integration check.

The scripts are trimmed via environment-free entry points, so this also
guards the public API surface they exercise.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {script.name for script in SCRIPTS}
    assert {"quickstart.py", "spectre_demo.py", "policy_sweep.py",
            "custom_workload.py", "register_scrubbing.py"} <= names


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_example_runs(script, capsys, monkeypatch):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), "example produced no output"


def test_spectre_demo_shows_block(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "spectre_demo.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "leaked: True" in out
    assert "leaked: False" in out


def test_register_scrubbing_shows_gpr_gap(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "register_scrubbing.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    lines = out.splitlines()
    permissive_line = next(l for l in lines if "GPR gap" in l)
    barrier_line = next(l for l in lines if "Listing-4" in l)
    assert "leaked=True" in permissive_line
    assert "leaked=False" in barrier_line
