"""Smoke test of the reproduction script: it must run and every check it
prints must hold (the script itself exits 0 whatever it prints)."""
import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "reproduce_bounds.py"


def test_reproduce_bounds_runs_and_verifies():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("verified=True") == 3
    assert "verified=False" not in run.stdout
    chains = re.findall(r"diam=(\d+) expected=(\d+)", run.stdout)
    assert len(chains) == 7
    assert all(diam == expected for diam, expected in chains)
