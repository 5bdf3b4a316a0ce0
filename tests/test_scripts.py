"""Smoke tests of the scripts: the reproduction script must run and every
check it prints must hold (it exits 0 whatever it prints), and the
benchmark's self-test must pass against the current package API."""
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_bounds.py"


def test_reproduce_bounds_runs_and_verifies():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("verified=True") == 3
    assert "verified=False" not in run.stdout
    chains = re.findall(r"diam=(\d+) expected=(\d+)", run.stdout)
    assert len(chains) == 7
    assert all(diam == expected for diam, expected in chains)


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                         capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
