"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, that the tiny workloads pass their gate, that a corrupted
output (a flipped verdict, a changed digest, a broken coloring, an op that
raises) is counted as a failed op, and that the benchmark refuses to run
without the program's sources.  Exits 1 on the first broken expectation.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import rainbow3  # noqa: E402
from harness import TRACE_DIR, digest, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 0.3


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def declared_units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tiny(name: str, trace: bool = False, reference: dict | None = None) -> dict:
    return run_workload(name, SEED, SECONDS, trace, tiny=True, reference=reference)


@dataclasses.dataclass
class patched:
    """Replace a package attribute for the duration of a with-block."""

    attr: str
    value: object

    def __enter__(self):
        self.orig = getattr(rainbow3, self.attr)
        setattr(rainbow3, self.attr, self.value(self.orig))

    def __exit__(self, *exc):
        setattr(rainbow3, self.attr, self.orig)


def main() -> int:
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        units = declared_units(kind)
        for name in WORKLOADS:
            result = tiny(name, trace)
            got = {k: unit for k, (_, unit) in result["metrics"].items()}
            expect(got == units,
                   f"{name} trace={int(trace)} emits every {kind} metric with its unit")
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)} passes its gate ({result['attempted']} ops)")

    def flip(orig):
        def flipped(g, c, **kwargs):
            rep = orig(g, c, **kwargs)
            return dataclasses.replace(rep, verdict=not rep.verdict)
        return flipped

    with patched("is_3_rainbow", flip):
        result = tiny("verify-desk")
    expect(0 < result["failed"] < result["attempted"],
           f"flipped verdicts fail every verify op but not the exact ops "
           f"({result['failed']} of {result['attempted']})")

    def drop_edge(orig):
        def broken(g, dom, **kwargs):
            coloring, certs, report = orig(g, dom, **kwargs)
            assignment = dict(coloring.assignment)
            assignment.pop(min(assignment))
            return rainbow3.EdgeColoring.from_dict(assignment), certs, report
        return broken

    with patched("three_way_coloring", drop_edge):
        result = tiny("construct-large")
    expect(result["failed"] == result["attempted"], "a coloring that is not total fails the op")

    def boom(orig):
        def raising(g, **kwargs):
            raise RuntimeError("injected")
        return raising

    with patched("bounds_report", boom):
        result = tiny("bounds-mid")
    expect(result["failed"] == result["attempted"], "an op that raises is a failed op")

    ops = WORKLOADS["bounds-mid"].setup(SEED, True)
    reference = {op.name: digest(op.text(op.run())) for op in ops}
    result = tiny("bounds-mid", reference=reference)
    expect(result["failed"] == 0, "unchanged outputs match their digests")
    reference[ops[0].name] = digest("something else")
    result = tiny("bounds-mid", reference=reference)
    expect(result["failed"] == result["info"]["passes"],
           f"a changed digest fails its op once per pass "
           f"({result['failed']} of {result['attempted']})")

    bare = os.path.join(ROOT, TRACE_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program's sources the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
