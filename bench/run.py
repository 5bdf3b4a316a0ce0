"""rainbow3 benchmark: one seeded workload, measured end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload verify-desk --seed 3 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end set, with ``--trace 1`` the per-layer set
(see BENCHMARK.json and bench/README.md).  Lines before it start with '#'
and record the seed, the pass count, the tail percentile and its sample
count.

``--write-reference`` runs one pass at the reference seed and stores the
output digest of every op in bench/reference.json; do it only when an
output change is intended.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("construct-large", "verify-desk", "bounds-mid"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def write_reference(workload: str) -> None:
    from harness import REFERENCE_FILE, REFERENCE_SEED, digest
    from workloads import WORKLOADS

    digests = {}
    for op in WORKLOADS[workload].setup(REFERENCE_SEED, False):
        out = op.run()
        if not op.check(out):
            raise SystemExit(f"{workload}: op {op.name} fails its structural check")
        digests[op.name] = digest(op.text(out))
    data = {}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            data = json.load(fh)
    data[workload] = digests
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"# wrote {len(digests)} digests for {workload} to {REFERENCE_FILE}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rainbow3", "__init__.py")):
        print("run.py: src/rainbow3 not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_reference:
        write_reference(args.workload)
        return 0
    from harness import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in result["info"].items():
        print(f"# {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
