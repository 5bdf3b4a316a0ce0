"""Closed-loop measurement, the correctness gate and the metric sets.

One process, one op at a time: the next op starts only after the previous
one returned and passed the gate.  Ops run in passes over the workload's
pool, each pass in a seeded order.  End-to-end times are scaled by a speed
probe timed next to every op (see SpeedProbe).
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from tracing import LAYERS, NAME, OP, START, END, FAILED, TRACED, Tracer
from workloads import WORKLOADS, Op

REFERENCE_SEED = 1
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SETUP_REPS = 3
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail
TRACE_DIR = ".bench_trace"


class SpeedProbe:
    """A fixed piece of graph work owned by the benchmark, timed next to
    every op and every set-up.

    The benchmark runs on shared machines.  On a 2-vCPU Xeon VM the same
    pure-Python work took up to 1.5x longer for stretches of tens of
    seconds, and the program's ops slowed with it.  Each end-to-end time is
    scaled by REF_S over the probe time measured around it: the result
    stays in seconds of the uncontended machine while those swings cancel.
    The probe calls nothing in rainbow3, so a change to the program cannot
    move it.
    """

    REF_S = 0.0012   # probe seconds on an uncontended core of that VM
    N = 400

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj = [tuple(rng.sample(range(self.N), 6)) for _ in range(self.N)]

    def _work(self) -> int:
        total = 0
        for src in range(0, self.N, 40):
            dist = {src: 0}
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            total += sum(dist.values())
        return total

    def sample(self) -> float:
        """Median seconds of three probe runs."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._work()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.REF_S * 2 / (before + after)


@dataclass
class Loop:
    """Times and outcomes of the ops one loop ran."""

    times: list = field(default_factory=list)     # op seconds, in run order
    failed: int = 0
    counts: dict = field(default_factory=dict)    # summed op report counts


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]


class Gate:
    """Structural check on every op; digest check when a reference is given."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.reported = 0

    def passes(self, op: Op, out) -> bool:
        try:
            ok = bool(op.check(out))
            reason = "structural check failed"
            if ok and self.reference is not None:
                ok = self.reference.get(op.name) == digest(op.text(out))
                reason = "output digest differs from the reference"
        except Exception as exc:  # a crashing check is a failed op, not a crashed run
            ok, reason = False, f"check raised {exc!r}"
        if not ok:
            self.fail(op, reason)
        return ok

    def fail(self, op: Op, reason: str) -> None:
        if self.reported < 5:
            print(f"# op {op.name}: {reason}", file=sys.stderr)
        self.reported += 1


def run_op(op: Op, gate: Gate, loop: Loop, span=None) -> None:
    """Time one op, inside ``span`` when given, then gate its output.
    Report counts are summed for traced ops only."""
    t0 = perf_counter()
    try:
        with span if span is not None else contextlib.nullcontext():
            out = op.run()
    except Exception as exc:  # an op that raises is a failed op
        loop.times.append(perf_counter() - t0)
        loop.failed += 1
        gate.fail(op, f"raised {exc!r}")
        return
    loop.times.append(perf_counter() - t0)
    if not gate.passes(op, out):
        loop.failed += 1
    if span is not None:
        for key, value in op.counts(out).items():
            loop.counts[key] = loop.counts.get(key, 0) + value


def measure(n_ops: int, seconds: float, whole_passes: bool, rng: random.Random,
            step) -> tuple[int, float]:
    """Call ``step(i)`` on op indices in seeded passes until ``seconds``
    have gone by; with ``whole_passes`` the pass in progress is finished
    first.  Returns (completed passes, wall seconds)."""
    passes = 0
    start = perf_counter()
    while True:
        order = list(range(n_ops))
        rng.shuffle(order)
        for i in order:
            step(i)
            if not whole_passes and perf_counter() - start >= seconds:
                return passes, perf_counter() - start
        passes += 1
        if perf_counter() - start >= seconds:
            return passes, perf_counter() - start


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it, or the maximum of a short run."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - beyond                 # 1-based
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


def end_to_end(times: list, failed: int, setup_times: list) -> dict:
    attempted = len(times)
    value, _, _ = tail(times)
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (attempted / sum(times), "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, untraced: Loop, traced: Loop, passes: int) -> dict:
    spans, own = tracer.spans, tracer.self_times()
    n_ops = len(traced.times)
    setup = [i for i, s in enumerate(spans) if s[OP] == "setup"]
    in_ops = [i for i, s in enumerate(spans) if s[OP] != "setup"]
    roots = [i for i in in_ops if spans[i][NAME] == "op"]
    op_total = sum(spans[i][END] - spans[i][START] for i in roots)

    def self_sum(name: str, idxs: list) -> float:
        return sum(own[i] for i in idxs if spans[i][NAME] == name)

    def count(name: str, idxs: list, failed_only: bool = False) -> int:
        return sum(1 for i in idxs
                   if spans[i][NAME] == name and (spans[i][FAILED] or not failed_only))

    gen = "generators.random_min_degree"   # called only during set-up
    out = {}
    for name in TRACED:
        if name != gen:
            out[f"{name}.self_s"] = (self_sum(name, in_ops) / n_ops, "s")
    for name in ("domination.cds_heuristic", "graphs.sdiam3", "verify.is_3_rainbow"):
        out[f"{name}.share"] = (_ratio(self_sum(name, in_ops), op_total), "ratio")
    for layer in LAYERS:
        layer_self = sum(own[i] for i in in_ops if spans[i][NAME].startswith(layer + "."))
        out[f"layer.{layer}.share"] = (_ratio(layer_self, op_total), "ratio")
    out["layer.bench.share"] = (_ratio(sum(own[i] for i in roots), op_total), "ratio")

    out[f"{gen}.total_s"] = (
        sum(spans[i][END] - spans[i][START] for i in setup if spans[i][NAME] == gen), "s")
    mcds = "domination.min_connected_dominating_set"
    out[f"{mcds}.setup_s"] = (self_sum(mcds, setup), "s")
    out[f"{mcds}.failed"] = (count(mcds, in_ops, failed_only=True) / passes, "count")
    out[f"{mcds}.setup_failed"] = (count(mcds, setup, failed_only=True), "count")
    exact = "verify.exact_rx3_coloring"
    out[f"{exact}.failed"] = (count(exact, in_ops, failed_only=True) / passes, "count")
    out[f"{exact}.setup_failed"] = (count(exact, setup, failed_only=True), "count")
    cert = "verify.verify_certificate"
    out[f"{cert}.calls"] = (count(cert, in_ops) / passes, "count")

    c = traced.counts
    triples = c.get("triples", 0)
    out["verify.is_3_rainbow.triples_checked"] = (triples / passes, "count")
    out["verify.is_3_rainbow.triples_per_s"] = (
        _ratio(triples, self_sum("verify.is_3_rainbow", in_ops)), "1/s")
    out["coloring.stage2_steps"] = (c.get("stage2_steps", 0) / passes, "count")
    out["coloring.recolored_legs"] = (c.get("recolored", 0) / passes, "count")
    out["coloring.components"] = (c.get("components", 0) / passes, "count")
    exact_inner = c.get("inner_exact", 0)
    out["coloring.inner_exact_ratio"] = (
        _ratio(exact_inner, exact_inner + c.get("inner_spanning", 0)), "ratio")
    out["domination.dom_size_ratio"] = (_ratio(c.get("dom", 0), c.get("n", 0)), "ratio")

    out["trace.overhead_ratio"] = (op_total / sum(untraced.times) - 1.0, "ratio")
    out["trace.ops"] = (n_ops, "count")
    return out


def _end_to_end_run(workload, seed: int, seconds: float, tiny: bool, gate: Gate,
                    rng: random.Random, info: dict) -> tuple[dict, int, int]:
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPS):
        before = probe.sample()
        t0 = perf_counter()
        ops = workload.setup(seed, tiny)
        setup_times.append(probe.scale(perf_counter() - t0, before, probe.sample()))
    loop, speed = Loop(), []

    def step(i: int) -> None:
        speed.append(probe.sample())
        run_op(ops[i], gate, loop)

    passes, wall = measure(len(ops), seconds, workload.whole_passes, rng, step)
    speed.append(probe.sample())
    times = [probe.scale(t, speed[k], speed[k + 1]) for k, t in enumerate(loop.times)]
    _, pct, beyond = tail(times)
    info.update(ops=len(times), passes=passes, measured_s=round(wall, 3),
                setup_reps_s=[round(t, 4) for t in setup_times],
                op_tail=f"p{pct:.1f} with {beyond} of {len(times)} samples beyond",
                unscaled_op_p50_s=round(statistics.median(loop.times), 6),
                probe_p50_s=round(statistics.median(speed), 6))
    return end_to_end(times, loop.failed, setup_times), len(times), loop.failed


def _traced_run(workload, seed: int, seconds: float, tiny: bool, gate: Gate,
                rng: random.Random, info: dict) -> tuple[dict, int, int]:
    tracer = Tracer()
    with tracer.installed(), tracer.root("setup", "setup"):
        ops = workload.setup(seed, tiny)
    untraced, traced = Loop(), Loop()
    names = []   # op name of each traced op id

    def both(i: int) -> None:
        # each op runs once untraced and once traced, alternating which
        # goes first so neither side gets the warmer caches
        traced_first = len(traced.times) % 2 == 1
        for with_trace in (traced_first, not traced_first):
            if with_trace:
                names.append(ops[i].name)
                with tracer.installed():
                    run_op(ops[i], gate, traced, tracer.root("op", len(traced.times)))
            else:
                run_op(ops[i], gate, untraced)

    # whole passes, so per-pass counts are exact
    passes, _ = measure(len(ops), seconds, True, rng, both)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.json")
    tracer.write(path, dict(info, passes=passes, op_names=names))
    info.update(ops=len(traced.times), passes=passes, spans=path)
    return (per_layer(tracer, untraced, traced, passes),
            len(untraced.times) + len(traced.times), untraced.failed + traced.failed)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 reference: dict | None = None) -> dict:
    """Set up, measure and check one workload; return the result record.

    ``reference`` maps op names to output digests; it is loaded from
    reference.json at the reference seed when not given."""
    if reference is None and seed == REFERENCE_SEED and not tiny:
        reference = load_reference(name)
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "digests": "checked" if reference is not None else "skipped"}
    run = _traced_run if trace else _end_to_end_run
    metrics, attempted, failed = run(WORKLOADS[name], seed, seconds, tiny, Gate(reference),
                                     random.Random(f"order:{seed}"), info)
    return {"info": info, "attempted": attempted, "failed": failed, "metrics": metrics}
