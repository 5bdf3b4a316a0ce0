"""Span tracing for the traced benchmark run.

The wrappers are installed from the benchmark's own files around the public
functions of each package module, at every module namespace that binds the
function (callers inside the package use ``from .x import f``, so
``sdiam3`` is bound in ``rainbow3.graphs``, ``rainbow3.bounds``,
``rainbow3.verify`` and the package itself).  Spans are kept in memory and
written out when the run ends.  Nothing here runs in the untraced run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

# Public functions that get a span, by defining module.  Per-edge helpers
# such as edge_key or Graph.has_edge are left out on purpose: a span per
# call would cost more than the work it measures.
TRACED = (
    "generators.random_min_degree",
    "graphs.sdiam3",
    "graphs.components_minus",
    "graphs.bfs_tree",
    "domination.cds_heuristic",
    "domination.min_connected_dominating_set",
    "domination.min_connected_k_dominating_set",
    "domination.three_way_dominating_set",
    "coloring.three_way_coloring",
    "coloring.three_dom_coloring",
    "coloring.stage1_periodic",
    "coloring.stage2_repair_step",
    "coloring.inner_coloring",
    "verify.is_3_rainbow",
    "verify.verify_certificate",
    "verify.exact_rx3_coloring",
    "bounds.bounds_report",
)

LAYERS = ("generators", "graphs", "domination", "coloring", "verify", "bounds")

NAME, START, END, PARENT, OP, FAILED = range(6)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent index, op id, failed]``.  Calls
    into wrapped functions record a span only inside a root span, so checks
    the benchmark runs between ops stay out of the trace.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._found = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1], self._op, False]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()

        return traced

    def _patches(self) -> list:
        """(module, attribute, original, wrapper) for every binding of
        every TRACED function, found once per tracer."""
        if self._found is None:
            package = importlib.import_module("rainbow3")
            modules = [package] + [
                importlib.import_module(f"rainbow3.{m}") for m in LAYERS + ("cli",)
            ]
            self._found = []
            for dotted in TRACED:
                layer, fname = dotted.split(".")
                orig = getattr(importlib.import_module(f"rainbow3.{layer}"), fname)
                wrapper = self._wrap(dotted, orig)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is orig:
                            self._found.append((mod, attr, orig, wrapper))
        return self._found

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function wherever it is bound; restore on exit."""
        patches = self._patches()
        try:
            for mod, attr, _, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, orig, _ in patches:
                setattr(mod, attr, orig)

    @contextlib.contextmanager
    def root(self, name: str, op_id):
        """Root span of one op (or of the set-up) that child spans attach to."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, None, op_id, False]
        self.spans.append(span)
        self._stack.append(idx)
        self._op = op_id
        span[START] = perf_counter()
        try:
            yield
        except Exception:
            span[FAILED] = True
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._op = None

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op", "failed"],
                       "spans": self.spans}, fh)
