"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces each target function of a `gthm` module
with a wrapper, in every `gthm.*` module that binds the same function
object (the graph module, for one, imports `discover` and
`validate_edges` by name).  A span wrapper records (name, start, end,
parent span, request id); a count wrapper only counts calls, for
functions called tens of thousands of times per request where a span
would swamp the trace.  Counts that describe a layer's work (edges
proposed, edges kept, nodes admitted, samples drawn) are read off the
wrapped call's arguments and result at the same boundary.

A target that no longer exists is recorded in `absent` rather than
failing the run, so a refactor that moves or merges functions leaves
the benchmark working and the gap visible.

`exactnum` gets no wrapper: its functions are bound by name into every
caller and wrapping each arithmetic call would swamp the trace.  Its
cost shows inside the scene and verify self times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

RULE_FUNCTIONS = ("segment_chain_rule", "parallel_transfer_rule",
                  "pythagoras_rule", "similar_triangles_rule",
                  "line_circle_rule", "ratio_solve_rule")

RENDERERS = ("render_text", "render_json", "render_dot", "render_scene")

# (module, function, kind): kind "span" records a span, "count" only
# counts calls
TARGETS = (
    ("cli", "main", "span"),
    ("dsl", "parse", "span"),
    ("dsl", "validate", "span"),
    ("scene", "build_scene", "span"),
    ("scene", "sample_params", "span"),
    ("scene", "evaluate", "span"),
    ("scene", "distance", "count"),
    ("rules", "discover", "span"),
    *(("rules", f, "span") for f in RULE_FUNCTIONS),
    ("rules", "finalize", "span"),
    ("rules", "validate_edges", "span"),
    ("rules", "apply_edge", "count"),
    ("graph", "grow_detailed", "span"),
    ("graph", "topo_order", "span"),
    ("graph", "focus", "span"),
    ("verify", "verdict", "span"),
    ("verify", "execute_schedule", "span"),
    ("verify", "oracle_verdict", "span"),
    *(("emit", f, "span") for f in RENDERERS),
)

LAYERS = ("cli", "dsl", "scene", "rules", "graph", "verify", "emit")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []          # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.unreadable = 0            # results whose counts could not be read
        self.request = 0
        self._stack: list[int] = []
        self._seen_evals: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, request: int) -> None:
        """Tag the spans that follow with request id `request`."""
        self.request = request
        self._seen_evals.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gthm"
                                         or name.startswith("gthm."))]
        for mod_name, fn_name, kind in TARGETS:
            name = f"{mod_name}.{fn_name}"
            try:
                mod = importlib.import_module(f"gthm.{mod_name}")
                original = getattr(mod, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = (self._span_wrapper(name, original) if kind == "span"
                       else self._count_wrapper(name, original))
            for m in modules + [mod]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        counts, key = self.counts, f"{name}.calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.request]
                counts[key] += 1
            observe(name, args, result)
            return result
        return traced

    # -- counts at the layer boundaries -------------------------------------

    def _observe(self, name: str, args: tuple, result) -> None:
        try:
            self._count_work(name, args, result)
        except (IndexError, TypeError, AttributeError):
            # a changed signature or result type loses this count, but
            # must not fail the request being traced
            self.unreadable += 1

    def _count_work(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "scene.evaluate":
            key = (self.request, id(args[0]), args[1])
            if key not in self._seen_evals:
                self._seen_evals.add(key)
                c["scene.evaluate.distinct"] += 1
        elif name == "rules.discover" or name.endswith("_rule"):
            c[f"{name}.edges"] += len(result)
        elif name == "rules.validate_edges":
            c["rules.validate_edges.in"] += len(args[0])
            c["rules.validate_edges.kept"] += len(result)
        elif name == "graph.grow_detailed":
            c["graph.nodes"] += len(result.nodes)
            c["graph.edges_admitted"] += len(result.edges)
            c["graph.pending"] += len(result.pending)
            c["rules.caps_fired"] += len(result.reports)
        elif name == "graph.focus":
            c["graph.schedule_len"] += len(result)
        elif name in ("verify.verdict", "verify.oracle_verdict"):
            c["verify.samples"] += len(result.samples)
            c["verify.redraws"] += sum(r.redraws for r in result.samples)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the durations
        of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def request_time(self) -> float:
        """Summed duration of the root spans (one `cli.main` per request)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "absent": self.absent, "spans": self.spans}, f)
