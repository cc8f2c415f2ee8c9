"""Spans around cgalign's public functions, for the benchmark's traced run.

The program is not edited: each wrap point replaces a function by module
attribute with a wrapper that records a span (name, start, end, parent) and,
for some points, counts read from the call's result.  A
function is wrapped at every module that calls it through its own global
name, and the site decides the span name; `cgalign.bp.nap_objective` is the
objective scoring inside BP, while the report's own scoring in `cmd_diff`
stays in the `cli.diff` span.

Spans stay in memory.  A span's self time is its duration minus the
durations of its direct children (the process is single-threaded, so
children never overlap).

The counters read only what is likely to outlive a rewrite of the program
(the link weights, the graphs' edge counts, the arrays a problem holds,
whatever they are).  A wrap point that no longer exists, or a counter that
raises, is a diagnostic of the harness, never a failed operation: the
benchmark must keep judging a program whose internals have moved.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

MIB = float(1 << 20)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.start = self.end = 0.0
        self.info: Optional[dict] = None


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays in an object's public fields, computed from nbytes."""
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name, None) for f in dataclasses.fields(obj)}
    else:
        fields = dict(vars(obj))
    return sum(value.nbytes for name, value in fields.items()
               if not name.startswith("_") and hasattr(value, "nbytes"))


def _graph_counts(graph):
    return {"functions": graph.n, "calls": len(graph.edges)}


def _similarity_counts(sim):
    return {"candidates": len(sim), "pairs": sim.n_a * sim.n_b}


def _problem_counts(problem):
    edges_a, edges_b = getattr(problem, "edges_a", None), getattr(problem, "edges_b", None)
    return {"links": len(problem.link_w), "squares": getattr(problem, "n_squares", None),
            "edge_pairs": edges_a * edges_b if edges_a is not None and edges_b is not None
            else None,
            "bytes": _array_bytes(problem)}


def _bp_counts(result):
    diag = result[1]
    trace = list(getattr(diag, "objective_trace", None) or ())
    # trace[0] scores the zero-message mode, trace[k] the mode after
    # iteration k; the incumbent only moves on a strict improvement, so the
    # first maximum is where the returned mapping appeared
    best = max(range(len(trace)), key=trace.__getitem__) if trace else 0
    return {"iterations": diag.iterations, "best_iteration": best,
            "stop_reason": diag.stop_reason,
            "ops_total": getattr(diag, "ops_total", None),  # a model count
            "message_bytes": getattr(diag, "message_memory_bytes", None)}


# (module, attribute, span name, counter); order does not matter
WRAP_POINTS = (
    ("cgalign.cli", "cmd_diff", "cli.diff", None),
    ("cgalign.cli", "cmd_ged", "cli.ged", None),
    ("cgalign.cli", "cmd_eval", "cli.eval", None),
    ("cgalign.cli", "load_call_graph", "graphs.load", _graph_counts),
    ("cgalign.similarity", "build_similarity_matrix", "similarity.build", _similarity_counts),
    ("cgalign.nap", "build_problem", "nap.build", _problem_counts),
    ("cgalign.nap", "ged_cost_direct", "nap.ged_direct", None),
    ("cgalign.nap", "ged_cost_editpath", "nap.ged_editpath", None),
    ("cgalign.bp", "solve_nap", "bp.solve", _bp_counts),
    ("cgalign.bp", "bp_iterate", "bp.iterate", None),
    ("cgalign.bp", "estimate_mode", "bp.mode", None),
    ("cgalign.bp", "nap_objective", "bp.score", None),
    ("cgalign.matchers", "solve_mwm", "matchers.mwm", None),
    ("cgalign.matchers", "solve_mcs_greedy", "matchers.mcs", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: List[Span] = []
        self.diagnostics: List[str] = []  # harness problems, not program failures
        self._open: List[int] = []
        self._patched = []

    def _wrap(self, original: Callable, name: str, counter: Optional[Callable]):
        spans, open_, diagnostics = self.spans, self._open, self.diagnostics

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if counter is not None:
                try:
                    span.info = counter(result)
                except Exception as exc:  # the program moved on; the counts are missing
                    diagnostics.append("%s counter: %s: %s" % (name, type(exc).__name__, exc))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, counter in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.diagnostics.append("no wrap point %s.%s" % (module_name, attr))
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def self_times(self) -> List[float]:
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def root_of(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index


def check_spans(tracer: Tracer) -> List[str]:
    """Problems with the recorded spans; empty when they are consistent.

    Every span lies inside its parent, and the self times of each root's
    spans sum to the root's duration.
    """
    problems = []
    spans = tracer.spans
    for span in spans:
        if span.end < span.start:
            problems.append("%s ends before it starts" % span.name)
        if span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                problems.append("%s is not inside its parent %s" % (span.name, parent.name))
    sums: Dict[int, float] = {}
    for index, own in enumerate(tracer.self_times()):
        root = tracer.root_of(index)
        sums[root] = sums.get(root, 0.0) + own
    for root, total in sums.items():
        duration = spans[root].end - spans[root].start
        if abs(total - duration) > 1e-9 * max(1.0, duration) + 1e-12 * len(spans):
            problems.append("self times under %s sum to %.12f, not %.12f"
                            % (spans[root].name, total, duration))
    return problems


def nested_seen(tracer: Tracer, pairs) -> Dict[str, bool]:
    """Whether each (parent, child) span-name pair occurred, as "parent>child"."""
    seen = {(tracer.spans[s.parent].name, s.name) for s in tracer.spans if s.parent >= 0}
    return {"%s>%s" % pair: pair in seen for pair in pairs}


# nested wrap points of today's program: ged_cost_direct -> build_problem,
# solve_mcs_greedy -> solve_mwm, solve_nap -> bp_iterate/estimate_mode/nap_objective.
# Which of them occur is reported, not checked: a program change may drop one.
NESTED = (("nap.ged_direct", "nap.build"), ("matchers.mcs", "matchers.mwm"),
          ("bp.solve", "bp.iterate"), ("bp.solve", "bp.mode"), ("bp.solve", "bp.score"))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times are summed self times)."""
    spans = tracer.spans
    own = tracer.self_times()
    seconds: Dict[str, float] = {}
    for span, t in zip(spans, own):
        seconds[span.name] = seconds.get(span.name, 0.0) + t

    def infos(name: str, parent: Optional[str] = None) -> List[dict]:
        return [s.info for s in spans if s.name == name and s.info is not None
                and (parent is None or (s.parent >= 0 and spans[s.parent].name == parent))]

    diffs = [i for i, s in enumerate(spans) if s.name == "cli.diff"]
    builds_in_diffs = sum(1 for i, s in enumerate(spans)
                          if s.name == "nap.build" and spans[tracer.root_of(i)].name == "cli.diff")
    loads = infos("graphs.load", "cli.diff")
    sims = infos("similarity.build", "cli.diff")
    problems = infos("nap.build", "cli.diff")  # the problem each diff solves
    solves = infos("bp.solve")

    def total(items: List[dict], key: str) -> float:
        # a count the program no longer exposes reads 0 (see the diagnostics)
        return sum(item[key] for item in items if item.get(key) is not None)

    edge_pairs = total(problems, "edge_pairs")
    squares = total(problems, "squares")
    iterations = total(solves, "iterations")
    best = total(solves, "best_iteration")
    pairs_scored = total(sims, "pairs")
    reasons = [b["stop_reason"] for b in solves]
    return {
        "graphs.load_s": seconds.get("graphs.load", 0.0),
        "graphs.functions": total(loads, "functions"),
        "graphs.calls": total(loads, "calls"),
        "similarity.build_s": seconds.get("similarity.build", 0.0),
        "similarity.candidates": total(sims, "candidates"),
        "similarity.kept_ratio": (total(sims, "candidates") / pairs_scored
                                  if pairs_scored else 0.0),
        "nap.build_s": seconds.get("nap.build", 0.0),
        "nap.ged_direct_s": seconds.get("nap.ged_direct", 0.0),
        "nap.ged_editpath_s": seconds.get("nap.ged_editpath", 0.0),
        "nap.build_calls": builds_in_diffs / len(diffs) if diffs else 0.0,
        "nap.links": total(problems, "links"),
        "nap.squares": squares,
        "nap.edge_pairs": edge_pairs,
        "nap.square_yield": squares / edge_pairs if edge_pairs else 0.0,
        "nap.problem_mb": max((p["bytes"] for p in problems), default=0) / MIB,  # computed
        "bp.solve_s": seconds.get("bp.solve", 0.0),
        "bp.iterate_s": seconds.get("bp.iterate", 0.0),
        "bp.mode_s": seconds.get("bp.mode", 0.0),
        "bp.score_s": seconds.get("bp.score", 0.0),
        "bp.iterations": iterations,
        "bp.best_iteration": best,
        "bp.useful_ratio": (best + len(solves)) / (iterations + len(solves)) if solves else 0.0,
        "bp.capped": reasons.count("iteration_limit"),
        "bp.stop_tolerance": reasons.count("message_tolerance"),
        "bp.stop_mode_stable": reasons.count("mode_stable"),
        "bp.message_mb": max((b["message_bytes"] or 0 for b in solves), default=0) / MIB,
        "bp.ops_total": total(solves, "ops_total"),  # a model count, not a measurement
        "matchers.mwm_s": seconds.get("matchers.mwm", 0.0),
        "matchers.mcs_s": seconds.get("matchers.mcs", 0.0),
        "cli.report_s": seconds.get("cli.diff", 0.0),
        "cli.ged_self_s": seconds.get("cli.ged", 0.0),
        "cli.eval_s": seconds.get("cli.eval", 0.0),
    }
