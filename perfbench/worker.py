"""Child process of the benchmark: drives `cgalign.cli.main` and times it.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) lists the operations of one workload: for each
one a `diff`, a `ged` on the report that diff wrote and an `eval` against the
generator's truth.  Untimed set-up is the import of cgalign.cli.  A pass runs
every operation once; passes repeat while the last pass still fits in the
measuring time, and at least three run, so that every operation's median
time rejects one slow pass and every repeated diff can be checked.  With
tracing on, a self-test on a tiny pair comes first, and every untraced pass
is followed by a traced one; each per-layer time is a median over the traced
passes.  The results go to the plan's `out` file as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import tracer as tracing

GED_TOL = 1e-9  # the same tolerance cgalign ged applies between its two routes
MIN_PASSES = 3  # a median over three passes rejects one pass slowed by the host


class Checks:
    """Correctness checks, grouped by operation.

    An operation fails when any of its checks fails in any pass, so the
    count of failed operations does not grow with the number of passes.
    """

    def __init__(self):
        self.checks = 0
        self.operations = set()
        self.failures = []          # messages, in order
        self.failed_operations = set()

    def __call__(self, operation: str, ok: bool, what: str) -> bool:
        self.checks += 1
        self.operations.add(operation)
        if not ok:
            self.failures.append("%s: %s" % (operation, what))
            self.failed_operations.add(operation)
        return ok


def call(cli, argv):
    """Run cgalign.cli.main(argv); returns (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash of the run
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - started
    if code != 0:
        sys.stderr.write("cgalign %s -> exit %s\n%s" % (" ".join(argv), code, err.getvalue()))
    return code, seconds, out.getvalue()


def run_op(cli, op, check, first):
    """diff, ged and eval of one operation; returns (diff s, ged s, report, recall)."""
    label = op["label"]
    code, diff_s, _ = call(cli, op["diff"])
    report = None
    if check(label, code == 0, "diff exit %s" % code):
        with open(op["report"], "r", encoding="utf-8") as handle:
            report = json.load(handle)
        if label in first:
            before = first[label]
            check(label, report["objective"] == before["objective"]
                  and report["matched"] == before["matched"],
                  "repeated diff gave another objective or mapping")
        else:
            first[label] = report
    code, ged_s, out = call(cli, op["ged"])
    if check(label, code == 0, "ged exit %s" % code) and report is not None:
        direct = json.loads(out)["ged_direct"]
        check(label, abs(direct - report["ged"]) <= GED_TOL,
              "ged direct %r != report ged %r" % (direct, report["ged"]))
    code, _, out = call(cli, op["eval"])
    recall = None
    if check(label, code == 0, "eval exit %s" % code):
        recall = json.loads(out).get("recall")
        check(label, isinstance(recall, float) and 0.0 <= recall <= 1.0, "eval gave no recall")
    return diff_s, ged_s, report, recall


def run_pass(cli, ops, check, first, tracer=None):
    """Every operation once, inside `tracer` if one is given; returns run_op's results."""
    with tracer if tracer is not None else contextlib.nullcontext():
        return [run_op(cli, op, check, first) for op in ops]


def measure(cli, plan, check, first):
    ops = plan["ops"]
    diff_s = {op["label"]: [] for op in ops}
    ged_s = {op["label"]: [] for op in ops}
    recalls = {}
    untraced_sums, tracers, traced_sums = [], [], []
    started = time.perf_counter()
    passes, last_pass = 0, 0.0
    while (passes < MIN_PASSES
           or time.perf_counter() - started + last_pass <= plan["seconds"]):
        pass_started = time.perf_counter()
        results = run_pass(cli, ops, check, first)
        for op, (d, g, _, recall) in zip(ops, results):
            diff_s[op["label"]].append(d)
            ged_s[op["label"]].append(g)
            recalls.setdefault(op["label"], recall)
        untraced_sums.append(sum(r[0] for r in results))
        if plan["trace"]:
            tracers.append(tracing.Tracer())
            traced_sums.append(sum(r[0] for r in run_pass(cli, ops, check, first, tracers[-1])))
        passes += 1
        last_pass = time.perf_counter() - pass_started
    result = {
        "diff_s": diff_s, "ged_s": ged_s, "passes": passes,
        "objectives": {label: r["objective"] for label, r in first.items()},
        "recalls": recalls, "measured_s": time.perf_counter() - started,
    }
    if plan["trace"]:
        result.update(trace_summary(tracers, check))
        # the median traced pass against the median untraced one
        result["layers"]["trace.overhead"] = (statistics.median(traced_sums)
                                              / statistics.median(untraced_sums) - 1.0)
    return result


def selftest(cli, op, check):
    """Trace a tiny pair through every wrap point and check the spans.

    Returns which nested wrap points occurred; a missing one is reported,
    not failed, since a program change may remove it on purpose.
    """
    bp = dict(op, label="selftest-bp")
    mcs = dict(op, label="selftest-mcs", diff=op["diff"] + ["--matcher", "mcs"])
    with tracing.Tracer() as tracer:
        for each in (bp, mcs):
            run_op(cli, each, check, {})
    problems = tracing.check_spans(tracer) or ([] if tracer.spans else ["no spans recorded"])
    check("selftest-spans", not problems, "; ".join(problems))
    nested = tracing.nested_seen(tracer, tracing.NESTED)
    for pair, seen in sorted(nested.items()):
        if not seen:
            sys.stderr.write("perfbench diagnostic: selftest saw no %s span\n" % pair)
    return nested, tracer.diagnostics


def trace_summary(tracers, check):
    """Per-layer metrics as medians over the traced passes, and their spans."""
    per_pass = []
    for number, tracer in enumerate(tracers):
        problems = tracing.check_spans(tracer)
        check("traced-spans", not problems, "pass %d: %s" % (number, "; ".join(problems)))
        per_pass.append(tracing.layer_metrics(tracer))
    diagnostics = sorted({d for tracer in tracers for d in tracer.diagnostics})
    for diagnostic in diagnostics:
        sys.stderr.write("perfbench diagnostic: %s\n" % diagnostic)
    return {
        "layers": {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]},
        "trace_diagnostics": diagnostics,
        "spans": [[[s.name, s.start, s.end, s.parent] for s in tracer.spans]
                  for tracer in tracers],
    }


def blas_info():
    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[module.__name__ + "_blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
        except (TypeError, KeyError):
            info[module.__name__ + "_blas"] = "unknown"
    return info


def main(path):
    with open(path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    started = time.perf_counter()
    from cgalign import cli
    import_s = time.perf_counter() - started

    check, first = Checks(), {}
    meta = blas_info()
    if plan["trace"]:
        meta["selftest_nested"], meta["selftest_diagnostics"] = selftest(cli, plan["selftest"], check)
    result = measure(cli, plan, check, first)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(import_s=import_s, checks=check.checks, operations=sorted(check.operations),
                  failed_operations=sorted(check.failed_operations), failures=check.failures,
                  meta=meta)
    with open(plan["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
