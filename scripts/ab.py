"""A/B runs of the benchmark: a base revision against this checkout.

Usage, from anywhere inside a checkout:

    python3 scripts/ab.py --base REV [--workload NAME ...] [--seed 11] --out BENCH_N.json

REV is exported with `git archive` into a temporary directory, so the
repository's worktree list is left as it is.  For each workload (default:
every one in BENCHMARK.json), each of PAIRS pairs of runs starts
`perfbench/run.py --trace 0` for BENCHMARK.json's `run_seconds` once in the
base tree and once in this checkout, each tree with its own perfbench/ and
src/; the tree that goes first alternates from pair to pair.  The output
names both commits and lists what `git status --porcelain` showed in this
checkout before the first run.  It keeps every run's metrics, exit code
and `correct`/`failed` fields; a run that times out or prints no readable
result counts as exit -1 with the reason, and the batch goes on.  Per
metric it gives both medians, both interquartile ranges (IQR), the change
of the medians and the number of pairs the checkout won, in the direction
BENCHMARK.json calls better.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("base", "head")
PAIRS = 10
RUN_TIMEOUT_S = 300


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export(rev: str, dest: str) -> str:
    """Extract `git archive REV` into dest; return the commit REV names."""
    commit = _git("rev-parse", "--verify", rev + "^{commit}").strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` in a tree: its exit code and result, or why it has none."""
    try:
        done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": -1, "stderr": "no result within %d s" % RUN_TIMEOUT_S}
    if done.returncode != 0:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        return {"exit": 0, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    except (IndexError, KeyError, TypeError, AttributeError, ValueError) as exc:
        return {"exit": -1, "stderr": "unreadable result (%s: %s); stdout ends %r"
                                      % (type(exc).__name__, exc, done.stdout[-500:])}


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: medians, IQRs, change and wins of the head over the base.

    `pairs` holds one {"base": run, "head": run} per pair of runs; `better`
    maps each metric to "lower" or "higher".  A pair counts for a metric
    only when both of its runs report it; a tie is no win.
    """
    summary = {}
    for name, direction in better.items():
        both = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
                if name in p["base"].get("metrics", {}) and name in p["head"].get("metrics", {})]
        if not both:
            continue
        base, head = [b for b, _ in both], [h for _, h in both]
        sign = 1 if direction == "higher" else -1
        base_median, head_median = statistics.median(base), statistics.median(head)
        summary[name] = {
            "better": direction, "pairs": len(both),
            "base_median": base_median, "head_median": head_median,
            "change": head_median / base_median - 1 if base_median else None,
            "base_iqr": _iqr(base), "head_iqr": _iqr(head),
            "wins": sum(sign * (h - b) > 0 for b, h in both),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeat for more (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", required=True, help="JSON file for every run and the summary")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "head": _git("rev-parse", "HEAD").strip(),
           "head_status": _git("status", "--porcelain").splitlines(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as base:
        doc["base"] = export(args.base, base)
        trees = {"base": base, "head": ROOT}
        for name in names:
            pairs = []
            for k in range(PAIRS):
                order = TREES if k % 2 == 0 else TREES[::-1]
                pair = {"first": order[0]}
                for tree in order:
                    pair[tree] = run_once(trees[tree], name, args.seed, seconds)
                    sys.stderr.write("%s pair %d %s: exit %d\n"
                                     % (name, k, tree, pair[tree]["exit"]))
                pairs.append(pair)
            doc["workloads"][name] = {"runs": pairs, "summary": summarize(pairs, better)}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, workload in doc["workloads"].items():
        for metric, row in workload["summary"].items():
            print("%-13s %-12s base %.6g (IQR %.3g)  head %.6g  wins %d/%d"
                  % (name, metric, row["base_median"], row["base_iqr"], row["head_median"],
                     row["wins"], row["pairs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
