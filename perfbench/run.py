"""Benchmark of the cgalign command line: one workload and seed per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs for the seed under .perfbench_work/,
checks that the generator still writes the pinned reference inputs, then
starts one child process (perfbench/worker.py, BLAS and OpenMP capped at one
thread, `--threads 1`) that drives `cgalign.cli.main` for S seconds.  The
set-up a fresh interpreter pays for `import cgalign.cli` is timed in
separate interpreters, half before the child and half after it, so that one
slow phase of the host does not set the whole value.  The last line
of stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass with --trace 1.  The line before it
carries the run's metadata.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import REFERENCE_SEED, SELFTEST, WORKLOADS, digests, generate, pinned_digests

SETUP_SAMPLES = 3  # before the child, and as many again after it
RUN_LIMIT_S = 170  # the whole run, child included, must end before this
THREAD_CAP = "1"   # BLAS/OpenMP threads in the child, like --threads 1; never above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import cgalign.cli as cli; cli.build_parser()"


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    env.update({var: THREAD_CAP for var in THREAD_VARS})
    return env


def setup_samples(env: dict) -> list:
    """Wall times of fresh interpreters importing the CLI and building its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise BenchError("importing cgalign.cli failed:\n" + done.stderr)
    return samples


def plan_ops(workload, pairs) -> list:
    ops = []
    for k, paths in enumerate(pairs):
        for v, flags in enumerate(workload.variants):
            report = os.path.join(os.path.dirname(paths["a"]), "pair%03d_v%d_report.json" % (k, v))
            ops.append({
                "label": "pair%03d/v%d" % (k, v),
                "report": report,
                "diff": ["diff", paths["a"], paths["b"], "--threads", "1",
                         *workload.cost_flags, *flags, "--output", report],
                "ged": ["ged", paths["a"], paths["b"], report, *workload.cost_flags, "--json"],
                "eval": ["eval", report, paths["truth"], "--program-a", paths["a"],
                         "--program-b", paths["b"], "--json"],
            })
    return ops


def source_identity(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    combined = hashlib.sha256()
    package = os.path.join(root, "src", "cgalign")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                combined.update(name.encode() + b"\0" + handle.read())
    return {"commit": commit, "src_sha256": combined.hexdigest()}


def run_child(plan: dict, work: str, env: dict, deadline: float) -> dict:
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    child = subprocess.Popen([sys.executable, worker, plan_path], env=env,
                             stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise BenchError("worker did not finish in time")
    if code != 0:
        raise BenchError("worker exited with %d" % code)
    with open(plan["out"], "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(result: dict, setup_s: float, ops: list) -> dict:
    """Each operation's timing is its median over passes."""
    diff_s = [statistics.median(result["diff_s"][op["label"]]) for op in ops]
    ged_s = [statistics.median(result["ged_s"][op["label"]]) for op in ops]
    recalls = [r for r in result["recalls"].values() if r is not None]
    return {
        "diff_s": statistics.median(diff_s),
        "pairs_per_s": len(ops) / sum(diff_s),
        "ged_s": statistics.median(ged_s),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "objective": sum(result["objectives"].values()),
        "recall": statistics.fmean(recalls) if recalls else 0.0,
    }


def bench(args, root: str) -> dict:
    started = time.monotonic()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cgalign", "cli.py")):
        raise BenchError("no cgalign sources under %s; run from the root of a checkout" % src)
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, src)
    import cgalign.cli  # noqa: F401  compiles the package once, before set-up is timed

    if not os.path.abspath(cgalign.cli.__file__).startswith(src + os.sep):
        raise BenchError("imported cgalign from %s, not from %s" % (cgalign.cli.__file__, src))

    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench_work", workload.name)
    pairs = generate(workload, args.seed, os.path.join(work, "seed%d" % args.seed))
    reference = (pairs if args.seed == REFERENCE_SEED else
                 generate(workload, REFERENCE_SEED, os.path.join(work, "reference")))
    pinned, current = pinned_digests().get(workload.name, {}), digests(reference)
    changed = sorted(name for name, sha in current.items() if pinned.get(name) != sha)
    ops = plan_ops(workload, pairs)
    plan = {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
            "out": os.path.join(work, "result.json")}
    if args.trace:
        # a fixed seed: at some seeds the tiny pair has no call-less function,
        # and then solve_mcs_greedy never reaches solve_mwm
        plan["selftest"] = plan_ops(SELFTEST, generate(SELFTEST, REFERENCE_SEED,
                                                       os.path.join(work, "selftest")))[0]

    env = child_env(src)
    setup = setup_samples(env)
    result = run_child(plan, work, env, started + RUN_LIMIT_S)
    setup += setup_samples(env)

    failures = result["failures"] + ["reference input %s (seed %d) does not match digests.json"
                                     % (name, REFERENCE_SEED) for name in changed]
    for failure in failures:
        sys.stderr.write("check failed: %s\n" % failure)
    # one unit per operation and per pinned file, however many passes ran
    attempted = len(result["operations"]) + len(current)
    failed = len(result["failed_operations"]) + len(changed)

    if args.trace:
        listed, values = spec["per_layer"], result["layers"]
    else:
        listed = spec["end_to_end"]
        values = end_to_end(result, statistics.median(setup), ops)
        values["ok_ratio"] = 1.0 - failed / attempted
    meta = dict(result["meta"], workload=workload.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(), python=platform.python_version(),
                thread_cap={var: env[var] for var in THREAD_VARS},
                inputs_sha256=digests(pairs), reference_inputs_pinned=not changed,
                import_s=result["import_s"], measured_s=result["measured_s"],
                passes=result["passes"], checks=result["checks"], setup_samples_s=setup,
                trace_diagnostics=result.get("trace_diagnostics", []),
                **source_identity(root))
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {
        "correct": not failures and len(result["objectives"]) == len(ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line = bench(args, os.getcwd())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 3
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
