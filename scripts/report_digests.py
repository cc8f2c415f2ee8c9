"""Digest every output of the benchmark's operations, to compare two checkouts.

Usage, from anywhere:

    python3 scripts/report_digests.py --seed N [--workload NAME ...] [--root DIR]

For each workload (default: all of them), the checkout's own
perfbench/workloads.py writes the benchmark's pairs for the seed into a
temporary directory.  Every operation that perfbench/run.py's plan_ops
plans for them then runs its diff, ged and eval in this process through
cgalign.cli.main, with the same argv.  One `workload op output sha256` line
is printed per output: the diff's report file, and what ged and eval print.

--root names the checkout whose src/ and perfbench/ are used; the default
is the checkout that holds this script.  Comparing two checkouts is then one
`diff` of this script's output from each.  perfbench/ is loaded by path
without writing bytecode, so it is left as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("diff", "ged", "eval")


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def benchmark_modules(root: str):
    """(workloads, run): the checkout's perfbench/workloads.py and perfbench/run.py."""
    bench = os.path.join(root, "perfbench")
    saved = sys.dont_write_bytecode, {name: sys.modules.pop(name, None)
                                      for name in ("workloads", "perfbench_run")}
    sys.dont_write_bytecode = True
    try:
        # run.py imports its sibling as the top-level module `workloads`
        workloads = _load("workloads", os.path.join(bench, "workloads.py"))
        run = _load("perfbench_run", os.path.join(bench, "run.py"))
    finally:
        sys.dont_write_bytecode = saved[0]
        for name, module in saved[1].items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return workloads, run


def import_cli(root: str):
    """cgalign.cli from the checkout's src/; refuses a cgalign imported from elsewhere."""
    src = os.path.realpath(os.path.join(root, "src"))
    if src not in sys.path:
        sys.path.insert(0, src)
    import cgalign.cli

    package = os.path.dirname(os.path.realpath(cgalign.cli.__file__))
    if package != os.path.join(src, "cgalign"):
        raise SystemExit("cgalign is already imported from %s, not from %s" % (package, src))
    return cgalign.cli


def digest_lines(cli, workloads, run, names, seed: int, work: str):
    """Yield `workload op output sha256` for every output of the named workloads."""
    for name in names:
        workload = workloads.WORKLOADS[name]
        pairs = workloads.generate(workload, seed, os.path.join(work, name))
        for op in run.plan_ops(workload, pairs):
            for output in OUTPUTS:
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = cli.main(op[output])
                if code != 0:
                    raise SystemExit("%s %s %s exited with %d" % (name, op["label"], output, code))
                if output == "diff":
                    with open(op["report"], "rb") as handle:
                        data = handle.read()
                else:
                    data = printed.getvalue().encode()
                yield "%s %s %s %s" % (name, op["label"], output, hashlib.sha256(data).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="the benchmark seed")
    parser.add_argument("--workload", action="append",
                        help="a workload to run; repeat for more (default: all)")
    parser.add_argument("--root", default=ROOT,
                        help="checkout whose src/ and perfbench/ are used "
                        "(default: the one holding this script)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    cli = import_cli(root)
    workloads, run = benchmark_modules(root)
    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error("unknown workload %s (choose from %s)"
                     % (", ".join(unknown), ", ".join(workloads.WORKLOADS)))
    with tempfile.TemporaryDirectory() as work:
        for line in digest_lines(cli, workloads, run, names, args.seed, work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
