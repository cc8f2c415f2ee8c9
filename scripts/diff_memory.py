"""Memory of one in-process `cgalign diff`.

    python scripts/diff_memory.py A.json B.json [diff flags ...]

Runs `cgalign diff` once in this process on the two call-graph files, with
any further arguments passed on to it, and prints:

* peak_rss: the process's peak resident set size (ru_maxrss) right after
  the diff, which covers interpreter start, imports and the diff itself;
* minor_faults: the minor page faults taken during the diff (ru_minflt);
* build_problem: the tracemalloc peak of build_problem on the same pair,
  above what was allocated before it;
* bp_iterate: the tracemalloc peak of one bp_iterate after init_state,
  above what the problem and the state hold.

The last two run after the diff, with the diff's similarity and cost
settings, so tracing slows nothing that peak_rss and minor_faults measure.
The package is imported from the `src/` directory next to this script.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from cgalign import bp, cli, nap, similarity  # noqa: E402
from cgalign.graphs import load_call_graph  # noqa: E402


def traced_peak(run):
    """(result of run(), tracemalloc peak in bytes above the memory traced before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("graph_a")
    parser.add_argument("graph_b")
    parser.add_argument("diff_args", nargs=argparse.REMAINDER,
                        help="further arguments of cgalign diff, such as --max-iters 10")
    own = parser.parse_args(argv)
    diff = ["diff", own.graph_a, own.graph_b] + own.diff_args
    args = cli.build_parser().parse_args(diff)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(diff)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if code != 0:
        return code

    a, b = load_call_graph(args.graph_a), load_call_graph(args.graph_b)
    sim = similarity.build_similarity_matrix(
        a, b, similarity.SimilarityConfig(sparsity_ratio=args.sparsity))
    problem, build_peak = traced_peak(lambda: nap.build_problem(
        sim, a, b, alpha=args.alpha, d_node=args.d_node, d_edge=args.d_edge))
    state = bp.init_state(problem, bp.BpConfig(epsilon=args.epsilon, damping=args.damping))
    _, iterate_peak = traced_peak(lambda: bp.bp_iterate(problem, state))

    mib = 2.0 ** 20
    print("%-14s %10s  %s" % ("metric", "value", "unit"))
    print("%-14s %10.1f  %s" % ("peak_rss", usage.ru_maxrss / 1024.0, "MiB"))
    print("%-14s %10d  %s" % ("minor_faults", usage.ru_minflt - faults, "faults"))
    print("%-14s %10.1f  %s" % ("build_problem", build_peak / mib, "MiB"))
    print("%-14s %10.1f  %s" % ("bp_iterate", iterate_peak / mib, "MiB"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
