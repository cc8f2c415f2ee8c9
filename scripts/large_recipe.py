"""One pruned diff of a large generated pair, layer by layer.

    python scripts/large_recipe.py --n N [--sparsity 0.99] [--cap 12]

Generates a graph of N functions with a mean out-degree of 3
(generate_graph(N, edge_density=3 / (N - 1), seed=11)), mutates a copy of
it (N // 10 perturbed functions and a tenth of its calls rewired, seed 12),
and aligns the two in this process: similarity at --sparsity, the problem
build, then belief propagation capped at --cap iterations.  It prints one
`metric value unit` line each for:

* kept and links: the kept candidates and the problem's links;
* generate_s, similarity_s, build_s and bp_s: seconds per layer, and of
  bp_s the seconds spent rounding beliefs to modes (bp_mode_s) and
  scoring them (bp_score_s);
* rss_after_similarity and peak_rss: the process's peak resident set size
  (ru_maxrss) right after similarity and at the end;
* iterations, best_step and recall: BP's iterations, the step whose mode
  it returned (0 is the mode before any update) and the recall of that
  mapping against the mutation's truth.

Run one process per size: peak RSS covers the whole process.  The package
is imported from the `src/` directory next to this script.
"""

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import cgalign as cg  # noqa: E402


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="functions in the generated graph")
    parser.add_argument("--sparsity", type=float, default=0.99,
                        help="fraction of lowest-similarity pairs to prune (default 0.99)")
    parser.add_argument("--cap", type=int, default=12,
                        help="cap on belief propagation iterations (default 12)")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2")

    tick = time.perf_counter()
    a = cg.generate_graph(args.n, edge_density=3 / (args.n - 1), seed=11, name="A")
    spec = cg.MutationSpec(perturb=args.n // 10, rewire=len(a.edges) // 10)
    b, truth = cg.mutate(a, spec, seed=12)
    generated = time.perf_counter()
    sim = cg.build_similarity_matrix(a, b, cg.SimilarityConfig(sparsity_ratio=args.sparsity))
    scored = time.perf_counter()
    rss_after_similarity = peak_rss_mib()
    problem = cg.build_problem(sim, a, b)
    built = time.perf_counter()
    mapping, diag = cg.solve_nap(problem, cg.BpConfig(max_iterations=args.cap))
    solved = time.perf_counter()
    trace = diag.objective_trace
    recall = cg.score(cg.mapping_to_keys(mapping, a, b), truth).recall

    # (metric, value, unit, format)
    rows = [("kept", len(sim), "pairs", "%d"), ("links", len(problem.link_u), "links", "%d"),
            ("generate_s", generated - tick, "s", "%.3f"),
            ("similarity_s", scored - generated, "s", "%.3f"),
            ("build_s", built - scored, "s", "%.3f"), ("bp_s", solved - built, "s", "%.3f"),
            ("bp_mode_s", diag.mode_seconds, "s", "%.3f"),
            ("bp_score_s", diag.score_seconds, "s", "%.3f"),
            ("rss_after_similarity", rss_after_similarity, "MiB", "%.1f"),
            ("peak_rss", peak_rss_mib(), "MiB", "%.1f"),
            ("iterations", diag.iterations, "count", "%d"),
            # the first step whose mode scored the best objective, as BP keeps it
            ("best_step", max(range(len(trace)), key=trace.__getitem__) if trace else 0,
             "step", "%d"),
            ("recall", recall, "ratio", "%.4f")]
    print("%-22s %12s  %s" % ("metric", "value", "unit"))
    for metric, value, unit, form in rows:
        print("%-22s %12s  %s" % (metric, form % value, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
