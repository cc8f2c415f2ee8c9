"""Recall of the three matchers under increasing mutation intensity.

For each intensity level the same fraction of functions gets its features
perturbed and the same fraction of calls gets rewired; recall against the
generator's ground truth is averaged over seeds.
"""

import argparse
import csv
import sys

import numpy as np

import cgalign as cg


def run_level(fraction, args):
    bp_recalls, mwm_recalls, mcs_recalls = [], [], []
    for seed in range(args.seeds):
        base = cg.generate_graph(args.n, edge_density=args.density, seed=seed,
                                 name="orig")
        spec = cg.MutationSpec(perturb=int(round(fraction * args.n)),
                               rewire=int(round(fraction * len(base.edges))),
                               noise=args.noise)
        mutated, truth = cg.mutate(base, spec, seed=seed + 10_000)
        sim = cg.build_similarity_matrix(base, mutated, cg.SimilarityConfig())
        problem = cg.build_problem(sim, base, mutated)

        m_bp, _ = cg.solve_nap(problem, cg.BpConfig())
        m_mwm = cg.max_weight_matching(problem.cand_rows, problem.cand_cols,
                                       problem.node_weights)
        m_mcs = cg.solve_mcs_greedy(problem, base, mutated)
        for mapping, bucket in ((m_bp, bp_recalls), (m_mwm, mwm_recalls),
                                (m_mcs, mcs_recalls)):
            keyed = cg.mapping_to_keys(mapping, base, mutated)
            bucket.append(cg.score(keyed, truth).recall)
    return (float(np.mean(bp_recalls)), float(np.mean(mwm_recalls)),
            float(np.mean(mcs_recalls)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50, help="functions per graph")
    parser.add_argument("--density", type=float, default=0.06)
    parser.add_argument("--seeds", type=int, default=20,
                        help="instances per intensity level")
    parser.add_argument("--noise", type=int, default=40,
                        help="feature perturbation magnitude")
    parser.add_argument("--levels", default="0,0.05,0.1,0.2,0.3",
                        help="comma list of mutated fractions")
    parser.add_argument("--csv", help="also write results to this file")
    args = parser.parse_args(argv)

    levels = [float(x) for x in args.levels.split(",") if x.strip()]
    rows = []
    print("mutated   recall(bp)  recall(mwm)  recall(mcs)")
    for fraction in levels:
        bp, mwm, mcs = run_level(fraction, args)
        rows.append((fraction, bp, mwm, mcs))
        print("%6.0f%%   %10.4f  %11.4f  %11.4f" % (100 * fraction, bp, mwm, mcs))

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["mutated_fraction", "recall_bp", "recall_mwm",
                             "recall_mcs"])
            writer.writerows(rows)
        print("wrote %s" % args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
