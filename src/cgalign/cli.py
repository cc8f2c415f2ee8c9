"""Command line interface.

Subcommands: diff (align two call graphs), eval (score a mapping report
against ground truth), ged (recompute edit cost of a reported mapping both
ways and check they agree), generate (emit synthetic graphs with truth).

Exit codes: 0 on success, 1 for usage errors, 2 for bad input data, 3 when
memory runs out (one `error: out of memory` line, never a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional, Tuple

from . import bp, evaluation, matchers, nap, similarity, synthetic
from .errors import DataError
from .graphs import (CallGraph, check_range, load_call_graph, read_json, save_call_graph,
                     validate_pair, write_json)

GED_AGREEMENT_TOL = 1e-9
MAX_THREADS = 64  # cap on diff --threads, kept for compatibility: BP runs on one thread


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data.

    A usage error is one line on stderr, without the usage text.
    """

    def error(self, message):
        sys.stderr.write("%s: error: %s (see %s -h)\n" % (self.prog, message, self.prog))
        raise SystemExit(1)


def _ranged(kind, low, high=math.inf, open_high=False):
    """argparse type: text that `kind` parses to a value check_range accepts."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = text  # not a number, which check_range refuses
        try:
            return check_range("value", value, low, high, kind is int, open_high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _add_cost_flags(sub):
    sub.add_argument("--sparsity", type=_ranged(float, 0, 1), default=0.0,
                     help="fraction of lowest-similarity pairs to prune (default 0)")
    sub.add_argument("--d-node", type=_ranged(float, 0), default=0.5,
                     help="cost of deleting or inserting a function (default 0.5)")
    sub.add_argument("--d-edge", type=_ranged(float, 0), default=0.5,
                     help="cost of deleting or inserting a call (default 0.5)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state on it."""
    parser = _Parser(prog="cgalign",
                     description="Align functions of two call graphs")
    commands = parser.add_subparsers(dest="command", required=True)

    diff = commands.add_parser("diff", help="compute a function mapping")
    diff.add_argument("graph_a")
    diff.add_argument("graph_b")
    _add_cost_flags(diff)
    diff.add_argument("--alpha", type=_ranged(float, 0, 1), default=0.75,
                      help="trade-off between function and call similarity (default 0.75)")
    diff.add_argument("--epsilon", type=_ranged(float, 0), default=0.5,
                      help="belief propagation slack penalty (default 0.5)")
    diff.add_argument("--max-iters", type=_ranged(int, 0), default=1000,
                      help="cap on belief propagation iterations (default 1000); 0 runs none "
                      "and reports the empty mapping as not converged")
    diff.add_argument("--damping", type=_ranged(float, 0, 1, open_high=True), default=0.0,
                      help="weight of a message's old value in its update (default 0)")
    diff.add_argument("--matcher", choices=("nap", "mwm", "mcs"), default="nap",
                      help="belief propagation (nap), maximum-weight matching of "
                      "similarities (mwm) or greedy structural matching (mcs); default nap")
    diff.add_argument("--k", type=_ranged(int, 1), default=2,
                      help="neighborhood radius for the mcs matcher (default 2)")
    diff.add_argument("--threads", type=_ranged(int, 1, MAX_THREADS), default=1,
                      help="1 to %d (default 1), accepted for compatibility: belief "
                      "propagation runs on one thread, and no result depends on it" % MAX_THREADS)
    diff.add_argument("--output", help="write the mapping report to this file")
    diff.add_argument("--json", action="store_true",
                      help="print the report as JSON on stdout")

    evl = commands.add_parser("eval", help="score a mapping report against truth")
    evl.add_argument("report")
    evl.add_argument("truth")
    evl.add_argument("--program-a", help="graph file to resolve report keys against")
    evl.add_argument("--program-b", help="the same for program B; give both or neither")
    evl.add_argument("--json", action="store_true", help="print the scores as JSON on stdout")

    ged = commands.add_parser("ged", help="recompute the edit cost of a report")
    ged.add_argument("graph_a")
    ged.add_argument("graph_b")
    ged.add_argument("report")
    _add_cost_flags(ged)
    ged.add_argument("--json", action="store_true", help="print the costs as JSON on stdout")

    gen = commands.add_parser("generate", help="emit synthetic graphs with truth")
    gen.add_argument("--n", type=_ranged(int, 0), required=True, help="functions in the base graph")
    gen.add_argument("--density", type=_ranged(float, 0, 1), default=0.1,
                     help="probability of each possible call (default 0.1)")
    gen.add_argument("--seed", type=_ranged(int, 0), default=0,
                     help="random seed of the base graph; --mutate uses seed + 1 (default 0)")
    gen.add_argument("--templates", type=_ranged(int, 1), default=None,
                     help="size of the feature template pool (default n // 4)")
    gen.add_argument("--out", required=True, help="path for the base graph")
    gen.add_argument("--mutate",
                     help="comma list like insert=2,delete=1,perturb=3,rewire=2")
    gen.add_argument("--out-b", help="path for the mutated graph (with --mutate)")
    gen.add_argument("--out-truth", help="path for the ground truth (with --mutate)")
    return parser


def _load_report(path: str) -> List[Tuple]:
    """The (key_a, key_b) pairs of a mapping report; each key an int or a str."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("matched"), list):
        raise DataError("%s: not a mapping report (missing 'matched')" % path)
    pairs = []
    for index, entry in enumerate(doc["matched"]):
        if (not isinstance(entry, list) or len(entry) < 2
                or any(isinstance(key, bool) or not isinstance(key, (int, str))
                       for key in entry[:2])):
            raise DataError("%s: matched[%d] must be [key_a, key_b, ...] with string "
                            "or integer keys" % (path, index))
        pairs.append((entry[0], entry[1]))
    return pairs


def _key_to_id(key, graph: CallGraph, names: dict, side: str) -> int:
    """Function id of a report or truth key, which their readers check is an int or a str."""
    if isinstance(key, int):
        if not 0 <= key < graph.n:
            raise DataError("function index %d out of range for %s" % (key, side))
        return key
    if key not in names:
        raise DataError("function %r not found in %s" % (key, side))
    return names[key]


def _pair_ids(pairs, a: CallGraph, b: CallGraph) -> List[Tuple[int, int]]:
    """Function ids of a report's or truth's (key_a, key_b) pairs, in order."""
    names_a, names_b = ({name: i for i, name in enumerate(g.names) if name is not None}
                        for g in (a, b))
    return [(_key_to_id(ka, a, names_a, "program A"), _key_to_id(kb, b, names_b, "program B"))
            for ka, kb in pairs]


def _solve(args, sim, a: CallGraph, b: CallGraph):
    """The mapping, the problem its report is scored on, and BP's iterations.

    Only belief propagation reads the links between all candidates; the
    baselines match on the candidates alone, and their mapping is scored on
    the problem over its own pairs, which gives the same values.
    """
    if args.matcher == "nap":
        problem = nap.build_problem(sim, a, b, alpha=args.alpha,
                                    d_node=args.d_node, d_edge=args.d_edge)
        config = bp.BpConfig(epsilon=args.epsilon, max_iterations=args.max_iters,
                             damping=args.damping, threads=args.threads)
        mapping, diag = bp.solve_nap(problem, config)
        return problem, mapping, diag.iterations, diag.converged
    candidates = nap.build_candidates(sim, d_node=args.d_node)
    if args.matcher == "mwm":
        mapping = matchers.max_weight_matching(candidates.cand_rows, candidates.cand_cols,
                                               candidates.node_weights)
    else:
        mapping = matchers.solve_mcs_greedy(candidates, a, b, k=args.k)
    problem = nap.mapping_problem(sim, a, b, mapping, alpha=args.alpha,
                                  d_node=args.d_node, d_edge=args.d_edge)
    return problem, mapping, 0, True


def cmd_diff(args) -> int:
    a = load_call_graph(args.graph_a)
    b = load_call_graph(args.graph_b)
    sim_config = similarity.SimilarityConfig(sparsity_ratio=args.sparsity)
    sim = similarity.build_similarity_matrix(a, b, sim_config)  # refuses a mismatched pair
    problem, mapping, iterations, converged = _solve(args, sim, a, b)

    matched = sorted(mapping.pairs)
    scores = sim.scores[nap.candidate_indices(sim, mapping)].tolist()  # of the sorted pairs
    matched_rows = {i for i, _ in matched}
    matched_cols = {j for _, j in matched}
    report = {
        "program_a": a.name,
        "program_b": b.name,
        "settings": {
            "matcher": args.matcher, "alpha": args.alpha, "epsilon": args.epsilon,
            "sparsity": args.sparsity, "d_node": args.d_node, "d_edge": args.d_edge,
            "max_iters": args.max_iters, "damping": args.damping, "k": args.k,
        },
        "matched": [[a.key_of(i), b.key_of(j), s] for (i, j), s in zip(matched, scores)],
        "unmatched_a": [a.key_of(i) for i in range(a.n) if i not in matched_rows],
        "unmatched_b": [b.key_of(j) for j in range(b.n) if j not in matched_cols],
        "objective": nap.nap_objective(problem, mapping),
        "ged": nap.edit_cost(problem, mapping),  # alpha plays no part in it
        "squares": nap.count_squares(problem, mapping),
        "iterations": iterations,
        "converged": converged,
    }
    if args.output:
        write_json(args.output, report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("matched %d of %d x %d functions; objective %.6f, ged %.6f, "
              "squares %d, iterations %d%s"
              % (len(matched), a.n, b.n, report["objective"], report["ged"],
                 report["squares"], iterations,
                 "" if converged else " (not converged)"))
    return 0


def cmd_eval(args) -> int:
    predicted = set(_load_report(args.report))
    truth_pairs = set(evaluation.load_ground_truth(args.truth).pairs)
    if args.program_a is not None:
        a = load_call_graph(args.program_a)
        b = load_call_graph(args.program_b)
        predicted = {(a.key_of(i), b.key_of(j)) for i, j in _pair_ids(predicted, a, b)}
        truth_pairs = {(a.key_of(i), b.key_of(j)) for i, j in _pair_ids(truth_pairs, a, b)}
    report = evaluation.score(predicted, truth_pairs)
    if args.json:
        print(json.dumps(vars(report), indent=2, sort_keys=True))
    else:
        print("common %d of %d predicted / %d truth" % (report.n_common,
                                                        report.n_predicted,
                                                        report.n_truth))
        print("precision %.4f  recall %.4f  f1 %.4f"
              % (report.precision, report.recall, report.f1))
        print("swapped convention: precision %.4f  recall %.4f"
              % (report.swapped_precision, report.swapped_recall))
    return 0


def cmd_ged(args) -> int:
    a = load_call_graph(args.graph_a)
    b = load_call_graph(args.graph_b)
    validate_pair(a, b)  # before the report, whose faults would otherwise be named first
    mapping = nap.Mapping.from_pairs(_pair_ids(_load_report(args.report), a, b))
    sim_config = similarity.SimilarityConfig(sparsity_ratio=args.sparsity)
    sim = similarity.build_similarity_matrix(a, b, sim_config)
    direct = nap.ged_cost_direct(a, b, mapping, sim,
                                 d_node=args.d_node, d_edge=args.d_edge)
    editpath = nap.ged_cost_editpath(a, b, mapping, sim,
                                     d_node=args.d_node, d_edge=args.d_edge)
    gap = abs(direct - editpath)
    if args.json:
        print(json.dumps({"ged_direct": direct, "ged_editpath": editpath,
                          "difference": gap}, indent=2, sort_keys=True))
    else:
        print("ged direct    %.9f" % direct)
        print("ged edit path %.9f" % editpath)
    if gap > GED_AGREEMENT_TOL:
        sys.stderr.write("cost routes disagree by %g\n" % gap)
        return 2
    return 0


def _parse_mutation(text: str) -> synthetic.MutationSpec:
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError("bad mutation term %r (expected key=value)" % part)
        key, _, raw = part.partition("=")
        if key not in ("insert", "delete", "perturb", "rewire", "noise"):
            raise DataError("unknown mutation key %r" % key)
        try:
            values[key] = int(raw)
        except ValueError:
            raise DataError("mutation value for %r must be an integer" % key)
    try:
        return synthetic.MutationSpec(**values)
    except ValueError as exc:
        raise DataError(str(exc))


def cmd_generate(args) -> int:
    """Generate (and mutate) first, so a bad flag leaves no file behind."""
    if args.mutate is not None:
        if not args.out_b or not args.out_truth:
            raise DataError("--mutate requires --out-b and --out-truth")
        spec = _parse_mutation(args.mutate)
    try:
        graph = synthetic.generate_graph(args.n, edge_density=args.density,
                                         seed=args.seed, templates=args.templates)
        if args.mutate is not None:
            mutated, truth = synthetic.mutate(graph, spec, seed=args.seed + 1)
    except ValueError as exc:
        raise DataError(str(exc))
    save_call_graph(graph, args.out)
    outputs = [args.out]
    if args.mutate is not None:
        save_call_graph(mutated, args.out_b)
        evaluation.save_ground_truth(truth, args.out_truth)
        outputs += [args.out_b, args.out_truth]
    print("wrote " + ", ".join(outputs))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and (args.program_a is None) != (args.program_b is None):
        parser.error("eval: --program-a and --program-b go together")
    if (args.command == "generate" and args.mutate is None
            and (args.out_b is not None or args.out_truth is not None)):
        parser.error("generate: --out-b and --out-truth need --mutate")
    try:
        # by name, so a wrapper set on this module is called
        return globals()["cmd_" + args.command](args)
    except DataError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError as exc:  # numpy's message says how much it could not allocate
        detail = " ".join(str(exc).split())
        sys.stderr.write("error: out of memory%s\n" % (": " + detail if detail else ""))
        return 3


if __name__ == "__main__":
    sys.exit(main())
