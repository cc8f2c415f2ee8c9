"""The benchmark's counters (perfbench/tracer.py) read the program's objects as they are."""

import importlib.util
import os
import sys

from cgalign import (BpConfig, SimilarityConfig, build_problem, build_similarity_matrix,
                     generate_graph, solve_nap)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counters_read_a_small_diff(monkeypatch):
    tracer = load_tracer(monkeypatch)
    a = generate_graph(30, edge_density=0.15, seed=61, name="A")
    b = generate_graph(28, edge_density=0.15, seed=62, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.3))
    problem = build_problem(sim, a, b)
    result = solve_nap(problem, BpConfig(max_iterations=5))

    assert tracer._graph_counts(a) == {"functions": 30, "calls": len(a.edges)}
    assert tracer._similarity_counts(sim) == {"candidates": len(sim), "pairs": 30 * 28}
    counts = tracer._problem_counts(problem)
    assert counts["links"] == len(problem.link_u) > 0
    assert counts["squares"] == problem.n_squares
    assert counts["edge_pairs"] == len(a.edges) * len(b.edges)
    assert counts["bytes"] > 0
    bp_counts = tracer._bp_counts(result)
    assert bp_counts["iterations"] == result[1].iterations
    assert bp_counts["stop_reason"] == result[1].stop_reason
    assert bp_counts["ops_total"] == result[1].ops_total
