"""Seeded graph generator and the mutation operator."""

import numpy as np
import pytest

from cgalign import (BpConfig, MutationSpec, SimilarityConfig, build_problem,
                     build_similarity_matrix, generate_graph, mapping_to_keys,
                     mutate, score, solve_nap)


def test_empty_graph():
    g = generate_graph(0)
    assert g.n == 0 and len(g.edges) == 0


def test_zero_density_means_no_edges():
    g = generate_graph(15, edge_density=0.0, seed=1)
    assert len(g.edges) == 0


def test_generation_is_deterministic():
    g1 = generate_graph(12, edge_density=0.3, seed=9)
    g2 = generate_graph(12, edge_density=0.3, seed=9)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges


def test_different_seeds_differ():
    g1 = generate_graph(12, edge_density=0.3, seed=9)
    g2 = generate_graph(12, edge_density=0.3, seed=10)
    assert g1.nodes != g2.nodes


def test_generated_names_are_unique():
    g = generate_graph(30, seed=2)
    names = g.names()
    assert len(set(names)) == 30
    assert all(name is not None for name in names)


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_graph(-1)
    with pytest.raises(ValueError):
        generate_graph(5, edge_density=1.5)
    for templates in (0, -1):
        with pytest.raises(ValueError, match="templates"):
            generate_graph(5, templates=templates)


def test_mutation_spec_validation():
    with pytest.raises(ValueError):
        MutationSpec(insert=-1)
    with pytest.raises(ValueError):
        MutationSpec(noise=0)


def test_empty_spec_keeps_graph_and_identity_truth():
    g = generate_graph(10, edge_density=0.2, seed=3)
    mutated, truth = mutate(g, MutationSpec(), seed=4)
    assert mutated.edges == g.edges
    assert [n.features for n in mutated.nodes] == [n.features for n in g.nodes]
    assert [n.order_index for n in mutated.nodes] == [n.order_index for n in g.nodes]
    assert truth.pairs == frozenset((name, name) for name in g.names())


def test_delete_shrinks_truth():
    g = generate_graph(10, edge_density=0.2, seed=5)
    mutated, truth = mutate(g, MutationSpec(delete=1), seed=6)
    assert mutated.n == 9
    assert len(truth) == 9


def test_insert_grows_graph_but_not_truth():
    g = generate_graph(10, edge_density=0.2, seed=7)
    mutated, truth = mutate(g, MutationSpec(insert=3), seed=8)
    assert mutated.n == 13
    assert len(truth) == 10
    assert sum(1 for name in mutated.names() if name.startswith("ins")) == 3


def test_perturb_keeps_names_changes_features():
    g = generate_graph(10, edge_density=0.0, seed=11)
    mutated, _ = mutate(g, MutationSpec(perturb=10, noise=20), seed=12)
    assert mutated.names() == g.names()
    changed = sum(1 for old, new in zip(g.nodes, mutated.nodes)
                  if old.features.content != new.features.content
                  or old.features.topology != new.features.topology)
    assert changed >= 8  # jitter can no-op on a slot, but not on most


def test_rewire_moves_edges():
    g = generate_graph(20, edge_density=0.2, seed=13)
    mutated, _ = mutate(g, MutationSpec(rewire=10), seed=14)
    assert mutated.n == g.n
    assert mutated.edges != g.edges
    assert len(mutated.edges) == len(g.edges)


def test_mutate_is_deterministic():
    g = generate_graph(15, edge_density=0.2, seed=15)
    spec = MutationSpec(insert=2, delete=2, perturb=3, rewire=4)
    m1, t1 = mutate(g, spec, seed=16)
    m2, t2 = mutate(g, spec, seed=16)
    assert m1.nodes == m2.nodes and m1.edges == m2.edges
    assert t1 == t2


def test_mutate_requires_names():
    from conftest import make_graph
    from cgalign import CallGraph, FunctionNode
    g = make_graph(2)
    anon = CallGraph(name="g", instruction_classes=g.instruction_classes,
                     nodes=tuple(FunctionNode(id=n.id, order_index=n.order_index,
                                              features=n.features) for n in g.nodes),
                     edges=frozenset())
    with pytest.raises(ValueError, match="named"):
        mutate(anon, MutationSpec())


def test_mutate_bounds_checked():
    g = generate_graph(5, seed=17)
    with pytest.raises(ValueError, match="delete"):
        mutate(g, MutationSpec(delete=6))
    with pytest.raises(ValueError, match="perturb"):
        mutate(g, MutationSpec(delete=3, perturb=3))


def test_solver_recovers_truth_after_mild_mutation():
    # insert 2 + perturb 3 on n = 20: the matcher should find nearly all of
    # the surviving functions across many seeds
    recalls = []
    for seed in range(50):
        g = generate_graph(20, edge_density=0.1, seed=seed + 700, name="orig")
        mutated, truth = mutate(g, MutationSpec(insert=2, perturb=3), seed=seed)
        sim = build_similarity_matrix(g, mutated, SimilarityConfig())
        problem = build_problem(sim, g, mutated, alpha=0.75)
        mapping, _ = solve_nap(problem, BpConfig())
        recalls.append(score(mapping_to_keys(mapping, g, mutated), truth).recall)
    assert float(np.mean(recalls)) >= 0.9
