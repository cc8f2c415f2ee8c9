"""Seeded graph generator and the mutation operator."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from cgalign import synthetic
from cgalign import (BpConfig, MutationSpec, SimilarityConfig, build_problem,
                     build_similarity_matrix, generate_graph, mapping_to_keys,
                     mutate, save_call_graph, save_ground_truth, score, solve_nap)

from conftest import make_graph, same_graph


def test_empty_graph():
    g = generate_graph(0)
    assert g.n == 0 and len(g.edges) == 0


def test_zero_density_means_no_edges():
    g = generate_graph(15, edge_density=0.0, seed=1)
    assert len(g.edges) == 0


def test_generation_is_deterministic():
    g1 = generate_graph(12, edge_density=0.3, seed=9)
    g2 = generate_graph(12, edge_density=0.3, seed=9)
    assert same_graph(g1, g2)


def test_different_seeds_differ():
    g1 = generate_graph(12, edge_density=0.3, seed=9)
    g2 = generate_graph(12, edge_density=0.3, seed=10)
    assert not np.array_equal(g1.features, g2.features)


def test_generated_names_are_unique():
    g = generate_graph(30, seed=2)
    names = g.names
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


def whole_draw(rng, n, edge_density):
    """The calls as one (n, n) draw of the mask gives them."""
    if n < 2 or edge_density == 0:
        return np.empty((0, 2), dtype=np.int64)
    mask = rng.random((n, n)) < edge_density
    np.fill_diagonal(mask, False)
    return np.argwhere(mask)


# (n, BLOCK): one block, whole blocks, a partial last block, one row per block
@pytest.mark.parametrize("n, block", [(1, 65_536), (2, 65_536), (256, 65_536), (257, 65_536),
                                      (700, 65_536), (30, 90), (30, 10)])
@pytest.mark.parametrize("density", [0.0, 0.004, 0.3, 1.0])
def test_calls_drawn_in_row_blocks_equal_one_whole_draw(n, block, density, monkeypatch):
    monkeypatch.setattr(synthetic, "BLOCK", block)
    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    edges = synthetic._draw_calls(rng, n, density)
    want = whole_draw(reference, n, density)
    assert edges.dtype == want.dtype and np.array_equal(edges, want)
    assert rng.random() == reference.random()  # the same generator state


def test_call_draw_never_holds_the_whole_mask():
    n = 2000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        edges = synthetic._draw_calls(np.random.default_rng(11), n, 3 / (n - 1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(edges) > n
    # one block's doubles and mask, about 0.6 MB; the whole mask alone is n * n bytes
    assert peak < n * n


def test_mutation_spec_validation():
    with pytest.raises(ValueError):
        MutationSpec(insert=-1)
    with pytest.raises(ValueError):
        MutationSpec(noise=0)


def test_empty_spec_keeps_graph_and_identity_truth():
    g = generate_graph(10, edge_density=0.2, seed=3)
    mutated, truth = mutate(g, MutationSpec(), seed=4)
    assert np.array_equal(mutated.edges, g.edges)
    assert np.array_equal(mutated.features, g.features)
    assert np.array_equal(mutated.order, g.order)
    assert truth.pairs == frozenset((name, name) for name in g.names)


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
    assert sum(1 for name in mutated.names if name.startswith("ins")) == 3


def test_perturb_keeps_names_changes_features():
    g = generate_graph(10, edge_density=0.0, seed=11)
    mutated, _ = mutate(g, MutationSpec(perturb=10, noise=20), seed=12)
    assert mutated.names == g.names
    # content and topology: every column but the two neighborhood counts
    changed = np.count_nonzero((g.features[:, :-2] != mutated.features[:, :-2]).any(axis=1))
    assert changed >= 8  # jitter can no-op on a slot, but not on most


def test_rewire_moves_edges():
    g = generate_graph(20, edge_density=0.2, seed=13)
    mutated, _ = mutate(g, MutationSpec(rewire=10), seed=14)
    assert mutated.n == g.n
    assert not np.array_equal(mutated.edges, g.edges)
    assert len(mutated.edges) == len(g.edges)


def test_mutate_is_deterministic():
    g = generate_graph(15, edge_density=0.2, seed=15)
    spec = MutationSpec(insert=2, delete=2, perturb=3, rewire=4)
    m1, t1 = mutate(g, spec, seed=16)
    m2, t2 = mutate(g, spec, seed=16)
    assert same_graph(m1, m2)
    assert t1 == t2


def test_mutate_requires_names():
    anon = dataclasses.replace(make_graph(2), names=(None, None))
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


# sha256 of the files save_call_graph (base, mutated) and save_ground_truth write
# for generate_graph(**args) and mutate(base, MutationSpec(**spec), seed=args["seed"] + 1);
# a change to the generator, the mutation operator or either writer shows up here
PINNED_OUTPUTS = [
    (dict(n=12, edge_density=0.2, seed=3), dict(insert=2, delete=1, perturb=3, rewire=2),
     ("f39aa753cebdc49d9fc249965babc2f4d2770ebd301029fe0eb980ec1956043b",
      "5644e5cba87d1208f4b7a7382f7f6e27c955308ea9767971ebaa8f2b31960713",
      "697ab6a651a68d43ffb61e51b37d2e801c7f7ad36e53738624b7f2623483d033")),
    (dict(n=40, edge_density=0.1, seed=7, templates=5),
     dict(insert=3, delete=3, perturb=5, rewire=4, noise=4),
     ("127d9f836a95e798e8ad782ad4f7bb360f6d4dd0ed3945141347f855457a958f",
      "8451a176dbad49810e010fd526627a2026f59dea3d1e79ec23b3ef6e9934a68f",
      "3f5a96a653e0bc4b45c42a05595edd1c3303ffaf9a0fe5183fe965f1c4d2a4cf")),
    (dict(n=6, edge_density=0.5, seed=0, classes=()),
     dict(insert=1, delete=2, perturb=2, rewire=3),
     ("9bbf7420f0c64427a8542d46cb9fefc0fc858baa7a90bff78fc645ef19eceeb4",
      "e2c0587ea8e0bb858472df8e501c7725b8be1a06ab4dea26e246dcfaa37b38f5",
      "331669863f040249bddc37c44c515a88164b77af7e28aecba22e6847c6503c83")),
]


@pytest.mark.parametrize("args, spec, digests", PINNED_OUTPUTS,
                         ids=["n%d" % args["n"] for args, _, _ in PINNED_OUTPUTS])
def test_generated_files_are_byte_identical_to_pinned(tmp_path, args, spec, digests):
    base = generate_graph(**args)
    mutated, truth = mutate(base, MutationSpec(**spec), seed=args["seed"] + 1)
    paths = [tmp_path / name for name in ("a.json", "b.json", "truth.json")]
    save_call_graph(base, str(paths[0]))
    save_call_graph(mutated, str(paths[1]))
    save_ground_truth(truth, str(paths[2]))
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths) == digests
