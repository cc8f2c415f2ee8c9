"""Alignment problem assembly, its objective, and the two edit-cost routes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgalign import (Candidates, Mapping, MappingError, MutationSpec, NapProblem,
                     baseline_cost, build_candidates, build_problem, count_squares,
                     generate_graph, ged_cost_direct, ged_cost_editpath, mapping_problem,
                     max_weight_matching, mutate, nap_objective, solve_mcs_greedy)
from cgalign import SimilarityConfig, SimilarityMatrix, build_similarity_matrix, nap

from conftest import FORMS, dense_sim, dict_lookup, in_form, make_graph


def square_instance():
    """A: 0->1, B: 0->1, diagonal s = 1; the spec pair used throughout."""
    a = make_graph(2, edges=[(0, 1)], name="A")
    b = make_graph(2, edges=[(0, 1)], name="B")
    sim = dense_sim([[1.0, 0.1], [0.1, 1.0]])
    return a, b, sim


def test_mapping_rejects_duplicate_rows():
    with pytest.raises(MappingError, match="one-to-one"):
        Mapping.from_pairs([(0, 0), (0, 1)])


def test_mapping_rejects_duplicate_cols():
    with pytest.raises(MappingError, match="one-to-one"):
        Mapping.from_pairs([(0, 1), (2, 1)])


@pytest.mark.parametrize("pairs, message", [
    ([(4, 0), (2, 3), (4, 1), (2, 5)],
     "function 2 of program A is in pairs (2, 3) and (2, 5)"),
    ([(0, 7), (3, 2), (1, 2), (5, 7)],
     "function 2 of program B is in pairs (1, 2) and (3, 2)"),
    ([(0, 7), (3, 2), (3, 7)],
     "function 3 of program A is in pairs (3, 2) and (3, 7)"),
])
def test_mapping_names_the_first_function_used_twice(pairs, message):
    with pytest.raises(MappingError) as caught:
        Mapping.from_pairs(pairs)
    assert str(caught.value) == "one-to-one constraint violated: " + message


def test_mapping_basics():
    m = Mapping.from_pairs([(2, 0), (0, 1)])
    assert len(m) == 2
    assert m.sorted_pairs() == [(0, 1), (2, 0)]
    assert m.as_dict() == {2: 0, 0: 1}
    assert len(Mapping.empty()) == 0


def test_node_weights_equal_similarity_at_default_cost():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b)  # d_node = 0.5
    assert np.allclose(p.node_weights, sim.scores)


def test_node_weight_formula_at_other_costs():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b, d_node=0.3)
    assert np.allclose(p.node_weights, sim.scores + 2 * 0.3 - 1.0)


def test_single_square_for_matching_edges():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b)
    assert p.n_squares == 1
    assert p.link_count.tolist() == [1]
    u = (p.cand_rows[p.link_u[0]], p.cand_cols[p.link_u[0]])
    v = (p.cand_rows[p.link_v[0]], p.cand_cols[p.link_v[0]])
    assert (u, v) == ((0, 0), (1, 1))
    assert p.link_w[0] == p.link_count[0] * 2 * 0.5
    assert len(p.link_w) == 1 and p.link_w[0] == 1.0


def test_no_edges_no_squares():
    a = make_graph(3, name="A")
    b = make_graph(3, edges=[(0, 1)], name="B")
    p = build_problem(dense_sim(np.full((3, 3), 0.5)), a, b)
    assert p.n_squares == 0
    assert len(p.link_w) == 0


def test_squares_only_connect_retained_candidates():
    a = generate_graph(6, edge_density=0.4, seed=21, name="A")
    b = generate_graph(6, edge_density=0.4, seed=22, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.6))
    p = build_problem(sim, a, b)
    edges_a = set(map(tuple, a.edges.tolist()))
    edges_b = set(map(tuple, b.edges.tolist()))
    assert p.n_squares > 0
    for u, v, count in zip(p.link_u.tolist(), p.link_v.tolist(), p.link_count.tolist()):
        i, i2 = int(p.cand_rows[u]), int(p.cand_cols[u])
        j, j2 = int(p.cand_rows[v]), int(p.cand_cols[v])
        assert sim.lookup(i, i2) == u and sim.lookup(j, j2) == v
        # one square per direction in which both calls exist
        forward = (i, j) in edges_a and (i2, j2) in edges_b
        backward = (j, i) in edges_a and (j2, i2) in edges_b
        assert count == forward + backward >= 1


def brute_force_links(sim, a, b):
    """Links and square counts from a scan of every (edge in A, edge in B) pair."""
    index = {(int(r), int(c)): k for k, (r, c) in enumerate(zip(sim.rows, sim.cols))}
    counts = {}
    for i, k in a.edges.tolist():
        for j, m in b.edges.tolist():
            if (i, j) in index and (k, m) in index:
                link = tuple(sorted((index[i, j], index[k, m])))
                counts[link] = counts.get(link, 0) + 1
    return sorted((u, v, n) for (u, v), n in counts.items())


@pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
def test_links_equal_brute_force_enumeration(sparsity):
    rng = np.random.default_rng(int(sparsity * 10))
    for trial in range(8):
        n_a, n_b = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        a = generate_graph(n_a, edge_density=float(rng.uniform(0, 0.4)),
                           seed=int(rng.integers(0, 2**31)), name="A")
        b = generate_graph(n_b, edge_density=float(rng.uniform(0, 0.4)),
                           seed=int(rng.integers(0, 2**31)), name="B")
        sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=sparsity))
        p = build_problem(sim, a, b, d_edge=0.3)
        got = list(zip(p.link_u.tolist(), p.link_v.tolist(), p.link_count.tolist()))
        assert got == brute_force_links(sim, a, b)
        assert p.n_squares == sum(n for _, _, n in got)
        assert np.array_equal(p.link_w, p.link_count * (2 * 0.3))


def test_objective_of_empty_mapping_is_zero():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b)
    assert nap_objective(p, Mapping.empty()) == 0.0


def test_objective_golden_value():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b, alpha=0.75)
    full = Mapping.from_pairs([(0, 0), (1, 1)])
    assert nap_objective(p, full) == pytest.approx(0.75 * 2 + 0.25 * 1, abs=1e-12)


def test_objective_alpha_one_ignores_squares():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b, alpha=1.0)
    full = Mapping.from_pairs([(0, 0), (1, 1)])
    assert nap_objective(p, full) == pytest.approx(2.0, abs=1e-12)


def test_objective_rejects_pruned_pair():
    a = generate_graph(4, edge_density=0.3, seed=23, name="A")
    b = generate_graph(4, edge_density=0.3, seed=24, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.75))
    p = build_problem(sim, a, b)
    present = {(int(r), int(c)) for r, c in zip(p.cand_rows, p.cand_cols)}
    missing = next((i, j) for i in range(4) for j in range(4)
                   if (i, j) not in present)
    with pytest.raises(MappingError):
        nap_objective(p, Mapping.from_pairs([missing]))


def test_count_squares_empty_and_full():
    a, b, sim = square_instance()
    p = build_problem(sim, a, b)
    assert count_squares(p, Mapping.empty()) == 0
    assert count_squares(p, Mapping.from_pairs([(0, 0), (1, 1)])) == 1


def test_count_squares_identity_equals_edge_count():
    for seed, n in ((31, 5), (32, 6), (33, 7)):
        g = generate_graph(n, edge_density=0.3, seed=seed, name="g")
        if len(g.edges) > 10:
            continue
        sim = build_similarity_matrix(g, g, SimilarityConfig())
        p = build_problem(sim, g, g)
        ident = Mapping.from_pairs([(i, i) for i in range(n)])
        assert count_squares(p, ident) == len(g.edges)


def test_baseline_cost_formula():
    assert baseline_cost(2, 2, 1, 1, 0.5, 0.5) == pytest.approx(3.0)
    assert baseline_cost(3, 5, 2, 0, 0.25, 0.75) == pytest.approx(8 * 0.25 + 2 * 0.75)


def test_ged_empty_mapping_is_baseline():
    a, b, sim = square_instance()
    expected = baseline_cost(2, 2, 1, 1, 0.5, 0.5)
    assert ged_cost_direct(a, b, Mapping.empty(), sim) == pytest.approx(expected)
    assert ged_cost_editpath(a, b, Mapping.empty(), sim) == pytest.approx(expected)


def test_ged_identity_on_identical_graphs_is_zero():
    g = generate_graph(8, edge_density=0.25, seed=34, name="g")
    sim = build_similarity_matrix(g, g, SimilarityConfig(perturbation_scale=0.0))
    ident = Mapping.from_pairs([(i, i) for i in range(8)])
    assert ged_cost_direct(g, g, ident, sim) == pytest.approx(0.0, abs=1e-12)
    assert ged_cost_editpath(g, g, ident, sim) == pytest.approx(0.0, abs=1e-12)


def test_ged_square_instance_full_mapping_is_zero():
    a, b, sim = square_instance()
    full = Mapping.from_pairs([(0, 0), (1, 1)])
    assert ged_cost_direct(a, b, full, sim) == pytest.approx(0.0, abs=1e-12)
    assert ged_cost_editpath(a, b, full, sim) == pytest.approx(0.0, abs=1e-12)


def test_ged_single_pair_hand_account():
    # one matched pair with s = 0.25 and no calls anywhere:
    # 0.75 to edit it plus d_node for every unmatched function
    a = make_graph(3, name="A")
    b = make_graph(4, name="B")
    sim = dense_sim(np.full((3, 4), 0.25))
    m = Mapping.from_pairs([(0, 0)])
    expected = 0.75 + (2 + 3) * 0.5
    assert ged_cost_editpath(a, b, m, sim) == pytest.approx(expected, abs=1e-12)
    assert ged_cost_direct(a, b, m, sim) == pytest.approx(expected, abs=1e-12)


def test_ged_editpath_rejects_unscored_pair():
    a = generate_graph(3, edge_density=0.3, seed=35, name="A")
    b = generate_graph(3, edge_density=0.3, seed=36, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.8))
    present = {(int(r), int(c)) for r, c in zip(sim.rows, sim.cols)}
    missing = next((i, j) for i in range(3) for j in range(3)
                   if (i, j) not in present)
    with pytest.raises(MappingError):
        ged_cost_editpath(a, b, Mapping.from_pairs([missing]), sim)


BAD_COSTS = [
    ("d_node", float("nan"), "d_node must be a finite number >= 0, not nan"),
    ("d_node", -0.5, "d_node must be a finite number >= 0, not -0.5"),
    ("d_edge", float("inf"), "d_edge must be a finite number >= 0, not inf"),
    ("d_edge", "0.5", "d_edge must be a finite number >= 0, not '0.5'"),
    ("d_edge", -0.0, "d_edge must be a finite number >= 0, not -0.0"),
]


@pytest.mark.parametrize("field, value, message", BAD_COSTS,
                         ids=["%s-%s" % (field, value) for field, value, _ in BAD_COSTS])
def test_ged_routes_refuse_the_same_costs(field, value, message):
    a, b, sim = square_instance()
    costs = dict(d_node=0.5, d_edge=0.5)
    costs[field] = value
    mapping = Mapping.from_pairs([(0, 0)])
    for route in (ged_cost_direct, ged_cost_editpath):
        with pytest.raises(ValueError) as info:
            route(a, b, mapping, sim, **costs)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        baseline_cost(2, 2, 1, 1, costs["d_node"], costs["d_edge"])
    assert str(info.value) == message


def random_feasible_mapping(rng, n_a, n_b):
    k = int(rng.integers(0, min(n_a, n_b) + 1))
    rows = rng.permutation(n_a)[:k]
    cols = rng.permutation(n_b)[:k]
    return Mapping.from_pairs(zip(rows.tolist(), cols.tolist()))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ged_routes_agree_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n_a = int(rng.integers(1, 9))
    n_b = int(rng.integers(1, 9))
    a = generate_graph(n_a, edge_density=float(rng.uniform(0, 0.5)),
                       seed=int(rng.integers(0, 2**31)), name="A")
    b = generate_graph(n_b, edge_density=float(rng.uniform(0, 0.5)),
                       seed=int(rng.integers(0, 2**31)), name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    m = random_feasible_mapping(rng, n_a, n_b)
    d_node = float(rng.uniform(0.1, 1.0))
    d_edge = float(rng.uniform(0.1, 1.0))
    direct = ged_cost_direct(a, b, m, sim, d_node, d_edge)
    explicit = ged_cost_editpath(a, b, m, sim, d_node, d_edge)
    assert direct == pytest.approx(explicit, abs=1e-9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_objective_mirrors_edit_cost_at_equal_alpha(seed):
    # maximizing the alignment value is minimizing edit cost: check the exact
    # affine relation cost = baseline - 2 * objective at alpha = 0.5
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    a = generate_graph(n, edge_density=0.3, seed=int(rng.integers(0, 2**31)), name="A")
    b = generate_graph(n, edge_density=0.3, seed=int(rng.integers(0, 2**31)), name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    p = build_problem(sim, a, b, alpha=0.5)
    m = random_feasible_mapping(rng, n, n)
    cost = ged_cost_direct(a, b, m, sim)
    base = baseline_cost(n, n, len(a.edges), len(b.edges), 0.5, 0.5)
    assert cost == pytest.approx(base - 2.0 * nap_objective(p, m), abs=1e-9)


def reference_gain_parts(problem, mapping):
    """(node sum, square count) with both ends of every link gathered."""
    midx = nap.candidate_indices(problem.sim, mapping)
    chosen = np.zeros(problem.n_candidates, dtype=bool)
    chosen[midx] = True
    realized = chosen[problem.link_u] & chosen[problem.link_v]
    return float(problem.node_weights[midx].sum()), int(problem.link_count[realized].sum())


def retained_mapping(rng, p):
    """A random one-to-one mapping over the problem's retained candidates."""
    used_rows, used_cols, pairs = set(), set(), []
    for c in rng.permutation(p.n_candidates)[:int(rng.integers(0, p.n_candidates + 1))]:
        i, j = int(p.cand_rows[c]), int(p.cand_cols[c])
        if i not in used_rows and j not in used_cols:
            used_rows.add(i)
            used_cols.add(j)
            pairs.append((i, j))
    return Mapping.from_pairs(pairs)


@pytest.mark.parametrize("sparsity", [0.0, 0.6])
@pytest.mark.parametrize("density", [0.0, 0.3])
def test_scoring_by_link_ranges_matches_all_links_reference(sparsity, density):
    rng = np.random.default_rng(7)
    a = generate_graph(24, edge_density=density, seed=51, name="A")
    b = generate_graph(21, edge_density=density, seed=52, name="B")
    d_edge = 0.35
    p = build_problem(build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=sparsity)),
                      a, b, alpha=0.6, d_edge=d_edge)
    assert (len(p.link_w) > 0) == (density > 0)
    mappings = [Mapping.empty(), Mapping.from_pairs((i, i) for i in range(21)
                                                    if p.sim.lookup(i, i) >= 0)]
    mappings += [retained_mapping(rng, p) for _ in range(30)]
    for m in mappings:
        node_part, count = reference_gain_parts(p, m)
        assert count_squares(p, m) == count
        assert nap_objective(p, m) == (p.alpha * node_part
                                       + (1.0 - p.alpha) * (count * (2.0 * d_edge)))
    assert max(count_squares(p, m) for m in mappings) > 0 or density == 0


def test_link_counts_are_narrow():
    a = generate_graph(20, edge_density=0.3, seed=41, name="A")
    p = build_problem(build_similarity_matrix(a, a, SimilarityConfig()), a, a, d_edge=0.0)
    assert p.link_count.dtype == np.uint8
    assert set(p.link_count.tolist()) == {1, 2}
    assert p.link_w.dtype == np.float64 and not p.link_w.any()
    assert p.n_squares == int(p.link_count.astype(np.int64).sum())


@pytest.mark.parametrize("chunk", [1, 7])
def test_links_do_not_depend_on_join_chunk(monkeypatch, chunk):
    a = generate_graph(20, edge_density=0.3, seed=41, name="A")
    b = generate_graph(18, edge_density=0.3, seed=42, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.3))
    whole = build_problem(sim, a, b)
    monkeypatch.setattr(nap, "JOIN_CHUNK", chunk)
    chunked = build_problem(sim, a, b)
    assert whole.n_squares > 0
    for name in ("link_u", "link_v", "link_count", "link_w"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))


def merge_cases():
    """(label, sim, a, b): no candidates, no calls, and links merging two squares."""
    a = generate_graph(20, edge_density=0.3, seed=41, name="A")
    b = generate_graph(18, edge_density=0.3, seed=42, name="B")
    yield "no candidates", build_similarity_matrix(
        a, b, SimilarityConfig(sparsity_ratio=1.0)), a, b
    lone = generate_graph(6, edge_density=0.0, seed=43, name="C")
    yield "no calls", build_similarity_matrix(lone, lone, SimilarityConfig()), lone, lone
    yield "self diff", build_similarity_matrix(a, a, SimilarityConfig()), a, a
    yield "pruned", build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.3)), a, b


MERGE_CASES = list(merge_cases())


@pytest.mark.parametrize("chunk", [1, 7, nap.JOIN_CHUNK])
@pytest.mark.parametrize("case", MERGE_CASES, ids=lambda case: case[0])
def test_link_merge_matches_unique_reference(monkeypatch, case, chunk):
    label, sim, a, b = case
    keys, counts = np.unique(nap._link_keys(sim, a, b), return_counts=True)
    link_u, link_v = np.divmod(keys, max(len(sim), 1))
    monkeypatch.setattr(nap, "JOIN_CHUNK", chunk)
    p = build_problem(sim, a, b)
    for name, want in (("link_u", link_u), ("link_v", link_v),
                       ("link_count", counts.astype(np.uint8))):
        got = getattr(p, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (len(keys) == 0) == label.startswith("no")
    if label == "self diff":
        assert {1, 2} <= set(counts.tolist())


@pytest.mark.parametrize("chunk", [4096, nap.JOIN_CHUNK])
def test_build_peak_stays_near_its_output(monkeypatch, chunk):
    a = generate_graph(50, edge_density=0.2, seed=3, name="A")
    b = generate_graph(50, edge_density=0.2, seed=4, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    monkeypatch.setattr(nap, "JOIN_CHUNK", chunk)
    tracemalloc.start()
    try:
        p = build_problem(sim, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(x.nbytes for x in (p.link_u, p.link_v, p.link_count, p.node_weights))
    assert len(p.link_u) > 200_000
    # the output, one key per square while the links are cut from them, and
    # the join's scratch: a few int64 arrays of one chunk
    assert peak < 1.25 * output + 6 * 8 * chunk


def index_cases():
    """(label, sim, a, b): sims from build_similarity_matrix and one built directly."""
    a = generate_graph(9, edge_density=0.3, seed=43, name="A")
    b = generate_graph(7, edge_density=0.3, seed=44, name="B")
    for sparsity in (0.0, 0.5, 0.9, 1.0):
        yield "sparsity %s" % sparsity, build_similarity_matrix(
            a, b, SimilarityConfig(sparsity_ratio=sparsity)), a, b
    # hand-built entries, with (0, 2) and (1, 0) pruned
    rows = np.array([0, 0, 1, 1], dtype=np.int64)
    cols = np.array([0, 1, 1, 2], dtype=np.int64)
    sim = SimilarityMatrix(n_a=2, n_b=3, rows=rows, cols=cols,
                           scores=np.array([0.8, 0.4, 0.7, 0.9]))
    yield "direct", sim, make_graph(2, edges=[(0, 1)], name="A"), make_graph(
        3, edges=[(0, 1), (1, 2)], name="B")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", list(index_cases()), ids=lambda case: case[0])
def test_each_lookup_form_is_the_one_candidate_lookup(case, form):
    _, sim, a, b = case
    sim = in_form(sim, form)
    n = len(sim)
    want = np.full((sim.n_a, sim.n_b), -1)
    want[sim.rows, sim.cols] = np.arange(n)
    i, j = np.indices(want.shape)
    got = sim.lookup(i, j)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # a column of rows broadcasts against a row of columns, and one pair gives one entry
    assert np.array_equal(sim.lookup(i[:, :1], j[0]), want)
    for r, c in np.ndindex(want.shape):
        assert sim.lookup(r, c) == want[r, c]
    for r, c in ((-1, 0), (0, -1), (sim.n_a, 0), (0, sim.n_b), (-1, -1)):
        with pytest.raises(KeyError):
            sim.get(r, c)
    p = build_problem(sim, a, b)
    assert p.sim is sim
    if n:
        first = Mapping.from_pairs([(int(sim.rows[0]), int(sim.cols[0]))])
        assert nap.candidate_indices(p.sim, first).tolist() == [0]
    pruned = np.argwhere(want < 0)
    if len(pruned):
        with pytest.raises(MappingError, match="not a retained candidate"):
            nap.candidate_indices(p.sim, Mapping.from_pairs([tuple(pruned[-1].tolist())]))
    with pytest.raises(MappingError, match="outside the problem"):
        nap.candidate_indices(p.sim, Mapping.from_pairs([(-1, 0)]))


@pytest.mark.parametrize("sparsity", [0.0, 0.4])
def test_problem_stores_each_fact_once(sparsity):
    a = generate_graph(20, edge_density=0.3, seed=45, name="A")
    b = generate_graph(17, edge_density=0.3, seed=46, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=sparsity))
    d_edge = 0.3
    p = build_problem(sim, a, b, d_edge=d_edge)
    n_link = len(p.link_u)
    assert n_link > 0 and n_link != p.n_candidates
    # links are (u, v, count) only: no stored float64 array of link length
    for field in dataclasses.fields(p):
        value = getattr(p, field.name)
        if isinstance(value, np.ndarray) and value.shape == (n_link,):
            assert value.dtype != np.float64, field.name
    # the candidates are the similarity matrix's own arrays
    assert np.shares_memory(p.cand_rows, sim.rows)
    assert np.shares_memory(p.cand_cols, sim.cols)
    # the derived weights, bit for bit those of int64 counts
    expected = p.link_count.astype(np.int64) * (2 * d_edge)
    assert p.link_w.dtype == np.float64
    assert p.link_w.tobytes() == expected.tobytes()
    with pytest.raises(AttributeError):
        p.link_w = expected


def full_and_mapped_cases():
    """(sparsity, a, b, sim, mappings): seeded pairs whose calls go both ways."""
    rng = np.random.default_rng(11)
    base = generate_graph(30, edge_density=0.25, seed=61, name="A")
    other, _ = mutate(base, MutationSpec(insert=2, delete=2, perturb=4, rewire=3), seed=62)
    for sparsity in (0.0, 0.5, 0.9):
        sim = build_similarity_matrix(base, other, SimilarityConfig(sparsity_ratio=sparsity))
        full = build_problem(sim, base, other)
        mappings = [Mapping.empty(),
                    max_weight_matching(full.cand_rows, full.cand_cols, full.node_weights),
                    solve_mcs_greedy(full, base, other)]
        mappings += [retained_mapping(rng, full) for _ in range(10)]
        yield sparsity, base, other, sim, mappings


@pytest.mark.parametrize("case", list(full_and_mapped_cases()), ids=lambda case: str(case[0]))
def test_mapping_problem_scores_like_the_full_problem(case):
    sparsity, a, b, sim, mappings = case
    alpha, d_node, d_edge = 0.6, 0.4, 0.35
    full = build_problem(sim, a, b, alpha=alpha, d_node=d_node, d_edge=d_edge)
    at_half = build_problem(sim, a, b, alpha=0.5, d_node=d_node, d_edge=d_edge)
    mutual = False
    for m in mappings:
        small = mapping_problem(sim, a, b, m, alpha=alpha, d_node=d_node, d_edge=d_edge)
        assert small.n_candidates == len(m)
        assert nap_objective(small, m) == nap_objective(full, m)
        assert nap.edit_cost(small, m) == nap.edit_cost(full, m)
        assert count_squares(small, m) == count_squares(full, m)
        assert ged_cost_direct(a, b, m, sim, d_node, d_edge) == nap.edit_cost(at_half, m)
        # its links are the full problem's links with both ends mapped, renumbered
        midx = nap.candidate_indices(full.sim, m)
        both = np.isin(full.link_u, midx) & np.isin(full.link_v, midx)
        assert np.array_equal(np.searchsorted(midx, full.link_u[both]), small.link_u)
        assert np.array_equal(np.searchsorted(midx, full.link_v[both]), small.link_v)
        assert np.array_equal(full.link_count[both], small.link_count)
        mutual = mutual or 2 in small.link_count.tolist()
    assert mutual or sparsity == 0.9  # a mapping realized a link of two squares
    assert max(count_squares(full, m) for m in mappings) > 0


def test_mapping_problem_rejects_pairs_like_candidate_indices():
    a = generate_graph(9, edge_density=0.3, seed=43, name="A")
    b = generate_graph(7, edge_density=0.3, seed=44, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.5))
    pruned = tuple(np.argwhere(np.isnan(sim.to_dense()))[0].tolist())
    kept = (int(sim.rows[0]), int(sim.cols[0]))
    cases = [([(-1, 0)], "pair (-1, 0) is outside the problem"),
             ([kept, (9, 6)], "pair (9, 6) is outside the problem"),
             ([pruned], "pair (%d, %d) is not a retained candidate" % pruned)]
    for pairs, message in cases:
        m = Mapping.from_pairs(pairs)
        for score in (lambda: mapping_problem(sim, a, b, m),
                      lambda: ged_cost_direct(a, b, m, sim)):
            with pytest.raises(MappingError) as caught:
                score()
            assert str(caught.value) == message


def test_candidates_are_the_problem_without_links():
    a = generate_graph(20, edge_density=0.3, seed=45, name="A")
    b = generate_graph(17, edge_density=0.3, seed=46, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.4))
    candidates = build_candidates(sim, d_node=0.3)
    problem = build_problem(sim, a, b, d_node=0.3)
    assert type(candidates) is Candidates and isinstance(problem, Candidates)
    assert not isinstance(candidates, NapProblem) and not hasattr(candidates, "link_u")
    # the matrix itself, not copies of its fields, and the weights made from it
    assert [field.name for field in dataclasses.fields(Candidates)] == ["sim", "node_weights"]
    assert candidates.sim is sim and problem.sim is sim
    mine, theirs = candidates.node_weights, problem.node_weights
    assert mine.dtype == theirs.dtype == np.float64 and mine.tobytes() == theirs.tobytes()
    for name in ("n_a", "n_b", "cand_rows", "cand_cols"):
        assert getattr(candidates, name) is getattr(problem, name)
    assert (candidates.n_a, candidates.n_b) == (sim.n_a, sim.n_b)
    assert candidates.cand_rows is sim.rows and candidates.cand_cols is sim.cols
    assert candidates.n_candidates == problem.n_candidates
    assert solve_mcs_greedy(candidates, a, b) == solve_mcs_greedy(problem, a, b)
    with pytest.raises(ValueError, match="a finite number >= 0"):
        build_candidates(sim, d_node=-0.1)


@pytest.mark.parametrize("field, value", [
    ("d_node", float("nan")), ("d_node", float("inf")), ("d_node", -0.1), ("d_node", "0.5"),
    ("d_node", True), ("d_edge", float("nan")), ("d_edge", float("inf")), ("d_edge", -1.0),
    ("d_edge", None), ("d_node", -0.0), ("d_edge", -0.0), ("alpha", -0.0), ("alpha", 1.5),
    ("alpha", float("nan")),
])
def test_build_rejects_non_finite_or_mistyped_costs(field, value):
    g = generate_graph(30, edge_density=0.1, seed=1)
    sim = build_similarity_matrix(g, g, SimilarityConfig())
    builds = [lambda: build_problem(sim, g, g, **{field: value})]
    if field == "d_node":
        builds.append(lambda: build_candidates(sim, d_node=value))
    for build in builds:
        with pytest.raises(ValueError, match=field) as info:
            build()
        assert "\n" not in str(info.value)



class Untouchable:
    """Stands in for one of the matrix's private arrays: any access fails the test."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a private array was read outside SimilarityMatrix.lookup")

    __getattr__ = __getitem__ = __setitem__ = __array__ = __len__ = __iter__ = _refuse


def reader_cases():
    """(label, a, b, sim, mappings): a built matrix, and the hand-built one."""
    yield next(("sparsity 0.5", a, b, sim, m) for sparsity, a, b, sim, m
               in full_and_mapped_cases() if sparsity == 0.5)
    _, sim, a, b = next(case for case in index_cases() if case[0] == "direct")
    yield "direct", a, b, sim, [Mapping.empty(), Mapping.from_pairs([(0, 1), (1, 2)]),
                                Mapping.from_pairs([(0, 0), (1, 1)])]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", list(reader_cases()), ids=lambda case: case[0])
def test_every_reader_goes_through_lookup(monkeypatch, case, form):
    _, a, b, sim, mappings = case
    sim = in_form(sim, form)
    d_node, d_edge = 0.4, 0.35

    def results():
        problem = build_problem(sim, a, b, alpha=0.6, d_node=d_node, d_edge=d_edge)
        mcs = solve_mcs_greedy(build_candidates(sim, d_node), a, b)
        scored = mappings + [mcs]
        pairs = [(i, j) for i in range(-1, sim.n_a + 1) for j in range(-1, sim.n_b + 1)]
        scores = []
        for i, j in pairs:
            try:
                scores.append(sim.get(i, j))
            except KeyError:
                scores.append(None)
        return {
            "links": [problem.link_u.tolist(), problem.link_v.tolist(),
                      problem.link_count.tolist()],
            "candidates": [nap.candidate_indices(sim, m).tolist() for m in scored],
            "mcs": mcs,
            "get": scores,
            "scores": [(nap_objective(problem, m), nap.edit_cost(problem, m),
                        count_squares(problem, m), ged_cost_direct(a, b, m, sim, d_node, d_edge))
                       for m in scored],
        }

    dense = results()
    assert dense["get"].count(None) > sim.n_a + sim.n_b  # pruned pairs and pairs outside
    assert max(count for _, _, count, _ in dense["scores"]) > 0
    private = [name for name in ("_index", "_keys") if getattr(sim, name) is not None]
    assert private == (["_index"] if form == "dense" else ["_keys"])
    for name in private:
        monkeypatch.setattr(sim, name, Untouchable())
    monkeypatch.setattr(sim, "lookup", dict_lookup(sim))
    assert results() == dense
    with pytest.raises(AssertionError, match="outside SimilarityMatrix.lookup"):
        SimilarityMatrix.lookup(sim, 0, 0)
