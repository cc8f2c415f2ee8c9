"""Exact linear matcher, greedy neighborhood matcher, exhaustive search."""

import heapq
import sys
import types
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cgalign import (BpConfig, Mapping, MutationSpec, SearchSpaceError,
                     brute_force_optimum, build_problem, generate_graph,
                     max_weight_matching, mutate, nap_objective, node_weight_map,
                     solve_mcs_greedy, solve_mwm, solve_nap)
from cgalign import SimilarityConfig, build_similarity_matrix
from cgalign import matchers
from cgalign.matchers import _k_hop, undirected_adjacency

from conftest import dense_sim, make_graph


def mwm_value(weights, mapping):
    return sum(weights[pair] for pair in mapping.pairs)


def exhaustive_mwm(weights):
    """Best total weight over every injective subset of the given pairs."""
    items = sorted(weights)
    best = [0.0]

    def rec(k, used_rows, used_cols, acc):
        best[0] = max(best[0], acc)
        for t in range(k, len(items)):
            i, j = items[t]
            if i in used_rows or j in used_cols:
                continue
            rec(t + 1, used_rows | {i}, used_cols | {j}, acc + weights[items[t]])

    rec(0, frozenset(), frozenset(), 0.0)
    return best[0]


def reference_mwm(weights):
    """The dict-based matcher: one dense assignment over every row and column given."""
    if not weights:
        return Mapping.empty()
    items = sorted(weights.items())
    rows = sorted({i for (i, _), _ in items})
    cols = sorted({j for (_, j), _ in items})
    row_pos = {i: k for k, i in enumerate(rows)}
    col_pos = {j: k for k, j in enumerate(cols)}
    dense = np.zeros((len(rows), len(cols)))
    for (i, j), w in items:
        dense[row_pos[i], col_pos[j]] = max(w, 0.0)
    sel_r, sel_c = linear_sum_assignment(dense, maximize=True)
    pairs = []
    for r, c in zip(sel_r.tolist(), sel_c.tolist()):
        pair = (rows[r], cols[c])
        if weights.get(pair, 0.0) > 0.0:
            pairs.append(pair)
    return Mapping.from_pairs(pairs)


def tie_heavy_instances(count=2500):
    """(rows, cols, w) with few distinct weights, many repeats, zero and negative cells."""
    rng = np.random.default_rng(61)
    levels = np.array([-1.0, -0.5, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    for _ in range(count):
        n_r, n_c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        cells = np.flatnonzero(rng.random(n_r * n_c) < rng.uniform(0.2, 1.0))
        rng.shuffle(cells)
        rows, cols = np.divmod(cells.astype(np.int64), n_c)
        yield rows, cols, rng.choice(levels, size=len(cells))


def assert_same_assignment(routine, dense):
    got = routine(dense, maximize=True)
    expected = linear_sum_assignment(dense, maximize=True)
    for part, reference in zip(got, expected):
        assert part.dtype == reference.dtype
        assert np.array_equal(part, reference)


def test_kernel_matches_reference_on_tie_heavy_instances():
    # ties between optimal matchings are the rule, and each must break as the
    # reference does; the reference calls the public scipy.optimize routine, the
    # kernel the one loaded from its extension file, so the raw assignments of
    # both routes are compared on each instance's dense matrix too
    fast = 0
    for rows, cols, w in tie_heavy_instances():
        weights = dict(zip(zip(rows.tolist(), cols.tolist()), w.tolist()))
        expected = reference_mwm(weights)
        assert max_weight_matching(rows, cols, w) == expected
        assert solve_mwm(weights) == expected
        if len(w):
            dense = np.zeros((rows.max() + 1, cols.max() + 1))
            dense[rows, cols] = w
            assert_same_assignment(matchers.linear_sum_assignment, dense)
        positive = w > 0.0
        fast += (len(set(rows[positive])) == positive.sum()
                 and len(set(cols[positive])) == positive.sum())
    assert fast >= 250  # the one-to-one shortcut was compared too, not only the assignment


def reference_assign(rows, cols, w):
    """The kernel's core as scipy's maximize=True runs it: clamped weights, not negated."""
    row_ids, col_ids = np.unique(rows), np.unique(cols)
    dense = np.zeros((len(row_ids), len(col_ids)))
    dense[np.searchsorted(row_ids, rows), np.searchsorted(col_ids, cols)] = np.maximum(w, 0.0)
    sel_r, sel_c = linear_sum_assignment(dense, maximize=True)
    chosen = dense[sel_r, sel_c] > 0.0
    return row_ids[sel_r[chosen]], col_ids[sel_c[chosen]]


@pytest.mark.parametrize("kind", ["tall", "wide", "square"])
def test_assign_breaks_ties_as_maximize_does_on_larger_instances(kind):
    rng = np.random.default_rng(["tall", "wide", "square"].index(kind) + 71)
    levels = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0])
    for _ in range(150):
        small, large = sorted(rng.integers(1, 61, 2).tolist())
        n_r, n_c = {"tall": (large, small), "wide": (small, large),
                    "square": (large, large)}[kind]
        if kind != "square" and n_r == n_c:
            continue
        cells = np.flatnonzero(rng.random(n_r * n_c) < rng.uniform(0.05, 1.0))
        rng.shuffle(cells)
        rows, cols = np.divmod(cells.astype(np.int64), n_c)
        # ids with gaps, as BP's conflicted rows and columns have them
        rows = np.cumsum(rng.integers(1, 4, n_r))[rows]
        cols = np.cumsum(rng.integers(1, 4, n_c))[cols]
        w = rng.choice(levels, size=len(cells))
        if not len(w):
            continue
        got, want = matchers.assign(rows, cols, w), reference_assign(rows, cols, w)
        for part, reference in zip(got, want):
            assert part.dtype == reference.dtype and np.array_equal(part, reference)


@pytest.mark.parametrize("shape", [(3, 9), (9, 3), (40, 25), (0, 4), (4, 0), (0, 0)])
def test_loaded_assignment_matches_public_route_on_rectangular_matrices(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    dense = rng.choice([0.0, 0.25, 0.5, 1.0], size=shape)
    loaded = matchers.load_linear_sum_assignment(matchers._scipy_dir())
    for routine in (loaded, matchers.linear_sum_assignment):
        assert_same_assignment(routine, dense)
        assert_same_assignment(routine, -dense)


@pytest.mark.parametrize("layout", ["no scipy directory", "no extension file",
                                    "file that is not an extension"])
def test_fallback_route_gives_the_same_mappings(tmp_path, monkeypatch, layout):
    scipy_dir = None if layout == "no scipy directory" else str(tmp_path)
    if layout == "file that is not an extension":
        (tmp_path / "optimize").mkdir()
        (tmp_path / "optimize" / ("_lsap" + EXTENSION_SUFFIXES[0])).write_bytes(b"not ELF")
    calls = []

    def public(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    stub = types.ModuleType("scipy.optimize")
    stub.linear_sum_assignment = public
    instances = list(tie_heavy_instances(500))
    expected = [max_weight_matching(*instance) for instance in instances]
    registered = sys.modules.get(matchers.LSAP_MODULE)
    monkeypatch.setitem(sys.modules, "scipy.optimize", stub)
    routine = matchers.load_linear_sum_assignment(scipy_dir)
    assert routine is public
    assert sys.modules.get(matchers.LSAP_MODULE) is registered
    monkeypatch.setattr(matchers, "linear_sum_assignment", routine)
    assert [max_weight_matching(*instance) for instance in instances] == expected
    assert calls  # the fallback ran the assignments


def test_kernel_skips_the_assignment_when_positive_pairs_are_one_to_one(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linear_sum_assignment called")

    monkeypatch.setattr(matchers, "linear_sum_assignment", refuse)
    rows = np.array([0, 0, 1, 2, 2, 3], dtype=np.int64)
    cols = np.array([0, 1, 1, 2, 0, 3], dtype=np.int64)
    w = np.array([0.7, -0.2, 0.4, 0.0, -1.0, 0.9])
    assert max_weight_matching(rows, cols, w).sorted_pairs() == [(0, 0), (1, 1), (3, 3)]
    assert max_weight_matching(rows[:0], cols[:0], w[:0]) == Mapping.empty()
    assert solve_mwm({(4, 2): 0.5, (4, 3): -0.5}).sorted_pairs() == [(4, 2)]


def test_mwm_simple_instance():
    weights = {(0, 0): 1.0, (0, 1): 0.2, (1, 1): 1.0}
    m = solve_mwm(weights)
    assert m.sorted_pairs() == [(0, 0), (1, 1)]
    assert mwm_value(weights, m) == pytest.approx(2.0)


def test_mwm_all_negative_returns_empty():
    assert solve_mwm({(0, 0): -1.0, (1, 1): -0.5}) == Mapping.empty()


def test_mwm_negative_cell_does_not_distort_assignment():
    # a negative pair must behave exactly like an absent pair
    weights = {(0, 0): -0.2, (1, 1): 0.9, (0, 1): 0.8}
    m = solve_mwm(weights)
    assert m.sorted_pairs() == [(1, 1)]
    assert mwm_value(weights, m) == pytest.approx(0.9)


def test_mwm_empty_input():
    assert solve_mwm({}) == Mapping.empty()


def test_mwm_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(51)
    for _ in range(50):
        weights = {}
        for i in range(6):
            for j in range(6):
                if rng.random() < 0.7:
                    weights[(i, j)] = float(rng.uniform(-1.0, 1.0))
        m = solve_mwm(weights)
        assert mwm_value(weights, m) == pytest.approx(exhaustive_mwm(weights), abs=1e-9)


def path_pair():
    a = make_graph(3, edges=[(0, 1), (1, 2)], name="A")
    b = make_graph(3, edges=[(0, 1), (1, 2)], name="B")
    return a, b


def test_mcs_identity_on_matching_paths():
    a, b = path_pair()
    sim = dense_sim([[0.9, 0.2, 0.1], [0.2, 0.9, 0.2], [0.1, 0.2, 0.9]])
    p = build_problem(sim, a, b)
    m = solve_mcs_greedy(p, a, b)
    assert m.sorted_pairs() == [(0, 0), (1, 1), (2, 2)]


def test_mcs_without_edges_degenerates_to_mwm():
    a = make_graph(3, name="A")
    b = make_graph(3, name="B")
    sim = dense_sim([[0.9, 0.2, 0.1], [0.2, 0.9, 0.2], [0.1, 0.2, 0.9]])
    p = build_problem(sim, a, b)
    assert solve_mcs_greedy(p, a, b) == solve_mwm(node_weight_map(p))


def test_mcs_local_choice_can_lose_to_global_optimum():
    # strong decoys adjacent to the best seed pull the greedy expansion away
    # from the aligned paths; exhaustive search and message passing stay on it
    a, b = path_pair()
    sim = dense_sim([[0.10, 0.00, 0.80],
                     [0.00, 0.90, 0.00],
                     [0.85, 0.00, 0.10]])
    p = build_problem(sim, a, b, alpha=0.25)
    v_mcs = nap_objective(p, solve_mcs_greedy(p, a, b))
    bf_mapping, v_bf = brute_force_optimum(p)
    bp_mapping, _ = solve_nap(p, BpConfig())
    assert bf_mapping.sorted_pairs() == [(0, 0), (1, 1), (2, 2)]
    assert v_mcs < v_bf - 1e-9
    assert nap_objective(p, bp_mapping) == pytest.approx(v_bf, abs=1e-9)


def test_mcs_k_controls_expansion_radius():
    a, b = path_pair()
    sim = dense_sim([[0.9, 0.2, 0.1], [0.2, 0.9, 0.2], [0.1, 0.2, 0.9]])
    p = build_problem(sim, a, b)
    assert solve_mcs_greedy(p, a, b, k=1) == solve_mcs_greedy(p, a, b, k=2)
    # no neighbourhood is deeper than the graph, so a huge radius ends at once
    assert solve_mcs_greedy(p, a, b, k=10 ** 18) == solve_mcs_greedy(p, a, b, k=3)


def test_undirected_adjacency_merges_both_directions():
    g = make_graph(4, edges=[(0, 1), (1, 0), (2, 1)])
    assert undirected_adjacency(g) == [[1], [0, 2], [1], []]


def reference_mcs(problem, a, b, k):
    """The greedy matcher with one scalar candidate lookup per (u, v) pair."""
    position = {(int(r), int(c)): t for t, (r, c)
                in enumerate(zip(problem.cand_rows, problem.cand_cols))}
    rows, cols, w = problem.cand_rows, problem.cand_cols, problem.node_weights
    if len(w) == 0:
        return Mapping.empty()
    adj_a, adj_b = undirected_adjacency(a), undirected_adjacency(b)
    deg_a = np.array([len(x) for x in adj_a], dtype=np.int64)
    deg_b = np.array([len(x) for x in adj_b], dtype=np.int64)
    eligible = (w > 0.0) & (deg_a[rows] > 0) & (deg_b[cols] > 0)
    seed_order = np.lexsort((cols, rows, -w))
    seeds = seed_order[eligible[seed_order]]
    row_taken = np.zeros(problem.n_a, dtype=bool)
    col_taken = np.zeros(problem.n_b, dtype=bool)
    matched, frontier = [], []

    def take(cand):
        i, j = int(rows[cand]), int(cols[cand])
        row_taken[i] = col_taken[j] = True
        matched.append((i, j))
        for u in _k_hop(adj_a, i, k):
            if row_taken[u]:
                continue
            for v in _k_hop(adj_b, j, k):
                if col_taken[v]:
                    continue
                c = position.get((u, v), -1)
                if c >= 0 and w[c] > 0.0:
                    heapq.heappush(frontier, (-float(w[c]), u, v, c))

    for seed in seeds.tolist():
        if row_taken[rows[seed]] or col_taken[cols[seed]]:
            continue
        take(seed)
        while frontier:
            _, u, v, c = heapq.heappop(frontier)
            if not (row_taken[u] or col_taken[v]):
                take(c)

    leftovers = {}
    for c in range(len(w)):
        if w[c] > 0.0 and not row_taken[rows[c]] and not col_taken[cols[c]]:
            leftovers[(int(rows[c]), int(cols[c]))] = float(w[c])
    if leftovers:
        matched.extend(solve_mwm(leftovers).pairs)
    return Mapping.from_pairs(matched)


@pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2])
def test_mcs_matches_scalar_lookup_reference(sparsity, k):
    rng = np.random.default_rng(int(sparsity * 10) + 100 * k)
    for trial in range(6):
        n = int(rng.integers(2, 60))
        base = generate_graph(n, edge_density=float(rng.uniform(0.02, 0.2)),
                              seed=int(rng.integers(0, 2**31)),
                              templates=int(rng.integers(1, n + 1)), name="A")
        spec = MutationSpec(insert=int(rng.integers(0, 4)), delete=int(rng.integers(0, 2)),
                            perturb=int(rng.integers(0, n)), rewire=int(rng.integers(0, 4)))
        other, _ = mutate(base, spec, seed=int(rng.integers(0, 2**31)))
        sim = build_similarity_matrix(base, other, SimilarityConfig(sparsity_ratio=sparsity))
        p = build_problem(sim, base, other, d_node=float(rng.uniform(0.0, 0.5)))
        assert solve_mcs_greedy(p, base, other, k=k) == reference_mcs(p, base, other, k)


def test_brute_force_empty_problem():
    a = make_graph(0, name="A")
    b = make_graph(0, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    p = build_problem(sim, a, b)
    mapping, value = brute_force_optimum(p)
    assert mapping == Mapping.empty()
    assert value == 0.0


def test_brute_force_square_instance():
    a = make_graph(2, edges=[(0, 1)], name="A")
    b = make_graph(2, edges=[(0, 1)], name="B")
    sim = dense_sim([[1.0, 0.1], [0.1, 1.0]])
    p = build_problem(sim, a, b, alpha=0.75)
    mapping, value = brute_force_optimum(p)
    assert mapping.sorted_pairs() == [(0, 0), (1, 1)]
    assert value == pytest.approx(1.75, abs=1e-12)


def test_brute_force_beats_random_mappings():
    rng = np.random.default_rng(52)
    a = generate_graph(3, edge_density=0.4, seed=53, name="A")
    b = generate_graph(3, edge_density=0.4, seed=54, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    p = build_problem(sim, a, b)
    _, best = brute_force_optimum(p)
    for _ in range(100):
        k = int(rng.integers(0, 4))
        rows = rng.permutation(3)[:k]
        cols = rng.permutation(3)[:k]
        m = Mapping.from_pairs(zip(rows.tolist(), cols.tolist()))
        assert best >= nap_objective(p, m) - 1e-12


def test_brute_force_tie_breaks_lexicographically():
    a = make_graph(2, name="A")
    b = make_graph(2, name="B")
    sim = dense_sim([[0.6, 0.6], [0.6, 0.6]])
    p = build_problem(sim, a, b, alpha=1.0)
    mapping, _ = brute_force_optimum(p)
    assert mapping.sorted_pairs() == [(0, 0), (1, 1)]


def test_brute_force_refuses_oversized_search():
    a = generate_graph(12, edge_density=0.1, seed=55, name="A")
    b = generate_graph(12, edge_density=0.1, seed=56, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    p = build_problem(sim, a, b)
    with pytest.raises(SearchSpaceError):
        brute_force_optimum(p)


def test_node_weight_map_round_trip():
    a = make_graph(2, name="A")
    b = make_graph(2, name="B")
    sim = dense_sim([[0.9, 0.1], [0.2, 0.8]])
    p = build_problem(sim, a, b)
    weights = node_weight_map(p)
    assert weights[(0, 0)] == pytest.approx(0.9)
    assert len(weights) == 4
