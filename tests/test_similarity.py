"""Weighted Canberra similarity and the pruned candidate matrix."""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgalign import graphs, nap, similarity
from cgalign import (CallGraph, MutationSpec, SimilarityConfig, SimilarityMatrix,
                     build_similarity_matrix, canberra_similarity, generate_graph, mutate)
from cgalign.similarity import (BLOCK, KEYED_SPAN, _canberra_rows, feature_weights,
                                keep_highest, prune_lowest)

from conftest import FORMS, dict_lookup, form_of, in_form, make_features, make_graph

finite_feature = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_identical_vectors_score_one():
    fv = make_features([3, 1, 4, 1, 5, 9])
    assert canberra_similarity(fv, fv) == 1.0


def test_all_zero_vectors_score_one():
    fv = make_features([0, 0, 0, 0, 0, 0], blocks=0, jumps=0, callers=0,
                       callees=0, max_block=0, max_callers=0, max_callees=0)
    assert canberra_similarity(fv, fv) == 1.0


def test_single_group_golden_value():
    # one weighted group of three slots: content for a 1-class layout
    cfg = SimilarityConfig(content_weight=1.0, topology_weight=0.0,
                           neighborhood_weight=0.0)
    base = make_features([2.0])
    fa = (1.0, 2.0, 0.0) + base[3:]
    fb = (3.0, 2.0, 0.0) + base[3:]
    expected = 1.0 - (1.0 / 3.0) * (2.0 / 4.0)
    assert canberra_similarity(fa, fb, cfg) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf])
def test_negative_or_non_finite_feature_rejected(bad):
    good = make_features([1, 0, 2, 0, 0, 3])
    worse = make_features([1, 0, bad, 0, 0, 3])
    for fa, fb in ((good, worse), (worse, good)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            canberra_similarity(fa, fb)


def test_layout_mismatch_rejected():
    fa = make_features([1, 0, 0, 0, 0, 0])
    fb = make_features([1, 0])
    with pytest.raises(ValueError, match="layout"):
        canberra_similarity(fa, fb)
    with pytest.raises(ValueError, match="layout"):
        canberra_similarity(fa[:7], fa[:7])  # shorter than any class list allows
    with pytest.raises(ValueError, match="layout"):
        canberra_similarity(1.0, 1.0)


def test_graph_rows_score_like_the_matrix():
    a = generate_graph(5, edge_density=0.3, seed=12, name="A")
    b = generate_graph(4, edge_density=0.3, seed=13, name="B")
    dense = build_similarity_matrix(a, b, SimilarityConfig(perturbation_scale=0.0)).to_dense()
    for i in range(a.n):
        for j in range(b.n):
            assert canberra_similarity(a.features[i], b.features[j]) == pytest.approx(
                dense[i, j], abs=1e-12)


def test_all_zero_group_weights_rejected():
    with pytest.raises(ValueError, match="group weights"):
        SimilarityConfig(content_weight=0.0, topology_weight=0.0,
                         neighborhood_weight=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, "1.0", -0.0])
@pytest.mark.parametrize("field", ["content_weight", "topology_weight",
                                   "neighborhood_weight", "perturbation_scale"])
def test_config_rejects_non_finite_or_negative_values(field, value):
    with pytest.raises(ValueError) as info:
        SimilarityConfig(**{field: value})
    assert str(info.value) == "%s must be a finite number >= 0, not %r" % (field, value)


@pytest.mark.parametrize("value", [-0.0, -0.1, 1.5, float("nan")])
def test_config_rejects_sparsity_ratio_outside_unit_interval(value):
    with pytest.raises(ValueError) as info:
        SimilarityConfig(sparsity_ratio=value)
    assert str(info.value) == "sparsity_ratio must be a finite number in [0, 1], not %r" % value
    assert SimilarityConfig(sparsity_ratio=0.0).sparsity_ratio == 0.0


def test_check_is_shared_with_the_problem_build():
    assert nap.check_non_negative is similarity.check_non_negative is graphs.check_non_negative


def test_feature_weights_split_evenly():
    w = feature_weights(6, SimilarityConfig())
    assert len(w) == 8 + 4 + 2
    assert np.allclose(w[:8], 23.0 / 8)
    assert np.allclose(w[8:12], 19.0 / 4)
    assert np.allclose(w[12:], 7.0 / 2)


@given(st.lists(finite_feature, min_size=6, max_size=6),
       st.lists(finite_feature, min_size=6, max_size=6))
def test_similarity_symmetric_and_bounded(counts_a, counts_b):
    fa = make_features(counts_a)
    fb = make_features(counts_b)
    s_ab = canberra_similarity(fa, fb)
    s_ba = canberra_similarity(fb, fa)
    assert s_ab == s_ba
    assert 0.0 <= s_ab <= 1.0


def test_dense_when_unpruned():
    a, b = make_graph(3, name="A"), make_graph(4, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.0))
    assert len(sim) == 12
    assert sim.pruned == 0
    assert np.all(sim.scores >= 0.0) and np.all(sim.scores <= 1.0)


def test_two_by_two_unpruned_has_four_entries():
    a, b = make_graph(2, name="A"), make_graph(2, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.0))
    assert len(sim) == 4


def test_ten_by_ten_at_ratio_point_nine_keeps_ten():
    a = generate_graph(10, edge_density=0.2, seed=1, name="A")
    b = generate_graph(10, edge_density=0.2, seed=2, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.9))
    assert len(sim) == 10
    assert sim.pruned == 90


def test_pruning_drops_lowest_scores():
    a = generate_graph(6, edge_density=0.2, seed=3, name="A")
    b = generate_graph(6, edge_density=0.2, seed=4, name="B")
    full = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.0))
    cut = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.5))
    assert len(cut) == 36 - 18
    assert min(cut.scores) >= np.sort(full.scores)[17]


@given(st.integers(min_value=0, max_value=100))
def test_pruned_count_arithmetic(percent):
    ratio = percent / 100.0
    a = generate_graph(5, edge_density=0.2, seed=5, name="A")
    b = generate_graph(4, edge_density=0.2, seed=6, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=ratio))
    assert len(sim) == 20 - int(np.floor(ratio * 20))


def test_identical_graphs_diagonal_strictly_best_per_row():
    g = generate_graph(12, edge_density=0.15, seed=7, name="g")
    sim = build_similarity_matrix(g, g, SimilarityConfig())
    dense = sim.to_dense(fill=-1.0)
    for i in range(12):
        row = dense[i].copy()
        diag = row[i]
        row[i] = -np.inf
        assert diag > row.max()


def test_order_bonus_breaks_feature_ties_below_cap():
    # b's two functions have identical features, so only the order bonus can
    # separate the columns of each row
    fv = make_features([5, 5, 5, 5, 5, 5])
    twin = make_features([5, 5, 5, 5, 5, 7])
    a = make_graph(2, features=[twin, twin], name="A")
    b = make_graph(2, features=[fv, fv], name="B")
    flat = build_similarity_matrix(a, b, SimilarityConfig(perturbation_scale=0.0))
    assert len(set(flat.scores.tolist())) == 1
    bumped = build_similarity_matrix(a, b, SimilarityConfig())
    dense = bumped.to_dense()
    assert dense[0, 0] > dense[0, 1]
    assert dense[1, 1] > dense[1, 0]


def test_bonus_capped_at_one():
    fv = make_features([5, 5, 5, 5, 5, 5])
    a = make_graph(1, features=[fv], name="A")
    b = make_graph(1, features=[fv], name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    assert sim.scores[0] == 1.0


def test_entries_stay_lex_sorted_after_pruning():
    a = generate_graph(7, edge_density=0.2, seed=8, name="A")
    b = generate_graph(7, edge_density=0.2, seed=9, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.4))
    keys = sim.rows * sim.n_b + sim.cols
    assert np.all(np.diff(keys) > 0)


def test_lookup_helpers():
    a, b = make_graph(2, name="A"), make_graph(2, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    assert sim.lookup(0, 1) == 1
    assert sim.get(0, 0) == pytest.approx(sim.to_dense()[0, 0])
    pruned = SimilarityMatrix(n_a=2, n_b=2,
                              rows=np.array([0], dtype=np.int64),
                              cols=np.array([1], dtype=np.int64),
                              scores=np.array([0.5]))
    assert pruned.lookup(1, 0) == -1 and pruned.lookup(0, 1) == 0
    assert pruned.lookup(np.array([[0], [1]]), np.array([0, 1])).tolist() == [[-1, 0], [-1, -1]]
    assert pruned.get(0, 1) == 0.5
    for i, j in ((1, 0), (2, 0), (0, 2), (-1, 1)):
        with pytest.raises(KeyError):
            pruned.get(i, j)


def entries(n_a, n_b, row_ids, col_ids, n_scores=None, **given):
    """The fields of a SimilarityMatrix, unchecked: scores 0.5, one per row id by default.

    Fields in `given` replace the built ones as they are.
    """
    fields = dict(n_a=n_a, n_b=n_b, rows=np.array(row_ids, dtype=np.int64),
                  cols=np.array(col_ids, dtype=np.int64),
                  scores=np.full(len(row_ids) if n_scores is None else n_scores, 0.5))
    return SimpleNamespace(**{**fields, **given})


# entries that break the invariant, and the refusal naming the first bad one
MALFORMED = [
    ("out of order", entries(2, 3, [0, 1, 0], [1, 0, 2]),
     "entry 2, (0, 2), sorts before entry 1, (1, 0)"),
    ("repeated pair", entries(2, 3, [0, 1, 1, 1], [0, 1, 1, 2]),
     "entry 2, (1, 1), repeats entry 1, (1, 1)"),
    # its flat keys -1, 0, 4 ascend; the dense form would put it at (1, 2)
    ("negative row", entries(2, 3, [-1, 0, 1], [2, 0, 1]),
     "entry 0, (-1, 2), is outside the 2 x 3 matrix"),
    ("negative col", entries(2, 3, [0, 1, 1], [1, -1, 0]),
     "entry 1, (1, -1), is outside the 2 x 3 matrix"),
    ("row id n_a", entries(2, 3, [0, 1, 2], [0, 0, 0]),
     "entry 2, (2, 0), is outside the 2 x 3 matrix"),
    ("col id n_b", entries(2, 3, [0, 0, 1], [1, 3, 0]),
     "entry 1, (0, 3), is outside the 2 x 3 matrix"),
    ("first of two faults", entries(2, 3, [0, 0, 1, 5], [2, 1, 0, 0]),
     "entry 1, (0, 1), sorts before entry 0, (0, 2)"),
    ("more scores", entries(2, 3, [0, 1], [0, 0], n_scores=3),
     "rows, cols and scores must have one entry per pair, not 2, 2 and 3"),
    ("fewer scores", entries(2, 3, [0, 1], [0, 0], n_scores=1),
     "rows, cols and scores must have one entry per pair, not 2, 2 and 1"),
    ("fewer cols", entries(2, 3, [0, 1], [0]),
     "rows, cols and scores must have one entry per pair, not 2, 1 and 2"),
    ("float rows", entries(2, 3, [0, 1], [0, 0], rows=np.array([0.0, 1.0])),
     "rows must be a 1-d numpy array of signed integers, not a 1-d float64 array"),
    ("list rows", entries(2, 3, [0, 1], [0, 0], rows=[0, 1]),
     "rows must be a 1-d numpy array of signed integers, not a list"),
    ("list cols", entries(2, 3, [0, 1], [0, 0], cols=[0, 0]),
     "cols must be a 1-d numpy array of signed integers, not a list"),
    ("unsigned cols", entries(2, 3, [0, 1], [0, 0], cols=np.array([0, 0], dtype=np.uint64)),
     "cols must be a 1-d numpy array of signed integers, not a 1-d uint64 array"),
    ("2-d rows", entries(2, 3, [0, 1], [0, 0], rows=np.array([[0, 1]])),
     "rows must be a 1-d numpy array of signed integers, not a 2-d int64 array"),
    ("list scores", entries(2, 3, [0, 1], [0, 0], scores=[0.5, 0.5]),
     "scores must be a 1-d numpy array of floats, not a list"),
    ("negative n_a", entries(-1, 3, [], []), "n_a must be an integer >= 0, not -1"),
    ("float n_b", entries(2, 3.0, [0], [0]), "n_b must be an integer >= 0, not 3.0"),
]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("label, bad, message", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_entries_are_refused_naming_the_first_bad_one(label, bad, message, form):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        in_form(bad, form)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12), st.data())
def test_each_form_looks_up_ascending_entries_as_a_dict_does(n_a, n_b, data):
    keys = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=n_a * n_b - 1))))
    rows, cols = np.divmod(np.array(keys, dtype=np.int64), n_b)
    kept = entries(n_a, n_b, rows, cols)
    want = dict_lookup(kept)(*np.indices((n_a, n_b)))
    for form in FORMS:
        sim = in_form(kept, form)
        assert np.array_equal(sim.lookup(*np.indices((n_a, n_b))), want)
        assert [sim.lookup(i, j) for i, j in zip(rows, cols)] == list(range(len(keys)))


def test_empty_graph_gives_empty_matrix():
    a, b = make_graph(0, name="A"), make_graph(3, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    assert len(sim) == 0


def test_deterministic_across_runs():
    a = generate_graph(9, edge_density=0.2, seed=10, name="A")
    b = generate_graph(9, edge_density=0.2, seed=11, name="B")
    one = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.3))
    two = build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=0.3))
    assert np.array_equal(one.scores, two.scores)
    assert np.array_equal(one.rows, two.rows)
    assert np.array_equal(one.cols, two.cols)


def lexsort_keep(scores, drop):
    """The pruning rule by full sort: drop the first `drop` by (score, index)."""
    order = np.lexsort((np.arange(len(scores)), scores))
    return np.sort(order[max(drop, 0):])


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=40),
       st.integers(min_value=-1, max_value=45))
def test_prune_lowest_matches_lexsort_on_ties(values, drop):
    scores = np.asarray(values, dtype=np.float64)
    assert np.array_equal(prune_lowest(scores, drop), lexsort_keep(scores, drop))


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.0])
def test_pruning_with_tied_scores_keeps_highest_indices(ratio):
    # two feature vectors and no order bonus: every score takes one of three values
    templates = [make_features([5, 1, 0, 2, 0, 1]), make_features([1, 4, 4, 0, 3, 0])]
    a = make_graph(12, features=[templates[i % 3 == 0] for i in range(12)], name="A")
    b = make_graph(10, features=[templates[i % 2] for i in range(10)], name="B")
    config = SimilarityConfig(perturbation_scale=0.0)
    full = build_similarity_matrix(a, b, config)
    assert len(np.unique(full.scores)) == 3
    cut = build_similarity_matrix(a, b, SimilarityConfig(perturbation_scale=0.0,
                                                         sparsity_ratio=ratio))
    keep = lexsort_keep(full.scores, int(np.floor(ratio * len(full))))
    assert np.array_equal(cut.rows, full.rows[keep])
    assert np.array_equal(cut.cols, full.cols[keep])
    assert np.array_equal(cut.scores, full.scores[keep])


@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.98, 0.99, 0.999, 1.0])
def test_pruned_matrix_holds_no_array_of_every_pair(ratio):
    # two feature vectors and no order bonus: two or three score values, so
    # the streamed selection meets ties at every cut
    templates = [make_features([5, 1, 0, 2, 0, 1]), make_features([1, 4, 4, 0, 3, 0])]
    a = make_graph(90, features=[templates[i % 3 == 0] for i in range(90)], name="A")
    b = make_graph(80, features=[templates[i % 2] for i in range(80)], name="B")
    full = build_similarity_matrix(a, b, SimilarityConfig(perturbation_scale=0.0))
    cut = build_similarity_matrix(a, b, SimilarityConfig(perturbation_scale=0.0,
                                                         sparsity_ratio=ratio))
    keep = lexsort_keep(full.scores, int(np.floor(ratio * len(full))))
    assert np.array_equal(cut.rows, full.rows[keep])
    assert np.array_equal(cut.cols, full.cols[keep])
    assert np.array_equal(cut.scores, full.scores[keep])
    keyed = len(keep) * KEYED_SPAN <= len(full)
    assert form_of(cut) == ("keyed" if keyed else "dense")
    largest = max(value.size for value in vars(cut).values() if isinstance(value, np.ndarray))
    assert largest == (len(keep) + 1 if keyed else len(full))  # the keys end in a sentinel


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=120),
       st.integers(min_value=1, max_value=121), st.integers(min_value=0, max_value=8))
def test_streamed_selection_is_prune_lowest_over_the_whole_buffer(values, size, pool_slack):
    # tie-heavy scores in blocks of `size`, and a pool cut back to `keep` as
    # soon as it passes 2 * keep + pool_slack entries, so that later blocks
    # meet the floor of a cut
    scores = np.asarray(values, dtype=np.float64) / 5.0
    blocks = [scores[lo:lo + size] for lo in range(0, len(scores), size)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "BLOCK", pool_slack)
        for drop in range(len(scores) + 1):
            index, kept = keep_highest(iter(blocks), len(scores) - drop)
            want = prune_lowest(scores, drop)
            assert index.dtype == np.int64 and np.array_equal(index, want)
            assert np.array_equal(kept, scores[want])


def test_streamed_selection_cuts_its_pool_to_about_twice_the_kept():
    # rising scores, three of each: every block clears the floor of the last cut
    scores = np.arange(40 * BLOCK // 10) // 3 / BLOCK
    keep, pools = 1000, []

    def blocks():
        for lo in range(0, len(scores), BLOCK // 10):
            yield scores[lo:lo + BLOCK // 10]

    real = similarity._cut

    def recording(index_parts, score_parts, kept):
        pools.append(sum(len(part) for part in index_parts))
        return real(index_parts, score_parts, kept)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "_cut", recording)
        index, kept = keep_highest(blocks(), keep)
    assert np.array_equal(index, prune_lowest(scores, len(scores) - keep))
    assert len(pools) > 2 and max(pools) <= 2 * keep + BLOCK + BLOCK // 10


@pytest.mark.parametrize("shape", [(1, 1), (7, 9), (64, 1), (40, 80), (300, 301)])
def test_lookup_form_follows_the_kept_ratio(shape):
    n_a, n_b = shape
    total = n_a * n_b
    rng = np.random.default_rng(total)
    edge = total // KEYED_SPAN  # the most entries the sorted-key form holds
    for kept in sorted({0, 1, max(edge - 1, 0), edge, edge + 1, total // 2, total}):
        if kept > total:
            continue
        keys = np.sort(rng.choice(total, kept, replace=False)).astype(np.int64)
        rows, cols = np.divmod(keys, n_b)
        sim = SimilarityMatrix(n_a, n_b, rows, cols, rng.random(kept))
        assert form_of(sim) == ("keyed" if kept <= edge else "dense")


def test_pruned_build_peaks_below_one_array_of_every_pair():
    n = 1000
    a = generate_graph(n, edge_density=3 / (n - 1), seed=11, name="A")
    b, _ = mutate(a, MutationSpec(perturb=n // 10, rewire=len(a.edges) // 10), seed=12)
    config = SimilarityConfig(sparsity_ratio=0.99)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = build_similarity_matrix(a, b, config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert form_of(sim) == "keyed" and len(sim) == n * n // 100
    # the kernel's scratch, the pool and one cut of it, about 4.5 MB: the dense
    # path's score buffer alone is n * n float64
    assert peak < n * n * 8


def reference_kernel(fa, fb, weights):
    """The weighted Canberra distance with fresh temporaries, as it was before blocking."""
    diff = np.abs(fa[:, None, :] - fb[None, :, :])
    denom = fa[:, None, :] + fb[None, :, :]
    terms = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)
    return terms @ weights / weights.sum()


def reference_scores(a, b, config):
    """The (n_a, n_b) score matrix as computed in chunks of about 4M elements."""
    weights = feature_weights(len(a.instruction_classes), config)
    fa, fb = a.features, b.features
    order_a, order_b = a.order, b.order
    span = max(a.n, b.n)
    scores = np.empty((a.n, b.n), dtype=np.float64)
    chunk = max(1, int(4_000_000 // (b.n * fa.shape[1] + 1)))
    for start in range(0, a.n, chunk):
        stop = min(start + chunk, a.n)
        sim = 1.0 - reference_kernel(fa[start:stop], fb, weights)
        if config.perturbation_scale > 0:
            bonus = 1.0 - np.abs(order_a[start:stop, None] - order_b[None, :]) / span
            sim = sim + config.perturbation_scale * bonus
        np.clip(sim, 0.0, 1.0, out=sim)
        scores[start:stop] = sim
    return scores


def random_features(rng, n, width, zero_rows=()):
    """Non-negative features with many zeros, some fractional, some all-zero rows."""
    values = rng.integers(0, 40, (n, width)) * rng.choice([1.0, 0.1, 3.7, 1e5], (n, width))
    values[rng.random((n, width)) < 0.3] = 0.0
    values[list(zero_rows)] = 0.0
    return values


def graph_of(rng, values, n_classes, name):
    """A graph without calls whose functions carry the given feature rows."""
    return CallGraph(name=name, instruction_classes=tuple("c%d" % k for k in range(n_classes)),
                     features=values, order=rng.permutation(len(values)),
                     names=(None,) * len(values), edges=[])


def kernel_shapes():
    """(n_a, n_b, n_classes): every layout, plus rows wider than one block."""
    rng = np.random.default_rng(71)
    shapes = [(int(rng.integers(1, 30)), int(rng.integers(1, 60)), n_classes)
              for n_classes in range(12) for _ in range(2)]
    wide = BLOCK // 8 + 1  # one row of 8 features exceeds a block
    shapes += [(1, wide, 0), (3, wide, 0), (2, BLOCK // 19 + 7, 11),
               (1, 1, 3), (1, 700, 5)]
    rows = BLOCK // (100 * 10)  # rows per block at n_b = 100 and F = 10
    shapes.append((2 * rows + rows // 3, 100, 2))  # ends in a partial block
    return shapes


@pytest.mark.parametrize("shape", kernel_shapes(), ids=str)
def test_blocked_kernel_matches_reference_bit_for_bit(shape):
    n_a, n_b, n_classes = shape
    rng = np.random.default_rng(n_a * 7919 + n_b * 31 + n_classes)
    width = n_classes + 8
    a = graph_of(rng, random_features(rng, n_a, width, zero_rows=[0]), n_classes, "A")
    b = graph_of(rng, random_features(rng, n_b, width, zero_rows=[n_b - 1]), n_classes, "B")
    assert_builds_as_reference(a, b, rng)


def assert_builds_as_reference(a, b, rng):
    """build_similarity_matrix(a, b) under random configs equals the reference, bit for bit."""
    n_a, n_b = a.n, b.n
    group_weights = rng.choice([0.0, 1.0, 7.0, 23.0], 3)
    group_weights[rng.integers(0, 3)] = 19.0  # never all zero
    for sparsity in (0.0, 0.5, 0.99):
        config = SimilarityConfig(*group_weights, sparsity_ratio=sparsity,
                                  perturbation_scale=float(rng.choice([0.0, 1e-3])))
        flat = reference_scores(a, b, config).ravel()
        keep = prune_lowest(flat, int(np.floor(sparsity * n_a * n_b)))
        rows, cols = np.divmod(keep, n_b)
        want = SimilarityMatrix(n_a, n_b, rows, cols, flat[keep])
        got = build_similarity_matrix(a, b, config)
        assert np.array_equal(got.scores.view(np.int64), want.scores.view(np.int64))
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.cols, want.cols)
        i, j = np.indices((n_a, n_b))
        assert np.array_equal(got.lookup(i, j), want.lookup(i, j))


@pytest.mark.parametrize("width", range(1, 20))
def test_kernel_in_any_row_blocks_matches_reference(width):
    rng = np.random.default_rng(width)
    n_a, n_b = 13, int(rng.integers(1, 200))
    fa = random_features(rng, n_a, width, zero_rows=[3])
    fb = random_features(rng, n_b, width, zero_rows=[0])
    weights = rng.choice([0.0, 0.5, 2.875, 4.75], width)
    weights[0] = 3.5  # never all zero
    want = reference_kernel(fa, fb, weights)
    for block in (1, 2, 5, n_a):
        parts = list(_canberra_rows(fa, fb, weights, block))
        assert max(len(part) for part in parts) <= block
        got = np.concatenate(parts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def table_cases():
    """(label, fa, fb, n_classes): inputs at the edges of the distinct-value tables."""
    rng = np.random.default_rng(24)
    signed = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.5], (40, 11))  # both zeros in every column
    yield "signed zeros", signed[:17], signed[17:], 3
    yield "all distinct", rng.random((9, 14)) * 50, rng.random((23, 14)) * 50, 6
    yield "n_b = 1", random_features(rng, 31, 12, zero_rows=[0]), random_features(rng, 1, 12), 4
    yield ("zero classes", random_features(rng, 25, 8, zero_rows=[2]),
           random_features(rng, 19, 8, zero_rows=[0]), 0)


@pytest.mark.parametrize("block", [BLOCK, 97, 1])
@pytest.mark.parametrize("case", list(table_cases()), ids=lambda case: case[0])
def test_table_kernel_matches_reference_bit_for_bit(case, block, monkeypatch):
    label, fa, fb, n_classes = case
    values, feature, index = similarity._distinct_values(fb)
    assert np.array_equal(values[index], fb)  # up to the sign of a zero
    assert np.array_equal(feature[index], np.broadcast_to(np.arange(fb.shape[1]), fb.shape))
    distinct = sum(len(set(column.tolist())) for column in fb.T)  # 0.0 == -0.0 in a set
    assert len(values) == distinct
    if label == "signed zeros":
        assert np.signbit(fb[fb == 0]).any() and not np.signbit(fb[fb == 0]).all()
        assert len(values) < sum(len(set(map(repr, column.tolist()))) for column in fb.T)
    if label == "all distinct":
        assert len(values) == fb.size
    weights = feature_weights(n_classes, SimilarityConfig())
    want = reference_kernel(fa, fb, weights)
    monkeypatch.setattr(similarity, "BLOCK", block)
    for rows in (1, 3, len(fa)):
        got = np.concatenate(list(_canberra_rows(fa, fb, weights, rows)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    rng = np.random.default_rng(len(fa))
    assert_builds_as_reference(graph_of(rng, fa, n_classes, "A"),
                               graph_of(rng, fb, n_classes, "B"), rng)


def test_table_chunk_ending_inside_a_row_block_matches_reference(monkeypatch):
    rng = np.random.default_rng(5)
    a = graph_of(rng, random_features(rng, 40, 10), 2, "A")
    b = graph_of(rng, random_features(rng, 6, 10), 2, "B")
    distinct = len(similarity._distinct_values(b.features)[0])
    # three rows per block (BLOCK // 60), and table chunks of BLOCK // distinct
    # rows, more than three and not a multiple of them
    block = next(size for size in range(180, 240) if 3 < size // distinct < 40
                 and size // distinct % 3)
    monkeypatch.setattr(similarity, "BLOCK", block)
    sizes = [len(sim) for sim in similarity._score_blocks(a, b, SimilarityConfig())]
    assert max(sizes) == 3 and min(sizes[:-1]) < 3 and sum(sizes) == a.n
    assert_builds_as_reference(a, b, rng)


def test_pruned_build_of_distinct_floats_peaks_below_one_array_of_every_pair():
    # the worst case of the tables: no two features of b share a value
    n = 1000
    rng = np.random.default_rng(11)
    a = graph_of(rng, rng.random((n, 14)) * 100, 6, "A")
    b = graph_of(rng, rng.random((n, 14)) * 100, 6, "B")
    assert len(similarity._distinct_values(b.features)[0]) == b.features.size
    config = SimilarityConfig(sparsity_ratio=0.99)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim = build_similarity_matrix(a, b, config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert form_of(sim) == "keyed" and len(sim) == n * n // 100
    assert peak < n * n * 8
