"""Ground truth files, chain composition, and scoring."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgalign import (CompositionError, FormatError, GroundTruth, Mapping,
                     extrapolate, load_ground_truth, mapping_to_keys,
                     save_ground_truth, score)
from cgalign.evaluation import parse_ground_truth

from conftest import make_graph


def test_ground_truth_rejects_conflicts():
    with pytest.raises(FormatError, match="one-to-one"):
        GroundTruth.from_pairs([("f", "g"), ("f", "h")])


def test_ground_truth_file_round_trip(tmp_path):
    truth = GroundTruth.from_pairs([("main", "main"), ("init", "setup"), (3, 7)])
    path = str(tmp_path / "truth.json")
    save_ground_truth(truth, path)
    assert load_ground_truth(path) == truth


def test_ground_truth_missing_file(tmp_path):
    with pytest.raises(FormatError, match="no such file"):
        load_ground_truth(str(tmp_path / "nope.json"))


def test_ground_truth_bad_key_type(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "pairs": [["a", 1.5]]}')
    with pytest.raises(FormatError, match="pairs\\[0\\]"):
        load_ground_truth(str(path))


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_ground_truth_format_version_must_be_the_integer_one(version):
    with pytest.raises(FormatError, match="format_version 1"):
        parse_ground_truth({"format_version": version, "pairs": []}, source="t.json")
    assert len(parse_ground_truth({"format_version": 1, "pairs": []})) == 0


def test_extrapolate_identity_chain():
    ident = GroundTruth.from_pairs([("a", "a"), ("b", "b")])
    assert extrapolate([ident, ident, ident]) == ident


def test_extrapolate_single_hop():
    first = GroundTruth.from_pairs([(0, "one")])
    second = GroundTruth.from_pairs([("one", "two")])
    assert extrapolate([first, second]) == GroundTruth.from_pairs([(0, "two")])


def test_extrapolate_drops_broken_links():
    first = GroundTruth.from_pairs([("a", "x"), ("b", "y")])
    second = GroundTruth.from_pairs([("x", "p"), ("z", "q")])
    assert extrapolate([first, second]) == GroundTruth.from_pairs([("a", "p")])


def test_extrapolate_empty_chain_rejected():
    with pytest.raises(CompositionError, match="empty chain"):
        extrapolate([])


def test_extrapolate_disjoint_links_rejected():
    first = GroundTruth.from_pairs([("a", "x")])
    second = GroundTruth.from_pairs([("unrelated", "q")])
    with pytest.raises(CompositionError, match="link 1"):
        extrapolate([first, second])


def set_join(chain):
    pairs = set(chain[0])
    for truth in chain[1:]:
        step = set(truth)
        pairs = {(a, c) for a, b in pairs for b2, c in step if b == b2}
    return pairs


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_extrapolate_matches_set_join_oracle(seed):
    rng = np.random.default_rng(seed)
    names = ["fn%02d" % k for k in range(20)]
    chain = []
    for _ in range(4):
        k = int(rng.integers(1, 21))
        left = rng.permutation(names)[:k]
        right = rng.permutation(names)[:k]
        chain.append(GroundTruth.from_pairs(zip(left.tolist(), right.tolist())))
    try:
        composed = extrapolate(chain)
    except CompositionError:
        # raised only when a hop shares no keys at all, so the relational
        # composition must be empty too
        assert set_join([t.pairs for t in chain]) == set()
        return
    assert composed.pairs == frozenset(set_join([t.pairs for t in chain]))


def test_score_perfect_agreement():
    pairs = {("a", "a"), ("b", "b")}
    report = score(pairs, GroundTruth.from_pairs(pairs))
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert (report.swapped_precision, report.swapped_recall) == (1.0, 1.0)


def test_score_empty_prediction():
    report = score(set(), GroundTruth.from_pairs([("a", "a")]))
    assert report.recall == 0.0
    assert report.swapped_precision == 0.0
    assert report.f1 == 0.0


def test_score_worked_example():
    truth = {("t%d" % k, "t%d" % k) for k in range(4)}
    predicted = set(list(truth)[:3]) | {("x%d" % k, "x%d" % k) for k in range(3)}
    report = score(predicted, truth)
    assert report.n_common == 3
    assert report.precision == pytest.approx(0.5)          # 3 / 6
    assert report.recall == pytest.approx(0.75)            # 3 / 4
    assert report.swapped_precision == pytest.approx(0.75)
    assert report.swapped_recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(2 * 0.5 * 0.75 / 1.25)


def test_score_both_empty():
    report = score(set(), GroundTruth.from_pairs([]))
    assert (report.precision, report.recall) == (1.0, 1.0)


def test_score_accepts_mapping_objects():
    m = Mapping.from_pairs([(0, 0), (1, 1)])
    report = score(m, {(0, 0), (2, 2)})
    assert report.n_common == 1
    assert report.precision == pytest.approx(0.5)


pair_sets = st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=9)


@given(pair_sets, pair_sets)
def test_score_transpose_identity(predicted, truth):
    forward = score(predicted, truth)
    backward = score(truth, predicted)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.f1 == pytest.approx(backward.f1)


def test_mapping_to_keys_uses_names_when_available():
    a = make_graph(2, name="A")
    b = make_graph(2, name="B")
    m = Mapping.from_pairs([(0, 1), (1, 0)])
    assert mapping_to_keys(m, a, b) == {("fn0000", "fn0001"), ("fn0001", "fn0000")}
