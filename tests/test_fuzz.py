"""Fuzzed input documents: only DataError subclasses may escape the readers.

Each test starts from a valid document, drops keys or list items and swaps
values for ones of the wrong type or out of range, then feeds it to one of
the three readers of input files: graphs, ground truths and mapping reports.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgalign import (DataError, GroundTruth, MutationSpec, generate_graph, mutate,
                     parse_call_graph, serialize_call_graph)
from cgalign.cli import _load_report
from cgalign.evaluation import parse_ground_truth

from test_graphs import assert_parses_like_reference

ODD_VALUES = [True, False, "x", "", [], [1], [0, 1, 2], {}, {"a": 1}, None, math.nan,
              math.inf, -math.inf, -1, -0.5, -0.0, 0, 1, 1.5, 2 ** 63, 2 ** 1024,
              2 ** 1024 - 1, -(2 ** 1024), 10 ** 400]


def corrupt(data, doc, max_edits=3):
    """Apply 1..max_edits random drops or swaps anywhere in a JSON-like document."""
    for _ in range(data.draw(st.integers(1, max_edits))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
            parent = node
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(st.sampled_from(ODD_VALUES))
    return doc


def graph_doc(data):
    n = data.draw(st.integers(0, 6))
    graph = generate_graph(n, edge_density=0.4, seed=data.draw(st.integers(0, 50)),
                           classes=data.draw(st.sampled_from([(), ("a",), ("a", "b", "c")])))
    if n and data.draw(st.booleans()):
        graph, _ = mutate(graph, MutationSpec(insert=1, delete=1, rewire=1), seed=n)
    return json.loads(json.dumps(serialize_call_graph(graph)))


@settings(max_examples=400)
@given(st.data())
def test_fuzzed_graph_documents(data):
    doc = corrupt(data, graph_doc(data))
    try:
        graph = parse_call_graph(doc)
    except DataError:
        graph = None
    # messages and accepted columns equal the per-record reference parser's
    assert_parses_like_reference(doc)
    if graph is not None:
        text = json.dumps(serialize_call_graph(graph), sort_keys=True)
        again = parse_call_graph(json.loads(text))
        assert json.dumps(serialize_call_graph(again), sort_keys=True) == text


@settings(max_examples=200)
@given(st.data())
def test_fuzzed_ground_truth_documents(data):
    keys = data.draw(st.lists(st.one_of(st.integers(0, 9), st.sampled_from("abcdef")),
                              unique=True, max_size=6))
    truth = GroundTruth.from_pairs((key, key) for key in keys)
    doc = corrupt(data, {"format_version": 1,
                         "pairs": [list(pair) for pair in truth.sorted_pairs()]})
    try:
        parsed = parse_ground_truth(doc)
    except DataError:
        return
    assert parse_ground_truth({"format_version": 1,
                               "pairs": [list(p) for p in parsed.sorted_pairs()]}) == parsed


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "report.json")


@settings(max_examples=200)
@given(data=st.data())
def test_fuzzed_mapping_reports(report_path, data):
    doc = corrupt(data, {"program_a": "a", "program_b": "b",
                         "matched": [["fn0000", "fn0001", 0.5], [1, 2, 0.25], ["x", 3, 1.0]],
                         "unmatched_a": [], "unmatched_b": ["fn0002"], "objective": 1.5})
    with open(report_path, "w") as handle:
        json.dump(doc, handle)
    try:
        pairs = _load_report(report_path)
    except DataError:
        return
    assert all(isinstance(key, (int, str)) and not isinstance(key, bool)
               for pair in pairs for key in pair)
