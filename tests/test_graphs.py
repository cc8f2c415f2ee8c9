"""Call graph model and JSON exchange format."""

import dataclasses
import json
import logging
import math
from typing import Dict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgalign import (CallGraph, DataError, FormatError, GraphMismatchError, GroundTruth,
                     MutationSpec, generate_graph, load_call_graph, mutate, parse_call_graph,
                     save_call_graph, save_ground_truth, serialize_call_graph, validate_pair)
from cgalign.graphs import NEIGHBORHOOD_KEYS, TOPOLOGY_KEYS, feature_group_sizes, write_json

from conftest import make_features, make_graph, same_graph


def doc_for(graph):
    return json.loads(json.dumps(serialize_call_graph(graph)))


def test_round_trip_two_functions_one_call():
    g = make_graph(2, edges=[(0, 1)])
    parsed = parse_call_graph(doc_for(g))
    assert parsed.n == 2
    assert parsed.edges.tolist() == [[0, 1]]
    assert same_graph(parsed, g)
    assert parsed.instruction_classes == g.instruction_classes


def test_empty_function_list():
    g = make_graph(0)
    parsed = parse_call_graph(doc_for(g))
    assert parsed.n == 0
    assert len(parsed.edges) == 0


def test_self_loop_rejected_by_model():
    with pytest.raises(FormatError, match="self-loop"):
        make_graph(4, edges=[(3, 3)])


def test_self_loop_rejected_by_parser():
    doc = doc_for(make_graph(4))
    doc["calls"] = [[3, 3]]
    with pytest.raises(FormatError, match="self-loop"):
        parse_call_graph(doc)


def test_edge_endpoint_out_of_range():
    doc = doc_for(make_graph(2))
    doc["calls"] = [[0, 5]]
    with pytest.raises(FormatError, match="calls\\[0\\]"):
        parse_call_graph(doc)


def test_duplicate_calls_deduplicated_with_warning(caplog):
    doc = doc_for(make_graph(3, edges=[(0, 1)]))
    doc["calls"] = [[0, 1], [0, 1], [1, 2]]
    with caplog.at_level(logging.WARNING):
        parsed = parse_call_graph(doc)
    assert parsed.edges.tolist() == [[0, 1], [1, 2]]
    assert parsed.duplicate_calls == 1
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_duplicate_function_names_rejected():
    doc = doc_for(make_graph(2))
    doc["functions"][1]["name"] = doc["functions"][0]["name"]
    with pytest.raises(FormatError, match="duplicate name"):
        parse_call_graph(doc)


def test_missing_header_key():
    doc = doc_for(make_graph(1))
    del doc["header"]["program_name"]
    with pytest.raises(FormatError, match="program_name"):
        parse_call_graph(doc)


def test_unsupported_format_version():
    doc = doc_for(make_graph(1))
    doc["header"]["format_version"] = 99
    with pytest.raises(FormatError, match="format_version"):
        parse_call_graph(doc)


def test_class_count_length_mismatch():
    doc = doc_for(make_graph(1))
    doc["functions"][0]["content"]["class_counts"].append(1.0)
    with pytest.raises(FormatError, match="class_counts"):
        parse_call_graph(doc)


def test_negative_feature_rejected():
    doc = doc_for(make_graph(1))
    doc["functions"][0]["topology"]["jumps"] = -1
    with pytest.raises(FormatError, match="jumps"):
        parse_call_graph(doc)


def test_order_index_must_be_permutation():
    features = [make_features([1, 0, 0, 0, 0, 0]), make_features([0, 1, 0, 0, 0, 0])]
    with pytest.raises(FormatError, match="order_index"):
        CallGraph(name="g", instruction_classes=("a", "b", "c", "d", "e", "f"),
                  features=features, order=[0, 0], names=(None, None), edges=[])


def test_columns_must_have_one_row_per_function():
    with pytest.raises(FormatError, match="shape"):
        CallGraph(name="g", instruction_classes=("a", "b", "c", "d", "e", "f"),
                  features=[make_features([1, 0, 0, 0, 0, 0])], order=[0, 1],
                  names=(None, None), edges=[])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_model_rejects_non_finite_or_negative_feature(bad):
    rows = [make_features([1, 0, 0, 0, 0, 0]), make_features([1, 0, bad, 0, 0, 0])]
    with pytest.raises(FormatError, match="function 1 has a non-finite or negative"):
        make_graph(2, features=rows)


def test_model_rejects_call_to_missing_function():
    with pytest.raises(FormatError, match=r"call \(0, 2\) references a missing"):
        make_graph(2, edges=[(0, 2)])


def test_model_sorts_calls_and_counts_duplicates():
    g = CallGraph(name="g", instruction_classes=(), features=np.zeros((3, 8)),
                  order=[2, 0, 1], names=(None,) * 3, edges=[(2, 0), (0, 1), (2, 0)])
    assert g.edges.tolist() == [[0, 1], [2, 0]]
    assert g.duplicate_calls == 1


def test_columns_are_read_only_copies():
    rows = np.array([make_features([1, 0, 0, 0, 0, 0])])
    g = CallGraph(name="g", instruction_classes=("a", "b", "c", "d", "e", "f"),
                  features=rows, order=[0], names=("f",), edges=[])
    rows[0, 0] = 99.0
    assert g.features[0, 0] == 1.0
    for column in (g.features, g.order, g.edges):
        assert column.dtype in (np.float64, np.int64) and not column.flags.writeable
    with pytest.raises(ValueError):
        g.features[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.name = "other"


def test_load_missing_file(tmp_path):
    with pytest.raises(FormatError, match="no such file"):
        load_call_graph(str(tmp_path / "absent.json"))


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_call_graph(str(path))


def test_save_load_round_trip(tmp_path):
    g = make_graph(5, edges=[(0, 1), (1, 2), (3, 4), (0, 4)])
    path = str(tmp_path / "g.json")
    save_call_graph(g, path)
    loaded = load_call_graph(path)
    assert same_graph(loaded, g)


def test_write_json_indents_sorts_keys_and_ends_with_a_newline(tmp_path):
    doc = {"b": [1, 2.5, {"z": None, "a": "x"}], "a": True}
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("save", [
    lambda path: write_json(path, {}),
    lambda path: save_call_graph(make_graph(2), path),
    lambda path: save_ground_truth(GroundTruth.from_pairs([("f", "g")]), path),
])
def test_a_failed_write_is_a_one_line_data_error(tmp_path, save):
    for path in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
        with pytest.raises(DataError) as info:
            save(path)
        assert str(info.value).startswith("cannot write %s: " % path)
        assert "\n" not in str(info.value)


def test_validate_pair_accepts_same_classes():
    validate_pair(make_graph(1), make_graph(2))


def test_validate_pair_rejects_class_mismatch():
    a = make_graph(1)
    b = make_graph(1, classes=("x", "y"), features=[make_features([1, 0])])
    with pytest.raises(GraphMismatchError, match="instruction class"):
        validate_pair(a, b)


def test_empty_class_list_allowed():
    fv = make_features([])
    g = make_graph(1, classes=(), features=[fv])
    assert parse_call_graph(doc_for(g)).n == 1


def test_feature_group_sizes():
    assert feature_group_sizes(6) == (8, 4, 2)
    assert feature_group_sizes(0) == (2, 4, 2)


def test_key_of_prefers_name():
    g = make_graph(2)
    assert g.key_of(0) == "fn0000"
    anon = dataclasses.replace(g, names=(None, None))
    assert anon.key_of(1) == 1


def test_edge_array_sorted():
    g = make_graph(4, edges=[(2, 1), (0, 3), (0, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 3], [2, 1]]


names = st.integers(min_value=0, max_value=5)


@given(st.lists(st.tuples(names, names).filter(lambda e: e[0] != e[1]),
                max_size=12))
def test_serialization_round_trip_property(edge_list):
    g = make_graph(6, edges=set(edge_list))
    parsed = parse_call_graph(doc_for(g))
    assert same_graph(parsed, g)


# ---------------------------------------------------------------------------
# the per-record parser the columnar one replaced, kept as its reference


def _require(doc, key, where):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError("%s: missing required key '%s'" % (where, key))
    return doc[key]


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError("%s must be a number" % where)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # a departure: this was raised for an int too large for a float
        finite = False
    if not finite or value < 0:
        raise FormatError("%s must be finite and non-negative" % where)
    return float(value)


def _reference_function(entry, index, n_classes):
    where = "functions[%d]" % index
    if not isinstance(entry, dict):
        raise FormatError("%s: expected an object" % where)
    name = entry.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("%s: name must be a string" % where)
    order = _require(entry, "order_index", where)
    if isinstance(order, bool) or not isinstance(order, int):
        raise FormatError("%s: order_index must be an integer" % where)

    content = _require(entry, "content", where)
    counts = _require(content, "class_counts", where + ".content")
    if not isinstance(counts, list) or len(counts) != n_classes:
        raise FormatError("%s: class_counts must list %d values" % (where, n_classes))
    content_vec = (
        _number(_require(content, "total_instructions", where + ".content"),
                where + ".total_instructions"),
        *(_number(c, "%s.class_counts[%d]" % (where, k)) for k, c in enumerate(counts)),
        _number(_require(content, "max_block_instructions", where + ".content"),
                where + ".max_block_instructions"),
    )
    topo = _require(entry, "topology", where)
    topo_vec = tuple(_number(_require(topo, key, where + ".topology"),
                             "%s.%s" % (where, key)) for key in TOPOLOGY_KEYS)
    nbh = _require(entry, "neighborhood", where)
    nbh_vec = tuple(_number(_require(nbh, key, where + ".neighborhood"),
                            "%s.%s" % (where, key)) for key in NEIGHBORHOOD_KEYS)
    return name, order, content_vec + topo_vec + nbh_vec


def reference_parse(doc, source="<memory>"):
    """(program, classes, feature rows, order, names, sorted edges, duplicates) of a document."""
    header = _require(doc, "header", source)
    version = _require(header, "format_version", source + ".header")
    if type(version) is not int or version != 1:  # a departure: this accepted true and 1.0
        raise FormatError("%s: unsupported format_version %r" % (source, version))
    program = _require(header, "program_name", source + ".header")
    if not isinstance(program, str):
        raise FormatError("%s: program_name must be a string" % source)
    classes = _require(header, "instruction_classes", source + ".header")
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise FormatError("%s: instruction_classes must be a list of strings" % source)

    raw_functions = _require(doc, "functions", source)
    if not isinstance(raw_functions, list):
        raise FormatError("%s: functions must be a list" % source)
    n = len(raw_functions)

    rows, order, names = [], [], []
    seen_names: Dict[str, int] = {}
    for index, entry in enumerate(raw_functions):
        name, order_index, features = _reference_function(entry, index, len(classes))
        if name is not None:
            if name in seen_names:
                raise FormatError("functions[%d]: duplicate name %r (also functions[%d])"
                                  % (index, name, seen_names[name]))
            seen_names[name] = index
        rows.append(features)
        order.append(order_index)
        names.append(name)

    raw_calls = _require(doc, "calls", source)
    if not isinstance(raw_calls, list):
        raise FormatError("%s: calls must be a list" % source)
    edges = set()
    duplicates = 0
    for index, call in enumerate(raw_calls):
        where = "calls[%d]" % index
        if (not isinstance(call, list) or len(call) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in call)):
            raise FormatError("%s: expected [caller_index, callee_index]" % where)
        caller, callee = call
        if not (0 <= caller < n and 0 <= callee < n):
            raise FormatError("%s: function index out of range" % where)
        if caller == callee:
            raise FormatError("%s: self-loop on function %d" % (where, caller))
        if (caller, callee) in edges:
            duplicates += 1
        else:
            edges.add((caller, callee))
    # the one check the old CallGraph constructor made that the parser had not
    if sorted(order) != list(range(n)):
        raise FormatError("%s: order_index values must be a permutation of 0..%d"
                          % (program, n - 1))
    return program, tuple(classes), rows, order, names, sorted(edges), duplicates


def assert_parses_like_reference(doc):
    """The parser and the reference accept the same document alike or fail alike."""
    try:
        want = reference_parse(doc)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            parse_call_graph(doc)
        assert str(got.value) == str(exc)
        return str(exc)
    program, classes, rows, order, names, edges, duplicates = want
    got = parse_call_graph(doc)
    width = sum(feature_group_sizes(len(classes)))
    rows = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    assert (got.name, got.instruction_classes, got.names) == (program, classes, tuple(names))
    assert np.array_equal(got.features.view(np.int64), rows.view(np.int64))
    assert got.order.tolist() == order
    assert got.edges.tolist() == [list(edge) for edge in edges]
    assert got.duplicate_calls == duplicates
    return None


SIZES = [(0, 0.0), (1, 0.0), (2, 1.0), (7, 0.4), (40, 0.1), (150, 0.03)]


@pytest.mark.parametrize("classes", [(), ("arith", "logic", "mem")], ids=["no-classes", "3"])
@pytest.mark.parametrize("n, density", SIZES, ids=[str(n) for n, _ in SIZES])
def test_parse_equals_reference_on_generated_graphs(n, density, classes):
    graph = generate_graph(n, edge_density=density, seed=n + 5, classes=classes)
    docs = [doc_for(graph)]
    if n:
        mutated, _ = mutate(graph, MutationSpec(insert=2, delete=1, perturb=n // 2,
                                                rewire=2, noise=30), seed=n)
        docs.append(doc_for(mutated))
    for doc in docs:
        assert assert_parses_like_reference(doc) is None
        doc["calls"] += doc["calls"][:3]  # duplicates, dropped and counted
        assert assert_parses_like_reference(doc) is None


def test_parse_equals_reference_on_unusual_numbers():
    doc = doc_for(make_graph(3, edges=[(0, 1)]))
    values = [0, -0.0, 2 ** 53 + 1, 2 ** 63 + 12345, 10 ** 300, 5e-324,
              1.7976931348623157e308, int(1.7976931348623157e308)]
    for k, value in enumerate(values):
        doc["functions"][k % 3]["topology"]["jumps"] = value
        doc["functions"][(k + 1) % 3]["content"]["class_counts"][k % 6] = value
        assert assert_parses_like_reference(doc) is None
    doc["functions"][1].pop("name")
    doc["functions"][2]["name"] = None
    assert assert_parses_like_reference(doc) is None


def _set(path, value):
    """A corruption that sets the key at `path` (a tuple of keys) to `value`."""
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return corrupt


def _drop(path):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return corrupt


def _both(*corruptions):
    def corrupt(doc):
        for one in corruptions:
            one(doc)
    return corrupt


F3 = ("functions", 3)
CORRUPTIONS = {
    "missing header": (_drop(("header",)), "missing required key 'header'"),
    "missing format_version": (_drop(("header", "format_version")), "format_version"),
    "format_version 2": (_set(("header", "format_version"), 2), "unsupported format_version"),
    "format_version true": (_set(("header", "format_version"), True),
                            "unsupported format_version True"),
    "format_version 1.0": (_set(("header", "format_version"), 1.0),
                           "unsupported format_version 1.0"),
    "missing program_name": (_drop(("header", "program_name")), "program_name"),
    "program_name int": (_set(("header", "program_name"), 7), "program_name must be a string"),
    "classes not a list": (_set(("header", "instruction_classes"), "arith"), "list of strings"),
    "class not a str": (_set(("header", "instruction_classes"), ["a", 1]), "list of strings"),
    "missing functions": (_drop(("functions",)), "missing required key 'functions'"),
    "functions a dict": (_set(("functions",), {}), "functions must be a list"),
    "function a list": (_set(F3, [1, 2]), "functions[3]: expected an object"),
    "function a string": (_set(F3, "f"), "functions[3]: expected an object"),
    "name int": (_set(F3 + ("name",), 5), "functions[3]: name must be a string"),
    "name bool": (_set(F3 + ("name",), True), "name must be a string"),
    "duplicate name": (_set(F3 + ("name",), "fn0001"), "functions[3]: duplicate name 'fn0001'"),
    "missing order_index": (_drop(F3 + ("order_index",)), "functions[3]: missing required"),
    "order_index float": (_set(F3 + ("order_index",), 1.0), "order_index must be an integer"),
    "order_index bool": (_set(F3 + ("order_index",), False), "order_index must be an integer"),
    "order_index repeated": (_set(F3 + ("order_index",), 0), "must be a permutation of 0..5"),
    "order_index huge": (_set(F3 + ("order_index",), 10 ** 30), "must be a permutation"),
    "order_index negative": (_set(F3 + ("order_index",), -1), "must be a permutation"),
    "missing content": (_drop(F3 + ("content",)), "functions[3]: missing required key 'content'"),
    "content a list": (_set(F3 + ("content",), []), "functions[3].content: missing required"),
    "missing class_counts": (_drop(F3 + ("content", "class_counts")), "class_counts"),
    "class_counts short": (_set(F3 + ("content", "class_counts"), [1.0]),
                           "functions[3]: class_counts must list 6 values"),
    "class_counts a dict": (_set(F3 + ("content", "class_counts"),
                                 {c: 1 for c in "abcdef"}), "class_counts must list 6"),
    "class_counts a string": (_set(F3 + ("content", "class_counts"), "abcdef"),
                              "class_counts must list 6"),
    "count a string": (_set(F3 + ("content", "class_counts", 2), "1"),
                       "functions[3].class_counts[2] must be a number"),
    "count negative": (_set(F3 + ("content", "class_counts", 5), -1),
                       "functions[3].class_counts[5] must be finite and non-negative"),
    "missing total": (_drop(F3 + ("content", "total_instructions")), "total_instructions"),
    "total nan": (_set(F3 + ("content", "total_instructions"), math.nan),
                  "functions[3].total_instructions must be finite"),
    "missing max_block": (_drop(F3 + ("content", "max_block_instructions")),
                          "max_block_instructions"),
    "max_block inf": (_set(F3 + ("content", "max_block_instructions"), math.inf),
                      "functions[3].max_block_instructions must be finite"),
    "missing topology": (_drop(F3 + ("topology",)), "functions[3]: missing required key"),
    "topology a list": (_set(F3 + ("topology",), [1, 2, 3, 4]), "functions[3].topology"),
    "missing jumps": (_drop(F3 + ("topology", "jumps")), "functions[3].topology: missing"),
    "jumps bool": (_set(F3 + ("topology", "jumps"), True), "functions[3].jumps must be a number"),
    "jumps None": (_set(F3 + ("topology", "jumps"), None), "jumps must be a number"),
    "jumps -inf": (_set(F3 + ("topology", "jumps"), -math.inf), "jumps must be finite"),
    "jumps 10**400": (_set(F3 + ("topology", "jumps"), 10 ** 400),
                      "functions[3].jumps must be finite and non-negative"),
    "jumps 2**1024 - 1": (_set(F3 + ("topology", "jumps"), 2 ** 1024 - 1),
                          "functions[3].jumps must be finite and non-negative"),
    "missing neighborhood": (_drop(F3 + ("neighborhood",)), "missing required key"),
    "missing callers": (_drop(F3 + ("neighborhood", "callers")),
                        "functions[3].neighborhood: missing required key 'callers'"),
    "callees a list": (_set(F3 + ("neighborhood", "callees"), [1]), "callees must be a number"),
    "missing calls": (_drop(("calls",)), "missing required key 'calls'"),
    "calls a dict": (_set(("calls",), {"0": 1}), "calls must be a list"),
    "call a tuple-like dict": (_set(("calls", 1), {"a": 0, "b": 1}), "calls[1]: expected"),
    "call too long": (_set(("calls", 1), [0, 1, 2]), "calls[1]: expected"),
    "call a string": (_set(("calls", 1), "01"), "calls[1]: expected"),
    "call of floats": (_set(("calls", 1), [0.0, 1.0]), "calls[1]: expected"),
    "call of bools": (_set(("calls", 1), [True, False]), "calls[1]: expected"),
    "call out of range": (_set(("calls", 1), [0, 6]), "calls[1]: function index out of range"),
    "call negative": (_set(("calls", 1), [-1, 2]), "calls[1]: function index out of range"),
    "call huge": (_set(("calls", 1), [0, 2 ** 64]), "calls[1]: function index out of range"),
    "self-loop": (_set(("calls", 1), [4, 4]), "calls[1]: self-loop on function 4"),
    # with several faults, the first in record order wins
    "late function and early call": (
        _both(_set(("functions", 5, "topology", "blocks"), -2), _set(("calls", 0), [1, 1])),
        "functions[5].blocks"),
    "call fault and missing record key": (
        _both(_set(("calls", 0), [1, 1]), _drop(("functions", 4, "neighborhood"))),
        "functions[4]: missing required key 'neighborhood'"),
    "permutation and call fault": (
        _both(_set(F3 + ("order_index",), 0), _set(("calls", 2), [0, 9])), "calls[2]"),
    "duplicate name then bad value": (
        _both(_set(F3 + ("name",), "fn0000"), _set(("functions", 4, "topology", "jumps"), -1)),
        "duplicate name 'fn0000'"),
    "bad value then duplicate name": (
        _both(_set(("functions", 2, "topology", "jumps"), -1), _set(F3 + ("name",), "fn0000")),
        "functions[2].jumps"),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_parse_error_equals_reference(case):
    corrupt, expected = CORRUPTIONS[case]
    doc = doc_for(generate_graph(6, edge_density=0.5, seed=2))
    corrupt(doc)
    message = assert_parses_like_reference(doc)
    assert message is not None and expected in message


def test_parse_does_not_accept_tuples_for_lists():
    doc = doc_for(make_graph(3, edges=[(0, 1)]))
    doc["calls"][0] = (0, 1)
    assert "calls[0]: expected" in assert_parses_like_reference(doc)
    doc = doc_for(make_graph(3, edges=[(0, 1)]))
    doc["functions"][1]["content"]["class_counts"] = tuple(range(6))
    assert "class_counts must list" in assert_parses_like_reference(doc)


def test_load_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(FormatError, match=r"not valid JSON \(nested too deeply\)"):
        load_call_graph(str(path))
