"""The one range rule of every numeric setting: graphs.check_range and its callers."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgalign import (BpConfig, Mapping, MutationSpec, SimilarityConfig, baseline_cost,
                     build_candidates, build_problem, cli, generate_graph, ged_cost_direct,
                     ged_cost_editpath, solve_mcs_greedy)
from cgalign.graphs import check_range

from conftest import dense_sim, make_graph

BOUNDS = [(0, math.inf), (1, math.inf), (0, 1), (1, 64), (-1, 1), (0.5, 2.5)]

VALUES = st.one_of(
    st.floats(),  # nan, ±inf and ±0.0 included
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1.0, 64.0]),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=2 ** 1020, max_value=2 ** 1030),  # some too large for a float
    st.sampled_from([10 ** 400, -10 ** 400]),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(min_value=-100, max_value=100)),
    st.builds(np.uint8, st.integers(min_value=0, max_value=255)),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.float64, st.floats()),
    st.text(max_size=3),
    st.none(),
)


def accepted(value, low, high, integer, open_high):
    """The rule, written out apart from check_range."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if not isinstance(value, (int, np.integer) if integer
                      else (int, float, np.integer, np.floating)):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    if x != x or x in (math.inf, -math.inf):
        return False
    if x < low or (x == low == 0 and str(x) == "-0.0"):
        return False
    return x < high if open_high else x <= high


@given(VALUES, st.sampled_from(BOUNDS), st.booleans(), st.booleans())
def test_check_range_accepts_exactly_what_the_rule_accepts(value, bounds, integer, open_high):
    low, high = bounds
    if accepted(value, low, high, integer, open_high):
        assert check_range("x", value, low, high, integer, open_high) is value
    else:
        with pytest.raises(ValueError) as info:
            check_range("x", value, low, high, integer, open_high)
        message = str(info.value)
        assert message.startswith("x must be ") and "\n" not in message


@pytest.mark.parametrize("value, kwargs, message", [
    (-0.0, {}, "alpha must be a finite number >= 0, not -0.0"),
    (2, {"high": 1}, "alpha must be a finite number in [0, 1], not 2"),
    (1.0, {"high": 1, "open_high": True}, "alpha must be a finite number in [0, 1), not 1.0"),
    (0, {"low": 1, "integer": True}, "alpha must be an integer >= 1, not 0"),
    (2.0, {"integer": True}, "alpha must be an integer >= 0, not 2.0"),
    ("1", {"low": 1, "high": 64, "integer": True}, "alpha must be an integer in [1, 64], not '1'"),
])
def test_check_range_message_has_one_shape(value, kwargs, message):
    with pytest.raises(ValueError) as info:
        check_range("alpha", value, **kwargs)
    assert str(info.value) == message


@given(st.one_of(st.floats().map(repr), st.integers(-10 ** 5, 10 ** 5).map(str),
                 st.sampled_from(["-0", "-0.0", "+0", "9" * 400, "1e999", "nan", "0x10", "1_0",
                                  " 3 ", "", "abc"])),
       st.sampled_from([float, int]), st.sampled_from(BOUNDS), st.booleans())
def test_cli_flags_parse_then_apply_the_same_rule(text, kind, bounds, open_high):
    low, high = bounds
    try:
        value = kind(text)
    except ValueError:
        value = text
    parse = cli._ranged(kind, low, high, open_high)
    if accepted(value, low, high, kind is int, open_high):
        assert parse(text) == value
    else:
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)


A = make_graph(3, edges=[(0, 1), (1, 2)], name="A")
B = make_graph(3, edges=[(0, 1), (1, 2)], name="B")
SIM = dense_sim(np.eye(3) * 0.5 + 0.25)
ONE = Mapping.from_pairs([(0, 0)])

# (label, field, integer setting, call with the value)
SETTINGS = [
    ("BpConfig", "epsilon", False, lambda v: BpConfig(epsilon=v)),
    ("BpConfig", "damping", False, lambda v: BpConfig(damping=v)),
    ("BpConfig", "max_iterations", True, lambda v: BpConfig(max_iterations=v)),
    ("BpConfig", "threads", True, lambda v: BpConfig(threads=v)),
    ("SimilarityConfig", "sparsity_ratio", False, lambda v: SimilarityConfig(sparsity_ratio=v)),
    ("SimilarityConfig", "content_weight", False, lambda v: SimilarityConfig(content_weight=v)),
    ("SimilarityConfig", "perturbation_scale", False,
     lambda v: SimilarityConfig(perturbation_scale=v)),
    ("build_problem", "alpha", False, lambda v: build_problem(SIM, A, B, alpha=v)),
    ("build_problem", "d_node", False, lambda v: build_problem(SIM, A, B, d_node=v)),
    ("build_problem", "d_edge", False, lambda v: build_problem(SIM, A, B, d_edge=v)),
    ("MutationSpec", "insert", True, lambda v: MutationSpec(insert=v)),
    ("MutationSpec", "delete", True, lambda v: MutationSpec(delete=v)),
    ("MutationSpec", "perturb", True, lambda v: MutationSpec(perturb=v)),
    ("MutationSpec", "rewire", True, lambda v: MutationSpec(rewire=v)),
    ("MutationSpec", "noise", True, lambda v: MutationSpec(noise=v)),
    ("generate_graph", "n", True, lambda v: generate_graph(v)),
    ("generate_graph", "edge_density", False, lambda v: generate_graph(4, edge_density=v)),
    ("generate_graph", "templates", True, lambda v: generate_graph(4, templates=v)),
    ("solve_mcs_greedy", "k", True, lambda v: solve_mcs_greedy(build_candidates(SIM), A, B, k=v)),
    ("build_candidates", "d_node", False, lambda v: build_candidates(SIM, d_node=v)),
    ("baseline_cost", "d_node", False, lambda v: baseline_cost(1, 1, 0, 0, v, 0.5)),
    ("baseline_cost", "d_edge", False, lambda v: baseline_cost(1, 1, 0, 0, 0.5, v)),
    ("ged_cost_direct", "d_node", False, lambda v: ged_cost_direct(A, B, ONE, SIM, d_node=v)),
    ("ged_cost_direct", "d_edge", False, lambda v: ged_cost_direct(A, B, ONE, SIM, d_edge=v)),
    ("ged_cost_editpath", "d_node", False,
     lambda v: ged_cost_editpath(A, B, ONE, SIM, d_node=v)),
    ("ged_cost_editpath", "d_edge", False,
     lambda v: ged_cost_editpath(A, B, ONE, SIM, d_edge=v)),
]
BAD = [math.nan, math.inf, -1, -0.0, True, "1", None, 10 ** 400]
CASES = [(label, field, call, value) for label, field, integer, call in SETTINGS
         for value in BAD + [2.5] * integer
         if not (field == "templates" and value is None)]  # None asks for the default


@pytest.mark.parametrize("label, field, call, value", CASES, ids=[
    "%s.%s=%s" % (label, field, "10**400" if value == 10 ** 400 else repr(value))
    for label, field, _, value in CASES])
def test_every_setting_refuses_a_bad_value_in_one_line_naming_it(label, field, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(field + " must be ") and "\n" not in message


@pytest.mark.parametrize("label, field, integer, call", SETTINGS,
                         ids=["%s.%s" % (s[0], s[1]) for s in SETTINGS])
def test_every_setting_takes_a_numpy_scalar_in_range(label, field, integer, call):
    call(np.int64(1) if integer else np.float64(0.5))

