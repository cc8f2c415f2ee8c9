"""Attributed call graphs and their JSON exchange format.

A program is a set of functions with numeric feature vectors plus directed
call edges between them.  A graph holds them as columns: a feature matrix,
an address-order vector, a name tuple and a sorted edge array, each checked
once when the graph is built and read-only afterwards.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from operator import itemgetter
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DataError, FormatError, GraphMismatchError

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

# Fixed feature layout: content = total instructions, one count per declared
# instruction class, max block instructions; then topology; then neighborhood.
TOPOLOGY_KEYS = ("blocks", "jumps", "max_block_callers", "max_block_callees")
NEIGHBORHOOD_KEYS = ("callers", "callees")


def check_range(name: str, value, low=0, high=math.inf, integer: bool = False,
                open_high: bool = False):
    """`value` if it is a number in [low, high] ([low, high) if open_high), else a ValueError.

    The rule of every numeric setting: a bool is not a number, an `integer` setting is an
    int or np.integer, its float is finite, and -0.0 is below a lower bound of 0.
    """
    number = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, np.integer) if integer else Real):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float stays nan
            pass
    if not (math.isfinite(number) and low <= number
            and (low < 0 or math.copysign(1.0, number) > 0)
            and (number < high if open_high else number <= high)):
        raise ValueError("%s must be %s %s, not %r" % (
            name, "an integer" if integer else "a finite number",
            ">= %s" % low if high == math.inf else
            "in [%s, %s%s" % (low, high, ")" if open_high else "]"), value))
    return value


def check_non_negative(**values: float) -> None:
    """Raise ValueError unless each named value is a finite number >= 0, not -0.0."""
    for name, value in values.items():
        check_range(name, value)


def feature_group_sizes(n_classes: int) -> Tuple[int, int, int]:
    """(content, topology, neighborhood) vector lengths for a class list."""
    return (n_classes + 2, len(TOPOLOGY_KEYS), len(NEIGHBORHOOD_KEYS))


@dataclass(frozen=True, eq=False)
class CallGraph:
    """A program's functions, one row each, plus its directed calls.

    Row i of `features`, `order` and `names` describes function i.  `edges`
    takes any (caller, callee) rows; construction checks every column once,
    keeps each call once in lexicographic order, counts the duplicates it
    dropped, and stores read-only copies of the arrays.
    """

    name: str
    instruction_classes: Tuple[str, ...]
    features: np.ndarray  # (n, n_classes + 8) float64, finite and non-negative
    order: np.ndarray     # (n,) int64 address-order positions, a permutation of 0..n-1
    names: Tuple[Optional[str], ...]
    edges: np.ndarray     # (m, 2) int64 (caller, callee) rows, sorted and unique
    duplicate_calls: int = field(default=0, init=False)

    def __post_init__(self):
        n = len(self.names)
        width = sum(feature_group_sizes(len(self.instruction_classes)))
        features = np.array(self.features, dtype=np.float64)
        if features.shape != (n, width):
            raise FormatError("%s: features must have shape (%d, %d) for %d functions and "
                              "the declared instruction classes" % (self.name, n, width, n))
        valid = ((features >= 0) & (features < np.inf)).all(axis=1)
        if not valid.all():
            raise FormatError("%s: function %d has a non-finite or negative feature"
                              % (self.name, np.argmin(valid)))
        order = np.asarray(self.order)  # of objects if a value is past int64
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise FormatError("%s: order_index values must be a permutation of 0..%d"
                              % (self.name, n - 1))
        calls = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        outside = ((calls < 0) | (calls >= n)).any(axis=1)
        if outside.any():
            raise FormatError("%s: call (%d, %d) references a missing function"
                              % (self.name, *calls[np.argmax(outside)]))
        loops = calls[:, 0] == calls[:, 1]
        if loops.any():
            raise FormatError("%s: self-loop on function %d"
                              % (self.name, calls[np.argmax(loops), 0]))
        keys = np.unique(calls[:, 0] * n + calls[:, 1])
        edges = np.stack(np.divmod(keys, max(n, 1)), axis=1)
        for key, column in (("features", features), ("order", order.astype(np.int64)),
                            ("edges", edges)):
            column.flags.writeable = False
            object.__setattr__(self, key, column)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "duplicate_calls", len(calls) - len(edges))

    @property
    def n(self) -> int:
        return len(self.names)

    def key_of(self, node_id: int):
        """Name of a function if it has one, otherwise its integer id."""
        name = self.names[node_id]
        return name if name is not None else node_id


# ---------------------------------------------------------------------------
# exchange format


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError("%s: missing required key '%s'" % (where, key))
    return doc[key]


def _number(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError("%s must be a number" % where)
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        value = np.inf
    if not 0 <= value < np.inf:
        raise FormatError("%s must be finite and non-negative" % where)


def _check_function(entry, index: int, n_classes: int) -> Optional[str]:
    """Raise the first error in one function record; return its name."""
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
    _number(_require(content, "total_instructions", where + ".content"),
            where + ".total_instructions")
    for k, c in enumerate(counts):
        _number(c, "%s.class_counts[%d]" % (where, k))
    _number(_require(content, "max_block_instructions", where + ".content"),
            where + ".max_block_instructions")
    for group, keys in (("topology", TOPOLOGY_KEYS), ("neighborhood", NEIGHBORHOOD_KEYS)):
        values = _require(entry, group, where)
        for key in keys:
            _number(_require(values, key, "%s.%s" % (where, group)), "%s.%s" % (where, key))
    return name


def _explain(doc: dict, source: str, raw_functions: list, n_classes: int):
    """Raise the first error in the function, then the call records of a document.

    Called only once a bulk check has failed, so that the message names its
    record; returns if every record is sound.
    """
    seen_names: Dict[str, int] = {}
    for index, entry in enumerate(raw_functions):
        name = _check_function(entry, index, n_classes)
        if name is not None:
            if name in seen_names:
                raise FormatError("functions[%d]: duplicate name %r (also functions[%d])"
                                  % (index, name, seen_names[name]))
            seen_names[name] = index

    n = len(raw_functions)
    raw_calls = _require(doc, "calls", source)
    if not isinstance(raw_calls, list):
        raise FormatError("%s: calls must be a list" % source)
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


def _all_of(values, *types) -> bool:
    """Whether every value is an instance of `types` and not a bool; one test per type."""
    return all(issubclass(t, types) and not issubclass(t, bool) for t in set(map(type, values)))


_topology = itemgetter(*TOPOLOGY_KEYS)
_neighborhood = itemgetter(*NEIGHBORHOOD_KEYS)


def _columns(doc: dict, program: str, classes: Tuple[str, ...],
             raw_functions: list) -> CallGraph:
    """The graph of a document, gathered column by column and checked in bulk.

    Raises as soon as a check fails, with any exception: the caller then
    finds the offending record.
    """
    names, orders, values = [], [], []
    for entry in raw_functions:
        content = entry["content"]
        counts = content["class_counts"]
        if not isinstance(counts, list) or len(counts) != len(classes):
            raise ValueError("class_counts of the wrong length")
        names.append(entry.get("name"))
        orders.append(entry["order_index"])
        values.append(content["total_instructions"])
        values += counts
        values.append(content["max_block_instructions"])
        values += _topology(entry["topology"])
        values += _neighborhood(entry["neighborhood"])
    calls = doc["calls"]
    if not (_all_of(names, str, type(None)) and _all_of(orders, int)
            and _all_of(values, int, float) and isinstance(calls, list)
            and _all_of(calls, list) and set(map(len, calls)) <= {2}
            and _all_of(chain.from_iterable(calls), int)
            and len(set(names)) - (None in names) == len(names) - names.count(None)):
        raise ValueError("a value of the wrong type, or a repeated name")
    width = sum(feature_group_sizes(len(classes)))
    return CallGraph(name=program, instruction_classes=classes,
                     features=np.array(values, dtype=np.float64).reshape(-1, width),
                     order=orders, names=names, edges=calls)


def parse_call_graph(doc: dict, source: str = "<memory>") -> CallGraph:
    """Build a CallGraph from a decoded exchange document."""
    header = _require(doc, "header", source)
    version = _require(header, "format_version", source + ".header")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
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

    try:
        graph = _columns(doc, program, tuple(classes), raw_functions)
    except (FormatError, LookupError, TypeError, AttributeError, ValueError, OverflowError):
        # the errors a malformed record causes in the bulk pass; the walk
        # names the record, and if every record is sound only the order
        # permutation can have failed, with the CallGraph's own message
        _explain(doc, source, raw_functions, len(classes))
        raise
    if graph.duplicate_calls:
        log.warning("%s: dropped %d duplicate call record(s)", source, graph.duplicate_calls)
    return graph


def read_json(path: str):
    """Decode a UTF-8 JSON file; a file that cannot be read or decoded is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise FormatError("no such file: %s" % path)
    except OSError as exc:
        raise FormatError("cannot read %s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise FormatError("%s: not UTF-8 text (%s)" % (path, exc))
    except json.JSONDecodeError as exc:
        raise FormatError("%s: not valid JSON (%s)" % (path, exc))
    except RecursionError:
        raise FormatError("%s: not valid JSON (nested too deeply)" % path)


def load_call_graph(path: str) -> CallGraph:
    """Read a call graph from a JSON exchange file."""
    return parse_call_graph(read_json(path), source=path)


def serialize_call_graph(graph: CallGraph) -> dict:
    content, topology, _ = feature_group_sizes(len(graph.instruction_classes))
    functions = []
    for row, order, name in zip(graph.features.tolist(), graph.order.tolist(), graph.names):
        entry = {
            "order_index": order,
            "content": {
                "total_instructions": row[0],
                "class_counts": row[1:content - 1],
                "max_block_instructions": row[content - 1],
            },
            "topology": dict(zip(TOPOLOGY_KEYS, row[content:])),
            "neighborhood": dict(zip(NEIGHBORHOOD_KEYS, row[content + topology:])),
        }
        if name is not None:
            entry["name"] = name
        functions.append(entry)
    return {
        "header": {
            "format_version": FORMAT_VERSION,
            "program_name": graph.name,
            "instruction_classes": list(graph.instruction_classes),
        },
        "functions": functions,
        "calls": graph.edges.tolist(),
    }


def write_json(path: str, doc) -> None:
    """Write a document as indented JSON with sorted keys; a failure is a DataError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc))


def save_call_graph(graph: CallGraph, path: str):
    write_json(path, serialize_call_graph(graph))


def validate_pair(a: CallGraph, b: CallGraph):
    """Check that two graphs use the same instruction class list."""
    if a.instruction_classes != b.instruction_classes:
        raise GraphMismatchError(
            "instruction class lists differ: %s declares %r, %s declares %r"
            % (a.name, list(a.instruction_classes), b.name, list(b.instruction_classes)))
