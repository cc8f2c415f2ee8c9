"""Attributed call graphs and their JSON exchange format.

A program is a set of functions with numeric feature vectors plus directed
call edges between them.  Graphs are treated as immutable once constructed;
derived arrays are cached on first use.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import FormatError, GraphMismatchError

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

# Fixed feature layout: content = total instructions, one count per declared
# instruction class, max block instructions; then topology; then neighborhood.
TOPOLOGY_KEYS = ("blocks", "jumps", "max_block_callers", "max_block_callees")
NEIGHBORHOOD_KEYS = ("callers", "callees")


def feature_group_sizes(n_classes: int) -> Tuple[int, int, int]:
    """(content, topology, neighborhood) vector lengths for a class list."""
    return (n_classes + 2, len(TOPOLOGY_KEYS), len(NEIGHBORHOOD_KEYS))


@dataclass(frozen=True)
class FeatureVector:
    """Per-function attributes, grouped the way the similarity weights them."""

    content: Tuple[float, ...]       # total instrs, per-class counts, max block instrs
    topology: Tuple[float, ...]      # blocks, jumps, max block callers/callees
    neighborhood: Tuple[float, ...]  # caller count, callee count

    def concat(self) -> Tuple[float, ...]:
        return self.content + self.topology + self.neighborhood


@dataclass(frozen=True)
class FunctionNode:
    id: int
    order_index: int
    features: FeatureVector
    name: Optional[str] = None


@dataclass
class CallGraph:
    """A program's functions plus directed call edges.

    Construction validates structural invariants; loaders add record-level
    context on top.  Instances must not be mutated after construction.
    """

    name: str
    instruction_classes: Tuple[str, ...]
    nodes: Tuple[FunctionNode, ...]
    edges: frozenset  # of (caller_id, callee_id) pairs
    duplicate_calls: int = 0  # how many duplicate call records the loader dropped

    _fmat: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _earr: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        content_len, topo_len, nbh_len = feature_group_sizes(len(self.instruction_classes))
        ids = [node.id for node in self.nodes]
        if ids != list(range(n)):
            raise FormatError("%s: node ids must be 0..%d in order" % (self.name, n - 1))
        if sorted(node.order_index for node in self.nodes) != list(range(n)):
            raise FormatError("%s: order_index values must be a permutation of 0..%d"
                              % (self.name, n - 1))
        for node in self.nodes:
            fv = node.features
            if (len(fv.content), len(fv.topology), len(fv.neighborhood)) != (
                    content_len, topo_len, nbh_len):
                raise FormatError("%s: function %d has a feature vector that does not "
                                  "match the declared instruction classes" % (self.name, node.id))
            for value in fv.concat():
                if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                    raise FormatError("%s: function %d has a non-finite or negative feature"
                                      % (self.name, node.id))
        for caller, callee in self.edges:
            if caller == callee:
                raise FormatError("%s: self-loop on function %d" % (self.name, caller))
            if not (0 <= caller < n and 0 <= callee < n):
                raise FormatError("%s: call (%d, %d) references a missing function"
                                  % (self.name, caller, callee))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def feature_matrix(self) -> np.ndarray:
        """(n, F) float array, one concatenated feature vector per function."""
        if self._fmat is None:
            rows = [node.features.concat() for node in self.nodes]
            width = sum(feature_group_sizes(len(self.instruction_classes)))
            self._fmat = np.asarray(rows, dtype=np.float64).reshape(self.n, width)
        return self._fmat

    def edge_array(self) -> np.ndarray:
        """(m, 2) int array of call edges in lexicographic order."""
        if self._earr is None:
            self._earr = np.asarray(sorted(self.edges), dtype=np.int64).reshape(-1, 2)
        return self._earr

    def order_array(self) -> np.ndarray:
        return np.asarray([node.order_index for node in self.nodes], dtype=np.int64)

    def names(self) -> List[Optional[str]]:
        return [node.name for node in self.nodes]

    def key_of(self, node_id: int):
        """Name of a function if it has one, otherwise its integer id."""
        name = self.nodes[node_id].name
        return name if name is not None else node_id

    def undirected_adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for caller, callee in sorted(self.edges):
            adj[caller].append(callee)
            adj[callee].append(caller)
        return [sorted(set(neigh)) for neigh in adj]


# ---------------------------------------------------------------------------
# exchange format


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError("%s: missing required key '%s'" % (where, key))
    return doc[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError("%s must be a number" % where)
    if not math.isfinite(value) or value < 0:
        raise FormatError("%s must be finite and non-negative" % where)
    return float(value)


def _parse_function(entry, index: int, n_classes: int) -> Tuple[Optional[str], int, FeatureVector]:
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
    return name, order, FeatureVector(content_vec, topo_vec, nbh_vec)


def parse_call_graph(doc: dict, source: str = "<memory>") -> CallGraph:
    """Build a CallGraph from a decoded exchange document."""
    header = _require(doc, "header", source)
    version = _require(header, "format_version", source + ".header")
    if version != FORMAT_VERSION:
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

    nodes = []
    seen_names: Dict[str, int] = {}
    for index, entry in enumerate(raw_functions):
        name, order, features = _parse_function(entry, index, len(classes))
        if name is not None:
            if name in seen_names:
                raise FormatError("functions[%d]: duplicate name %r (also functions[%d])"
                                  % (index, name, seen_names[name]))
            seen_names[name] = index
        nodes.append(FunctionNode(id=index, order_index=order, features=features, name=name))

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
    if duplicates:
        log.warning("%s: dropped %d duplicate call record(s)", source, duplicates)

    return CallGraph(name=program, instruction_classes=tuple(classes),
                     nodes=tuple(nodes), edges=frozenset(edges),
                     duplicate_calls=duplicates)


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


def load_call_graph(path: str) -> CallGraph:
    """Read a call graph from a JSON exchange file."""
    return parse_call_graph(read_json(path), source=path)


def serialize_call_graph(graph: CallGraph) -> dict:
    n_classes = len(graph.instruction_classes)
    functions = []
    for node in graph.nodes:
        fv = node.features
        entry = {
            "order_index": node.order_index,
            "content": {
                "total_instructions": fv.content[0],
                "class_counts": list(fv.content[1:1 + n_classes]),
                "max_block_instructions": fv.content[-1],
            },
            "topology": dict(zip(TOPOLOGY_KEYS, fv.topology)),
            "neighborhood": dict(zip(NEIGHBORHOOD_KEYS, fv.neighborhood)),
        }
        if node.name is not None:
            entry["name"] = node.name
        functions.append(entry)
    return {
        "header": {
            "format_version": FORMAT_VERSION,
            "program_name": graph.name,
            "instruction_classes": list(graph.instruction_classes),
        },
        "functions": functions,
        "calls": [list(edge) for edge in sorted(graph.edges)],
    }


def save_call_graph(graph: CallGraph, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(serialize_call_graph(graph), handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_pair(a: CallGraph, b: CallGraph):
    """Check that two graphs use the same instruction class list."""
    if a.instruction_classes != b.instruction_classes:
        raise GraphMismatchError(
            "instruction class lists differ: %s declares %r, %s declares %r"
            % (a.name, list(a.instruction_classes), b.name, list(b.instruction_classes)))
