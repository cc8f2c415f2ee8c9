"""Synthetic call graphs with known ground truth.

generate_graph draws function features from a small pool of templates plus
noise, mimicking the near-duplicate helpers real programs contain: features
alone cannot always separate functions of the same family, so call structure
carries real signal.  mutate derives a second version of a graph (deleted,
inserted and perturbed functions, rewired calls) together with the exact
pairing of surviving functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from .evaluation import GroundTruth
from .graphs import NEIGHBORHOOD_KEYS, TOPOLOGY_KEYS, CallGraph, check_range
from .similarity import BLOCK

DEFAULT_CLASSES = ("arith", "logic", "mem", "branch", "call", "other")


@dataclass(frozen=True)
class MutationSpec:
    """How far a derived program version drifts from its base."""

    insert: int = 0   # brand-new functions
    delete: int = 0   # removed functions
    perturb: int = 0  # surviving functions whose features get integer noise
    rewire: int = 0   # call edges moved somewhere else
    noise: int = 8    # magnitude of the feature noise

    def __post_init__(self):
        for name in ("insert", "delete", "perturb", "rewire"):
            check_range(name, getattr(self, name), integer=True)
        check_range("noise", self.noise, low=1, integer=True)


def _draw_features(rng: np.random.Generator, count: int,
                   n_classes: int) -> List[Tuple[float, ...]]:
    """Content then topology features for `count` fresh functions, one row each."""
    out = []
    for _ in range(count):
        class_counts = rng.integers(0, 40, size=n_classes)
        total = int(class_counts.sum())
        max_block = int(rng.integers(1, total + 2))
        blocks = int(rng.integers(1, 30))
        jumps = int(rng.integers(0, 50))
        out.append((float(total), *map(float, class_counts), float(max_block), float(blocks),
                    float(jumps), float(rng.integers(0, 6)), float(rng.integers(0, 6))))
    return out


def _assemble(name: str, classes: Tuple[str, ...], rows: List[Tuple[float, ...]],
              order, names: List[Optional[str]], edges) -> CallGraph:
    """Build a graph from (caller, callee) rows, recomputing neighborhood features."""
    n = len(names)
    calls = np.array(edges, dtype=np.int64).reshape(-1, 2)
    features = np.column_stack((
        np.array(rows, dtype=np.float64).reshape(n, len(classes) + 2 + len(TOPOLOGY_KEYS)),
        np.bincount(calls[:, 1], minlength=n),   # callers
        np.bincount(calls[:, 0], minlength=n)))  # callees
    return CallGraph(name=name, instruction_classes=classes, features=features,
                     order=order, names=names, edges=calls)


def generate_graph(n: int, edge_density: float = 0.1, seed: int = 0,
                   templates: Optional[int] = None,
                   classes: Tuple[str, ...] = DEFAULT_CLASSES,
                   name: Optional[str] = None) -> CallGraph:
    """Random attributed call graph with named functions.

    Each function copies one of `templates` feature templates (default: one
    per four functions) and adds small noise, then gets independent random
    call edges with the given density.
    """
    check_range("n", n, integer=True)
    check_range("edge_density", edge_density, high=1)
    if templates is None:
        templates = max(1, n // 4)
    check_range("templates", templates, low=1, integer=True)
    rng = np.random.default_rng(seed)
    base = _draw_features(rng, templates, len(classes))

    rows = [_jitter(rng, base[int(rng.integers(0, len(base)))], amount=2) for _ in range(n)]

    edges = _draw_calls(rng, n, edge_density)

    order = [int(x) for x in rng.permutation(n)]
    names = ["fn%04d" % i for i in range(n)]
    return _assemble(name or "synthetic-%d" % seed, classes, rows, order, names, edges)


def _draw_calls(rng: np.random.Generator, n: int, edge_density: float) -> np.ndarray:
    """(caller, callee) rows, in order, of each call drawn with probability edge_density.

    The call mask is drawn in row blocks of at most max(n, BLOCK) doubles.
    The generator yields the same numbers, in the same order, as one (n, n)
    draw, so the calls and the generator state after them are those of one
    whole draw, without its n * n doubles.
    """
    if n < 2 or edge_density == 0:
        return np.empty((0, 2), dtype=np.int64)
    step = max(1, BLOCK // n)
    parts = []
    for start in range(0, n, step):
        mask = rng.random((min(step, n - start), n)) < edge_density
        mask[np.arange(len(mask)), np.arange(start, start + len(mask))] = False  # no self-calls
        parts.append(np.argwhere(mask) + [start, 0])
    return np.concatenate(parts)


def _jitter(rng: np.random.Generator, row, amount: int) -> Tuple[float, ...]:
    """Integer noise on a content and topology row, keeping everything consistent."""
    content = len(row) - len(TOPOLOGY_KEYS)
    counts = np.maximum(
        np.asarray(row[1:content - 1]) + rng.integers(-amount, amount + 1,
                                                      size=content - 2), 0)
    total = float(counts.sum())
    max_block = float(min(max(row[content - 1] + rng.integers(-amount, amount + 1), 0.0),
                          total + 1))
    topo = np.maximum(np.asarray(row[content:]) + rng.integers(
        -amount, amount + 1, size=len(TOPOLOGY_KEYS)), 0)
    topo[0] = max(topo[0], 1)
    return (total, *map(float, counts), max_block, *map(float, topo))


def mutate(graph: CallGraph, spec: MutationSpec,
           seed: int = 0) -> Tuple[CallGraph, GroundTruth]:
    """Derive a drifted version of a graph plus the surviving-function truth.

    Deletions pick functions to drop, insertions append fresh ones at random
    address positions, perturbation adds integer noise to survivor features,
    and rewiring moves call edges.  Neighborhood features of every function
    are recomputed from the final edges.  The truth pairs each survivor's
    name with itself, so both graphs must have named functions.
    """
    rng = np.random.default_rng(seed)
    n = graph.n
    if None in graph.names:
        raise ValueError("mutate requires named functions")
    if spec.delete > n:
        raise ValueError("cannot delete %d of %d functions" % (spec.delete, n))
    if spec.perturb > n - spec.delete:
        raise ValueError("cannot perturb more functions than survive")

    doomed = set(int(x) for x in rng.choice(n, size=spec.delete, replace=False)) \
        if spec.delete else set()
    survivors = [i for i in range(n) if i not in doomed]
    n_new = len(survivors) + spec.insert

    rows = graph.features[survivors, :-len(NEIGHBORHOOD_KEYS)].tolist()
    names = [graph.names[old] for old in survivors]
    order_keys = graph.order[survivors].tolist()
    taken = set(names)
    for k, row in enumerate(_draw_features(rng, spec.insert, len(graph.instruction_classes))):
        label = "ins%04d" % k
        while label in taken:
            label = "ins%04d_" % k + str(len(label))
        taken.add(label)
        rows.append(row)
        names.append(label)
        order_keys.append(float(rng.uniform(-0.5, n - 0.5)))

    if spec.perturb:
        which = rng.choice(len(survivors), size=spec.perturb, replace=False)
        for idx in sorted(int(x) for x in which):
            rows[idx] = _jitter(rng, rows[idx], amount=spec.noise)

    new_id = np.full(n, -1)
    new_id[survivors] = np.arange(len(survivors))
    kept = new_id[graph.edges]
    edges: Set[Tuple[int, int]] = set(map(tuple, kept[(kept >= 0).all(axis=1)].tolist()))
    for k in range(spec.insert):
        node = len(survivors) + k
        for _ in range(int(rng.integers(0, 4))):
            other = int(rng.integers(0, n_new))
            if other != node:
                edges.add((node, other))
        for _ in range(int(rng.integers(0, 3))):
            other = int(rng.integers(0, n_new))
            if other != node:
                edges.add((other, node))
    # rewire: replace existing edges with fresh random ones
    edge_list = sorted(edges)
    n_rewire = min(spec.rewire, len(edge_list))
    if n_rewire:
        drop = rng.choice(len(edge_list), size=n_rewire, replace=False)
        for idx in sorted(int(x) for x in drop):
            edges.discard(edge_list[idx])
        added = 0
        attempts = 0
        while added < n_rewire and attempts < 100 * n_rewire + 100:
            attempts += 1
            u = int(rng.integers(0, n_new))
            v = int(rng.integers(0, n_new))
            if u != v and (u, v) not in edges:
                edges.add((u, v))
                added += 1

    # each function's position in the stable sort of the order keys
    order = np.argsort(np.argsort(order_keys, kind="stable"))
    mutated = _assemble(graph.name + "+mut", graph.instruction_classes,
                        rows, order, names, sorted(edges))
    truth = GroundTruth.from_pairs((name, name) for name in names[:len(survivors)])
    return mutated, truth
