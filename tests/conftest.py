"""Shared builders for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cgalign import CallGraph, SimilarityMatrix, similarity

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CLASSES = ("arith", "logic", "mem", "branch", "call", "other")


def make_features(counts, blocks=3.0, jumps=2.0, callers=1.0, callees=1.0,
                  max_block=None, max_callers=1.0, max_callees=1.0):
    """One feature row: content, then topology, then neighborhood."""
    counts = tuple(float(c) for c in counts)
    total = sum(counts)
    return (total, *counts, max_block if max_block is not None else total + 1,
            blocks, jumps, max_callers, max_callees, callers, callees)


def make_graph(n, edges=(), name="g", classes=CLASSES, features=None, order=None):
    """Small hand-built graph; features default to distinct per-node counts."""
    rows = []
    for i in range(n):
        if features is not None:
            rows.append(features[i])
        else:
            counts = [0.0] * len(classes)
            counts[i % len(classes)] = float(10 + i)
            rows.append(make_features(counts, callers=0.0, callees=0.0))
    return CallGraph(name=name, instruction_classes=tuple(classes),
                     features=np.array(rows, dtype=np.float64).reshape(n, len(classes) + 8),
                     order=range(n) if order is None else order,
                     names=tuple("fn%04d" % i for i in range(n)), edges=sorted(edges))


def same_graph(a, b):
    """Whether two graphs hold the same columns, features bit for bit."""
    return (a.name == b.name and a.instruction_classes == b.instruction_classes
            and np.array_equal(a.features.view(np.int64), b.features.view(np.int64))
            and np.array_equal(a.order, b.order) and a.names == b.names
            and np.array_equal(a.edges, b.edges) and a.duplicate_calls == b.duplicate_calls)


def dense_sim(matrix):
    """SimilarityMatrix from a dense 2-d array-like of scores."""
    arr = np.asarray(matrix, dtype=float)
    n_a, n_b = arr.shape
    rows, cols = np.divmod(np.arange(n_a * n_b, dtype=np.int64), n_b)
    return SimilarityMatrix(n_a=n_a, n_b=n_b, rows=rows, cols=cols,
                            scores=arr.ravel().copy())


FORMS = ("dense", "keyed")  # the two lookup forms of a SimilarityMatrix


def form_of(sim):
    """The lookup form a SimilarityMatrix took: "dense" or "keyed" (sorted keys)."""
    return "dense" if sim._keys is None else "keyed"


def in_form(sim, form):
    """A new matrix of sim's entries, in their order, that takes the given lookup form.

    sim is a SimilarityMatrix, or any object with its n_a, n_b, rows, cols
    and scores.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "keyed_form", lambda kept, total: form == "keyed")
        copy = SimilarityMatrix(sim.n_a, sim.n_b, sim.rows, sim.cols, sim.scores)
    assert form_of(copy) == form
    return copy


def dict_lookup(sim):
    """A reference for sim.lookup over a {(i, j): entry} dict of the kept pairs."""
    table = {pair: k for k, pair in enumerate(zip(sim.rows.tolist(), sim.cols.tolist()))}

    def lookup(i, j):
        i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
        pos = [table.get(pair, -1) for pair in zip(i.ravel().tolist(), j.ravel().tolist())]
        return np.array(pos, dtype=np.int64).reshape(i.shape)[()]
    return lookup


@pytest.fixture
def square_pair():
    """Two 2-node graphs, one call each, diagonal similarity 1."""
    a = make_graph(2, edges=[(0, 1)], name="A")
    b = make_graph(2, edges=[(0, 1)], name="B")
    sim = dense_sim([[1.0, 0.1], [0.1, 1.0]])
    return a, b, sim
