"""Network alignment objective and its graph edit cost counterpart.

A mapping between the functions of two call graphs can be scored two ways:

* as a network alignment value: sum of node weights of matched pairs plus
  the weights of all "squares" (pairs of call edges whose endpoints are
  matched to each other), with a trade-off factor alpha between the parts;
* as the cost of the edit path it induces: edit matched functions, delete
  or insert everything unmatched, and likewise for calls.

With node weights w = s + 2*d_node - 1 and square weights 2*d_edge the two
views are equivalent up to the constant cost of the empty mapping, which is
what makes maximizing the alignment value the same as minimizing edit cost.

A problem holds the SimilarityMatrix it was built from as `sim`: its
candidates are that matrix's entries, in the same order, and every pair is
found through sim.lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .errors import MappingError
from .graphs import CallGraph, check_non_negative, check_range
from .similarity import SimilarityMatrix


@dataclass(frozen=True)
class Mapping:
    """One-to-one partial matching between functions of two programs."""

    pairs: frozenset  # of (i, j) int pairs

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "Mapping":
        """The mapping of these pairs.

        Raises MappingError naming the smallest function id of A used twice,
        else that of B, and the first two pairs that use it.
        """
        pairs = frozenset((int(i), int(j)) for i, j in pairs)
        if len({i for i, _ in pairs}) == len(pairs) == len({j for _, j in pairs}):
            return cls(pairs)
        for side, program in ((0, "A"), (1, "B")):
            ids = sorted(pair[side] for pair in pairs)
            repeated = next((x for x, y in zip(ids, ids[1:]) if x == y), None)
            if repeated is not None:
                first, second = sorted(pair for pair in pairs if pair[side] == repeated)[:2]
                raise MappingError("one-to-one constraint violated: function %d of program "
                                   "%s is in pairs (%d, %d) and (%d, %d)"
                                   % (repeated, program, *first, *second))

    @classmethod
    def empty(cls) -> "Mapping":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        return sorted(self.pairs)

    def as_dict(self) -> dict:
        return dict(self.pairs)


@dataclass
class Candidates:
    """Retained candidate pairs and their node weights: all a linear matcher reads.

    The candidates are the entries of `sim`, the SimilarityMatrix they were
    built from, in its order: distinct pairs in ascending (row, col) order,
    which the matrix checks when it is made (a ValueError names the first
    entry out of order).  So each row's candidates are one run of positions,
    and a pair's candidate position is sim.lookup(i, j).
    """

    sim: SimilarityMatrix
    node_weights: np.ndarray   # float64, s + 2*d_node - 1

    # read-only views of sim
    n_a = property(lambda self: self.sim.n_a)
    n_b = property(lambda self: self.sim.n_b)
    cand_rows = property(lambda self: self.sim.rows)  # int64
    cand_cols = property(lambda self: self.sim.cols)  # int64

    @property
    def n_candidates(self) -> int:
        return len(self.node_weights)


@dataclass
class NapProblem(Candidates):
    """Sparse quadratic alignment problem: candidates plus the links between them.

    A square is a pair of call edges i->k in A and j->l in B whose endpoint
    pairs (i, j) and (k, l) are both candidates.  Squares are stored only as
    links: one per unordered candidate pair u < v, sorted by (u, v), with the
    number of squares it merges (1 or 2, one per direction).  Every square
    weighs square_weight, 2*d_edge, so a link's weight is derived from its
    count when it is needed and never stored.  Only belief propagation needs
    the links among all candidates; a single mapping is scored on
    mapping_problem's problem over its own pairs.
    """

    link_u: np.ndarray         # int64, u < v, sorted
    link_v: np.ndarray         # int64
    link_count: np.ndarray     # uint8, squares merged into each link (1 or 2)
    alpha: float
    d_node: float
    d_edge: float
    edges_a: int
    edges_b: int

    square_weight = property(lambda self: 2.0 * self.d_edge)  # float, of every square

    @property
    def n_squares(self) -> int:
        return int(self.link_count.sum())

    @property
    def link_w(self) -> np.ndarray:
        """Weight of each link, link_count * square_weight, as a new float64 array."""
        return self.link_count * self.square_weight


JOIN_CHUNK = 1 << 16  # edge pairs joined at once: each of the join's scratch arrays <= 512 KiB


def _out_edges(graph: CallGraph) -> Tuple[np.ndarray, np.ndarray]:
    """(offsets, callees): out-neighbours of i are callees[offsets[i]:offsets[i+1]]."""
    edges = graph.edges  # sorted by caller, so each caller's calls are contiguous
    offsets = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=graph.n), out=offsets[1:])
    return offsets, edges[:, 1]


def _link_keys(sim: SimilarityMatrix, a: CallGraph, b: CallGraph) -> np.ndarray:
    """min * n_cand + max per square, for every square both of whose ends are kept.

    Joins through the out-edges of each kept candidate (i, j): every pair of
    a call i->k and a call j->l whose (k, l) is also kept is a square.  The
    work is the sum of outdeg(i) * outdeg(j) over kept candidates.
    """
    n_cand = len(sim)
    off_a, callee_a = _out_edges(a)
    off_b, callee_b = _out_edges(b)
    rows, cols = sim.rows, sim.cols
    deg_b = np.diff(off_b)[cols]
    pairs = np.diff(off_a)[rows] * deg_b  # edge pairs to try per candidate
    ends = np.cumsum(pairs)
    starts = ends - pairs
    parts = [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < n_cand:
        hi = max(int(np.searchsorted(ends, starts[lo] + JOIN_CHUNK, side="right")), lo + 1)
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), pairs[lo:hi])
        # t numbers the pairs of one candidate: out-edge t // deg_b of i, t % deg_b of j
        t = np.arange(starts[lo], ends[hi - 1]) - np.repeat(starts[lo:hi], pairs[lo:hi])
        t_a, t_b = np.divmod(t, deg_b[src])
        dst = sim.lookup(callee_a[off_a[rows[src]] + t_a], callee_b[off_b[cols[src]] + t_b])
        hit = dst >= 0
        src, dst = src[hit], dst[hit]
        parts.append(np.minimum(src, dst) * n_cand + np.maximum(src, dst))
        lo = hi
    return np.concatenate(parts)


def build_candidates(sim: SimilarityMatrix, d_node: float = 0.5) -> Candidates:
    """A similarity matrix's candidates with node weights s + 2*d_node - 1, no links."""
    check_non_negative(d_node=d_node)
    return Candidates(sim=sim, node_weights=sim.scores + (2.0 * d_node - 1.0))


def build_problem(sim: SimilarityMatrix, a: CallGraph, b: CallGraph,
                  alpha: float = 0.75, d_node: float = 0.5,
                  d_edge: float = 0.5) -> NapProblem:
    """Assemble node weights and the links merging squares for a candidate set.

    The square keys are merged into links as np.unique would merge them, but
    in place: sorted, cut at a boundary mask and split by np.divmod into
    link_u itself.  They are dropped before link_v is allocated, so the
    merge never holds the keys and both link arrays at once.
    """
    check_range("alpha", alpha, high=1)
    check_non_negative(d_node=d_node, d_edge=d_edge)
    keys = _link_keys(sim, a, b)
    keys.sort()
    first = np.ones(len(keys) + 1, dtype=bool)  # key t starts a link; one entry past the end
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    # a link merges at most two squares, one per direction: two where the next key repeats it
    link_count = 2 - first[1:][first[:-1]].view(np.uint8)
    link_u = keys[first[:-1]]
    del keys, first
    link_v = np.empty_like(link_u)
    np.divmod(link_u, max(len(sim), 1), out=(link_u, link_v))
    return NapProblem(**vars(build_candidates(sim, d_node)), link_u=link_u, link_v=link_v,
                      link_count=link_count,
                      alpha=alpha, d_node=d_node, d_edge=d_edge,
                      edges_a=len(a.edges), edges_b=len(b.edges))


def candidate_indices(sim: SimilarityMatrix, mapping: Mapping) -> np.ndarray:
    """Entry of sim, and so candidate index, per mapped pair; raises if any pair was pruned."""
    if len(mapping) == 0:
        return np.empty(0, dtype=np.int64)
    pairs = np.asarray(mapping.sorted_pairs(), dtype=np.int64)
    # checked before the lookup, where a negative pair would wrap to another cell
    out_of_range = ((pairs < 0) | (pairs >= (sim.n_a, sim.n_b))).any(axis=1)
    if out_of_range.any():
        bad = pairs[np.argmax(out_of_range)]
        raise MappingError("pair (%d, %d) is outside the problem" % (bad[0], bad[1]))
    pos = sim.lookup(pairs[:, 0], pairs[:, 1])
    pruned = pos < 0
    if pruned.any():
        bad = pairs[np.argmax(pruned)]
        raise MappingError("pair (%d, %d) is not a retained candidate" % (bad[0], bad[1]))
    return pos


def mapping_problem(sim: SimilarityMatrix, a: CallGraph, b: CallGraph, mapping: Mapping,
                    alpha: float = 0.75, d_node: float = 0.5,
                    d_edge: float = 0.5) -> NapProblem:
    """The problem build_problem makes over the mapping's own candidates alone.

    Its links are exactly the full problem's links with both ends mapped, so
    nap_objective, edit_cost and count_squares of `mapping` on it equal their
    values on the full problem bit for bit, for a join over at most
    min(n_a, n_b) candidates.  Raises MappingError like candidate_indices.
    """
    pos = candidate_indices(sim, mapping)
    mapped = SimilarityMatrix(sim.n_a, sim.n_b, sim.rows[pos], sim.cols[pos], sim.scores[pos])
    return build_problem(mapped, a, b, alpha=alpha, d_node=d_node, d_edge=d_edge)


def gains_at(problem: NapProblem, positions: np.ndarray) -> Tuple[float, float, int]:
    """(node weight sum, square weight sum, realized square count) of some candidates.

    The one scorer.  positions are ascending and distinct, as
    candidate_indices gives a mapping's, and a SimilarityMatrix refuses
    entries out of (row, col) order with a ValueError, so the node weights
    add in (row, col) order whichever caller scores them.
    """
    node_part = float(problem.node_weights[positions].sum())
    chosen = np.zeros(problem.n_candidates, dtype=bool)
    chosen[positions] = True
    # link_u is sorted, so the links leaving each mapped u are one range of it
    starts = np.searchsorted(problem.link_u, positions, side="left")
    lengths = np.searchsorted(problem.link_u, positions, side="right") - starts
    offsets = np.cumsum(lengths) - lengths
    links = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    count = int(problem.link_count[links[chosen[problem.link_v[links]]]].sum())
    return node_part, count * problem.square_weight, count


def objective_at(problem: NapProblem, positions: np.ndarray) -> float:
    """alpha-weighted alignment value of the candidates at ascending positions."""
    node_part, square_part, _ = gains_at(problem, positions)
    return problem.alpha * node_part + (1.0 - problem.alpha) * square_part


def nap_objective(problem: NapProblem, mapping: Mapping) -> float:
    """alpha-weighted alignment value of a mapping."""
    return objective_at(problem, candidate_indices(problem.sim, mapping))


def count_squares(problem: NapProblem, mapping: Mapping) -> int:
    """Number of stored squares realized by a mapping."""
    return gains_at(problem, candidate_indices(problem.sim, mapping))[2]


def baseline_cost(n_a: int, n_b: int, edges_a: int, edges_b: int,
                  d_node: float, d_edge: float) -> float:
    """Edit cost of the empty mapping: delete one program, insert the other."""
    check_non_negative(d_node=d_node, d_edge=d_edge)
    return (n_a + n_b) * d_node + (edges_a + edges_b) * d_edge


def edit_cost(problem: NapProblem, mapping: Mapping) -> float:
    """Edit cost via the alignment identity: empty-mapping cost minus raw gain.

    Neither part of the gain depends on alpha, so any problem built over the
    same candidates and edit costs gives the same value.
    """
    node_part, square_part, _ = gains_at(problem, candidate_indices(problem.sim, mapping))
    c0 = baseline_cost(problem.n_a, problem.n_b, problem.edges_a, problem.edges_b,
                       problem.d_node, problem.d_edge)
    return c0 - node_part - square_part


def ged_cost_direct(a: CallGraph, b: CallGraph, mapping: Mapping,
                    sim: SimilarityMatrix, d_node: float = 0.5,
                    d_edge: float = 0.5) -> float:
    """Edit cost via the alignment identity, on a problem built for it.

    The problem is mapping_problem's, over the mapped candidates alone: it
    is still build_problem's join and the identity's arithmetic, not the
    edit path's accounting, so the two routes stay independent.
    """
    return edit_cost(mapping_problem(sim, a, b, mapping, alpha=0.5,
                                     d_node=d_node, d_edge=d_edge), mapping)


def ged_cost_editpath(a: CallGraph, b: CallGraph, mapping: Mapping,
                      sim: SimilarityMatrix, d_node: float = 0.5,
                      d_edge: float = 0.5) -> float:
    """Edit cost by explicit accounting over the induced edit path.

    Matched functions are edited at cost 1 - similarity, everything else is
    deleted or inserted at d_node.  A call whose two endpoints map onto an
    existing call is edited for free (call similarity is 1); any other call
    on either side is deleted or inserted at d_edge.  Kept deliberately
    independent of the alignment machinery, but refuses the costs it does.
    """
    check_non_negative(d_node=d_node, d_edge=d_edge)
    fwd = mapping.as_dict()
    cost = 0.0
    for i, j in mapping.sorted_pairs():
        if not (0 <= i < a.n and 0 <= j < b.n):
            raise MappingError("pair (%d, %d) is outside the problem" % (i, j))
        try:
            score = sim.get(i, j)
        except KeyError:
            raise MappingError("pair (%d, %d) is not a retained candidate" % (i, j))
        cost += 1.0 - score
    cost += (a.n - len(mapping)) * d_node
    cost += (b.n - len(mapping)) * d_node

    edges_b = set(map(tuple, b.edges.tolist()))
    edited = set()
    for caller, callee in a.edges.tolist():
        target = (fwd.get(caller), fwd.get(callee))
        if None not in target and target in edges_b:
            edited.add(target)  # matched call, zero edit cost
        else:
            cost += d_edge  # deleted call
    for edge in sorted(edges_b):
        if edge not in edited:
            cost += d_edge  # inserted call
    return cost
