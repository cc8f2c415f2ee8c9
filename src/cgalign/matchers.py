"""The exact matching kernel, and the baseline matchers: exact linear
matching, greedy structural matching, and exhaustive search for tiny
instances.

The kernel is max_weight_matching.  Its core, assign, runs one dense
assignment over the distinct rows and columns it is given and returns the
matched pairs as arrays; BP's rounding calls it on the conflicted part of
the positive beliefs alone and builds no Mapping.  assign builds the
matrix scipy would build for a maximization, negated and wide, so scipy
solves it where it lies: one dense matrix per assignment, not two.

The kernel's assignment is scipy's compiled `linear_sum_assignment`.  It is
loaded once, at import, straight from its extension file in the scipy
package directory, without running `scipy.optimize`, whose import costs
several times as much as numpy's; the extension is the only scipy module
that loading it adds to `sys.modules`.  Where that file is missing or does
not load, the public `scipy.optimize` import supplies the same routine.
"""

from __future__ import annotations

import heapq
import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from math import comb, factorial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import SearchSpaceError
from .graphs import CallGraph, check_range
from .nap import Candidates, Mapping, NapProblem

BRUTE_FORCE_LIMIT = 10_000_000  # refuse to enumerate more mappings than this
LSAP_MODULE = "scipy.optimize._lsap"  # the extension behind the public routine


def load_linear_sum_assignment(scipy_dir: Optional[str]):
    """scipy's `linear_sum_assignment`, loaded from `<scipy_dir>/optimize/_lsap<suffix>`.

    Falls back to `from scipy.optimize import linear_sum_assignment` when
    scipy_dir is None or holds no loadable extension.  Loading the extension
    registers it in sys.modules as `scipy.optimize._lsap`, neither `scipy`
    nor `scipy.optimize`; a later `import scipy.optimize` reuses that entry.
    """
    spec = None
    if scipy_dir is not None:
        finder = FileFinder(os.path.join(scipy_dir, "optimize"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(LSAP_MODULE)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except ImportError:  # a file of that name that is not a loadable extension
            pass
    from scipy.optimize import linear_sum_assignment as public
    return public


def _scipy_dir() -> Optional[str]:
    """scipy's package directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    return locations[0] if locations else None


linear_sum_assignment = load_linear_sum_assignment(_scipy_dir())


def max_weight_matching(rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> Mapping:
    """Exact maximum-weight matching over the pairs (rows[t], cols[t]) of weight w[t].

    Ids are non-negative.  Pairs with non-positive weight are never
    matched.  The assignment runs on a dense matrix over the distinct rows
    and columns given, with weights clamped at 0, so those rows and columns
    also decide which of several optimal matchings comes out.  When the
    positive pairs already share no row or column, they are the unique
    optimum and are returned without an assignment.
    """
    positive = w > 0.0
    pos_rows, pos_cols = rows[positive], cols[positive]
    if _distinct(pos_rows) and _distinct(pos_cols):
        return Mapping.from_pairs(zip(pos_rows.tolist(), pos_cols.tolist()))
    del positive, pos_rows, pos_cols
    return Mapping.from_pairs(zip(*(ids.tolist() for ids in assign(rows, cols, w))))


def _distinct(ids: np.ndarray) -> bool:
    """Whether no id repeats."""
    return len(ids) == 0 or int(np.bincount(ids).max()) == 1


def assign(rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the pairs one dense assignment matches, rows ascending.

    The kernel's core, for at least one pair: the matrix spans the distinct
    rows and columns given, in ascending order, with weights clamped at 0,
    and only the positive cells it picks are returned.  It is built as the
    cost matrix that `maximize=True` would make of it inside scipy: negated,
    -0.0 in every empty cell, and transposed when it has more rows than
    columns.  Passed with maximize=False, it is solved in place, not copied,
    with the same arithmetic on the same array, so every tie breaks as
    under maximize=True.
    """
    row_seen, col_seen = np.bincount(rows) > 0, np.bincount(cols) > 0
    # each id's rank among the distinct ids: the positions np.unique's
    # return_inverse gives, without sorting
    row_at, col_at = np.cumsum(row_seen) - 1, np.cumsum(col_seen) - 1
    at, shape = (row_at[rows], col_at[cols]), (row_at[-1] + 1, col_at[-1] + 1)
    tall = shape[0] > shape[1]
    if tall:  # scipy solves a tall matrix as its transpose
        at, shape = at[::-1], shape[::-1]
    cost = np.full(shape, -0.0)
    # clamp: taking a non-positive pair is never better than skipping it,
    # and a negative cell could otherwise force a worse assignment
    clamped = np.maximum(w, 0.0)
    cost[at] = np.negative(clamped, out=clamped)
    sel = linear_sum_assignment(cost, maximize=False)
    chosen = cost[sel] < 0.0
    sel_r, sel_c = sel[0][chosen], sel[1][chosen]
    if tall:  # back to (row, col) pairs, rows ascending, as scipy returns them
        order = np.argsort(sel_c)
        sel_r, sel_c = sel_c[order], sel_r[order]
    return np.flatnonzero(row_seen)[sel_r], np.flatnonzero(col_seen)[sel_c]


def solve_mwm(weights: Dict[Tuple[int, int], float]) -> Mapping:
    """max_weight_matching over a sparse {(i, j): weight} map."""
    pairs = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    return max_weight_matching(pairs[:, 0], pairs[:, 1],
                               np.fromiter(weights.values(), float, len(weights)))


def node_weight_map(problem: Candidates) -> Dict[Tuple[int, int], float]:
    return {(int(i), int(j)): float(w)
            for i, j, w in zip(problem.cand_rows, problem.cand_cols,
                               problem.node_weights)}


def undirected_adjacency(graph: CallGraph) -> List[List[int]]:
    """Each function's callers and callees, ascending and without repeats."""
    adj: List[set] = [set() for _ in range(graph.n)]
    for caller, callee in graph.edges.tolist():
        adj[caller].add(callee)
        adj[callee].add(caller)
    return [sorted(neigh) for neigh in adj]


def _k_hop(adjacency: List[List[int]], start: int, k: int) -> List[int]:
    """Nodes within undirected distance 1..k of start, ascending."""
    seen = {start}
    frontier = [start]
    reached = set()
    for _ in range(min(k, len(adjacency))):  # no path is longer: a huge k ends too
        nxt = []
        for node in frontier:
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    reached.add(other)
                    nxt.append(other)
        frontier = nxt
    return sorted(reached)


def solve_mcs_greedy(problem: Candidates, a: CallGraph, b: CallGraph,
                     k: int = 2) -> Mapping:
    """Greedy common-structure matcher.

    Reads only the candidates and their node weights, so `problem` may be a
    NapProblem or the Candidates of nap.build_candidates, which has no links.

    Seeds on the best-weight candidate whose endpoints both have at least
    one call edge, then repeatedly matches the best candidate within the
    k-hop undirected neighborhoods of an already matched pair; when the
    frontier empties it restarts from the best remaining seed.  Leftover
    rows and columns are finished with an exact linear matching, so on
    graphs without edges this degenerates to plain maximum-weight matching.
    Ties are broken toward lexicographically smaller pairs throughout.
    """
    check_range("k", k, low=1, integer=True)
    if problem.n_candidates == 0:
        return Mapping.empty()
    rows, cols, w = problem.cand_rows, problem.cand_cols, problem.node_weights
    adj_a = undirected_adjacency(a)
    adj_b = undirected_adjacency(b)
    deg_a = np.array([len(x) for x in adj_a], dtype=np.int64)
    deg_b = np.array([len(x) for x in adj_b], dtype=np.int64)
    eligible = (w > 0.0) & (deg_a[rows] > 0) & (deg_b[cols] > 0)
    # the greedy order: heavier first, then the smaller (row, col); the
    # frontier heap holds ranks in it, so it pops the same pair as a heap
    # of (-weight, row, col) would
    order = np.lexsort((cols, rows, -w))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    order_rows, order_cols = rows[order].tolist(), cols[order].tolist()

    row_taken = [False] * problem.n_a  # lists: the loops below read single flags
    col_taken = [False] * problem.n_b
    queued = np.zeros(problem.n_candidates, dtype=bool)
    matched: List[Tuple[int, int]] = []
    hood_a: Dict[int, List[int]] = {}
    hood_b: Dict[int, List[int]] = {}
    frontier: List[int] = []

    def take(i: int, j: int):
        row_taken[i] = True
        col_taken[j] = True
        matched.append((i, j))
        if i not in hood_a:
            hood_a[i] = _k_hop(adj_a, i, k)
        if j not in hood_b:
            hood_b[j] = _k_hop(adj_b, j, k)
        us = [u for u in hood_a[i] if not row_taken[u]]
        vs = [v for v in hood_b[j] if not col_taken[v]]
        if not us or not vs:
            return
        cands = problem.sim.lookup(np.array(us)[:, None], vs).ravel()
        cands = cands[cands >= 0]
        # a candidate leaves the heap only once its row or column is taken,
        # so pushing it again could only add a stale copy
        cands = cands[(w[cands] > 0.0) & ~queued[cands]]
        queued[cands] = True
        for r in rank[cands].tolist():
            heapq.heappush(frontier, r)

    for seed in np.flatnonzero(eligible[order]).tolist():
        i, j = order_rows[seed], order_cols[seed]
        if row_taken[i] or col_taken[j]:
            continue
        take(i, j)
        while frontier:
            r = heapq.heappop(frontier)
            u, v = order_rows[r], order_cols[r]
            if row_taken[u] or col_taken[v]:
                # the takes since the last sweep left this entry stale, and
                # usually many more with it: drop them all in one pass
                frontier[:] = [q for q in frontier
                               if not (row_taken[order_rows[q]] or col_taken[order_cols[q]])]
                heapq.heapify(frontier)
                continue
            take(u, v)

    free = (w > 0.0) & ~np.array(row_taken)[rows] & ~np.array(col_taken)[cols]
    matched.extend(max_weight_matching(rows[free], cols[free], w[free]).pairs)
    return Mapping.from_pairs(matched)


def _mapping_space(n_a: int, n_b: int) -> int:
    return sum(comb(n_a, size) * comb(n_b, size) * factorial(size)
               for size in range(min(n_a, n_b) + 1))


def brute_force_optimum(problem: NapProblem) -> Tuple[Mapping, float]:
    """Exhaustively maximize the alignment objective.

    Only meant for tiny instances; refuses when the number of one-to-one
    mappings between the two node sets exceeds BRUTE_FORCE_LIMIT.  Value
    ties are resolved toward the lexicographically smallest pair set.
    """
    space = _mapping_space(problem.n_a, problem.n_b)
    if space > BRUTE_FORCE_LIMIT:
        raise SearchSpaceError(
            "%d x %d nodes span %d mappings, over the limit of %d"
            % (problem.n_a, problem.n_b, space, BRUTE_FORCE_LIMIT))

    rows, cols = problem.cand_rows, problem.cand_cols
    alpha = problem.alpha
    node_gain = alpha * problem.node_weights
    link_gain = problem.link_count * (2.0 * problem.d_edge) * (1.0 - alpha)
    neighbors: List[List[Tuple[int, float]]] = [[] for _ in range(problem.n_candidates)]
    for u, v, lw in zip(problem.link_u.tolist(), problem.link_v.tolist(),
                        link_gain.tolist()):
        neighbors[u].append((v, lw))
        neighbors[v].append((u, lw))

    by_row: Dict[int, List[int]] = {}
    for c in range(problem.n_candidates):
        by_row.setdefault(int(rows[c]), []).append(c)
    row_list = sorted(by_row)

    best_value = 0.0
    best_pairs: Tuple[Tuple[int, int], ...] = ()
    chosen: List[int] = []
    in_set = [False] * problem.n_candidates
    col_used = [False] * max(problem.n_b, 1)

    def consider(value: float):
        nonlocal best_value, best_pairs
        pairs = tuple(sorted((int(rows[c]), int(cols[c])) for c in chosen))
        if value > best_value or (value == best_value and pairs < best_pairs):
            best_value = value
            best_pairs = pairs

    def recurse(depth: int, value: float):
        if depth == len(row_list):
            consider(value)
            return
        recurse(depth + 1, value)  # leave this row unmatched
        for c in by_row[row_list[depth]]:
            j = int(cols[c])
            if col_used[j]:
                continue
            gain = node_gain[c] + sum(lw for other, lw in neighbors[c] if in_set[other])
            col_used[j] = True
            in_set[c] = True
            chosen.append(c)
            recurse(depth + 1, value + gain)
            chosen.pop()
            in_set[c] = False
            col_used[j] = False

    recurse(0, 0.0)
    return Mapping.from_pairs(best_pairs), best_value
