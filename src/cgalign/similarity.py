"""Pairwise function similarity.

Similarity between two functions is one minus a weighted Canberra distance
over their concatenated feature vectors, where each feature group (content,
topology, neighborhood) carries a fixed share of the total weight split
evenly among its components.  A tiny bonus for functions at similar
positions in their program's address order breaks ties between otherwise
identical functions, and a global sparsity ratio prunes the lowest-scoring
pairs to keep downstream solvers sparse.  SimilarityMatrix.lookup is the one
way from a pair (i, j) to its retained entry, for every module.

All n_a x n_b scores are computed in row blocks of at most BLOCK elements
through two scratch buffers reused for every block, so the kernel's scratch
memory does not grow with n_a.  This relies on the features being finite
and non-negative, which CallGraph validates and canberra_similarity checks:
a zero Canberra denominator then comes with a zero numerator, so the
kernel divides every term and maps each 0/0 to 0 afterwards, with no mask.

When few pairs are kept (keyed_form), memory follows them: the matrix
looks entries up by sorted key, not through an n_a x n_b index, and its
build streams the score blocks through keep_highest, never holding every
score.  Both routes give the same entries, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .graphs import CallGraph, check_non_negative, check_range, feature_group_sizes, validate_pair

# elements per scratch buffer of the similarity kernel (512 KiB of float64):
# each row block of the score matrix is computed in two such buffers
BLOCK = 65_536
# a matrix that keeps at most one pair in KEYED_SPAN takes the sorted-key
# form (keyed_form): `--sparsity 0.99` does, 0.98 does not
KEYED_SPAN = 64


@dataclass(frozen=True)
class SimilarityConfig:
    content_weight: float = 23.0
    topology_weight: float = 19.0
    neighborhood_weight: float = 7.0
    perturbation_scale: float = 1e-3  # address-order bonus magnitude
    sparsity_ratio: float = 0.0       # fraction of lowest-scoring pairs to drop

    def __post_init__(self):
        check_non_negative(content_weight=self.content_weight,
                           topology_weight=self.topology_weight,
                           neighborhood_weight=self.neighborhood_weight,
                           perturbation_scale=self.perturbation_scale)
        if self.content_weight + self.topology_weight + self.neighborhood_weight <= 0:
            raise ValueError("group weights must not all be zero")
        check_range("sparsity_ratio", self.sparsity_ratio, high=1)


def feature_weights(n_classes: int, config: SimilarityConfig) -> np.ndarray:
    """Per-feature weights: each group's weight split evenly over its slots."""
    sizes = feature_group_sizes(n_classes)
    groups = (config.content_weight, config.topology_weight, config.neighborhood_weight)
    parts = [np.full(size, weight / size) for size, weight in zip(sizes, groups)]
    return np.concatenate(parts)


def _weighted_canberra(fa: np.ndarray, fb: np.ndarray, weights: np.ndarray,
                       num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Distance between every row of fa and every row of fb; shape (len(fa), len(fb)).

    Per-feature terms are |x - y| / (x + y) with 0/0 counted as 0, averaged
    under the per-feature weights.  The terms are computed in place in the
    caller's buffers `num` and `den`, both of shape (len(fa), len(fb), F):
    den first holds a copy of each row of fa per row of fb, so the arithmetic
    runs in loops over whole len(fb) * F blocks, not over F elements at a
    time.  Inputs must be non-negative: the Canberra denominator
    is then just the sum, and where it is zero the numerator is +0.0 too.
    The division runs everywhere, and fmax turns the NaN of each 0/0 into
    the +0.0 that skipping it would have left, so every term has the bits of
    a division masked to den > 0.
    """
    np.copyto(den, fa[:, None, :])
    np.subtract(den, fb, out=num)
    np.abs(num, out=num)
    den += fb
    with np.errstate(invalid="ignore"):
        np.divide(num, den, out=num)
    np.fmax(num, 0.0, out=num)
    return num @ weights / weights.sum()


def canberra_similarity(fa, fb, config: Optional[SimilarityConfig] = None) -> float:
    """Similarity in [0, 1] between two feature rows of one layout, such as a.features[i].

    A row of a graph with n_classes instruction classes holds n_classes + 8
    features, which must be finite and non-negative, as in a CallGraph.
    The result agrees with the (i, j) score of build_similarity_matrix, with
    perturbation_scale 0, to within 1e-12 but not bit for bit: the matrix
    kernel sums a whole row block's weighted terms at once and rounds
    differently.
    """
    config = config or SimilarityConfig()
    pair = np.asarray(fa, dtype=np.float64), np.asarray(fb, dtype=np.float64)
    n_classes = pair[0].size - sum(feature_group_sizes(0))
    if pair[0].ndim != 1 or pair[0].shape != pair[1].shape or n_classes < 0:
        raise ValueError("feature vectors have different layouts")
    pair = np.stack(pair)
    if not np.all((pair >= 0) & (pair < np.inf)):
        raise ValueError("features must be finite and non-negative")
    weights = feature_weights(n_classes, config)
    num, den = np.empty((2, 1, 1, pair.shape[1]))
    return float(1.0 - _weighted_canberra(pair[:1], pair[1:], weights, num, den)[0, 0])


def keyed_form(kept: int, total: int) -> bool:
    """Whether a matrix of `kept` entries among `total` pairs looks them up by sorted key.

    A binary search is several times slower per pair than a read of the
    dense index, but that index costs 8 bytes per pair, kept or not.  At
    one kept pair in KEYED_SPAN or fewer, the keys cost a few percent of
    the similarity and problem build time and save the n_a * n_b arrays.
    """
    return kept * KEYED_SPAN <= total


@dataclass
class SimilarityMatrix:
    """Sparse rectangular matrix of retained candidate pairs.

    Entries are stored in lexicographic (row, col) order; absent positions
    were pruned and are not legal match candidates.  `lookup` is the one
    way from a pair to its entry.  It reads one of two private forms, which
    the matrix picks from its kept ratio (keyed_form) when no dense array
    is given:

    * dense: an array of the n_a * n_b entry positions, -1 where a pair was
      pruned;
    * sorted keys: the entries' flat keys row * n_b + col in ascending
      order, found by binary search, with the permutation back to entry
      positions only when the entries are not in (row, col) order.
    """

    n_a: int
    n_b: int
    rows: np.ndarray    # int64, candidate row indices
    cols: np.ndarray    # int64, candidate col indices
    scores: np.ndarray  # float64 in [0, 1]
    _index: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # the sorted-key form: keys, then one sentinel above every key in range
    _keys: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _order: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._index is not None:
            return
        n = len(self.rows)
        keys = np.empty(n + 1, dtype=np.int64)
        np.multiply(self.rows, self.n_b, out=keys[:n])
        keys[:n] += self.cols
        if not keyed_form(n, self.n_a * self.n_b):
            self._index = np.full(self.n_a * self.n_b, -1, dtype=np.int64)
            self._index[keys[:n]] = np.arange(n)
            return
        keys[n] = np.iinfo(np.int64).max
        if not np.all(keys[1:] > keys[:-1]):  # the sentinel sorts last, so order[n] = n
            self._order = np.argsort(keys, kind="stable")
            keys = keys[self._order]
        self._keys = keys

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def pruned(self) -> int:
        return self.n_a * self.n_b - len(self)

    def lookup(self, i, j) -> np.ndarray:
        """Entry position of each pair (i, j), or -1 where the pair was pruned.

        i and j are ids in range, or integer numpy arrays of them that
        broadcast against each other.  Ranges are not checked: in either
        form, the result for an id outside its range is unspecified (it may
        be another pair's entry, -1 or an IndexError).
        """
        key = i * self.n_b + j
        if self._keys is None:
            return self._index[key]
        at = self._keys.searchsorted(key)
        pos = at if self._order is None else self._order[at]
        # -1 where the key is absent; arithmetic, not np.where, whose call
        # costs ten times a read of the dense index for one pair
        return (pos + 1) * (self._keys[at] == key) - 1

    def get(self, i: int, j: int) -> float:
        pos = self.lookup(i, j) if 0 <= i < self.n_a and 0 <= j < self.n_b else -1
        if pos < 0:
            raise KeyError((i, j))
        return float(self.scores[pos])

    def to_dense(self, fill: float = np.nan) -> np.ndarray:
        dense = np.full((self.n_a, self.n_b), fill)
        dense[self.rows, self.cols] = self.scores
        return dense


def _score_blocks(a: CallGraph, b: CallGraph, config: SimilarityConfig) -> Iterator[np.ndarray]:
    """The clipped scores of a against b, max(1, BLOCK // (n_b * F)) whole rows at a time.

    Each block is a new (rows, n_b) array; the kernel's two scratch buffers
    are allocated once and reused for every block.
    """
    weights = feature_weights(len(a.instruction_classes), config)
    fa, fb = a.features, b.features
    order_a, order_b = a.order, b.order
    n_a, n_b = a.n, b.n
    span = max(n_a, n_b)
    block = max(1, BLOCK // (n_b * fa.shape[1]))
    num, den = np.empty((2, min(block, n_a), n_b, fa.shape[1]))
    for start in range(0, n_a, block):
        stop = min(start + block, n_a)
        sim = 1.0 - _weighted_canberra(fa[start:stop], fb, weights,
                                       num[:stop - start], den[:stop - start])
        if config.perturbation_scale > 0:
            bonus = 1.0 - np.abs(order_a[start:stop, None] - order_b[None, :]) / span
            sim = sim + config.perturbation_scale * bonus
        np.clip(sim, 0.0, 1.0, out=sim)
        yield sim


def build_similarity_matrix(a: CallGraph, b: CallGraph,
                            config: Optional[SimilarityConfig] = None) -> SimilarityMatrix:
    """Score all function pairs of two comparable graphs, then prune globally.

    Scores are computed in row blocks (_score_blocks) in two scratch buffers
    allocated once per call, so the kernel's scratch memory does not grow
    with n_a; the graphs' validated non-negative features make the unmasked
    in-place division exact.  Pruning removes the
    floor(sparsity_ratio * n_a * n_b) lowest-scoring pairs; score ties are
    broken by lexicographic (row, col) order so the result is deterministic.
    When the kept pairs take the sorted-key form (keyed_form), the blocks
    stream through keep_highest and no n_a x n_b array is allocated; else
    they fill one n_a x n_b buffer, which becomes the dense index.
    """
    config = config or SimilarityConfig()
    validate_pair(a, b)
    n_a, n_b = a.n, b.n
    total = n_a * n_b
    if total == 0:
        empty = np.empty(0)
        return SimilarityMatrix(n_a, n_b, empty.astype(np.int64),
                                empty.astype(np.int64), empty.astype(np.float64))

    drop = int(np.floor(config.sparsity_ratio * total))
    blocks = _score_blocks(a, b, config)
    if keyed_form(total - drop, total):
        keep, kept = keep_highest((sim.ravel() for sim in blocks), total - drop)
        rows, cols = np.divmod(keep, n_b)
        return SimilarityMatrix(n_a=n_a, n_b=n_b, rows=rows, cols=cols, scores=kept)

    flat = np.empty(total, dtype=np.float64)
    start = 0
    for sim in blocks:
        flat[start:start + sim.size] = sim.ravel()
        start += sim.size
    keep = prune_lowest(flat, drop)
    kept = flat[keep]
    # the kept scores are copied out, so the score buffer becomes the lookup's
    # array and no second n_a x n_b array is allocated while it is alive
    index = flat.view(np.int64)
    index.fill(-1)
    index[keep] = np.arange(len(keep))
    rows, cols = np.divmod(keep, n_b)
    return SimilarityMatrix(n_a=n_a, n_b=n_b, rows=rows, cols=cols, scores=kept, _index=index)


def prune_lowest(scores: np.ndarray, drop: int) -> np.ndarray:
    """Ascending indices of the scores left after dropping the `drop` lowest.

    Ties are dropped lowest index first, so the result is the tail of a sort
    by (score, index).  Found by partition rather than a full sort: everything
    below the drop-th lowest score goes, and so do as many of the scores equal
    to it, lowest index first, as are needed to make up `drop`.
    """
    total = len(scores)
    if drop <= 0:
        return np.arange(total, dtype=np.int64)
    if drop >= total:
        return np.empty(0, dtype=np.int64)
    threshold = np.partition(scores, drop - 1)[drop - 1]
    keep = scores > threshold
    tied = np.flatnonzero(scores == threshold)
    keep[tied[drop - (total - np.count_nonzero(keep) - len(tied)):]] = True
    return np.flatnonzero(keep)


def keep_highest(blocks: Iterable[np.ndarray], keep: int) -> Tuple[np.ndarray, np.ndarray]:
    """(ascending indices, scores) of the `keep` highest of consecutive 1-D score blocks.

    The same as prune_lowest over the blocks joined, dropping all but
    `keep`, with its ties: the tail of a sort by (score, index).  The
    joined blocks are never whole.  A pool of the entries that may still be
    kept grows in index order; once it passes 2 * keep + BLOCK entries,
    prune_lowest itself cuts it back to `keep`, whose lowest score is then
    a floor: a later entry below it is outranked by all `keep` pooled ones,
    and one tied with it outranks the tied ones, so later blocks add only
    scores at or above it.
    """
    index_parts, score_parts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    pooled = offset = 0
    floor = -np.inf
    for scores in blocks:
        at = np.flatnonzero(scores >= floor)
        index_parts.append(at + offset)
        score_parts.append(scores[at])
        pooled += len(at)
        offset += len(scores)
        if pooled > 2 * keep + BLOCK:
            index, kept = _cut(index_parts, score_parts, keep)
            index_parts, score_parts, pooled = [index], [kept], len(index)
            floor = kept.min() if keep else np.inf
    return _cut(index_parts, score_parts, keep)


def _cut(index_parts: List[np.ndarray], score_parts: List[np.ndarray],
         keep: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pool's `keep` highest by (score, index), as keep_highest returns them."""
    index, scores = np.concatenate(index_parts), np.concatenate(score_parts)
    at = prune_lowest(scores, len(scores) - keep)
    return index[at], scores[at]
