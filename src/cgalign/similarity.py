"""Pairwise function similarity.

Similarity between two functions is one minus a weighted Canberra distance
over their concatenated feature vectors, where each feature group (content,
topology, neighborhood) carries a fixed share of the total weight split
evenly among its components.  A tiny bonus for functions at similar
positions in their program's address order breaks ties between otherwise
identical functions, and a global sparsity ratio prunes the lowest-scoring
pairs to keep downstream solvers sparse.  SimilarityMatrix.lookup is the one
way from a pair (i, j) to its retained entry, for every module.

All n_a x n_b scores are computed in row blocks of at most BLOCK terms.
A Canberra term |x - y| / (x + y) depends on x and y alone, and features
are counts, so each column of b holds few distinct values (a few hundred
in all for a 1000-function synthetic graph).  The kernel computes each
term once per row of a and distinct value of its column, in a table of
BLOCK // D rows of a at a time (D distinct values, and at least one row
block), then fills each row block's (rows, n_b, F) terms from the table
with one np.take.  The table and one scratch buffer, which holds the
table's sums and then each block's terms, are reused for every block, so
the kernel's scratch memory does not grow with n_a.  The terms keep that
shape for the product with the weights because the bits of the product
depend on the shape of the call, not on how the terms were filled: every
score is, bit for bit, the one computed from each pair's terms in place.
Features that never
repeat (continuous ones) make the table as large as the terms, and the
take extra work: about 1.3 times the time of computing the terms in place
(n = 1000).

The kernel relies on the features being finite and non-negative, which
CallGraph validates and canberra_similarity checks: a zero Canberra
denominator then comes with a zero numerator, so the kernel divides every
term and maps each 0/0 to 0 afterwards, with no mask.

A matrix that keeps every pair needs no lookup array: its entries are
every pair in order, and its build's score buffer becomes its scores.  A
pruned one keeps a bitmap of its pairs and a count per 64-pair word, two
bits per pair in all, and its build streams the score blocks through
keep_highest, never holding every score.  Both routes give the same
entries, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .graphs import CallGraph, check_non_negative, check_range, feature_group_sizes, validate_pair

# elements per scratch buffer of the similarity kernel (512 KiB of float64):
# each row block of the score matrix is computed in two such buffers.  Also
# the doubles per block of generate_graph's call-mask draw
BLOCK = 65_536


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


def _canberra_terms(den: np.ndarray, y: np.ndarray, num: np.ndarray) -> np.ndarray:
    """The Canberra terms |x - y| / (x + y), 0/0 counted as 0, written to num.

    den holds x on entry, and x + y on return; y broadcasts against it.
    Inputs must be non-negative: the Canberra denominator is then just the
    sum, and where it is zero the numerator is +0.0 too.  The division runs
    everywhere, and fmax turns the NaN of each 0/0 into the +0.0 that
    skipping it would have left, so every term has the bits of a division
    masked to den > 0.
    """
    np.subtract(den, y, out=num)
    np.abs(num, out=num)
    den += y
    with np.errstate(invalid="ignore"):
        np.divide(num, den, out=num)
    np.fmax(num, 0.0, out=num)
    return num


def _distinct_values(fb: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, feature, index): the distinct values of each column of fb.

    values holds column 0's distinct values in ascending order, then column
    1's, and so on; feature[d] is the column of values[d], and index[j, f]
    is the d with values[d] == fb[j, f] and feature[d] == f.  -0.0 and +0.0
    count as one value, whose Canberra term against any x has the same bits
    either way.  A few whole-array calls, no loop over the columns.
    """
    columns = np.ascontiguousarray(fb.T)
    order = np.argsort(columns, axis=1)
    ranked = np.take_along_axis(columns, order, axis=1)
    first = np.empty(ranked.shape, dtype=bool)  # where a new value starts in its column
    first[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=first[:, 1:])
    ids = np.cumsum(first).reshape(first.shape)  # numbered column by column
    ids -= 1
    index = np.empty(fb.shape, dtype=np.intp)
    np.put_along_axis(index.T, order, ids, axis=1)
    return ranked[first], np.nonzero(first)[0], index


def _canberra_rows(fa: np.ndarray, fb: np.ndarray, weights: np.ndarray,
                   block: int) -> Iterator[np.ndarray]:
    """Weighted Canberra distance of each row of fa to each row of fb, in row blocks.

    Each yielded block is a new (rows, len(fb)) array of at most `block`
    consecutive rows of fa, in order.  The terms of a chunk of
    max(block, BLOCK // D) rows of fa against the D distinct values of fb's
    columns (_distinct_values) are computed once, into a table; one take
    through the (n_b, F) index then fills each row block's (rows, n_b, F)
    terms from it.  The blocks of a chunk start at its first row, so its
    last may be short: the product with the weights has the same bits for
    any row block, but not for another shape of the terms.  One scratch
    buffer holds the table's x + y, then each block's terms.
    """
    values, feature, index = _distinct_values(fb)
    chunk = min(max(block, BLOCK // len(values)), len(fa))
    block = min(block, chunk)
    table = np.empty((chunk, len(values)))
    scratch = np.empty(max(table.size, block * index.size))
    den = scratch[:table.size].reshape(table.shape)
    num = scratch[:block * index.size].reshape(block, *index.shape)
    total = weights.sum()
    for lo in range(0, len(fa), chunk):
        rows = min(chunk, len(fa) - lo)
        np.take(fa[lo:lo + rows], feature, axis=1, out=den[:rows], mode="clip")
        _canberra_terms(den[:rows], values, table[:rows])
        for start in range(0, rows, block):
            stop = min(start + block, rows)
            terms = num[:stop - start]
            np.take(table[start:stop], index, axis=1, out=terms, mode="clip")
            yield terms @ weights / total


def canberra_similarity(fa, fb, config: Optional[SimilarityConfig] = None) -> float:
    """Similarity in [0, 1] between two feature rows of one layout, such as a.features[i].

    A row of a graph with n_classes instruction classes holds n_classes + 8
    features, which must be finite and non-negative, as in a CallGraph.
    The result agrees with the (i, j) score of build_similarity_matrix, with
    perturbation_scale 0, to within 1e-12 but not bit for bit: the terms
    come from the kernel's one formula (_canberra_terms), but the matrix
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
    den = pair[:1, None].copy()
    terms = _canberra_terms(den, pair[1:], np.empty_like(den))
    return float(1.0 - (terms @ weights / weights.sum())[0, 0])


@dataclass
class SimilarityMatrix:
    """Sparse rectangular matrix of retained candidate pairs.

    Entries are distinct pairs in ascending (row, col) order, which every
    reader relies on; absent positions were pruned and are not legal match
    candidates.  The constructor checks this: rows, cols and scores must
    have one entry per pair, every id must be in range and the flat keys
    row * n_b + col must strictly ascend, or it raises a ValueError naming
    the first bad entry.  `lookup` is the one way from a pair to its entry.
    The entries alone set its form:

    * full, when every pair is kept: pair (i, j) is entry i * n_b + j;
    * rank, otherwise: one bit per pair, set where it was kept, in uint64
      words, and the kept pairs up to the end of each word.  A kept pair's
      entry is its word's count less the kept pairs from its own bit up;
      the two arrays take n_a * n_b / 4 bytes.
    """

    n_a: int
    n_b: int
    rows: np.ndarray    # int64, candidate row indices
    cols: np.ndarray    # int64, candidate col indices
    scores: np.ndarray  # float64 in [0, 1]
    # the rank form: the bitmap of kept flat keys, and the kept keys up to each word's end
    _bits: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _rank: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_range("n_a", self.n_a, integer=True)
        check_range("n_b", self.n_b, integer=True)
        for name, kind, what in (("rows", np.signedinteger, "signed integers"),
                                 ("cols", np.signedinteger, "signed integers"),
                                 ("scores", np.floating, "floats")):
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.ndim == 1
                    and np.issubdtype(value.dtype, kind)):
                shape = ("a %d-d %s array" % (value.ndim, value.dtype)
                         if isinstance(value, np.ndarray) else "a %s" % type(value).__name__)
                raise ValueError("%s must be a 1-d numpy array of %s, not %s" % (name, what, shape))
        n = len(self.scores)
        if not len(self.rows) == len(self.cols) == n:
            raise ValueError("rows, cols and scores must have one entry per pair, not %d, %d "
                             "and %d" % (len(self.rows), len(self.cols), n))
        keys = np.multiply(self.rows, self.n_b, dtype=np.int64)
        keys += self.cols
        ok = (self.rows >= 0) & (self.rows < self.n_a) & (self.cols >= 0) & (self.cols < self.n_b)
        ok[1:] &= keys[1:] > keys[:-1]
        if not ok.all():
            raise ValueError(self._entry_error(int(np.argmin(ok)), keys))
        total = self.n_a * self.n_b
        if n == total:
            return
        self._bits = np.zeros(-(-total // 64), dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), (keys & 63).view(np.uint64))
        np.bitwise_or.at(self._bits, keys >> 6, bit)
        self._rank = np.cumsum(np.bitwise_count(self._bits), dtype=np.int64)

    def _entry_error(self, t: int, keys: np.ndarray) -> str:
        """Why entry t, the first that breaks the entry invariant, is refused."""
        pair = "entry %d, (%d, %d)," % (t, self.rows[t], self.cols[t])
        if not (0 <= self.rows[t] < self.n_a and 0 <= self.cols[t] < self.n_b):
            return "%s is outside the %d x %d matrix" % (pair, self.n_a, self.n_b)
        relation = "repeats" if keys[t] == keys[t - 1] else "sorts before"
        return ("%s %s entry %d, (%d, %d): entries must be distinct pairs in ascending "
                "(row, col) order" % (pair, relation, t - 1, self.rows[t - 1], self.cols[t - 1]))

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def pruned(self) -> int:
        return self.n_a * self.n_b - len(self)

    def lookup(self, i, j) -> np.ndarray:
        """Entry position of each pair (i, j), or -1 where the pair was pruned.

        i and j are ids in range, or integer numpy arrays of them that
        broadcast against each other; positions are int64.  Ranges are not
        checked: in either form, the result for an id outside its range is
        unspecified (it may be another pair's entry, -1 or an IndexError).
        """
        key = np.add(np.multiply(i, self.n_b, dtype=np.int64), j, dtype=np.int64)
        if self._bits is None:
            return key
        # in place where it can be: each whole-array pass costs as much as a read
        word = key >> 6
        key &= 63  # the pair's bit in its word
        upto = self._bits[word]
        upto >>= key.view(np.uint64)  # the word's bits from the pair's up: bit 0 is the pair's
        pos = self._rank[word]
        pos -= np.bitwise_count(upto)
        # 0 where the pair is kept and -1 where not: arithmetic, not
        # np.where, whose call costs several times the rest for one pair
        upto &= 1
        missing = upto.view(np.int64)
        missing -= 1
        pos |= missing
        return pos

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
    """The clipped scores of a against b, at most max(1, BLOCK // (n_b * F)) whole rows at a time.

    Each block is a new (rows, n_b) array of consecutive rows.  Its terms
    come from a table of each term per row of a and distinct value of b's
    column (_canberra_rows), of at most max(BLOCK, D * rows per block)
    entries for D distinct values, allocated once per call with one
    scratch buffer of its scale.  They keep the (rows, n_b, F) shape for
    the product with the weights, whose bits depend on that shape.
    """
    weights = feature_weights(len(a.instruction_classes), config)
    order_a, order_b = a.order, b.order
    span = max(a.n, b.n)
    block = max(1, BLOCK // (b.n * b.features.shape[1]))
    start = 0
    for dist in _canberra_rows(a.features, b.features, weights, block):
        stop = start + len(dist)
        sim = 1.0 - dist
        if config.perturbation_scale > 0:
            bonus = 1.0 - np.abs(order_a[start:stop, None] - order_b[None, :]) / span
            sim = sim + config.perturbation_scale * bonus
        np.clip(sim, 0.0, 1.0, out=sim)
        start = stop
        yield sim


def build_similarity_matrix(a: CallGraph, b: CallGraph,
                            config: Optional[SimilarityConfig] = None) -> SimilarityMatrix:
    """Score all function pairs of two comparable graphs, then prune globally.

    Scores are computed in row blocks (_score_blocks) from a table of each
    column's distinct values, in two scratch buffers allocated once per
    call, so the kernel's scratch memory does not grow with n_a; the
    graphs' validated non-negative features make the unmasked division
    exact.  Pruning removes the
    floor(sparsity_ratio * n_a * n_b) lowest-scoring pairs; score ties are
    broken by lexicographic (row, col) order so the result is deterministic.
    When some pair is dropped, the blocks stream through keep_highest and
    no n_a x n_b array is allocated; else they fill one n_a x n_b buffer,
    which becomes the scores.
    """
    config = config or SimilarityConfig()
    validate_pair(a, b)
    n_a, n_b = a.n, b.n
    total = n_a * n_b
    drop = int(np.floor(config.sparsity_ratio * total))
    if drop:
        blocks = (sim.ravel() for sim in _score_blocks(a, b, config))
        keep, scores = keep_highest(blocks, total - drop)
    else:
        keep, scores = np.arange(total, dtype=np.int64), np.empty(total)
        start = 0
        for sim in _score_blocks(a, b, config) if total else ():  # an empty graph has none
            scores[start:start + sim.size] = sim.ravel()
            start += sim.size
    cols = np.empty_like(keep)
    np.divmod(keep, n_b, out=(keep, cols))  # the flat keys become the rows
    return SimilarityMatrix(n_a=n_a, n_b=n_b, rows=keep, cols=cols, scores=scores)


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
    `keep`, with its ties: the tail of a sort by (score, index).  A pool
    of the entries that may still be kept grows in index order, and holds
    every block until the first cut; once it passes 2 * keep + BLOCK entries,
    prune_lowest itself cuts it back to `keep`, whose lowest score is then
    a floor: a later entry below it is outranked by all `keep` pooled ones,
    and one tied with it outranks the tied ones, so later blocks add only
    scores at or above it.
    """
    index_parts, score_parts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    pooled = offset = 0
    floor = -np.inf
    for scores in blocks:
        if floor == -np.inf:  # no cut yet: the whole block, with no search or copy
            index_parts.append(np.arange(offset, offset + len(scores)))
            score_parts.append(scores)
        else:
            at = np.flatnonzero(scores >= floor)
            index_parts.append(at + offset)
            score_parts.append(scores[at])
        pooled += len(index_parts[-1])
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
    del index_parts[:], score_parts[:]  # joined, so freed before the cut
    at = prune_lowest(scores, len(scores) - keep)
    return index[at], scores[at]
