"""Scoring mappings against ground truth, and chaining truths across versions.

Ground truths pair function keys (names when available, integer ids
otherwise).  Truths for consecutive program versions compose by joining on
the shared middle version, which lets a mapping between distant versions be
scored even when only adjacent-version truth exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Set, Tuple, Union

from .errors import CompositionError, FormatError
from .graphs import CallGraph, read_json, write_json
from .nap import Mapping

FORMAT_VERSION = 1

Key = Union[str, int]
KeyPair = Tuple[Key, Key]


def _pair_sort_key(pair: KeyPair):
    return tuple((0, k) if isinstance(k, int) else (1, k) for k in pair)


@dataclass(frozen=True)
class GroundTruth:
    """One-to-one reference pairing between two programs' functions."""

    pairs: frozenset  # of (key_a, key_b)

    @classmethod
    def from_pairs(cls, pairs: Iterable[KeyPair]) -> "GroundTruth":
        pairs = frozenset((a, b) for a, b in pairs)
        if (len({a for a, _ in pairs}) != len(pairs)
                or len({b for _, b in pairs}) != len(pairs)):
            raise FormatError("ground truth pairs are not one-to-one")
        return cls(pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self):
        return sorted(self.pairs, key=_pair_sort_key)


def parse_ground_truth(doc: dict, source: str = "<memory>") -> GroundTruth:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise FormatError("%s: expected a ground truth document with format_version %d"
                          % (source, FORMAT_VERSION))
    raw = doc.get("pairs")
    if not isinstance(raw, list):
        raise FormatError("%s: pairs must be a list" % source)
    pairs = []
    for index, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or any(isinstance(k, bool) or not isinstance(k, (str, int))
                       for k in entry)):
            raise FormatError("%s: pairs[%d] must be [key_a, key_b] with string or "
                              "integer keys" % (source, index))
        pairs.append((entry[0], entry[1]))
    try:
        return GroundTruth.from_pairs(pairs)
    except FormatError as exc:
        raise FormatError("%s: %s" % (source, exc))


def load_ground_truth(path: str) -> GroundTruth:
    return parse_ground_truth(read_json(path), source=path)


def save_ground_truth(truth: GroundTruth, path: str):
    doc = {"format_version": FORMAT_VERSION,
           "pairs": [list(pair) for pair in truth.sorted_pairs()]}
    write_json(path, doc)


def extrapolate(chain: Sequence[GroundTruth]) -> GroundTruth:
    """Compose a chain of adjacent-version truths into an end-to-end truth.

    A function survives the chain if every hop keeps it; anything dropped at
    one hop disappears from the result.  Raises when two non-empty links
    share no keys at all, which indicates truths from unrelated versions.
    """
    if not chain:
        raise CompositionError("cannot extrapolate an empty chain")
    current = dict(chain[0].pairs)
    for step, truth in enumerate(chain[1:], start=1):
        forward = dict(truth.pairs)
        if current and forward and not set(current.values()) & set(forward):
            raise CompositionError(
                "link %d shares no function keys with the composition so far" % step)
        current = {a: forward[b] for a, b in current.items() if b in forward}
    return GroundTruth.from_pairs(current.items())


@dataclass(frozen=True)
class ScoreReport:
    """Agreement between a predicted mapping and ground truth.

    precision/recall follow the standard convention (precision divides by
    the prediction size, recall by the truth size); the swapped_* fields
    report the opposite convention, which some write-ups use.  f1 is the
    same under either reading.
    """

    n_predicted: int
    n_truth: int
    n_common: int
    precision: float
    recall: float
    swapped_precision: float
    swapped_recall: float
    f1: float


def _ratio(num: int, denom: int, other: int) -> float:
    if denom == 0:
        return 1.0 if other == 0 else 0.0
    return num / denom


def score(predicted: Union[Mapping, Set[KeyPair], Iterable[KeyPair]],
          truth: Union[GroundTruth, Set[KeyPair], Iterable[KeyPair]]) -> ScoreReport:
    """Score predicted pairs against reference pairs over the same key space."""
    if isinstance(predicted, Mapping):
        predicted = predicted.pairs
    predicted = set(predicted)
    if isinstance(truth, GroundTruth):
        truth = truth.pairs
    truth = set(truth)
    common = len(predicted & truth)
    precision = _ratio(common, len(predicted), len(truth))
    recall = _ratio(common, len(truth), len(predicted))
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return ScoreReport(n_predicted=len(predicted), n_truth=len(truth), n_common=common,
                       precision=precision, recall=recall,
                       swapped_precision=recall, swapped_recall=precision, f1=f1)


def mapping_to_keys(mapping: Mapping, a: CallGraph, b: CallGraph) -> Set[KeyPair]:
    """Translate an id-level mapping to (key_a, key_b) pairs for scoring."""
    return {(a.key_of(i), b.key_of(j)) for i, j in mapping.pairs}
