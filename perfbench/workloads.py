"""Benchmark workloads and the seeded input files each one diffs.

Every workload is a list of graph pairs, generated from the run's seed with
`cgalign.synthetic` and written with the package's own JSON writers, plus
the `cgalign diff` flags each pair is diffed with.  The program only ever
sees the written files.

Why these workloads (sizes are per graph; degree is the mean out-degree).
Host noise on a shared machine comes in slow phases of several seconds, so
each workload is sized for at least three passes in a 20 s run, and every
timing is a per-operation median over passes.

* dense-mutate: one n=400 pair, no pruning, default flags but a cap of 10
  iterations (160k candidates, about 1.4M links).  Problem build,
  per-iteration BP cost and memory dominate.  Without the cap most seeds
  stop by message tolerance after 9 to 13 iterations, but one seed in ten
  tried ran 72; with it every seed does 9 or 10 iterations.
* churn: 20 n=120 pairs with 5% of functions inserted and 5% deleted, which
  makes BP oscillate, so iteration count dominates.  The iteration cap is
  12, not the default 1000: at 1000 about one pair in five runs all 1000
  iterations, and how many such pairs a seed draws swings pairs/s by more
  than any bound the benchmark could hold; at caps of 20 and 30 some pairs
  still stop early (after 14 to 19 iterations at 20), and the iterations
  per seed varied by 5-7%.  At 12 every pair of 20 seeds tried (400 pairs)
  runs all 12, so every seed does the same BP work; the iterations after
  each pair's best mapping still show as waste.
* pruned-large: one n=1000 pair at 99% pruning.  Similarity and the problem
  build's scan of all |Ea|*|Eb| edge pairs (about 9M) dominate, and mode
  rounding runs a dense 1000x1000 assignment on every iteration.  The cap is
  12 iterations so that every seed does the same BP work: at a cap of 20,
  three seeds in ten stop by tolerance after 12 to 15 iterations.
* baselines: the dense-mutate pair diffed with `--matcher mwm` and with
  `--matcher mcs`.  This is the only workload that reaches `matchers`, and it
  bypasses BP, so a BP change should not move it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
REFERENCE_SEED = 0  # the seed whose inputs digests.json pins


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                    # functions in the base graph
    pairs: int                # graph pairs per seed
    variants: Tuple[Tuple[str, ...], ...]  # diff flags; each pair is diffed once per variant
    cost_flags: Tuple[str, ...] = ()       # flags shared by diff and ged
    degree: float = 3.0
    insert: float = 0.0       # fractions of n (insert, delete, perturb) or of calls (rewire)
    delete: float = 0.0
    perturb: float = 0.1
    rewire: float = 0.1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dense-mutate", n=400, pairs=1, variants=(("--max-iters", "10"),)),
    Workload("churn", n=120, pairs=20, variants=(("--max-iters", "12"),),
             insert=0.05, delete=0.05),
    Workload("pruned-large", n=1000, pairs=1, variants=(("--max-iters", "12"),),
             cost_flags=("--sparsity", "0.99")),
    Workload("baselines", n=400, pairs=1,
             variants=(("--matcher", "mwm"), ("--matcher", "mcs"))),
)}

SELFTEST = Workload("selftest", n=16, pairs=1, variants=((),), degree=0.5)


def _pair_seeds(seed: int, k: int) -> Tuple[int, int]:
    base = seed * 10_007 + k
    return base, base + 5_000_011


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def generate(workload: Workload, seed: int, directory: str) -> List[dict]:
    """Write the workload's pairs for `seed`; returns one dict of paths per pair.

    Dense-mutate and baselines share their pair for a given seed.
    """
    from cgalign import evaluation, graphs, synthetic

    os.makedirs(directory, exist_ok=True)
    pairs = []
    for k in range(workload.pairs):
        graph_seed, mutate_seed = _pair_seeds(seed, k)
        n = workload.n
        base = synthetic.generate_graph(n, edge_density=workload.degree / (n - 1),
                                        seed=graph_seed, name="base-%d-%d" % (seed, k))
        spec = synthetic.MutationSpec(insert=round(workload.insert * n),
                                      delete=round(workload.delete * n),
                                      perturb=round(workload.perturb * n),
                                      rewire=round(workload.rewire * len(base.edges)))
        mutated, truth = synthetic.mutate(base, spec, seed=mutate_seed)
        stem = os.path.join(directory, "pair%03d" % k)
        paths = {"a": stem + "_a.json", "b": stem + "_b.json", "truth": stem + "_truth.json"}
        graphs.save_call_graph(base, paths["a"])
        graphs.save_call_graph(mutated, paths["b"])
        evaluation.save_ground_truth(truth, paths["truth"])
        pairs.append(paths)
    return pairs


def digests(pairs: List[dict]) -> Dict[str, str]:
    """sha256 of every input file of a workload, by file name."""
    return {os.path.basename(paths[key]): _sha256(paths[key])
            for paths in pairs for key in ("a", "b", "truth")}


def pinned_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pin(directory: str):
    """Regenerate digests.json from the reference seed's inputs.

    Run `python3 perfbench/workloads.py` from the checkout root only when a
    workload is redefined on purpose; the benchmark then measures new inputs.
    """
    table = {name: digests(generate(w, REFERENCE_SEED, os.path.join(directory, name)))
             for name, w in sorted(WORKLOADS.items())}
    with open(DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.abspath("src"))
    pin(os.path.abspath(os.path.join(".perfbench_work", "pin")))
