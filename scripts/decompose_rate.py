#!/usr/bin/env python3
"""Time the decompose chain per stage: passing pairs, failing pairs and
partitions.

Run from the repository root:

    python3 scripts/decompose_rate.py

Draws the decompose benchmark's kind of pool from one seed: pairs that
satisfy the two-sided condition (d = 2..6), pairs whose ratio operator is
far from normal, and the four ``random_partition`` kinds.  Runs each chain
on fresh objects, stage by stage, in the benchmark's order:

- pass: pair, gram, stormer_test, canonical, dual, reconstruct (both
  role orders), state, ppt, separable;
- fail: pair, gram, stormer_test, canonical (which raises DomainError);
- partition: partition, contraction (``psd_via_contraction``), oracle.

Prints the microseconds per instance of every stage, each the fastest of
a few repeats over the whole pool, and each chain's total, the sum of its
stages.  Exits 0.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit import (
    DomainError,
    OperatorPair,
    Partition2,
    canonical_decomposition,
    dual_decomposition,
    ginibre,
    gram_block,
    is_ppt,
    psd_oracle,
    psd_via_contraction,
    random_stormer_pair,
    reconstruct_block,
    separable_decomposition,
    state_from_block,
    stormer_test,
)
from stormer_kit.sampling import random_partition

SEED = 7
BATCHES = 16  # each batch: 5 passing pairs, 5 failing pairs, 4 partitions
REPEATS = 5
KINDS = ("psd", "inflated", "indefinite", "singular")


def pool(seed: int, batches: int) -> dict:
    """{"pass": [(a1, a2)], "fail": [(a1, a2)], "partition": [(a, b, c)]}."""
    rng = np.random.default_rng(seed)
    out = {"pass": [], "fail": [], "partition": []}
    sizes = [(n, k) for n in range(1, 6) for k in range(1, 6)]
    for batch in range(batches):
        for d in range(2, 7):
            pair = random_stormer_pair(rng, d)
            out["pass"].append((pair.a1, pair.a2))
        for d in range(2, 7):
            a1 = random_stormer_pair(rng, d).a1
            t = ginibre(rng, d) + np.triu(np.ones((d, d)), 1)  # far from normal
            out["fail"].append((a1, t @ a1))
        for slot, kind in enumerate(KINDS):
            n, k = sizes[(4 * batch + slot) % len(sizes)]
            out["partition"].append(random_partition(rng, n, k, kind))
    return out


def _refuse(pair):
    try:
        canonical_decomposition(pair)
    except DomainError:
        return None
    raise AssertionError("a pair with non-normal ratio operator was decomposed")


# Each chain: (stage name, the stage as a function of the previous outputs).
CHAINS = {
    "pass": (
        ("pair", lambda s: OperatorPair(*s["in"])),
        ("gram", lambda s: gram_block(s["pair"])),
        ("stormer_test", lambda s: stormer_test(s["gram"])),
        ("canonical", lambda s: canonical_decomposition(s["pair"])),
        ("dual", lambda s: dual_decomposition(s["pair"])),
        ("reconstruct", lambda s: [reconstruct_block(s[k]) for k in ("canonical", "dual")]),
        ("state", lambda s: state_from_block(s["gram"])),
        ("ppt", lambda s: is_ppt(s["state"])),
        ("separable", lambda s: separable_decomposition(s["canonical"])),
    ),
    "fail": (
        ("pair", lambda s: OperatorPair(*s["in"])),
        ("gram", lambda s: gram_block(s["pair"])),
        ("stormer_test", lambda s: stormer_test(s["gram"])),
        ("canonical", lambda s: _refuse(s["pair"])),
    ),
    "partition": (
        ("partition", lambda s: Partition2(*s["in"])),
        ("contraction", lambda s: psd_via_contraction(s["partition"])),
        ("oracle", lambda s: psd_oracle(s["partition"])),
    ),
}


def stage_us(chain, inputs: list) -> list[float]:
    """Total microseconds of each stage of ``chain`` over ``inputs``."""
    totals = [0.0] * len(chain)
    clock = time.perf_counter
    for args in inputs:
        s = {"in": args}
        for i, (name, stage) in enumerate(chain):
            start = clock()
            s[name] = stage(s)
            totals[i] += clock() - start
    return [t * 1e6 for t in totals]


def main(seed: int = SEED, batches: int = BATCHES, repeats: int = REPEATS) -> int:
    inputs = pool(seed, batches)
    print(f"us per instance, best of {repeats} repeats, seed {seed}, {batches} batches")
    for kind, chain in CHAINS.items():
        stage_us(chain, inputs[kind][:2])  # warm-up
        best = [float("inf")] * len(chain)
        for _ in range(repeats):
            best = list(map(min, best, stage_us(chain, inputs[kind])))
        count = len(inputs[kind])
        for (name, _), us in zip(chain, best):
            print(f"{kind:10s}{name:14s}{us / count:10.1f}")
        print(f"{kind:10s}{'total':14s}{sum(best) / count:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
