#!/usr/bin/env python3
"""Run the full witness search against the 3x3 non-decomposable map fixture
and freeze the result for regression replay.

Run from the repository root:

    python3 scripts/find_witness.py            # search and write the fixture
    python3 scripts/find_witness.py --check    # replay and compare, write nothing

``--check`` exits 1 when the replay's evaluations, restart, min_eig or block
differ from the frozen fixture, and prints the search time either way.  Both
modes then time 20 one-restart searches (seeds 0-19, budget 601, the call
the witness benchmark repeats) and print their time per evaluation; the
exit code depends on the replay alone.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit.io import block_from_payload, block_to_payload
from stormer_kit.maps import choi_fixture, witness_search

SEED = 42
BUDGET = 10**6
OUT = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "choi3_witness.json"
RESTART_SEEDS = range(20)
RESTART_BUDGET = 601  # one restart: the first evaluation and its 600 steps


def search():
    """The seed-42 search and its wall time in seconds."""
    start = time.perf_counter()
    result = witness_search(choi_fixture(), seed=SEED, budget=BUDGET, n=3, d=3)
    return result, time.perf_counter() - start


def time_restarts() -> float:
    """Microseconds per evaluation over the one-restart searches."""
    phi = choi_fixture()
    evaluations = 0
    start = time.perf_counter()
    for seed in RESTART_SEEDS:
        result = witness_search(phi, seed=seed, budget=RESTART_BUDGET, n=3, d=3)
        evaluations += RESTART_BUDGET if result is None else result.evaluations
    return (time.perf_counter() - start) / evaluations * 1e6


def check() -> int:
    """Replay the frozen search; 0 when it reproduces the fixture exactly."""
    payload = json.loads(OUT.read_text())
    result, elapsed = search()
    if result is None:
        print(f"MISMATCH: no witness within budget {BUDGET} ({elapsed:.2f}s)")
        return 1
    print(
        f"replay: {result.evaluations} evaluations, restart {result.restart}, "
        f"{elapsed:.2f}s, {elapsed / result.evaluations * 1e6:.1f} us per evaluation"
    )
    frozen = block_from_payload(payload["block"]).blocks
    mismatches = [
        name
        for name, same in [
            ("evaluations", result.evaluations == payload["evaluations"]),
            ("restart", result.restart == payload["restart"]),
            ("min_eig", result.min_eig == payload["min_eig"]),
            ("block", np.array_equal(result.block.blocks, frozen)),
        ]
        if not same
    ]
    if mismatches:
        print(f"MISMATCH against {OUT}: {', '.join(mismatches)}")
        return 1
    print(f"matches {OUT}")
    return 0


def freeze() -> int:
    result, elapsed = search()
    if result is None:
        print(f"INCONCLUSIVE after budget {BUDGET} ({elapsed:.1f}s); raise the budget")
        return 1
    payload = {
        "map": "choi3",
        "seed": SEED,
        "budget": BUDGET,
        "n": 3,
        "d": 3,
        "evaluations": result.evaluations,
        "restart": result.restart,
        "min_eig": result.min_eig,
        "search_seconds": round(elapsed, 2),
        "block": block_to_payload(result.block),
    }
    OUT.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(
        f"witness frozen: min_eig={result.min_eig:.6e} after "
        f"{result.evaluations} evaluations ({elapsed:.1f}s) -> {OUT}"
    )
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="replay the frozen search and compare; write nothing"
    )
    args = parser.parse_args()
    code = check() if args.check else freeze()
    print(
        f"one-restart searches (seeds {RESTART_SEEDS.start}-{RESTART_SEEDS.stop - 1}, "
        f"budget {RESTART_BUDGET}): {time_restarts():.1f} us per evaluation"
    )
    raise SystemExit(code)


if __name__ == "__main__":
    main()
