#!/usr/bin/env python3
"""Print one SHA-256 digest of a sweep of necessity trials.

Run from the repository root:

    python3 scripts/necessity_digest.py

The necessity engine's counterpart of ``witness_digest.py``.  Builds the
map mix of the necessity benchmark: the named identity and transpose maps
on 3 x 3 input; CP, co-CP and CP + co-CP Kraus maps from k x k to l x l
for every (k, l) in {2, 3, 4}^2, with 1 + (k + l) % most l x k operators
per part (most = 2 for the CP + co-CP maps, 3 otherwise); and the
Choi-matrix twin of each CP + co-CP map.  To these it adds ``choi3``, the
package's non-decomposable map.  For each map at n = 2 and n = 3 it runs
``theorem1_necessity_trial`` at every (seed, trials) of ``CALLS``, whose
last call spans two stacks of trials, and hashes each report's violations
and ``worst_min_eig.hex()``.  Two trees that give the same digest give the
same reports bit for bit.  Prints the digest, the number of reports and
their violations; exits 0.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit.maps import (
    choi_fixture,
    choi_matrix,
    identity_map,
    make_decomposable,
    map_from_choi,
    theorem1_necessity_trial,
    transpose_map,
)
from stormer_kit.sampling import ginibre

# (seed, trials) of each call per map and n: the benchmark's 20 trials, and
# one call of more than the engine's 256-trial stack.
CALLS = [(seed, 20) for seed in range(8)] + [(8, 300)]


def map_mix() -> list:
    """(map, d) for every map of the sweep, d its input dimension."""
    rng = np.random.default_rng(0)
    mix = [(identity_map(), 3), (transpose_map(), 3)]
    for family in ("cp", "cocp", "sum"):
        most = 2 if family == "sum" else 3
        for k in (2, 3, 4):
            for l in (2, 3, 4):
                count = 1 + (k + l) % most
                cp = [ginibre(rng, l, k) for _ in range(count)] if family != "cocp" else []
                cocp = [ginibre(rng, l, k) for _ in range(count)] if family != "cp" else []
                phi = make_decomposable(cp, cocp)
                mix.append((phi, k))
                if family == "sum":
                    mix.append((map_from_choi(choi_matrix(phi), k), k))
    return mix + [(choi_fixture(), 3)]


def digest(calls) -> tuple[str, int, int]:
    """(hex digest, number of reports, their violations) of the sweep."""
    h = hashlib.sha256()
    reports = violations = 0
    for phi, d in map_mix():
        for n in (2, 3):
            for seed, trials in calls:
                rep = theorem1_necessity_trial(phi, seed=seed, trials=trials, n=n, d=d)
                h.update(f"{rep.violations} {rep.worst_min_eig.hex()}\n".encode())
                reports += 1
                violations += rep.violations
    return h.hexdigest(), reports, violations


def main() -> int:
    hexdigest, reports, violations = digest(CALLS)
    print(f"{hexdigest}  {reports} reports, {violations} violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
