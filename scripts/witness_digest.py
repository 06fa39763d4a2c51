#!/usr/bin/env python3
"""Print one SHA-256 digest of a sweep of witness searches.

Run from the repository root:

    python3 scripts/witness_digest.py

Runs ``witness_search(choi_fixture(), seed=s, budget=3000, n=3, d=3)`` for
the seeds 0-39 and hashes, search by search, its evaluations, restart,
``min_eig`` and the bytes of its block, or a marker where it finds no
witness.  Two trees that give the same digest give the same searches bit
for bit, so comparing a change against its parent takes one line of
output.  Prints the digest and how many searches found a witness; exits 0.
"""

import hashlib
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit.maps import choi_fixture, witness_search

SEEDS = range(40)
BUDGET = 3000


def digest(seeds, budget: int) -> tuple[str, int]:
    """(hex digest, number of searches that found a witness) of the searches
    at ``seeds``."""
    phi = choi_fixture()
    h = hashlib.sha256()
    found = 0
    for seed in seeds:
        res = witness_search(phi, seed=seed, budget=budget, n=3, d=3)
        if res is None:
            h.update(b"None")
            continue
        found += 1
        h.update(struct.pack("<qqd", res.evaluations, res.restart, res.min_eig))
        h.update(res.block.blocks.tobytes())
    return h.hexdigest(), found


def main() -> int:
    hexdigest, found = digest(SEEDS, BUDGET)
    print(f"{hexdigest}  {found} of {len(SEEDS)} searches found a witness")
    return 0


if __name__ == "__main__":
    sys.exit(main())
