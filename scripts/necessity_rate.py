#!/usr/bin/env python3
"""Time the necessity engine per trial, by map kind and block count.

Run from the repository root:

    python3 scripts/necessity_rate.py

For each map kind (named, Kraus, Choi) at n = 2 and n = 3, on 3 x 3 blocks,
times ``theorem1_necessity_trial`` with 20 trials per call, the call the
necessity benchmark repeats, and prints the microseconds per trial: the
fastest of a few repeats, each the mean over calls with fresh seeds.
The Kraus and Choi rows run one kernel, the contraction with the Choi
tensor, on the same tensor: a Kraus map is compiled to its Choi twin's, so
the two rows differ by noise alone.

Each row also gives the matrices diagonalized per trial over the same
calls: the images' spectra, and at n = 3 the sampler's swap floors, one per
trial.  They are counted in a separate, untimed pass that wraps
``linalg._gufunc_path``, which the seam's ``_eigvalsh`` asks once per call,
and sums the leading dimensions of each stack it was asked about; the
wrapper changes no path the seam takes.
Exits 0.
"""

import math
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit import linalg
from stormer_kit.maps import (
    choi_matrix,
    make_decomposable,
    map_from_choi,
    theorem1_necessity_trial,
    transpose_map,
)
from stormer_kit.sampling import ginibre

D = 3
TRIALS = 20
CALLS = 50  # calls per repeat, each with its own seed
REPEATS = 5


def maps() -> dict:
    """The named transpose map, a CP + co-CP Kraus map with two operators
    per part, and the Choi-matrix form of that Kraus map, all on d x d."""
    rng = np.random.default_rng(0)
    kraus = make_decomposable(
        [ginibre(rng, D) for _ in range(2)], [ginibre(rng, D) for _ in range(2)]
    )
    return {
        "named": transpose_map(),
        "kraus": kraus,
        "choi": map_from_choi(choi_matrix(kraus), D),
    }


def us_per_trial(phi, n: int, trials: int, calls: int, repeats: int) -> float:
    theorem1_necessity_trial(phi, seed=0, trials=trials, n=n, d=D)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for seed in range(1, calls + 1):
            theorem1_necessity_trial(phi, seed=seed, trials=trials, n=n, d=D)
        best = min(best, (time.perf_counter() - start) / (calls * trials))
    return best * 1e6


def matrices_per_trial(phi, n: int, trials: int, calls: int) -> float:
    """Matrices the seam's ``eigvalsh`` is given per trial over the calls
    that :func:`us_per_trial` times, in a pass of its own."""
    with mock.patch.object(linalg, "_gufunc_path", wraps=linalg._gufunc_path) as path:
        for seed in range(1, calls + 1):
            theorem1_necessity_trial(phi, seed=seed, trials=trials, n=n, d=D)
    stacks = [c.args[0] for c in path.call_args_list if c.args[1] == "eigvalsh"]
    return sum(math.prod(a.shape[:-2]) for a in stacks) / (calls * trials)


def main(trials: int = TRIALS, calls: int = CALLS, repeats: int = REPEATS) -> int:
    print(f"us per trial and matrices diagonalized per trial, {trials} trials per call, d = {D}")
    print(f"{'map':8s}{'us n=2':>10s}{'us n=3':>10s}{'eig n=2':>10s}{'eig n=3':>10s}")
    for kind, phi in maps().items():
        rates = [us_per_trial(phi, n, trials, calls, repeats) for n in (2, 3)]
        counts = [matrices_per_trial(phi, n, trials, calls) for n in (2, 3)]
        print(
            f"{kind:8s}"
            + "".join(f"{r:10.1f}" for r in rates)
            + "".join(f"{c:10.2f}" for c in counts)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
