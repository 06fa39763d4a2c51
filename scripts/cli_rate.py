#!/usr/bin/env python3
"""Time each golden CLI case as a fresh process, against a bare
interpreter start.

Run from the repository root:

    python3 scripts/cli_rate.py

Runs every case of ``regen_golden.CASES`` as ``regen_golden.run_case`` does,
a fresh ``python -m stormer_kit.cli ... --json`` process on the checkout's
``src/``, and checks its exit code and report against the golden file.
Each call follows a bare start, ``python -c pass``, so the two see the
same load on a shared host.  Prints, per case, the median milliseconds per
call over a number of runs and its ratio to the median bare start timed
alongside it, then the median bare start.  Exits 0.
"""

import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from regen_golden import CASES, GOLDEN, run_case  # noqa: E402

RUNS = 21


def _ms(call) -> tuple[float, object]:
    start = time.perf_counter()
    result = call()
    return (time.perf_counter() - start) * 1000.0, result


def bare_start():
    return subprocess.run([sys.executable, "-c", "pass"], check=True)


def main(runs: int = RUNS) -> int:
    calls = {name: [] for name in CASES}
    bare = {name: [] for name in CASES}
    for _ in range(runs):
        for name, (expected_code, argv) in CASES.items():
            bare[name].append(_ms(bare_start)[0])
            ms, proc = _ms(lambda: run_case(argv))
            golden = (GOLDEN / f"{name}.json").read_text()
            if proc.returncode != expected_code or proc.stdout != golden:
                raise SystemExit(f"{name}: exit {proc.returncode} or report differs\n{proc.stderr}")
            calls[name].append(ms)
    print(f"ms per call, median of {runs} runs; ratio to a bare interpreter start")
    for name in CASES:
        ms, ref = statistics.median(calls[name]), statistics.median(bare[name])
        print(f"{name:24s}{ms:10.1f}{ms / ref:8.2f}")
    print(f"{'bare':24s}{statistics.median(sum(bare.values(), [])):10.1f}{1.0:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
