#!/usr/bin/env python3
"""Regenerate the golden CLI outputs compared byte-for-byte by the tests.
Only the files whose bytes change are written, and their names printed.

Run from the repository root:  python3 scripts/regen_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "golden"

CASES = {
    "check_psd_id2": (0, ["check-psd", "id2.json"]),
    "check_psd_indefinite": (1, ["check-psd", "indefinite2.json"]),
    "block_check_psd": (0, ["block-check", "partition_psd.json"]),
    "block_check_bad": (1, ["block-check", "partition_bad.json"]),
    "stormer_check_pass": (0, ["stormer-check", "--a1", "id2.json", "--a2", "diag_1i.json"]),
    "stormer_check_fail": (1, ["stormer-check", "--a1", "id2.json", "--a2", "nilpotent2.json"]),
    "decompose_pass": (0, ["decompose", "--a1", "id2.json", "--a2", "diag_1i.json"]),
    "decompose_fail": (1, ["decompose", "--a1", "id2.json", "--a2", "nilpotent2.json"]),
    "decompose_degenerate": (0, ["decompose", "--a1", "singular2.json", "--a2", "singular2.json"]),
    "make_state_identity": (0, ["make-state", "--a1", "id2.json", "--a2", "id2.json"]),
    "ppt_check_bell": (1, ["ppt-check", "--state", "bell4.json", "--n", "2", "--d", "2"]),
    "map_test_transpose": (0, ["map-test", "--map", "transpose", "--trials", "50", "--d", "2"]),
    "map_test_kraus": (0, ["map-test", "--map", "kraus_map.json", "--trials", "50"]),
    "selftest": (0, ["selftest"]),
}


def expand(argv):
    """A case's argv with each ``*.json`` fixture name resolved against FIXTURES."""
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


def run_case(argv):
    """Run the CLI on a case's argv with ``--json`` in a fresh interpreter,
    in which any warning is an error.  The checkout's ``src/`` comes first on
    the child's path, so no install is needed."""
    cmd = [sys.executable, "-W", "error", "-m", "stormer_kit.cli", *expand(argv), "--json"]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env)


def main() -> None:
    """Run every case, then write the golden files whose bytes change and
    print their names; a file that already holds its report is left as it
    is, so an intended change shows as exactly the files it changes."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (expected_code, argv) in CASES.items():
        proc = run_case(argv)
        if proc.returncode != expected_code:
            print(f"FAIL {name}: exit {proc.returncode} != {expected_code}\n{proc.stderr}")
            raise SystemExit(1)
        out = GOLDEN / f"{name}.json"
        if not out.exists() or out.read_text() != proc.stdout:
            out.write_text(proc.stdout)
            print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
