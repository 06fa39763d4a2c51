#!/usr/bin/env python3
"""Write the CLI input fixtures used by the golden tests.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit.io import block_to_payload, matrix_to_payload
from stormer_kit.sampling import find_nontrivial_block, ginibre
from stormer_kit.stormer import OperatorBlockMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def dump(name: str, payload) -> None:
    path = FIXTURES / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    dump("id2.json", matrix_to_payload(np.eye(2)))
    dump("indefinite2.json", matrix_to_payload(np.array([[1.0, 2.0], [2.0, 1.0]])))
    dump("diag_1i.json", matrix_to_payload(np.diag([1.0, 1j])))
    dump("nilpotent2.json", matrix_to_payload(np.array([[0.0, 1.0], [0.0, 0.0]])))
    dump("singular2.json", matrix_to_payload(np.diag([1.0, 0.0])))

    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    dump("bell4.json", matrix_to_payload(bell))

    # PSD partition: split of an integer Gram matrix
    g = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    m = g @ g.T
    dump(
        "partition_psd.json",
        {
            "A": matrix_to_payload(m[:2, :2]),
            "B": matrix_to_payload(m[:2, 2:]),
            "C": matrix_to_payload(m[2:, 2:]),
        },
    )
    dump(
        "partition_bad.json",
        {
            "A": matrix_to_payload(m[:2, :2]),
            "B": matrix_to_payload(3.0 * m[:2, 2:]),
            "C": matrix_to_payload(m[2:, 2:]),
        },
    )

    # a block file whose assembled matrix is not Hermitian
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = blocks[1, 1] = np.eye(2)
    blocks[0, 1] = np.array([[0.0, 1.0], [0.0, 0.0]])
    dump("block_nonherm.json", block_to_payload(OperatorBlockMatrix(blocks)))

    # small decomposable map spec (fixed integer-friendly Kraus data)
    rng = np.random.default_rng(2024)
    ks = [np.round(ginibre(rng, 3, 2), 3) for _ in range(2)]
    ls = [np.round(ginibre(rng, 3, 2), 3) for _ in range(2)]
    dump(
        "kraus_map.json",
        {
            "kind": "kraus",
            "cp": [matrix_to_payload(k) for k in ks],
            "cocp": [matrix_to_payload(k) for k in ls],
        },
    )

    (FIXTURES / "truncated.json").write_text('{"rows": 2, "cols": 2, "data": [[1.0,')
    print(f"wrote {FIXTURES / 'truncated.json'}")

    # well-formed JSON with the wrong types: block rows that are not lists,
    # JSON booleans as matrix entries, and dimensions that are not integers
    one = matrix_to_payload(np.eye(1))
    dump("block_row_scalar.json", {"n": 1, "d": 1, "blocks": [5]})
    dump("block_row_object.json", {"n": 1, "d": 1, "blocks": [{"0": one}]})
    dump("bool_entries.json", {"rows": 1, "cols": 1, "data": [[True, False]]})
    dump("nonint_dims.json", {"rows": True, "cols": 1.9, "data": [[1.0, 0.0]]})
    # a JSON integer of 401 digits, too large for a double
    dump("huge_int_entry.json", {"rows": 1, "cols": 1, "data": [[10**400, 0]]})

    # a 1 x 1 operator whose Gram block overflows double precision
    dump("huge1.json", matrix_to_payload(np.array([[1e200]])))
    # finite entries whose spectrum (2e308) overflows double precision
    dump("overflow2.json", matrix_to_payload(np.full((2, 2), 1e308)))
    # entries of 1e308 as a partition, a block file and a 4 x 4 state, and a
    # Kraus map whose images overflow double precision
    big = matrix_to_payload(np.array([[1e308]]))
    dump("overflow_partition.json", {"A": big, "B": big, "C": big})
    big_block = OperatorBlockMatrix(np.full((2, 2, 1, 1), 1e308))
    dump("overflow_block.json", block_to_payload(big_block))
    dump("overflow4.json", matrix_to_payload(np.full((4, 4), 1e308)))
    dump(
        "overflow_kraus.json",
        {"kind": "kraus", "cp": [matrix_to_payload(1e200 * np.eye(2))], "cocp": []},
    )
    # unit-trace 4 x 4 states with 1e308 in the corners: Hermitian, whose
    # Hermitian part overflows, and with opposite corners, whose residual
    # m - m* overflows
    corners = np.diag([0.25] * 4)
    corners[0, 3] = corners[3, 0] = 1e308
    dump("overflow_state4.json", matrix_to_payload(corners))
    corners[3, 0] = -1e308
    dump("overflow_residual4.json", matrix_to_payload(corners))

    # a pair whose Gram block and both spectra are finite (it passes
    # stormer-check) but whose ratio operator 1e300 diag(1, i) has a
    # self-commutator that overflows double precision
    dump("tiny2.json", matrix_to_payload(1e-150 * np.eye(2)))
    dump("huge_ratio2.json", matrix_to_payload(1e150 * np.diag([1.0, 1j])))

    # I + eps i F, with F the flip on C^2 (x) C^2: Hermitian within tolerance
    # at the default thresholds, PSD with both spectra at 1, while the partial
    # transpose doubles the residual (F's swap has norm 2).  As a block file
    # (eps = 0.75e-9), and as a state I/4 + eps i F (eps = 0.25e-10) for
    # ppt-check at tighter tolerances.
    flip = np.eye(4)[[0, 2, 1, 3]]
    flip_block = OperatorBlockMatrix.from_assembled(np.eye(4) + 0.75e-9j * flip, 2)
    dump("flip_block.json", block_to_payload(flip_block))
    dump("flip_state.json", matrix_to_payload(np.eye(4) / 4 + 0.25e-10j * flip))

    # nontriviality instance: two-sided-positive block with a failing summand
    x, rows, k = find_nontrivial_block(seed=0, d=2)
    dump(
        "nontrivial_block.json",
        {
            "seed": 0,
            "summand_index": int(k),
            "block": block_to_payload(x),
            "rows": [matrix_to_payload(rows[i]) for i in range(rows.shape[0])],
        },
    )


if __name__ == "__main__":
    main()
