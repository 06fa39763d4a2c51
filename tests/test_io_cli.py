import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stormer_kit import InputError, OperatorBlockMatrix
from stormer_kit.io import (
    block_from_payload,
    block_to_payload,
    load_map_spec,
    matrix_from_payload,
    matrix_to_payload,
)
from stormer_kit.sampling import ginibre

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

GOLDEN_CASES = {
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


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "stormer_kit.cli", *argv],
        capture_output=True,
        text=True,
    )


def expand(argv):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


def test_matrix_payload_roundtrip_exact():
    rng = np.random.default_rng(0)
    m = ginibre(rng, 4, 3)
    payload = json.loads(json.dumps(matrix_to_payload(m)))
    np.testing.assert_array_equal(matrix_from_payload(payload), m)


def test_block_payload_roundtrip_exact():
    rng = np.random.default_rng(1)
    x = OperatorBlockMatrix(ginibre(rng, 6, 6).reshape(2, 2, 3, 3))
    payload = json.loads(json.dumps(block_to_payload(x)))
    np.testing.assert_array_equal(block_from_payload(payload).blocks, x.blocks)


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
        {"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]},
        [1, 2, 3],
    ],
)
def test_matrix_payload_rejects_malformed(payload):
    with pytest.raises(InputError):
        matrix_from_payload(payload)


def test_block_payload_rejects_malformed():
    with pytest.raises(InputError):
        block_from_payload({"n": 2, "d": 1, "blocks": []})
    with pytest.raises(InputError):
        block_from_payload(
            {"n": 1, "d": 2, "blocks": [[{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}]]}
        )


def test_load_map_spec_named_and_files():
    assert load_map_spec("identity").name == "identity"
    assert load_map_spec("transpose").name == "transpose"
    assert load_map_spec("choi3").input_dim == 3
    phi = load_map_spec(str(FIXTURES / "kraus_map.json"))
    assert phi.kind == "sum" and phi.input_dim == 2
    with pytest.raises(InputError):
        load_map_spec(str(FIXTURES / "truncated.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    expected_code, argv = GOLDEN_CASES[name]
    proc = run_cli(*expand(argv), "--json")
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()


def test_reports_are_byte_identical_across_runs():
    argv = expand(["decompose", "--a1", "id2.json", "--a2", "diag_1i.json", "--json"])
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout and first.returncode == second.returncode


def test_embedded_artifacts_reparse_to_full_precision():
    proc = run_cli(*expand(["make-state", "--a1", "id2.json", "--a2", "diag_1i.json", "--json"]))
    report = json.loads(proc.stdout)
    state = matrix_from_payload(report["artifacts"]["state"])
    reparsed = matrix_from_payload(json.loads(json.dumps(report["artifacts"]["state"])))
    np.testing.assert_array_equal(state, reparsed)


def test_human_readable_output():
    proc = run_cli(*expand(["check-psd", "id2.json"]))
    assert proc.returncode == 0
    assert "verdict: true" in proc.stdout
    assert "min_eig" in proc.stdout


def test_exit_code_2_on_malformed_inputs():
    assert run_cli(*expand(["check-psd", "truncated.json"])).returncode == 2
    assert run_cli("check-psd", str(FIXTURES / "does_not_exist.json")).returncode == 2
    proc = run_cli(*expand(["stormer-check", "--block", "block_nonherm.json"]))
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert run_cli(*expand(["stormer-check", "--a1", "id2.json"])).returncode == 2
    # dimension mismatch between the two operators
    assert run_cli(*expand(["stormer-check", "--a1", "id2.json", "--a2", "bell4.json"])).returncode == 2
    assert run_cli(*expand(["map-test", "--map", "nope"])).returncode == 2
    # dimension-agnostic map without --d
    assert run_cli("map-test", "--map", "identity", "--trials", "5").returncode == 2
    # a run of no trials has no verdict
    for trials in ("0", "-3"):
        proc = run_cli("map-test", "--map", "transpose", "--d", "2", "--trials", trials, "--json")
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error:")


def test_diagnostics_go_to_stderr_not_stdout():
    proc = run_cli(*expand(["check-psd", "truncated.json"]))
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
