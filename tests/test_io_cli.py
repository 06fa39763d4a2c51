import ast
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stormer_kit import (
    InputError,
    OperatorBlockMatrix,
    OperatorPair,
    choi_matrix,
    gram_block,
    swap_block,
)
from stormer_kit import cli
from stormer_kit.io import (
    block_from_payload,
    block_to_payload,
    load_map_spec,
    load_matrix,
    load_partition_blocks,
    matrix_from_payload,
    matrix_to_payload,
)
from stormer_kit.sampling import ginibre

from helpers import (
    CASES,
    FIXTURES,
    GOLDEN,
    expand,
    lapack_calls,
    load_script,
    min_eig,
    run_case,
    run_cli_inprocess,
)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "stormer_kit.cli", *argv],
        capture_output=True,
        text=True,
    )


# Malformed inputs: each must exit 2 with an ``error:`` line on stderr and
# nothing on stdout.
MALFORMED = [
    ["check-psd", "truncated.json"],
    ["check-psd", "does_not_exist.json"],
    ["stormer-check", "--block", "block_nonherm.json"],
    ["stormer-check", "--a1", "id2.json"],
    # dimension mismatch between the two operators
    ["stormer-check", "--a1", "id2.json", "--a2", "bell4.json"],
    ["map-test", "--map", "nope"],
    # dimension-agnostic map without --d
    ["map-test", "--map", "identity", "--trials", "5"],
    # a run of no trials has no verdict
    ["map-test", "--map", "transpose", "--d", "2", "--trials", "0"],
    ["map-test", "--map", "transpose", "--d", "2", "--trials", "-3"],
    # trial blocks of no size
    ["map-test", "--map", "transpose", "--d", "2", "--n", "0"],
    ["map-test", "--map", "transpose", "--d", "0"],
    # block rows that are not lists
    ["stormer-check", "--block", "block_row_scalar.json"],
    ["stormer-check", "--block", "block_row_object.json"],
    # a block file whose d disagrees with its blocks, checked before any
    # array of that d is allocated
    ["stormer-check", "--block", "block_huge_d.json"],
    # a block file and a pair at once
    ["stormer-check", "--block", "flip_block.json", "--a1", "id2.json", "--a2", "id2.json"],
    # JSON booleans are not numbers
    ["check-psd", "bool_entries.json"],
    # an integer entry too large for a double
    ["check-psd", "huge_int_entry.json"],
    # matrix dimensions that are a boolean and a float
    ["check-psd", "nonint_dims.json"],
    # state dims of no size whose product still matches the matrix
    ["ppt-check", "--state", "bell4.json", "--n", "-2", "--d", "-2"],
    # operators whose Gram block overflows double precision
    ["decompose", "--a1", "huge1.json", "--a2", "huge1.json"],
    ["stormer-check", "--a1", "huge1.json", "--a2", "huge1.json"],
    ["make-state", "--a1", "huge1.json", "--a2", "huge1.json"],
    # finite entries whose spectrum overflows double precision
    ["check-psd", "overflow2.json"],
    ["check-psd", "overflow2.json", "--json"],
    ["block-check", "overflow_partition.json"],
    ["block-check", "overflow_partition.json", "--json"],
    ["stormer-check", "--block", "overflow_block.json"],
    ["stormer-check", "--block", "overflow_block.json", "--json"],
    # a pair that passes stormer-check, but whose ratio operator's
    # self-commutator overflows double precision
    ["decompose", "--a1", "tiny2.json", "--a2", "huge_ratio2.json"],
    ["make-state", "--a1", "tiny2.json", "--a2", "huge_ratio2.json"],
    # a state whose trace overflows double precision
    ["ppt-check", "--state", "overflow4.json", "--n", "2", "--d", "2"],
    # unit-trace states whose Hermitian part, or whose residual, overflows
    ["ppt-check", "--state", "overflow_state4.json", "--n", "2", "--d", "2"],
    ["ppt-check", "--state", "overflow_residual4.json", "--n", "2", "--d", "2"],
    # a Kraus map whose images overflow double precision
    ["map-test", "--map", "overflow_kraus.json", "--trials", "5"],
    # tolerances that are not finite and nonnegative
    ["check-psd", "id2.json", "--tol-abs", "nan"],
    ["check-psd", "id2.json", "--tol-abs", "nan", "--json"],
    ["check-psd", "id2.json", "--tol-abs", "inf"],
    ["check-psd", "id2.json", "--tol-rel", "-1"],
    ["selftest", "--tol-rel=-inf"],
    # a pseudoinverse cutoff that is not finite and nonnegative
    ["check-psd", "id2.json", "--rcond", "inf", "--json"],
    ["check-psd", "id2.json", "--rcond", "nan"],
    ["decompose", "--a1", "id2.json", "--a2", "diag_1i.json", "--rcond", "-1"],
    # negative seeds and witness budgets
    ["map-test", "--map", "transpose", "--d", "2", "--seed", "-1"],
    ["check-psd", "id2.json", "--seed", "-1"],
    ["map-test", "--map", "transpose", "--d", "2", "--witness-budget", "-1"],
]


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
        {"rows": 1, "cols": 1, "data": [[0.0, -(10**400)]]},
        [1, 2, 3],
        {"rows": 1, "cols": 1, "data": [[True, False]]},
        # dimensions must be JSON integers, not booleans, floats or strings
        {"rows": True, "cols": 1.9, "data": [[1.0, 0.0]]},
        {"rows": 1.0, "cols": 1, "data": [[1.0, 0.0]]},
        {"rows": 1, "cols": True, "data": [[1.0, 0.0]]},
        {"rows": "1", "cols": 1, "data": [[1.0, 0.0]]},
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
    for rows in ([5], [{"0": matrix_to_payload(np.eye(1))}], ["x"]):
        with pytest.raises(InputError):
            block_from_payload({"n": 1, "d": 1, "blocks": rows})
    one = [[matrix_to_payload(np.eye(1))]]
    for n, d in ((1.5, True), (True, 1), (1, 1.0), (1.0, 1), (1, None)):
        with pytest.raises(InputError):
            block_from_payload({"n": n, "d": d, "blocks": one})
    with pytest.raises(InputError, match="block payload must be a JSON object"):
        block_from_payload(one)
    for n, d in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(InputError, match="block counts must be positive"):
            block_from_payload({"n": n, "d": d, "blocks": []})


def test_integer_fields_name_the_field_and_its_value(tmp_path):
    one = matrix_to_payload(np.eye(1))
    with pytest.raises(InputError, match=r"field 'cols' must be an integer, got 1\.0$"):
        matrix_from_payload({"rows": 1, "cols": 1.0, "data": one["data"]})
    with pytest.raises(InputError, match=r"field 'n' must be an integer, got True$"):
        block_from_payload({"n": True, "d": 1, "blocks": [[one]]})
    spec = tmp_path / "choi.json"
    spec.write_text(json.dumps({"kind": "choi", "choi": matrix_to_payload(np.eye(4)), "input_dim": 2.0}))
    with pytest.raises(InputError, match=r"field 'input_dim' must be an integer, got 2\.0$"):
        load_map_spec(str(spec))


def test_map_test_help_lists_the_named_maps(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit) as caught:
        cli.build_parser().parse_args(["map-test", "--help"])
    assert caught.value.code == 0
    assert "identity | transpose | choi3 | spec file" in capsys.readouterr().out


def test_building_the_parser_loads_no_map_code():
    code = (
        "import sys\n"
        "from stormer_kit.cli import build_parser\n"
        "build_parser()\n"
        "print('stormer_kit.maps' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("payload", [{"A": 1, "B": 2}, [1, 2, 3], {"a": 1, "b": 2, "c": 3}])
def test_partition_file_needs_a_b_and_c(tmp_path, payload):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match="partition file must hold matrix payloads under A, B, C"):
        load_partition_blocks(str(path))


def test_load_map_spec_named_and_files():
    assert load_map_spec("identity").name == "identity"
    assert load_map_spec("transpose").name == "transpose"
    assert load_map_spec("choi3").input_dim == 3
    phi = load_map_spec(str(FIXTURES / "kraus_map.json"))
    assert phi.kind == "sum" and phi.input_dim == 2
    with pytest.raises(InputError):
        load_map_spec(str(FIXTURES / "truncated.json"))


@pytest.mark.parametrize("name", ["choi3", "transpose"])
def test_named_map_spec_resolves_in_the_table(tmp_path, name):
    spec = tmp_path / "named.json"
    spec.write_text(json.dumps({"kind": "named", "name": name}))
    phi = load_map_spec(str(spec))
    assert (phi.kind, phi.name) == ("named", name)


@pytest.mark.parametrize(
    "spec",
    [
        # a named spec resolves only names from the table, never paths
        *(
            {"kind": "named", "name": name}
            for name in ["nope", str(FIXTURES / "kraus_map.json"), 3, None, ["choi3"], {"a": 1}]
        ),
        {"kind": "kraus", "cp": 5},
        {"kind": "kraus", "cp": [], "cocp": []},
        # a spec needs a kind from the table
        {"cp": [matrix_to_payload(np.eye(2))]},
        {"kind": "lindblad", "cp": [matrix_to_payload(np.eye(2))]},
        # input_dim must be a JSON integer
        *(
            {"kind": "choi", "choi": matrix_to_payload(np.eye(4)), "input_dim": dim}
            for dim in [True, 2.0, 2.5, "2", None]
        ),
    ],
)
def test_map_spec_rejects_malformed(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(InputError):
        load_map_spec(str(path))


def test_self_referencing_named_map_spec_is_an_input_error(tmp_path):
    spec = tmp_path / "self.json"
    spec.write_text(json.dumps({"kind": "named", "name": str(spec)}))
    proc = run_cli("map-test", "--map", str(spec), "--d", "2", "--trials", "5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:"), proc.stderr


def test_every_golden_file_has_a_case_and_every_case_a_file():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports(name):
    expected_code, argv = CASES[name]
    proc = run_case(argv)
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()


def test_golden_cases_run_from_a_checkout_without_an_install(monkeypatch):
    # run_case puts the checkout's src/ on the child's path itself
    monkeypatch.delenv("PYTHONPATH", raising=False)
    expected_code, argv = CASES["check_psd_id2"]
    proc = run_case(argv)
    assert proc.returncode == expected_code, proc.stderr
    assert proc.stdout == (GOLDEN / "check_psd_id2.json").read_text()


# eigvalsh calls per golden case: every spectrum a report prints is the one
# its verdict was read off, so no command diagonalizes a matrix twice.
GOLDEN_EIGVALSH = {
    "check_psd_id2": 1,
    "check_psd_indefinite": 1,
    # the assembled oracle: the factorization reads A's and C's checks off
    # the eigendecompositions that factor them
    "block_check_psd": 1,
    "block_check_bad": 1,
    # the two sides of the two-sided test
    "stormer_check_pass": 2,
    "stormer_check_fail": 2,
    "decompose_pass": 2,
    "decompose_fail": 2,
    "decompose_degenerate": 2,
    # the two sides, the state's validation, the partial transpose
    "make_state_identity": 4,
    # the state's validation, the partial transpose
    "ppt_check_bell": 2,
    # the two probes, then the other trial images: all of them for the
    # transpose map's rank-deficient Gram images, those the shifted
    # Cholesky does not clear for the Kraus map's
    "map_test_transpose": 2,
    "map_test_kraus": 2,
}


def test_every_golden_case_but_the_selftest_has_an_eigvalsh_count():
    assert set(GOLDEN_EIGVALSH) == set(CASES) - {"selftest"}


@pytest.mark.parametrize("name", sorted(GOLDEN_EIGVALSH))
def test_golden_cases_diagonalize_each_spectrum_once(name):
    expected_code, argv = CASES[name]
    with lapack_calls(("eigvalsh",)) as calls:
        code, out, err = run_cli_inprocess([*expand(argv), "--json"])
    assert (code, out) == (expected_code, (GOLDEN / f"{name}.json").read_text()), err
    assert calls["eigvalsh"] == GOLDEN_EIGVALSH[name]


def test_stormer_check_reports_both_sides_when_the_direct_side_fails(tmp_path):
    h = ginibre(np.random.default_rng(12), 4)
    x = OperatorBlockMatrix.from_assembled(h + h.conj().T, 2)  # Hermitian, indefinite
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block_to_payload(x)))
    with lapack_calls(("eigvalsh",)) as calls:
        code, out, err = run_cli_inprocess(["stormer-check", "--block", str(path), "--json"])
    assert (code, err) == (1, "")
    direct, swapped = min_eig(x.assembled()), min_eig(swap_block(x).assembled())
    assert direct < -1e-3
    assert json.loads(out)["metrics"] == {"min_eig_direct": direct, "min_eig_swapped": swapped}
    assert calls["eigvalsh"] == 2


@pytest.mark.parametrize(
    "a1,a2",
    [
        ("id2.json", "diag_1i.json"),
        ("id2.json", "nilpotent2.json"),
        ("singular2.json", "singular2.json"),
        ("id2.json", "id2.json"),
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_stormer_check_on_a_written_gram_block_reports_as_on_its_pair(tmp_path, a1, a2, as_json):
    # the --block input of a fixture pair's Gram block, written as a block
    # payload, gives the verdict and metrics of --a1/--a2, byte for byte
    pair = OperatorPair(load_matrix(FIXTURES / a1), load_matrix(FIXTURES / a2))
    path = tmp_path / "block.json"
    path.write_text(json.dumps(block_to_payload(gram_block(pair))))
    flag = ["--json"] if as_json else []
    code, out, err = run_cli_inprocess(["stormer-check", "--block", str(path), *flag])
    want = run_cli_inprocess(expand(["stormer-check", "--a1", a1, "--a2", a2, *flag]))
    assert (code, out, err) == want
    assert err == "" and "min_eig_direct" in out


def test_verdicts_agree_with_their_margins_where_a_swap_doubles_the_residual():
    # I + eps i F passes the boundary Hermiticity check; its swap's residual
    # is twice the block's, above the swapped side's threshold, but each side
    # is judged by its Hermitian part's spectrum alone: both read 1.0
    code, out, err = run_cli_inprocess(expand(["stormer-check", "--block", "flip_block.json"]))
    assert (code, err) == (0, "")
    assert "verdict: true" in out
    assert "min_eig_direct = 1.0\n" in out and "min_eig_swapped = 1.0\n" in out
    # the state I/4 + eps i F passes DensityState's fixed bands; at tighter
    # tolerances its partial transpose is not Hermitian within them, and the
    # PPT verdict still reads only the spectrum
    argv = ["ppt-check", "--state", "flip_state.json", "--n", "2", "--d", "2"]
    code, out, err = run_cli_inprocess(expand([*argv, "--tol-abs", "1e-11", "--tol-rel", "1e-12"]))
    assert (code, err) == (0, "")
    assert "verdict: true" in out and "min_eig_partial_transpose = 0.25\n" in out


def test_fixtures_come_from_the_fixture_script(tmp_path, monkeypatch, capsys):
    make_fixtures = load_script("make_fixtures")
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "flip_block.json" in written and "huge_int_entry.json" in written
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_golden_regeneration_writes_only_the_files_whose_bytes_change(
    tmp_path, monkeypatch, capsys
):
    regen = load_script("regen_golden")
    reports = {}
    for name, (code, argv) in CASES.items():
        text = (GOLDEN / f"{name}.json").read_text()
        reports[tuple(argv)] = SimpleNamespace(returncode=code, stdout=text, stderr="")
        (tmp_path / f"{name}.json").write_text(text)
    (tmp_path / "selftest.json").write_text("stale\n")
    (tmp_path / "check_psd_id2.json").unlink()
    stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    monkeypatch.setattr(regen, "ROOT", tmp_path)
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    monkeypatch.setattr(regen, "run_case", lambda argv: reports[tuple(argv)])
    regen.main()
    written = capsys.readouterr().out.splitlines()
    assert written == ["wrote check_psd_id2.json", "wrote selftest.json"]
    for name in CASES:
        assert (tmp_path / f"{name}.json").read_text() == (GOLDEN / f"{name}.json").read_text()
        if name not in ("check_psd_id2", "selftest"):
            assert (tmp_path / f"{name}.json").stat().st_mtime_ns == stamps[f"{name}.json"]


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


def test_readme_decompose_example_prints_the_lines_it_shows():
    readme = (FIXTURES.parents[1] / "README.md").read_text().splitlines()
    start = readme.index(
        "$ stormer-kit decompose --a1 tests/fixtures/id2.json --a2 tests/fixtures/diag_1i.json"
    )
    stop = next(i for i in range(start + 1, len(readme)) if readme[i].startswith("$ "))
    argv = ["decompose", "--a1", "id2.json", "--a2", "diag_1i.json"]
    code, out, err = run_cli_inprocess(expand(argv))
    assert (code, err) == (0, "")
    assert out.splitlines() == readme[start + 1 : stop]
    assert "artifacts: alphas, es, lambdas, phis (use --json for values)" in out.splitlines()


def _choi3_witness_search(budget):
    """README's witness search on choi3, seed 42, at ``budget``."""
    argv = ["map-test", "--map", "choi3", "--n", "3", "--witness-budget", budget]
    return run_cli_inprocess([*argv, "--seed", "42", "--json"])


def test_readme_witness_example_finds_the_frozen_witness():
    code, out, err = _choi3_witness_search("100000")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "false"
    assert report["metrics"]["witness_evaluations"] == 16828
    assert report["metrics"]["witness_min_eig"] == -0.11011249464791724
    frozen = json.loads((FIXTURES / "choi3_witness.json").read_text())
    assert report["artifacts"]["witness"] == frozen["block"]


def test_make_state_of_a_pair_that_fails_the_two_sided_test_is_false():
    code, out, err = run_cli_inprocess(
        expand(["make-state", "--a1", "id2.json", "--a2", "nilpotent2.json", "--json"])
    )
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "false" and report["artifacts"] == {}
    assert report["message"] == "two-sided positivity condition not satisfied"


def test_map_test_of_a_map_that_is_not_positive_is_false(tmp_path):
    # the Choi matrix -I maps x to -tr(x) I: every trial violates
    spec = tmp_path / "negative.json"
    choi = matrix_to_payload(-np.eye(4))
    spec.write_text(json.dumps({"kind": "choi", "choi": choi, "input_dim": 2}))
    code, out, err = run_cli_inprocess(["map-test", "--map", str(spec), "--trials", "5", "--json"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["verdict"] == "false" and report["metrics"]["violations"] == 5


def test_a_kraus_spec_reports_as_the_choi_spec_of_its_choi_matrix(tmp_path):
    phi = load_map_spec(str(FIXTURES / "kraus_map.json"))
    spec = tmp_path / "kraus_choi.json"
    choi = matrix_to_payload(choi_matrix(phi))
    spec.write_text(json.dumps({"kind": "choi", "choi": choi, "input_dim": 2}))
    for n in ("2", "3"):
        argv = ["map-test", "--trials", "300", "--n", n, "--seed", "5", "--json"]
        kraus = run_cli_inprocess([*argv, "--map", str(FIXTURES / "kraus_map.json")])
        assert kraus == run_cli_inprocess([*argv, "--map", str(spec)])
        assert kraus[0] == 0


def test_witness_search_that_exhausts_its_budget_is_inconclusive():
    code, out, err = _choi3_witness_search("300")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["metrics"]["witness_evaluations"] == 300
    assert report["artifacts"] == {}


def test_exit_code_2_on_malformed_inputs():
    for argv in MALFORMED:
        proc = run_cli(*expand(argv))
        assert proc.returncode == 2, argv
        # an input error, not a numpy failure or an internal error
        assert proc.stdout == "" and proc.stderr.startswith("error:"), (argv, proc.stderr)
        assert "Warning" not in proc.stderr, (argv, proc.stderr)


def test_gram_block_overflow_names_the_operators_scale():
    for command in ("decompose", "stormer-check", "make-state"):
        code, out, err = run_cli_inprocess(
            expand([command, "--a1", "huge1.json", "--a2", "huge1.json"])
        )
        assert code == 2 and out == ""
        assert err.startswith("error: Gram block overflows"), err
        assert "1.000e+200" in err


def test_spectrum_overflow_names_the_matrix_scale():
    for argv in (
        ["check-psd", "overflow2.json"],
        ["block-check", "overflow_partition.json"],
        ["stormer-check", "--block", "overflow_block.json"],
        ["ppt-check", "--state", "overflow_state4.json", "--n", "2", "--d", "2"],
    ):
        code, out, err = run_cli_inprocess(expand([*argv, "--json"]))
        assert code == 2 and out == ""
        assert err.startswith("error: spectrum overflows"), (argv, err)
        assert "1.000e+308" in err


def test_commutator_overflow_is_an_input_error_not_a_verdict():
    pair = ["--a1", "tiny2.json", "--a2", "huge_ratio2.json"]
    code, out, err = run_cli_inprocess(expand(["stormer-check", *pair, "--json"]))
    assert (code, err) == (0, "") and json.loads(out)["verdict"] == "true"
    for command in ("decompose", "make-state"):
        code, out, err = run_cli_inprocess(expand([command, *pair]))
        assert code == 2 and out == ""
        # the ratio operator 1e300 diag(1, i)
        assert err.startswith("error: self-commutator overflows"), (command, err)
        assert "1.000e+300" in err


def test_map_image_overflow_names_the_maps_scale():
    code, out, err = run_cli_inprocess(
        expand(["map-test", "--map", "overflow_kraus.json", "--trials", "5"])
    )
    assert code == 2 and out == ""
    assert err.startswith("error: map images overflow"), err
    assert "1.000e+200" in err


def test_golden_cases_reach_no_internal_error():
    for name, (expected_code, argv) in CASES.items():
        code, _, err = run_cli_inprocess([*expand(argv), "--json"])
        assert code == expected_code, name
        assert "internal error" not in err, name


def test_internal_errors_are_labelled_as_such(monkeypatch):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "cmd_check_psd", broken)
    code, out, err = run_cli_inprocess(expand(["check-psd", "id2.json"]))
    assert code == 2 and out == ""
    assert err.startswith("internal error: ZeroDivisionError: division by zero")


def test_diagnostics_go_to_stderr_not_stdout():
    proc = run_cli(*expand(["check-psd", "truncated.json"]))
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


# One case per exit code: a true verdict, a false one, malformed input.
EXIT_CASES = [
    [*CASES["check_psd_id2"][1], "--json"],
    [*CASES["check_psd_indefinite"][1], "--json"],
    MALFORMED[0],
]


def test_script_target_and_main_block_call_the_same_function():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, name = pyproject["project"]["scripts"]["stormer-kit"].split(":")
    target = getattr(importlib.import_module(module), name)
    (main_block,) = [
        node for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(node) for node in main_block.body] == [f"{target.__name__}()"]
    assert target is cli.run


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", EXIT_CASES)
def test_inprocess_main_leaves_the_collector_as_it_found_it(argv, enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        code, _, _ = run_cli_inprocess(expand(argv))
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == EXIT_CASES.index(argv)


@pytest.mark.parametrize("argv", EXIT_CASES)
def test_module_entry_reports_as_inprocess_main(argv):
    proc = run_cli(*expand(argv))
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli_inprocess(expand(argv))
    assert proc.returncode == EXIT_CASES.index(argv)
    assert proc.stderr.startswith("error:") if proc.returncode == 2 else proc.stderr == ""


def test_module_entry_runs_without_the_collector_and_still_runs_atexit():
    child = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = ['stormer-kit', *{expand(EXIT_CASES[0])!r}]\n"
        "runpy.run_module('stormer_kit.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_psd_id2.json").read_text()
    assert proc.stderr == "False True\n"


def test_cli_rate_script_prints_a_time_per_golden_case(capsys):
    script = load_script("cli_rate")
    assert script.main(runs=1) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [*CASES, "bare"]
    assert all(len(row) == 3 and float(row[1]) > 0 and float(row[2]) > 0 for row in rows)
