"""Tests of the benchmark itself (not of stormer_kit).

    python3 -m pytest perfbench/tests

The end-to-end tests run every workload at a short length (about three
minutes in all, mostly the CLI workload and the seed-42 witness replay).
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WITNESS_FIXTURE, load_library  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


_RESULTS: dict = {}


def result(workload: str, trace: int, run: int = 0) -> dict:
    key = (workload, trace, run)
    if key not in _RESULTS:
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines = proc.stdout.splitlines()
        _RESULTS[key] = {"result": json.loads(lines[-1]), "provenance": json.loads(lines[-2])["provenance"]}
    return _RESULTS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = result(workload, trace)["result"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1, 0), result(workload, 1, 1)
    assert first["provenance"]["samples"]["spans"] == second["provenance"]["samples"]["spans"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" or m["name"] == "sampling.pair_accept_ratio"]
    for name in counts:
        assert first["result"]["metrics"][name] == second["result"]["metrics"][name], name


@pytest.mark.parametrize("workload", ["necessity", "decompose"])
def test_lapack_self_share_is_a_share(workload):
    share = result(workload, 1)["result"]["metrics"]["lapack.self_share"]["value"]
    assert 0.0 < share < 1.0


def test_provenance_names_the_environment():
    prov = result("decompose", 0)["provenance"]
    for key in ("revision", "seed", "nproc", "python", "numpy", "scipy", "blas", "blas_threads_env"):
        assert prov[key] not in (None, "")
    tail = prov["samples"]["call_tail_ms"]
    assert tail["samples"] >= 1 and "percentile" in tail


def test_reference_units_use_the_probes_around_each_call():
    from run import Record

    rec = Record()
    rec.durations = [0.010, 0.020, 0.030]
    rec.midpoints = [0.0, 5.0, 10.0]
    rec.probe_at = [0.1, 0.3, 5.2, 20.0]
    rec.reference_s = [0.001, 0.003, 0.002, 0.004]
    rec.cycles = [(0, 1, 10), (1, 3, 10)]
    # Call 0 sees the two probes within half a second, call 1 the one at
    # 5.2 s; call 2 has none that close and takes the nearest, also 5.2 s.
    assert rec.in_reference_units() == pytest.approx([5.0, 10.0, 15.0])
    assert rec.rate(rec.durations) == pytest.approx(statistics.median([10 / 0.010, 10 / 0.050]))


def test_reference_units_are_reported_with_their_seconds():
    samples = result("decompose", 0)["provenance"]["samples"]
    assert samples["reference"]["probes"] >= 1 and samples["reference"]["median_ms"] > 0
    for key in ("work_per_s", "call_p50_ms", "call_tail_ms"):
        assert samples[key]["value"] > 0


def test_every_seed_gives_the_same_mix_of_work():
    from workloads import Decompose, Necessity

    def necessity_shapes(seed):
        return [
            (phi.kind, [k.shape for k in phi.kraus_cp], [k.shape for k in phi.kraus_cocp], np.shape(phi.choi), d, n)
            for phi, d, n in Necessity(ROOT, seed).configs
        ]

    def decompose_shapes(seed):
        return [(kind, *(np.shape(a) for a in args)) for kind, *args in Decompose(ROOT, seed).pool]

    assert necessity_shapes(1) == necessity_shapes(2)
    assert decompose_shapes(1) == decompose_shapes(2)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("necessity", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- checkers reject corrupted outputs ---------------------------------------

def test_cli_check_rejects_flipped_golden_byte():
    golden = (ROOT / "tests/fixtures/golden/check_psd_id2.json").read_bytes()
    assert checks.check_cli(0, golden, 0, golden) == []
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.check_cli(0, golden, 0, bytes(flipped))
    assert checks.check_cli(0, golden, 1, golden)


def _witness_fixture():
    fx = json.loads((ROOT / WITNESS_FIXTURE).read_text())
    return fx, checks.payload_blocks(fx["block"])


def test_witness_check_rejects_block_with_psd_image():
    fx, blocks = _witness_fixture()
    assert checks.check_witness(blocks, True) == []
    # Adding c * identity shifts the choi3 image by 2c * identity.
    shifted = blocks + 0.1 * np.einsum("ij,rc->ijrc", np.eye(3), np.eye(3))
    assert checks.check_witness(shifted, True)
    assert checks.check_witness(blocks, False)


def test_replay_check_rejects_other_search():
    fx, blocks = _witness_fixture()
    assert checks.check_replay(fx["evaluations"], fx["restart"], blocks, fx) == []
    assert checks.check_replay(fx["evaluations"] + 1, fx["restart"], blocks, fx)
    assert checks.check_replay(fx["evaluations"], fx["restart"], blocks + 1e-9, fx)


def test_decompose_checks_reject_wrong_verdicts():
    assert checks.check_decompose_fail({"stormer": False, "error": "DomainError"}) == []
    assert checks.check_decompose_fail({"stormer": True, "error": "DomainError"})
    assert checks.check_decompose_fail({"stormer": False, "error": None})
    a = np.diag([2.0, 1.0]).astype(complex)
    c = np.eye(2, dtype=complex)
    small, large = 0.5 * np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex)
    assert checks.check_partition(a, small, c, True, True, 0.0) == []
    assert checks.check_partition(a, large, c, True, False, 0.0)
    assert checks.check_partition(a, small, c, True, False, 0.0)


def test_decompose_pass_check_rejects_bad_reconstruction():
    sk = load_library(ROOT)
    rng = np.random.default_rng(0)
    a1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a2 = np.diag([1.0, 2.0, 1j]) @ a1
    pair = sk.OperatorPair(a1, a2)
    dec, dual = sk.canonical_decomposition(pair), sk.dual_decomposition(pair)
    rho = sk.state_from_block(sk.gram_block(pair))
    out = {
        "stormer": True, "ppt": True, "degenerate": False,
        "reconstructed": sk.reconstruct_block(dec).blocks,
        "reconstructed_dual": sk.reconstruct_block(dual).blocks,
        "state": rho.matrix, "separable": sk.separable_decomposition(dec),
    }
    assert checks.check_decompose_pass(a1, a2, out) == []
    assert checks.check_decompose_pass(a1, a2, {**out, "ppt": False})
    assert checks.check_decompose_pass(a1, a2, {**out, "reconstructed": out["reconstructed"] * (1 + 1e-6)})


def test_necessity_check_rejects_violation():
    sk = load_library(ROOT)
    ok = sk.NecessityReport(trials=5, violations=0, worst_min_eig=0.1, n=2, d=3)
    assert checks.check_necessity(ok, 5, 2, 3) == []
    assert checks.check_necessity(sk.NecessityReport(5, 1, -0.2, 2, 3), 5, 2, 3)
    assert checks.check_necessity(ok, 6, 2, 3)


# -- tracer --------------------------------------------------------------------

def test_tracer_rebinds_every_import_site_and_restores():
    sk = load_library(ROOT)
    from spans import Tracer

    original = sk.linalg.is_psd
    tracer = Tracer(capture=["linalg.is_psd"])
    tracer.install()
    try:
        assert tracer.missed() == []
        assert sk.stormer.is_psd is sk.linalg.is_psd is sk.is_psd is not original
        x = sk.gram_block(sk.OperatorPair(np.eye(2), np.diag([1.0, 2.0])))
        assert sk.stormer_test(x)
    finally:
        tracer.uninstall()
    assert sk.stormer.is_psd is original and sk.is_psd is original
    stats = tracer.stats
    assert stats["stormer.stormer_test"][0] == 1
    assert stats["linalg.is_psd"][0] == 2  # called from stormer's own binding
    assert stats["lapack.eigvalsh"][0] == 2
    calls, incl, self_ns = stats["stormer.stormer_test"]
    assert 0 <= self_ns <= incl
    replay = tracer.replay()
    assert replay["linalg.is_psd"][0] == 2 and replay["linalg.is_psd"][1] > 0
