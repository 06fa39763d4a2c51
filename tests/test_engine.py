"""The stacked necessity engine against its per-trial reference.

The engine draws, maps and diagonalizes all trials of a call as one stack;
every trial keeps the arithmetic it had when run alone, so reports must equal
the reference exactly, not approximately.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stormer_kit import (
    DimensionError,
    DomainError,
    choi_fixture,
    choi_matrix,
    identity_map,
    make_decomposable,
    map_from_choi,
    theorem1_necessity_trial,
    transpose_map,
)
from stormer_kit import maps as maps_module
from stormer_kit.sampling import (
    ginibre,
    random_normal_operator,
    random_stormer_block,
    random_stormer_blocks,
    random_stormer_pair,
    random_stormer_pairs,
    uniform_disk,
)

from helpers import (
    CASES,
    expand,
    lapack_calls,
    oracle_apply,
    oracle_block,
    oracle_disk,
    oracle_necessity,
    oracle_normal_operator,
    oracle_pair,
)


def _kraus(rng, k, l, count):
    return [ginibre(rng, l, k) for _ in range(count)]


def engine_maps():
    """(label, map, d): every map kind, Kraus maps with l != k."""
    rng = np.random.default_rng(20)
    dec = make_decomposable(_kraus(rng, 3, 2, 2), _kraus(rng, 3, 2, 1))
    return [
        ("identity", identity_map(), 3),
        ("transpose", transpose_map(), 2),
        ("cp", make_decomposable(_kraus(rng, 2, 4, 2), []), 2),
        ("cocp", make_decomposable([], _kraus(rng, 4, 3, 3)), 4),
        ("cp+cocp", dec, 3),
        ("choi_raw", map_from_choi(choi_matrix(dec), 3), 3),
        ("kraus_cp", make_decomposable(_kraus(rng, 2, 3, 2), []), 2),
        ("kraus_cocp", make_decomposable([], _kraus(rng, 2, 2, 2)), 2),
        ("choi3", choi_fixture(), 3),
    ]


ENGINE_MAPS = engine_maps()


@pytest.mark.parametrize("trials", [1, 7, 300])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label,phi,d", ENGINE_MAPS[:6], ids=[m[0] for m in ENGINE_MAPS[:6]])
def test_engine_equals_per_trial_reference(label, phi, d, n, trials):
    rep = theorem1_necessity_trial(phi, seed=31 + n, trials=trials, n=n, d=d)
    violations, worst = oracle_necessity(phi, seed=31 + n, trials=trials, n=n, d=d)
    assert (rep.violations, rep.worst_min_eig) == (violations, worst)
    assert (rep.trials, rep.n, rep.d) == (trials, n, d)


def test_reference_trial_counts_cross_a_stack_boundary():
    assert 7 < maps_module._TRIAL_CHUNK < 300


def test_engine_counts_violations_like_reference():
    # A random Hermitian Choi matrix gives a map that is not positive: some
    # trials violate and some do not.
    rng = np.random.default_rng(22)
    h = ginibre(rng, 6)
    phi = map_from_choi(h + h.conj().T + 3.0 * np.eye(6), 2)
    for n in (2, 3):
        rep = theorem1_necessity_trial(phi, seed=4, trials=300, n=n, d=2)
        assert 0 < rep.violations < 300
        assert (rep.violations, rep.worst_min_eig) == oracle_necessity(
            phi, seed=4, trials=300, n=n, d=2
        )


@pytest.mark.parametrize("label,phi,d", ENGINE_MAPS, ids=[m[0] for m in ENGINE_MAPS])
def test_stacked_apply_equals_per_matrix_apply(label, phi, d):
    rng = np.random.default_rng(21)
    x = ginibre(rng, 4 * 3 * 3 * d, d).reshape(4, 3, 3, d, d)
    stacked = phi.apply(x)
    for idx in np.ndindex(x.shape[:3]):
        assert np.array_equal(stacked[idx], phi.apply(x[idx]))
        assert np.array_equal(stacked[idx], oracle_apply(phi, x[idx]))


def test_apply_rejects_bad_stacks():
    with pytest.raises(DimensionError):
        transpose_map().apply(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        choi_fixture().apply(np.zeros((5, 2, 2)))
    with pytest.raises(DomainError):
        identity_map().apply(np.full((2, 2, 2), np.nan))


def test_count_one_samplers_match_reference():
    # From d = 2 on: numpy multiplies length-1 complex operands in a loop
    # whose rounding depends on the operands' layout.
    for d in (2, 3, 5):
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            pair = random_stormer_pair(rng, d)
            a1, a2 = oracle_pair(ref, d)
            assert np.array_equal(pair.a1, a1) and np.array_equal(pair.a2, a2)
    for n, d, boundary in [(2, 2, None), (3, 3, None), (4, 2, None), (3, 2, 0.05)]:
        rng, ref = np.random.default_rng(n * d), np.random.default_rng(n * d)
        for _ in range(20):
            x = random_stormer_block(rng, n, d, boundary)
            assert np.array_equal(x.blocks, oracle_block(ref, n, d, boundary))
    for d in (2, 3, 5):
        rng, ref = np.random.default_rng(10 + d), np.random.default_rng(10 + d)
        for center, radius in [(1.5, 1.0), (0.0, 2.5)]:
            for count in (1, d, 7):
                got = uniform_disk(rng, count, center, radius)
                assert np.array_equal(got, oracle_disk(ref, count, center, radius))
            got = random_normal_operator(rng, d, center, radius)
            assert np.array_equal(got, oracle_normal_operator(ref, d, center, radius))
        assert rng.random() == ref.random()


def test_stacked_samplers_consume_the_stream_like_single_draws():
    stacked, single = np.random.default_rng(5), np.random.default_rng(5)
    a1, a2 = random_stormer_pairs(stacked, 30, 3)
    for t in range(30):
        pair = random_stormer_pair(single, 3)
        assert np.array_equal(a1[t], pair.a1) and np.array_equal(a2[t], pair.a2)
    blocks = random_stormer_blocks(stacked, 30, 3, 2)
    for t in range(30):
        assert np.array_equal(blocks[t], random_stormer_block(single, 3, 2).blocks)
    assert stacked.random() == single.random()


# (d, cond_max, seed): the reference rejects the first a1 candidate of the
# stream seeded by ``seed``.
_REJECTING = [(2, 10.0, 5), (3, 50.0, 335)]


@pytest.mark.parametrize("count", [1, 7, 60])
@pytest.mark.parametrize("d,cond_max,seed", _REJECTING, ids=["d2", "d3"])
def test_rejected_candidates_leave_the_stream_as_single_draws_do(d, cond_max, seed, count):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    a1, a2 = random_stormer_pairs(rng, count, d, cond_max)
    with lapack_calls(("cond",)) as calls:
        want = [oracle_pair(ref, d, cond_max) for _ in range(count)]
    assert calls["cond"] > count  # the reference redrew at least one a1
    for t, (w1, w2) in enumerate(want):
        assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
    assert rng.random() == ref.random()


def test_stacked_samplers_cross_a_stack_boundary_like_the_reference():
    count = maps_module._TRIAL_CHUNK + 9
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    a1, a2 = random_stormer_pairs(rng, count, 2)
    blocks = random_stormer_blocks(rng, count, 3, 2)
    for t in range(count):
        w1, w2 = oracle_pair(ref, 2)
        assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
    for t in range(count):
        assert np.array_equal(blocks[t], oracle_block(ref, 3, 2))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("trials", [0, -3])
def test_necessity_rejects_non_positive_trials(trials):
    with pytest.raises(DomainError):
        theorem1_necessity_trial(transpose_map(), trials=trials, n=2, d=2)


def test_necessity_eigvalsh_calls_do_not_grow_with_trials():
    counts = []
    for trials in (20, 200):
        with lapack_calls() as calls:
            theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=3, d=3)
        counts.append(calls["eigvalsh"])
    # one stacked call for the swap floors, one for the images
    assert counts == [2, 2]


def test_necessity_tests_each_stack_of_pairs_with_one_cond_call():
    counts = []
    for trials in (20, 200):
        with lapack_calls(("cond",)) as calls:
            theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=2, d=3)
        counts.append(calls["cond"])
    # one stacked rejection test; no a1 candidate of these streams is rejected
    assert counts == [1, 1]


# Commands run in one process after the import check: each must leave scipy
# unimported, since the package does not use it.
_NO_SCIPY_RUNS = [
    ["decompose", "--a1", "id2.json", "--a2", "diag_1i.json"],
    ["decompose", "--a1", "singular2.json", "--a2", "singular2.json"],
    ["make-state", "--a1", "id2.json", "--a2", "id2.json"],
    ["selftest"],
]

# The package modules a fresh process has loaded after ``cli.main`` runs a
# command, which counts modules, not time: cli, errors, io and linalg, plus
# what the command itself uses.
_CLI_BASE = {"cli", "errors", "io", "linalg"}
_CLI_MODULES = {
    "check-psd": _CLI_BASE,
    "block-check": _CLI_BASE | {"blocks"},
    "stormer-check": _CLI_BASE | {"stormer"},
    "decompose": _CLI_BASE | {"stormer"},
    "make-state": _CLI_BASE | {"states", "stormer"},
    "ppt-check": _CLI_BASE | {"states", "stormer"},
    "map-test": _CLI_BASE | {"maps", "sampling", "stormer"},
    "selftest": _CLI_BASE
    | {"blocks", "maps", "sampling", "selftest", "states", "stormer"},
}

# Prints, as JSON lines: after ``import stormer_kit``, after importing its
# cli, and after running ``cli.main`` on each argv in RUNS, the loaded
# package submodules, whether numpy and scipy are loaded, and the
# OPENBLAS_NUM_THREADS the process sees.
_FOOTPRINT_CHILD = """
import contextlib, io, json, os, sys
def state(code=None):
    mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("stormer_kit."))
    print(json.dumps([code, mods, "numpy" in sys.modules, "scipy" in sys.modules,
                      os.environ.get("OPENBLAS_NUM_THREADS")]))
import stormer_kit
state()
from stormer_kit import cli
state()
for argv in RUNS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    state(code)
"""


def _footprint(runs, openblas_threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    code = f"RUNS = {[expand(argv) for argv in runs]!r}\n" + _FOOTPRINT_CHILD
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_leaves_scipy_linalg_unloaded():
    package, imported, *runs = _footprint(_NO_SCIPY_RUNS)
    # the package alone loads no submodule and no numpy, and its cli adds
    # nothing but its errors
    assert package == [None, [], False, False, None]
    assert imported == [None, ["cli", "errors"], False, False, None]
    assert [r[0] for r in runs] == [0] * len(_NO_SCIPY_RUNS)
    assert not any(r[3] for r in runs)
    # the CLI asked for one BLAS thread before numpy loaded
    assert runs[0][4] == "1"


def test_cli_leaves_a_preset_blas_thread_count_alone():
    *_, run = _footprint([["check-psd", "id2.json"]], openblas_threads="2")
    assert run == [0, sorted(_CLI_MODULES["check-psd"]), True, False, "2"]


def test_every_golden_command_has_a_module_footprint():
    assert {argv[0] for _, argv in CASES.values()} == set(_CLI_MODULES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_loads_only_the_modules_its_command_uses(name):
    expected_code, argv = CASES[name]
    *_, (code, mods, _, _, threads) = _footprint([argv])
    assert code == expected_code
    assert mods == sorted(_CLI_MODULES[argv[0]])
    assert threads == "1"
