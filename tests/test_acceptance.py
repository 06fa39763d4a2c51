"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Randomized criteria use fixed seeds; the witness and
nontriviality criteria replay frozen fixtures produced by the scripts in
``scripts/``.
"""

import contextlib
import io as _io
import json
import time

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    OperatorPair,
    Partition2,
    apply_map_entrywise,
    assemble,
    choi_fixture,
    gram_block,
    gram_row_block,
    identity_map,
    is_hyponormal,
    is_normal,
    is_ppt,
    make_decomposable,
    op_norm,
    psd_oracle,
    psd_via_contraction,
    ratio_operator,
    reconstruct_block,
    canonical_decomposition,
    dual_decomposition,
    separable_decomposition,
    separable_state,
    state_from_block,
    stormer_test,
    swap_block,
    theorem1_necessity_trial,
    transpose_map,
)
from stormer_kit.cli import main as cli_main
from stormer_kit.io import block_from_payload, matrix_from_payload
from stormer_kit.sampling import (
    find_nontrivial_block,
    ginibre,
    random_near_normal,
    random_partition,
    random_stormer_pair,
)

from helpers import CASES, FIXTURES, GOLDEN, hermitize, min_eig, rel_fro


def report(number, name, ok, budget_s, elapsed_s, detail):
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed_s:.2f}s / {budget_s:.0f}s)"
    )
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed_s < budget_s, f"criterion {number} over budget: {elapsed_s:.2f}s"


def test_c01_gram_positivity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(500):
        d = int(rng.integers(1, 9))
        pair = OperatorPair(ginibre(rng, d), ginibre(rng, d))
        w = np.linalg.eigvalsh(gram_block(pair).assembled())
        norm = max(abs(w[0]), abs(w[-1]))
        worst = min(worst, w[0] + 1e-9 * (1.0 + norm))
    report(
        1, "gram-positivity", worst >= 0.0, 5.0, time.time() - start,
        f"500 pairs, worst floor margin {worst:.2e}",
    )


def test_c02_partition_equivalence():
    start = time.time()
    rng = np.random.default_rng(102)
    kinds = ["psd", "inflated", "indefinite", "singular"]
    mismatches = 0
    boundary = 0
    shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(420)]
    shapes += [(2, 3), (3, 5), (4, 2)] * 27  # mandated rectangular shapes
    for trial, (n, k) in enumerate(shapes):
        a, b, c = random_partition(rng, n, k, kinds[trial % 4])
        p = Partition2(a, b, c)
        if psd_via_contraction(p).psd != psd_oracle(p):
            w = np.linalg.eigvalsh(hermitize(assemble(p)))
            band = 2.0 * DEFAULT_TOL.threshold(max(abs(w[0]), abs(w[-1])))
            if abs(w[0]) <= band:
                boundary += 1
            else:
                mismatches += 1
    report(
        2, "partition-equivalence", mismatches == 0, 5.0, time.time() - start,
        f"{len(shapes)} partitions, {mismatches} mismatches, {boundary} boundary-band",
    )


def test_c03_characterization():
    start = time.time()
    rng = np.random.default_rng(103)
    mismatches = 0
    done = 0
    while done < 500:  # two-sided-positive direction
        d = int(rng.integers(2, 9))
        pair = random_stormer_pair(rng, d)
        if not (stormer_test(gram_block(pair)) and is_normal(ratio_operator(pair).matrix)):
            mismatches += 1
        done += 1
    done = 0
    while done < 500:  # non-normal direction
        d = int(rng.integers(2, 9))
        a1 = ginibre(rng, d)
        if np.linalg.cond(a1) > 1e3:
            continue
        t = ginibre(rng, d)
        if is_normal(t):
            continue
        pair = OperatorPair(a1, t @ a1)
        if stormer_test(gram_block(pair)) or is_normal(ratio_operator(pair).matrix):
            mismatches += 1
        done += 1
    report(
        3, "normality-characterization", mismatches == 0, 10.0, time.time() - start,
        f"500 trials per direction, {mismatches} mismatches",
    )


def test_c04_reconstruction():
    start = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        pair = random_stormer_pair(rng, d)
        target = gram_block(pair).assembled()
        rec = reconstruct_block(canonical_decomposition(pair)).assembled()
        worst = max(worst, rel_fro(rec - target, target))
        dual_target = gram_block(pair.swapped()).assembled()
        dual_rec = reconstruct_block(dual_decomposition(pair)).assembled()
        worst = max(worst, rel_fro(dual_rec - dual_target, dual_target))
    report(
        4, "rank-one-reconstruction", worst <= 1e-8, 5.0, time.time() - start,
        f"200 pairs both roles, worst residual {worst:.2e}",
    )


def test_c05_ppt_and_separability():
    start = time.time()
    rng = np.random.default_rng(105)
    worst = 0.0
    all_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 7))
        pair = random_stormer_pair(rng, d)
        rho = state_from_block(gram_block(pair))
        all_ok = all_ok and is_ppt(rho)
        sep = separable_decomposition(canonical_decomposition(pair))
        worst = max(worst, rel_fro(separable_state(sep) - rho.matrix, rho.matrix))
        all_ok = all_ok and bool(np.all(sep.weights > 0))
        all_ok = all_ok and abs(sep.weights.sum() - 1.0) <= 1e-12
        all_ok = all_ok and np.allclose(np.linalg.norm(sep.factor1, axis=1), 1.0, atol=1e-12)
        all_ok = all_ok and np.allclose(np.linalg.norm(sep.factor2, axis=1), 1.0, atol=1e-12)
    report(
        5, "ppt-and-separability", all_ok and worst <= 1e-8, 5.0, time.time() - start,
        f"200 states, worst reassembly {worst:.2e}",
    )


def test_c06_necessity_for_decomposable_maps():
    start = time.time()
    rng = np.random.default_rng(106)
    maps = [("identity", identity_map(), 3), ("transpose", transpose_map(), 3)]
    for i in range(20):  # random CP
        k, l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ops = [ginibre(rng, l, k) for _ in range(int(rng.integers(1, 4)))]
        maps.append((f"cp{i}", make_decomposable(ops, []), k))
    for i in range(20):  # random co-CP
        k, l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ops = [ginibre(rng, l, k) for _ in range(int(rng.integers(1, 4)))]
        maps.append((f"cocp{i}", make_decomposable([], ops), k))
    for i in range(20):  # random decomposable
        k, l = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        cp = [ginibre(rng, l, k) for _ in range(int(rng.integers(1, 3)))]
        cocp = [ginibre(rng, l, k) for _ in range(int(rng.integers(1, 3)))]
        maps.append((f"dec{i}", make_decomposable(cp, cocp), k))

    violations = 0
    worst = np.inf
    for index, (name, phi, d) in enumerate(maps):
        for n in (2, 3):
            rep = theorem1_necessity_trial(
                phi, seed=1000 + index * 2 + n, trials=1000, n=n, d=d
            )
            violations += rep.violations
            worst = min(worst, rep.worst_min_eig)
    ok = violations == 0 and worst >= -1e-8
    report(
        6, "necessity-for-decomposable", ok, 60.0, time.time() - start,
        f"{len(maps)} maps x 2000 trials, {violations} violations, worst {worst:.2e}",
    )


def test_c07_witness_replay():
    start = time.time()
    payload = json.loads((FIXTURES / "choi3_witness.json").read_text())
    assert payload["seed"] == 42 and payload["budget"] == 10**6
    x = block_from_payload(payload["block"])
    direct = x.assembled()
    swapped = swap_block(x).assembled()
    stormer_ok = (
        min_eig(direct) >= -1e-9 * (1.0 + op_norm(direct))
        and min_eig(swapped) >= -1e-9 * (1.0 + op_norm(swapped))
        and stormer_test(x)
    )
    image = apply_map_entrywise(choi_fixture(), x).assembled()
    violation = min_eig(image)
    elapsed = time.time() - start
    ok = stormer_ok and violation <= -1e-6
    report(
        7, "non-decomposability-witness", ok, 1.0, elapsed,
        f"frozen witness (search: {payload['evaluations']} evals), image min eig {violation:.2e}",
    )


def test_c08_nontrivial_summand():
    start = time.time()
    payload = json.loads((FIXTURES / "nontrivial_block.json").read_text())
    x = block_from_payload(payload["block"])
    rows = np.array([matrix_from_payload(r) for r in payload["rows"]])
    k = payload["summand_index"]
    ok = stormer_test(x) and not stormer_test(gram_row_block(rows[k]))
    rebuilt = sum(gram_row_block(rows[i]).assembled() for i in range(rows.shape[0]))
    ok = ok and op_norm(rebuilt - x.assembled()) <= 1e-9 * (1 + op_norm(x.assembled()))
    # the seeded search reproduces the frozen instance
    x2, rows2, k2 = find_nontrivial_block(seed=payload["seed"])
    ok = ok and k2 == k and np.array_equal(x2.blocks, x.blocks)
    report(
        8, "nontrivial-summand", ok, 5.0, time.time() - start,
        f"block passes, summand {k} fails, replayed from seed {payload['seed']}",
    )


def test_c09_hyponormal_implies_normal():
    start = time.time()
    rng = np.random.default_rng(109)
    noises = [0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5]
    accepted = 0
    failures = 0
    while accepted < 500:
        d = int(rng.integers(2, 9))
        t = random_near_normal(rng, d, float(rng.choice(noises)))
        if not is_hyponormal(t):
            continue
        accepted += 1
        if not is_normal(t):
            failures += 1
    report(
        9, "hyponormal-implies-normal", failures == 0, 10.0, time.time() - start,
        f"500 rejection-sampled matrices, {failures} normality failures",
    )


def _run_cli_inprocess(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def test_c10_cli_determinism_and_exit_codes():
    start = time.time()
    ok = True
    detail = "all subcommands byte-identical"
    for name, (expected_code, argv) in CASES.items():
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        code1, out1 = _run_cli_inprocess([*argv, "--json"])
        code2, out2 = _run_cli_inprocess([*argv, "--json"])
        golden = (GOLDEN / f"{name}.json").read_text()
        if not (code1 == code2 == expected_code and out1 == out2 == golden):
            ok = False
            detail = f"case {name}: exit {code1}/{code2} vs {expected_code}, golden match {out1 == golden}"
            break
    if ok:
        code, _ = _run_cli_inprocess(["check-psd", str(FIXTURES / "truncated.json")])
        ok = code == 2
        if not ok:
            detail = "malformed input did not exit 2"
    report(10, "cli-determinism", ok, 5.0, time.time() - start, detail)
