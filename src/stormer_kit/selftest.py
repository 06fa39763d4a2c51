"""Reduced-count invariant suites, runnable from the command line.

Each suite re-derives one of the library's defining properties on seeded
random instances: Gram positivity, agreement of the contraction
factorization with the eigenvalue oracle, the normality characterization,
reconstruction residuals, PPT/separability of constructed states, necessity
of the two-sided condition for decomposable maps, and the basic linear
algebra contracts.
"""

from __future__ import annotations

import numpy as np

from .blocks import Partition2, assemble, psd_via_contraction
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _cond,
    _psd_check,
    _psd_spectrum,
    _rel_fro,
    adjoint,
    is_contraction,
    is_hyponormal,
    is_normal,
    is_psd,
    op_norm,
    pinv,
    sqrt_psd,
)
from .maps import identity_map, theorem1_necessity_trial, transpose_map
from .sampling import (
    ginibre,
    random_near_normal,
    random_partition,
    random_rank_deficient,
    random_stormer_pair,
)
from .states import is_ppt, separable_decomposition, separable_state, state_from_block
from .stormer import (
    OperatorPair,
    canonical_decomposition,
    dual_decomposition,
    gram_block,
    ratio_operator,
    reconstruct_block,
    stormer_test,
)

__all__ = ["run_selftest"]


def _suite_gram_positivity(rng, tol):
    worst = np.inf
    for _ in range(40):
        d = int(rng.integers(2, 7))
        a1, a2 = ginibre(rng, d), ginibre(rng, d)
        m = gram_block(OperatorPair(a1, a2)).assembled()
        check = _psd_spectrum(m, tol, m)
        worst = min(worst, check.lowest + check.threshold)
    return {"passed": bool(worst >= 0.0), "worst_margin": float(worst)}


def _suite_partition_equivalence(rng, tol):
    mismatches = 0
    boundary = 0
    kinds = ["psd", "inflated", "indefinite", "singular"]
    for trial in range(60):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a, b, c = random_partition(rng, n, k, kinds[trial % 4])
        p = Partition2(a, b, c)
        cert = psd_via_contraction(p, tol)
        oracle = _psd_check(assemble(p), tol)
        if cert.psd != oracle.ok:
            if abs(oracle.lowest) <= 2.0 * oracle.threshold:
                boundary += 1
            else:
                mismatches += 1
    return {"passed": mismatches == 0, "mismatches": mismatches, "boundary": boundary}


def _suite_characterization(rng, tol):
    mismatches = 0
    for trial in range(80):
        d = int(rng.integers(2, 7))
        if trial % 2 == 0:
            pair = random_stormer_pair(rng, d)
        else:
            while True:
                a1 = ginibre(rng, d)
                if _cond(a1) <= 1e3:
                    break
            t = ginibre(rng, d)
            if is_normal(t, tol):
                continue
            pair = OperatorPair(a1, t @ a1)
        sat = stormer_test(gram_block(pair), tol)
        normal = is_normal(ratio_operator(pair).matrix, tol)
        if sat != normal:
            mismatches += 1
    return {"passed": mismatches == 0, "mismatches": mismatches}


def _suite_reconstruction(rng, tol):
    worst = 0.0
    for _ in range(12):
        d = int(rng.integers(2, 7))
        pair = random_stormer_pair(rng, d)
        x = gram_block(pair).assembled()
        rec = reconstruct_block(canonical_decomposition(pair, tol)).assembled()
        worst = max(worst, _rel_fro(rec - x, x))
        xs = gram_block(pair.swapped()).assembled()
        recs = reconstruct_block(dual_decomposition(pair, tol)).assembled()
        worst = max(worst, _rel_fro(recs - xs, xs))
    return {"passed": bool(worst <= 1e-8), "worst_residual": worst}


def _suite_ppt_separability(rng, tol):
    worst = 0.0
    all_ppt = True
    for _ in range(12):
        d = int(rng.integers(2, 6))
        pair = random_stormer_pair(rng, d)
        rho = state_from_block(gram_block(pair), tol)
        all_ppt = all_ppt and is_ppt(rho, tol)
        sep = separable_decomposition(canonical_decomposition(pair, tol))
        worst = max(worst, _rel_fro(separable_state(sep) - rho.matrix, rho.matrix))
    return {"passed": bool(all_ppt and worst <= 1e-8), "worst_residual": worst}


def _suite_necessity(rng, tol):
    reports = [
        theorem1_necessity_trial(identity_map(), seed=int(rng.integers(2**31)), trials=60, n=2, d=3, tol=tol),
        theorem1_necessity_trial(identity_map(), seed=int(rng.integers(2**31)), trials=60, n=3, d=3, tol=tol),
        theorem1_necessity_trial(transpose_map(), seed=int(rng.integers(2**31)), trials=60, n=2, d=3, tol=tol),
        theorem1_necessity_trial(transpose_map(), seed=int(rng.integers(2**31)), trials=60, n=3, d=3, tol=tol),
    ]
    violations = sum(r.violations for r in reports)
    worst = min(r.worst_min_eig for r in reports)
    return {"passed": violations == 0, "violations": violations, "worst_min_eig": worst}


def _suite_hyponormal_normal(rng, tol):
    accepted = 0
    failures = 0
    while accepted < 40:
        noise = float(rng.choice([0.0, 1e-12, 1e-9, 1e-6]))
        t = random_near_normal(rng, int(rng.integers(2, 7)), noise)
        if not is_hyponormal(t, tol):
            continue
        accepted += 1
        if not is_normal(t, tol):
            failures += 1
    return {"passed": failures == 0, "failures": failures}


def _suite_contraction_vs_psd(rng, tol):
    mismatches = 0
    for _ in range(60):
        d = int(rng.integers(1, 7))
        t = ginibre(rng, d, int(rng.integers(1, 7))) * rng.uniform(0.2, 2.0)
        lhs = is_contraction(t, tol)
        rhs = is_psd(np.eye(t.shape[1]) - adjoint(t) @ t, tol)
        if lhs != rhs:
            mismatches += 1
    return {"passed": mismatches == 0, "mismatches": mismatches}


def _suite_pinv_identities(rng, tol):
    worst = 0.0
    for _ in range(12):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = random_rank_deficient(rng, rows, cols, rank)
        x = pinv(m)
        bound = 1e-9 * (1.0 + op_norm(m))
        residuals = [
            op_norm(m @ x @ m - m),
            op_norm(x @ m @ x - x),
            op_norm(m @ x - adjoint(m @ x)),
            op_norm(x @ m - adjoint(x @ m)),
        ]
        worst = max(worst, max(residuals) / bound)
    return {"passed": bool(worst <= 1.0), "worst_scaled_residual": worst}


def _suite_sqrt_roundtrip(rng, tol):
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        g = ginibre(rng, d)
        m = g @ adjoint(g)
        s = sqrt_psd(m, tol)
        worst = max(worst, op_norm(s @ s - m) / (1e-9 * (1.0 + op_norm(m))))
    return {"passed": bool(worst <= 1.0), "worst_scaled_residual": worst}


_SUITES = [
    ("gram_positivity", _suite_gram_positivity),
    ("partition_equivalence", _suite_partition_equivalence),
    ("characterization", _suite_characterization),
    ("reconstruction", _suite_reconstruction),
    ("ppt_separability", _suite_ppt_separability),
    ("necessity_decomposable", _suite_necessity),
    ("hyponormal_implies_normal", _suite_hyponormal_normal),
    ("contraction_vs_psd", _suite_contraction_vs_psd),
    ("pinv_identities", _suite_pinv_identities),
    ("sqrt_psd_roundtrip", _suite_sqrt_roundtrip),
]


def run_selftest(seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every suite with streams derived from the seed; returns a report
    with per-suite results and an overall flag."""
    suites = {}
    for index, (name, fn) in enumerate(_SUITES):
        rng = np.random.default_rng([seed, index])
        suites[name] = fn(rng, tol)
    return {"passed": all(s["passed"] for s in suites.values()), "suites": suites}
