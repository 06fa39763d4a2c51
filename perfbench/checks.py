"""Correctness checks for every timed call of the benchmark.

Each checker takes what a call returned and returns a list of error strings
(empty when the output is correct).  References are recomputed here with
plain numpy, independently of the library code under test.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_BOUND = 1e-8
NECESSITY_FLOOR = -1e-8
WITNESS_FLOORS = 10.0
REPLAY_BLOCK_TOL = 1e-12
# Default library tolerance (linalg.DEFAULT_TOL): threshold = abs + rel * (1 + scale).
TOL_ABS, TOL_REL = 1e-10, 1e-9


def threshold(scale: float) -> float:
    return TOL_ABS + TOL_REL * (1.0 + scale)


def hermitian_eigs(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def rel_fro(a, ref) -> float:
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300))


def assembled(blocks) -> np.ndarray:
    """(n, n, d, d) block array -> (nd, nd) matrix, block index first."""
    b = np.asarray(blocks)
    n, d = b.shape[0], b.shape[2]
    return b.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def gram(a1, a2) -> np.ndarray:
    h1, h2 = a1.conj().T, a2.conj().T
    return np.block([[h1 @ a1, h1 @ a2], [h2 @ a1, h2 @ a2]])


def choi3_image(blocks) -> np.ndarray:
    """Entrywise image of a (n, n, 3, 3) block array under the positive
    non-decomposable map on 3 x 3 matrices: diagonal (x11+x33, x22+x11,
    x33+x22), off-diagonal entries negated."""
    b = np.asarray(blocks, dtype=complex)
    diag = np.diagonal(b, axis1=2, axis2=3)
    out = -b
    for r, other in ((0, 2), (1, 0), (2, 1)):
        out[..., r, r] = diag[..., r] + diag[..., other]
    return out


def payload_blocks(obj) -> np.ndarray:
    """Parse a block payload ({"n", "d", "blocks": [[matrix]]}) to an array."""
    n, d = int(obj["n"]), int(obj["d"])
    out = np.empty((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            data = np.array(obj["blocks"][i][j]["data"], dtype=float)
            out[i, j] = (data[:, 0] + 1j * data[:, 1]).reshape(d, d)
    return out


def check_necessity(report, trials: int, n: int, d: int) -> list[str]:
    errors = []
    if (report.trials, report.n, report.d) != (trials, n, d):
        errors.append(f"report shape {(report.trials, report.n, report.d)} != {(trials, n, d)}")
    if report.violations != 0:
        errors.append(f"{report.violations} violations for a decomposable map")
    if not np.isfinite(report.worst_min_eig) or report.worst_min_eig < NECESSITY_FLOOR:
        errors.append(f"worst min eig {report.worst_min_eig!r} below {NECESSITY_FLOOR}")
    return errors


def check_witness(blocks, two_sided_positive: bool) -> list[str]:
    """A witness is two-sided positive (the library's stormer_test verdict is
    passed in) and its choi3 image has min eig below ten PSD floors."""
    errors = []
    if not two_sided_positive:
        errors.append("witness block fails stormer_test")
    w = hermitian_eigs(assembled(choi3_image(blocks)))
    scale = max(abs(w[0]), abs(w[-1]))
    if not w[0] < -WITNESS_FLOORS * threshold(scale):
        errors.append(f"witness image min eig {w[0]:.3e} is not below {WITNESS_FLOORS:g} PSD floors")
    return errors


def check_replay(evaluations: int, restart: int, blocks, fixture: dict) -> list[str]:
    """The seed-42 search must reproduce the frozen witness exactly."""
    errors = []
    if (evaluations, restart) != (fixture["evaluations"], fixture["restart"]):
        errors.append(
            f"replay took {evaluations} evals (restart {restart}), frozen "
            f"{fixture['evaluations']} (restart {fixture['restart']})"
        )
    diff = float(np.max(np.abs(np.asarray(blocks) - payload_blocks(fixture["block"]))))
    if not diff <= REPLAY_BLOCK_TOL:
        errors.append(f"replay block differs from the frozen one by {diff:.3e}")
    return errors


def check_decompose_pass(a1, a2, out: dict) -> list[str]:
    """Passing pair: verdicts true, every reconstruction within the bound."""
    errors = []
    if not out["stormer"]:
        errors.append("stormer_test false on a pair with normal ratio operator")
    if not out["ppt"]:
        errors.append("state of a two-sided-positive block is not PPT")
    if out["degenerate"]:
        errors.append("decomposition flagged degenerate for invertible a1")
    ref = gram(a1, a2)
    rho_ref = ref / np.trace(ref).real
    sep = out["separable"]
    sep_state = sum(
        w * np.outer(np.kron(u, v), np.kron(u, v).conj())
        for w, u, v in zip(sep.weights, sep.factor1, sep.factor2)
    )
    residuals = {
        "canonical": rel_fro(assembled(out["reconstructed"]), ref),
        "dual": rel_fro(assembled(out["reconstructed_dual"]), gram(a2, a1)),
        "state": rel_fro(out["state"], rho_ref),
        "separable": rel_fro(sep_state, rho_ref),
    }
    for name, r in residuals.items():
        if not r <= RESIDUAL_BOUND:
            errors.append(f"{name} residual {r:.3e} above {RESIDUAL_BOUND:g}")
    return errors


def check_decompose_fail(out: dict) -> list[str]:
    """Pair with non-normal ratio operator: test false, decomposition refused."""
    errors = []
    if out["stormer"]:
        errors.append("stormer_test true on a pair with non-normal ratio operator")
    if out["error"] != "DomainError":
        errors.append(f"canonical_decomposition gave {out['error']!r}, expected DomainError")
    return errors


def check_partition(a, b, c, psd_factorization: bool, psd_oracle: bool, residual: float) -> list[str]:
    """Both verdicts must match an independent eigenvalue verdict; inputs
    whose min eig sits within two thresholds of zero may go either way."""
    errors = []
    w = hermitian_eigs(np.block([[a, b], [b.conj().T, c]]))
    thr = threshold(max(abs(w[0]), abs(w[-1])))
    if abs(w[0]) > 2.0 * thr:
        expected = bool(w[0] >= -thr)
        for name, got in (("contraction", psd_factorization), ("oracle", psd_oracle)):
            if got != expected:
                errors.append(f"{name} verdict {got} != eigenvalue verdict {expected}")
    if psd_factorization:
        bound = RESIDUAL_BOUND * (1.0 + np.linalg.norm(b, 2))
        if not residual <= bound:
            errors.append(f"factorization residual {residual:.3e} above {bound:.3e}")
    return errors


def check_cli(expected_code: int, golden: bytes, code: int, stdout: bytes) -> list[str]:
    errors = []
    if code != expected_code:
        errors.append(f"exit code {code} != {expected_code}")
    if stdout != golden:
        at = next((i for i, (x, y) in enumerate(zip(stdout, golden)) if x != y), min(len(stdout), len(golden)))
        errors.append(f"stdout differs from golden at byte {at} ({len(stdout)} vs {len(golden)} bytes)")
    return errors
