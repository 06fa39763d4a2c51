"""Shared helpers for the test suite."""

import numpy as np

from stormer_kit import DEFAULT_TOL, adjoint
from stormer_kit.sampling import ginibre, uniform_disk


def rel_fro(delta, ref) -> float:
    return float(np.linalg.norm(delta) / max(np.linalg.norm(ref), 1e-300))


def hermitize(m) -> np.ndarray:
    return 0.5 * (m + adjoint(m))


def min_eig(m) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def cholesky_psd(m, shift: float) -> bool:
    """Independent PSD oracle: Cholesky success of M + shift * I."""
    h = hermitize(np.asarray(m, dtype=complex))
    try:
        np.linalg.cholesky(h + shift * np.eye(h.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


# Per-trial reference for the stacked necessity engine: the samplers, the
# per-matrix map arithmetic and the trial loop as they ran one trial (and one
# block) at a time.  Equivalence tests compare the engine against it with ==.


def oracle_apply(phi, a) -> np.ndarray:
    """phi on one square matrix, by the map's own per-matrix arithmetic."""
    a = np.asarray(a, dtype=complex)
    if phi.kind == "named":
        if phi.name == "identity":
            return a.copy()
        if phi.name == "transpose":
            return a.T.copy()
        out = -a.copy()
        out[0, 0] = a[0, 0] + a[2, 2]
        out[1, 1] = a[1, 1] + a[0, 0]
        out[2, 2] = a[2, 2] + a[1, 1]
        return out
    if phi.kind == "choi_raw":
        k, l = phi.input_dim, phi.output_dim
        return np.einsum("ij,irjc->rc", a, phi.choi.reshape(k, l, k, l))
    out = 0.0
    for kr in phi.kraus_cp:
        out = out + kr @ a @ adjoint(kr)
    for kr in phi.kraus_cocp:
        out = out + kr @ a.T @ adjoint(kr)
    return out


def oracle_pair(rng, d, cond_max=1e3, center=1.5, radius=1.0):
    """(a1, a2) of one random two-sided-positive pair."""
    while True:
        a1 = ginibre(rng, d)
        if np.linalg.cond(a1) <= cond_max:
            break
    q, r = np.linalg.qr(ginibre(rng, d))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = uniform_disk(rng, d, center, radius)
    t = (u * lam) @ adjoint(u)
    return a1, t @ a1


def oracle_block(rng, n, d, boundary=None) -> np.ndarray:
    """(n, n, d, d) blocks of one random two-sided-positive block matrix."""
    nd = n * d
    g = ginibre(rng, nd)
    w = g @ adjoint(g)
    w *= nd / np.trace(w).real
    swapped = w.reshape(n, d, n, d).transpose(2, 1, 0, 3).reshape(nd, nd)
    m0 = float(np.linalg.eigvalsh(swapped)[0])
    floor = rng.uniform(0.0, 0.2) if boundary is None else boundary
    if m0 < floor:
        mu = (floor - m0) / (1.0 - m0)
        w = (1.0 - mu) * w + mu * np.eye(nd)
    return w.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def oracle_necessity(phi, seed, trials, n, d, tol=DEFAULT_TOL) -> tuple[int, float]:
    """(violations, worst_min_eig) of theorem1_necessity_trial, one trial and
    one block at a time."""
    rng = np.random.default_rng(seed)
    violations, worst = 0, np.inf
    for _ in range(trials):
        if n == 2:
            a1, a2 = oracle_pair(rng, d)
            a1h, a2h = adjoint(a1), adjoint(a2)
            x = np.array([[a1h @ a1, a1h @ a2], [a2h @ a1, a2h @ a2]])
        else:
            x = oracle_block(rng, n, d)
        first = oracle_apply(phi, x[0, 0])
        out = np.zeros((n, n, *first.shape), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[i, j] = oracle_apply(phi, x[i, j])
        m = out.transpose(0, 2, 1, 3).reshape(n * first.shape[0], -1)
        w = np.linalg.eigvalsh(hermitize(m))
        if w[0] < -tol.threshold(max(abs(w[0]), abs(w[-1]))):
            violations += 1
        worst = min(worst, float(w[0]))
    return violations, worst
