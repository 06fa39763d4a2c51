"""Shared helpers for the test suite."""

import contextlib
import functools
import importlib.util
import io
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DomainError,
    HermitianEig,
    OperatorBlockMatrix,
    PositiveMap,
    SeparableDecomposition,
    SpectralResolution,
    WitnessResult,
    adjoint,
    choi_matrix,
    eig_hermitian,
    gram_block,
    is_contraction,
    is_normal,
    is_psd,
    map_from_choi,
    op_norm,
    stormer_test,
)
from stormer_kit import cli, linalg, stormer
from stormer_kit.linalg import _fix_phases
from stormer_kit.sampling import ginibre


def load_script(name):
    """Import ``scripts/<name>.py`` as a module (scripts/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The one table of golden CLI cases: name -> (exit code, argv), with fixture
# file names resolved against FIXTURES by ``expand`` and reports stored under
# GOLDEN; ``run_case`` runs one in a fresh interpreter.
regen_golden = load_script("regen_golden")
CASES, FIXTURES, GOLDEN = regen_golden.CASES, regen_golden.FIXTURES, regen_golden.GOLDEN
expand, run_case = regen_golden.expand, regen_golden.run_case


def run_cli_inprocess(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _seam_sizes(monkeypatch) -> defaultdict:
    """Wrap, with ``monkeypatch``, the two points where the LAPACK seam
    decides its path, and return a mapping from each seam name
    (``"eigvalsh"``, ``"svd"`` for ``_svdvals``, ``"cholesky"`` for
    ``_positive_definite``, ...) to the number of matrices of each of its
    calls, 1 for one matrix, filled as the calls are made.  Every seam
    function but ``_cond`` asks ``linalg._gufunc_path`` once per call, and
    ``_cond`` always calls ``np.linalg.cond``.  The wrappers return what
    the wrapped functions return, so a counted call takes the path an
    uncounted one takes, with the same result."""
    sizes, path, cond = defaultdict(list), linalg._gufunc_path, np.linalg.cond

    def counted_path(a, name, stack=False):
        sizes[name].append(math.prod(np.shape(a)[:-2]))
        return path(a, name, stack)

    def counted_cond(a, *args, **kwargs):
        sizes["cond"].append(math.prod(np.shape(a)[:-2]))
        return cond(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_gufunc_path", counted_path)
    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    return sizes


@contextlib.contextmanager
def lapack_calls(names=("eigvalsh", "eigh", "svd")):
    """Count the LAPACK calls of the named seam functions made in the block.

    Yields a Counter keyed by name, such as ``"cond"`` for the samplers'
    rejection tests, filled when the block ends.  numpy's own internal uses
    (such as the SVD inside ``pinv`` or ``cond``) are not counted.
    ``"cholesky"`` counts matrices, not calls: the certificate factors a
    whole stack in one call, and what its pins fix is how many matrices it
    factors.
    """
    calls = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = _seam_sizes(monkeypatch)
        yield calls
    calls.update({n: sum(sizes[n]) if n == "cholesky" else len(sizes[n]) for n in names})


def stack_sizes(monkeypatch, name) -> list:
    """The number of matrices of each LAPACK call the seam makes for
    ``name`` until ``monkeypatch`` is undone, 1 for one matrix: ``"cond"``
    for ``_cond``, ``"eigvalsh"`` for ``_eigvalsh``."""
    return _seam_sizes(monkeypatch)[name]


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


@functools.lru_cache(maxsize=None)
def choi_twin(phi) -> PositiveMap:
    """The map given by ``phi``'s Choi matrix: a Kraus map's twin, whose
    images it must equal bit for bit."""
    return map_from_choi(choi_matrix(phi), phi.input_dim)


def oracle_apply(phi, a) -> np.ndarray:
    """phi on one square matrix, by the map's own per-matrix arithmetic; a
    Kraus map's is its Choi twin's."""
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
    if phi.kind == "sum":
        phi = choi_twin(phi)
    k, l = phi.input_dim, phi.output_dim
    return np.einsum("ij,irjc->rc", a, phi.choi.reshape(k, l, k, l))


def kraus_products(phi, a) -> np.ndarray:
    """sum K a K* + sum L a^T L* of a Kraus map, term by term: the images
    that Kraus maps gave before they were compiled to their Choi tensor.
    ``a`` may be a stack; numpy's broadcast matmul multiplies block by
    block."""
    out = 0.0
    for kr in phi.kraus_cp:
        out = out + kr @ a @ adjoint(kr)
    for kr in phi.kraus_cocp:
        out = out + kr @ np.swapaxes(a, -1, -2) @ adjoint(kr)
    return out


def common_spectrum(rng, m, count=5) -> np.ndarray:
    """``count`` Hermitian m x m matrices Q diag(lam) Q* with one random
    spectrum lam and unitary Q's: equal spectra in exact arithmetic, whose
    computed lowest eigenvalues differ in their last bits."""
    lam = np.sort(rng.standard_normal(m))
    qs = [np.linalg.qr(ginibre(rng, m)).Q for _ in range(count)]
    return np.array([hermitize((q * lam) @ q.conj().T) for q in qs])


def ulps(x, steps) -> float:
    """``x`` moved ``steps`` doubles up, or down where ``steps`` < 0."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.inf if steps > 0 else -math.inf)
    return float(x)


def oracle_ginibre(rng, rows, cols=None) -> np.ndarray:
    """One complex Gaussian matrix, drawn as two real matrices in turn."""
    cols = rows if cols is None else cols
    re = rng.standard_normal((rows, cols))
    return (re + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def oracle_disk(rng, count, center=1.5, radius=1.0) -> np.ndarray:
    """``count`` points uniform in a disk: the radius draws, then the angle
    draws, each as one ``rng.uniform`` call."""
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return center + radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def oracle_normal_operator(rng, d, center=1.5, radius=1.0) -> np.ndarray:
    """U diag(lam) U*: a Ginibre draw for the Haar unitary U, then the
    disk's draws for lam."""
    q, r = np.linalg.qr(oracle_ginibre(rng, d))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return (u * oracle_disk(rng, d, center, radius)) @ adjoint(u)


def oracle_pair(rng, d, cond_max=1e3, center=1.5, radius=1.0):
    """(a1, a2) of one random two-sided-positive pair: a Ginibre a1 redrawn
    until its condition number is at most cond_max, then the draws of the
    normal operator T, a2 = T a1."""
    while True:
        a1 = oracle_ginibre(rng, d)
        if np.linalg.cond(a1) <= cond_max:
            break
    return a1, oracle_normal_operator(rng, d, center, radius) @ a1


def oracle_boundary(w, n, floor) -> np.ndarray:
    """Mix a trace-(nd) PSD matrix toward the identity until its swapped
    matrix's minimum eigenvalue equals floor."""
    nd = w.shape[0]
    d = nd // n
    swapped = w.reshape(n, d, n, d).transpose(2, 1, 0, 3).reshape(nd, nd)
    m0 = float(np.linalg.eigvalsh(swapped)[0])
    if m0 >= floor:
        return w
    mu = (floor - m0) / (1.0 - m0)
    return (1.0 - mu) * w + mu * np.eye(nd)


def oracle_block(rng, n, d, boundary=None) -> np.ndarray:
    """(n, n, d, d) blocks of one random two-sided-positive block matrix."""
    nd = n * d
    g = oracle_ginibre(rng, nd)
    w = g @ adjoint(g)
    w *= nd / np.trace(w).real
    w = oracle_boundary(w, n, rng.uniform(0.0, 0.2) if boundary is None else boundary)
    return w.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def oracle_image_spectrum(phi, x) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of the entrywise image of
    (n, n, d, d) blocks, mapped one block at a time."""
    n = x.shape[0]
    first = oracle_apply(phi, x[0, 0])
    out = np.zeros((n, n, *first.shape), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = oracle_apply(phi, x[i, j])
    m = out.transpose(0, 2, 1, 3).reshape(n * first.shape[0], -1)
    return np.linalg.eigvalsh(hermitize(m))


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
        w = oracle_image_spectrum(phi, x)
        if w[0] < -tol.threshold(max(abs(w[0]), abs(w[-1]))):
            violations += 1
        worst = min(worst, float(w[0]))
    return violations, worst


# One-step reference for the windowed witness search: the hill climb as it ran
# one step, one matrix and one block at a time.  witness_search must return
# the same result for every input.


def oracle_image_margin(phi, m, n, tol) -> tuple[float, float]:
    """(minimum eigenvalue, PSD threshold) of an assembled block matrix's
    entrywise image."""
    d = m.shape[0] // n
    w = oracle_image_spectrum(phi, m.reshape(n, d, n, d).transpose(0, 2, 1, 3))
    return float(w[0]), float(tol.threshold(max(abs(w[0]), abs(w[-1]))))


def oracle_witness_search(phi, seed=0, budget=10**6, n=3, d=None, tol=DEFAULT_TOL):
    """witness_search evaluating one hill-climbing step at a time."""
    d = d if d is not None else phi.input_dim
    nd = n * d
    evaluations = 0
    floor_start, floor_end = 1e-2, 1e-7
    restart = 0
    while evaluations < budget:
        rng = np.random.default_rng([seed, restart])
        g = oracle_ginibre(rng, nd)
        w = g @ adjoint(g)
        w *= nd / np.trace(w).real
        floor = floor_start
        x = oracle_boundary(w, n, floor)
        current, thr = oracle_image_margin(phi, x, n, tol)
        evaluations += 1
        sigma = 0.3
        for _ in range(600):
            if evaluations >= budget:
                break
            floor = max(floor_end, floor * 0.985)
            i = rng.integers(0, nd)
            j = rng.integers(0, nd)
            g_new = g.copy()
            g_new[i, j] += sigma * (rng.standard_normal() + 1j * rng.standard_normal())
            w_new = g_new @ adjoint(g_new)
            w_new *= nd / np.trace(w_new).real
            x_new = oracle_boundary(w_new, n, floor)
            val, val_thr = oracle_image_margin(phi, x_new, n, tol)
            evaluations += 1
            if val < current:
                g, current, thr, x = g_new, val, val_thr, x_new
                sigma = min(sigma * 1.2, 1.0)
            else:
                sigma = max(sigma * 0.97, 1e-3)
        if current < -10.0 * thr:
            return WitnessResult(
                block=OperatorBlockMatrix.from_assembled(x, n),
                min_eig=current,
                evaluations=evaluations,
                restart=restart,
            )
        restart += 1
    return None


# References for the decompose chain: reconstruct_block one term at a time,
# compared with np.array_equal, and the two-sided verdict of the role-swapped
# pair's own Gram block, which dual_decomposition no longer computes.


def oracle_reconstruct_block(dec) -> np.ndarray:
    """(2, 2, d, d) blocks of reconstruct_block, summed term by term."""
    d = dec.dim
    out = np.zeros((2, 2, d, d), dtype=complex)
    for alpha, lam, phi in zip(dec.alphas, dec.lambdas, dec.phis.T):
        if not np.any(phi):
            continue
        proj = np.outer(phi, np.conj(phi))
        coeff = np.array([[1.0, lam], [np.conj(lam), abs(lam) ** 2]])
        out += (alpha**2) * np.einsum("pq,rc->pqrc", coeff, proj)
    return out


def oracle_separable_decomposition(dec) -> SeparableDecomposition:
    """separable_decomposition one term at a time."""
    masses, f1, f2 = [], [], []
    for alpha, lam, phi in zip(dec.alphas, dec.lambdas, dec.phis.T):
        if not np.any(phi):
            continue
        scale = 1.0 + abs(lam) ** 2
        masses.append(alpha**2 * scale)
        f1.append(np.array([1.0, np.conj(lam)]) / np.sqrt(scale))
        f2.append(phi)
    total = float(np.sum(masses))
    if total <= 0.0:
        raise DomainError("decomposition has no mass; cannot normalize")
    return SeparableDecomposition(np.array(masses) / total, np.array(f1), np.array(f2))


def oracle_dual_verdict(p, tol=DEFAULT_TOL) -> bool:
    """stormer_test on a freshly built Gram block of ``p.swapped()``."""
    return stormer_test(gram_block(p.swapped()), tol)


# SVD-only references for the linear-algebra predicates: each norm is compared
# against its threshold by a full SVD, with no Frobenius shortcut, and
# eigenvector phases are fixed one column at a time.  The library must give
# the same verdicts, raise the same errors and return the same arrays.

_HERMITICITY_REL = 1e-6
_PHASE_CUTOFF = 1e-12


def svd_norm(m) -> float:
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def oracle_is_hermitian(a, tol=DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    return svd_norm(a - adjoint(a)) <= tol.threshold(svd_norm(a))


def oracle_psd_spectrum(a, tol=DEFAULT_TOL):
    """(min_eig >= -threshold, threshold) of the Hermitian part of ``a``."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(a, dtype=complex)))
    thr = tol.threshold(max(abs(w[0]), abs(w[-1])))
    return bool(w[0] >= -thr), thr


def oracle_is_psd(a, tol=DEFAULT_TOL) -> bool:
    a = np.asarray(a, dtype=complex)
    verdict, thr = oracle_psd_spectrum(a, tol)
    return verdict and bool(svd_norm(a - adjoint(a)) <= thr)


def oracle_is_normal(t, tol=DEFAULT_TOL) -> bool:
    a = np.asarray(t, dtype=complex)
    c = adjoint(a) @ a - a @ adjoint(a)
    return svd_norm(c) <= tol.quadratic_threshold(svd_norm(a))


def oracle_stormer_test(blocks, tol=DEFAULT_TOL) -> bool:
    b = np.asarray(blocks, dtype=complex)
    n, d = b.shape[0], b.shape[2]
    m = b.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    if svd_norm(m - adjoint(m)) > tol.threshold(svd_norm(m)):
        raise DomainError("assembled block matrix is not Hermitian within tolerance")
    # Hermiticity is decided once, above: each side is judged by its
    # Hermitian part's spectrum alone
    s = b.transpose(1, 0, 2, 3).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    return oracle_psd_spectrum(m, tol)[0] and oracle_psd_spectrum(s, tol)[0]


def oracle_fix_phases(v) -> np.ndarray:
    out = np.array(v, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > _PHASE_CUTOFF)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def oracle_eig_hermitian(m) -> HermitianEig:
    a = np.asarray(m, dtype=complex)
    h = hermitize(a)
    scale = svd_norm(h)
    asym = svd_norm(a - adjoint(a))
    if asym > _HERMITICITY_REL * (1.0 + scale):
        raise DomainError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{_HERMITICITY_REL:.0e} * (1 + {scale:.3e})"
        )
    w, v = np.linalg.eigh(h)
    return HermitianEig(w, oracle_fix_phases(v))


# Two-spectrum references for the PSD factorizations: each checks its input
# with an eigvalsh (``is_psd``) and then factors it with a second, separate
# eigendecomposition: ``eig_hermitian``, with its 1e-6 asymmetry guard, or a
# bare eigh of the Hermitian part.  The library reads its check off the one
# eigh that factors the input; it must return the same arrays bit for bit
# wherever the two checks agree.


def two_spectrum_sqrt_psd(m, tol=DEFAULT_TOL) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not is_psd(a, tol):
        raise DomainError("matrix is not positive semidefinite within tolerance")
    w, v = eig_hermitian(a)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v)
    return 0.5 * (s + adjoint(s))


def two_spectrum_gram_vectors(x, tol=DEFAULT_TOL) -> np.ndarray:
    m = x.assembled()
    if not is_psd(m, tol):
        raise DomainError("block matrix is not PSD; no Gram factorization")
    w, v = eig_hermitian(m)
    w = np.clip(w, 0.0, None)
    rows = []
    for k in np.flatnonzero(w > 0.0):
        chunk = np.sqrt(w[k]) * np.conj(v[:, k])
        rows.append(chunk.reshape(x.n, x.d))
    if not rows:
        return np.zeros((0, x.n, x.d), dtype=complex)
    return np.array(rows)


def _two_spectrum_roots(m, rcond):
    w, v = np.linalg.eigh(hermitize(m))
    w = np.clip(w, 0.0, None)
    w = np.where(w > rcond * w[-1], w, 0.0)
    root = np.sqrt(w)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    return (v * root) @ adjoint(v), (v * inv_root) @ adjoint(v)


def two_spectrum_psd_via_contraction(p, tol=DEFAULT_TOL, rcond=1e-12):
    """(psd, w, residual) of the contraction test of a partition."""
    if not (is_psd(p.a, tol) and is_psd(p.c, tol)):
        return False, None, float("inf")
    sa, sa_inv = _two_spectrum_roots(p.a, rcond)
    sc, sc_inv = _two_spectrum_roots(p.c, rcond)
    w0 = sa_inv @ p.b @ sc_inv
    residual = op_norm(sa @ w0 @ sc - p.b)
    within = residual <= tol.threshold(0.0) or residual <= tol.threshold(op_norm(p.b))
    ok = within and is_contraction(w0, tol)
    return ok, w0 if ok else None, residual


# Schur-form reference for the spectral resolution: scipy's complex Schur
# basis, re-orthonormalized per cluster of near-coincident eigenvalues.  The
# two bases round differently, so tests compare residual envelopes against
# it, not single values.  scipy is imported only here.

_CLUSTER_REL = 1e-8


def oracle_spectral_resolution(a, tol=DEFAULT_TOL) -> SpectralResolution:
    a = np.asarray(a, dtype=complex)
    if not is_normal(a, tol):
        raise DomainError("operator is not normal within tolerance")
    return oracle_eigenbasis(a)


def oracle_eigenbasis(a) -> SpectralResolution:
    """The Schur-form resolution of an operator already known to be normal."""
    import scipy.linalg

    scale = svd_norm(a)
    s, z = scipy.linalg.schur(a, output="complex", check_finite=False)
    lam = np.diag(s).copy()
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    z = np.array(z[:, order])
    gap = _CLUSTER_REL * (1.0 + scale)
    start = 0
    for stop in range(1, len(lam) + 1):
        if stop == len(lam) or abs(lam[stop] - lam[stop - 1]) > gap:
            if stop - start > 1:
                q, _ = np.linalg.qr(z[:, start:stop])
                z[:, start:stop] = q
            start = stop
    return SpectralResolution(lam, _fix_phases(z))


@contextlib.contextmanager
def oracle_spectra():
    """Run the decompositions in the block on the Schur-form reference: the
    library's normality checks, then the reference's basis."""
    original = stormer._eigenbasis
    stormer._eigenbasis = oracle_eigenbasis
    try:
        yield
    finally:
        stormer._eigenbasis = original
