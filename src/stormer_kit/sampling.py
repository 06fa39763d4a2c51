"""Seeded random instances: operator pairs, block matrices, and the search
for a two-sided-positive block with a failing Gram summand.

Every generator takes an explicit ``numpy.random.Generator`` (or seed), so
batch runs are reproducible and parallel trials can derive independent
streams from a root seed.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import _EXPORTS
from .errors import DimensionError, DomainError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _SILENT,
    _eigh,
    _eigvalsh,
    _identity,
    _integer,
    _op_norm,
    _qr,
    _well_conditioned,
    adjoint,
)
from .stormer import (
    OperatorBlockMatrix,
    OperatorPair,
    _split,
    _swap,
    gram_block,
    gram_row_block,
    gram_vectors,
    stormer_test,
)

# Every name but the self-test's three samplers is in the package namespace.
__all__ = sorted(
    [*_EXPORTS["sampling"], "random_near_normal", "random_partition", "random_rank_deficient"]
)


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Gaussian matrix with iid standard entries (scaled by 1/sqrt 2).

    Draw order: the real parts, then the imaginary parts, row-major.
    Raises DimensionError unless ``rows`` and ``cols`` are integers of at
    least 0."""
    rows = _size(rows, "rows", 0)
    cols = rows if cols is None else _size(cols, "cols", 0)
    return _complex_gaussian(*rng.standard_normal((2, rows, cols)))


def _size(value, what: str, least: int) -> int:
    """``value`` read by :func:`_integer`; DimensionError below ``least``."""
    size = _integer(value, what, DimensionError)
    if size < least:
        raise DimensionError(f"{what} must be at least {least}, got {size}")
    return size


# The Ginibre scale, computed once instead of on every draw.
_SQRT2 = np.sqrt(2.0)


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt 2 entrywise: the one formula of every Ginibre draw,
    on single matrices and on stacks alike."""
    return (re + 1j * im) / _SQRT2


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar_from_ginibre(ginibre(rng, d))


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the phases of R's diagonal moved into Q, which makes
    Q Haar distributed; z may be a stack of shape (..., d, d)."""
    q, diag = _qr(z, diag=True)
    return q * (diag / np.abs(diag))[..., None, :]


def uniform_disk(
    rng: np.random.Generator, count: int, center: complex = 1.5, radius: float = 1.0
) -> np.ndarray:
    """Points uniform in a complex disk.

    Draw order: the ``count`` radius draws, then the ``count`` angle draws.
    Raises, before any draw, DomainError where ``center`` or ``radius`` is
    not finite and DimensionError unless ``count`` is an integer of at
    least 0."""
    _finite_disk(center, radius)
    return _disk_points(rng.random((2, _size(count, "count", 0))), center, radius)


def _finite_disk(center: complex, radius: float) -> None:
    """DomainError where the disk's ``center`` or ``radius`` is not finite,
    which would give non-finite points."""
    for name, value in (("center", center), ("radius", radius)):
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _disk_points(u: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """center + radius sqrt(u0) exp(2 pi i u1) from uniform draws of shape
    (..., 2, k): radius draws u0 in row 0, angle draws u1 in row 1.  The
    arithmetic is that of ``rng.uniform(0, 1)`` and ``rng.uniform(0, 2 pi)``
    draws, so the points equal those drawn that way."""
    r = radius * np.sqrt(u[..., 0, :])
    theta = 2.0 * np.pi * u[..., 1, :]
    return center + r * np.exp(1j * theta)


def random_normal_operator(
    rng: np.random.Generator, d: int, center: complex = 1.5, radius: float = 1.0
) -> np.ndarray:
    """U diag(lam) U* with Haar U and lam uniform in a disk: the draws of
    :func:`haar_unitary`, then those of :func:`uniform_disk`, whose
    DomainError it raises before any draw."""
    _finite_disk(center, radius)
    u = haar_unitary(rng, d)
    lam = uniform_disk(rng, d, center, radius)
    return (u * lam) @ adjoint(u)


def random_stormer_pairs(
    rng: np.random.Generator,
    count: int,
    d: int,
    cond_max: float = 1e3,
    center: complex = 1.5,
    radius: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random pairs whose Gram blocks satisfy the two-sided
    condition, as two stacks a1, a2 of shape (count, d, d), views of one
    (count, 2, d, d) array.

    a1 is Ginibre, resampled until its condition number is below ``cond_max``;
    a2 = T a1 with T = U diag(lam) U* a random normal operator (Haar U,
    eigenvalues uniform in a disk).  The disk default keeps T invertible so
    the role-swapped decomposition is well conditioned too.

    Draw order: pair by pair, the Ginibre draws of the a1 rejection loop,
    then the Ginibre draw of U, then the disk draws, so ``count`` pairs
    consume the stream exactly as ``count`` calls of
    :func:`random_stormer_pair` do.  The draws run in windows that assume
    every a1 candidate is accepted (rejection is rare at the default
    ``cond_max``): per pair, one call draws the 4 d^2 normals of the
    candidate and of U and one call the 2 d disk uniforms, and one stacked
    Cholesky of their shifted Gram matrices then tests the window's
    candidates, with an SVD only for those it cannot clear (see
    ``linalg._well_conditioned``; the verdicts are the condition numbers'
    own).  If the first
    rejected candidate is the window's j-th, every draw after it came from
    the wrong place in the stream: the bit generator is rewound to the
    window's start, the j accepted pairs' draws are replayed (the same calls
    give the same values), the rejected candidate's 2 d^2 normals are
    consumed, and the next window opens at that pair.  The first window
    spans all ``count`` pairs and each later one twice the accepted run
    before it (at least one pair), so heavy rejection replays a bounded
    number of draws per pair instead of redrawing the whole tail.  The
    algebra runs once on the stack, in ``np.errstate(**_SILENT)``.  Raises
    DimensionError unless ``count`` is an integer of at least 0 and ``d``
    one of at least 1; ``count`` 0 gives empty stacks.  Raises DomainError,
    before any draw, for a ``cond_max`` no candidate meets, on which the
    rejection loop would never end: a NaN, a number below 1, or 1 at
    d > 1, where a Ginibre a1's condition number is above 1.  Raises
    DomainError too, first, where ``center`` or ``radius`` is not finite,
    which would give non-finite pairs.
    """
    _finite_disk(center, radius)
    count, d = _size(count, "count", 0), _size(d, "d", 1)
    if not (cond_max > 1.0 or cond_max == 1.0 and d == 1):
        raise DomainError(f"cond_max must be above 1 (at d = 1, at least 1), got {cond_max!r}")
    with np.errstate(**_SILENT):
        pairs = _pair_stack(rng, count, d, cond_max, center, radius)
    return pairs[:, 0], pairs[:, 1]


def _pair_stack(
    rng: np.random.Generator,
    count: int,
    d: int,
    cond_max: float = 1e3,
    center: complex = 1.5,
    radius: float = 1.0,
) -> np.ndarray:
    """The pairs of :func:`random_stormer_pairs` as one (count, 2, d, d)
    stack, a1 and a2 of each pair side by side, so that the necessity
    engine builds all Gram blocks with one broadcast product.  Runs in the
    caller's ``np.errstate(**_SILENT)``, in which a Cholesky that fails
    does so without a warning."""
    normals = np.empty((count, 4, d, d))  # per pair: a1 re, a1 im, Z re, Z im
    uniforms = np.empty((count, 2, d))  # per pair: disk radius and angle draws
    pairs = np.empty((count, 2, d, d), dtype=complex)
    a1 = pairs[:, 0]

    def draw(first: int, stop: int) -> None:
        for t in range(first, stop):
            rng.standard_normal(out=normals[t])
            rng.random(out=uniforms[t])

    bitgen = rng.bit_generator
    done, window = 0, count
    while done < count:
        stop = min(count, done + window)
        start = bitgen.state
        draw(done, stop)
        a1[done:stop] = _complex_gaussian(normals[done:stop, 0], normals[done:stop, 1])
        accepted = _well_conditioned(a1[done:stop], cond_max)
        run = stop - done if accepted.all() else int(accepted.argmin())
        if run < stop - done:
            bitgen.state = start
            draw(done, done + run)
            rng.standard_normal(out=normals[done + run, :2])
        done += run
        window = max(1, 2 * run)
    u = _haar_from_ginibre(_complex_gaussian(normals[:, 2], normals[:, 3]))
    lam = _disk_points(uniforms, center, radius)[:, None, :]
    ratio = (_unfused_product(u, lam) if d == 1 else u * lam) @ adjoint(u)
    np.matmul(ratio, a1, out=pairs[:, 1])
    return pairs


def _unfused_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` with each real product rounded before the sum.  numpy's
    complex multiply fuses them in some of its loops, which it picks by the
    operands' lengths and strides: at d = 1 a stack of 1 x 1 factors can
    take another loop than a lone pair's, or a lone 1 x 1 product's, and
    round differently.  From d = 2 on every pair runs a loop of length d,
    alone or in a stack, so the sampler keeps numpy's product there."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def random_stormer_pair(
    rng: np.random.Generator,
    d: int,
    cond_max: float = 1e3,
    center: complex = 1.5,
    radius: float = 1.0,
) -> OperatorPair:
    """One pair of :func:`random_stormer_pairs` (same draws, same values,
    same errors)."""
    a1, a2 = random_stormer_pairs(rng, 1, d, cond_max, center, radius)
    return OperatorPair(a1[0], a2[0])


def random_stormer_blocks(
    rng: np.random.Generator,
    count: int,
    n: int,
    d: int,
    boundary: float | None = None,
) -> np.ndarray:
    """``count`` random n x n block matrices (d x d blocks) passing the
    two-sided test, as one array of shape (count, n, n, d, d).

    Each draws a Wishart matrix W = G G* and mixes it with the maximally
    mixed direction until the index-swapped matrix is PSD: since
    swap((1-mu) W + mu c I) has eigenvalues (1-mu) eig(swap W) + mu c with
    c = tr(W)/(nd), the minimal admissible mu is available in closed form.
    ``boundary`` sets the floor of the swapped spectrum as a fraction of c
    (default: uniform in [0, 0.2], spreading samples from the boundary
    inward); the assembled matrix is normalized to trace n*d.

    Draw order: block by block, the 2 (nd)^2 normals of the Ginibre factor G
    (one call), then (without ``boundary``) the floor, drawn as
    ``0.2 * rng.random()``: bit for bit what ``rng.uniform(0.0, 0.2)``
    computes (0.0 + 0.2 u), at a fraction of its call cost.  G is combined
    from its normals once on the stack, by :func:`ginibre`'s formula, and
    the Gram products, traces, swapped spectra and mixing run once on the
    stack too, so ``count`` blocks consume the stream exactly as ``count``
    calls of :func:`random_stormer_block` do.  They run in
    ``np.errstate(**_SILENT)``.  Raises DimensionError unless ``count`` is
    an integer of at least 0 and ``n`` and ``d`` ones of at least 1;
    ``count`` 0 gives an empty stack.  Raises DomainError unless
    ``boundary`` is None or in [0, 1]: a floor above the trace scale c
    mixes past the identity, and one below 0 stops short of the swapped
    side's boundary, so neither gives two-sided-positive blocks.
    """
    count, n, d = _size(count, "count", 0), _size(n, "n", 1), _size(d, "d", 1)
    if boundary is not None and not 0.0 <= boundary <= 1.0:
        raise DomainError(f"boundary must be in [0, 1], got {boundary!r}")
    nd = n * d
    normals = np.empty((count, 2, nd, nd))  # per block: G re, G im
    floor = np.empty(count)
    for t in range(count):
        rng.standard_normal(out=normals[t])
        floor[t] = 0.2 * rng.random() if boundary is None else boundary
    g = _complex_gaussian(normals[:, 0], normals[:, 1])
    with np.errstate(**_SILENT):
        return _split(_boundary_grams(g, n, floor), n)


def _boundary_grams(g: np.ndarray, n: int, floor: np.ndarray) -> np.ndarray:
    """G G* of each factor in a (k, nd, nd) stack, scaled to trace nd (so
    c = 1) and mixed toward the identity until its index swap's minimum
    eigenvalue is its floor (exact, the mix is affine); those at their
    floor are kept.

    The mix runs on the whole stack, and each matrix gets the arithmetic it
    gets alone: a stack at its floors comes back as it is, and in a stack
    both below and at its floors the kept matrices are picked out of the
    mix with ``np.where``.  A kept matrix may divide 0 by 0 (a flat
    swapped spectrum, m0 = 1), in the caller's ``np.errstate(**_SILENT)``:
    its mix is discarded.
    """
    w = g @ adjoint(g)
    nd = w.shape[-1]
    w *= (nd / w.trace(0, -2, -1).real)[:, None, None]
    m0 = _eigvalsh(_swap(w, n))[:, 0]
    low = m0 < floor
    below = np.count_nonzero(low)
    if below == 0:
        return w
    every = below == low.size
    mu = ((floor - m0) / (1.0 - m0))[:, None, None]
    mixed = (1.0 - mu) * w
    mixed += mu * _identity(nd)
    return mixed if every else np.where(low[:, None, None], mixed, w)


def random_stormer_block(
    rng: np.random.Generator,
    n: int,
    d: int,
    boundary: float | None = None,
) -> OperatorBlockMatrix:
    """One block matrix of :func:`random_stormer_blocks` (same draws, same
    values, same errors)."""
    return OperatorBlockMatrix(random_stormer_blocks(rng, 1, n, d, boundary)[0])


def random_rank_deficient(
    rng: np.random.Generator, rows: int, cols: int, rank: int
) -> np.ndarray:
    """Random matrix of the given rank (rank <= min(rows, cols))."""
    return ginibre(rng, rows, rank) @ ginibre(rng, rank, cols)


def random_near_normal(rng: np.random.Generator, d: int, noise: float = 0.0) -> np.ndarray:
    """Normal operator rescaled to norm in [2, 6], plus optional Ginibre noise.

    With noise 0 the result is normal up to roundoff; nonzero noise gives
    candidates for rejection sampling on hyponormality at a controlled
    distance from the normal set.
    """
    t = random_normal_operator(rng, d)
    t *= rng.uniform(2.0, 6.0) / _op_norm(t)
    if noise > 0.0:
        t = t + noise * ginibre(rng, d)
    return t


def random_partition(rng: np.random.Generator, n: int, k: int, kind: str):
    """Random (A, B, C) triples for the two-block positivity test.

    kinds: ``psd`` splits a Wishart matrix (assembled matrix PSD);
    ``inflated`` rescales the off-diagonal block of a PSD split until the
    matrix fails; ``indefinite`` draws Hermitian A, C and generic B;
    ``singular`` zeroes trailing eigenvalues of A first.  Returns blocks, not
    a Partition2, to keep this module decoupled from the blocks module.
    Raises DimensionError when n or k is not an integer.
    """
    n, k = _integer(n, "n", DimensionError), _integer(k, "k", DimensionError)
    if kind in ("psd", "inflated", "singular"):
        g = ginibre(rng, n + k)
        m = g @ adjoint(g)
        a = m[:n, :n].copy()
        b = m[:n, n:].copy()
        c = m[n:, n:].copy()
        if kind == "inflated":
            b *= rng.uniform(1.5, 3.0)
        elif kind == "singular":
            w, v = _eigh(a)
            w[: max(1, n // 2)] = 0.0
            a = (v * w) @ adjoint(v)
        return a, b, c
    if kind == "indefinite":
        ha = ginibre(rng, n)
        hc = ginibre(rng, k)
        return ha + adjoint(ha), ginibre(rng, n, k), hc + adjoint(hc)
    raise ValueError(f"unknown partition kind {kind!r}")


def find_nontrivial_block(
    seed: int = 0,
    d: int = 2,
    max_tries: int = 200,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[OperatorBlockMatrix, np.ndarray, int]:
    """Search for a block matrix passing the two-sided test while one of its
    own Gram summands fails it.

    Candidates are Gram blocks of random pairs; their eigen-factorization
    rows give the summands.  Returns (block, rows, k) where rows[k] is a
    failing summand.  The condition passes for the sum yet can fail for a
    summand exactly when the corresponding factor row is entangled across
    (block index) x (space).
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        pair = random_stormer_pair(rng, d)
        x = gram_block(pair)
        if not stormer_test(x, tol):
            continue
        rows = gram_vectors(x, tol)
        for k in range(rows.shape[0]):
            if not stormer_test(gram_row_block(rows[k]), tol):
                return x, rows, k
    raise RuntimeError(f"no nontrivial instance found in {max_tries} tries")
