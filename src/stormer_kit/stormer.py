"""Gram blocks of operator pairs and their canonical decomposition.

For a pair (a1, a2) of d x d operators the Gram block is the 2 x 2 operator
matrix [[a1*a1, a1*a2], [a2*a1, a2*a2]], which is always PSD.  The two-sided
positivity condition asks in addition that the index-swapped matrix
[[a1*a1, a2*a1], [a1*a2, a2*a2]] be PSD; on the block-index tensor factor the
swap is exactly a partial transpose.  For invertible a1 the condition holds
iff the ratio operator T = a2 a1^{-1} is normal, and then the Gram block
splits into rank-one terms

    sum_i  alpha_i^2 * [[1, lam_i], [conj(lam_i), |lam_i|^2]]  (x)  |phi_i><phi_i|

where lam_i, e_i are the spectral data of T, alpha_i = ||a1* e_i|| and
phi_i = a1* e_i / alpha_i.  This module computes the test, the spectral
resolution, and the decomposition in both role orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .errors import DimensionError, DomainError
from .linalg import (
    DEFAULT_RCOND,
    DEFAULT_TOL,
    Tolerance,
    _SILENT,
    _ValueObject,
    _eig,
    _fix_phases,
    _held,
    _hermitian_part,
    _integer,
    _is_hermitian,
    _is_normal,
    _overflow,
    _pinv,
    _psd_check,
    _psd_spectrum,
    _qr,
    _svdvals,
    adjoint,
    as_matrix,
    is_psd,
    pinv,
    require_square,
)

__all__ = list(_EXPORTS["stormer"])


@dataclass(frozen=True, eq=False)
class OperatorPair(_ValueObject):
    """A pair of d x d operators acting on the same space.

    The pair owns read-only copies of its operators: it never aliases the
    caller's arrays, and writing into ``a1`` or ``a2`` raises ``ValueError``.
    So what is computed from a pair can be kept on it: :func:`gram_block`
    builds the pair's Gram block once.  Like the package's other value
    objects with array fields, pairs compare and hash by identity.
    """

    a1: np.ndarray
    a2: np.ndarray

    _gram = None  # not a field: the Gram block, once gram_block has built it

    def __post_init__(self) -> None:
        a1 = _held(require_square(self.a1, "a1"))
        a2 = _held(require_square(self.a2, "a2"))
        if a1.shape != a2.shape:
            raise DimensionError(f"operator shapes differ: {a1.shape} vs {a2.shape}")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def dim(self) -> int:
        return self.a1.shape[0]

    def swapped(self) -> "OperatorPair":
        """The pair (a2, a1), a new pair built by the constructor: it owns
        its own copies and starts with nothing kept."""
        return OperatorPair(self.a2, self.a1)


@dataclass(frozen=True, eq=False)
class OperatorBlockMatrix(_ValueObject):
    """An n x n array of d x d operator blocks, n and d at least 1.

    The assembled matrix lives on the tensor product (block index) x (space),
    i.e. entry (i*d + r, j*d + c) of the assembled matrix is blocks[i, j, r, c].

    The block matrix owns a read-only copy of ``blocks`` (writing into it
    raises ``ValueError``) and keeps the checks :func:`stormer_test` has
    made on it, one pair per tolerance.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        b = _held(np.asarray(self.blocks, dtype=complex))
        if b.ndim != 4 or b.size == 0 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
            raise DimensionError(f"blocks must have shape (n, n, d, d), got {b.shape}")
        if not np.isfinite(b).all():
            raise DomainError("block entries must be finite")
        object.__setattr__(self, "blocks", b)
        object.__setattr__(self, "_sides", {})

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[2]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i, j]

    def assembled(self) -> np.ndarray:
        return _assemble(self.blocks)

    @classmethod
    def from_assembled(cls, m, n: int) -> "OperatorBlockMatrix":
        a = require_square(m, "assembled matrix")
        n = _integer(n, "n", DimensionError)
        if n < 1 or a.shape[0] % n != 0:
            raise DimensionError(f"size {a.shape[0]} is not a positive multiple of n={n}")
        return cls(_split(a, n))


# Layout kernels, on the last axes of a stack.  They run on every witness
# evaluation, hence ndarray methods and plain shape tuples.


def _assemble(blocks: np.ndarray) -> np.ndarray:
    """(..., n, n, d, d) blocks -> (..., nd, nd) matrices."""
    s = blocks.shape
    nd = s[-4] * s[-1]
    return blocks.swapaxes(-3, -2).reshape(s[:-4] + (nd, nd))


def _split(m: np.ndarray, n: int) -> np.ndarray:
    """(..., nd, nd) matrices -> (..., n, n, d, d) blocks; inverts _assemble."""
    s = m.shape
    d = s[-1] // n
    return m.reshape(s[:-2] + (n, d, n, d)).swapaxes(-3, -2)


def _swap(m: np.ndarray, n: int) -> np.ndarray:
    """Index swap of (..., nd, nd) matrices: partial transpose of the block index."""
    s = m.shape
    d = s[-1] // n
    return m.reshape(s[:-2] + (n, d, n, d)).swapaxes(-4, -2).reshape(s)


def _gram_blocks(a: np.ndarray) -> np.ndarray:
    """(..., 2, d, d) pairs (a_1, a_2) -> (..., 2, 2, d, d) Gram blocks
    a_i* a_j, a view.  The row-stacked [a_1*; a_2*] times each a_j: one gemm
    per pair and column block, whose rows round as in a_i* a_j alone."""
    s = a.shape
    d = s[-1]
    rows = adjoint(a).reshape(s[:-3] + (1, 2 * d, d))
    return (rows @ a).reshape(s[:-3] + (2, 2, d, d)).swapaxes(-4, -3)


class RatioOperator(NamedTuple):
    """The operator a2 * pinv(a1) with a degeneracy flag for singular a1."""

    matrix: np.ndarray
    degenerate: bool


class SpectralResolution(NamedTuple):
    """Spectral data of a normal operator: T = sum_i lambdas[i] |e_i><e_i|.

    ``vectors`` holds the orthonormal eigenbasis e_i in its columns.
    """

    lambdas: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Rank-one data of a Gram block satisfying the two-sided condition.

    ``alphas[i]`` is ||a1* e_i||, ``phis`` holds the normalized vectors
    a1* e_i / alphas[i] in its columns (a zero column when alphas[i] is below
    threshold), ``lambdas`` and ``es`` are the spectral data of the ratio
    operator.  ``degenerate`` marks a singular a1, for which the
    reconstruction identity is reported but not guaranteed.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    phis: np.ndarray
    es: np.ndarray
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return self.es.shape[0]


def gram_block(p: OperatorPair) -> OperatorBlockMatrix:
    """The 2 x 2 block matrix [[a1*a1, a1*a2], [a2*a1, a2*a2]].

    As the Gram matrix of the row (a1, a2) it is always PSD.  It is built
    once per pair and kept on it: later calls return the same object, with
    the checks :func:`stormer_test` has kept on it.  Raises ScaleError (a
    DomainError) when the products overflow double precision.
    """
    x = p._gram
    if x is None:
        d = p.dim
        with np.errstate(**_SILENT):
            b = _gram_blocks(np.concatenate((p.a1, p.a2)).reshape(2, d, d))
        try:
            x = OperatorBlockMatrix(b)
        except DomainError:  # its check of finite entries: a product overflowed
            raise _overflow("Gram block overflows", "pair", p.a1, p.a2) from None
        object.__setattr__(p, "_gram", x)
    return x


def swap_block(x: OperatorBlockMatrix) -> OperatorBlockMatrix:
    """Index swap blocks[i][j] -> blocks[j][i].

    Involutive; on the assembled matrix it acts as the partial transpose of
    the block-index tensor factor.
    """
    return OperatorBlockMatrix(x.blocks.transpose(1, 0, 2, 3))


def stormer_test(x: OperatorBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff both the assembled block matrix and its index swap are PSD.

    Hermiticity is decided once, on the assembled matrix: a block that is not
    Hermitian within tolerance raises DomainError on every call.  Each side
    is then judged by the spectrum of its Hermitian part alone, so its
    verdict is ``min_eig >= -threshold``, the rule of ``psd_margin``.  Both
    sides are always checked, and both checks are kept on ``x``, keyed by
    ``tol``: a later call with an equal tolerance returns the verdict
    without recomputing, and another tolerance gets its own.
    """
    direct, swapped = _two_sided(x, tol)
    return direct[0] and swapped[0]


def _two_sided(x: OperatorBlockMatrix, tol: Tolerance):
    """The (verdict, min_eig, threshold) checks of the assembled matrix and
    of its index swap that :func:`stormer_test` keeps on ``x``: one
    Hermiticity decision, then the spectra of one Hermitian part and its
    swap."""
    sides = x._sides.get(tol)
    if sides is None:
        m = x.assembled()
        mh = adjoint(m)
        if not _is_hermitian(m, mh, tol):
            raise DomainError("assembled block matrix is not Hermitian within tolerance")
        # the swap of the Hermitian part is, entry for entry, the Hermitian
        # part of the swap
        h = _hermitian_part(m, mh)
        sides = x._sides[tol] = (_psd_spectrum(h, tol, m), _psd_spectrum(_swap(h, x.n), tol, m))
    return sides


def gram_vectors(x: OperatorBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD block matrix into rows with x_ij = sum_k v_i^(k)* v_j^(k).

    Returns an array of shape (r, n, d): row k holds the n operators
    v_1^(k), ..., v_n^(k), each a 1 x d functional stored as a d-vector.
    Obtained from the eigendecomposition of the assembled matrix's Hermitian
    part that its PSD check was read off: one row per positive eigenvalue.
    The others, within tolerance of zero since the check passed, are
    dropped, so a block with no positive eigenvalue gives r = 0, a complex
    (0, n, d) array.
    """
    psd, w, v = _psd_check(x.assembled(), tol, vectors=True)
    if not psd:
        raise DomainError("block matrix is not PSD; no Gram factorization")
    keep = w > 0.0
    v = _fix_phases(v)
    return (np.sqrt(w[keep])[:, None] * np.conj(v[:, keep]).T).reshape(-1, x.n, x.d)


def gram_row_block(row: np.ndarray) -> OperatorBlockMatrix:
    """The rank-one Gram summand of a single factor row.

    ``row`` has shape (n, d); the result has blocks
    x_ij = conj(row_i)^T row_j, one term of the Gram factorization.
    """
    r = np.asarray(row, dtype=complex)
    if r.ndim != 2:
        raise DimensionError(f"row must have shape (n, d), got {r.shape}")
    return OperatorBlockMatrix(np.einsum("ir,jc->ijrc", np.conj(r), r))


def _ratio_operator(a1: np.ndarray, a2: np.ndarray, rcond: float) -> tuple[RatioOperator, float]:
    """The ratio operator a2 pinv(a1) and ``||a1||``, read off the same
    singular values."""
    sv = _svdvals(a1)
    degenerate = bool(sv[-1] <= rcond * sv[0])
    return RatioOperator(a2 @ _pinv(a1, rcond), degenerate), float(sv[0])


def ratio_operator(p: OperatorPair, rcond: float = DEFAULT_RCOND) -> RatioOperator:
    """T = a2 * pinv(a1), flagged degenerate when a1 is numerically singular."""
    return _ratio_operator(p.a1, p.a2, rcond)[0]


def contraction_condition(
    p: OperatorPair,
    tol: Tolerance = DEFAULT_TOL,
    rcond: float = DEFAULT_RCOND,
    form: str = "printed",
) -> bool:
    """Operator inequality equivalent to positivity of the swapped Gram block.

    The ``printed`` form tests ``a1*a2 |a1|^-2 a2*a1 <= |a2|^2``, i.e. that
    ``pinv(|a1|) a2* a1 pinv(|a2|)`` is a contraction; for invertible a1 this
    is hyponormality (hence normality) of a2 a1^{-1}.  The ``gram`` form swaps
    the middle factors: ``a2*a1 |a1|^-2 a1*a2 <= |a2|^2``, the contraction
    condition of the unswapped Gram block, which holds identically because
    that block is always PSD.  Both are kept so the difference is testable.
    """
    a1h, a2h = adjoint(p.a1), adjoint(p.a2)
    g1 = pinv(a1h @ p.a1, rcond)
    if form == "printed":
        middle = (a1h @ p.a2) @ g1 @ (a2h @ p.a1)
    elif form == "gram":
        middle = (a2h @ p.a1) @ g1 @ (a1h @ p.a2)
    else:
        raise ValueError(f"unknown form {form!r}")
    return is_psd(a2h @ p.a2 - middle, tol)


def spectral_resolution(t, tol: Tolerance = DEFAULT_TOL) -> SpectralResolution:
    """Eigenvalues and an orthonormal eigenbasis of a normal operator.

    The basis is the QR factor of the eigenvectors ``np.linalg.eig`` returns,
    in the order it returns them.  LAPACK computes those as Z X, where
    T = Z S Z* is a complex Schur form (balancing only permutes a normal
    operator, so Z stays unitary) and X holds the upper triangular
    eigenvectors of S.  The QR factor is therefore the Schur basis Z up to
    phases, which is an eigenbasis for normal input; the eigenvectors of
    near-coincident eigenvalues are orthonormalized in the same
    factorization.  Eigenvalues and basis columns are then sorted ascending
    by (real, imag).  Raises for input that is not normal within tolerance.
    """
    a = require_square(t)
    if not _is_normal(a, tol):
        raise DomainError("operator is not normal within tolerance")
    return _eigenbasis(a)


def _eigenbasis(a: np.ndarray) -> SpectralResolution:
    """The resolution of an operator already known to be normal."""
    lam, v = _eig(a)
    order = np.lexsort((lam.imag, lam.real))
    es = _fix_phases(_qr(v)[:, order])
    # + 0.0 turns the negative zeros that the reflections and the phase
    # rotation leave into zeros, so reports never print -0.0.
    es += 0.0
    return SpectralResolution(lam[order], es)


def reconstruct_a2(a1, lambdas, vectors) -> np.ndarray:
    """Rebuild the second operator from spectral data of the ratio operator:
    sum_i lambda_i |e_i><a1* e_i|, with |f><g| z = (g, z) f."""
    a = require_square(a1, "a1")
    lam = np.asarray(lambdas, dtype=complex)
    es = as_matrix(vectors)
    if lam.ndim != 1 or es.shape[0] != a.shape[0] or es.shape[1] != lam.shape[0]:
        raise DimensionError(
            f"need {a.shape[0]}-vectors, one per eigenvalue; got {es.shape} "
            f"for eigenvalues of shape {lam.shape}"
        )
    if not np.isfinite(lam).all():
        raise DomainError("eigenvalues must be finite")
    g = adjoint(a) @ es
    return np.einsum("i,ri,ci->rc", lam, es, np.conj(g))


def canonical_decomposition(
    p: OperatorPair,
    tol: Tolerance = DEFAULT_TOL,
    rcond: float = DEFAULT_RCOND,
) -> CanonicalDecomposition:
    """Rank-one decomposition of the Gram block of a pair satisfying the
    two-sided positivity condition.

    Raises DomainError when the condition fails, or when a1 is singular and
    the ratio operator is not normal (no decomposition exists then).  A
    singular a1 with normal ratio operator yields a best-effort result with
    the ``degenerate`` flag set.  Raises ScaleError, a DomainError that is
    malformed input rather than a failed condition, when the ratio
    operator's self-commutator overflows double precision.  The condition
    is checked by :func:`stormer_test` on the pair's Gram block, so a
    verdict kept there is reused.
    """
    _require_two_sided(p, tol)
    return _canonical(p.a1, p.a2, tol, rcond)


def _require_two_sided(p: OperatorPair, tol: Tolerance) -> None:
    if not stormer_test(gram_block(p), tol):
        raise DomainError("two-sided positivity condition not satisfied")


def _canonical(a1, a2, tol: Tolerance, rcond: float) -> CanonicalDecomposition:
    """The decomposition of the pair's operators (a1, a2), taken in this
    order, of a pair already known to satisfy the condition."""
    (t, degenerate), a1_norm = _ratio_operator(a1, a2, rcond)
    if not _is_normal(t, tol):
        raise DomainError(
            "pair is degenerate and its ratio operator is not normal; "
            "canonical decomposition is undefined"
            if degenerate
            else "operator is not normal within tolerance"
        )
    lam, es = _eigenbasis(t)
    g = adjoint(a1) @ es
    # np.linalg.norm(g, axis=0), written out as numpy's own body
    alphas = np.sqrt(np.add.reduce((g.conj() * g).real, axis=0))
    keep = alphas > tol.threshold(a1_norm)
    if keep.all():
        phis = g / alphas
    else:
        phis = np.zeros_like(g)
        phis[:, keep] = g[:, keep] / alphas[keep]
    return CanonicalDecomposition(
        alphas=alphas, lambdas=lam, phis=phis, es=es, degenerate=degenerate
    )


def _squares(x: np.ndarray) -> np.ndarray:
    """``|x| ** 2`` entry by entry, each from a scalar abs() and square.  A
    float64 scalar squares through libm's ``pow``, an array through
    ``x * x``, and abs() of a complex scalar is hypot, which np.abs of an
    array is not always; the array forms differ in the last bit on some
    entries, so the reconstructions and the separable forms keep the
    scalar ones."""
    return np.array([abs(v) ** 2 for v in x])


def _kept(dec: CanonicalDecomposition) -> np.ndarray | slice:
    """The index of the terms whose phi is nonzero: a slice, read as views,
    when every term is kept, as for an invertible a1; a boolean mask when
    some alpha fell below threshold."""
    keep = dec.phis.any(axis=0)
    return slice(None) if keep.all() else keep


def reconstruct_block(dec: CanonicalDecomposition) -> OperatorBlockMatrix:
    """Reassemble sum_i alphas[i]^2 * Lambda_i (x) |phi_i><phi_i| with
    Lambda_i = [[1, lam_i], [conj(lam_i), |lam_i|^2]].

    The terms are one stack, with the scalar squares of :func:`_squares`,
    scaled by alphas[i]^2 and summed in order from zero, so each entry
    rounds as in adding one term at a time.
    """
    keep = _kept(dec)
    phis = np.ascontiguousarray(dec.phis.T[keep])
    lams = dec.lambdas[keep]
    coeff = np.empty((len(lams), 2, 2), dtype=complex)
    coeff[:, 0, 0] = 1.0
    coeff[:, 0, 1] = lams
    coeff[:, 1, 0] = np.conj(lams)
    coeff[:, 1, 1] = _squares(lams)
    terms = np.einsum("kpq,krc->kpqrc", coeff, phis[:, :, None] * np.conj(phis)[:, None, :])
    terms = _squares(dec.alphas[keep])[:, None, None, None, None] * terms
    return OperatorBlockMatrix(np.add.reduce(terms, axis=0, initial=0.0))


def dual_decomposition(
    p: OperatorPair,
    tol: Tolerance = DEFAULT_TOL,
    rcond: float = DEFAULT_RCOND,
) -> CanonicalDecomposition:
    """Canonical decomposition with the roles of a1 and a2 exchanged.

    Decomposes the Gram block of (a2, a1); the reconstruction identity then
    holds for the role-swapped block.  The two-sided condition is a property
    of the pair, not of the role order: the Gram block of (a2, a1) and its
    index swap are permutation-similar to those of (a1, a2).  So the check
    is :func:`stormer_test` on the pair's own Gram block, and a pair that
    :func:`canonical_decomposition` has checked is not tested again.  The
    decomposition is then the canonical one of the pair's own operators
    taken in the other order, (a2, a1): no second pair is built.
    """
    _require_two_sided(p, tol)
    return _canonical(p.a2, p.a1, tol, rcond)
