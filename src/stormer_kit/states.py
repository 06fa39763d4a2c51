"""Bipartite density states from block matrices: PPT check and the explicit
separable decomposition carried by a canonical Gram decomposition.

States live on (block index) x (space), block index first.  A block matrix
passing the two-sided positivity test normalizes to a PPT state, because the
index swap is the partial transpose of the first factor; the canonical
decomposition upgrades PPT to an explicit separable form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DimensionError, DomainError, InputError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _ValueObject,
    _frobenius,
    _held,
    _hermitian_part,
    _integer,
    _op_norm,
    _overflow,
    _psd_check,
    _psd_spectrum,
    adjoint,
    require_square,
)
from .stormer import CanonicalDecomposition, OperatorBlockMatrix, _kept, _squares, _swap

__all__ = list(_EXPORTS["states"])

# Fixed validity bands for density matrices (independent of per-call tolerance).
_HERM_EPS = 1e-10
_TRACE_EPS = 1e-10
_EIG_FLOOR = -1e-9


@dataclass(frozen=True, eq=False)
class DensityState(_ValueObject):
    """Normalized positive matrix on a bipartite space with dims (n, d),
    kept as a pair of ints.

    The state owns a read-only copy of its matrix, as the other value
    objects do: it never aliases the caller's array, and writing into
    ``matrix`` raises ``ValueError``, so the validated matrix and the lowest
    eigenvalue kept from its validation cannot go stale.  A residual
    ``m - m*`` that overflows is not Hermitian; finite entries whose
    modulus, Hermitian part or spectrum overflows raise ScaleError (a
    DomainError): an infinite modulus would make every band infinite.
    """

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        try:  # a DimensionError of _integer is a ValueError too
            n, d = (_integer(k, "state dims", DimensionError) for k in self.dims)
        except (TypeError, ValueError):
            raise DimensionError(f"state dims must be two integers, got {self.dims!r}") from None
        m = _held(require_square(self.matrix, "state matrix"))
        if n < 1 or d < 1 or m.shape[0] != n * d:
            raise DimensionError(
                f"state of dims {(n, d)} needs n, d >= 1 and a {n * d} x {n * d} matrix"
            )
        mh = adjoint(m)
        scale = 1.0 + float(np.abs(m).max())
        if scale == np.inf:
            raise _overflow("entry modulus overflows", "matrix", m)
        band = _HERM_EPS * scale
        try:
            # ||r||_F <= band / 2 settles it, with room for rounding: no
            # modulus exceeds the Frobenius norm, and one whose squares
            # underflow is far below the band.  A fresh state's zero
            # residual so costs no abs().
            r = m - mh
            hermitian = _frobenius(r) <= 0.5 * band or np.abs(r).max() <= band
        except RuntimeWarning:  # where warnings are errors: the residual overflows
            hermitian = False
        if not hermitian:
            raise DomainError("state matrix is not Hermitian")
        if abs(m.trace() - 1.0) > _TRACE_EPS * scale:
            raise DomainError("state matrix must have unit trace")
        lowest = _psd_spectrum(_hermitian_part(m, mh), DEFAULT_TOL, m).lowest
        if lowest < _EIG_FLOOR * scale:
            raise DomainError("state matrix has a negative eigenvalue")
        object.__setattr__(self, "dims", (n, d))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_lowest", lowest)  # not a field: kept for reports


def state_from_block(x: OperatorBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> DensityState:
    """Normalize a PSD block matrix to a density state on (n) x (d).

    The PSD check of the assembled matrix is reused when ``x`` already
    holds :func:`stormer_test`'s checks for ``tol``, whatever the swapped
    side gave: its direct side judged the same matrix, whose Hermiticity it
    had decided.  Otherwise the matrix gets the boundary check of
    :func:`is_psd`.  The state is ``DensityState((n, d), h / trace)`` for
    the Hermitian part ``h``, so its own validation (fixed bands,
    independent of ``tol``) always runs in its constructor.
    """
    m = x.assembled()
    sides = x._sides.get(tol)
    if not (sides[0] if sides else _psd_check(m, tol)).ok:
        raise DomainError("block matrix is not PSD; cannot form a state")
    tr = float(m.trace().real)
    # ||m||_2 <= ||m||_F: a trace above the threshold at twice the Frobenius
    # norm clears the threshold at the operator norm, whatever the rounding;
    # only a trace below that pays for the SVD.
    if tr <= tol.threshold(2.0 * _frobenius(m)) and tr <= tol.threshold(_op_norm(m)):
        raise DomainError("block matrix has (numerically) zero trace")
    return DensityState((x.n, x.d), _hermitian_part(m, adjoint(m)) / tr)


def partial_transpose_matrix(m, n: int, d: int, factor: int) -> np.ndarray:
    """Transpose of one tensor factor of a matrix on C^n (x) C^d."""
    a = require_square(m, "bipartite matrix")
    n, d = _integer(n, "n", DimensionError), _integer(d, "d", DimensionError)
    if n < 1 or d < 1 or a.shape[0] != n * d:
        raise DimensionError(f"matrix must be {n * d} x {n * d} for positive dims ({n}, {d})")
    if _integer(factor, "factor", InputError) not in (1, 2):
        raise InputError(f"factor must be 1 or 2, got {factor}")
    # The second factor's partial transpose is the first's of the transpose.
    return _swap(a if factor == 1 else a.T, n)


def partial_transpose(rho: DensityState, factor: int) -> np.ndarray:
    """Transpose applied to one tensor factor of the state."""
    n, d = rho.dims
    return partial_transpose_matrix(rho.matrix, n, d, factor)


def is_ppt(rho: DensityState, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the partial transpose over the first factor is PSD.

    The state's constructor has settled that its matrix is Hermitian, within
    fixed bands, so the verdict reads only the spectrum of the partial
    transpose's Hermitian part, against ``tol``'s PSD threshold.
    """
    return _ppt_check(rho, tol).ok


def _ppt_check(rho: DensityState, tol: Tolerance):
    """The :class:`_Verdict` of :func:`is_ppt`, the one PT check, read off
    an ``eigvalsh``: its ``lowest`` is the number reports print."""
    m = rho.matrix
    return _psd_spectrum(_swap(_hermitian_part(m, adjoint(m)), rho.dims[0]), tol, m)


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """Convex mixture of product projectors reproducing a state.

    ``factor1[i]`` is a unit vector in C^2 (the block-index factor),
    ``factor2[i]`` a unit vector in C^d; the state is
    sum_i weights[i] |factor1_i><factor1_i| (x) |factor2_i><factor2_i|.
    """

    weights: np.ndarray
    factor1: np.ndarray
    factor2: np.ndarray


def separable_decomposition(dec: CanonicalDecomposition) -> SeparableDecomposition:
    """Separable form of the normalized Gram block of a decomposed pair.

    Each rank-one term alpha^2 Lambda (x) |phi><phi| is a product projector in
    disguise: Lambda = (1 + |lam|^2) |w><w| for the unit vector
    w = (1, conj(lam)) / sqrt(1 + |lam|^2).  Weights are the normalized masses
    alpha_i^2 (1 + |lam_i|^2).

    The terms are computed as one stack, with the scalar squares of
    ``reconstruct_block`` (``stormer._squares``), so each weight and factor
    is the one a term-by-term loop gives, byte for byte.
    """
    keep = _kept(dec)
    lams = dec.lambdas[keep]
    scale = 1.0 + _squares(lams)
    masses = _squares(dec.alphas[keep]) * scale
    total = float(np.sum(masses))
    if total <= 0.0:
        raise DomainError("decomposition has no mass; cannot normalize")
    f1 = np.empty((len(lams), 2), dtype=complex)
    f1[:, 0] = 1.0
    f1[:, 1] = np.conj(lams)
    return SeparableDecomposition(
        weights=masses / total,
        factor1=f1 / np.sqrt(scale)[:, None],
        factor2=dec.phis.T[keep].copy(),
    )


def separable_state(sep: SeparableDecomposition) -> np.ndarray:
    """Reassemble the density matrix of a separable decomposition."""
    terms = [
        w * np.outer(np.kron(u, v), np.conj(np.kron(u, v)))
        for w, u, v in zip(sep.weights, sep.factor1, sep.factor2)
    ]
    return np.sum(terms, axis=0)
