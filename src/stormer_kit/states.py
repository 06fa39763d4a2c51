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
    _op_norm,
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
    """Normalized positive matrix on a bipartite space with dims (n, d).

    The state owns a read-only copy of its matrix, as the other value
    objects do: it never aliases the caller's array, and writing into
    ``matrix`` raises ``ValueError``, so the validated matrix and the lowest
    eigenvalue kept from its validation cannot go stale.  A residual
    ``m - m*`` that overflows is not Hermitian; finite entries whose
    Hermitian part or spectrum overflows raise ScaleError (a DomainError).
    """

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n, d = self.dims
        m = _held(require_square(self.matrix, "state matrix"))
        if n < 1 or d < 1 or m.shape[0] != n * d:
            raise DimensionError(
                f"state of dims {self.dims} needs n, d >= 1 and a {n * d} x {n * d} matrix"
            )
        mh = adjoint(m)
        scale = 1.0 + float(np.abs(m).max())
        try:
            hermitian = np.abs(m - mh).max() <= _HERM_EPS * scale
        except RuntimeWarning:  # where warnings are errors: the residual overflows
            hermitian = False
        if not hermitian:
            raise DomainError("state matrix is not Hermitian")
        self._settle(m, mh, scale)

    @classmethod
    def _of_fresh(cls, dims: tuple[int, int], m: np.ndarray) -> "DensityState":
        """The state of ``m``, a fresh n*d x n*d matrix whose Hermitian
        residual is zero, such as ``(x + x*) / 2 / t``: the state takes
        ``m`` over, read-only, without a copy, and skips the residual check
        it would pass.  The finiteness check and both bands still run on
        the same Hermitian part, so the state, its errors and ``_lowest``
        are those of ``cls(dims, m)``.  (``m`` is Hermitian in value but
        not always in the signs of its zeros, which can move the last bits
        of its spectrum: the spectrum is still read off its Hermitian
        part.)"""
        if not np.isfinite(m).all():
            raise DomainError("matrix entries must be finite")
        m.flags.writeable = False
        s = object.__new__(cls)
        object.__setattr__(s, "dims", dims)
        s._settle(m, adjoint(m), 1.0 + float(np.abs(m).max()))
        return s

    def _settle(self, m: np.ndarray, mh: np.ndarray, scale: float) -> None:
        """The unit-trace and eigenvalue bands of a Hermitian ``m`` with
        adjoint ``mh`` and largest entry ``scale - 1``; then ``m`` and its
        lowest eigenvalue kept."""
        if abs(m.trace() - 1.0) > _TRACE_EPS * scale:
            raise DomainError("state matrix must have unit trace")
        lowest = _psd_spectrum(_hermitian_part(m, mh), DEFAULT_TOL, m)[1]
        if lowest < _EIG_FLOOR * scale:
            raise DomainError("state matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_lowest", lowest)  # not a field: kept for reports


def state_from_block(x: OperatorBlockMatrix, tol: Tolerance = DEFAULT_TOL) -> DensityState:
    """Normalize a PSD block matrix to a density state on (n) x (d).

    The PSD check of the assembled matrix is reused when ``x`` already
    holds :func:`stormer_test`'s checks for ``tol``, whatever the swapped
    side gave: its direct side judged the same matrix, whose Hermiticity it
    had decided.  Otherwise the matrix gets the boundary check of
    :func:`is_psd`.  The state's own validation (fixed bands, independent of
    ``tol``) always runs, through :meth:`DensityState._of_fresh`: the
    normalized matrix is fresh, so the state takes it over without a copy,
    and its Hermitian residual is zero, so it is not checked.
    """
    m = x.assembled()
    sides = x._sides.get(tol)
    if not (sides[0] if sides else _psd_check(m, tol))[0]:
        raise DomainError("block matrix is not PSD; cannot form a state")
    tr = float(m.trace().real)
    # ||m||_2 <= ||m||_F: a trace above the threshold at twice the Frobenius
    # norm clears the threshold at the operator norm, whatever the rounding;
    # only a trace below that pays for the SVD.
    if tr <= tol.threshold(2.0 * _frobenius(m)) and tr <= tol.threshold(_op_norm(m)):
        raise DomainError("block matrix has (numerically) zero trace")
    return DensityState._of_fresh((x.n, x.d), 0.5 * (m + adjoint(m)) / tr)


def partial_transpose_matrix(m, n: int, d: int, factor: int) -> np.ndarray:
    """Transpose of one tensor factor of a matrix on C^n (x) C^d."""
    a = require_square(m, "bipartite matrix")
    if n < 1 or d < 1 or a.shape[0] != n * d:
        raise DimensionError(f"matrix must be {n * d} x {n * d} for positive dims ({n}, {d})")
    if factor not in (1, 2):
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
    return _ppt_check(rho, tol)[0]


def _ppt_check(rho: DensityState, tol: Tolerance):
    """(verdict, min_eig, threshold) of :func:`is_ppt`: the one PT check,
    whose min_eig the reports print."""
    m = rho.matrix
    return _psd_spectrum(_swap(0.5 * (m + adjoint(m)), rho.dims[0]), tol, m)


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
