"""Dense complex linear algebra: eigendecompositions, pseudoinverses, and
tolerance-based operator predicates.

All routines act on 2-d complex numpy arrays.  Predicates such as
:func:`is_psd` compare eigenvalues against a scale-aware threshold
``abs_eps + rel_eps * (1 + scale)`` so that verdicts are stable across
conditioning and across rescaled inputs; :func:`psd_margin` is the one place
that rule is computed from a spectrum.

Checks of a norm against a threshold (hermiticity, normality, the asymmetry
guard of :func:`eig_hermitian`) settle with a cheap bound first: the
operator norm is at most the Frobenius norm, so a residual whose Frobenius
norm is at most half the scale-free floor (the threshold at scale 0) passes
without an SVD.  Only when that bound cannot decide does the SVD-based
comparison run, so every verdict is the one the SVD alone would give; the
factor one half keeps rounding in either norm from flipping it.

Public functions validate their arguments; the private ``_``-prefixed
kernels they share assume a validated square complex array and are what
the rest of the package calls on data it has validated already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "DEFAULT_RCOND",
    "DEFAULT_TOL",
    "HermitianEig",
    "Tolerance",
    "adjoint",
    "eig_hermitian",
    "is_contraction",
    "is_hermitian",
    "is_hyponormal",
    "is_normal",
    "is_psd",
    "op_norm",
    "pinv",
    "psd_margin",
    "sqrt_psd",
]

# Default SVD truncation for pseudoinverses (double precision).
DEFAULT_RCOND = 1e-12

# Asymmetry above this relative level is malformed input, not roundoff noise.
_HERMITICITY_REL = 1e-6

# Magnitude below which a component is ignored when fixing eigenvector phases.
_PHASE_CUTOFF = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def require_square(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


@dataclass(frozen=True)
class Tolerance:
    """Scale-aware numerical tolerance.

    The effective threshold for a quantity of scale ``s`` is
    ``abs_eps + rel_eps * (1 + s)``; it is monotone in the scale.  Quantities
    that are homogeneous of degree two in the input (such as the
    self-commutator ``T*T - TT*``) are compared against the quadratic variant.
    """

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 <= self.abs_eps < math.inf and 0.0 <= self.rel_eps < math.inf):
            raise DomainError(
                "tolerances must be finite and nonnegative, got "
                f"abs_eps={self.abs_eps!r}, rel_eps={self.rel_eps!r}"
            )

    def threshold(self, scale: float) -> float:
        return self.abs_eps + self.rel_eps * (1.0 + scale)

    def threshold_for(self, m) -> float:
        return self.threshold(op_norm(m))

    def quadratic_threshold(self, scale: float) -> float:
        return self.abs_eps + self.rel_eps * (1.0 + scale) ** 2


DEFAULT_TOL = Tolerance()


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds an
    orthonormal basis in its columns, phase-fixed so that the first
    nonnegligible component of each column is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _op_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def op_norm(m) -> float:
    """Largest singular value."""
    return _op_norm(as_matrix(m))


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the operator norm."""
    return math.sqrt(np.vdot(a, a).real)


def _negligible(d: np.ndarray, floor: float) -> bool:
    """True when ``||d||_F <= floor / 2``, which settles ``||d||_2 <= t`` for
    every threshold ``t >= floor`` because the operator norm is at most the
    Frobenius norm.  False means undecided: the caller compares the SVD
    norm against its threshold as before.  A bound of zero settles only for
    d == 0, since squares of tiny entries underflow."""
    f = _frobenius(d)
    return f <= 0.5 * floor and (f > 0.0 or not d.any())


def psd_margin(w, tol: Tolerance = DEFAULT_TOL):
    """(minimum eigenvalue, PSD threshold) of ascending eigenvalues ``w``.

    The threshold is ``tol.threshold`` at the spectrum's scale
    ``max(|w_min|, |w_max|)``; the spectrum is PSD within tolerance when
    ``min_eig >= -threshold``.  A stack of spectra of shape (..., k) gives
    arrays of shape (...).
    """
    w = np.asarray(w)
    if w.ndim == 1:  # scalar arithmetic: a few times faster than array ops
        lowest = w[0]
        return lowest, tol.threshold(max(abs(lowest), abs(w[-1])))
    lowest = w[..., 0]
    return lowest, tol.threshold(np.maximum(np.abs(lowest), np.abs(w[..., -1])))


def _is_hermitian(a: np.ndarray, tol: Tolerance) -> bool:
    d = a - adjoint(a)
    return _negligible(d, tol.threshold(0.0)) or _op_norm(d) <= tol.threshold(_op_norm(a))


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``||M - M*||`` is below the threshold for M's scale."""
    return _is_hermitian(require_square(m), tol)


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonnegligible entry is real positive."""
    out = np.array(v, dtype=complex)
    big = np.abs(out) > _PHASE_CUTOFF
    cols = np.flatnonzero(big.any(axis=0))
    pivots = out[big.argmax(axis=0)[cols], cols]
    # Same arithmetic as rotating one column at a time: hypot is what abs()
    # of a complex scalar computes (np.abs of an array can differ in the last
    # bit), and each column is scaled as a row against a broadcast scalar,
    # the loop numpy uses for array * scalar.
    phases = np.conj(pivots) / np.hypot(pivots.real, pivots.imag)
    out[:, cols] = (out.T[cols] * phases[:, None]).T
    return out


def _eig_hermitian(a: np.ndarray) -> HermitianEig:
    ah = adjoint(a)
    h = 0.5 * (a + ah)
    d = a - ah
    if not _negligible(d, _HERMITICITY_REL):
        scale = _op_norm(h)
        asym = _op_norm(d)
        if asym > _HERMITICITY_REL * (1.0 + scale):
            raise DomainError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
                f"{_HERMITICITY_REL:.0e} * (1 + {scale:.3e})"
            )
    w, v = np.linalg.eigh(h)
    return HermitianEig(w, fix_phases(v))


def eig_hermitian(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The input is symmetrized as ``(M + M*)/2`` before solving; asymmetry
    beyond ``1e-6 * (1 + ||M||)`` is rejected as malformed rather than
    silently repaired.
    """
    return _eig_hermitian(require_square(m))


def _psd_check(a: np.ndarray, tol: Tolerance):
    """(verdict, min_eig, threshold) of :func:`is_psd`: the one PSD check,
    whose min_eig and threshold are the numbers reports print.  Raises
    DomainError when finite entries give a spectrum that overflows."""
    ah = adjoint(a)
    try:
        lowest, thr = psd_margin(np.linalg.eigvalsh(0.5 * (a + ah)), tol)
    except np.linalg.LinAlgError:  # numpy's answer to a NaN spectrum
        lowest = thr = math.nan
    if not (math.isfinite(lowest) and math.isfinite(thr)):
        raise DomainError(
            f"spectrum overflows: matrix entries reach {np.abs(a).max():.3e}; "
            "rescale the matrix"
        )
    d = a - ah
    hermitian = _negligible(d, tol.threshold(0.0)) or _op_norm(d) <= thr
    return bool(hermitian and lowest >= -thr), lowest, thr


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff M is Hermitian within tolerance and its minimum eigenvalue
    clears the scale-aware floor (see :func:`psd_margin`).  Raises
    DomainError when M's spectrum overflows double precision."""
    return _psd_check(require_square(m), tol)[0]


def sqrt_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix, eigenvalues clipped at zero."""
    a = require_square(m)
    if not _psd_check(a, tol)[0]:
        raise DomainError("matrix is not positive semidefinite within tolerance")
    w, v = _eig_hermitian(a)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v)
    return 0.5 * (s + adjoint(s))


def pinv(m, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond`` times the largest are treated as zero.
    """
    a = as_matrix(m)
    return np.linalg.pinv(a, rcond=rcond)


def is_contraction(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the operator norm is at most 1, within tolerance."""
    n = op_norm(t)
    return n <= 1.0 + tol.threshold(n)


def _self_commutator(a: np.ndarray) -> np.ndarray:
    ah = adjoint(a)
    return ah @ a - a @ ah


def _is_normal(a: np.ndarray, tol: Tolerance) -> bool:
    """Normality of a validated square array; ``||a||`` is computed only if
    the bound is undecided."""
    c = _self_commutator(a)
    if _negligible(c, tol.quadratic_threshold(0.0)):
        return True
    return _op_norm(c) <= tol.quadratic_threshold(_op_norm(a))


def is_normal(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff T commutes with its adjoint.

    The self-commutator ``T*T - TT*`` is degree two in T, so it is compared
    against the quadratic threshold for T's scale.
    """
    return _is_normal(require_square(t), tol)


def is_hyponormal(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``T*T - TT*`` is PSD, i.e. ``||T* g|| <= ||T g||`` for all g."""
    return is_psd(_self_commutator(require_square(t)), tol)
