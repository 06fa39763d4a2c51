"""Dense complex linear algebra: eigendecompositions, pseudoinverses, and
tolerance-based operator predicates.

All routines act on 2-d complex numpy arrays.  Predicates such as
:func:`is_psd` compare eigenvalues against a scale-aware threshold
``abs_eps + rel_eps * (1 + scale)`` so that verdicts are stable across
conditioning and across rescaled inputs; :func:`psd_margin` is the one place
that rule is computed from a spectrum.  A PSD check reads one spectrum of
one Hermitian part: an ``eigvalsh`` where only the verdict is needed, and
where the matrix is factored next (:func:`sqrt_psd`, the Gram vectors, the
partition test), the one ``eigh`` that factors it.

Checks of a norm against a threshold (hermiticity, normality, the asymmetry
guard of :func:`eig_hermitian`) settle with a cheap bound first: the
operator norm is at most the Frobenius norm, so a residual whose Frobenius
norm is at most half the scale-free floor (the threshold at scale 0) passes
without an SVD.  Only when that bound cannot decide does the SVD-based
comparison run, so every verdict is the one the SVD alone would give; the
factor one half keeps rounding in either norm from flipping it.

A residual ``a - a*`` that overflows double precision is within no
threshold: :func:`_is_hermitian`, the one Hermiticity test of
:func:`is_hermitian` and :func:`is_psd`, reads it as not Hermitian.  Finite
input whose verdict cannot be decided because its arithmetic overflows
raises the ScaleError of :func:`_overflow`, the one place such a message is
written, for this module and the others.

Public functions validate their arguments; the private ``_``-prefixed
kernels they share assume a validated square complex array and are what
the rest of the package calls on data it has validated already.  One of
them, :func:`_fix_phases`, the phase rule of every eigenvector and basis
matrix the package returns, assumes more: a pivot in every column, which
each unit column has.  The
package's value objects own read-only copies of their arrays made by
:func:`_held`, and share one pickling rule, :class:`_ValueObject`.

Every factorization in the package goes through one LAPACK seam here:
:func:`_eigvalsh`, :func:`_eigh`, :func:`_svdvals`, :func:`_eig`,
:func:`_qr`, :func:`_pinv`, :func:`_cond` and :func:`_positive_definite`
(Cholesky, for its verdict alone); no other module calls ``numpy.linalg``
for one.  The seam has two paths.  Complex128 input takes
the gufunc path: it calls numpy's ``_umath_linalg`` gufuncs directly, with
the signatures and the post-processing ``numpy.linalg`` uses, so its
results are bit-equal to the public functions' by construction, without
their Python wrapper.  On one matrix the wrapper costs a few microseconds
a call, about as much as LAPACK takes at the 2x2 to 12x12 sizes used here.
On the samplers' stacks of 20 Haar factors the stack path saves 7-15 us a
``qr`` call that returns R's diagonal (see CHANGES for the measurement).
A NaN output, the gufuncs' mark of a LAPACK failure, hands the input to
the public function, which raises ``LinAlgError`` or returns what numpy
returns.

- One 2-d matrix takes the gufunc path, which tests its first output
  element for NaN, in every function except :func:`_cond`, which calls
  ``np.linalg.cond`` on every input.
- A stack of matrices takes it in :func:`_eigvalsh` and :func:`_qr`, the
  samplers', the necessity engine's and the witness search's calls, with
  one NaN test per stack.
- :func:`_positive_definite` answers for each matrix of a stack, or for
  one matrix, whether ``np.linalg.cholesky`` succeeds on it with a factor
  free of NaN, that is without an overflow.  A failure is an answer, not
  an error, so it has no NaN hand-off: one ``cholesky_lo`` call gives
  every verdict.  Its one caller is :func:`_above`, the package's one
  certificate of positive definiteness: a Cholesky of a stack shifted by
  current + delta, which proves of every matrix it factors that its
  lowest eigenvalue is above current + 2 delta / 3.  Three clients read
  it, each closing its proof with its own last step: the necessity engine
  and the witness search (``maps._screen``, the rounding of ``eigvalsh``),
  and :func:`_well_conditioned`, the pair sampler's condition test, which
  clears a candidate a1 whose Gram matrix lies provably above
  top / cond_max^2, top the stack's largest squared Frobenius norm (the
  rounding of the Gram product and of the SVD).  Only the candidates it
  does not clear get :func:`_cond`, so its verdicts are those of
  ``_cond(a1) <= cond_max``.

Floating-point state follows one rule.  No seam function and no private
stack kernel enters or reads a state: an errstate on every call would cost
what the wrapper does.  Each public call that runs stacked LAPACK calls
(the samplers, the necessity engine, the witness search), or that reports
an overflow as ScaleError instead of a warning, enters
``np.errstate(**_SILENT)`` once, with every flag ignored, as numpy's
wrappers ignore over, divide and under and turn invalid into their error
or answer.  In it the gufunc path warns and raises exactly as the public
function does.  Outside it, where LAPACK fails, the gufunc issues its
RuntimeWarnings (divide, invalid) before the same result or error, and
where warnings are errors, the first is raised in its place; a finite
input that LAPACK solves issues none.

Everything else takes the public path and calls the ``numpy.linalg``
function itself: stacks in the other functions, other dtypes, a numpy
without ``_umath_linalg`` (private API), and a ``numpy.linalg`` attribute
that is no longer numpy's own function, so a wrapper installed over one,
such as a call counter, sees every call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .errors import DimensionError, DomainError, ScaleError, StormerKitError

try:  # private numpy API, used only on the gufunc path of the LAPACK seam
    from numpy.linalg import _linalg as _numpy_linalg
    from numpy.linalg import _umath_linalg
except ImportError:  # pragma: no cover - every call takes the public path
    _numpy_linalg = _umath_linalg = None

__all__ = list(_EXPORTS["linalg"])

# Default SVD truncation for pseudoinverses (double precision).
DEFAULT_RCOND = 1e-12

# Asymmetry above this relative level is malformed input, not roundoff noise.
_HERMITICITY_REL = 1e-6

# Magnitude below which a component is ignored when fixing eigenvector phases.
_PHASE_CUTOFF = 1e-12

_COMPLEX128 = np.dtype(np.complex128)

_EPS = float(np.finfo(float).eps)
# The smallest normal double.
_TINY = float(np.finfo(float).tiny)


# -- the LAPACK seam ------------------------------------------------------

# The package's one floating-point state, every flag ignored: the state of
# ``np.errstate(**_SILENT)``, entered once by each public call that needs it.
_SILENT = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}


def _gufunc_path(a, name: str, stack: bool = False) -> bool:
    """True when ``a`` is one nonempty 2-d complex128 array (with ``stack``:
    a nonempty stack of them, ndim above 2), the gufuncs are there and
    ``numpy.linalg.<name>`` is still numpy's own function."""
    return (
        type(a) is np.ndarray
        and (a.ndim > 2 if stack else a.ndim == 2)
        and a.dtype is _COMPLEX128
        and a.size > 0
        and _umath_linalg is not None
        and getattr(np.linalg, name) is getattr(_numpy_linalg, name)
    )


def _solved(lead) -> bool:
    """True when ``lead``, one output element per matrix of a stack, holds
    no NaN, the gufuncs' mark of a LAPACK failure.  One sum is the cheapest
    test; a sum that is NaN for another reason (inf - inf) only hands the
    stack to numpy, which returns the same result."""
    s = np.add.reduce(lead, None)
    return s == s


def _eigvalsh(a):
    """Ascending eigenvalues of Hermitian ``a`` (its lower triangle), as
    ``np.linalg.eigvalsh``; ``a`` may be a stack, which is tested for NaN
    once, in its matrices' lowest eigenvalues."""
    stack = a.ndim > 2
    if _gufunc_path(a, "eigvalsh", stack):
        w = _umath_linalg.eigvalsh_lo(a, signature="D->d")
        if _solved(w[..., 0]) if stack else w[0] == w[0]:
            return w
    return np.linalg.eigvalsh(a)


def _positive_definite(a):
    """True where a matrix of ``a`` (its lower triangle) is positive
    definite by Cholesky: where ``np.linalg.cholesky`` completes on it and
    the last pivot of its factor is a number.  ``a`` may be a stack, which
    gives a bool array of its leading shape.  A failed factorization is an
    answer here, which numpy's function gives without a warning, while the
    gufunc flags it (invalid) and keeps the flags LAPACK raised on the way:
    in ``_SILENT``, as in the witness search, no warning is issued either
    way.

    The gufunc fills a failed matrix's factor with NaN.  A completed one
    can hold NaN too, since LAPACK stops only at a pivot that is <= 0,
    which NaN is not: on ``[[1e-300, 0, 1e200], [0, 1, 0], [1e200, 0, 1]]``
    an entry overflows and the last pivot is NaN.  Pivot j is the square
    root of a_jj less the sum of |l_jk|^2 over row j, so a NaN in row j
    makes it NaN, and an infinite entry makes it -inf, which stops the
    factorization, or NaN.  A NaN pivot divides every entry of its column
    below it, so every later row, and every later pivot, holds NaN.  So
    the last pivot is a number exactly where the factor holds no NaN, and,
    for finite input, no infinite entry: where the factorization completed
    without an overflow.  A replaced ``np.linalg.cholesky``, other dtypes
    and a numpy without the gufuncs get numpy's function, one matrix at a
    time, under the same rule."""
    if _gufunc_path(a, "cholesky", a.ndim > 2):
        pivot = _umath_linalg.cholesky_lo(a, signature="D->D")[..., -1, -1].real
        return pivot == pivot
    verdict = np.empty(a.shape[:-2], dtype=bool)
    for i in np.ndindex(verdict.shape):
        try:
            pivot = np.linalg.cholesky(a[i])[-1, -1].real
        except np.linalg.LinAlgError:
            pivot = math.nan
        verdict[i] = pivot == pivot
    return verdict[()]


def _eigh(a):
    """(ascending eigenvalues, eigenvectors) of Hermitian ``a``, as
    ``np.linalg.eigh``."""
    if _gufunc_path(a, "eigh"):
        w, v = _umath_linalg.eigh_lo(a, signature="D->dD")
        if w[0] == w[0]:
            return w, v
    return np.linalg.eigh(a)


def _svdvals(a):
    """Descending singular values, as ``np.linalg.svd(a, compute_uv=False)``."""
    if _gufunc_path(a, "svd"):
        s = _umath_linalg.svd(a, signature="D->d")
        if s[0] == s[0]:
            return s
    return np.linalg.svd(a, compute_uv=False)


def _eig(a):
    """(eigenvalues, eigenvectors) of square ``a``, as ``np.linalg.eig``.
    Non-finite input goes to numpy, whose check raises before LAPACK runs
    (LAPACK would print an error of its own on it)."""
    if _gufunc_path(a, "eig") and np.isfinite(a).all():
        w, v = _umath_linalg.eig(a, signature="D->DD")
        if w[0] == w[0]:
            return w, v
    return np.linalg.eig(a)


def _qr(a, diag: bool = False):
    """Q of the reduced QR of ``a``, as ``np.linalg.qr(a).Q``; ``a`` may be
    a stack.  With ``diag``, (Q, the diagonal of R), read off the factored
    array without forming R: on the samplers' (20, 3, 3) stacks of Haar
    factors that takes 28 us a call against 43 us for ``np.linalg.qr`` and
    R's diagonal."""
    stack = a.ndim > 2
    if _gufunc_path(a, "qr", stack):
        f = a.astype(_COMPLEX128, copy=True)  # overwritten with R and the reflectors
        tau = _umath_linalg.qr_r_raw(f, signature="D->D")
        q = _umath_linalg.qr_reduced(f, tau, signature="DD->D")
        if _solved(q[..., 0, 0]) if stack else q[0, 0] == q[0, 0]:
            return (q, np.diagonal(f, 0, -2, -1)) if diag else q
    q, r = np.linalg.qr(a)
    return (q, np.diagonal(r, 0, -2, -1)) if diag else q


def _pinv(a, rcond: float):
    """Moore-Penrose pseudoinverse, as ``np.linalg.pinv(a, rcond=rcond)``."""
    if _gufunc_path(a, "pinv"):
        u, s, vt = _umath_linalg.svd_s(a.conjugate(), signature="D->DdD")
        if s[0] == s[0]:
            large = s > rcond * s[0]  # s descends: s[0] is its maximum
            s = np.divide(1, s, where=large, out=s)
            s[~large] = 0
            return vt.T @ (s[:, None] * u.T)
    return np.linalg.pinv(a, rcond=rcond)


def _cond(a):
    """2-norm condition number, as ``np.linalg.cond(a)``, whose function it
    calls; ``a`` may be a stack.  The pair sampler asks it only about the
    candidates :func:`_well_conditioned` does not clear, as a rule none, and
    the self-test about a few single matrices."""
    return np.linalg.cond(a)


@functools.lru_cache(maxsize=16)
def _identity(m: int) -> np.ndarray:
    """The read-only m x m identity, built once per size: the shift of
    :func:`_above` and the mix of ``sampling._boundary_grams``."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _margin(m: int, scale: float, current: float) -> float:
    """The shift margin of :func:`_above` for m x m Hermitian matrices of
    norm at most ``scale``: 8 m^3 eps (scale + |current|)."""
    return 8.0 * m**3 * _EPS * (scale + abs(current))


def _above(h, current: float, scale: float):
    """True where a matrix of the stack ``h`` of m x m Hermitian matrices,
    each of norm at most ``scale``, is provably positive definite after a
    shift by ``current``: a bool array of its leading shape, from one
    stacked :func:`_positive_definite` of h - (current + delta) I, delta of
    :func:`_margin`, one scalar shift for the whole stack.  The package's
    one certificate of positive definiteness: the necessity engine and the
    witness search call it through ``maps._screen``, the pair sampler
    through :func:`_well_conditioned`.  Each passes its own numbers and
    closes the lemma below with its own last step.  Runs in the caller's
    ``np.errstate(**_SILENT)``.

    The lemma: every matrix it clears has an exact lowest eigenvalue above
    current + 2 delta / 3.  Let u = eps / 2, so delta =
    16 m^3 u (scale + |current|), and s the shift as rounded, at least
    current + delta - u |current + delta|.  Each diagonal entry of h - sI
    is rounded once, off by at most u (scale + |s|).  A Cholesky that
    completes without an overflow, the only kind :func:`_positive_definite`
    clears, has factored that matrix within a backward error of norm at
    most about m (m + 1) u (scale + |s|) (Higham 2002, Theorem 10.3), so
    lambda_min(h) >= s - (m^2 + m + 1) u (scale + |s|) to first order.
    Where ``scale`` is a normal number, gradual underflow adds at most
    u tiny <= u scale per operation of an entry, m^2 u scale in all.
    These errors and the shift's rounding add up to at most
    (2 m^2 + m + 2) u (scale + |current|), less than delta / 3 for every
    m >= 1."""
    m = h.shape[-1]
    return _positive_definite(h - (current + _margin(m, scale, current)) * _identity(m))


def _well_conditioned(a, cond_max):
    """``_cond(a) <= cond_max`` for a stack ``a`` of m x m matrices, the
    pair sampler's rejection test, with an SVD only for the matrices the
    certificate :func:`_above` cannot clear.  Runs in the caller's
    ``np.errstate(**_SILENT)``.

    Let c = ``cond_max``, u = eps / 2, G the Gram matrix A* A of a matrix
    A as computed, f its trace, which is F^2 = ||A||_F^2 up to rounding,
    top the largest f of the stack, and s_1 >= ... >= s_m A's singular
    values, so s_1^2 <= F^2.  G's entries are complex inner products of
    length m, off by at most (m + 2) u |A|* |A| (Higham 2002, section 3.6),
    so G is off by (m + 2) u F^2 in norm and f is at least
    (1 - (2 m + 2) u) F^2: ``scale`` 2 top bounds the norm of every G of
    the stack.  With ``current`` top / c^2, delta =
    16 m^3 u (2 top + top / c^2) is at least 32 m^3 u top, and by the
    lemma of :func:`_above` a matrix it clears has
    lambda_min(G) > top / c^2 + 21 m^3 u top.  Gradual underflow in G adds
    at most m u tiny <= m u F^2, since F^2 is a normal number, so
    s_m^2 >= lambda_min(G) - (2 m + 2) u F^2, and with top >= f,
    s_m^2 >= F^2 / c^2 + (21 m^3 - 4 m - 4) u F^2.  The SVD returns
    singular values within e = p(m) u s_1 of the exact ones, p a modest
    function (LAPACK Users' Guide, section 4.9), which the margin takes as
    m^3, and the computed ratio is at most c (rounding is monotone, c a
    double) where s_1 + e <= c (s_m - e), which holds when
    s_m^2 >= F^2 / c^2 + 4 m^3 u F^2, for c >= 1.  Since
    17 m^3 > 4 m + 4 for m >= 1, every matrix the certificate clears is
    one ``_cond`` accepts; the others get ``_cond``, in one call.

    A stack whose ``cond_max`` is not a number in [1, inf), or with a
    matrix whose trace f is not a finite normal number (a zero matrix,
    entries whose squares overflow, a NaN), gets ``_cond`` whole.
    Elsewhere every entry of G is finite, at most f in magnitude."""
    if 1.0 <= cond_max < math.inf:
        g = adjoint(a) @ a
        f = np.einsum("...ii->...", g).real
        if f.size and _TINY <= f.min() and (top := f.max()) < math.inf:
            clear = _above(g, top / (cond_max * cond_max), 2.0 * top)
            if not clear.all():
                clear[~clear] = _cond(a[~clear]) <= cond_max
            return clear
    return _cond(a) <= cond_max


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def _integer(value, what: str, error: type[StormerKitError]) -> int:
    """``value`` read through ``operator.index``: an int or a numpy integer.
    Raises ``error`` for anything else, bools and floats included."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def require_square(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def _held(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, in its memory order: the array a value
    object owns, which never aliases its caller's."""
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


class _ValueObject:
    """Base of the frozen dataclasses that own :func:`_held` copies of their
    arrays.  A copy or an unpickled object is rebuilt through the
    constructor from its fields, so it owns fresh read-only arrays and
    starts with nothing kept."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.asarray(m).swapaxes(-1, -2))


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
    return float(_svdvals(a)[0])


def op_norm(m) -> float:
    """Largest singular value.

    Where LAPACK fails, numpy's ``LinAlgError`` is raised after a
    RuntimeWarning, or the warning itself where warnings are errors.
    """
    return _op_norm(as_matrix(m))


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the operator norm."""
    return math.sqrt(np.vdot(a, a).real)


def _rel_fro(delta: np.ndarray, ref: np.ndarray) -> float:
    """``||delta||_F / ||ref||_F``, the relative residual of a
    reconstruction of ``ref``; a zero ``ref`` counts as 1e-300."""
    return float(np.linalg.norm(delta) / max(np.linalg.norm(ref), 1e-300))


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


def _is_hermitian(a: np.ndarray, ah: np.ndarray, tol: Tolerance, thr: float | None = None) -> bool:
    """:func:`is_hermitian` of ``a`` given its adjoint ``ah``, which a caller
    that goes on to form the Hermitian part has at hand: ``||a - a*||``
    within ``thr``, by default the threshold at ``a``'s scale.  A residual
    that overflows is within no threshold, so ``a`` is not Hermitian: after
    numpy's overflow warning, or where warnings are errors, in its place."""
    try:
        d = a - ah
    except RuntimeWarning:
        return False
    if _negligible(d, tol.threshold(0.0)):
        return True
    if not np.isfinite(d).all():
        return False
    return _op_norm(d) <= (tol.threshold(_op_norm(a)) if thr is None else thr)


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``||M - M*||`` is below the threshold for M's scale."""
    a = require_square(m)
    return _is_hermitian(a, adjoint(a), tol)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above the cutoff is real
    positive.  Assumes every column has such an entry, as every unit column
    of length m does (one of modulus at least 1/sqrt(m)): the callers'
    eigenvector and basis matrices.

    The arithmetic is that of rotating one column at a time: hypot is what
    abs() of a complex scalar computes (np.abs of an array can differ in the
    last bit), and each column is scaled as a row of the transpose against a
    broadcast scalar, the loop numpy uses for array * scalar.  Scaling in
    place, ``out *= phases``, is not that loop: numpy's broadcast complex
    multiply fuses its products and changes last bits.
    """
    a = np.asarray(v, dtype=complex)
    first = (np.abs(a) > _PHASE_CUTOFF).argmax(axis=0)
    pivots = a[first, np.arange(a.shape[1])]
    return (a.T * (np.conj(pivots) / np.hypot(pivots.real, pivots.imag))[:, None]).T


def eig_hermitian(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The input is symmetrized as ``(M + M*)/2`` before solving; asymmetry
    beyond ``1e-6 * (1 + ||M||)`` is rejected as malformed rather than
    silently repaired, and so is a residual ``M - M*`` that overflows (by
    default after numpy's overflow warning).  Finite entries whose
    Hermitian part or spectrum overflows raise ScaleError (a DomainError),
    as :func:`is_psd` does: by default after numpy's RuntimeWarnings, and
    where warnings are errors, without them.
    """
    a = require_square(m)
    ah = adjoint(a)
    h = _hermitian_part(a, ah)
    try:
        d = a - ah
    except RuntimeWarning:  # where warnings are errors: read as infinite
        d = np.full((1, 1), math.inf)
    if not _negligible(d, _HERMITICITY_REL):
        scale = _op_norm(h)
        # an overflowed residual exceeds every bound; its SVD would be NaN
        asym = _op_norm(d) if np.isfinite(d).all() else math.inf
        if asym > _HERMITICITY_REL * (1.0 + scale):
            raise DomainError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
                f"{_HERMITICITY_REL:.0e} * (1 + {scale:.3e})"
            )
    # the eigh of is_psd's kernel, which raises ScaleError on an overflow
    w, v = _psd_spectrum(h, DEFAULT_TOL, a, vectors=True)[3:]
    return HermitianEig(w, _fix_phases(v))


def _overflow(what: str, noun: str, *arrays: np.ndarray) -> ScaleError:
    """The ScaleError for finite ``arrays`` whose arithmetic overflows double
    precision: ``what`` says what overflowed, and the message names the
    largest modulus of the arrays' entries, 1 when there are none (a named
    map).  Where a modulus itself overflows, it names the largest real or
    imaginary part instead, which is finite."""
    scale = max((np.abs(a).max() for a in arrays), default=1.0)
    if scale == math.inf:
        scale = max(np.abs(part).max() for a in arrays for part in (a.real, a.imag))
    return ScaleError(f"{what}: {noun} entries reach {scale:.3e}; rescale the {noun}")


def _hermitian_part(a: np.ndarray, ah: np.ndarray) -> np.ndarray:
    """``(a + a*) / 2`` given ``a``'s adjoint.  Where warnings are errors,
    numpy's overflow warning becomes the ScaleError that
    :func:`_psd_spectrum` raises for the overflowed part otherwise."""
    try:
        h = a + ah
    except RuntimeWarning as e:
        raise _overflow("spectrum overflows", "matrix", a) from e
    h *= 0.5  # in place: the products of 0.5 * (a + ah), without a second array
    return h


def _psd_spectrum(h: np.ndarray, tol: Tolerance, a: np.ndarray, vectors: bool = False):
    """(verdict, min_eig, threshold) of Hermitian ``h`` by its spectrum
    alone: ``min_eig >= -threshold`` (see :func:`psd_margin`).  ``h`` is
    formed from ``a`` (its Hermitian part, perhaps index-swapped), whose
    largest entry the ScaleError names when finite entries give a
    spectrum that overflows: ``h`` may have overflowed already.  With
    ``vectors``, the spectrum is that of one ``eigh``, whose eigenvalues and
    eigenvectors follow: (verdict, min_eig, threshold, w, v), for a caller
    that goes on to factor ``h``."""
    try:
        w, v = _eigh(h) if vectors else (_eigvalsh(h), None)
        lowest, thr = psd_margin(w, tol)
    except np.linalg.LinAlgError:  # numpy's answer to a NaN spectrum
        lowest = thr = math.nan
    if not (math.isfinite(lowest) and math.isfinite(thr)):
        raise _overflow("spectrum overflows", "matrix", a)
    verdict = bool(lowest >= -thr)
    return (verdict, lowest, thr, w, v) if vectors else (verdict, lowest, thr)


def _psd_check(a: np.ndarray, tol: Tolerance, vectors: bool = False):
    """(verdict, min_eig, threshold) of :func:`is_psd`, the PSD check of a
    matrix whose Hermiticity nobody has settled: :func:`_psd_spectrum` on
    its Hermitian part, with a false verdict where the residual ``a - a*``
    exceeds the threshold.  Its min_eig and threshold are the numbers
    reports print.  With ``vectors``, (verdict, w, v): the same rules read
    off one ``eigh`` of the Hermitian part, whose eigenpairs ``w``, ``v``
    factor it."""
    ah = adjoint(a)
    verdict, lowest, thr, *wv = _psd_spectrum(_hermitian_part(a, ah), tol, a, vectors)
    hermitian = _is_hermitian(a, ah, tol, thr)
    return (bool(hermitian and verdict), *(wv if vectors else (lowest, thr)))


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff M is Hermitian within tolerance and its minimum eigenvalue
    clears the scale-aware floor (see :func:`psd_margin`).  Raises
    ScaleError (a DomainError) when M's spectrum overflows double
    precision, after numpy's RuntimeWarnings for the overflow; where
    warnings are errors, without them."""
    return _psd_check(require_square(m), tol)[0]


def sqrt_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix, eigenvalues clipped at zero:
    the root of the Hermitian part of any matrix :func:`is_psd` accepts at
    ``tol``, from the eigendecomposition its check was read off."""
    psd, w, v = _psd_check(require_square(m), tol, vectors=True)
    if not psd:
        raise DomainError("matrix is not positive semidefinite within tolerance")
    v = _fix_phases(v)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v)
    return _hermitian_part(s, adjoint(s))


def pinv(m, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond`` times the largest are treated as zero.
    Where LAPACK fails, numpy's ``LinAlgError`` is raised after a
    RuntimeWarning, or the warning itself where warnings are errors.
    """
    a = as_matrix(m)
    return _pinv(a, rcond)


def _is_contraction(a: np.ndarray, tol: Tolerance) -> bool:
    n = _op_norm(a)
    return n <= 1.0 + tol.threshold(n)


def is_contraction(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the operator norm is at most 1, within tolerance."""
    return _is_contraction(as_matrix(t), tol)


def _self_commutator(a: np.ndarray) -> np.ndarray:
    """``a* a - a a*``.  Where warnings are errors, numpy's overflow
    warning raises the ScaleError of :func:`_require_finite_commutator`."""
    ah = adjoint(a)
    try:
        return ah @ a - a @ ah
    except RuntimeWarning as e:
        raise _overflow("self-commutator overflows", "operator", a) from e


def _require_finite_commutator(a: np.ndarray, c: np.ndarray) -> None:
    """Raise ScaleError, naming ``a``'s largest entry, where ``a``'s
    self-commutator ``c`` has overflowed (inf - inf leaves NaN)."""
    if not np.isfinite(c).all():
        raise _overflow("self-commutator overflows", "operator", a)


def _is_normal(a: np.ndarray, tol: Tolerance) -> bool:
    """Normality of a validated square array; ``||a||`` is computed only if
    the bound is undecided, and so is the overflow check."""
    c = _self_commutator(a)
    if _negligible(c, tol.quadratic_threshold(0.0)):
        return True
    _require_finite_commutator(a, c)
    return _op_norm(c) <= tol.quadratic_threshold(_op_norm(a))


def is_normal(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff T commutes with its adjoint.

    The self-commutator ``T*T - TT*`` is degree two in T, so it is compared
    against the quadratic threshold for T's scale.  Raises ScaleError (a
    DomainError) where finite T's self-commutator overflows double
    precision.
    """
    return _is_normal(require_square(t), tol)


def is_hyponormal(t, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``T*T - TT*`` is PSD, i.e. ``||T* g|| <= ||T g||`` for all g.
    Raises ScaleError (a DomainError) where finite T's self-commutator, or
    its spectrum, overflows double precision."""
    a = require_square(t)
    c = _self_commutator(a)
    _require_finite_commutator(a, c)
    return _psd_check(c, tol)[0]
