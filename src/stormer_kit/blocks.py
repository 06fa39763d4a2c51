"""Positivity of two-block partitioned matrices.

A partition ``[[A, B], [B*, C]]`` with A of size n and C of size k is PSD
exactly when A and C are PSD and ``B = sqrt(A) W sqrt(C)`` for some
contraction W.  On singular A or C the contraction is recovered with
pseudoinverse square roots and the recomposition must still reproduce B
(the range condition).  A and C are each diagonalized once: the ``eigh``
that decides whether a block is PSD also gives its square roots, and C is
checked only when A passes.  :func:`psd_oracle` gives the independent
full-eigenvalue verdict of the assembled matrix, from its own ``eigvalsh``,
that the factorization test is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DimensionError
from .linalg import (
    DEFAULT_RCOND,
    DEFAULT_TOL,
    Tolerance,
    _ValueObject,
    _held,
    _is_contraction,
    _op_norm,
    _psd_check,
    adjoint,
    as_matrix,
    require_square,
)

__all__ = list(_EXPORTS["blocks"])


@dataclass(frozen=True, eq=False)
class Partition2(_ValueObject):
    """Blocks of ``[[A, B], [B*, C]]``; A is n x n, C is k x k, B is n x k.

    The partition owns read-only copies of its blocks, as the package's
    other value objects own their arrays: it never aliases the caller's
    arrays, and writing into ``a``, ``b`` or ``c`` raises ``ValueError``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = _held(require_square(self.a, "block A"))
        c = _held(require_square(self.c, "block C"))
        b = _held(as_matrix(self.b))
        if b.shape != (a.shape[0], c.shape[0]):
            raise DimensionError(
                f"block B must be {a.shape[0]} x {c.shape[0]}, got {b.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Outcome of the contraction factorization test.

    When ``psd`` is true, ``w`` is a contraction with
    ``sqrt(A) w sqrt(C) = B`` up to ``residual``.
    """

    psd: bool
    w: np.ndarray | None
    residual: float


# The certificate of a partition that is not PSD for want of a contraction
# candidate: A or C fails, or W0 overflows.
_NO_CANDIDATE = ContractionCertificate(psd=False, w=None, residual=float("inf"))

def assemble(p: Partition2) -> np.ndarray:
    """The (n+k) x (n+k) matrix ``[[A, B], [B*, C]]``, filled in place."""
    n = p.n
    m = np.empty((n + p.k,) * 2, dtype=complex)
    m[:n, :n] = p.a
    m[:n, n:] = p.b
    m[n:, :n] = adjoint(p.b)
    m[n:, n:] = p.c
    return m


def _sqrt_and_pinv_sqrt(w, v, rcond: float) -> tuple[np.ndarray, np.ndarray]:
    """Square root of a PSD matrix m with eigenpairs ``w``, ``v`` and the
    pseudoinverse of that root, with one shared rank cutoff at rcond times
    the top eigenvalue of m.

    Cutting on m's spectrum (not the root's) keeps numerically-zero
    eigenvalues of an exactly singular m out of the inversion: eigh reports
    them at roundoff level, whose square root would survive a cutoff applied
    to the root alone.
    """
    w = np.clip(w, 0.0, None)
    cutoff = rcond * w[-1]
    w = np.where(w > cutoff, w, 0.0)
    root = np.sqrt(w)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    return (v * root) @ adjoint(v), (v * inv_root) @ adjoint(v)


def psd_via_contraction(
    p: Partition2,
    tol: Tolerance = DEFAULT_TOL,
    rcond: float = DEFAULT_RCOND,
) -> ContractionCertificate:
    """Test positivity of the assembled partition by factorizing B.

    The candidate ``W0 = pinv(sqrt(A)) B pinv(sqrt(C))`` certifies positivity
    iff A and C are PSD, the recomposition ``sqrt(A) W0 sqrt(C)`` reproduces B
    within tolerance, and W0 is a contraction.  A W0 or recomposition that
    overflows is no contraction: the partition is not PSD, as where A or C
    fails, after numpy's overflow warnings or, where warnings are errors,
    without them.
    """
    a = _psd_check(p.a, tol, vectors=True)
    c = _psd_check(p.c, tol, vectors=True) if a.ok else a
    if not c.ok:
        return _NO_CANDIDATE
    sa, sa_inv = _sqrt_and_pinv_sqrt(a.w, a.v, rcond)
    sc, sc_inv = _sqrt_and_pinv_sqrt(c.w, c.v, rcond)
    try:
        w0 = sa_inv @ p.b @ sc_inv
        r = sa @ w0 @ sc - p.b
    except RuntimeWarning:
        return _NO_CANDIDATE
    if not np.isfinite(r).all():
        return _NO_CANDIDATE
    residual = _op_norm(r)
    # threshold(0) is the least threshold_for(p.b) can be, so a residual
    # below it needs no SVD of B
    within = residual <= tol.threshold(0.0) or residual <= tol.threshold(_op_norm(p.b))
    # W0 needs no check of finite entries: an infinite or NaN entry would
    # have spread through both products into every entry of r
    ok = within and _is_contraction(w0, tol)
    return ContractionCertificate(psd=ok, w=w0 if ok else None, residual=residual)


def psd_oracle(p: Partition2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Full-eigenvalue positivity check of the assembled partition."""
    return _psd_check(assemble(p), tol).ok
