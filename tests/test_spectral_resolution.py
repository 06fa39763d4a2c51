"""The numpy-only spectral resolution against the Schur-form reference.

``spectral_resolution`` takes the QR factor of the sorted eigenvectors as its
basis.  ``helpers.oracle_spectral_resolution`` is the complex Schur basis it
replaced.  On five seeded families the two must give the same outcomes (the
verdict, the degenerate flag, the DomainError) and the same residual
envelope: a family's largest and median residuals are compared, not single
cases, since the two bases round differently case by case.
"""

import numpy as np
import pytest

from stormer_kit import (
    DomainError,
    OperatorPair,
    canonical_decomposition,
    dual_decomposition,
    gram_block,
    reconstruct_block,
    spectral_resolution,
    stormer_test,
)
from stormer_kit.sampling import (
    ginibre,
    haar_unitary,
    random_normal_operator,
    random_stormer_pair,
    uniform_disk,
)

from helpers import oracle_spectra, oracle_spectral_resolution, rel_fro

EPS = np.finfo(float).eps


def _pair(rng, lam, cond=None, rank=None):
    """(a1, T a1) with T = U diag(lam) U* for Haar U.  a1 is Ginibre with
    cond <= 1e3, or has singular values spread to ``cond``, or has rank
    ``rank``."""
    d = len(lam)
    u = haar_unitary(rng, d)
    t = (u * lam) @ u.conj().T
    if cond is None and rank is None:
        while True:
            a1 = ginibre(rng, d)
            if np.linalg.cond(a1) <= 1e3:
                break
    else:
        s = np.geomspace(1.0, 1.0 / (cond or 1.0), d)
        s[d if rank is None else rank :] = 0.0
        a1 = (haar_unitary(rng, d) * s) @ haar_unitary(rng, d).conj().T
    return OperatorPair(a1, t @ a1)


def random_pairs(rng):
    return [random_stormer_pair(rng, d) for d in range(1, 8) for _ in range(30)]


def clustered_pairs(rng):
    """A cluster of 2..d eigenvalues spaced 10^[-14, -6] apart, straddling
    the old cluster threshold 1e-8."""
    out = []
    for _ in range(180):
        d = int(rng.integers(2, 7))
        lam = uniform_disk(rng, d)
        k = int(rng.integers(2, d + 1))
        step = 10.0 ** rng.uniform(-14.0, -6.0) * np.exp(2j * np.pi * rng.uniform())
        lam[:k] = lam[0] + step * np.arange(k)
        out.append(_pair(rng, lam))
    return out


def ill_conditioned_pairs(rng):
    out = []
    for _ in range(180):
        d = int(rng.integers(2, 7))
        out.append(_pair(rng, uniform_disk(rng, d), cond=10.0 ** rng.uniform(3.0, 8.0)))
    return out


def repeated_pairs(rng):
    """Eigenvalues drawn from two values; every third pair is c * a1 with a
    singular a1, whose ratio operator c P repeats c and 0."""
    out = []
    for k in range(180):
        d = int(rng.integers(2, 7))
        if k % 3 == 2:
            lam = np.full(d, uniform_disk(rng, 1)[0])
            out.append(_pair(rng, lam, rank=int(rng.integers(1, d))))
        else:
            out.append(_pair(rng, uniform_disk(rng, 2)[rng.integers(0, 2, d)]))
    return out


def _outcomes(p):
    """Per role order: the outcome (verdict, degenerate flag or error), the
    reconstruction residual and the basis's distance from orthonormality."""
    verdict = stormer_test(gram_block(p))
    out = []
    for decompose, q in ((canonical_decomposition, p), (dual_decomposition, p.swapped())):
        try:
            dec = decompose(p)
        except DomainError as e:
            out.append(((verdict, str(e)), None, None))
            continue
        x = gram_block(q).assembled()
        residual = rel_fro(reconstruct_block(dec).assembled() - x, x)
        e = dec.es
        orth = np.linalg.norm(e.conj().T @ e - np.eye(p.dim), 2)
        out.append(((verdict, dec.degenerate), residual, orth))
    return out


def _assert_envelope(new, old):
    new, old = np.array(new), np.array(old)
    assert new.max() <= 1.5 * old.max(), (new.max(), old.max())
    assert np.median(new) <= 1.1 * np.median(old), (np.median(new), np.median(old))


@pytest.mark.parametrize(
    "family", [random_pairs, clustered_pairs, ill_conditioned_pairs, repeated_pairs]
)
def test_decompositions_match_the_schur_envelope(family):
    new, old = [], []
    degenerate = 0
    for p in family(np.random.default_rng(0)):
        got = _outcomes(p)
        with oracle_spectra():
            want = _outcomes(OperatorPair(p.a1, p.a2))
        for (outcome, residual, orth), (outcome_ref, residual_ref, _) in zip(got, want):
            assert outcome == outcome_ref
            if residual is not None:
                assert orth <= 10 * p.dim * EPS
                new.append(residual)
                old.append(residual_ref)
                degenerate += outcome[1]
    assert len(new) >= 300
    if family is repeated_pairs:
        assert degenerate >= 100
    _assert_envelope(new, old)


def test_near_normal_spectral_resolution_matches_the_schur_envelope():
    """T = N + eps * (strictly upper Ginibre), eps = 10^[-14, -5]: both
    resolve T or both reject it as not normal."""
    rng = np.random.default_rng(0)
    new, old = [], []
    for _ in range(180):
        d = int(rng.integers(2, 7))
        t = random_normal_operator(rng, d)
        t = t + 10.0 ** rng.uniform(-14.0, -5.0) * np.triu(ginibre(rng, d), 1)
        try:
            lam, e = spectral_resolution(t)
        except DomainError:
            with pytest.raises(DomainError):
                oracle_spectral_resolution(t)
            continue
        lam_ref, e_ref = oracle_spectral_resolution(t)
        assert np.linalg.norm(e.conj().T @ e - np.eye(d), 2) <= 10 * d * EPS
        new.append(rel_fro(t @ e - e * lam, t))
        old.append(rel_fro(t @ e_ref - e_ref * lam_ref, t))
    assert len(new) >= 100
    _assert_envelope(new, old)
