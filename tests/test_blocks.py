import math
import warnings

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Partition2,
    adjoint,
    assemble,
    is_hermitian,
    op_norm,
    psd_oracle,
    psd_via_contraction,
)
from stormer_kit.sampling import ginibre, random_partition

from helpers import hermitize, min_eig


def test_partition_validates_shapes():
    with pytest.raises(DimensionError):
        Partition2(np.eye(2), np.ones((3, 2)), np.eye(2))
    with pytest.raises(DimensionError):
        Partition2(np.ones((2, 3)), np.ones((2, 2)), np.eye(2))


def test_assemble_scalar_blocks():
    p = Partition2(np.eye(1), np.array([[0.5]]), np.eye(1))
    np.testing.assert_allclose(assemble(p), [[1.0, 0.5], [0.5, 1.0]])


def test_assemble_arrow():
    p = Partition2(np.eye(2), np.array([[1.0], [0.0]]), np.eye(1))
    np.testing.assert_allclose(assemble(p), [[1, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_assemble_hermitian_iff_diagonal_blocks_are():
    rng = np.random.default_rng(8)
    a, b, c = ginibre(rng, 3), ginibre(rng, 3, 2), ginibre(rng, 2)
    assert not is_hermitian(assemble(Partition2(a, b, c)))
    p = Partition2(hermitize(a), b, hermitize(c))
    assert is_hermitian(assemble(p))


def test_contraction_identity_blocks():
    p = Partition2(np.eye(2), 0.5 * np.eye(2), np.eye(2))
    cert = psd_via_contraction(p)
    assert cert.psd
    np.testing.assert_allclose(cert.w, 0.5 * np.eye(2), atol=1e-12)
    assert cert.residual <= 1e-12


def test_contraction_rejects_inflated_offdiagonal():
    p = Partition2(np.eye(2), 2.0 * np.eye(2), np.eye(2))
    cert = psd_via_contraction(p)
    assert not cert.psd
    assert not psd_oracle(p)


def test_range_condition_catches_misaligned_b():
    # B maps outside the range of A: the recomposition collapses to zero.
    p = Partition2(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))
    cert = psd_via_contraction(p)
    assert not cert.psd
    assert cert.residual == pytest.approx(1.0)
    assert not psd_oracle(p)
    assert min_eig(assemble(p)) < -0.5


def test_certificate_invariants_when_psd():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a, b, c = random_partition(rng, n, k, "psd")
        cert = psd_via_contraction(Partition2(a, b, c))
        assert cert.psd
        assert op_norm(cert.w) <= 1.0 + DEFAULT_TOL.threshold(op_norm(cert.w))
        assert cert.residual <= DEFAULT_TOL.threshold_for(b)


def test_equivalence_with_oracle():
    rng = np.random.default_rng(4)
    kinds = ["psd", "inflated", "indefinite", "singular"]
    boundary = 0
    for trial in range(200):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a, b, c = random_partition(rng, n, k, kinds[trial % 4])
        p = Partition2(a, b, c)
        cert = psd_via_contraction(p)
        oracle = psd_oracle(p)
        if cert.psd != oracle:
            m = assemble(p)
            w = np.linalg.eigvalsh(hermitize(m))
            band = 2.0 * DEFAULT_TOL.threshold(max(abs(w[0]), abs(w[-1])))
            assert abs(w[0]) <= band
            boundary += 1
    assert boundary <= 5


@pytest.mark.parametrize("n,k", [(2, 3), (3, 5), (4, 2)])
def test_rectangular_partitions(n, k):
    rng = np.random.default_rng(n * 10 + k)
    for trial in range(60):
        kind = ["psd", "inflated", "indefinite"][trial % 3]
        a, b, c = random_partition(rng, n, k, kind)
        p = Partition2(a, b, c)
        assert psd_via_contraction(p).psd == psd_oracle(p)


def test_scaling_covariance():
    rng = np.random.default_rng(21)
    for kind in ("psd", "inflated"):
        a, b, c = random_partition(rng, 3, 2, kind)
        base = psd_via_contraction(Partition2(a, b, c)).psd
        for s in (1e-3, 1e3):
            assert psd_via_contraction(Partition2(s * a, s * b, s * c)).psd == base


def test_singular_psd_blocks_still_factorize():
    # Low-rank Gram split: A is singular yet B stays inside its range, so
    # the pseudoinverse square roots must still certify positivity.
    rng = np.random.default_rng(33)
    for _ in range(20):
        g = ginibre(rng, 6, 2)
        m = g @ adjoint(g)
        p = Partition2(m[:3, :3], m[:3, 3:], m[3:, 3:])
        cert = psd_via_contraction(p)
        assert cert.psd and psd_oracle(p)


def test_singular_misaligned_blocks_match_oracle():
    rng = np.random.default_rng(34)
    for _ in range(20):
        a, b, c = random_partition(rng, 3, 3, "singular")
        p = Partition2(a, b, c)
        assert psd_via_contraction(p).psd == psd_oracle(p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_contraction_raises_when_a_spectrum_overflows():
    big = np.array([[1e308]])
    with pytest.raises(DomainError, match=r"spectrum overflows: matrix entries reach 1\.000e\+308"):
        psd_via_contraction(Partition2(big, big, big))


@pytest.mark.parametrize("warnings_are_errors", [False, True])
def test_an_overflowing_contraction_candidate_is_not_psd(warnings_are_errors):
    # every entry is finite, but W0 = pinv(sqrt(A)) B pinv(sqrt(C)) overflows:
    # no contraction, so the certificate fails as the oracle does
    p = Partition2(1e-300 * np.eye(2), np.full((2, 2), 1e300), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error" if warnings_are_errors else "ignore")
        cert = psd_via_contraction(p)
        assert (cert.psd, cert.w, cert.residual) == (False, None, math.inf)
        assert psd_oracle(p) is False
