import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Tolerance,
    adjoint,
    eig_hermitian,
    is_contraction,
    is_hermitian,
    is_hyponormal,
    is_normal,
    is_psd,
    op_norm,
    pinv,
    sqrt_psd,
)
from stormer_kit.sampling import ginibre, haar_unitary, random_near_normal, random_rank_deficient

from helpers import cholesky_psd, hermitize, min_eig


def test_is_hermitian_examples():
    assert is_hermitian(np.eye(2))
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_hermitian(np.array([[2, 1j], [-1j, 2]]))


def test_is_hermitian_rejects_nonsquare():
    with pytest.raises(DimensionError):
        is_hermitian(np.ones((2, 3)))


def test_eig_hermitian_diagonal():
    w, v = eig_hermitian(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, 3.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2)[:, ::-1], atol=1e-14)


def test_eig_hermitian_2x2():
    # characteristic polynomial (2 - w)^2 = 1
    w, _ = eig_hermitian(np.array([[2, 1j], [-1j, 2]]))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_eig_hermitian_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = hermitize(ginibre(rng, 8))
        w, v = eig_hermitian(m)
        scale = 1.0 + op_norm(m)
        assert op_norm((v * w) @ adjoint(v) - m) <= 1e-10 * scale
        assert op_norm(adjoint(v) @ v - np.eye(8)) <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_eig_hermitian_deterministic_phases():
    rng = np.random.default_rng(3)
    m = hermitize(ginibre(rng, 6))
    v1 = eig_hermitian(m).eigenvectors
    v2 = eig_hermitian(m.copy()).eigenvectors
    np.testing.assert_array_equal(v1, v2)
    for j in range(6):
        lead = v1[np.flatnonzero(np.abs(v1[:, j]) > 1e-12)[0], j]
        assert abs(lead.imag) < 1e-14 and lead.real > 0


def test_eig_hermitian_rejects_asymmetric():
    with pytest.raises(DomainError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_examples():
    assert is_psd(np.eye(3))
    assert not is_psd(np.array([[1, 2], [2, 1]]))  # eigenvalues 3 and -1
    assert is_psd(np.array([[2, 1j], [-1j, 2]]))
    assert not is_psd(np.array([[0, 1], [0, 0]]))  # not Hermitian


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_is_psd_raises_when_the_spectrum_overflows():
    with pytest.raises(DomainError, match=r"spectrum overflows: matrix entries reach 1\.000e\+308"):
        is_psd(np.array([[-1e308]]))


def test_is_psd_matches_cholesky_oracle():
    rng = np.random.default_rng(23)
    for trial in range(200):
        d = int(rng.integers(1, 11))
        if trial % 2 == 0:
            m = ginibre(rng, d)
            m = m @ adjoint(m)
            expected = True
        else:
            m = hermitize(ginibre(rng, d))
            expected = bool(np.linalg.eigvalsh(m)[0] >= 0)
        thr = DEFAULT_TOL.threshold(op_norm(m))
        assert is_psd(m) == cholesky_psd(m, 2.0 * thr) == expected


def test_sqrt_psd_examples():
    np.testing.assert_allclose(sqrt_psd(np.eye(2)), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = sqrt_psd(m)
    assert op_norm(s @ s - m) <= 1e-9 * (1 + op_norm(m))


def test_sqrt_psd_random_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        g = ginibre(rng, d)
        m = g @ adjoint(g)
        s = sqrt_psd(m)
        assert is_hermitian(s) and is_psd(s)
        assert op_norm(s @ s - m) <= 1e-9 * (1 + op_norm(m))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        sqrt_psd(np.array([[1, 2], [2, 1]]))


def test_pinv_examples():
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    u = haar_unitary(np.random.default_rng(0), 4)
    np.testing.assert_allclose(pinv(u), adjoint(u), atol=1e-12)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = random_rank_deficient(rng, rows, cols, rank)
        x = pinv(m)
        bound = 1e-9 * (1 + op_norm(m))
        assert op_norm(m @ x @ m - m) <= bound
        assert op_norm(x @ m @ x - x) <= bound
        assert op_norm(m @ x - adjoint(m @ x)) <= bound
        assert op_norm(x @ m - adjoint(x @ m)) <= bound


def test_pinv_rank2_4x4():
    rng = np.random.default_rng(99)
    m = random_rank_deficient(rng, 4, 4, 2)
    x = pinv(m)
    bound = 1e-9 * (1 + op_norm(m))
    assert op_norm(m @ x @ m - m) <= bound


def test_op_norm_examples():
    assert op_norm(np.eye(5)) == pytest.approx(1.0)
    assert op_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)


def test_op_norm_vs_eigenvalue_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = ginibre(rng, 6, 4)
        oracle = np.sqrt(np.linalg.eigvalsh(adjoint(m) @ m)[-1])
        assert abs(op_norm(m) - oracle) <= 1e-10 * (1 + oracle)


def test_is_contraction_examples():
    assert is_contraction(0.5 * np.eye(3))
    assert not is_contraction(np.array([[0, 2], [0, 0]]))
    assert is_contraction(haar_unitary(np.random.default_rng(2), 5))


def test_is_contraction_agrees_with_gram_psd():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        t = ginibre(rng, rows, cols) * rng.uniform(0.2, 2.0)
        assert is_contraction(t) == is_psd(np.eye(cols) - adjoint(t) @ t)


def test_is_normal_examples():
    assert is_normal(np.diag([1.0, 1j]))
    assert not is_normal(np.array([[0, 1], [0, 0]]))
    assert is_normal(haar_unitary(np.random.default_rng(7), 6))


def test_is_hyponormal_normal_is_hyponormal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        t = random_near_normal(rng, int(rng.integers(2, 7)))
        assert is_hyponormal(t)


def test_is_hyponormal_nilpotent():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = adjoint(t) @ t - t @ adjoint(t)
    np.testing.assert_allclose(np.linalg.eigvalsh(c), [-1.0, 1.0])
    assert not is_hyponormal(t)


def test_truncated_shift_is_not_hyponormal():
    # The 4x4 truncation of the unilateral shift has self-commutator
    # diag(1, 0, 0, -1): the missing column makes it fail hyponormality,
    # as it must, since a finite-dimensional hyponormal operator is normal
    # and the shift is not.
    t = np.zeros((4, 4))
    t[1, 0] = t[2, 1] = t[3, 2] = 1.0
    c = adjoint(t) @ t - t @ adjoint(t)
    np.testing.assert_allclose(np.linalg.eigvalsh(c), [-1.0, 0.0, 0.0, 1.0], atol=1e-15)
    assert not is_hyponormal(t)
    assert not is_normal(t)


def test_hyponormal_implies_normal_sampled():
    rng = np.random.default_rng(61)
    accepted = 0
    while accepted < 100:
        noise = float(rng.choice([0.0, 1e-13, 1e-10, 1e-7]))
        t = random_near_normal(rng, int(rng.integers(2, 9)), noise)
        if not is_hyponormal(t):
            continue
        accepted += 1
        assert is_normal(t)


def test_tolerance_validation_and_monotonicity():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0)
    # non-finite tolerances are input errors too, not silent false verdicts
    for abs_eps, rel_eps in ((float("nan"), 1e-9), (1e-10, float("inf")), (1e-10, -1.0)):
        with pytest.raises(DomainError):
            Tolerance(abs_eps=abs_eps, rel_eps=rel_eps)
    tol = Tolerance()
    assert tol.threshold(10.0) > tol.threshold(1.0)


def test_min_eig_helper_matches_is_psd_on_boundary_free_input():
    rng = np.random.default_rng(77)
    g = ginibre(rng, 5)
    m = g @ adjoint(g)
    assert is_psd(m) and min_eig(m) >= -DEFAULT_TOL.threshold(op_norm(m))
