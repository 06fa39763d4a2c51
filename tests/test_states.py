import warnings

import numpy as np
import pytest

from stormer_kit import (
    DensityState,
    DomainError,
    InputError,
    OperatorBlockMatrix,
    OperatorPair,
    ScaleError,
    canonical_decomposition,
    gram_block,
    is_ppt,
    partial_transpose,
    partial_transpose_matrix,
    separable_decomposition,
    separable_state,
    state_from_block,
)
from stormer_kit.sampling import ginibre, random_stormer_pair

from helpers import min_eig, rel_fro


def bell_state() -> DensityState:
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return DensityState((2, 2), np.outer(psi, psi.conj()))


def product_state(rng, n, d) -> DensityState:
    a = ginibre(rng, n)
    b = ginibre(rng, d)
    sigma = a @ a.conj().T
    tau = b @ b.conj().T
    sigma /= np.trace(sigma).real
    tau /= np.trace(tau).real
    return DensityState((n, d), np.kron(sigma, tau))


def test_state_from_identity_pair():
    rho = state_from_block(gram_block(OperatorPair(np.eye(2), np.eye(2))))
    expected = 0.25 * np.block([[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
    # |+><+| (x) I/2
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(rho.matrix, np.kron(plus, np.eye(2) / 2), atol=1e-14)


def test_state_from_block_normalizes_trace():
    x = gram_block(OperatorPair(np.eye(2), np.diag([1.0, 1j])))
    assert np.trace(x.assembled()).real == pytest.approx(4.0)
    rho = state_from_block(x)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    assert min_eig(rho.matrix) >= -1e-12


def test_state_from_block_rejects_indefinite_and_zero():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 1] = blocks[1, 0] = 1.0
    with pytest.raises(DomainError):
        state_from_block(OperatorBlockMatrix(blocks))
    with pytest.raises(DomainError):
        state_from_block(OperatorBlockMatrix(np.zeros((2, 2, 2, 2))))


def test_random_stormer_states_are_valid():
    rng = np.random.default_rng(20)
    for _ in range(20):
        pair = random_stormer_pair(rng, int(rng.integers(2, 6)))
        rho = state_from_block(gram_block(pair))
        assert rho.dims == (2, pair.dim)


def test_density_state_validation():
    with pytest.raises(DomainError):
        DensityState((2, 1), np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(DomainError):
        DensityState((2, 1), np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityState((2, 1), np.diag([1.5, -0.5]))  # negative eigenvalue


# Unit-trace states with 1e308 in two corners: Hermitian, whose Hermitian
# part overflows, and with opposite corners, whose residual m - m* overflows.
_CORNERS = np.diag([0.25] * 4).astype(complex)
_CORNERS[0, 3] = 1e308
_HERMITIAN_CORNERS, _ANTI_CORNERS = _CORNERS.copy(), _CORNERS.copy()
_HERMITIAN_CORNERS[3, 0], _ANTI_CORNERS[3, 0] = 1e308, -1e308
_SPECTRUM_OVERFLOWS = r"spectrum overflows: matrix entries reach 1\.000e\+308"


def test_density_state_spectrum_overflow_is_a_scale_error_after_numpys_warning():
    with pytest.warns(RuntimeWarning) as caught:
        with pytest.raises(ScaleError, match=_SPECTRUM_OVERFLOWS):
            DensityState((2, 2), _HERMITIAN_CORNERS)
    assert "overflow encountered in add" in str(caught[0].message)


def test_density_state_spectrum_overflow_is_a_scale_error_where_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleError, match=_SPECTRUM_OVERFLOWS):
            DensityState((2, 2), _HERMITIAN_CORNERS)


def test_density_state_overflowing_residual_is_not_hermitian_after_numpys_warning():
    with pytest.warns(RuntimeWarning, match="overflow encountered in subtract"):
        with pytest.raises(DomainError, match="state matrix is not Hermitian"):
            DensityState((2, 2), _ANTI_CORNERS)


def test_density_state_overflowing_residual_is_not_hermitian_where_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="state matrix is not Hermitian"):
            DensityState((2, 2), _ANTI_CORNERS)


# An anti-Hermitian off-diagonal pair: the residual m - m* is 2 m, finite in
# every real and imaginary part, but its moduli, 1.5e308 * sqrt(2), overflow.
_HALF_RESIDUAL = 0.75e308 * (1 + 1j)
_MODULI_OVERFLOW = np.array([[0.5, _HALF_RESIDUAL], [-np.conj(_HALF_RESIDUAL), 0.5]])


@pytest.mark.parametrize("mode", ["default", "error"])
def test_density_state_residual_whose_moduli_overflow_is_not_hermitian(mode):
    residual = _MODULI_OVERFLOW - _MODULI_OVERFLOW.conj().T
    assert np.isfinite(residual).all()
    with np.errstate(over="ignore"):
        assert np.isinf(np.abs(residual)).any()
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        with pytest.raises(DomainError, match="state matrix is not Hermitian"):
            DensityState((1, 2), _MODULI_OVERFLOW)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(21)
    rho = product_state(rng, 2, 3)
    sigma = rho.matrix
    pt2 = partial_transpose(rho, 2)
    # sigma (x) tau -> sigma (x) tau^T, realized blockwise
    blocks = sigma.reshape(2, 3, 2, 3)
    expected = blocks.transpose(0, 3, 2, 1).reshape(6, 6)
    np.testing.assert_allclose(pt2, expected, atol=1e-14)


def test_partial_transpose_bell():
    pt = partial_transpose(bell_state(), 2)
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(22)
    g = ginibre(rng, 6)
    rho = DensityState((2, 3), (g @ g.conj().T) / np.trace(g @ g.conj().T).real)
    for factor in (1, 2):
        pt = partial_transpose_matrix(rho.matrix, 2, 3, factor)
        np.testing.assert_array_equal(
            partial_transpose_matrix(pt, 2, 3, factor), rho.matrix
        )
        assert np.trace(pt).real == pytest.approx(1.0)


def test_partial_transpose_rejects_bad_factor():
    with pytest.raises(InputError):
        partial_transpose(bell_state(), 3)


def test_is_ppt_product_and_bell():
    rng = np.random.default_rng(23)
    assert is_ppt(product_state(rng, 2, 2))
    assert not is_ppt(bell_state())


def test_stormer_states_are_ppt():
    rng = np.random.default_rng(24)
    for _ in range(50):
        pair = random_stormer_pair(rng, int(rng.integers(2, 5)))
        assert is_ppt(state_from_block(gram_block(pair)))


def test_separable_decomposition_identity_pair():
    dec = canonical_decomposition(OperatorPair(np.eye(2), np.eye(2)))
    sep = separable_decomposition(dec)
    np.testing.assert_allclose(sep.weights, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(np.abs(sep.factor1), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)
    np.testing.assert_allclose(np.abs(sep.factor2), np.eye(2), atol=1e-12)


def test_separable_decomposition_zero_ratio():
    # a2 = 0 forces every lambda to zero: the first factor collapses to |0>
    dec = canonical_decomposition(OperatorPair(np.eye(2), np.zeros((2, 2))))
    sep = separable_decomposition(dec)
    np.testing.assert_allclose(sep.factor1, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
    rho = state_from_block(gram_block(OperatorPair(np.eye(2), np.zeros((2, 2)))))
    np.testing.assert_allclose(separable_state(sep), rho.matrix, atol=1e-12)


def test_separable_decomposition_random_reassembly():
    rng = np.random.default_rng(25)
    for _ in range(20):
        pair = random_stormer_pair(rng, 5)
        rho = state_from_block(gram_block(pair))
        sep = separable_decomposition(canonical_decomposition(pair))
        assert rel_fro(separable_state(sep) - rho.matrix, rho.matrix) <= 1e-8
        assert np.all(sep.weights > 0)
        assert sep.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.linalg.norm(sep.factor1, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(sep.factor2, axis=1), 1.0, atol=1e-12)


def test_separable_states_are_ppt():
    rng = np.random.default_rng(26)
    for _ in range(10):
        pair = random_stormer_pair(rng, 3)
        sep = separable_decomposition(canonical_decomposition(pair))
        rho = DensityState((2, 3), separable_state(sep))
        assert is_ppt(rho)
