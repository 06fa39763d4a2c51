import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormer_kit import linalg
from stormer_kit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    OperatorBlockMatrix,
    OperatorPair,
    adjoint,
    canonical_decomposition,
    contraction_condition,
    dual_decomposition,
    gram_block,
    gram_row_block,
    gram_vectors,
    is_normal,
    is_psd,
    op_norm,
    ratio_operator,
    reconstruct_a2,
    reconstruct_block,
    spectral_resolution,
    stormer_test,
    swap_block,
)
from stormer_kit.sampling import (
    find_nontrivial_block,
    ginibre,
    haar_unitary,
    random_normal_operator,
    random_stormer_pair,
)

from helpers import hermitize, min_eig, rel_fro


def loop_partial_transpose_first(m, n, d):
    """Reference partial transpose of the block-index factor, entry by entry."""
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for i in range(n):
        for j in range(n):
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = m[
                j * d : (j + 1) * d, i * d : (i + 1) * d
            ]
    return out


def test_operator_pair_validation():
    with pytest.raises(DimensionError):
        OperatorPair(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError):
        OperatorPair(np.ones((2, 3)), np.ones((2, 3)))


def test_block_matrix_roundtrip():
    rng = np.random.default_rng(1)
    m = ginibre(rng, 6)
    x = OperatorBlockMatrix.from_assembled(m, 2)
    assert x.n == 2 and x.d == 3
    np.testing.assert_array_equal(x.assembled(), m)
    for n in (4, 0, -2):
        with pytest.raises(DimensionError):
            OperatorBlockMatrix.from_assembled(m, n)


def test_gram_block_identity_pair():
    x = gram_block(OperatorPair(np.eye(2), np.eye(2)))
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(x.block(i, j), np.eye(2))


def test_gram_block_diagonal_pair():
    d = np.diag([1.0, 1j])
    x = gram_block(OperatorPair(np.eye(2), d))
    np.testing.assert_allclose(x.block(0, 1), d)
    np.testing.assert_allclose(x.block(1, 0), np.diag([1.0, -1j]))
    np.testing.assert_allclose(x.block(1, 1), np.eye(2))


def test_gram_block_always_psd():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        x = gram_block(OperatorPair(ginibre(rng, d), ginibre(rng, d)))
        assert is_psd(x.assembled())


def test_swap_block_definition_and_involution():
    rng = np.random.default_rng(3)
    x = OperatorBlockMatrix(ginibre(rng, 6, 6).reshape(3, 3, 2, 2))
    s = swap_block(x)
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(s.block(i, j), x.block(j, i))
    np.testing.assert_array_equal(swap_block(s).blocks, x.blocks)


def test_swap_block_is_partial_transpose():
    rng = np.random.default_rng(4)
    x = OperatorBlockMatrix(ginibre(rng, 6, 6).reshape(2, 2, 3, 3))
    np.testing.assert_array_equal(
        swap_block(x).assembled(), loop_partial_transpose_first(x.assembled(), 2, 3)
    )


def test_stormer_test_examples():
    assert stormer_test(gram_block(OperatorPair(np.eye(2), np.diag([1.0, 1j]))))
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not stormer_test(gram_block(OperatorPair(np.eye(2), nil)))
    # the swapped assembled matrix picks up a genuinely negative eigenvalue
    x = gram_block(OperatorPair(np.eye(2), nil))
    assert min_eig(swap_block(x).assembled()) < -0.5


def test_stormer_test_symmetric_pair():
    rng = np.random.default_rng(5)
    a = ginibre(rng, 3)
    assert stormer_test(gram_block(OperatorPair(a, a)))


def test_stormer_test_rejects_non_hermitian():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 1] = 1.0  # adjoint slot left empty
    with pytest.raises(DomainError):
        stormer_test(OperatorBlockMatrix(blocks))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stormer_test_raises_when_the_spectrum_overflows():
    x = OperatorBlockMatrix(np.full((2, 2, 1, 1), 1e308))
    with pytest.raises(DomainError, match=r"spectrum overflows: matrix entries reach 1\.000e\+308"):
        stormer_test(x)


def test_gram_vectors_rank_one():
    x = OperatorBlockMatrix(np.ones((2, 2, 1, 1), dtype=complex))
    rows = gram_vectors(x)
    assert rows.shape == (1, 2, 1)
    np.testing.assert_allclose(rows[0], [[1.0], [1.0]], atol=1e-14)


def test_gram_vectors_identity():
    x = OperatorBlockMatrix(np.eye(2, dtype=complex).reshape(2, 2, 1, 1))
    rows = gram_vectors(x)
    np.testing.assert_allclose(sorted(np.abs(rows.reshape(2, 2)).tolist()), [[0, 1], [1, 0]])


def test_gram_vectors_reassembly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = gram_block(OperatorPair(ginibre(rng, 4), ginibre(rng, 4)))
        rows = gram_vectors(x)
        rebuilt = sum(gram_row_block(rows[k]).assembled() for k in range(rows.shape[0]))
        m = x.assembled()
        assert op_norm(rebuilt - m) <= 1e-9 * (1 + op_norm(m))


def test_gram_vectors_rejects_indefinite():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 1] = blocks[1, 0] = 1.0
    with pytest.raises(DomainError):
        gram_vectors(OperatorBlockMatrix(blocks))


def test_ratio_operator_examples():
    rng = np.random.default_rng(7)
    a2 = ginibre(rng, 3)
    t, degen = ratio_operator(OperatorPair(np.eye(3), a2))
    assert not degen
    np.testing.assert_allclose(t, a2, atol=1e-13)
    t, _ = ratio_operator(OperatorPair(2.0 * np.eye(3), a2))
    np.testing.assert_allclose(t, a2 / 2.0, atol=1e-13)


def test_ratio_operator_degenerate():
    t, degen = ratio_operator(OperatorPair(np.diag([1.0, 0.0]), np.eye(2)))
    assert degen
    np.testing.assert_allclose(t, np.diag([1.0, 0.0]), atol=1e-14)


def test_contraction_condition_unitary_pair():
    u = haar_unitary(np.random.default_rng(8), 3)
    assert contraction_condition(OperatorPair(np.eye(3), u))


def test_contraction_condition_nilpotent():
    # reduces to diag(0, 1) - a2 a2* = diag(-1, 1), which is indefinite
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    pair = OperatorPair(np.eye(2), nil)
    gap = adjoint(nil) @ nil - nil @ adjoint(nil)
    np.testing.assert_allclose(np.linalg.eigvalsh(gap), [-1.0, 1.0])
    assert not contraction_condition(pair)


def test_contraction_condition_matches_normality():
    rng = np.random.default_rng(9)
    for trial in range(200):
        d = int(rng.integers(2, 6))
        if trial % 2 == 0:
            pair = random_stormer_pair(rng, d)
        else:
            while True:
                a1 = ginibre(rng, d)
                if np.linalg.cond(a1) <= 1e3:
                    break
            pair = OperatorPair(a1, ginibre(rng, d) @ a1)
        expected = is_normal(ratio_operator(pair).matrix)
        assert contraction_condition(pair) == expected
        # the unswapped-Gram-block variant is the positivity of a Schur
        # complement of an always-PSD matrix, hence trivially true
        assert contraction_condition(pair, form="gram")


def test_spectral_resolution_diagonal():
    lam, es = spectral_resolution(np.diag([1.0, 1j]))
    np.testing.assert_allclose(lam, [1j, 1.0])  # ascending by (real, imag)
    np.testing.assert_allclose(np.abs(es), np.eye(2)[:, ::-1], atol=1e-14)


def test_spectral_resolution_identity():
    lam, es = spectral_resolution(np.eye(3))
    np.testing.assert_allclose(lam, np.ones(3))
    np.testing.assert_allclose(adjoint(es) @ es, np.eye(3), atol=1e-12)
    rebuilt = (es * lam) @ adjoint(es)
    np.testing.assert_allclose(rebuilt, np.eye(3), atol=1e-12)


def test_spectral_resolution_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        u = haar_unitary(rng, d)
        lam_in = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        t = (u * lam_in) @ adjoint(u)
        lam, es = spectral_resolution(t)
        np.testing.assert_allclose(
            np.sort_complex(lam), np.sort_complex(lam_in), atol=1e-9
        )
        rebuilt = (es * lam) @ adjoint(es)
        assert op_norm(rebuilt - t) <= 1e-9 * (1 + op_norm(t))
        assert op_norm(adjoint(es) @ es - np.eye(d)) <= 1e-10


def test_spectral_resolution_rejects_non_normal():
    with pytest.raises(DomainError):
        spectral_resolution(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_reconstruct_a2_diagonal():
    lam = np.array([2.0, 3j])
    out = reconstruct_a2(np.eye(2), lam, np.eye(2))
    np.testing.assert_allclose(out, np.diag(lam), atol=1e-14)
    out = reconstruct_a2(2.0 * np.eye(2), lam, np.eye(2))
    np.testing.assert_allclose(out, 2.0 * np.diag(lam), atol=1e-14)


def test_reconstruct_a2_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pair = random_stormer_pair(rng, int(rng.integers(2, 7)))
        t, _ = ratio_operator(pair)
        lam, es = spectral_resolution(t)
        rebuilt = reconstruct_a2(pair.a1, lam, es)
        assert op_norm(rebuilt - pair.a2) <= 1e-8 * (1 + op_norm(pair.a2))


def test_reconstruct_a2_length_mismatch():
    with pytest.raises(DimensionError):
        reconstruct_a2(np.eye(2), [1.0], np.eye(2))


def test_canonical_decomposition_identity_pair():
    dec = canonical_decomposition(OperatorPair(np.eye(2), np.diag([1.0, 1j])))
    np.testing.assert_allclose(dec.alphas, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.sort_complex(dec.lambdas), [1j, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(dec.phis), np.eye(2)[:, ::-1], atol=1e-12)
    assert not dec.degenerate


def test_canonical_decomposition_diagonal_pair():
    a1 = np.diag([2.0, 3.0])
    t = np.diag([0.5, 2.0])
    dec = canonical_decomposition(OperatorPair(a1, t @ a1))
    np.testing.assert_allclose(dec.alphas, [2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(dec.lambdas, [0.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(dec.phis), np.eye(2), atol=1e-12)


def test_canonical_decomposition_random_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pair = random_stormer_pair(rng, 5)
        dec = canonical_decomposition(pair)
        target = gram_block(pair).assembled()
        assert rel_fro(reconstruct_block(dec).assembled() - target, target) <= 1e-8
        assert op_norm(adjoint(dec.es) @ dec.es - np.eye(5)) <= 1e-10
        live = dec.alphas > 1e-9
        norms = np.linalg.norm(dec.phis[:, live], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_canonical_decomposition_rejects_failing_pair():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError, match="condition not satisfied"):
        canonical_decomposition(OperatorPair(np.eye(2), nil))


def test_canonical_decomposition_degenerate_pair():
    # singular a1 with a normal ratio operator: flagged, not rejected
    dec = canonical_decomposition(OperatorPair(np.diag([1.0, 0.0]), np.eye(2)))
    assert dec.degenerate


def test_canonical_decomposition_degenerate_non_normal_rejected():
    a1 = np.diag([1.0, 0.0])
    a2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    pair = OperatorPair(a1, a2)
    assert stormer_test(gram_block(pair))
    assert not is_normal(ratio_operator(pair).matrix)
    with pytest.raises(DomainError, match="degenerate"):
        canonical_decomposition(pair)


def test_decompositions_check_normality_once(monkeypatch):
    calls = []
    original = linalg._self_commutator
    monkeypatch.setattr(linalg, "_self_commutator", lambda a: calls.append(a) or original(a))
    p = np.diag([1.0, 0.0])
    # singular a1 in one role order or in both
    for pair in (OperatorPair(p, np.eye(2)), OperatorPair(p, 2j * p)):
        for decompose in (canonical_decomposition, dual_decomposition):
            calls.clear()
            decompose(pair)
            assert len(calls) == 1
    pair = OperatorPair(p, np.array([[0.0, 0.0], [1.0, 0.0]]))
    calls.clear()
    with pytest.raises(DomainError) as exc:
        canonical_decomposition(pair)
    assert str(exc.value) == (
        "pair is degenerate and its ratio operator is not normal; "
        "canonical decomposition is undefined"
    )
    assert len(calls) == 1


def test_reconstruct_block_single_terms():
    from stormer_kit import CanonicalDecomposition

    e1 = np.array([[1.0], [0.0]])
    dec = CanonicalDecomposition(
        alphas=np.array([1.0]),
        lambdas=np.array([0.0 + 0j]),
        phis=e1.astype(complex),
        es=e1.astype(complex),
    )
    x = reconstruct_block(dec)
    p1 = np.outer(e1, e1)
    np.testing.assert_allclose(x.block(0, 0), p1)
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        np.testing.assert_allclose(x.block(i, j), np.zeros((2, 2)))

    dec = CanonicalDecomposition(
        alphas=np.array([1.0]),
        lambdas=np.array([1.0 + 0j]),
        phis=e1.astype(complex),
        es=e1.astype(complex),
    )
    x = reconstruct_block(dec)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(x.block(i, j), p1)


def test_dual_decomposition_diagonal():
    pair = OperatorPair(np.diag([1.0, 1j]), np.eye(2))
    dec = dual_decomposition(pair)
    np.testing.assert_allclose(dec.alphas, [1.0, 1.0], atol=1e-12)
    # ratio operator of the swapped roles is a1 itself: eigenvalues {1, i}
    np.testing.assert_allclose(np.sort_complex(dec.lambdas), [1j, 1.0], atol=1e-12)


def test_dual_decomposition_symmetric_pair():
    rng = np.random.default_rng(14)
    a = ginibre(rng, 3)
    dec = dual_decomposition(OperatorPair(a, a))
    np.testing.assert_allclose(dec.lambdas, np.ones(3), atol=1e-10)


def test_dual_decomposition_random_reconstruction():
    rng = np.random.default_rng(15)
    for _ in range(20):
        pair = random_stormer_pair(rng, int(rng.integers(2, 6)))
        dec = dual_decomposition(pair)
        target = gram_block(pair.swapped()).assembled()
        assert rel_fro(reconstruct_block(dec).assembled() - target, target) <= 1e-8


def test_characterization_both_directions():
    rng = np.random.default_rng(16)
    for trial in range(100):
        d = int(rng.integers(2, 7))
        if trial % 2 == 0:
            pair = random_stormer_pair(rng, d)
            expect = True
        else:
            while True:
                a1 = ginibre(rng, d)
                if np.linalg.cond(a1) <= 1e3:
                    break
            t = ginibre(rng, d)
            if is_normal(t):
                continue
            pair = OperatorPair(a1, t @ a1)
            expect = False
        assert stormer_test(gram_block(pair)) == expect
        assert is_normal(ratio_operator(pair).matrix) == expect


def test_nontrivial_summand_instance():
    x, rows, k = find_nontrivial_block(seed=0)
    assert stormer_test(x)
    assert not stormer_test(gram_row_block(rows[k]))
    rebuilt = sum(gram_row_block(rows[i]).assembled() for i in range(rows.shape[0]))
    m = x.assembled()
    assert op_norm(rebuilt - m) <= 1e-9 * (1 + op_norm(m))


def test_random_normal_operator_is_normal():
    rng = np.random.default_rng(17)
    for _ in range(10):
        assert is_normal(random_normal_operator(rng, 5))


@settings(max_examples=75, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    normal=st.booleans(),
    log_s=st.floats(-3.0, 3.0),
)
def test_scaling_covariance(seed, d, normal, log_s):
    """Scaling (a1, a2) by s keeps the verdict, scales alphas by s and leaves
    lambdas unchanged."""
    rng = np.random.default_rng(seed)
    a1 = random_stormer_pair(rng, d).a1
    t = random_normal_operator(rng, d) if normal else ginibre(rng, d) + np.triu(np.ones((d, d)), 1)
    s = 10.0**log_s
    pair, scaled = OperatorPair(a1, t @ a1), OperatorPair(s * a1, s * (t @ a1))
    verdict = stormer_test(gram_block(pair))
    assert stormer_test(gram_block(scaled)) == verdict
    assert verdict == (normal or d == 1)
    if not verdict:
        return
    dec, dec_s = canonical_decomposition(pair), canonical_decomposition(scaled)
    assert rel_fro(dec_s.alphas - s * dec.alphas, s * dec.alphas) <= 1e-9
    assert rel_fro(dec_s.lambdas - dec.lambdas, dec.lambdas) <= 1e-9
