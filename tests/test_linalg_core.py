"""The lean linear-algebra core against its SVD-only reference.

Norm-against-threshold checks settle with the Frobenius bound when it is at
most half the scale-free floor and fall back to the SVD otherwise, so every
verdict, error and returned array must equal the SVD-only reference in
``helpers``.  Inputs in the band between half the floor and the threshold
are built on purpose, since there only the SVD can decide.
"""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DomainError,
    OperatorBlockMatrix,
    OperatorPair,
    Partition2,
    ScaleError,
    Tolerance,
    adjoint,
    canonical_decomposition,
    dual_decomposition,
    eig_hermitian,
    gram_block,
    gram_vectors,
    is_hermitian,
    is_hyponormal,
    is_normal,
    is_ppt,
    is_psd,
    psd_margin,
    psd_via_contraction,
    ratio_operator,
    reconstruct_block,
    separable_decomposition,
    spectral_resolution,
    sqrt_psd,
    state_from_block,
    stormer_test,
)
from stormer_kit import linalg
from stormer_kit.io import block_from_payload
from stormer_kit.linalg import _fix_phases, _overflow, _psd_check
from stormer_kit.stormer import _swap, _two_sided
from stormer_kit.sampling import (
    ginibre,
    haar_unitary,
    random_normal_operator,
    random_partition,
    random_stormer_pair,
)

from helpers import (
    hermitize,
    lapack_calls,
    min_eig,
    oracle_eig_hermitian,
    oracle_fix_phases,
    oracle_is_hermitian,
    oracle_is_normal,
    oracle_is_psd,
    oracle_stormer_test,
    svd_norm,
    two_spectrum_gram_vectors,
    two_spectrum_psd_via_contraction,
    two_spectrum_sqrt_psd,
)

FIXTURES = Path(__file__).parent / "fixtures"
FLOOR = DEFAULT_TOL.threshold(0.0)


def unit_antihermitian(rng, d):
    """Antihermitian matrix whose singular values all equal 1."""
    u = haar_unitary(rng, d)
    k = (u * (1j * rng.choice([-1.0, 1.0], size=d))) @ adjoint(u)
    return 0.5 * (k - adjoint(k))


def with_asymmetry(a, k, target):
    """a + s k, for a Hermitian a and a unit antihermitian k, with asymmetry
    ||2 s k|| = 2 s equal to target(a + s k); the target moves little with
    s, so a few fixed-point steps settle it."""
    s = 0.0
    for _ in range(3):
        s = 0.5 * target(a + s * k)
    return a + s * k


def asymmetry(a):
    return svd_norm(a - adjoint(a))


def hermitian_sample(rng, d, psd):
    g = ginibre(rng, d)
    h = g @ adjoint(g) / d + (0.5 * np.eye(d) if psd else -0.5 * np.eye(d))
    return hermitize(h)


# -- psd_margin -------------------------------------------------------------


def test_psd_margin_single_spectrum():
    w = np.array([-2.0, 0.5, 3.0])
    lowest, thr = psd_margin(w)
    assert np.ndim(lowest) == 0 and np.ndim(thr) == 0
    assert lowest == -2.0
    assert thr == DEFAULT_TOL.threshold(3.0)
    tol = Tolerance(abs_eps=1e-3, rel_eps=1e-2)
    assert psd_margin(np.array([-5.0, 1.0]), tol)[1] == tol.threshold(5.0)


def test_psd_margin_stack_matches_single_spectra():
    rng = np.random.default_rng(21)
    w = np.sort(rng.standard_normal((40, 6)) * rng.uniform(1e-3, 1e3, (40, 1)), axis=1)
    lowest, thr = psd_margin(w)
    assert lowest.shape == thr.shape == (40,)
    for row, lo, t in zip(w, lowest, thr):
        assert (lo, t) == psd_margin(row)


def test_psd_margin_is_the_is_psd_rule():
    rng = np.random.default_rng(22)
    for _ in range(50):
        h = hermitian_sample(rng, int(rng.integers(1, 7)), psd=bool(rng.integers(2)))
        lowest, thr = psd_margin(np.linalg.eigvalsh(h))
        assert is_psd(h) == bool(lowest >= -thr)


# -- the one PSD kernel ------------------------------------------------------


def near_threshold(rng, d, offset, tol):
    """Exactly Hermitian U diag(w) U* whose lowest eigenvalue sits ``offset``
    above minus the PSD threshold at its scale."""
    w = np.sort(rng.uniform(0.5, 3.0, d))
    w[0] = -tol.threshold(w[-1]) + offset
    u = haar_unitary(rng, d)
    return hermitize((u * w) @ adjoint(u))


def psd_check_samples(kind, tol):
    rng = np.random.default_rng(["psd", "indefinite", "near", "nonherm"].index(kind) + 24)
    out = []
    for d in range(1, 7):
        for _ in range(6):
            if kind in ("psd", "indefinite"):
                out.append(hermitian_sample(rng, d, psd=kind == "psd"))
            elif kind == "near" and d > 1:
                out += [near_threshold(rng, d, s, tol) for s in (1e-12, -1e-12)]
            elif kind == "nonherm":
                h = hermitian_sample(rng, d, psd=True)
                k = unit_antihermitian(rng, d)
                out += [ginibre(rng, d), h + 1e-9 * k, h + 1e-12 * k]
    if kind == "nonherm":
        payload = json.loads((FIXTURES / "block_nonherm.json").read_text())
        out.append(block_from_payload(payload).assembled())
    return out


@pytest.mark.parametrize("kind", ["psd", "indefinite", "near", "nonherm"])
@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(abs_eps=1e-6, rel_eps=1e-4)])
def test_psd_check_is_the_is_psd_verdict_and_its_margin(kind, tol):
    verdicts = set()
    for a in psd_check_samples(kind, tol):
        verdict, lowest, thr = _psd_check(a, tol)
        assert verdict == is_psd(a, tol) == oracle_is_psd(a, tol)
        assert lowest == min_eig(a)  # bit-equal to an independent spectrum
        assert thr == psd_margin(np.linalg.eigvalsh(hermitize(a)), tol)[1]
        if np.array_equal(a, adjoint(a)):
            assert (lowest + thr >= 0) == verdict
        verdicts.add(verdict)
    assert verdicts == ({True} if kind == "psd" else {True, False})


# -- fix_phases ------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 13))
def test_fix_phases_matches_column_loop_bit_for_bit(d):
    rng = np.random.default_rng(100 + d)
    for trial in range(40):
        k = int(rng.integers(1, d + 2))
        v = ginibre(rng, d, k)
        if trial % 3 == 0:
            v[: min(d - 1, 2)] *= 1e-13  # leading entries under the cutoff
        if trial % 7 == 0:
            v = np.linalg.eigh(hermitize(ginibre(rng, d)))[1]
        got, want = _fix_phases(v), oracle_fix_phases(v)
        assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("layout", ["C", "F", "strided", "real"])
def test_fix_phases_keeps_the_loops_bytes_and_the_input_layout(layout):
    # tobytes(), so the sign of a zero counts
    rng = np.random.default_rng(77)
    for d in range(1, 9):
        for trial in range(12):
            v = ginibre(rng, d, d + 2)
            if trial % 2:
                v = np.linalg.eigh(hermitize(ginibre(rng, d)))[1]
            v = {"C": v, "F": np.asfortranarray(v), "strided": v[:, ::2], "real": v.real}[layout]
            got, want = _fix_phases(v), oracle_fix_phases(v)
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
                want.flags.c_contiguous,
                want.flags.f_contiguous,
            )
            assert not np.shares_memory(got, v)


# -- the band only the SVD can decide ----------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_is_psd_and_is_hermitian_in_the_svd_band(d, factor):
    rng = np.random.default_rng([31, d, int(10 * factor)])
    for _ in range(10):
        h = hermitian_sample(rng, d, psd=True)
        k = unit_antihermitian(rng, d)

        def psd_thr(a):
            w = np.linalg.eigvalsh(hermitize(a))
            return factor * DEFAULT_TOL.threshold(max(abs(w[0]), abs(w[-1])))

        a = with_asymmetry(h, k, psd_thr)
        assert asymmetry(a) / psd_thr(a) == pytest.approx(1.0, rel=0.02)
        assert np.linalg.norm(a - adjoint(a)) > 0.5 * FLOOR  # the bound cannot decide
        assert oracle_is_psd(a) is (factor < 1.0)
        assert is_psd(a) == oracle_is_psd(a)

        def herm_thr(a):
            return factor * DEFAULT_TOL.threshold(svd_norm(a))

        a = with_asymmetry(h, k, herm_thr)
        assert asymmetry(a) / herm_thr(a) == pytest.approx(1.0, rel=0.02)
        assert oracle_is_hermitian(a) is (factor < 1.0)
        assert is_hermitian(a) == oracle_is_hermitian(a)


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_eig_hermitian_in_the_svd_band(d, factor):
    rng = np.random.default_rng([32, d, int(10 * factor)])
    for _ in range(10):
        h = hermitian_sample(rng, d, psd=False) * rng.uniform(0.1, 10.0)
        k = unit_antihermitian(rng, d)
        a = with_asymmetry(h, k, lambda a: factor * 1e-6 * (1.0 + svd_norm(hermitize(a))))
        try:
            want = oracle_eig_hermitian(a)
        except DomainError as exc:
            assert factor > 1.0
            with pytest.raises(DomainError) as got:
                eig_hermitian(a)
            assert str(got.value) == str(exc)
        else:
            assert factor < 1.0
            got = eig_hermitian(a)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_stormer_test_boundary_check_in_the_svd_band(d, factor):
    rng = np.random.default_rng([33, d, int(10 * factor)])
    swapped_over = 0  # blocks whose swap is less Hermitian than its side allows
    for _ in range(10):
        p = random_stormer_pair(rng, d)
        m = gram_block(p).assembled()
        m = hermitize(m)
        k = unit_antihermitian(rng, 2 * d)
        a = with_asymmetry(m, k, lambda a: factor * DEFAULT_TOL.threshold(svd_norm(a)))
        x = OperatorBlockMatrix.from_assembled(a, 2)
        if factor > 1.0:
            with pytest.raises(DomainError):
                oracle_stormer_test(x.blocks)
            with pytest.raises(DomainError):
                stormer_test(x)
        else:
            assert stormer_test(x) == oracle_stormer_test(x.blocks)
            # Hermiticity is decided once, at the boundary: each side's
            # verdict is the sign test of its margin
            sides = _two_sided(x, DEFAULT_TOL)
            for verdict, lowest, thr in sides:
                assert verdict == (lowest >= -thr)
            assert stormer_test(x) == (sides[0][0] and sides[1][0])
            swapped = _swap(x.assembled(), x.n)
            swapped_over += asymmetry(swapped) > sides[1][2]
    if factor < 1.0 and d > 1:
        # at d = 1 the swap is the transpose, with the block's own residual
        assert swapped_over > 0


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_is_normal_in_the_svd_band(d, factor):
    rng = np.random.default_rng([34, d, int(10 * factor)])
    for _ in range(10):
        n = random_normal_operator(rng, d)
        p = ginibre(rng, d)

        def ratio(eps):
            t = n + eps * p
            c = adjoint(t) @ t - t @ adjoint(t)
            return svd_norm(c) / DEFAULT_TOL.quadratic_threshold(svd_norm(t))

        eps = 1e-9
        for _ in range(3):  # the commutator is linear in eps at this size
            eps *= factor / ratio(eps)
        t = n + eps * p
        assert ratio(eps) == pytest.approx(factor, rel=0.02)
        assert oracle_is_normal(t) is (factor < 1.0)
        assert is_normal(t) == oracle_is_normal(t)


# -- random and ill-conditioned inputs ---------------------------------------


def ill_conditioned_pair(rng, d, cond, normal):
    u, v = haar_unitary(rng, d), haar_unitary(rng, d)
    a1 = (u * np.logspace(0.0, -np.log10(cond), d)) @ v
    t = random_normal_operator(rng, d) if normal else ginibre(rng, d)
    return OperatorPair(a1, t @ a1)


def pair_samples():
    rng = np.random.default_rng(35)
    out = []
    for d in range(1, 7):
        for _ in range(4):
            out.append(random_stormer_pair(rng, d))
            out.append(OperatorPair(ginibre(rng, d), ginibre(rng, d)))
        for cond in (1e2, 1e4, 1e6, 1e8):
            out.append(ill_conditioned_pair(rng, d, cond, normal=True))
            out.append(ill_conditioned_pair(rng, d, cond, normal=False))
    return out


def test_predicates_match_reference_on_random_and_ill_conditioned_pairs():
    for p in pair_samples():
        x = gram_block(p)
        m = x.assembled()
        s = x.blocks.transpose(1, 0, 2, 3).transpose(0, 2, 1, 3).reshape(m.shape)
        assert stormer_test(x) == oracle_stormer_test(x.blocks)
        for a in (m, s, p.a1, p.a2):
            assert is_psd(a) == oracle_is_psd(a)
            assert is_hermitian(a) == oracle_is_hermitian(a)
        t = ratio_operator(p).matrix
        assert is_normal(t) == oracle_is_normal(t)
        got, want = eig_hermitian(m), oracle_eig_hermitian(m)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)


def test_non_hermitian_block_fixture_still_raises():
    payload = json.loads((FIXTURES / "block_nonherm.json").read_text())
    x = block_from_payload(payload)
    with pytest.raises(DomainError):
        oracle_stormer_test(x.blocks)
    with pytest.raises(DomainError):
        stormer_test(x)


def test_zero_tolerance_settles_only_exact_residuals():
    tol = Tolerance(abs_eps=0.0, rel_eps=0.0)
    tiny = np.array([[1.0, 1e-170], [0.0, 1.0]])  # its squares underflow
    assert is_hermitian(tiny, tol) == oracle_is_hermitian(tiny, tol)
    assert not is_hermitian(tiny, tol)
    assert is_hermitian(np.eye(3), tol)


# -- LAPACK call counts (deterministic performance gates) -----------------


def test_stormer_test_makes_no_svd():
    p = random_stormer_pair(np.random.default_rng(40), 3)
    x = gram_block(p)
    with lapack_calls() as calls:
        assert stormer_test(x)
    assert calls == {"eigvalsh": 2, "eigh": 0, "svd": 0}


def test_stormer_test_decides_hermiticity_once(monkeypatch):
    calls = []

    def counting(d, floor):
        calls.append(floor)
        return negligible(d, floor)

    negligible = linalg._negligible
    monkeypatch.setattr(linalg, "_negligible", counting)
    x = gram_block(random_stormer_pair(np.random.default_rng(40), 3))
    assert stormer_test(x)
    assert len(calls) == 1  # the boundary check; neither side checks again


def test_canonical_decomposition_lapack_calls():
    p = random_stormer_pair(np.random.default_rng(41), 4)
    with lapack_calls() as calls:
        canonical_decomposition(p)
    # two PSD checks; the ratio operator's singular values (pinv, eig and
    # qr are separate entry points)
    assert calls == {"eigvalsh": 2, "eigh": 0, "svd": 1}
    # the pair's verdict is kept on its Gram block, so the dual reuses it
    with lapack_calls() as calls:
        dual_decomposition(p)
    assert calls == {"eigvalsh": 0, "eigh": 0, "svd": 1}
    p = random_stormer_pair(np.random.default_rng(41), 4)
    with lapack_calls() as calls:
        dual_decomposition(p)
    assert calls == {"eigvalsh": 2, "eigh": 0, "svd": 1}


CHAIN_CALLS = ("eigvalsh", "eigh", "svd", "pinv", "eig", "qr")


def test_decompose_chain_lapack_calls():
    rng = np.random.default_rng(44)
    a1 = random_stormer_pair(rng, 4).a1
    a2 = random_normal_operator(rng, 4) @ a1
    with lapack_calls(CHAIN_CALLS) as calls:
        # the decompose benchmark's pass chain
        pair = OperatorPair(a1, a2)
        x = gram_block(pair)
        assert stormer_test(x)
        dec = canonical_decomposition(pair)
        dual = dual_decomposition(pair)
        reconstruct_block(dec), reconstruct_block(dual)
        rho = state_from_block(x)
        assert is_ppt(rho)
        separable_decomposition(dec)
    # stormer_test 2, the state's own validation 1, is_ppt 1; per
    # decomposition the ratio operator's singular values, one pinv, and one
    # eig and one qr for the spectral resolution
    assert calls == {"eigvalsh": 4, "eigh": 0, "svd": 2, "pinv": 2, "eig": 2, "qr": 2}

    t = ginibre(rng, 4) + np.triu(np.ones((4, 4)), 1)  # far from normal
    with lapack_calls(CHAIN_CALLS) as calls:
        # the fail chain
        pair = OperatorPair(a1, t @ a1)
        assert not stormer_test(gram_block(pair))
        with pytest.raises(DomainError):
            canonical_decomposition(pair)
    assert calls == {"eigvalsh": 2, "eigh": 0, "svd": 0, "pinv": 0, "eig": 0, "qr": 0}


def test_state_and_ppt_lapack_calls():
    x = gram_block(random_stormer_pair(np.random.default_rng(42), 3))
    with lapack_calls() as calls:
        rho = state_from_block(x)
    # the PSD check and the state's own validation
    assert calls == {"eigvalsh": 2, "eigh": 0, "svd": 0}
    with lapack_calls() as calls:
        assert is_ppt(rho)
    assert calls == {"eigvalsh": 1, "eigh": 0, "svd": 0}


def test_psd_via_contraction_lapack_calls():
    a, b, c = random_partition(np.random.default_rng(43), 3, 2, "psd")
    p = Partition2(a, b, c)
    with lapack_calls() as calls:
        cert = psd_via_contraction(p)
    assert cert.psd
    # one eigendecomposition each of A and C, read for the PSD check and the
    # square roots, and two genuine norms: the reported residual and the
    # contraction's
    assert calls == {"eigvalsh": 0, "eigh": 2, "svd": 2}


# -- one eigendecomposition per PSD factorization ---------------------------

SEAM = ("eigvalsh", "eigh", "svd", "eig", "qr", "pinv", "cond")


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def psd_samples(rng, d):
    """Full-rank, rank-deficient and singular PSD matrices of size d, a
    slightly indefinite and an indefinite one, and a PSD one whose
    asymmetry (2e-8) fails the default tolerance's residual rule."""
    g = ginibre(rng, d)
    r = ginibre(rng, d, max(1, d // 2))
    full, deficient = hermitize(g @ adjoint(g)), hermitize(r @ adjoint(r))
    singular = np.zeros((d, d), dtype=complex)
    singular[0, 0] = 1.0
    tilted = full + 1e-8 * unit_antihermitian(rng, d)
    return [full, deficient, singular, deficient - 1e-6 * np.eye(d), hermitize(g + adjoint(g)), tilted]


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(abs_eps=1e-6, rel_eps=1e-4)])
def test_sqrt_psd_is_the_two_spectrum_root_bit_for_bit(tol):
    rng = np.random.default_rng(61)
    kinds = set()
    for d in range(1, 9):
        for m in psd_samples(rng, d):
            got, want = outcome(sqrt_psd, m, tol), outcome(two_spectrum_sqrt_psd, m, tol)
            if isinstance(want, str):
                assert got == want
            else:
                assert same_bits(got, want)
            kinds.add(type(want))
    assert kinds == {str, np.ndarray}


def test_gram_vectors_rows_are_the_two_spectrum_rows_bit_for_bit():
    rng = np.random.default_rng(62)
    rows = 0
    for d in range(1, 5):
        for _ in range(3):
            blocks = [gram_block(random_stormer_pair(rng, d))]
            for n in (1, 2, 3):
                blocks += [OperatorBlockMatrix.from_assembled(m, n) for m in psd_samples(rng, n * d)]
            for x in blocks:
                got, want = outcome(gram_vectors, x), outcome(two_spectrum_gram_vectors, x)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert same_bits(got, want)
                    rows += len(want)
    assert rows > 0


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 5), (4, 2), (3, 3), (6, 1)])
def test_psd_via_contraction_matches_the_two_spectrum_test_bit_for_bit(shape):
    n, k = shape
    rng = np.random.default_rng(63 + 10 * n + k)
    verdicts = set()
    for kind in ["psd", "inflated", "indefinite", "singular"] * 5:
        a, b, c = random_partition(rng, n, k, kind)
        # C rank-deficient as well, with B in and out of its range
        w, v = np.linalg.eigh(hermitize(c))
        w[: max(1, k // 2)] = 0.0
        c_low = (v * w) @ adjoint(v)
        for p in (Partition2(a, b, c), Partition2(a, b, c_low), Partition2(a, 0.0 * b, c_low)):
            cert = psd_via_contraction(p)
            psd, w0, residual = two_spectrum_psd_via_contraction(p)
            assert cert.psd == psd
            assert (cert.w is None) if w0 is None else same_bits(cert.w, w0)
            assert cert.residual == residual
            verdicts.add(psd)
    assert verdicts == {True, False}


def test_psd_factorizations_make_one_eigh():
    rng = np.random.default_rng(64)
    g = ginibre(rng, 6)
    with lapack_calls(SEAM) as calls:
        sqrt_psd(g @ adjoint(g))
    assert calls == {**dict.fromkeys(SEAM, 0), "eigh": 1}
    x = gram_block(random_stormer_pair(rng, 3))
    with lapack_calls(SEAM) as calls:
        gram_vectors(x)
    assert calls == {**dict.fromkeys(SEAM, 0), "eigh": 1}
    # C is checked only when A passes
    a, b, c = random_partition(rng, 3, 2, "indefinite")
    with lapack_calls(SEAM) as calls:
        assert not psd_via_contraction(Partition2(a, b, c)).psd
    assert calls == {**dict.fromkeys(SEAM, 0), "eigh": 1}


def test_loose_tolerances_factor_what_is_psd_accepts():
    # Intended change: a matrix is_psd accepts is factored through its
    # Hermitian part, even where its asymmetry exceeds eig_hermitian's 1e-6
    # guard, which the two-spectrum path applied on top of the check.
    loose = Tolerance(abs_eps=0.0, rel_eps=1e-3)
    rng = np.random.default_rng(65)
    g = ginibre(rng, 4)
    h = hermitize(g @ adjoint(g)) + np.eye(4)
    m = h + 1e-5 * unit_antihermitian(rng, 4)
    assert 1.5e-5 < asymmetry(m) < 2.5e-5
    assert is_psd(m, loose)
    with pytest.raises(DomainError, match="matrix is not Hermitian"):
        eig_hermitian(m)
    with pytest.raises(DomainError, match="matrix is not Hermitian"):
        two_spectrum_sqrt_psd(m, loose)
    assert same_bits(sqrt_psd(m, loose), sqrt_psd(hermitize(m), loose))
    assert same_bits(sqrt_psd(hermitize(m), loose), two_spectrum_sqrt_psd(hermitize(m), loose))
    rows = gram_vectors(OperatorBlockMatrix.from_assembled(m, 2), loose)
    assert same_bits(rows, gram_vectors(OperatorBlockMatrix.from_assembled(hermitize(m), 2), loose))
    # at the default tolerances the same matrix is not PSD at all
    with pytest.raises(DomainError, match="not positive semidefinite"):
        sqrt_psd(m)


# -- overflow of the self-commutator -------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_self_commutator_overflow_names_the_operators_scale():
    t = np.diag([1e200, 1e200j])  # normal, but T*T overflows
    scale = r"self-commutator overflows: operator entries reach 1\.000e\+200"
    for predicate in (is_normal, spectral_resolution, is_hyponormal):
        with pytest.raises(ScaleError, match=scale):
            predicate(t)
    assert issubclass(ScaleError, DomainError)


# Finite entries whose arithmetic overflows, for each entry point that
# raises ScaleError for them.
_HUGE = np.full((3, 3), 1e308 + 0j)
_OVERFLOWING = {
    "is_psd": lambda: is_psd(_HUGE),
    "sqrt_psd": lambda: sqrt_psd(_HUGE),
    "stormer_test": lambda: stormer_test(OperatorBlockMatrix(np.full((2, 2, 3, 3), 1e308 + 0j))),
    "psd_via_contraction": lambda: psd_via_contraction(Partition2(_HUGE, _HUGE, _HUGE)),
    "is_hyponormal": lambda: is_hyponormal(_HUGE),
    "is_normal": lambda: is_normal(_HUGE),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_overflow_raises_scale_error_after_numpys_warnings(name):
    with pytest.warns(RuntimeWarning) as caught:
        with pytest.raises(ScaleError, match=r"overflows: \w+ entries reach 1\.000e\+308"):
            _OVERFLOWING[name]()
    assert "overflow encountered" in str(caught[0].message)


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_overflow_raises_scale_error_where_warnings_are_errors(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleError, match=r"overflows: \w+ entries reach 1\.000e\+308"):
            _OVERFLOWING[name]()


def test_overflow_names_the_largest_part_where_a_modulus_overflows():
    # both parts of the corner are finite, its modulus 1.5e308 * sqrt(2) is
    # not: the message names the largest part; a finite modulus as before
    message = "spectrum overflows: matrix entries reach {}; rescale the matrix"
    for corner, scale in ((1.5e308, "1.500e+308"), (3e307, "4.243e+307")):
        a = np.array([[corner * (1 + 1j), 1], [0, 0]])
        assert str(_overflow("spectrum overflows", "matrix", a)) == message.format(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleError, match=f"^{re.escape(message.format('1.500e+308'))}$"):
            is_psd(np.array([[1.5e308 * (1 + 1j), 1], [0, 0]]))


# Hermitian matrices whose Hermitian part overflows (the corners add to
# 2e308), or whose spectrum does (3 x 8e307 in the all-ones direction).
_SPECTRUM_OVERFLOWS = {
    "corners": (np.array([[0, 1e308], [1e308, 0]], dtype=complex), "1.000e+308"),
    "ones": (np.full((3, 3), 8e307 + 0j), "8.000e+307"),
}


@pytest.mark.parametrize("name", sorted(_SPECTRUM_OVERFLOWS))
def test_eig_hermitian_spectrum_overflow_is_a_scale_error_after_numpys_warnings(name):
    a, scale = _SPECTRUM_OVERFLOWS[name]
    message = rf"^spectrum overflows: matrix entries reach {re.escape(scale)}; rescale the matrix$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScaleError, match=message):
            eig_hermitian(a)
    if name == "corners":
        assert "overflow encountered in add" in str(caught[0].message)


@pytest.mark.parametrize("name", sorted(_SPECTRUM_OVERFLOWS))
def test_eig_hermitian_spectrum_overflow_is_a_scale_error_where_warnings_are_errors(name):
    a, scale = _SPECTRUM_OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"^spectrum overflows: matrix entries reach {re.escape(scale)}"
        with pytest.raises(ScaleError, match=message):
            eig_hermitian(a)


def test_eig_hermitian_below_overflow_is_the_reference():
    for a in (np.array([[0, 1e307], [1e307, 0]]), np.full((3, 3), 1e307)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eig_hermitian(a)
        want = oracle_eig_hermitian(a)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


# Anti-Hermitian: its Hermitian part is 0, but its residual a - a* overflows.
_ANTI_HERMITIAN = np.array([[0, 1e308], [-1e308, 0]], dtype=complex)


def _overflowed_residual_verdicts():
    block = OperatorBlockMatrix(_ANTI_HERMITIAN.reshape(2, 2, 1, 1))
    with pytest.raises(DomainError, match="not Hermitian"):
        stormer_test(block)
    with pytest.raises(DomainError, match="matrix is not Hermitian: asymmetry inf"):
        eig_hermitian(_ANTI_HERMITIAN)
    return is_psd(_ANTI_HERMITIAN), is_hermitian(_ANTI_HERMITIAN)


def test_an_overflowing_residual_reads_as_not_hermitian_after_numpys_warning():
    with pytest.warns(RuntimeWarning, match="overflow encountered in subtract"):
        assert _overflowed_residual_verdicts() == (False, False)


def test_an_overflowing_residual_reads_as_not_hermitian_where_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _overflowed_residual_verdicts() == (False, False)


def test_the_normality_fast_path_skips_the_overflow_check(monkeypatch):
    def never(a, c):
        raise AssertionError("overflow check on a settled commutator")

    monkeypatch.setattr(linalg, "_require_finite_commutator", never)
    rng = np.random.default_rng(66)
    for d in (1, 3, 6):
        assert is_normal(random_normal_operator(rng, d))
        assert is_normal(np.diag(np.exp(2j * np.pi * rng.random(d))))


def test_is_hyponormal_is_the_psd_check_of_the_self_commutator():
    rng = np.random.default_rng(67)
    verdicts = set()
    for d in range(1, 6):
        for t in (ginibre(rng, d), random_normal_operator(rng, d), np.triu(ginibre(rng, d))):
            c = adjoint(t) @ t - t @ adjoint(t)
            for tol in (DEFAULT_TOL, Tolerance(abs_eps=1e-3, rel_eps=1e-2)):
                verdicts.add(is_hyponormal(t, tol))
                assert is_hyponormal(t, tol) == is_psd(c, tol)
    assert verdicts == {True, False}
