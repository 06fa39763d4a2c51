"""Value objects of the decompose chain and the results they keep.

``OperatorPair``, ``OperatorBlockMatrix``, ``DensityState``, ``Partition2``
and ``PositiveMap`` own read-only copies of their arrays, so the Gram block
a pair keeps, the verdicts a block keeps (one per tolerance) and the
adjoints a Kraus map keeps cannot go stale.  ``dual_decomposition`` takes
the pair's own verdict instead of testing the role-swapped block; the references in
``helpers`` check that this and the stacked ``reconstruct_block`` give
exactly what the separate computations give.
"""

import copy
import pickle
import re
import warnings

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DensityState,
    DimensionError,
    DomainError,
    InputError,
    OperatorBlockMatrix,
    OperatorPair,
    Partition2,
    ScaleError,
    Tolerance,
    WitnessResult,
    adjoint,
    canonical_decomposition,
    choi_fixture,
    choi_matrix,
    contraction_condition,
    dual_decomposition,
    gram_block,
    gram_row_block,
    gram_vectors,
    is_ppt,
    is_psd,
    make_decomposable,
    map_from_choi,
    op_norm,
    partial_transpose,
    partial_transpose_matrix,
    psd_via_contraction,
    reconstruct_a2,
    reconstruct_block,
    separable_decomposition,
    state_from_block,
    stormer_test,
    swap_block,
    transpose_map,
)
from stormer_kit.sampling import (
    ginibre,
    haar_unitary,
    random_normal_operator,
    random_partition,
    random_stormer_block,
    random_stormer_blocks,
    random_stormer_pair,
    random_stormer_pairs,
    uniform_disk,
)

from helpers import (
    lapack_calls,
    load_script,
    oracle_dual_verdict,
    oracle_reconstruct_block,
    oracle_separable_decomposition,
)

ZERO_TOL = Tolerance(abs_eps=0.0, rel_eps=0.0)


def operator(rng, d, cond=None, rank=None):
    """u diag(s) v with singular values spread to ``cond``, or with the last
    d - ``rank`` of them zero."""
    u, v = haar_unitary(rng, d), haar_unitary(rng, d)
    s = np.logspace(0.0, -np.log10(cond), d) if cond else rng.uniform(0.5, 2.0, d)
    if rank is not None:
        s[rank:] = 0.0
    return (u * s) @ v


def chain_pairs():
    """Passing and failing pairs (a2 = T a1, T normal or far from it), with
    well-conditioned, singular and ill-conditioned a1, for d = 1..7."""
    rng = np.random.default_rng(60)
    out = []
    for d in range(1, 8):
        far = np.triu(np.ones((d, d)), 1)
        for _ in range(10):
            out.append(random_stormer_pair(rng, d))
            a1 = random_stormer_pair(rng, d).a1
            out.append(OperatorPair(a1, (ginibre(rng, d) + far) @ a1))
        for rank in (d - 1, d // 2):
            a1 = operator(rng, d, rank=rank)
            out.append(OperatorPair(a1, random_normal_operator(rng, d) @ a1))
            out.append(OperatorPair(a1, (ginibre(rng, d) + far) @ a1))
        for cond in (1e2, 1e4, 1e6, 1e8):
            a1 = operator(rng, d, cond=cond)
            out.append(OperatorPair(a1, random_normal_operator(rng, d) @ a1))
            out.append(OperatorPair(a1, (ginibre(rng, d) + far) @ a1))
    return out


# -- the dual's verdict and the stacked reconstruction, against references ----


def test_dual_verdict_and_reconstruction_match_references():
    pairs = chain_pairs()
    assert len(pairs) >= 200
    differing, decompositions = [], 0
    for k, p in enumerate(pairs):
        verdict = stormer_test(gram_block(p))
        if verdict != oracle_dual_verdict(p):
            differing.append(k)
        for decompose in (canonical_decomposition, dual_decomposition):
            try:
                dec = decompose(p)
            except DomainError:
                # the condition fails, or the first operator of the role
                # order is singular and its ratio operator is not normal
                continue
            assert verdict
            decompositions += 1
            got = reconstruct_block(dec).blocks
            assert np.array_equal(got, oracle_reconstruct_block(dec)), (k, decompose)
    assert differing == []
    assert decompositions >= 200


def test_reconstruct_block_skips_zero_columns_like_the_reference():
    p = random_stormer_pair(np.random.default_rng(61), 5)
    dec = canonical_decomposition(p)
    phis = dec.phis.copy()
    phis[:, [0, 3]] = 0.0
    dec = type(dec)(dec.alphas, dec.lambdas, phis, dec.es)
    assert np.array_equal(reconstruct_block(dec).blocks, oracle_reconstruct_block(dec))


# -- read-only arrays ----------------------------------------------------------


def test_arrays_are_read_only():
    rng = np.random.default_rng(62)
    p = random_stormer_pair(rng, 3)
    x = gram_block(p)
    rho = state_from_block(x)
    for a in (p.a1, p.a2, p.swapped().a1, x.blocks, swap_block(x).blocks, rho.matrix):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    with pytest.raises(ValueError):
        x.blocks[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        reconstruct_block(canonical_decomposition(p)).blocks[0, 0, 0, 0] = 1.0


def _inputs(rng, d, real):
    """A passing pair's operators as writable arrays: a1 and N a1 with N
    normal (symmetric, for a real pair)."""
    if real:
        a1 = ginibre(rng, d).real
        q = np.linalg.qr(ginibre(rng, d).real)[0]
        return a1, (q * rng.uniform(-2.0, 2.0, d)) @ q.T @ a1
    p = random_stormer_pair(rng, d)
    return np.array(p.a1), np.array(p.a2)


@pytest.mark.parametrize("form", ["complex", "real", "read-only view"])
def test_mutating_the_input_leaves_the_pair_unchanged(form):
    rng = np.random.default_rng(63)
    a1, a2 = _inputs(rng, 3, real=form == "real")
    want = canonical_decomposition(OperatorPair(a1.copy(), a2.copy()))
    if form == "read-only view":
        view1, view2 = a1[:], a2[:]
        view1.flags.writeable = view2.flags.writeable = False
        p = OperatorPair(view1, view2)
    else:
        p = OperatorPair(a1, a2)
    # the pair fails once a2 is no longer a normal operator times a1
    a2 += (ginibre(rng, 3).real + np.triu(np.ones((3, 3)), 1)) @ a1
    assert not stormer_test(gram_block(OperatorPair(a1, a2)))
    assert stormer_test(gram_block(p))
    got = canonical_decomposition(p)
    for field in ("alphas", "lambdas", "phis", "es"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_mutating_the_input_leaves_the_block_unchanged():
    rng = np.random.default_rng(64)
    m = np.array(gram_block(random_stormer_pair(rng, 2)).assembled())
    blocks = np.array(OperatorBlockMatrix.from_assembled(m, 2).blocks)
    for x, source in (
        (OperatorBlockMatrix(blocks), blocks),
        (OperatorBlockMatrix.from_assembled(m, 2), m),
    ):
        kept = x.blocks.copy()
        verdict = stormer_test(x)
        source[...] = 0.0
        source[0, 0] = 5.0
        assert np.array_equal(x.blocks, kept)
        assert stormer_test(x) == verdict
        fresh = Tolerance(abs_eps=1e-10, rel_eps=1e-8)  # a verdict computed now
        assert stormer_test(x, fresh) == stormer_test(OperatorBlockMatrix(kept), fresh)


def test_mutating_the_input_leaves_the_state_unchanged():
    m = np.eye(4, dtype=complex) / 4
    rho = DensityState((2, 2), m)
    m[0, 0] = -5.0
    assert rho.matrix[0, 0] == 0.25 and not np.shares_memory(rho.matrix, m)
    assert rho._lowest == 0.25
    for state in (copy.copy(rho), pickle.loads(pickle.dumps(rho))):
        assert not state.matrix.flags.writeable and np.array_equal(state.matrix, rho.matrix)
        assert not np.shares_memory(state.matrix, rho.matrix)
        assert state._lowest == rho._lowest


def test_mutating_the_input_leaves_the_partition_unchanged():
    a, b, c = np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    p = Partition2(a, b, c)
    assert psd_via_contraction(p).psd
    a[0, 0] = -5.0
    b[...] = 2.0
    c[...] = 0.0
    for got, source, want in ((p.a, a, 1.0), (p.b, b, 0.5), (p.c, c, 1.0)):
        assert got[0, 0] == want and not np.shares_memory(got, source)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
    assert psd_via_contraction(p).psd
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        for got, kept in ((q.a, p.a), (q.b, p.b), (q.c, p.c)):
            assert not got.flags.writeable and np.array_equal(got, kept)
            assert not np.shares_memory(got, kept)


def _maps(kraus, choi):
    """A CP + co-CP map with ``kraus`` in both parts, and the map read off
    ``choi`` (input dimension 2)."""
    return make_decomposable([kraus], [kraus]), map_from_choi(choi, 2)


def test_mutating_the_input_leaves_the_map_unchanged():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    for dtype in (complex, float):  # a complex input could be aliased
        k = np.eye(2, dtype=dtype)
        c = choi_matrix(transpose_map(), 2).real.astype(dtype)  # a real permutation
        kraus_map, choi_map = _maps(k, c)
        want = [kraus_map.apply(x), choi_map.apply(x)]
        k[0, 0] = 5.0
        c[...] = 0.0
        assert np.array_equal(kraus_map.apply(x), want[0]) and np.array_equal(want[0], x + x.T)
        assert np.array_equal(choi_map.apply(x), want[1]) and np.array_equal(want[1], x.T)
        assert not np.shares_memory(kraus_map.kraus_cp[0], k)
        assert not np.shares_memory(choi_map.choi, c)


def test_map_arrays_are_read_only():
    kraus_map, choi_map = _maps(np.eye(2), choi_matrix(transpose_map(), 2))
    for a in (kraus_map.kraus_cp[0], kraus_map.kraus_cocp[0], choi_map.choi):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def _arrays(phi) -> list:
    return [*phi.kraus_cp, *phi.kraus_cocp] + ([] if phi.choi is None else [phi.choi])


def test_map_copies_are_rebuilt_through_the_constructor():
    rng = np.random.default_rng(67)
    kraus = ginibre(rng, 3, 2)  # 3 x 2: input dimension 2, output 3
    x = ginibre(rng, 2)
    maps = [*_maps(kraus[:2], choi_matrix(transpose_map(), 2)), make_decomposable([], [kraus])]
    for phi in maps + [choi_fixture()]:
        for q in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
            assert (q.kind, q.name, q.input_dim) == (phi.kind, phi.name, phi.input_dim)
            assert len(_arrays(q)) == len(_arrays(phi))
            for got, kept in zip(_arrays(q), _arrays(phi)):
                assert not got.flags.writeable and np.array_equal(got, kept)
                assert not np.shares_memory(got, kept)
            if phi in maps:
                assert np.array_equal(q.apply(x), phi.apply(x))


def test_copies_own_fresh_arrays_and_keep_nothing():
    p = random_stormer_pair(np.random.default_rng(65), 3)
    x = gram_block(p)
    assert stormer_test(x)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert not q.a1.flags.writeable and np.array_equal(q.a1, p.a1)
        assert not np.shares_memory(q.a1, p.a1)
        assert gram_block(q) is not x
    for y in (copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert not y.blocks.flags.writeable and np.array_equal(y.blocks, x.blocks)
        with lapack_calls() as calls:
            assert stormer_test(y)
        assert calls["eigvalsh"] == 2


def test_the_swapped_pair_owns_fresh_arrays_and_keeps_nothing():
    p = random_stormer_pair(np.random.default_rng(66), 3)
    x = gram_block(p)
    q = p.swapped()
    assert np.array_equal(q.a1, p.a2) and np.array_equal(q.a2, p.a1)
    assert not q.a1.flags.writeable and not q.a2.flags.writeable
    assert not np.shares_memory(q.a1, p.a2) and not np.shares_memory(q.a2, p.a1)
    assert gram_block(q) is not x


# -- what a pair and a block keep ----------------------------------------------


def test_gram_block_is_built_once_per_pair():
    p = random_stormer_pair(np.random.default_rng(66), 3)
    x = gram_block(p)
    assert gram_block(p) is x
    assert gram_block(p.swapped()) is not gram_block(p.swapped())


def test_verdict_is_kept_per_equal_tolerance():
    x = gram_block(random_stormer_pair(np.random.default_rng(67), 3))
    with lapack_calls() as calls:
        assert stormer_test(x)
        assert stormer_test(x, Tolerance())  # equal to DEFAULT_TOL, not the same object
    assert calls["eigvalsh"] == 2


def _boundary_block():
    """diag(1, -1e-12): PSD within the default tolerance, not within zero."""
    return OperatorBlockMatrix(np.diag([1.0, -1e-12]).reshape(2, 1, 2, 1).swapaxes(1, 2))


@pytest.mark.parametrize("order", [(DEFAULT_TOL, ZERO_TOL), (ZERO_TOL, DEFAULT_TOL)])
def test_verdict_memo_is_keyed_by_tolerance(order):
    expected = {DEFAULT_TOL: True, ZERO_TOL: False}
    x = _boundary_block()
    for tol in order + order:
        assert stormer_test(x, tol) is expected[tol]
    # the state check reuses only a true verdict for its own tolerance
    y = _boundary_block()
    assert stormer_test(y, DEFAULT_TOL)
    with pytest.raises(DomainError, match="not PSD"):
        state_from_block(y, ZERO_TOL)
    assert state_from_block(y, DEFAULT_TOL).dims == (2, 1)


def test_non_hermitian_block_raises_on_every_call():
    blocks = np.zeros((2, 2, 1, 1), dtype=complex)
    blocks[0, 1] = 1.0
    x = OperatorBlockMatrix(blocks)
    for _ in range(2):
        with pytest.raises(DomainError, match="not Hermitian"):
            stormer_test(x)


def test_state_from_block_reuses_a_true_verdict():
    x = gram_block(random_stormer_pair(np.random.default_rng(68), 3))
    assert stormer_test(x)
    with lapack_calls() as calls:
        state_from_block(x)
    assert calls["eigvalsh"] == 1  # the state's own validation only


def test_dual_reuses_the_pairs_verdict_and_still_refuses_failing_pairs():
    rng = np.random.default_rng(69)
    a1 = random_stormer_pair(rng, 3).a1
    p = OperatorPair(a1, (ginibre(rng, 3) + np.triu(np.ones((3, 3)), 1)) @ a1)
    with pytest.raises(DomainError, match="condition not satisfied"):
        canonical_decomposition(p)
    with lapack_calls() as calls:
        with pytest.raises(DomainError, match="condition not satisfied"):
            dual_decomposition(p)
    assert calls["eigvalsh"] == 0


# -- equality and hashing ------------------------------------------------------


def _twins():
    """Two separately built, equal-valued instances of each value object
    with array fields."""

    def build():
        p = random_stormer_pair(np.random.default_rng(70), 3)
        x = gram_block(p)
        dec = canonical_decomposition(p)
        partition = Partition2(np.eye(2), 0.5 * np.eye(2), np.eye(2))
        return [
            p,
            x,
            dec,
            state_from_block(x),
            separable_decomposition(dec),
            partition,
            psd_via_contraction(partition),
            map_from_choi(choi_matrix(transpose_map(), 2), 2),
            WitnessResult(block=x, min_eig=-0.1, evaluations=3, restart=0),
        ]

    return list(zip(build(), build()))


def test_value_objects_compare_and_hash_by_identity():
    twins = _twins()
    assert len({type(a) for a, _ in twins}) == 9
    for a, b in twins:
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert a in [a] and a not in [b]
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2 and a in {a} and b not in {a}


# -- the loop-free kernels, byte for byte --------------------------------------
# tobytes() comparisons, so that the sign of a zero counts too.


def _exact_pairs():
    """chain_pairs, plus real, integer and diagonal pairs, whose Gram blocks
    hold exact zeros and repeated eigenvalues."""
    rng = np.random.default_rng(71)
    out = chain_pairs()
    for d in range(1, 6):
        for _ in range(4):
            out.append(OperatorPair(*_inputs(rng, d, real=True)))
            a1 = rng.integers(-2, 3, (d, d)) + 3.0 * np.eye(d)
            out.append(OperatorPair(a1, np.diag(rng.integers(-2, 3, d)) @ a1))
            diagonal = np.diag(rng.integers(1, 3, d))
            out.append(OperatorPair(diagonal, np.diag(rng.choice([1, 1j, -1], d)) @ diagonal))
    out.append(OperatorPair(np.eye(2), np.eye(2)))
    out.append(OperatorPair(np.eye(2), np.diag([1, 1j])))
    return out


def _decompositions():
    """Both decompositions of every decomposable pair of _exact_pairs, and
    copies of some with zero phi columns, as a degenerate pair gives."""
    out = []
    for p in _exact_pairs():
        for decompose in (canonical_decomposition, dual_decomposition):
            try:
                out.append(decompose(p))
            except DomainError:
                continue
    for k, dec in enumerate(out[::7]):
        if dec.dim > 1:
            phis = dec.phis.copy()
            phis[:, k % dec.dim] = 0.0
            out.append(type(dec)(dec.alphas, dec.lambdas, phis, dec.es, True))
    return out


def _same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_stacked_kernels_equal_the_term_loops_byte_for_byte():
    decs = _decompositions()
    every = [bool(dec.phis.any(axis=0).all()) for dec in decs]
    assert len(decs) >= 300 and sum(every) >= 200 and every.count(False) >= 30
    for k, dec in enumerate(decs):
        assert _same_bytes(reconstruct_block(dec).blocks, oracle_reconstruct_block(dec)), k
        try:
            want = oracle_separable_decomposition(dec)
        except DomainError:  # every phi is zero: a zero pair
            with pytest.raises(DomainError, match="decomposition has no mass"):
                separable_decomposition(dec)
            continue
        got = separable_decomposition(dec)
        for field in ("weights", "factor1", "factor2"):
            assert _same_bytes(getattr(got, field), getattr(want, field)), (k, field)
            assert getattr(got, field).flags.c_contiguous
        assert not np.shares_memory(got.factor2, dec.phis)


def test_canonical_alphas_and_phis_are_the_norm_and_the_masked_quotient():
    tol = DEFAULT_TOL
    for p in _exact_pairs():
        try:
            dec = canonical_decomposition(p, tol)
        except DomainError:
            continue
        g = adjoint(p.a1) @ dec.es
        alphas = np.linalg.norm(g, axis=0).real
        keep = alphas > tol.threshold(float(np.linalg.svd(p.a1, compute_uv=False)[0]))
        phis = np.zeros_like(g)
        phis[:, keep] = g[:, keep] / alphas[keep]
        assert _same_bytes(dec.alphas, alphas) and _same_bytes(dec.phis, phis)


def test_state_from_block_equals_the_publicly_built_state():
    states = 0
    for p in _exact_pairs():
        x = gram_block(p)
        if not stormer_test(x):
            continue
        m = x.assembled()
        tr = float(m.trace().real)
        if tr == 0.0:  # a zero pair
            with pytest.raises(DomainError, match="zero trace"):
                state_from_block(x)
            continue
        want = DensityState((2, p.dim), 0.5 * (m + adjoint(m)) / tr)
        got = state_from_block(x)
        for state in (got, pickle.loads(pickle.dumps(got)), copy.copy(got)):
            assert state.dims == want.dims
            assert _same_bytes(state.matrix, want.matrix)
            assert state.matrix.flags.c_contiguous == want.matrix.flags.c_contiguous
            assert not state.matrix.flags.writeable
            assert np.float64(state._lowest).tobytes() == np.float64(want._lowest).tobytes()
        states += 1
    assert states >= 150


def test_overflowing_gram_and_state_inputs_raise_as_before():
    huge = OperatorPair(1e200 * np.eye(2), 1e200 * np.eye(2))
    gram_overflows = r"^Gram block overflows: pair entries reach 1\.000e\+200; rescale the pair$"
    with pytest.raises(ScaleError, match=gram_overflows):
        gram_block(huge)
    corners = np.full((2, 2, 2, 2), 0.0, dtype=complex)
    corners[0, 0] = corners[1, 1] = np.eye(2)
    corners[0, 1, 0, 0] = corners[1, 0, 0, 0] = 1e308
    message = r"^spectrum overflows: matrix entries reach 1\.000e\+308; rescale the matrix$"
    for mode in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(mode)
            for build in (state_from_block, lambda x: DensityState((2, 2), x.assembled())):
                with pytest.raises(ScaleError, match=message):
                    build(OperatorBlockMatrix(corners))


def test_decompose_rate_script_prints_a_rate_per_stage(capsys):
    script = load_script("decompose_rate")
    assert script.main(batches=1, repeats=1) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    stages = {
        "pass": ["pair", "gram", "stormer_test", "canonical", "dual", "reconstruct",
                 "state", "ppt", "separable", "total"],
        "fail": ["pair", "gram", "stormer_test", "canonical", "total"],
        "partition": ["partition", "contraction", "oracle", "total"],
    }
    assert [row[:2] for row in rows] == [[c, s] for c, names in stages.items() for s in names]
    assert all(len(row) == 3 and float(row[2]) > 0 for row in rows)


# -- integer dimensions, read once at the boundary ----------------------------

# Not integers: each raises DimensionError wherever a dimension is read.
_NOT_DIMS = [2.0, True, np.float64(2.0), np.True_, "2", None]


@pytest.mark.parametrize("bad", _NOT_DIMS, ids=repr)
def test_state_dims_must_be_two_integers(bad):
    m = np.eye(6) / 6
    for dims in ((bad, 3), (2, bad), (2.0, 3), (True, 6), (1, 2, 3), (6,), 6):
        with pytest.raises(DimensionError, match="state dims must be two integers"):
            DensityState(dims, m)


def test_state_keeps_its_dims_as_a_pair_of_ints():
    m = np.eye(6) / 6
    for dims in ((np.int64(2), np.int32(3)), [2, 3], np.array([2, 3])):
        state = DensityState(dims, m)
        for rho in (state, pickle.loads(pickle.dumps(state))):
            assert rho.dims == (2, 3)
            assert all(type(k) is int for k in rho.dims)
            assert is_ppt(rho)
            assert np.array_equal(partial_transpose(rho, 2), m)


@pytest.mark.parametrize("bad", _NOT_DIMS, ids=repr)
def test_from_assembled_reads_n_as_an_integer(bad):
    with pytest.raises(DimensionError, match="n must be an integer"):
        OperatorBlockMatrix.from_assembled(np.eye(4), bad)
    x = OperatorBlockMatrix.from_assembled(np.eye(4), np.int64(2))
    assert (x.n, x.d) == (2, 2)


@pytest.mark.parametrize("bad", _NOT_DIMS, ids=repr)
def test_partial_transpose_matrix_reads_its_dims_as_integers(bad):
    m = np.arange(36.0).reshape(6, 6)
    for n, d, name in ((bad, 3, "n"), (2, bad, "d")):
        with pytest.raises(DimensionError, match=f"^{name} must be an integer"):
            partial_transpose_matrix(m, n, d, 1)
    assert np.array_equal(
        partial_transpose_matrix(m, np.int64(2), np.int8(3), 1), partial_transpose_matrix(m, 2, 3, 1)
    )


# -- boundary checks: (call, error type, message fragment) --------------------

_PAIR = OperatorPair(np.eye(2), np.eye(2))
_NAN_BLOCK = np.zeros((2, 2, 2, 2), dtype=complex)
_NAN_BLOCK[0, 1, 1, 0] = np.nan

_BOUNDARY = [
    pytest.param(lambda: is_psd(np.zeros((0, 0))), DimensionError,
                 "expected a nonempty matrix, got shape (0, 0)", id="is_psd-empty"),
    pytest.param(lambda: is_psd(np.zeros((2, 2, 2))), DimensionError,
                 "expected a nonempty matrix, got shape (2, 2, 2)", id="is_psd-3d"),
    pytest.param(lambda: is_psd(np.array([[1.0, np.nan], [np.nan, 1.0]])), DomainError,
                 "matrix entries must be finite", id="is_psd-nan"),
    pytest.param(lambda: is_psd(np.array([[np.inf]])), DomainError,
                 "matrix entries must be finite", id="is_psd-inf"),
    pytest.param(lambda: op_norm(np.zeros((3, 0))), DimensionError,
                 "expected a nonempty matrix, got shape (3, 0)", id="op_norm-empty"),
    pytest.param(lambda: op_norm(np.zeros((1, 2, 2))), DimensionError,
                 "expected a nonempty matrix, got shape (1, 2, 2)", id="op_norm-3d"),
    pytest.param(lambda: op_norm(np.array([[1.0, -np.inf]])), DomainError,
                 "matrix entries must be finite", id="op_norm-inf"),
    pytest.param(lambda: op_norm(np.array([[complex(0.0, np.nan)]])), DomainError,
                 "matrix entries must be finite", id="op_norm-nan"),
    pytest.param(lambda: OperatorBlockMatrix(np.zeros((2, 3, 2, 2))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (2, 3, 2, 2)", id="blocks-not-square"),
    pytest.param(lambda: OperatorBlockMatrix(np.zeros((2, 2, 2, 3))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (2, 2, 2, 3)", id="blocks-not-d-by-d"),
    pytest.param(lambda: OperatorBlockMatrix(np.zeros((2, 2, 2))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (2, 2, 2)", id="blocks-3d"),
    pytest.param(lambda: OperatorBlockMatrix(_NAN_BLOCK), DomainError,
                 "block entries must be finite", id="blocks-nan"),
    pytest.param(lambda: gram_row_block(np.ones(3)), DimensionError,
                 "row must have shape (n, d), got (3,)", id="gram_row_block-1d"),
    pytest.param(lambda: OperatorBlockMatrix(np.zeros((1, 1, 0, 0))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (1, 1, 0, 0)", id="blocks-d0"),
    pytest.param(lambda: OperatorBlockMatrix(np.zeros((0, 0, 2, 2))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (0, 0, 2, 2)", id="blocks-n0"),
    pytest.param(lambda: gram_row_block(np.zeros((2, 0))), DimensionError,
                 "blocks must have shape (n, n, d, d), got (2, 2, 0, 0)", id="gram_row_block-d0"),
    pytest.param(lambda: reconstruct_a2(np.eye(2), 1.0, np.eye(2)), DimensionError,
                 "for eigenvalues of shape ()", id="reconstruct_a2-scalar"),
    pytest.param(lambda: reconstruct_a2(np.eye(2), [[1, 2]], np.eye(2)), DimensionError,
                 "for eigenvalues of shape (1, 2)", id="reconstruct_a2-2d"),
    pytest.param(lambda: reconstruct_a2(np.eye(2), [np.nan, 1.0], np.eye(2)), DomainError,
                 "eigenvalues must be finite", id="reconstruct_a2-nan"),
    pytest.param(lambda: reconstruct_a2(np.eye(2), [1.0, complex(0, np.inf)], np.eye(2)),
                 DomainError, "eigenvalues must be finite", id="reconstruct_a2-inf"),
    pytest.param(lambda: contraction_condition(_PAIR, form="x"), ValueError,
                 "unknown form 'x'", id="contraction_condition-form"),
    pytest.param(lambda: random_partition(np.random.default_rng(0), 2, 2, "x"), ValueError,
                 "unknown partition kind 'x'", id="random_partition-kind"),
    pytest.param(lambda: random_partition(np.random.default_rng(0), 2.0, 2, "psd"), DimensionError,
                 "n must be an integer, got 2.0", id="random_partition-float"),
    pytest.param(lambda: random_partition(np.random.default_rng(0), 2, True, "psd"),
                 DimensionError, "k must be an integer, got True", id="random_partition-bool"),
    pytest.param(lambda: ginibre(np.random.default_rng(0), 2.5), DimensionError,
                 "rows must be an integer, got 2.5", id="ginibre-rows"),
    pytest.param(lambda: ginibre(np.random.default_rng(0), 2, 2.0), DimensionError,
                 "cols must be an integer, got 2.0", id="ginibre-cols"),
    pytest.param(lambda: random_stormer_pair(np.random.default_rng(0), 2.0), DimensionError,
                 "d must be an integer, got 2.0", id="random_stormer_pair-float"),
    pytest.param(lambda: random_stormer_pair(np.random.default_rng(0), True), DimensionError,
                 "d must be an integer, got True", id="random_stormer_pair-bool"),
    pytest.param(lambda: random_stormer_pairs(np.random.default_rng(0), 2.0, 2), DimensionError,
                 "count must be an integer, got 2.0", id="random_stormer_pairs-count"),
    pytest.param(lambda: random_stormer_block(np.random.default_rng(0), 2, 2.0), DimensionError,
                 "d must be an integer, got 2.0", id="random_stormer_block-float"),
    pytest.param(lambda: random_stormer_block(np.random.default_rng(0), True, 2), DimensionError,
                 "n must be an integer, got True", id="random_stormer_block-bool"),
    pytest.param(lambda: random_stormer_blocks(np.random.default_rng(0), 2.5, 2, 2),
                 DimensionError, "count must be an integer, got 2.5",
                 id="random_stormer_blocks-count"),
    pytest.param(lambda: uniform_disk(np.random.default_rng(0), -1), DimensionError,
                 "count must be at least 0, got -1", id="uniform_disk-negative"),
    pytest.param(lambda: uniform_disk(np.random.default_rng(0), 2.5), DimensionError,
                 "count must be an integer, got 2.5", id="uniform_disk-float"),
    pytest.param(lambda: ginibre(np.random.default_rng(0), -1), DimensionError,
                 "rows must be at least 0, got -1", id="ginibre-negative-rows"),
    pytest.param(lambda: ginibre(np.random.default_rng(0), 2, -3), DimensionError,
                 "cols must be at least 0, got -3", id="ginibre-negative-cols"),
    pytest.param(lambda: random_stormer_pairs(np.random.default_rng(0), 2, 0), DimensionError,
                 "d must be at least 1, got 0", id="random_stormer_pairs-d0"),
    pytest.param(lambda: random_stormer_pairs(np.random.default_rng(0), -1, 2), DimensionError,
                 "count must be at least 0, got -1", id="random_stormer_pairs-negative"),
    pytest.param(lambda: random_stormer_pair(np.random.default_rng(0), -2), DimensionError,
                 "d must be at least 1, got -2", id="random_stormer_pair-negative"),
    pytest.param(lambda: random_stormer_blocks(np.random.default_rng(0), 2, 0, 2),
                 DimensionError, "n must be at least 1, got 0", id="random_stormer_blocks-n0"),
    pytest.param(lambda: random_stormer_blocks(np.random.default_rng(0), 2, 2, 0),
                 DimensionError, "d must be at least 1, got 0", id="random_stormer_blocks-d0"),
    pytest.param(lambda: random_stormer_blocks(np.random.default_rng(0), -1, 2, 2),
                 DimensionError, "count must be at least 0, got -1",
                 id="random_stormer_blocks-negative"),
    pytest.param(lambda: partial_transpose_matrix(np.eye(4), 2, 2, True), InputError,
                 "factor must be an integer, got True", id="partial_transpose_matrix-bool"),
    pytest.param(lambda: partial_transpose_matrix(np.eye(4), 2, 2, 1.0), InputError,
                 "factor must be an integer, got 1.0", id="partial_transpose_matrix-float"),
]


@pytest.mark.parametrize("call, error, fragment", _BOUNDARY)
def test_boundary_checks_raise_their_error(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as caught:
        call()
    assert caught.type is error


def test_samplers_of_no_draws_give_empty_stacks():
    rng = np.random.default_rng(0)
    a1, a2 = random_stormer_pairs(rng, 0, 3)
    assert a1.shape == a2.shape == (0, 3, 3)
    assert random_stormer_blocks(rng, 0, 2, 3).shape == (0, 2, 2, 3, 3)
    assert ginibre(rng, 0).shape == (0, 0) and ginibre(rng, 2, 0).shape == (2, 0)
    assert rng.random() == np.random.default_rng(0).random()  # no draw consumed


def test_gram_vectors_of_a_zero_block_has_no_rows():
    for n, d in ((1, 1), (2, 3), (3, 2)):
        rows = gram_vectors(OperatorBlockMatrix(np.zeros((n, n, d, d))))
        assert rows.shape == (0, n, d)
        assert rows.dtype == complex
