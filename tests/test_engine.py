"""The stacked necessity engine against its per-trial reference.

The engine draws, maps and diagonalizes all trials of a call as one stack;
every trial keeps the arithmetic it had when run alone, so reports must equal
the reference exactly, not approximately.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    OperatorBlockMatrix,
    choi_fixture,
    choi_matrix,
    identity_map,
    make_decomposable,
    map_from_choi,
    stormer_test,
    theorem1_necessity_trial,
    transpose_map,
)
from stormer_kit import maps as maps_module
from stormer_kit.linalg import _SILENT, _margin, adjoint, psd_margin
from stormer_kit.sampling import (
    _boundary_grams,
    _pair_stack,
    ginibre,
    random_normal_operator,
    random_stormer_block,
    random_stormer_blocks,
    random_stormer_pair,
    random_stormer_pairs,
    uniform_disk,
)
from stormer_kit.stormer import _assemble, _split, _swap

from helpers import (
    CASES,
    common_spectrum,
    expand,
    kraus_products,
    lapack_calls,
    load_script,
    oracle_apply,
    oracle_block,
    oracle_boundary,
    oracle_disk,
    oracle_image_spectrum,
    oracle_necessity,
    oracle_normal_operator,
    oracle_pair,
    stack_sizes,
    ulps,
)


def _kraus(rng, k, l, count):
    return [ginibre(rng, l, k) for _ in range(count)]


def engine_maps():
    """(label, map, d): every map kind, Kraus maps with l != k, and Kraus
    and Choi maps with output dimension 1 and with input dimension 1."""
    rng = np.random.default_rng(20)
    dec = make_decomposable(_kraus(rng, 3, 2, 2), _kraus(rng, 3, 2, 1))
    to_one = make_decomposable(_kraus(rng, 3, 1, 2), _kraus(rng, 3, 1, 1))
    from_one = make_decomposable(_kraus(rng, 1, 3, 1), _kraus(rng, 1, 3, 2))
    return [
        ("identity", identity_map(), 3),
        ("transpose", transpose_map(), 2),
        ("cp", make_decomposable(_kraus(rng, 2, 4, 2), []), 2),
        ("cocp", make_decomposable([], _kraus(rng, 4, 3, 3)), 4),
        ("cp+cocp", dec, 3),
        ("choi_raw", map_from_choi(choi_matrix(dec), 3), 3),
        ("kraus_cp", make_decomposable(_kraus(rng, 2, 3, 2), []), 2),
        ("kraus_cocp", make_decomposable([], _kraus(rng, 2, 2, 2)), 2),
        ("choi3", choi_fixture(), 3),
        ("kraus_l1", to_one, 3),
        ("choi_l1", map_from_choi(choi_matrix(to_one), 3), 3),
        ("kraus_k1", from_one, 1),
        ("choi_k1", map_from_choi(choi_matrix(from_one), 1), 1),
    ]


ENGINE_MAPS = engine_maps()
# the first six maps and those of dimension 1
NECESSITY_MAPS = ENGINE_MAPS[:6] + ENGINE_MAPS[9:]


@pytest.mark.parametrize("trials", [1, 7, 300])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label,phi,d", NECESSITY_MAPS, ids=[m[0] for m in NECESSITY_MAPS])
def test_engine_equals_per_trial_reference(label, phi, d, n, trials):
    rep = theorem1_necessity_trial(phi, seed=31 + n, trials=trials, n=n, d=d)
    violations, worst = oracle_necessity(phi, seed=31 + n, trials=trials, n=n, d=d)
    assert (rep.violations, rep.worst_min_eig) == (violations, worst)
    assert (rep.trials, rep.n, rep.d) == (trials, n, d)


def test_reference_trial_counts_cross_a_stack_boundary():
    assert 7 < maps_module._TRIAL_CHUNK < 300


def test_engine_counts_violations_like_reference():
    # A random Hermitian Choi matrix gives a map that is not positive: some
    # trials violate and some do not.
    rng = np.random.default_rng(22)
    h = ginibre(rng, 6)
    phi = map_from_choi(h + h.conj().T + 3.0 * np.eye(6), 2)
    for n in (2, 3):
        rep = theorem1_necessity_trial(phi, seed=4, trials=300, n=n, d=2)
        assert 0 < rep.violations < 300
        assert (rep.violations, rep.worst_min_eig) == oracle_necessity(
            phi, seed=4, trials=300, n=n, d=2
        )


@pytest.mark.parametrize("label,phi,d", ENGINE_MAPS, ids=[m[0] for m in ENGINE_MAPS])
def test_stacked_apply_equals_per_matrix_apply(label, phi, d):
    rng = np.random.default_rng(21)
    x = ginibre(rng, 4 * 3 * 3 * d, d).reshape(4, 3, 3, d, d)
    stacked = phi.apply(x)
    for idx in np.ndindex(x.shape[:3]):
        assert np.array_equal(stacked[idx], phi.apply(x[idx]))
        assert np.array_equal(stacked[idx], oracle_apply(phi, x[idx]))


@pytest.mark.parametrize("parts", [(1, 0), (0, 1), (2, 1)], ids=["cp", "cocp", "sum"])
def test_kraus_images_keep_the_oracles_sign_of_zero(parts):
    # == does not tell -0.0 from +0.0.  Products of 1e-400 underflow to -0.0
    # where x is negative; the image, contracted with a Choi tensor that
    # underflowed to +0.0, must carry the reference's signs of zero.
    tiny = 1e-200 * np.eye(2)
    phi = make_decomposable([tiny] * parts[0], [tiny] * parts[1])
    x = np.array([[[-1.0, -1.0 - 1j], [-1.0 + 1j, 2.0]], [[-3.0, 1j], [-1j, -1.0]]])
    assert np.signbit((tiny @ x @ tiny).view(float)).any()
    image = phi.apply(x)
    for k in range(len(x)):
        want = oracle_apply(phi, x[k])
        assert np.array_equal(image[k], want)
        assert np.array_equal(np.signbit(image[k].view(float)), np.signbit(want.view(float)))


# A map given by data contracts every block of a stack with its Choi tensor
# in one einsum, and a Kraus map's tensor is its Choi twin's; the n = 2 Gram
# blocks run as one gemm per pair and column block.  Each image must round
# as in its own block's product.  tobytes() compares the signs of zeros,
# which == does not.


def _per_block_images(phi, x):
    """A Choi-matrix map on a stack by numpy's broadcast einsum over a view
    of its Choi matrix, which contracts block by block: the arithmetic of
    each block alone."""
    return np.einsum("...ij,ijrc->...rc", x, _split(phi.choi, phi.input_dim))


_SCALES = (1.0, 1e150, 1e-150)


def _stacks(rng, k):
    """(n, stack) over n = 1..4, stack sizes 1, 7, 20 and 256, and the three
    layouts: C order, a transposed view and a ``_split`` view.  As n runs
    over 1..3, each layout meets each of ``_SCALES`` at every stack size."""
    for n, count in itertools.product(range(1, 5), (1, 7, 20, 256)):
        g = ginibre(rng, count * n * k, n * k).reshape(count, n * k, n * k)
        for layout in range(3):
            split = _split(_SCALES[(layout + n) % 3] * g, n)
            plain = np.ascontiguousarray(split)
            yield n, (plain, plain.swapaxes(-1, -2), split)[layout]


@pytest.mark.parametrize("l", range(1, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_batched_images_equal_per_block_products_byte_for_byte(k, l):
    rng = np.random.default_rng([k, l])
    kraus = make_decomposable(_kraus(rng, k, l, 1), _kraus(rng, k, l, 1))
    twin = map_from_choi(choi_matrix(kraus), k)
    for _, x in _stacks(rng, k):
        image = kraus._apply(x)
        assert image.tobytes() == twin._apply(x).tobytes()
        assert image.tobytes() == _per_block_images(twin, x).tobytes()
        for idx in ((0, 0, 0), (-1, -1, -1)):
            assert image[idx].tobytes() == oracle_apply(kraus, x[idx]).tobytes()


# A Kraus map's images against the term-by-term products sum K x K* +
# sum L x^T L*, which round differently.  Both are within
# (k^2 + 2k + 2m + 5) u |phi|(|x|) of the exact image, entry by entry, to
# first order in the unit roundoff u = eps / 2: the tensor sums m operator
# products, then k^2 terms; the products sum k terms twice, then m.  The
# Frobenius norm of |phi|(|x|) = sum |K| |x| |K|^T + ... is at most
# ||x||_F sum ||K||_F^2, so each block's image is within
# (k^2 + 2k + 2m + 5) eps ||x||_F sum ||K||_F^2 of its products.


def kraus_deviation_bound(phi, x) -> np.ndarray:
    """The bound above for each block of a stack ``x``, for a map of m
    operators of input dimension k."""
    k, ops = phi.input_dim, phi.kraus_cp + phi.kraus_cocp
    weight = sum(np.vdot(o, o).real for o in ops)
    factor = (k * k + 2 * k + 2 * len(ops) + 5) * np.finfo(float).eps
    return factor * weight * np.linalg.norm(x, axis=(-2, -1))


@pytest.mark.parametrize("l", range(1, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_kraus_images_are_within_rounding_of_the_per_term_products(k, l):
    rng = np.random.default_rng([k, l, 2])
    phi = make_decomposable(_kraus(rng, k, l, 2), _kraus(rng, k, l, 1))
    for _, x in _stacks(rng, k):
        deviation = np.linalg.norm(phi._apply(x) - kraus_products(phi, x), axis=(-2, -1))
        assert (deviation <= kraus_deviation_bound(phi, x)).all()


@pytest.mark.parametrize("d", range(1, 6))
def test_pair_gram_blocks_equal_per_block_products_byte_for_byte(d):
    # at d = 1 numpy multiplies a 1 x 1 block with dot, but the row-stacked
    # 2 x 1 product with its own loop
    for count in (1, 7, 20, 256):
        rng, ref = np.random.default_rng([d, count]), np.random.default_rng([d, count])
        blocks = maps_module._trial_blocks(rng, count, 2, d)
        a = _pair_stack(ref, count, d)
        for t, i, j in np.ndindex(count, 2, 2):
            assert blocks[t, i, j].tobytes() == (adjoint(a[t, i]) @ a[t, j]).tobytes()
        assert rng.random() == ref.random()


def test_apply_rejects_bad_stacks():
    with pytest.raises(DimensionError):
        transpose_map().apply(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        choi_fixture().apply(np.zeros((5, 2, 2)))
    with pytest.raises(DomainError):
        identity_map().apply(np.full((2, 2, 2), np.nan))


def test_count_one_samplers_match_reference():
    for d in (1, 2, 3, 5):
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            pair = random_stormer_pair(rng, d)
            a1, a2 = oracle_pair(ref, d)
            assert np.array_equal(pair.a1, a1) and np.array_equal(pair.a2, a2)
    for n, d, boundary in [(2, 2, None), (3, 3, None), (4, 2, None), (3, 2, 0.05)]:
        rng, ref = np.random.default_rng(n * d), np.random.default_rng(n * d)
        for _ in range(20):
            x = random_stormer_block(rng, n, d, boundary)
            assert np.array_equal(x.blocks, oracle_block(ref, n, d, boundary))
    for d in (2, 3, 5):
        rng, ref = np.random.default_rng(10 + d), np.random.default_rng(10 + d)
        for center, radius in [(1.5, 1.0), (0.0, 2.5)]:
            for count in (1, d, 7):
                got = uniform_disk(rng, count, center, radius)
                assert np.array_equal(got, oracle_disk(ref, count, center, radius))
            got = random_normal_operator(rng, d, center, radius)
            assert np.array_equal(got, oracle_normal_operator(ref, d, center, radius))
        assert rng.random() == ref.random()


def test_stacked_samplers_consume_the_stream_like_single_draws():
    stacked, single = np.random.default_rng(5), np.random.default_rng(5)
    a1, a2 = random_stormer_pairs(stacked, 30, 3)
    for t in range(30):
        pair = random_stormer_pair(single, 3)
        assert np.array_equal(a1[t], pair.a1) and np.array_equal(a2[t], pair.a2)
    blocks = random_stormer_blocks(stacked, 30, 3, 2)
    for t in range(30):
        assert np.array_equal(blocks[t], random_stormer_block(single, 3, 2).blocks)
    assert stacked.random() == single.random()


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("d", range(1, 7))
def test_stacked_pairs_equal_single_draws_and_the_reference(d, seed):
    # at d = 1 numpy's complex multiply can round a stack of 1 x 1 factors
    # unlike a lone one; the sampler spells the product out there
    for count in (1, 7, 256):
        stacked, single, ref = (np.random.default_rng([seed, count]) for _ in range(3))
        a1, a2 = random_stormer_pairs(stacked, count, d)
        for t in range(count):
            pair = random_stormer_pair(single, d)
            w1, w2 = oracle_pair(ref, d)
            assert np.array_equal(a1[t], pair.a1) and np.array_equal(a2[t], pair.a2)
            assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
        assert stacked.random() == single.random() == ref.random()


def test_necessity_at_d1_equals_the_reference_for_random_maps():
    rng = np.random.default_rng(23)
    for seed in range(12):
        phi = make_decomposable(_kraus(rng, 1, 3, 1), _kraus(rng, 1, 3, 1))
        rep = theorem1_necessity_trial(phi, seed=seed, trials=50, n=2, d=1)
        assert (rep.violations, rep.worst_min_eig) == oracle_necessity(phi, seed, 50, 2, 1)


# (d, cond_max, seed): the reference rejects the first a1 candidate of the
# stream seeded by ``seed``.
_REJECTING = [(2, 10.0, 5), (3, 50.0, 335)]


@pytest.mark.parametrize("count", [1, 7, 60])
@pytest.mark.parametrize("d,cond_max,seed", _REJECTING, ids=["d2", "d3"])
def test_rejected_candidates_leave_the_stream_as_single_draws_do(d, cond_max, seed, count):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    a1, a2 = random_stormer_pairs(rng, count, d, cond_max)
    with lapack_calls(("cond",)) as calls:
        want = [oracle_pair(ref, d, cond_max) for _ in range(count)]
    assert calls["cond"] > count  # the reference redrew at least one a1
    for t, (w1, w2) in enumerate(want):
        assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
    assert rng.random() == ref.random()


def test_stacked_samplers_cross_a_stack_boundary_like_the_reference():
    count = maps_module._TRIAL_CHUNK + 9
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    a1, a2 = random_stormer_pairs(rng, count, 2)
    blocks = random_stormer_blocks(rng, count, 3, 2)
    for t in range(count):
        w1, w2 = oracle_pair(ref, 2)
        assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
    for t in range(count):
        assert np.array_equal(blocks[t], oracle_block(ref, 3, 2))
    assert rng.random() == ref.random()


# The boundary mix and the choi3 image run on whole stacks, on the witness
# search's window and on the engine's trials; each matrix must get exactly
# the arithmetic it gets alone.


def _normalized_gram(g, n):
    """(G G* scaled to trace nd, its swapped matrix's minimum eigenvalue),
    one matrix at a time."""
    nd = g.shape[0]
    d = nd // n
    w = g @ adjoint(g)
    w *= nd / np.trace(w).real
    swapped = w.reshape(n, d, n, d).transpose(2, 1, 0, 3).reshape(nd, nd)
    return w, float(np.linalg.eigvalsh(swapped)[0])


# (stack size, which matrices are below their floor); a stack of one is all
# or none below its floor
_MIX_STACKS = [(1, "all"), (1, "none")] + [
    (k, below) for k in range(2, 6) for below in ("all", "some", "none")
]


@pytest.mark.parametrize("k,below", _MIX_STACKS)
@pytest.mark.parametrize("n", [2, 3])
def test_boundary_mix_equals_the_per_matrix_reference(n, k, below):
    rng = np.random.default_rng(100 * n + k)
    g = ginibre(rng, k * 3 * n, 3 * n).reshape(k, 3 * n, 3 * n)
    m0 = np.array([_normalized_gram(g[t], n)[1] for t in range(k)])
    # "some": matrix t is below its floor for even t; a kept matrix sits at
    # its floor when t % 4 == 1 and above it otherwise
    is_below = {"all": np.ones(k, bool), "none": np.zeros(k, bool)}.get(
        below, np.arange(k) % 2 == 0
    )
    floor = np.where(is_below, m0 + 0.01, np.where(np.arange(k) % 4 == 1, m0, m0 - 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _boundary_grams(g, n, floor)
    for t in range(k):
        w, _ = _normalized_gram(g[t], n)
        want = oracle_boundary(w, n, floor[t])
        assert np.array_equal(got[t], want)
        assert np.array_equal(got[t], w) != is_below[t]


def test_boundary_mix_keeps_a_flat_swapped_spectrum_without_warning():
    # G = I: W = I, whose index swap is I, so m0 = 1 and 1 - m0 = 0; the mix
    # computed for it divides 0 by 0, in the callers' _SILENT, and is discarded
    rng = np.random.default_rng(7)
    eye = np.eye(9, dtype=complex)
    g = np.stack([eye, ginibre(rng, 9), eye])
    m0 = _normalized_gram(g[1], 3)[1]
    with warnings.catch_warnings(), np.errstate(**_SILENT):
        warnings.simplefilter("error")
        got = _boundary_grams(g, 3, np.array([0.05, m0 + 0.01, 0.05]))
        alone = _boundary_grams(g[:1], 3, np.array([0.05]))
    assert np.array_equal(got[0], eye) and np.array_equal(got[2], eye)
    assert np.array_equal(alone[0], eye)
    assert np.array_equal(got[1], oracle_boundary(_normalized_gram(g[1], 3)[0], 3, m0 + 0.01))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2)])
def test_stacked_blocks_at_a_zero_boundary_mix_only_those_below_it(n, d):
    # at boundary 0, blocks whose swap is already PSD are kept and the rest
    # mixed, so the stack takes the mixed path
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = random_stormer_blocks(rng, 40, n, d, boundary=0.0)
    kept = 0
    for t in range(40):
        want = oracle_block(ref, n, d, boundary=0.0)
        assert np.array_equal(blocks[t], want)
        swapped_min = np.linalg.eigvalsh(_swap(_assemble(blocks[t]), n))[0]
        kept += swapped_min > 1e-12
    assert 0 < kept < 40


@pytest.mark.parametrize("boundary", [3.0, -0.5, math.nan, math.inf, 1.0 + 1e-15, -1e-300])
def test_block_samplers_reject_a_boundary_outside_zero_one(boundary):
    # at seed 0, n = d = 2, boundary 3 mixes past the identity (direct side
    # down to -1.59) and -0.5 or nan stops short of the swapped side's
    # boundary (-0.068)
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match="boundary must be in"):
        random_stormer_blocks(rng, 3, 2, 2, boundary=boundary)
    with pytest.raises(DomainError, match="boundary must be in"):
        random_stormer_block(rng, 2, 2, boundary=boundary)
    assert rng.random() == np.random.default_rng(0).random()  # no draw consumed


# (argument, value, d): arguments no pair meets.  Below 1, at 1 for d > 1
# and at NaN no Ginibre a1 meets cond_max, and the rejection loop would run
# forever; a center or radius that is not finite gives non-finite pairs
_UNMET = [
    ("cond_max", 0.5, 2), ("cond_max", 1.0, 2), ("cond_max", 1.0, 3), ("cond_max", 0.5, 1),
    ("cond_max", -math.inf, 2), ("cond_max", math.nan, 2), ("cond_max", math.nan, 1),
    ("center", math.inf, 2), ("center", complex(1.5, math.nan), 2), ("center", math.nan, 1),
    ("radius", math.inf, 2), ("radius", -math.inf, 3), ("radius", math.nan, 2),
]


@pytest.mark.parametrize("name,value,d", _UNMET)
def test_pair_samplers_reject_arguments_no_pair_meets(name, value, d):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match=f"^{name} must be"):
        random_stormer_pairs(rng, 3, d, **{name: value})
    with pytest.raises(DomainError, match=f"^{name} must be"):
        random_stormer_pair(rng, d, **{name: value})
    assert rng.random() == np.random.default_rng(0).random()  # no draw consumed


@pytest.mark.parametrize("name,value,d", [row for row in _UNMET if row[0] != "cond_max"])
def test_disk_samplers_reject_a_center_or_radius_that_is_not_finite(name, value, d):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        uniform_disk(rng, d, **{name: value})
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        random_normal_operator(rng, d, **{name: value})
    assert rng.random() == np.random.default_rng(0).random()  # no draw consumed


@pytest.mark.parametrize("count", [-1, 2.5, True])
def test_uniform_disk_rejects_a_count_that_is_no_size_before_any_draw(count):
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError, match="^count must be"):
        uniform_disk(rng, count)
    assert rng.random() == np.random.default_rng(0).random()  # no draw consumed


def test_pair_samplers_at_d1_meet_cond_max_one():
    # every nonzero 1 x 1 matrix has condition number 1: no candidate is rejected
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    a1, a2 = random_stormer_pairs(rng, 5, 1, cond_max=1.0)
    want = [oracle_pair(ref, 1, 1.0) for _ in range(5)]
    assert np.array_equal(a1, [w[0] for w in want])
    assert np.array_equal(a2, [w[1] for w in want])


@pytest.mark.parametrize("boundary", [0.0, 1.0])
def test_block_samplers_at_either_end_of_the_boundary_pass_the_two_sided_test(boundary):
    rng = np.random.default_rng(0)
    for n, d in ((2, 2), (3, 2), (2, 3)):
        for b in random_stormer_blocks(rng, 10, n, d, boundary=boundary):
            assert stormer_test(OperatorBlockMatrix(b))
        assert stormer_test(random_stormer_block(rng, n, d, boundary=boundary))


@pytest.mark.parametrize("layout", ["split", "contiguous"])
def test_choi3_image_equals_the_per_block_reference(layout):
    # the witness search maps _split views of its assembled candidates
    rng = np.random.default_rng(23)
    m = ginibre(rng, 5 * 9, 9).reshape(5, 9, 9)
    x = _split(m, 3) if layout == "split" else np.ascontiguousarray(_split(m, 3))
    phi = choi_fixture()
    image = phi._apply(x)
    for idx in np.ndindex(x.shape[:3]):
        assert np.array_equal(image[idx], oracle_apply(phi, x[idx]))
    assert np.array_equal(x, _split(m, 3))  # the input is left as it was


@pytest.mark.parametrize("layout", ["split", "contiguous"])
@pytest.mark.parametrize("phi", [identity_map(), transpose_map()], ids=["identity", "transpose"])
def test_identity_and_transpose_images_equal_the_per_block_reference(phi, layout):
    # the necessity engine maps _split views of its sampled blocks for n >= 3
    rng = np.random.default_rng(24)
    m = ginibre(rng, 4 * 9, 9).reshape(4, 9, 9)
    x = _split(m, 3) if layout == "split" else np.ascontiguousarray(_split(m, 3))
    image = phi._apply(x)
    assert not np.shares_memory(image, x)
    for idx in np.ndindex(x.shape[:3]):
        assert np.array_equal(image[idx], oracle_apply(phi, x[idx]))


def test_identity_image_of_a_split_view_assembles_without_a_copy():
    m = ginibre(np.random.default_rng(25), 4 * 9, 9).reshape(4, 9, 9)
    image = identity_map()._apply(_split(m, 3))
    assert np.shares_memory(_assemble(image), image)
    assert np.array_equal(_assemble(image), m)


@pytest.mark.parametrize("trials", [0, -3])
def test_necessity_rejects_non_positive_trials(trials):
    with pytest.raises(DomainError):
        theorem1_necessity_trial(transpose_map(), trials=trials, n=2, d=2)


def test_necessity_eigvalsh_calls_do_not_grow_with_trials():
    counts = []
    for trials in (20, 200):
        with lapack_calls() as calls:
            theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=3, d=3)
        counts.append(calls["eigvalsh"])
    # one stacked call for the swap floors, one for the two probes and one
    # for the trials the shifted Cholesky does not clear
    assert counts == [3, 3]


def test_necessity_tests_each_stack_of_pairs_without_a_cond_call():
    counts = []
    for trials in (20, 200):
        with lapack_calls(("cond",)) as calls:
            theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=2, d=3)
        counts.append(calls["cond"])
    # the Cholesky certificate clears every a1 candidate of these streams
    assert counts == [0, 0]


@pytest.mark.parametrize("offset", [0.0, 1e-10, -1e-10])
def test_a_candidate_on_cond_max_leaves_the_stream_as_single_draws_do(offset, monkeypatch):
    # cond_max within 1e-10 of the largest condition number of 20 candidates
    # (746.6): the certificate cannot clear that candidate, which gets the
    # SVD; at -1e-10 it is rejected, and the stream redraws it
    first = np.random.default_rng(7)  # draws each pair's first a1 candidate
    cond_max = max(np.linalg.cond(oracle_pair(first, 3, np.inf)[0]) for _ in range(20))
    cond_max *= 1.0 + offset
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    sizes = stack_sizes(monkeypatch, "cond")
    a1, a2 = random_stormer_pairs(rng, 20, 3, cond_max)
    if offset >= 0:  # one stack, whose one uncleared candidate gets cond alone
        assert sizes == [1]
    monkeypatch.undo()
    for t in range(20):
        w1, w2 = oracle_pair(ref, 3, cond_max)
        assert np.array_equal(a1[t], w1) and np.array_equal(a2[t], w2)
    assert rng.random() == ref.random()


def test_necessity_factorizes_each_stack_once_per_stage():
    # per stack of pairs: no cond (the certificate clears every candidate),
    # one Cholesky per candidate, which a wrapper over numpy's function sees
    # one matrix at a time, one qr for the Haar factors and two eigvalsh for
    # the images, the probes and the others: the transpose map's Gram
    # images are rank-deficient, so their probes are not above 0 and no
    # image is screened.  Per stack of blocks: three eigvalsh, the swap
    # floors, the probes and the images the screen does not clear, and the
    # screen's one Cholesky of every image.  300 trials are 2 stacks, of 256
    # and 44 trials.
    names = ("cond", "cholesky", "qr", "eigvalsh")
    for n, want in ((2, {"qr": 1, "eigvalsh": 2}), (3, {"eigvalsh": 3})):
        for trials, stacks in ((20, 1), (300, 2)):
            with lapack_calls(names) as calls:
                theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=n, d=3)
            per_stage = {name: stacks * want.get(name, 0) for name in names}
            per_stage["cholesky"] = trials
            assert dict(calls) == per_stage


def test_necessity_counts_a_violation_between_one_and_two_thresholds():
    # x -> x - 3e-9 tr(x) I on 2 x 2 matrices: of 10 Gram trials, the
    # image of trial 3 has its lowest eigenvalue between -2 thr and -thr,
    # and that of trial 5 below -2 thr; both are violations
    phi = map_from_choi(choi_matrix(identity_map(), 2) - 3e-9 * np.eye(4), 2)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(10):
        a1, a2 = oracle_pair(rng, 2)
        a1h, a2h = adjoint(a1), adjoint(a2)
        x = np.array([[a1h @ a1, a1h @ a2], [a2h @ a1, a2h @ a2]])
        w = oracle_image_spectrum(phi, x)
        ratios.append(w[0] / DEFAULT_TOL.threshold(max(abs(w[0]), abs(w[-1]))))
    ratios = np.array(ratios)
    assert list(np.flatnonzero(ratios < -1.0)) == [3, 5]
    assert -2.0 < ratios[3] and ratios[5] < -2.0
    rep = theorem1_necessity_trial(phi, seed=0, trials=10, n=2, d=2)
    assert rep.violations == 2
    assert (rep.violations, rep.worst_min_eig) == oracle_necessity(phi, 0, 10, 2, 2)


def test_necessity_diagonalizes_each_trial_at_most_once(monkeypatch):
    # matrices per eigvalsh call, per stack: at n = 2 the two probes, then
    # every other image (the transpose map's Gram images are rank-deficient);
    # at n = 3 the swap floors, the two probes and the images the screen
    # does not clear, far fewer than the trials.  300 trials are stacks of
    # 256 and 44
    want = {
        (2, 20): [2, 18],
        (2, 300): [2, 254, 2, 42],
        (3, 20): [20, 2, 6],
        (3, 300): [256, 2, 8, 44, 2, 2],
    }
    for (n, trials), sizes in want.items():
        got = stack_sizes(monkeypatch, "eigvalsh")
        theorem1_necessity_trial(transpose_map(), seed=0, trials=trials, n=n, d=3)
        monkeypatch.undo()
        assert got == sizes
        images = sum(got) - (trials if n == 3 else 0)
        assert images <= trials and (n == 2 or images < trials)


def _screens(monkeypatch) -> list:
    """Install a wrapper over the engine's shifted-Cholesky test that
    records False for a stack beyond its range and True for each Cholesky
    it runs, and return that list."""
    original, runs = maps_module._screen, []

    def recording(h, tol):
        clears = original(h, tol)
        if clears is None:
            runs.append(False)
            return None

        def running(current):
            runs.append(True)
            return clears(current)

        return running

    monkeypatch.setattr(maps_module, "_screen", recording)
    return runs


def _screen_cases():
    """(label, map, n, d, seed, trials, screens): stacks that take each path
    of the engine, with what the shifted Cholesky does on each stack."""
    rng = np.random.default_rng(20)
    dec = ENGINE_MAPS[4][1]  # cp+cocp, 3 -> 2
    choi = choi_matrix(dec)
    shifted = map_from_choi(choi_matrix(identity_map(), 3) - 0.1 * np.eye(9), 3)
    cases = [
        ("full-rank n=2", dec, 2, 3, 0, 20, [True]),
        ("full-rank n=3", dec, 3, 3, 0, 20, [True]),
        ("full-rank n=3, kraus 2->4", make_decomposable(_kraus(rng, 2, 4, 3), []), 3, 2, 0, 20, [True]),
        # rank-deficient Gram images: probes at or below 0
        ("identity n=2", identity_map(), 2, 3, 0, 20, []),
        # probes above 0, two violations among the images not cleared
        ("violation n=3", shifted, 3, 3, 1, 20, [True]),
        ("scale 1e100", map_from_choi(1e100 * choi, 3), 3, 3, 0, 20, [True]),
        ("scale 1e-100", map_from_choi(1e-100 * choi, 3), 3, 3, 0, 20, [True]),
        # a sum of squares that overflows or is not a normal number
        ("scale 1e160", map_from_choi(1e160 * choi, 3), 3, 3, 0, 20, [False]),
        ("scale 1e-160", map_from_choi(1e-160 * choi, 3), 3, 3, 0, 20, [False]),
    ]
    # one and two trials are all probes; 300 are two screened stacks
    for trials, screens in ((1, []), (2, []), (3, [True]), (300, [True, True])):
        cases.append((f"{trials} trials", dec, 3, 3, 2, trials, screens))
    return cases


SCREEN_CASES = _screen_cases()


@pytest.mark.parametrize(
    "label,phi,n,d,seed,trials,screens", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES]
)
def test_the_screen_keeps_the_per_trial_report(label, phi, n, d, seed, trials, screens, monkeypatch):
    runs = _screens(monkeypatch)
    rep = theorem1_necessity_trial(phi, seed=seed, trials=trials, n=n, d=d)
    assert runs == screens
    assert (rep.violations, rep.worst_min_eig) == oracle_necessity(phi, seed, trials, n, d)
    assert (rep.violations > 0) == (label == "violation n=3")


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100, 1e-160, 1e160])
def test_the_screen_margin_keeps_the_minimum_and_count_of_near_ties(scale):
    # v I, whose spectrum is v itself, is one probe; v sits a few doubles,
    # and one or two margins, on either side of the computed lowest
    # eigenvalue of each of five matrices with one spectrum (ties in exact
    # arithmetic).  Above 0 the screen runs at u <= v, below 0 every image
    # is a violation: either way the report is the one every spectrum gives
    rng = np.random.default_rng(2029)
    phi = choi_fixture()  # names the map of a ScaleError alone
    for m in (1, 2, 3, 6, 9):
        for offset in (0.25, -0.25):
            ties = common_spectrum(rng, m)
            ties += (offset - np.linalg.eigvalsh(ties)[:, 0].min()) * np.eye(m)
            f = math.sqrt(np.vdot(ties, ties).real)  # at scale 1: 1e160 F overflows
            ties *= scale
            for lowest in np.linalg.eigvalsh(ties)[:, 0]:
                delta = scale * _margin(m, f, lowest / scale)
                probes = [ulps(lowest, j) for j in range(-4, 5)]
                probes += [lowest + k * delta for k in (-2, -1, 1, 2)]
                for v in probes:
                    h = np.concatenate(([v * np.eye(m)], ties)).astype(complex)
                    lowest, thr = psd_margin(np.linalg.eigvalsh(h), DEFAULT_TOL)
                    want = (int(np.count_nonzero(lowest < -thr)), float(lowest.min()))
                    with np.errstate(**_SILENT):
                        got = maps_module._stack_report(phi, h, DEFAULT_TOL)
                    assert got == want, (m, v)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("d", range(1, 6))
def test_maps_on_split_views_equal_the_einsum_on_the_view(d, n):
    # _apply copies strided blocks to C order for output dimension l >= 2
    # and keeps them at l = 1; either way each image must be what the einsum
    # gives on the view itself, bit for bit
    rng = np.random.default_rng(40 + 10 * d + n)
    for l in range(1, 6):
        phi = make_decomposable(_kraus(rng, d, l, 2), _kraus(rng, d, l, 1))
        for psi in (phi, map_from_choi(choi_matrix(phi), d)):
            m = ginibre(rng, 6 * n * d, n * d).reshape(6, n * d, n * d)
            view = _split(m, n)
            want = np.einsum("...ij,ijrc->...rc", view, psi._tensor)
            assert np.array_equal(psi._apply(view), want)
            if l > 1:
                assert np.array_equal(psi._apply(np.ascontiguousarray(view)), want)


def test_necessity_rate_script_prints_a_rate_per_map_kind(capsys):
    # per trial at n = 2 the images' spectra, at most one; at n = 3 the
    # swap floors' one more
    script = load_script("necessity_rate")
    assert script.main(trials=20, calls=1, repeats=1) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["named", "kraus", "choi"]
    for row in rows:
        assert len(row) == 5 and min(map(float, row[1:3])) > 0
        at2, at3 = map(float, row[3:])
        assert 0 < at2 <= 1 and 1 < at3 < 2


def test_necessity_digest_script_prints_one_digest_of_its_sweep(monkeypatch, capsys):
    # two calls per map and n, one of 20 trials and one of two stacks, whose
    # reports the digest pins bit for bit
    script = load_script("necessity_digest")
    monkeypatch.setattr(script, "CALLS", [(1, 20), (2, 300)])
    assert script.main() == 0
    assert capsys.readouterr().out == (
        "d5314e8196c5ab2ef542aab22f5dd73409beec1f80007dbdf4b025bf4df976ef"
        "  156 reports, 0 violations\n"
    )


# Commands run in one process after the import check: each must leave scipy
# unimported, since the package does not use it.
_NO_SCIPY_RUNS = [
    ["decompose", "--a1", "id2.json", "--a2", "diag_1i.json"],
    ["decompose", "--a1", "singular2.json", "--a2", "singular2.json"],
    ["make-state", "--a1", "id2.json", "--a2", "id2.json"],
    ["selftest"],
]

# The package modules a fresh process has loaded after ``cli.main`` runs a
# command, which counts modules, not time: cli, errors, io and linalg, plus
# what the command itself uses.
_CLI_BASE = {"cli", "errors", "io", "linalg"}
_CLI_MODULES = {
    "check-psd": _CLI_BASE,
    "block-check": _CLI_BASE | {"blocks"},
    "stormer-check": _CLI_BASE | {"stormer"},
    "decompose": _CLI_BASE | {"stormer"},
    "make-state": _CLI_BASE | {"states", "stormer"},
    "ppt-check": _CLI_BASE | {"states", "stormer"},
    "map-test": _CLI_BASE | {"maps", "sampling", "stormer"},
    "selftest": _CLI_BASE
    | {"blocks", "maps", "sampling", "selftest", "states", "stormer"},
}

# Prints, as JSON lines: after ``import stormer_kit``, after importing its
# cli, and after running ``cli.main`` on each argv in RUNS, the loaded
# package submodules, whether numpy and scipy are loaded, and the
# OPENBLAS_NUM_THREADS the process sees.
_FOOTPRINT_CHILD = """
import contextlib, io, json, os, sys
def state(code=None):
    mods = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("stormer_kit."))
    print(json.dumps([code, mods, "numpy" in sys.modules, "scipy" in sys.modules,
                      os.environ.get("OPENBLAS_NUM_THREADS")]))
import stormer_kit
state()
from stormer_kit import cli
state()
for argv in RUNS:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    state(code)
"""


def _footprint(runs, openblas_threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    code = f"RUNS = {[expand(argv) for argv in runs]!r}\n" + _FOOTPRINT_CHILD
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_leaves_scipy_linalg_unloaded():
    package, imported, *runs = _footprint(_NO_SCIPY_RUNS)
    # the package alone loads no submodule and no numpy, and its cli adds
    # nothing but its errors
    assert package == [None, [], False, False, None]
    assert imported == [None, ["cli", "errors"], False, False, None]
    assert [r[0] for r in runs] == [0] * len(_NO_SCIPY_RUNS)
    assert not any(r[3] for r in runs)
    # the CLI asked for one BLAS thread before numpy loaded
    assert runs[0][4] == "1"


def test_cli_leaves_a_preset_blas_thread_count_alone():
    *_, run = _footprint([["check-psd", "id2.json"]], openblas_threads="2")
    assert run == [0, sorted(_CLI_MODULES["check-psd"]), True, False, "2"]


def test_every_golden_command_has_a_module_footprint():
    assert {argv[0] for _, argv in CASES.values()} == set(_CLI_MODULES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_loads_only_the_modules_its_command_uses(name):
    expected_code, argv = CASES[name]
    *_, (code, mods, _, _, threads) = _footprint([argv])
    assert code == expected_code
    assert mods == sorted(_CLI_MODULES[argv[0]])
    assert threads == "1"
