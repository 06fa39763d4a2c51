"""Property tests of the block layout kernels in ``stormer``.

An n x n array of d x d blocks assembles to a matrix on (block index) x
(space); on that layout the index swap is the partial transpose of the first
factor.  The kernels only move entries, so every identity holds exactly.
A map's Choi matrix is the same layout of the images of the matrix units.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stormer_kit import (
    OperatorBlockMatrix,
    choi_matrix,
    make_decomposable,
    map_from_choi,
    partial_transpose_matrix,
    swap_block,
)
from stormer_kit.sampling import ginibre
from stormer_kit.stormer import _assemble, _split, _swap

from helpers import rel_fro

dims = st.integers(1, 4)
stacks = st.integers(0, 5)
seeds = st.integers(0, 2**32 - 1)
layout = settings(max_examples=60, deadline=None, database=None)


def _matrices(seed, count, n, d):
    """A stack of ``count`` nd x nd complex matrices."""
    rng = np.random.default_rng(seed)
    return ginibre(rng, count * n * d, n * d).reshape(count, n * d, n * d)


@layout
@given(n=dims, d=dims, count=stacks, seed=seeds)
def test_split_and_assemble_are_inverse(n, d, count, seed):
    m = _matrices(seed, count, n, d)
    b = _split(m, n).copy()
    assert b.shape == (count, n, n, d, d)
    assert np.array_equal(_split(_assemble(b), n), b)
    assert np.array_equal(_assemble(b), m)
    for t in range(count):
        assert np.array_equal(_split(_assemble(b[t]), n), b[t])


@layout
@given(n=dims, d=dims, count=stacks, seed=seeds)
def test_swap_is_an_involution(n, d, count, seed):
    m = _matrices(seed, count, n, d)
    assert np.array_equal(_swap(_swap(m, n), n), m)


@layout
@given(n=dims, d=dims, seed=seeds)
def test_swap_is_the_first_partial_transpose_and_the_block_swap(n, d, seed):
    m = _matrices(seed, 1, n, d)[0]
    s = _swap(m, n)
    assert np.array_equal(s, partial_transpose_matrix(m, n, d, 1))
    assert np.array_equal(s, swap_block(OperatorBlockMatrix(_split(m, n))).assembled())
    # the second factor's partial transpose is the first's of the transpose
    assert np.array_equal(partial_transpose_matrix(m, n, d, 2), s.T)


@layout
@given(n=dims, d=dims, count=stacks, seed=seeds)
def test_stacks_give_each_members_result(n, d, count, seed):
    m = _matrices(seed, count, n, d)
    b = _split(m, n)
    assembled, split, swapped = _assemble(b), _split(m, n), _swap(m, n)
    assert assembled.shape == swapped.shape == m.shape
    for t in range(count):
        assert np.array_equal(assembled[t], _assemble(b[t]))
        assert np.array_equal(split[t], _split(m[t], n))
        assert np.array_equal(swapped[t], _swap(m[t], n))


def _kraus_map(seed, k, l, cp, cocp):
    """phi(x) = sum K x K* + sum L x^T L* with ``cp`` and ``cocp`` random l x k
    operators."""
    rng = np.random.default_rng(seed)
    return make_decomposable(
        [ginibre(rng, l, k) for _ in range(cp)], [ginibre(rng, l, k) for _ in range(cocp)]
    )


@layout
@given(k=dims, l=dims, cp=st.integers(0, 3), cocp=st.integers(0, 3), seed=seeds)
def test_choi_matrix_round_trips_through_map_from_choi(k, l, cp, cocp, seed):
    assume(cp + cocp > 0)
    c = choi_matrix(_kraus_map(seed, k, l, cp, cocp))
    assert c.shape == (k * l, k * l)
    assert np.array_equal(choi_matrix(map_from_choi(c, k)), c)


@layout
@given(k=dims, l=dims, cp=st.integers(1, 4), seed=seeds)
def test_kraus_operators_from_the_choi_spectrum_rebuild_a_cp_map(k, l, cp, seed):
    # C = sum_t vec(K_t) vec(K_t)*, with vec(K)[(i, r)] = K[r, i]; the
    # eigenvectors scaled by the root eigenvalues are such vectors
    c = choi_matrix(_kraus_map(seed, k, l, cp, 0))
    w, v = np.linalg.eigh(c)
    kraus = [np.sqrt(max(w[t], 0.0)) * v[:, t].reshape(k, l).T for t in range(k * l)]
    rebuilt = choi_matrix(make_decomposable(kraus, []))
    assert rel_fro(rebuilt - c, c) <= 1e-10
