"""Property tests of the block layout kernels in ``stormer``.

An n x n array of d x d blocks assembles to a matrix on (block index) x
(space); on that layout the index swap is the partial transpose of the first
factor.  The kernels only move entries, so every identity holds exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stormer_kit import OperatorBlockMatrix, partial_transpose_matrix, swap_block
from stormer_kit.sampling import ginibre
from stormer_kit.stormer import _assemble, _split, _swap

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
