"""The LAPACK seam in ``linalg`` against numpy's public functions.

One 2-d complex128 matrix, and a stack of them in ``_qr`` and
``_eigvalsh``, takes the gufunc path, which calls numpy's ``_umath_linalg``
gufuncs without the ``numpy.linalg`` wrapper; everything else, and every
``_cond`` call, takes the public path.  Both must give bit-equal results
and raise the same errors, a wrapper installed over a ``numpy.linalg``
function must see every call, and no module but ``linalg`` may call a
factorization itself.  ``_positive_definite`` must give, matrix by matrix,
the verdict of ``np.linalg.cholesky`` and a factor free of NaN, and only
the one certificate ``_above`` may call it; ``_well_conditioned`` must
give the verdicts of ``_cond(a) <= cond_max``.

No seam function enters or reads a floating-point state.  In the package's
one state, ``np.errstate(**_SILENT)``, every stack warns exactly as numpy
does and ``_positive_definite``, like numpy's function, never; outside it,
the gufunc's own warnings come first, then numpy's answer.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_RCOND,
    DEFAULT_TOL,
    DomainError,
    Partition2,
    ScaleError,
    canonical_decomposition,
    dual_decomposition,
    gram_block,
    psd_via_contraction,
)
from stormer_kit import linalg
from stormer_kit.linalg import _SILENT
from stormer_kit.sampling import (
    ginibre,
    random_normal_operator,
    random_partition,
    random_rank_deficient,
    random_stormer_block,
    random_stormer_pair,
)
from stormer_kit.stormer import _swap

from helpers import hermitize, stack_sizes

# numpy.linalg name -> (the seam's call, numpy's public call)
SEAM = {
    "eigvalsh": (linalg._eigvalsh, lambda a: np.linalg.eigvalsh(a)),
    "eigh": (linalg._eigh, lambda a: np.linalg.eigh(a)),
    "svd": (linalg._svdvals, lambda a: np.linalg.svd(a, compute_uv=False)),
    "eig": (linalg._eig, lambda a: np.linalg.eig(a)),
    "qr": (lambda a: linalg._qr(a, diag=True), lambda a: _q_and_diagonal(np.linalg.qr(a))),
    "pinv": (
        lambda a: linalg._pinv(a, DEFAULT_RCOND),
        lambda a: np.linalg.pinv(a, rcond=DEFAULT_RCOND),
    ),
    "cond": (linalg._cond, lambda a: np.linalg.cond(a)),
}


def _q_and_diagonal(qr) -> tuple:
    """(Q, the diagonal of R) of ``np.linalg.qr``'s result."""
    return qr.Q, np.diagonal(qr.R, 0, -2, -1)


def _parts(result) -> tuple:
    return tuple(result) if isinstance(result, tuple) else (result,)


def assert_bit_equal(got, want, label=""):
    got, want = _parts(got), _parts(want)
    assert len(got) == len(want), label
    for g, w in zip(got, want):
        assert type(g) is type(w), label
        assert np.asarray(g).dtype == np.asarray(w).dtype, label
        assert np.array_equal(g, w), label


def _inputs():
    """(label, matrix) for every shape the library factorizes one at a time."""
    rng = np.random.default_rng(131)
    out = []
    for d in range(2, 13):  # operators, Gram blocks and partitions of the chain
        z = ginibre(rng, d)
        out += [
            (f"ginibre{d}", z),
            (f"hermitian{d}", hermitize(z @ z.conj().T)),
            (f"normal{d}", random_normal_operator(rng, d)),
            (f"rank{d // 2}_{d}", random_rank_deficient(rng, d, d, max(1, d // 2))),
            (f"transposed{d}", z.T),  # a view in Fortran order
        ]
    for n, d in [(2, 3), (3, 3), (4, 3), (2, 6)]:  # 6x6, 9x9, 12x12 blocks
        x = random_stormer_block(rng, n, d).assembled()
        out.append((f"block{n}x{d}", hermitize(x)))
    p = random_stormer_pair(rng, 4)
    out += [("a1", p.a1), ("gram", gram_block(p).assembled())]  # read-only arrays
    # a singular value exactly at pinv's cutoff, which it drops
    out.append(("at_cutoff", np.diag([1.0, 0.5, DEFAULT_RCOND]).astype(complex)))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("name", [n for n in SEAM if n != "cond"])  # _cond: public only
def test_gufunc_path_is_bit_equal_to_numpy(name):
    seam, public = SEAM[name]
    for label, a in INPUTS:
        assert linalg._gufunc_path(a, name), label
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning on finite input
            got = seam(a)
        assert_bit_equal(got, public(a), label)


# -- stacks: _qr and _eigvalsh take the gufunc path --------------------------

STACKED = ("qr", "eigvalsh")
# (count, d): the stack shapes the library factorizes.  The necessity
# engine's 20-trial images (6x6 and 12x12 for n = 2, 9x9 for n = 3), its
# samplers' candidates and Haar factors (d = 2..4), the witness search's
# 5-step window and the engine's 256-trial chunk.
STACK_SHAPES = [(20, 6), (20, 12), (5, 9), (256, 9)] + [(20, d) for d in (2, 3, 4)]


def _stack(rng):
    z = ginibre(rng, 4 * 5, 5).reshape(4, 5, 5)
    return z @ np.conj(np.swapaxes(z, -1, -2))


def _stacks():
    """(label, stack) for every stack shape: Ginibre, Hermitian and
    per-matrix transposed (a view) stacks, plus a stack of one matrix and
    one of four dimensions."""
    rng = np.random.default_rng(134)
    out = []
    for count, d in STACK_SHAPES:
        z = ginibre(rng, count * d, d).reshape(count, d, d)
        out += [
            (f"ginibre{count}x{d}", z),
            (f"hermitian{count}x{d}", hermitize(z @ np.conj(np.swapaxes(z, -1, -2)))),
            (f"transposed{count}x{d}", np.swapaxes(z, -1, -2)),
        ]
    h = hermitize(ginibre(rng, 4))
    return out + [("one4", h[None]), ("four-d", _stack(rng).reshape(2, 2, 5, 5))]


STACKS = _stacks()


def _eigvalsh_stacks():
    """(label, stack) for k Hermitian m x m matrices, k 1..5 and m 1..12:
    Gram matrices as the samplers build them, their index swaps by
    ``_swap`` for every block count n with 1 < n < m dividing m (what
    ``_boundary_grams`` factorizes), and read-only copies."""
    rng = np.random.default_rng(136)
    out = []
    for k in range(1, 6):
        for m in range(1, 13):
            z = ginibre(rng, k * m, m).reshape(k, m, m)
            h = z @ np.conj(np.swapaxes(z, -1, -2))
            held = h.copy()
            held.flags.writeable = False
            out += [(f"gram{k}x{m}", h), (f"read-only{k}x{m}", held)]
            out += [(f"swap{k}x{m}/{n}", _swap(h, n)) for n in range(2, m) if m % n == 0]
    return out


EIGVALSH_STACKS = _eigvalsh_stacks()
# name -> the stacks its seam call is tested on
STACKS_OF = {name: STACKS + (EIGVALSH_STACKS if name == "eigvalsh" else []) for name in STACKED}


@pytest.mark.parametrize("name", STACKED)
def test_stacks_on_the_gufunc_path_are_bit_equal_to_numpy(name):
    seam, public = SEAM[name]
    for label, a in STACKS_OF[name]:
        assert linalg._gufunc_path(a, name, stack=True), label
        assert not linalg._gufunc_path(a, name), label
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no floating-point warning on finite input
            got = seam(a)
        assert_bit_equal(got, public(a), label)


def test_qr_without_r_is_the_q_factor():
    for label, a in INPUTS + STACKS:
        assert np.array_equal(linalg._qr(a), np.linalg.qr(a).Q), label


@pytest.mark.parametrize("name", SEAM)
def test_other_inputs_take_the_public_path(name):
    seam, public = SEAM[name]
    rng = np.random.default_rng(132)
    h = hermitize(ginibre(rng, 4))
    others = [h.real.copy(), h.astype(">c16"), h.astype(np.complex64)]
    if name not in STACKED:  # their stacks are in the bit-equality test above
        others += [_stack(rng), h[None]]
    for a in others:
        assert not linalg._gufunc_path(a, name)
        assert_bit_equal(seam(a), public(a))


def _outcome(fn, a):
    """('raises', exception type) or ('returns', result parts) of fn(a).  The
    floating-point warnings the gufuncs issue on such input, which numpy's
    functions silence, are not under test."""
    with np.errstate(all="ignore"):
        try:
            return "returns", _parts(fn(a))
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return "raises", type(exc)


def _nonfinite():
    nan = np.eye(3, dtype=complex)
    nan[1, 1] = np.nan
    inf = np.eye(3, dtype=complex)
    inf[2, 0] = np.inf
    # finite entries whose Hermitian part and spectrum overflow
    return {"nan": nan, "inf": inf, "huge": np.full((3, 3), 1e308 + 0j)}


NONFINITE = _nonfinite()
# numpy's own pinv does not return on an infinite entry (its SVD with vectors
# loops in LAPACK); the library only factorizes finite matrices.
NONFINITE_CASES = [(n, k) for n in SEAM for k in NONFINITE if (n, k) != ("pinv", "inf")]


@pytest.mark.parametrize("name, kind", NONFINITE_CASES)
def test_nonfinite_and_overflowing_input_get_numpys_answer(name, kind, capfd):
    seam, public = SEAM[name]
    a = NONFINITE[kind]
    got, want = _outcome(seam, a), _outcome(public, a)
    assert got[0] == want[0]
    if got[0] == "raises":
        assert got[1] is want[1]
    else:
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert np.array_equal(g, w, equal_nan=True)
    assert "On entry to" not in "".join(capfd.readouterr())  # no LAPACK argument error


def _observed(fn, a):
    """(outcome, warnings) of fn(a): ('raises', exception type and message)
    or ('returns', result parts), and the (category, message) of every
    warning issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = "returns", _parts(fn(a))
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            outcome = "raises", (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


def _assert_same_outcome(got, want):
    """The outcomes of :func:`_observed` are equal: the same exception type
    and message, or results of the same dtypes and values."""
    assert got[0] == want[0]
    if got[0] == "raises":
        assert got[1] == want[1]
    else:
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert np.asarray(g).dtype == np.asarray(w).dtype
            assert np.array_equal(g, w, equal_nan=True)


def _one_failing(kind):
    """A stack of five 3 x 3 matrices whose third is NONFINITE[kind], or 0."""
    a = ginibre(np.random.default_rng(135), 5 * 3, 3).reshape(5, 3, 3)
    a[2] = NONFINITE[kind] if kind in NONFINITE else 0.0
    return a


def _assert_numpys_answer_by_the_one_rule(name, kind, capfd):
    """A stack with one failing matrix gets numpy's exact answer: in
    ``_SILENT`` with numpy's warnings; outside it after the gufunc's own
    RuntimeWarnings, which come first.  Returns the warnings the seam
    issued outside ``_SILENT``."""
    seam, public = SEAM[name]
    a = _one_failing(kind)
    assert linalg._gufunc_path(a, name, stack=True)
    with np.errstate(**_SILENT):
        (got, got_warnings), (want, want_warnings) = _observed(seam, a), _observed(public, a)
    assert got_warnings == want_warnings
    _assert_same_outcome(got, want)
    (got, got_warnings), (want, want_warnings) = _observed(seam, a), _observed(public, a)
    _assert_same_outcome(got, want)
    gufunc = got_warnings[: len(got_warnings) - len(want_warnings)]
    assert got_warnings == gufunc + want_warnings
    assert all(category is RuntimeWarning for category, _ in gufunc)
    assert "On entry to" not in "".join(capfd.readouterr())  # no LAPACK argument error
    return gufunc


@pytest.mark.parametrize("kind", [*NONFINITE, "zero"])
@pytest.mark.parametrize("name", ["cond", "qr"])
def test_a_stack_with_one_failing_matrix_gets_numpys_exact_answer(name, kind, capfd):
    # one bad matrix among good ones; _cond is numpy's function, so it issues
    # numpy's warnings and no others, on a zero matrix's 0 / 0 too
    gufunc = _assert_numpys_answer_by_the_one_rule(name, kind, capfd)
    if name == "cond":
        assert gufunc == []


# -- stacks in _eigvalsh: the bare gufunc, in its caller's floating-point state


def test_eigvalsh_stacks_call_the_gufunc_without_numpys_function(monkeypatch):
    # numpy's function replaced in both places, so _gufunc_path still holds:
    # a stack that called it would raise
    def public(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called")

    want = [np.linalg.eigvalsh(a) for _, a in EIGVALSH_STACKS]
    monkeypatch.setattr(np.linalg, "eigvalsh", public)
    monkeypatch.setattr(linalg._numpy_linalg, "eigvalsh", public)
    for (label, a), w in zip(EIGVALSH_STACKS, want):
        assert_bit_equal(linalg._eigvalsh(a), w, label)


@pytest.mark.parametrize("kind", [*NONFINITE, "zero"])
def test_an_eigvalsh_stack_with_one_failing_matrix_gets_numpys_exact_answer(kind, capfd):
    # the necessity engine's and the witness search's stacks, by the same rule
    _assert_numpys_answer_by_the_one_rule("eigvalsh", kind, capfd)


# -- _positive_definite: one Cholesky verdict per matrix ---------------------


def _cholesky_gufunc(a):
    """The seam's one ``cholesky_lo`` call on ``a``, whose warnings are the
    ones :func:`linalg._positive_definite` issues outside ``_SILENT``."""
    return linalg._umath_linalg.cholesky_lo(a, signature="D->D")


def _cholesky_succeeds(a) -> bool:
    """Whether ``np.linalg.cholesky`` factors ``a`` into a factor that holds
    no NaN, read entry by entry: a NaN or an overflow does not stop the
    factorization."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return not np.isnan(factor).any()


# A finite, indefinite matrix (lowest eigenvalue -1e200) whose factor
# overflows: 1e200 / 1e-150 is inf, and the last pivot NaN, which LAPACK's
# test of a pivot, <= 0, lets through.
OVERFLOWING = np.array([[1e-300, 0, 1e200], [0, 1, 0], [1e200, 0, 1]], dtype=complex)


def _cholesky_stacks():
    """(label, stack) for m = 1..12: a stack of m x m matrices of every kind
    a verdict must cover, positive definite, singular PSD (a Gram matrix of
    lower rank, and one with an exact zero eigenvalue) and indefinite, and
    for m = 1 and 3 also NaN, infinite and 1e308 entries.  Plus a stack of
    four dimensions and a read-only one."""
    rng = np.random.default_rng(137)
    out = []
    for m in range(1, 13):
        z = ginibre(rng, m)
        low = random_rank_deficient(rng, m, m, max(1, m // 2))
        mats = [
            z @ np.conj(z.T) + np.eye(m),
            low @ np.conj(low.T),
            np.diag(np.arange(m, dtype=float)).astype(complex),
            hermitize(z),
        ]
        if m in (1, 3):
            for bad in (np.nan, np.inf, 1e308, complex(0.0, np.nan)):
                diag = np.eye(m, dtype=complex)
                diag[m // 2, m // 2] = bad
                mats.append(diag)
            mats += [NONFINITE[kind] for kind in NONFINITE if m == 3]
        if m == 3:
            mats.append(OVERFLOWING)
        out.append((f"kinds{m}", np.array(mats)))
    a = out[2][1][:4].reshape(2, 2, 3, 3)
    held = out[5][1].copy()
    held.flags.writeable = False
    return out + [("four-d", a), ("read-only", held)]


CHOLESKY_STACKS = _cholesky_stacks()


def _single_matrices():
    """(label, matrix) for every matrix of the stacks, alone."""
    return [
        (f"{label}{list(i)}", stack[i])
        for label, stack in CHOLESKY_STACKS
        for i in np.ndindex(stack.shape[:-2])
    ]


CHOLESKY_INPUTS = CHOLESKY_STACKS + _single_matrices()


def _verdicts(a):
    """Numpy's verdict on each matrix of ``a``, shaped like its stack."""
    want = np.empty(a.shape[:-2], dtype=bool)
    for i in np.ndindex(want.shape):
        want[i] = _cholesky_succeeds(a[i])
    return want


def _assert_verdicts(got, a, label):
    want = _verdicts(a)
    if a.ndim == 2:
        assert type(got) is np.bool_, label
    else:
        assert type(got) is np.ndarray and got.dtype == bool, label
    assert np.array_equal(got, want), label


def test_the_stacks_cover_every_kind_of_verdict():
    verdicts = np.concatenate([_verdicts(a).ravel() for _, a in CHOLESKY_STACKS])
    assert verdicts.any() and not verdicts.all()


def test_positive_definite_is_numpys_cholesky_verdict_in_a_silent_state(monkeypatch):
    # numpy's function replaced in both places, so _gufunc_path still holds:
    # a call that reached it would raise
    want = {label: _verdicts(a) for label, a in CHOLESKY_INPUTS}

    def public(*args, **kwargs):
        raise AssertionError("numpy.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", public)
    monkeypatch.setattr(linalg._numpy_linalg, "cholesky", public)
    for label, a in CHOLESKY_INPUTS:
        assert linalg._gufunc_path(a, "cholesky", a.ndim > 2), label
        with np.errstate(**_SILENT):
            got = linalg._positive_definite(a)
        assert np.array_equal(got, want[label]), label


@pytest.mark.parametrize("state", ["quiet", "default"])
def test_positive_definite_gives_numpys_verdict_and_warnings(state, capfd):
    # numpy's function issues no warning for a matrix it cannot factor, and
    # neither does the kernel in _SILENT, the witness search's state; outside
    # it the gufunc's warnings come first, then the same verdicts
    warned = 0
    for label, a in CHOLESKY_INPUTS:
        with np.errstate(**(_SILENT if state == "quiet" else {})):
            outcome, got_warnings = _observed(linalg._positive_definite, a)
            gufunc_warnings = _observed(_cholesky_gufunc, a)[1]
            numpy_warnings = [
                w for i in np.ndindex(a.shape[:-2]) for w in _observed(_cholesky_succeeds, a[i])[1]
            ]
        assert numpy_warnings == [], label
        assert got_warnings == gufunc_warnings, label
        assert all(category is RuntimeWarning for category, _ in got_warnings), label
        warned += bool(got_warnings)
        assert outcome[0] == "returns", label
        _assert_verdicts(outcome[1][0], a, label)
    assert (warned > 0) == (state == "default")
    assert "On entry to" not in "".join(capfd.readouterr())  # no LAPACK argument error


def test_positive_definite_where_warnings_are_errors():
    # in _SILENT every verdict is numpy's; outside it the gufunc's first
    # warning, where it has one, is raised in the verdicts' place
    for label, a in CHOLESKY_INPUTS:
        gufunc_warnings = _observed(_cholesky_gufunc, a)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**_SILENT):
                _assert_verdicts(linalg._positive_definite(a), a, label)
            if not gufunc_warnings:
                _assert_verdicts(linalg._positive_definite(a), a, label)
                continue
            with pytest.raises(RuntimeWarning) as raised:
                linalg._positive_definite(a)
            assert str(raised.value) == gufunc_warnings[0][1], label


@pytest.mark.parametrize("state", ["quiet", "default"])
def test_a_wrapper_over_numpys_cholesky_sees_every_matrix(state, monkeypatch):
    original = np.linalg.cholesky
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    want = {label: _verdicts(a) for label, a in CHOLESKY_INPUTS}
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for label, a in CHOLESKY_INPUTS:
        assert not linalg._gufunc_path(a, "cholesky", a.ndim > 2)
        calls.clear()
        with np.errstate(**(_SILENT if state == "quiet" else {})):
            got = linalg._positive_definite(a)
        assert np.array_equal(got, want[label]), label
        assert len(calls) == int(np.prod(a.shape[:-2])), label


def test_positive_definite_on_other_inputs_takes_the_public_path(monkeypatch):
    stack = CHOLESKY_STACKS[3][1]
    others = [stack.real.copy(), stack.astype(">c16"), stack.astype(np.complex64)]
    for a in others + [b[0] for b in others]:
        assert not linalg._gufunc_path(a, "cholesky", a.ndim > 2)
        with np.errstate(**_SILENT):
            _assert_verdicts(linalg._positive_definite(a), a, a.dtype)
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    for label, a in CHOLESKY_INPUTS:
        with np.errstate(**_SILENT):
            _assert_verdicts(linalg._positive_definite(a), a, label)


def _overflow_seeded(m):
    """m x m identities with 1e-300 at (r, r) and 1e200 at (s, r) and
    (r, s), for every row r and every row s below it: indefinite, and the
    factor's entry (s, r) overflows."""
    out = []
    for r in range(m - 1):
        for s in range(r + 1, m):
            a = np.eye(m, dtype=complex)
            a[r, r] = 1e-300
            a[s, r] = a[r, s] = 1e200
            out.append(a)
    return out


def _public_cholesky(monkeypatch):
    """numpy's function behind a wrapper, so the kernel takes its per-matrix
    path."""
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: original(a))


@pytest.mark.parametrize("public", [False, True])
def test_an_overflowing_factor_is_not_positive_definite(public, monkeypatch):
    if public:
        _public_cholesky(monkeypatch)
    with np.errstate(**_SILENT):
        factor = np.linalg.cholesky(OVERFLOWING)  # completes, with inf and NaN
        assert np.isinf(factor).any() and np.isnan(factor).any()
        assert linalg._positive_definite(OVERFLOWING) == np.False_
        stack = np.array([np.eye(3), OVERFLOWING, 2.0 * np.eye(3)], dtype=complex)
        assert linalg._positive_definite(stack).tolist() == [True, False, True]
    assert np.linalg.eigvalsh(OVERFLOWING)[0] == -1e200


@pytest.mark.parametrize("public", [False, True])
@pytest.mark.parametrize("m", range(2, 13))
def test_overflow_seeded_at_any_row_is_not_positive_definite(m, public, monkeypatch):
    if public:
        _public_cholesky(monkeypatch)
    seeded = _overflow_seeded(m)
    definite = np.eye(m, dtype=complex)
    with np.errstate(**_SILENT):
        for a in seeded:
            assert np.linalg.eigvalsh(a)[0] < 0
            assert np.isnan(np.linalg.cholesky(a)).any()  # completed, with NaN
            assert linalg._positive_definite(a) == np.False_
        # each one between definite matrices
        stack = np.array([x for a in seeded for x in (definite, a)] + [definite])
        got = linalg._positive_definite(stack)
    assert got.tolist() == [True, False] * len(seeded) + [True]


# -- the pair sampler's condition test: a Cholesky certificate before the SVD --

_COND_MAXES = [0.0, 0.5, 1.0, 10.0, 1e3, 1e8, np.inf, np.nan]


def _bisected(rng, m, cond_max):
    """Two matrices U diag(1, ..., 1, low) V, for Haar U and V and adjacent
    doubles low, the first rejected and the second accepted by
    ``_cond <= cond_max``."""
    u, v = (linalg._qr(ginibre(rng, m)) for _ in range(2))

    def make(low):
        s = np.ones(m)
        s[-1] = low
        return (u * s) @ v

    def accepted(low):
        return bool(linalg._cond(make(low)[None])[0] <= cond_max)

    lo, hi = 0.25 / cond_max, 4.0 / cond_max
    assert not accepted(lo) and accepted(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return make(lo), make(hi)


def _condition_stacks(m, cond_max):
    """(label, stack) of m x m candidates: Ginibre draws, a unitary, a scaled
    identity, a rank-deficient matrix, eight pairs bisected onto
    ``cond_max`` where it is a finite number above 1 (at 1e8 they fail a
    certificate without its margin), and whole stacks at the edges of the
    certificate's range: a zero matrix, tiny and huge scales."""
    rng = np.random.default_rng(1000 + m)
    parts = [ginibre(rng, 5 * m, m).reshape(5, m, m), linalg._qr(ginibre(rng, m))[None]]
    parts.append(2.5 * np.eye(m, dtype=complex)[None])
    if m > 1:
        parts.append(random_rank_deficient(rng, m, m, m - 1)[None])
        if 1.0 < cond_max < np.inf:
            parts += [np.stack(_bisected(rng, m, cond_max)) for _ in range(8)]
    mixed = np.concatenate(parts)
    return [
        ("mixed", mixed),
        ("ginibre", mixed[:5]),
        ("zero", np.concatenate([mixed, np.zeros((1, m, m), dtype=complex)])),
        ("scaled_down", 1e-100 * mixed),
        ("scaled_up", 1e100 * mixed),
        ("tiny", 1e-170 * mixed),
        ("huge", 1e160 * mixed),
    ]


@pytest.mark.parametrize("cond_max", _COND_MAXES)
@pytest.mark.parametrize("m", range(1, 7))
def test_condition_certificate_gives_conds_verdicts(m, cond_max):
    for label, a in _condition_stacks(m, cond_max):
        with np.errstate(**_SILENT):
            got = linalg._well_conditioned(a, cond_max)
            want = linalg._cond(a) <= cond_max
        assert np.array_equal(got, want), label


@pytest.mark.parametrize("m", range(2, 7))
def test_condition_certificate_hands_only_uncleared_candidates_to_cond(m, monkeypatch):
    # the Ginibre draws, the unitary and the scaled identity are cleared;
    # the rank-deficient matrix and the bisected pairs, each on cond_max or
    # just above it, cannot be; a stack with a zero matrix goes whole
    stacks = dict(_condition_stacks(m, 1e3))
    sizes = stack_sizes(monkeypatch, "cond")
    with np.errstate(**_SILENT):
        assert linalg._well_conditioned(stacks["ginibre"], 1e3).all()
        assert sizes == []
        assert list(linalg._well_conditioned(stacks["mixed"][-2:], 1e3)) == [False, True]
        linalg._well_conditioned(stacks["mixed"], 1e3)
        linalg._well_conditioned(stacks["zero"], 1e3)
    assert sizes == [2, 1 + 2 * 8, len(stacks["zero"])]


def test_svd_failure_raises_numpys_linalg_error():
    # the gufunc marks the failure with NaN; numpy's function then raises
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
        linalg._svdvals(NONFINITE["nan"])


# -- the documented outcome where LAPACK fails: op_norm, pinv, is_psd ----------

# The kernels behind op_norm and pinv, on a NaN entry: LAPACK fails on it, and
# the public functions, which reject non-finite entries, never pass it one.
KERNELS = {
    "op_norm": linalg._op_norm,
    "pinv": lambda a: linalg._pinv(a, DEFAULT_RCOND),
}


@pytest.mark.parametrize("name", KERNELS)
def test_a_lapack_failure_warns_then_raises_linalg_error(name):
    a = NONFINITE["nan"]
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(np.linalg.LinAlgError):
            KERNELS[name](a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="invalid value"):
            KERNELS[name](a)


@pytest.mark.parametrize("name", KERNELS)
def test_a_lapack_failure_on_the_public_path_only_raises(name, monkeypatch):
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            KERNELS[name](NONFINITE["nan"])


@pytest.mark.parametrize("gufuncs", [True, False], ids=["gufunc", "public"])
def test_op_norm_and_pinv_near_the_double_limit_do_not_warn(gufuncs, monkeypatch):
    if not gufuncs:
        monkeypatch.setattr(linalg, "_umath_linalg", None)
    a = NONFINITE["huge"]  # finite: the SVD scales it and converges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.op_norm(a) == np.inf
        assert np.isfinite(linalg.pinv(a)).all()


@pytest.mark.parametrize("gufuncs", [True, False], ids=["gufunc", "public"])
def test_is_psd_on_an_overflowing_spectrum_warns_then_raises(gufuncs, monkeypatch):
    if not gufuncs:
        monkeypatch.setattr(linalg, "_umath_linalg", None)
    a = NONFINITE["huge"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match="spectrum overflows"):
            linalg.is_psd(a)
    assert {w.category for w in caught} == {RuntimeWarning}
    assert "overflow encountered in add" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the first warning is the error's cause
        with pytest.raises(ScaleError, match="spectrum overflows") as raised:
            linalg.is_psd(a)
    assert isinstance(raised.value.__cause__, RuntimeWarning)
    assert "overflow encountered in add" in str(raised.value.__cause__)


@pytest.mark.parametrize("gufuncs", [True, False], ids=["gufunc", "public"])
def test_psd_check_still_names_an_overflowing_spectrum(gufuncs, monkeypatch):
    if not gufuncs:
        monkeypatch.setattr(linalg, "_umath_linalg", None)
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="spectrum overflows"):
            linalg._psd_check(NONFINITE["huge"], DEFAULT_TOL)


def _chain(rng):
    """Results of the decompose chain and a contraction certificate."""
    out = []
    for d in range(2, 7):
        p = random_stormer_pair(rng, d)
        for dec in (canonical_decomposition(p), dual_decomposition(p)):
            out += [dec.lambdas, dec.alphas, dec.phis, dec.degenerate]
    for kind in ("psd", "inflated", "indefinite", "singular"):
        cert = psd_via_contraction(Partition2(*random_partition(rng, 3, 2, kind)))
        out += [cert.psd, cert.residual]
    return out


def test_results_are_unchanged_without_the_gufuncs(monkeypatch):
    want_chain = _chain(np.random.default_rng(133))
    inputs = {name: INPUTS + STACKS_OF.get(name, []) for name in SEAM}
    want = {name: [SEAM[name][0](a) for _, a in inputs[name]] for name in SEAM}
    monkeypatch.setattr(linalg, "_umath_linalg", None)
    assert not linalg._gufunc_path(INPUTS[0][1], "eigvalsh")
    assert not linalg._gufunc_path(STACKS[0][1], "qr", stack=True)
    for name in SEAM:
        for (label, a), w in zip(inputs[name], want[name]):
            assert_bit_equal(SEAM[name][0](a), w, label)
    got_chain = _chain(np.random.default_rng(133))
    assert len(got_chain) == len(want_chain)
    for g, w in zip(got_chain, want_chain):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", SEAM)
def test_a_wrapper_over_numpy_sees_every_call(name, monkeypatch):
    seam, _ = SEAM[name]
    labels = ["hermitian6"] + (["hermitian20x6"] if name in STACKED else [])
    inputs = [dict(INPUTS + STACKS)[label] for label in labels]
    want = [seam(a) for a in inputs]
    original = getattr(np.linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    for a, w in zip(inputs, want):
        assert not linalg._gufunc_path(a, name)
        assert not linalg._gufunc_path(a, name, stack=True)
        for _ in range(3):
            assert_bit_equal(seam(a), w)
    assert calls == [name] * 3 * len(inputs)


# -- one seam: no module but linalg calls a numpy.linalg factorization ------

SRC = Path(linalg.__file__).resolve().parent
# numpy.linalg names other modules may use: the exception, and norm without an
# order (Frobenius, or vector norms along an axis), which is no factorization.
ALLOWED = {"LinAlgError", "norm"}


def _is_numpy_linalg(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def lapack_entries(source: str) -> list[str]:
    """``numpy.linalg`` uses in source code other than ALLOWED, and norms
    given an order (``ord`` 2 is an SVD)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module.startswith("numpy.linalg") or (
                node.module == "numpy" and "linalg" in names
            ):
                found.append(f"{node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if "linalg" in a.name]
        elif isinstance(node, ast.Attribute) and _is_numpy_linalg(node.value):
            if node.attr not in ALLOWED:
                found.append(f"{node.lineno}: np.linalg.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if _is_numpy_linalg(node.func.value) and node.func.attr == "norm":
                if len(node.args) > 1 or any(k.arg == "ord" for k in node.keywords):
                    found.append(f"{node.lineno}: np.linalg.norm with an order")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_lapack_entries_finds_factorizations():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "w = np.linalg.eigvalsh(a)\n"
        "n = np.linalg.norm(t, 2)\n"
        "f = np.linalg.norm(t) + np.linalg.norm(g, axis=0)\n"
        "try:\n    pass\nexcept np.linalg.LinAlgError:\n    pass\n"
    )
    assert lapack_entries(source) == [
        "2: from numpy.linalg import ...",
        "3: np.linalg.eigvalsh",
        "4: np.linalg.norm with an order",
    ]


def new_uses(source: str) -> list[str]:
    """Uses of ``__new__`` in source code: an object built without its
    class's constructor."""
    found = [
        (node.lineno, f"{node.lineno}: {ast.unparse(node)}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    return [use for _, use in sorted(found)]


def test_new_uses_finds_constructor_bypasses():
    source = "s = object.__new__(cls)\nnew = super().__new__\nt = cls(1)\n"
    assert new_uses(source) == ["1: object.__new__", "2: super().__new__"]


def test_no_module_builds_an_object_past_its_constructor():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: new_uses(path.read_text()) for path in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_only_linalg_calls_numpy_factorizations():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: lapack_entries(path.read_text())
        for path in modules
        if path.name != "linalg.py"
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


# -- one certificate: only linalg._above calls _positive_definite -------------


def certificate_uses(source: str, kernel: str | None) -> list[str]:
    """Uses of ``_positive_definite`` in source code outside the body of
    the function named ``kernel`` (None: anywhere), and imports of it."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == kernel
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "_positive_definite" for alias in node.names):
                found.append(f"{node.lineno}: imports _positive_definite")
        elif id(node) not in inside and (
            isinstance(node, ast.Name) and node.id == "_positive_definite"
            or isinstance(node, ast.Attribute) and node.attr == "_positive_definite"
        ):
            found.append(f"{node.lineno}: _positive_definite")
    return sorted(found, key=lambda use: int(use.split(":")[0]))


def test_certificate_uses_finds_every_kind():
    source = (
        "from .linalg import _SILENT, _positive_definite\n"
        "def _screen(h):\n"
        "    return lambda current: _positive_definite(h - current)\n"
        "def _above(h, current):\n"
        "    return _positive_definite(h - current)\n"
        "clear = linalg._positive_definite(g)\n"
        "check = _positive_definite\n"
    )
    assert certificate_uses(source, "_above") == [
        "1: imports _positive_definite",
        "3: _positive_definite",
        "6: _positive_definite",
        "7: _positive_definite",
    ]
    assert "5: _positive_definite" in certificate_uses(source, None)


def test_only_the_certificate_calls_positive_definite():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {
        path.name: certificate_uses(path.read_text(), "_above" if path.name == "linalg.py" else None)
        for path in modules
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the certificate itself does call it
    assert certificate_uses((SRC / "linalg.py").read_text(), None) != []


# -- one floating-point rule: only public entries hold np.errstate(**_SILENT) --

SEAM_FUNCTIONS = {
    "_eigvalsh", "_eigh", "_svdvals", "_eig", "_qr", "_pinv", "_cond", "_positive_definite",
    "_above",
}


def _numpy_attribute(node, names) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _silent_state(node) -> bool:
    """True for the call ``np.errstate(**_SILENT)``."""
    return (
        not node.args
        and len(node.keywords) == 1
        and node.keywords[0].arg is None
        and isinstance(node.keywords[0].value, ast.Name)
        and node.keywords[0].value.id == "_SILENT"
    )


def state_breaches(source: str) -> list[str]:
    """Breaches of the floating-point rule in source code: a seam function
    that enters ``np.errstate`` or reads ``np.geterr``, an ``np.errstate``
    other than ``np.errstate(**_SILENT)``, and any use of ``np.geterr`` or
    ``np.seterr``, or an import of the three from numpy."""
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in SEAM_FUNCTIONS:
            found += [
                f"{node.lineno}: {fn.name} uses np.{node.attr}"
                for node in ast.walk(fn)
                if _numpy_attribute(node, ("errstate", "geterr"))
            ]
    silent = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _numpy_attribute(node.func, ("errstate",))
        and _silent_state(node)
    }
    for node in ast.walk(tree):
        if _numpy_attribute(node, ("geterr", "seterr")):
            found.append(f"{node.lineno}: np.{node.attr}")
        elif _numpy_attribute(node, ("errstate",)) and id(node) not in silent:
            found.append(f"{node.lineno}: np.errstate without **_SILENT")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            names = {alias.name for alias in node.names} & {"errstate", "geterr", "seterr"}
            found += [f"{node.lineno}: from numpy import {name}" for name in sorted(names)]
    return sorted(found, key=lambda breach: int(breach.split(":")[0]))


def test_state_breaches_finds_every_kind():
    source = (
        "import numpy as np\n"
        "from numpy import geterr\n"
        "def _cond(a):\n"
        "    with np.errstate(**_SILENT):\n"
        "        return a\n"
        "def _qr(a):\n"
        "    return np.geterr() == _SILENT\n"
        "def entry(a):\n"
        "    with np.errstate(all='ignore'), np.errstate(**_SILENT):\n"
        "        return np.errstate\n"
    )
    assert state_breaches(source) == [
        "2: from numpy import geterr",
        "4: _cond uses np.errstate",
        "7: _qr uses np.geterr",
        "7: np.geterr",
        "9: np.errstate without **_SILENT",
        "10: np.errstate without **_SILENT",
    ]


def test_only_public_entries_hold_the_one_floating_point_state():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: state_breaches(path.read_text()) for path in modules}
    assert {name: breaches for name, breaches in found.items() if breaches} == {}
