"""The windowed witness search against the one-step climb.

``witness_search`` evaluates several hill-climbing steps as one stack; it
must return what the one-step climb in ``helpers.oracle_witness_search``
returns, for every map kind, block count and budget.  A window judges its
candidates by a shifted Cholesky first; on near ties and at extreme scales
every decision must be the one ``eigvalsh`` alone makes.  Its kicks,
read off the raw bit stream, must be the draws of the Generator calls.
Its LAPACK calls are counted (a gate independent of machine speed), and
decomposable maps must never yield a witness.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stormer_kit import (
    DEFAULT_TOL,
    ScaleError,
    Tolerance,
    WitnessResult,
    choi_fixture,
    choi_matrix,
    identity_map,
    make_decomposable,
    map_from_choi,
    transpose_map,
    witness_search,
)
from stormer_kit import linalg
from stormer_kit.io import block_from_payload
from stormer_kit.linalg import _SILENT
from stormer_kit.linalg import _margin
from stormer_kit.maps import _first_better, _kicks
from stormer_kit.sampling import ginibre

from helpers import common_spectrum, lapack_calls, load_script, oracle_witness_search, ulps

FIXTURE = Path(__file__).parent / "fixtures" / "choi3_witness.json"


def _maps():
    """label -> (map, d, seed).  Seeds are chosen so that some searches find
    a witness at a restart edge (choi3 at n = 3: the end of restart 0) and
    the non-positive map finds one from the first evaluation on."""
    rng = np.random.default_rng(2026)
    kraus = make_decomposable([ginibre(rng, 3, 2)], [ginibre(rng, 3, 2), ginibre(rng, 3, 2)])
    h = ginibre(rng, 6)
    return {
        "identity": (identity_map(), 2, 1),
        "transpose": (transpose_map(), 3, 2),
        "choi3": (choi_fixture(), None, 5),
        "sum": (kraus, None, 3),
        "choi_raw": (map_from_choi(choi_matrix(kraus), 2), None, 4),
        # a Hermitian, indefinite Choi matrix: a map that is not positive
        "not_positive": (map_from_choi(h + h.conj().T, 2), None, 6),
    }


MAPS = _maps()
# budgets that end inside a window, and at the edges of the first two restarts
BUDGETS = [1, 2, 3, 6, 600, 601, 602, 1300]


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return (
        (got.evaluations, got.restart, got.min_eig)
        == (want.evaluations, want.restart, want.min_eig)
        and np.array_equal(got.block.blocks, want.block.blocks)
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label", list(MAPS))
def test_window_matches_the_one_step_climb(label, n):
    phi, d, seed = MAPS[label]
    for budget in BUDGETS:
        got = witness_search(phi, seed=seed, budget=budget, n=n, d=d)
        want = oracle_witness_search(phi, seed=seed, budget=budget, n=n, d=d)
        assert _same(got, want), (label, n, budget)


# -- the kicks: Generator.integers read off the raw bit stream ---------------

# Sizes nd of the kick draw: small ones, powers of two, and three next to
# 2**31 that reject about half their words, up to 2**32, its largest.
KICK_SIZES = [1, 2, 3, 5, 8, 9, 12, 16, 27, 36, 100, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]
NEP_19 = (
    "maps._kicks no longer gives what Generator.integers and standard_normal "
    "draw: NEP 19 keeps numpy's raw bit stream stable across versions, not "
    "integers' rule, which _kicks reads off that stream"
)


def _generator_kicks(rng, nd, steps):
    """The kicks as Generator calls, one at a time."""
    return [
        (rng.integers(nd), rng.integers(nd), rng.standard_normal() + 1j * rng.standard_normal())
        for _ in range(steps)
    ]


@pytest.mark.parametrize("steps", [0, 1, 600])
@pytest.mark.parametrize("nd", KICK_SIZES)
def test_kicks_are_the_generator_calls(nd, steps):
    # each generator first draws its restart's G, as the search does, and
    # ends where the Generator calls leave it in the 64-bit stream
    for seed in range(5):
        got_rng, want_rng = (np.random.default_rng([seed, 11]) for _ in range(2))
        for rng in (got_rng, want_rng):
            ginibre(rng, 3)
        got, want = _kicks(got_rng, nd, steps), _generator_kicks(want_rng, nd, steps)
        assert len(got) == steps
        assert all(type(i) is int and type(j) is int for i, j, _ in got)
        for part in range(3):  # i, j and z
            assert np.array_equal([k[part] for k in got], [k[part] for k in want]), NEP_19
        assert got_rng.bit_generator.random_raw() == want_rng.bit_generator.random_raw(), NEP_19


@pytest.mark.parametrize("nd", [3, 2**31 + 1, 2**32 - 1])
def test_a_kick_word_on_the_threshold_is_taken_and_one_below_it_drawn_again(nd):
    # a word lands on Lemire's threshold with probability 2**-32, which no
    # stream above reaches: script the raw outputs, low word first, of a
    # stand-in generator whose normals are zeros
    t = (2**32 - nd) % nd
    on, below = (k * pow(nd, -1, 2**32) % 2**32 for k in (t, t - 1))
    words = [below, on, on, below, below, on, on, below]
    raws = iter([low | high << 32 for low, high in zip(words[::2], words[1::2])])
    rng = SimpleNamespace(
        bit_generator=SimpleNamespace(random_raw=raws.__next__), standard_normal=np.zeros
    )
    index = on * nd >> 32
    assert _kicks(rng, nd, 2) == [(index, index, 0j)] * 2
    assert next(raws, None) is None


def _kick_edges():
    """(map, n, d, seed, found) whose kicks draw their entries from
    nd = n d = 1, where ``integers(1)`` draws no word, and nd = 8, a power
    of two, where it rejects none; ``found`` says whether the largest
    budget ends on a witness, as it does for a map from M_1 with an
    indefinite Choi matrix."""
    h = ginibre(np.random.default_rng(7), 2)
    scalar = map_from_choi(h + h.conj().T, 1)
    return [
        (identity_map(), 1, 1, 1, False),
        (scalar, 1, None, 3, True),
        (transpose_map(), 2, 4, 2, False),
        (scalar, 8, None, 5, True),
    ]


@pytest.mark.parametrize(
    "phi, n, d, seed, found",
    _kick_edges(),
    ids=["identity-1", "scalar-1", "transpose-8", "scalar-8"],
)
def test_kicks_at_the_edges_of_the_index_draw_match_the_one_step_climb(phi, n, d, seed, found):
    for budget in BUDGETS:
        got = witness_search(phi, seed=seed, budget=budget, n=n, d=d)
        want = oracle_witness_search(phi, seed=seed, budget=budget, n=n, d=d)
        assert _same(got, want), (n, budget)
    assert (got is not None) == found


def test_a_search_at_nd_one_ends_after_restart_zero():
    # at n d = 1 every candidate is the block [1], up to its last bit: a map
    # with no witness at restart 0 makes one restart's LAPACK calls whatever
    # its budget, and a map with one returns the witness it always did
    counts = []
    for budget in (601, 10**6):
        with lapack_calls(("eigvalsh", "cholesky")) as calls:
            assert witness_search(identity_map(), n=1, d=1, budget=budget) is None
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["eigvalsh"] > 0
    phi = map_from_choi(np.array([[-1.0]]), 1)
    for budget in (1, 601, 10**6):
        got = witness_search(phi, n=1, d=1, budget=budget)
        want = oracle_witness_search(phi, n=1, d=1, budget=budget)
        assert _same(got, want) and got.restart == 0


def test_the_comparison_covers_found_witnesses():
    # guards the test above against comparing nothing but None
    phi, d, seed = MAPS["choi3"]
    for budget in (600, 601, 602):
        res = witness_search(phi, seed=seed, budget=budget, n=3, d=d)
        assert (res.evaluations, res.restart) == (min(budget, 601), 0)
    phi, d, seed = MAPS["not_positive"]
    for n in (2, 3):
        assert witness_search(phi, seed=seed, budget=1, n=n, d=d).evaluations == 1


@pytest.mark.parametrize("seed", [17, 25, 34, 48, 63])
def test_one_restart_matches_the_one_step_climb(seed):
    # the witness benchmark's call: one restart of choi3 at n = 3.  These
    # seeds end their restart on a witness, so the comparison sees where the
    # climb ended; the climb accepts steps all along, each copied out of the
    # window's reused buffer
    got = witness_search(choi_fixture(), seed=seed, budget=601, n=3, d=3)
    want = oracle_witness_search(choi_fixture(), seed=seed, budget=601, n=3, d=3)
    assert got is not None and got.evaluations == 601
    assert _same(got, want)


@pytest.mark.parametrize("rel_eps, found", [(1e-4, True), (3e-4, False)])
def test_the_judged_threshold_is_read_at_both_ends_of_the_spectrum(rel_eps, found):
    # choi3's restart 0 at seed 5 ends on min_eig -8.25e-3, with the top of
    # its spectrum at 4.19.  At rel_eps 3e-4 ten thresholds at the top's
    # scale (1.56e-2) exceed |min_eig| while ten at its own scale (3.02e-3)
    # do not: the verdict reads the threshold at max(|lo|, |hi|)
    phi, d, seed = MAPS["choi3"]
    tol = Tolerance(abs_eps=0.0, rel_eps=rel_eps)
    got = witness_search(phi, seed=seed, budget=601, n=3, d=d, tol=tol)
    assert _same(got, oracle_witness_search(phi, seed=seed, budget=601, n=3, d=d, tol=tol))
    assert (got is not None) == found


def test_seed_42_replay_eigvalsh_calls():
    payload = json.loads(FIXTURE.read_text())
    with lapack_calls(("eigvalsh", "eigh", "svd", "cholesky")) as calls:
        res = witness_search(choi_fixture(), seed=42, budget=10**6, n=3, d=3)
    assert (res.evaluations, res.restart) == (payload["evaluations"], payload["restart"])
    assert res.min_eig == payload["min_eig"]
    assert np.array_equal(res.block.blocks, block_from_payload(payload["block"]).blocks)
    # two stacked eigvalsh calls for each restart's first evaluation, one
    # per window for the boundary mix, and one per image spectrum the
    # Cholesky test leaves to compute: 2,629 of 4,646 windows take one, the
    # step they accept.  The one-step climb made two per evaluation
    # (33,656).  A counter over numpy's cholesky sends the seam down its
    # public path, one call per candidate
    assert calls == {"eigvalsh": 7331, "eigh": 0, "svd": 0, "cholesky": 23151}


@pytest.mark.parametrize("field", [None, "evaluations", "restart", "min_eig", "block"])
def test_find_witness_check_compares_every_field(tmp_path, monkeypatch, capsys, field):
    # the comparison of `find_witness.py --check`, fed the frozen result
    # itself instead of a fresh 1.5 s search
    script = load_script("find_witness")
    payload = json.loads(FIXTURE.read_text())
    frozen = WitnessResult(
        block=block_from_payload(payload["block"]),
        min_eig=payload["min_eig"],
        evaluations=payload["evaluations"],
        restart=payload["restart"],
    )
    if field == "block":
        payload["block"]["blocks"][0][0]["data"][0][0] += 1e-12
    elif field is not None:
        payload[field] += 1
    out = tmp_path / "witness.json"
    out.write_text(json.dumps(payload))
    monkeypatch.setattr(script, "OUT", out)
    monkeypatch.setattr(script, "search", lambda: (frozen, 1.0))
    assert script.check() == (0 if field is None else 1)
    if field is not None:
        assert f"MISMATCH against {out}: {field}" in capsys.readouterr().out
    assert json.loads(out.read_text()) == payload


@pytest.mark.parametrize("replay", [0, 1])
def test_find_witness_exit_code_is_the_replays(monkeypatch, capsys, replay):
    # the one-restart timing runs after the replay and does not touch its code
    script = load_script("find_witness")
    monkeypatch.setattr(script, "check", lambda: replay)
    monkeypatch.setattr(script, "time_restarts", lambda: 12.3)
    monkeypatch.setattr("sys.argv", ["find_witness.py", "--check"])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == replay
    assert "12.3 us per evaluation" in capsys.readouterr().out


# seed -> eigvalsh calls of one restart, the witness benchmark's call: two
# stacked calls for the first evaluation, one per window for the boundary
# mix, and one per image spectrum the Cholesky test leaves to compute
ONE_RESTART_EIGVALSH = {0: 266, 1: 283}


@pytest.mark.parametrize("seed", [0, 1])
def test_one_restart_makes_fewer_eigvalsh_calls_than_evaluations(seed):
    with lapack_calls() as calls:
        res = witness_search(choi_fixture(), seed=seed, budget=601, n=3, d=3)
    evaluations = 601 if res is None else res.evaluations
    assert calls["eigvalsh"] < evaluations
    assert calls == {"eigvalsh": ONE_RESTART_EIGVALSH[seed], "eigh": 0, "svd": 0}


def _decomposable_maps():
    rng = np.random.default_rng(1976)
    out = [(transpose_map(), 2)]
    for k, l in [(2, 2), (2, 3), (3, 2)]:
        cp = [ginibre(rng, l, k) for _ in range(2)]
        cocp = [ginibre(rng, l, k) for _ in range(2)]
        out += [(make_decomposable(cp, []), None), (make_decomposable(cp, cocp), None)]
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_decomposable_maps_yield_no_witness(n):
    # Woronowicz (1976): every positive map on M2, and from M2 to M3, is
    # decomposable; and a decomposable map sends every two-sided-positive
    # block matrix to a PSD one, so the search must come back empty
    for phi, d in _decomposable_maps():
        for seed in (0, 1):
            assert witness_search(phi, seed=seed, budget=700, n=n, d=d) is None


def test_witness_digest_script_prints_one_digest_of_its_sweep(monkeypatch, capsys):
    # a two-seed sweep: seed 1 finds no witness within 3,000 evaluations and
    # seed 2 finds one, so both kinds of record enter the digest
    script = load_script("witness_digest")
    monkeypatch.setattr(script, "SEEDS", [1, 2])
    assert script.main() == 0
    assert capsys.readouterr().out == (
        "13a1dd4a8e1cd4be89987d4bfe4caf2c65d0b13ae71456923d1e5a026e7a0b3b"
        "  1 of 2 searches found a witness\n"
    )


# -- the Cholesky test of a window against eigvalsh alone ---------------------


def _eigvalsh_only(h, current):
    """(t, lowest, top) of the first matrix of ``h`` whose lowest eigenvalue,
    by eigvalsh, is below ``current``, or None: the decision of a window
    that computes every spectrum."""
    w = np.linalg.eigvalsh(h)
    better = np.flatnonzero(w[:, 0] < current)
    if better.size == 0:
        return None
    t = int(better[0])
    return t, float(w[t, 0]), float(w[t, -1])


# 1 and 1e+-100 take the Cholesky test; at 1e+-160 a window's sum of squares
# overflows or falls below the normal doubles, and every spectrum is taken
NEAR_TIE_SCALES = [1.0, 1e-100, 1e100, 1e-160, 1e160]


@pytest.mark.parametrize("scale", NEAR_TIE_SCALES)
def test_the_cholesky_margin_keeps_the_decisions_of_eigvalsh(scale):
    # the current minimum sits a few doubles, and one or two margins, on
    # either side of each image's computed lowest eigenvalue.  Without the
    # margin, a Cholesky of H - current I completes on about a third of the
    # images whose computed lowest is one double below current
    rng = np.random.default_rng(2027)
    phi = choi_fixture()
    for m in (1, 2, 3, 6, 9, 12):
        for _ in range(4):
            h = scale * common_spectrum(rng, m)
            f = math.sqrt(np.vdot(h, h).real)
            for lowest in np.linalg.eigvalsh(h)[:, 0]:
                delta = _margin(m, f, lowest)
                currents = [ulps(lowest, j) for j in range(-4, 5)]
                currents += [lowest + k * delta for k in (-2, -1, 1, 2)]
                for current in currents:
                    with np.errstate(**_SILENT):
                        got = _first_better(phi, h, current, DEFAULT_TOL)
                    assert got == _eigvalsh_only(h, current), (m, current)


@pytest.mark.parametrize("scale, calls", [(1.0, (0, 5)), (1e160, (1, 0))])
def test_a_window_above_the_current_minimum_takes_no_spectrum(scale, calls):
    # five images the shifted Cholesky factors: proved not better without a
    # spectrum.  Beyond the Cholesky test's range the window takes every
    # spectrum in one stacked call
    h = scale * common_spectrum(np.random.default_rng(2028), 9)
    current = float(np.linalg.eigvalsh(h)[:, 0].min()) - scale
    with lapack_calls(("eigvalsh", "cholesky")) as counted, np.errstate(**_SILENT):
        assert _first_better(choi_fixture(), h, current, DEFAULT_TOL) is None
    assert (counted["eigvalsh"], counted["cholesky"]) == calls


CHOI3 = choi_matrix(choi_fixture(), 3)


def test_extreme_scales_match_the_one_step_climb():
    # choi3 given by its Choi matrix times 1e-150 .. 1e150: seed 5 ends its
    # first restart on a witness wherever ten PSD floors are below its
    # minimum, and on None where the absolute floor 1e-10 dominates
    found = []
    for exponent in range(-150, 151, 25):
        phi = map_from_choi(10.0**exponent * CHOI3, 3)
        got = witness_search(phi, seed=5, budget=601, n=3)
        assert _same(got, oracle_witness_search(phi, seed=5, budget=601, n=3)), exponent
        found.append(got is not None)
    assert any(found) and not all(found)


def test_beyond_the_cholesky_range_windows_match_or_raise_as_before():
    # a window whose sum of squares overflows takes every spectrum in one
    # stack; where the images overflow it raises the ScaleError it raised
    # before the Cholesky test
    for exponent in (160, 300, 307):
        phi = map_from_choi(10.0**exponent * CHOI3, 3)
        with np.errstate(all="ignore"):  # the one-step climb's own overflows
            want = oracle_witness_search(phi, seed=5, budget=601, n=3)
        assert want is not None
        assert _same(witness_search(phi, seed=5, budget=601, n=3), want), exponent
    phi = map_from_choi(10.0**307.5 * CHOI3, 3)
    message = r"^map images overflow: map entries reach 3\.162e\+307; rescale the map$"
    with pytest.raises(ScaleError, match=message):
        witness_search(phi, seed=5, budget=601, n=3)


def test_a_callers_underflow_setting_keeps_the_cholesky_on_its_gufunc_path(monkeypatch):
    # the search ignores every flag, under included, so the seam factors
    # each window in one gufunc call, never with numpy's function (replaced
    # in both places, so the seam still reads it as numpy's own)
    want = witness_search(choi_fixture(), seed=5, budget=601, n=3, d=3)

    def public(*args, **kwargs):
        raise AssertionError("numpy.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", public)
    monkeypatch.setattr(linalg._numpy_linalg, "cholesky", public)
    with np.errstate(under="warn"):
        assert _same(witness_search(choi_fixture(), seed=5, budget=601, n=3, d=3), want)
