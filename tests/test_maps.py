import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from stormer_kit import (
    NAMED_MAPS,
    DimensionError,
    DomainError,
    OperatorBlockMatrix,
    OperatorPair,
    PositiveMap,
    ScaleError,
    adjoint,
    apply_map_entrywise,
    choi_fixture,
    choi_matrix,
    gram_block,
    identity_map,
    is_psd,
    make_decomposable,
    map_from_choi,
    stormer_test,
    swap_block,
    theorem1_necessity_trial,
    transpose_map,
    witness_search,
)
from stormer_kit.io import block_from_payload
from stormer_kit.sampling import ginibre, random_stormer_pair

from helpers import hermitize, min_eig


def matrix_units(d):
    units = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d))
            k[i, j] = 1.0
            units.append(k)
    return units


def test_named_maps_apply():
    rng = np.random.default_rng(1)
    x = ginibre(rng, 3)
    np.testing.assert_array_equal(identity_map().apply(x), x)
    np.testing.assert_array_equal(transpose_map().apply(x), x.T)


def test_kraus_apply_and_validation():
    rng = np.random.default_rng(2)
    ks = [ginibre(rng, 4, 2) for _ in range(3)]
    phi = make_decomposable(ks, [])
    x = ginibre(rng, 2)
    expected = sum(k @ x @ adjoint(k) for k in ks)
    np.testing.assert_allclose(phi.apply(x), expected, atol=1e-13)
    with pytest.raises(DimensionError):
        phi.apply(ginibre(rng, 3))
    with pytest.raises(DimensionError):
        make_decomposable([], [])
    with pytest.raises(DimensionError):
        make_decomposable([ginibre(rng, 2, 2)], [ginibre(rng, 3, 2)])


def test_cocp_apply():
    rng = np.random.default_rng(3)
    ls = [ginibre(rng, 3, 3) for _ in range(2)]
    phi = make_decomposable([], ls)
    x = ginibre(rng, 3)
    expected = sum(l @ x.T @ adjoint(l) for l in ls)
    np.testing.assert_allclose(phi.apply(x), expected, atol=1e-13)


@pytest.mark.parametrize("kind", ["kraus_cp", "kraus_cocp"])
def test_single_part_kraus_kinds_are_not_map_kinds(kind):
    # a CP-only or co-CP-only map is a ``sum`` with one part empty
    with pytest.raises(DomainError):
        PositiveMap(kind=kind, kraus_cp=(np.eye(2),), kraus_cocp=(np.eye(2),))


def test_named_maps_table_sets_dimensions():
    for name, dim in NAMED_MAPS.items():
        phi = PositiveMap(kind="named", name=name)
        assert (phi.input_dim, phi.output_dim) == (dim, dim)
    with pytest.raises(DomainError):
        PositiveMap(kind="named", name="nope")


@pytest.mark.parametrize("parts", [(1, 0), (0, 2), (2, 1)], ids=["cp", "cocp", "sum"])
def test_kraus_and_choi_maps_read_their_dimensions(parts):
    rng = np.random.default_rng(7)
    phi = make_decomposable(
        [ginibre(rng, 4, 2) for _ in range(parts[0])], [ginibre(rng, 4, 2) for _ in range(parts[1])]
    )
    assert (phi.input_dim, phi.output_dim) == (2, 4)
    twin = map_from_choi(choi_matrix(phi), 2)
    assert (twin.input_dim, twin.output_dim) == (2, 4)


def test_choi_maps_need_an_input_dimension_dividing_the_choi_size():
    for k in (0, 4, 5, -2):
        with pytest.raises(DimensionError, match="choi_raw needs input_dim dividing the Choi size"):
            map_from_choi(np.eye(6), k)


def test_choi_matrix_of_a_dimension_agnostic_map_needs_its_input_dimension():
    for phi in (identity_map(), transpose_map()):
        with pytest.raises(DimensionError, match="pass input_dim explicitly"):
            choi_matrix(phi)
    assert np.array_equal(choi_matrix(transpose_map(), 2), np.eye(4)[[0, 2, 1, 3]])


@pytest.mark.parametrize("input_dim", [0, -1, 2.5, True, np.float64(2.0), "2"])
def test_choi_matrix_rejects_an_input_dimension_that_is_no_positive_integer(input_dim):
    for phi in (identity_map(), choi_fixture()):
        with pytest.raises(DimensionError, match="^input_dim must be"):
            choi_matrix(phi, input_dim)


def test_choi_matrix_reads_a_numpy_integer_input_dimension():
    assert np.array_equal(choi_matrix(transpose_map(), np.int64(2)), choi_matrix(transpose_map(), 2))
    assert np.array_equal(choi_matrix(choi_fixture(), np.int32(3)), choi_matrix(choi_fixture()))


def test_make_decomposable_identity_and_transpose():
    rng = np.random.default_rng(4)
    x = ginibre(rng, 3)
    ident = make_decomposable([np.eye(3)], [])
    np.testing.assert_allclose(ident.apply(x), x, atol=1e-14)
    trans = make_decomposable([], [np.eye(3)])
    np.testing.assert_allclose(trans.apply(x), x.T, atol=1e-14)


def test_choi_matrix_consistent_with_kraus():
    rng = np.random.default_rng(5)
    ks = [ginibre(rng, 3, 2) for _ in range(2)]
    ls = [ginibre(rng, 3, 2) for _ in range(2)]
    phi = make_decomposable(ks, ls)
    via_choi = map_from_choi(choi_matrix(phi), input_dim=2)
    x = ginibre(rng, 2)
    np.testing.assert_allclose(via_choi.apply(x), phi.apply(x), atol=1e-12)


def test_cp_choi_is_psd_cocp_is_not_necessarily():
    rng = np.random.default_rng(6)
    ks = [ginibre(rng, 3, 3) for _ in range(2)]
    assert is_psd(choi_matrix(make_decomposable(ks, [])))
    assert not is_psd(choi_matrix(transpose_map(), input_dim=3))


def test_choi3_fixture_values():
    phi = choi_fixture()
    np.testing.assert_allclose(phi.apply(np.eye(3)), 2.0 * np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        phi.apply(np.diag([1.0, 0.0, 0.0])), np.diag([1.0, 1.0, 0.0]), atol=1e-14
    )


def test_choi3_fixture_positive_on_psd_inputs():
    rng = np.random.default_rng(7)
    phi = choi_fixture()
    for _ in range(1000):
        g = ginibre(rng, 3, int(rng.integers(1, 4)))
        x = g @ adjoint(g)
        out = phi.apply(x)
        assert min_eig(out) >= -1e-12 * (1.0 + np.abs(out).max())


def test_choi3_fixture_is_not_cp():
    w = np.linalg.eigvalsh(hermitize(choi_matrix(choi_fixture())))
    assert w[0] < -0.5  # far from the CP cone


def test_apply_map_entrywise_identity_and_trace():
    rng = np.random.default_rng(8)
    x = gram_block(random_stormer_pair(rng, 3))
    np.testing.assert_array_equal(
        apply_map_entrywise(identity_map(), x).blocks, x.blocks
    )
    # trace map x -> tr(x) I is CP with matrix-unit Kraus family
    trace_map = make_decomposable(matrix_units(3), [])
    out = apply_map_entrywise(trace_map, x)
    assert is_psd(out.assembled())
    np.testing.assert_allclose(
        out.block(0, 1), np.trace(x.block(0, 1)) * np.eye(3), atol=1e-12
    )


def test_apply_map_entrywise_transpose_preserves_stormer_positivity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = gram_block(random_stormer_pair(rng, int(rng.integers(2, 5))))
        out = apply_map_entrywise(transpose_map(), x)
        assert min_eig(out.assembled()) >= -1e-10 * (1 + np.abs(out.assembled()).max())


def test_apply_map_entrywise_dimension_check():
    rng = np.random.default_rng(10)
    x = gram_block(random_stormer_pair(rng, 2))
    with pytest.raises(DimensionError):
        apply_map_entrywise(choi_fixture(), x)


def test_necessity_identity_and_transpose():
    for n in (2, 3):
        rep = theorem1_necessity_trial(identity_map(), seed=11, trials=200, n=n, d=3)
        assert rep.violations == 0
        rep = theorem1_necessity_trial(transpose_map(), seed=12, trials=200, n=n, d=3)
        assert rep.violations == 0


def test_necessity_random_decomposable():
    rng = np.random.default_rng(13)
    ks = [ginibre(rng, 4, 2) for _ in range(2)]
    ls = [ginibre(rng, 4, 2) for _ in range(2)]
    phi = make_decomposable(ks, ls)
    for n in (2, 3):
        rep = theorem1_necessity_trial(phi, seed=14, trials=300, n=n)
        assert rep.violations == 0
        assert rep.d == 2


def test_necessity_requires_dimension_for_agnostic_maps():
    with pytest.raises(DimensionError):
        theorem1_necessity_trial(identity_map(), trials=10, n=2)


@pytest.mark.parametrize("n, d", [(0, 2), (-1, 2), (2, 0), (3, -2)])
def test_necessity_and_witness_search_reject_empty_blocks(n, d):
    with pytest.raises(DimensionError):
        theorem1_necessity_trial(transpose_map(), trials=10, n=n, d=d)
    with pytest.raises(DimensionError):
        witness_search(transpose_map(), budget=10, n=n, d=d)


def test_necessity_and_witness_search_reject_a_block_size_the_map_does_not_take():
    rng = np.random.default_rng(16)
    for phi, d in ((choi_fixture(), 2), (make_decomposable([ginibre(rng, 2, 2)], []), 3)):
        for n in (2, 3):
            with pytest.raises(DimensionError, match="map expects"):
                theorem1_necessity_trial(phi, trials=10, n=n, d=d)
            with pytest.raises(DimensionError, match="map expects"):
                witness_search(phi, budget=10, n=n, d=d)


def test_necessity_rejects_empty_blocks_of_a_sized_map():
    rng = np.random.default_rng(15)
    phi = make_decomposable([ginibre(rng, 2, 2)], [])
    with pytest.raises(DimensionError):
        theorem1_necessity_trial(phi, trials=10, n=0)
    with pytest.raises(DimensionError):
        witness_search(phi, budget=10, n=0)


# Sizes raise DimensionError and counts DomainError; io rejects the same
# values in input files.
_NOT_INTEGERS = [2.0, 2.5, True, False, np.float64(2.0), np.True_, "2"]


@pytest.mark.parametrize("bad", _NOT_INTEGERS, ids=repr)
def test_maps_layer_rejects_sizes_and_counts_that_are_not_integers(bad):
    with pytest.raises(DimensionError, match="input_dim must be an integer"):
        map_from_choi(np.eye(4), bad)
    for n, d in ((bad, 2), (2, bad)):
        with pytest.raises(DimensionError, match="must be an integer"):
            theorem1_necessity_trial(transpose_map(), trials=3, n=n, d=d)
        with pytest.raises(DimensionError, match="must be an integer"):
            witness_search(transpose_map(), budget=3, n=n, d=d)
    with pytest.raises(DomainError, match="trials must be an integer"):
        theorem1_necessity_trial(transpose_map(), trials=bad, n=2, d=2)
    with pytest.raises(DomainError, match="budget must be an integer"):
        witness_search(transpose_map(), budget=bad, n=2, d=2)


def test_maps_layer_reads_numpy_integers_as_ints():
    rep = theorem1_necessity_trial(
        transpose_map(), seed=3, trials=np.int16(3), n=np.int64(2), d=np.int32(2)
    )
    assert rep == theorem1_necessity_trial(transpose_map(), seed=3, trials=3, n=2, d=2)
    assert all(type(v) is int for v in (rep.trials, rep.n, rep.d))
    assert type(map_from_choi(np.eye(4), np.int64(2)).input_dim) is int
    assert witness_search(identity_map(), budget=np.int64(3), n=2, d=2) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_necessity_and_witness_search_raise_when_the_images_overflow():
    # images of entries beyond the largest double: numpy finds a NaN spectrum
    phi = make_decomposable([1e200 * np.eye(2)], [])
    message = r"map images overflow: map entries reach 1\.000e\+200"
    with pytest.raises(DomainError, match=message):
        theorem1_necessity_trial(phi, trials=5)
    with pytest.raises(DomainError, match=message):
        witness_search(phi, budget=5, n=2)


def test_overflowing_images_raise_domain_error_where_warnings_are_errors():
    # the engine reports an overflow itself: neither the images nor their
    # stacked spectra issue a RuntimeWarning first
    kraus = make_decomposable([1e200 * np.eye(2)], [])
    choi = map_from_choi(np.full((3, 3), 8e307), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: theorem1_necessity_trial(kraus, trials=5),
            lambda: witness_search(kraus, budget=5, n=2),
            lambda: theorem1_necessity_trial(choi, trials=20, n=1, d=1),
        ):
            with pytest.raises(DomainError, match="map images overflow"):
                call()


@pytest.mark.parametrize("mode", ["default", "error"])
def test_choi_matrix_raises_when_the_images_overflow(mode):
    # K = 1e200 I: the image of a matrix unit is 1e400 e_ij, beyond the
    # largest double; no RuntimeWarning comes first, in either mode
    phi = make_decomposable([1e200 * np.eye(2)], [])
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        message = r"^map images overflow: map entries reach 1\.000e\+200; rescale the map$"
        with pytest.raises(ScaleError, match=message):
            choi_matrix(phi)
        warnings.simplefilter("error")
        assert np.isfinite(choi_matrix(make_decomposable([1e100 * np.eye(2)], []))).all()


@pytest.mark.parametrize("mode", ["default", "error"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_window_raises_when_an_image_spectrum_overflows(n, mode):
    # images are multiples of the 3 x 3 matrix of entries 8e307: finite
    # entries whose spectra overflow.  The search's floating-point state
    # silences what LAPACK flags on them (divide included), so where
    # warnings are errors the ScaleError still comes first
    phi = map_from_choi(np.full((3, 3), 8e307), 1)
    message = r"^map images overflow: map entries reach 8\.000e\+307; rescale the map$"
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        with pytest.raises(ScaleError, match=message):
            witness_search(phi, budget=5, n=n, d=1)


def test_necessity_raises_when_a_finite_image_has_an_infinite_eigenvalue():
    # each image is a multiple of the 3 x 3 all-ones matrix, whose eigenvalue
    # 3 x 8e307 overflows while its entries do not
    phi = map_from_choi(np.full((3, 3), 8e307), 1)
    with pytest.raises(DomainError, match=r"map images overflow: map entries reach 8\.000e\+307"):
        theorem1_necessity_trial(phi, trials=20, n=1, d=1)


def test_witness_search_finds_nothing_for_identity():
    assert witness_search(identity_map(), seed=0, budget=2000, n=2, d=2) is None


def test_witness_search_finds_choi3_violation():
    res = witness_search(choi_fixture(), seed=42, budget=50_000, n=3, d=3)
    assert res is not None
    assert res.min_eig <= -1e-6
    assert stormer_test(res.block)
    m = res.block.assembled()
    assert min_eig(m) >= -1e-9 * (1 + np.abs(m).max())
    s = swap_block(res.block).assembled()
    assert min_eig(s) >= -1e-9 * (1 + np.abs(s).max())
    out = apply_map_entrywise(choi_fixture(), res.block).assembled()
    assert min_eig(out) == pytest.approx(res.min_eig, abs=1e-12)


def test_witness_search_is_deterministic():
    a = witness_search(choi_fixture(), seed=42, budget=50_000, n=3, d=3)
    b = witness_search(choi_fixture(), seed=42, budget=50_000, n=3, d=3)
    assert a is not None and b is not None
    assert a.min_eig == b.min_eig and a.evaluations == b.evaluations
    np.testing.assert_array_equal(a.block.blocks, b.block.blocks)
    # and it replays the frozen seed-42 search exactly
    payload = json.loads(
        (Path(__file__).parent / "fixtures" / "choi3_witness.json").read_text()
    )
    assert (payload["seed"], payload["n"], payload["d"]) == (42, 3, 3)
    assert (a.evaluations, a.restart) == (16828, 27)
    assert (a.evaluations, a.restart) == (payload["evaluations"], payload["restart"])
    assert a.min_eig == payload["min_eig"]
    assert np.array_equal(a.block.blocks, block_from_payload(payload["block"]).blocks)

