"""Positive maps on matrix algebras and the decomposability test harness.

A map is decomposable when it splits into a completely positive part
phi(x) = sum K x K* plus a co-completely positive part phi(x) = sum L x^T L*.
Decomposable maps send every block matrix passing the two-sided positivity
test to a PSD block matrix; :func:`theorem1_necessity_trial` exercises that
necessity on random instances, and :func:`witness_search` hunts for a
violating instance, which certifies non-decomposability.  The classical
positive non-decomposable map on 3 x 3 matrices is provided as a fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, ScaleError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _eigvalsh,
    _held,
    adjoint,
    as_matrix,
    psd_margin,
    require_square,
)
from .sampling import _boundary_grams, _pair_stack, ginibre, random_stormer_blocks
from .stormer import OperatorBlockMatrix, _assemble, _split

__all__ = [
    "NAMED_MAPS",
    "NecessityReport",
    "PositiveMap",
    "WitnessResult",
    "apply_map_entrywise",
    "choi_fixture",
    "choi_matrix",
    "identity_map",
    "make_decomposable",
    "map_from_choi",
    "theorem1_necessity_trial",
    "transpose_map",
    "witness_search",
]


# The named maps: name -> the input dimension it fixes (None: any square input).
NAMED_MAPS = {"identity": None, "transpose": None, "choi3": 3}


@dataclass(frozen=True, eq=False)
class PositiveMap:
    """A positive map given by Kraus families, a Choi matrix, or by name.

    kinds:
      - ``sum``:      phi(x) = sum_K K x K* + sum_L L x^T L*, a CP part plus a
                      co-CP part (decomposable by construction); either part
                      may be empty, not both
      - ``choi_raw``: phi read off a Choi matrix on (input) x (output)
      - ``named``:    one of :data:`NAMED_MAPS`

    Named identity/transpose apply to any square input; all other maps fix
    the input dimension.  The map owns read-only copies of its Kraus
    operators and Choi matrix, as the package's other value objects own
    theirs: writing into an array the caller passed in leaves the map as it
    was, and a Kraus map keeps each operator's adjoint for its images.
    """

    kind: str
    kraus_cp: tuple = ()
    kraus_cocp: tuple = ()
    choi: np.ndarray | None = None
    name: str | None = None
    input_dim: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind == "sum":
            cp = tuple(_held(as_matrix(k)) for k in self.kraus_cp)
            cocp = tuple(_held(as_matrix(k)) for k in self.kraus_cocp)
            ops = cp + cocp
            if not ops:
                raise DimensionError("Kraus representation needs at least one operator")
            shape = ops[0].shape
            if any(o.shape != shape for o in ops):
                raise DimensionError("all Kraus operators must share one l x k shape")
            object.__setattr__(self, "kraus_cp", cp)
            object.__setattr__(self, "kraus_cocp", cocp)
            object.__setattr__(self, "input_dim", shape[1])
            # (K, K*, whether K acts on x^T), in the order the images are summed
            terms = [(k, False) for k in cp] + [(k, True) for k in cocp]
            object.__setattr__(self, "_terms", tuple((k, adjoint(k), t) for k, t in terms))
        elif self.kind == "choi_raw":
            c = _held(require_square(self.choi, "Choi matrix"))
            k = self.input_dim
            if k is None or k < 1 or c.shape[0] % k != 0:
                raise DimensionError("choi_raw needs input_dim dividing the Choi size")
            object.__setattr__(self, "choi", c)
        elif self.kind == "named":
            if self.name not in NAMED_MAPS:
                raise DomainError(f"unknown named map {self.name!r}")
            if NAMED_MAPS[self.name] is not None:
                object.__setattr__(self, "input_dim", NAMED_MAPS[self.name])
        else:
            raise DomainError(f"unknown map kind {self.kind!r}")

    def __reduce__(self):
        # Rebuilt through the constructor, so copies and unpickled maps own
        # fresh read-only arrays and their own adjoints.
        args = (self.kind, self.kraus_cp, self.kraus_cocp, self.choi, self.name, self.input_dim)
        return type(self), args

    @property
    def output_dim(self) -> int | None:
        if self.kind == "sum":
            return (self.kraus_cp or self.kraus_cocp)[0].shape[0]
        if self.kind == "choi_raw":
            return self.choi.shape[0] // self.input_dim
        return self.input_dim

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on a square matrix, or on each matrix of a stack
        of shape (..., k, k) at once."""
        a = np.asarray(x, dtype=complex)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
            raise DimensionError(f"map argument must be square matrices, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("map argument entries must be finite")
        if self.input_dim is not None and a.shape[-1] != self.input_dim:
            raise DimensionError(
                f"map expects {self.input_dim} x {self.input_dim} input, got {a.shape}"
            )
        return self._apply(a)

    def _apply(self, a: np.ndarray) -> np.ndarray:
        """:meth:`apply` without its checks, for stacks the package built
        itself: ``a`` is a finite complex array of shape (..., k, k) with k
        the map's input dimension."""
        if self.kind == "named":
            if self.name == "identity":
                return a.copy(order="K")
            if self.name == "transpose":
                return np.swapaxes(a, -1, -2).copy(order="K")
            return _choi3_apply(a)
        if self.kind == "choi_raw":
            return np.einsum("...ij,ijrc->...rc", a, _split(self.choi, self.input_dim))
        at = np.swapaxes(a, -1, -2)
        images = (kr @ (at if transposed else a) @ kh for kr, kh, transposed in self._terms)
        out = next(images)
        out += 0.0  # a sum from 0.0: an entry of -0.0 reads +0.0
        for image in images:  # summed in place, in the order of the terms
            out += image
        return out


# Diagonal entry i of a choi3 image adds x_ii and the entry before it, cyclically.
_PREVIOUS = np.array([2, 0, 1])


def _choi3_apply(x: np.ndarray) -> np.ndarray:
    """The classical positive non-decomposable map on 3 x 3 matrices:
    diagonal entries (x11+x33, x22+x11, x33+x22), off-diagonal entries
    negated; x may be a stack of shape (..., 3, 3).

    The image keeps x's memory order, so the image of a :func:`_split` view
    assembles as a view, and its diagonal is written in one addition."""
    out = -x
    diag = x.diagonal(0, -2, -1)
    np.add(diag, diag.take(_PREVIOUS, axis=-1), out=np.einsum("...ii->...i", out))
    return out


def identity_map() -> PositiveMap:
    return PositiveMap(kind="named", name="identity")


def transpose_map() -> PositiveMap:
    return PositiveMap(kind="named", name="transpose")


def choi_fixture() -> PositiveMap:
    """The positive, non-decomposable map on 3 x 3 matrices."""
    return PositiveMap(kind="named", name="choi3")


def make_decomposable(kraus_cp, kraus_cocp) -> PositiveMap:
    """phi(x) = sum K x K* + sum L x^T L*: decomposable by construction."""
    return PositiveMap(kind="sum", kraus_cp=tuple(kraus_cp), kraus_cocp=tuple(kraus_cocp))


def map_from_choi(choi, input_dim: int) -> PositiveMap:
    return PositiveMap(kind="choi_raw", choi=choi, input_dim=input_dim)


def choi_matrix(phi: PositiveMap, input_dim: int | None = None) -> np.ndarray:
    """Choi matrix on (input) x (output): the assembled block matrix of the
    entrywise image of the matrix-unit block matrix."""
    k = input_dim or phi.input_dim
    if k is None:
        raise DimensionError("dimension-agnostic map: pass input_dim explicitly")
    return _assemble(phi.apply(np.eye(k * k).reshape(k, k, k, k)))


def apply_map_entrywise(phi: PositiveMap, x: OperatorBlockMatrix) -> OperatorBlockMatrix:
    """Apply a map to every block: blocks'[i][j] = phi(blocks[i][j])."""
    return OperatorBlockMatrix(phi.apply(x.blocks))


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of random necessity trials for one map."""

    trials: int
    violations: int
    worst_min_eig: float
    n: int
    d: int


# Trials drawn, mapped and diagonalized as one stack; bounds the stack's memory.
_TRIAL_CHUNK = 256


def _trial_dims(phi: PositiveMap, n: int, d: int | None) -> int:
    """The block dimension of trial matrices (the map's own when d is None),
    after checking that trials have at least one block of positive size and
    that the map takes d x d input.  These are the checks
    :meth:`PositiveMap.apply` would make on every stack, made once for the
    stacks that :func:`_image_margin` maps unchecked."""
    d = d if d is not None else phi.input_dim
    if d is None:
        raise DimensionError("dimension-agnostic map: pass d explicitly")
    if n < 1 or d < 1:
        raise DimensionError(f"trial blocks need n >= 1 and d >= 1, got n={n}, d={d}")
    if phi.input_dim is not None and d != phi.input_dim:
        raise DimensionError(f"map expects {phi.input_dim} x {phi.input_dim} input, got d={d}")
    return d


def _trial_blocks(rng: np.random.Generator, count: int, n: int, d: int) -> np.ndarray:
    """``count`` two-sided-positive trial blocks, shape (count, n, n, d, d):
    Gram blocks of random pairs for n = 2, mixed Wishart blocks otherwise."""
    if n != 2:
        return random_stormer_blocks(rng, count, n, d)
    # block (i, j) of pair t is a_i* a_j: one broadcast product over the
    # (count, 2, d, d) stack, each block the gemm of its operands alone
    a = _pair_stack(rng, count, d)
    return adjoint(a)[:, :, None] @ a[:, None]


def _image_margin(
    phi: PositiveMap, blocks: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum eigenvalue of the Hermitian part of each entrywise image of a
    stack of sampled blocks, whose dimensions :func:`_trial_dims` checked,
    and each image's PSD threshold.  Raises ScaleError (a DomainError) when
    the images' spectra overflow double precision."""
    # an overflow is reported by the ScaleError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        m = _assemble(phi._apply(blocks))
        h = m + adjoint(m)
        h *= 0.5
    try:
        lowest, thr = psd_margin(_eigvalsh(h), tol)
    except np.linalg.LinAlgError:  # numpy's answer to a NaN spectrum
        thr = np.array(math.nan)
    # a threshold is finite iff both ends of its spectrum are
    if not math.isfinite(thr.max()):
        mats = [*phi.kraus_cp, *phi.kraus_cocp, *([] if phi.choi is None else [phi.choi])]
        scale = max((np.abs(k).max() for k in mats), default=1.0)
        raise ScaleError(f"map images overflow: map entries reach {scale:.3e}; rescale the map")
    return lowest, thr


def theorem1_necessity_trial(
    phi: PositiveMap,
    seed: int = 0,
    trials: int = 1000,
    n: int = 2,
    d: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> NecessityReport:
    """Apply a map entrywise to random two-sided-positive block matrices and
    count outputs with an eigenvalue below the PSD floor.

    Decomposable maps must report zero violations; a violation is a
    non-decomposability witness.

    Draw order: the stream seeded by ``seed`` yields the trial blocks one
    after another, exactly as successive :func:`random_stormer_pair` calls
    (each taken to its Gram block) would for n = 2, and successive
    :func:`random_stormer_block` calls otherwise.  Trials run in stacks of
    at most 256; every trial's arithmetic is the same as when run alone, so
    the report depends on (phi, seed, trials, n, d, tol) only.  Raises
    DomainError when ``trials`` is below 1 or the images' spectra overflow,
    and DimensionError when n or d is below 1.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    d = _trial_dims(phi, n, d)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    for start in range(0, trials, _TRIAL_CHUNK):
        count = min(_TRIAL_CHUNK, trials - start)
        lowest, thr = _image_margin(phi, _trial_blocks(rng, count, n, d), tol)
        violations += int(np.count_nonzero(lowest < -thr))
        worst = min(worst, float(lowest.min()))
    return NecessityReport(
        trials=trials, violations=violations, worst_min_eig=worst, n=n, d=d
    )


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """A two-sided-positive block matrix whose entrywise image is not PSD."""

    block: OperatorBlockMatrix
    min_eig: float
    evaluations: int
    restart: int


# Hill-climbing steps per restart of the witness search.
_STEPS_PER_RESTART = 600
# Hill-climbing steps the witness search evaluates as one stack.
_WINDOW = 5


# The boundary floor of a restart's first evaluation and of each step after
# it: 1e-2, multiplied by 0.985 per step (one rounding each, in order), and
# never below 1e-7.
_FLOORS = np.maximum(1e-7, np.cumprod(np.r_[1e-2, np.full(_STEPS_PER_RESTART, 0.985)]))


def witness_search(
    phi: PositiveMap,
    seed: int = 0,
    budget: int = 10**6,
    n: int = 3,
    d: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> WitnessResult | None:
    """Randomized search for a non-decomposability witness.

    Random restarts draw a Gram factor G; the candidate block matrix is
    G G* (trace-normalized) mixed toward the identity just enough to sit on
    the boundary of the two-sided-positive set, where violations live.
    Coordinate-wise hill climbing then perturbs single entries of G,
    re-projecting onto the set each step (the mix parameter is recomputed, so
    both positivity conditions hold by construction) and annealing the
    boundary floor downward.  Returns the witness of the first restart whose
    image minimum eigenvalue ends below ten PSD floors, or None if the budget
    is exhausted.

    A step kicks one entry of the current G; an improving step is accepted
    and widens the kick (sigma * 1.2, at most 1), a rejected one narrows it
    (sigma * 0.97, at least 1e-3).  A restart's kicks and floors do not
    depend on acceptance, so the climb draws them up front and evaluates the
    next five steps as one stack, each with the sigma it has if every step
    before it in the window is rejected; the first improving step is
    accepted, the steps after it are discarded and the next window starts
    from it.  The window's candidates are kicked copies of G in one buffer
    that every window of the search refills, so only an accepted G is
    copied out.  The boundary mix and the image spectra run on the whole
    window, with the arithmetic each candidate gets alone, so the result is
    equal to the one-step climb for every input.

    Deterministic in (seed, budget): restart r uses the stream seeded by
    (seed, r).  Raises DimensionError when n or d is below 1, and
    DomainError when the images' spectra overflow.
    """
    d = _trial_dims(phi, n, d)
    nd = n * d
    cand = np.empty((_WINDOW, nd, nd), dtype=complex)  # a window's kicked copies of G
    evaluations = 0
    restart = 0
    while evaluations < budget:
        rng = np.random.default_rng([seed, restart])
        g = ginibre(rng, nd)
        steps = min(_STEPS_PER_RESTART, budget - evaluations - 1)
        kicks = [
            (rng.integers(nd), rng.integers(nd), rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(steps)
        ]
        x = _boundary_grams(g[None], n, _FLOORS[:1])
        lowest, thr = _image_margin(phi, _split(x, n), tol)
        current, thr, x = float(lowest[0]), float(thr[0]), x[0]
        sigma = 0.3
        step = 0
        while step < steps:
            k = min(_WINDOW, steps - step)
            cand[:k] = g
            sigmas = []
            for t, (i, j, z) in enumerate(kicks[step : step + k]):
                cand[t, i, j] += sigma * z
                sigmas.append(sigma)
                sigma = max(sigma * 0.97, 1e-3)
            xs = _boundary_grams(cand[:k], n, _FLOORS[step + 1 : step + 1 + k])
            lowest, thrs = _image_margin(phi, _split(xs, n), tol)
            better = lowest < current
            a = int(better.argmax())
            if not better[a]:
                step += k
                continue
            g, current, thr, x = cand[a].copy(), float(lowest[a]), float(thrs[a]), xs[a]
            sigma = min(sigmas[a] * 1.2, 1.0)
            step += a + 1
        evaluations += 1 + step
        if current < -10.0 * thr:
            return WitnessResult(
                block=OperatorBlockMatrix.from_assembled(x, n),
                min_eig=current,
                evaluations=evaluations,
                restart=restart,
            )
        restart += 1
    return None
