"""Positive maps on matrix algebras and the decomposability test harness.

A map is decomposable when it splits into a completely positive part
phi(x) = sum K x K* plus a co-completely positive part phi(x) = sum L x^T L*.
Decomposable maps send every block matrix passing the two-sided positivity
test to a PSD block matrix; :func:`theorem1_necessity_trial` exercises that
necessity on random instances, and :func:`witness_search` hunts for a
violating instance, which certifies non-decomposability.  The classical
positive non-decomposable map on 3 x 3 matrices is provided as a fixture.

A map given by data, Kraus families or a Choi matrix, is one object under
the Choi correspondence, and is applied by one kernel: its Choi tensor,
compiled at construction, contracted with every block of a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .errors import DimensionError, DomainError, ScaleError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _SILENT,
    _EPS,
    _TINY,
    _ValueObject,
    _eigvalsh,
    _held,
    _hermitian_part,
    _integer,
    _overflow,
    _positive_definite,
    adjoint,
    as_matrix,
    psd_margin,
    require_square,
)
from .sampling import _boundary_grams, _identity, _pair_stack, ginibre, random_stormer_blocks
from .stormer import OperatorBlockMatrix, _assemble, _gram_blocks, _split

__all__ = list(_EXPORTS["maps"])


# The named maps: name -> the input dimension it fixes (None: any square input).
NAMED_MAPS = {"identity": None, "transpose": None, "choi3": 3}


@dataclass(frozen=True, eq=False)
class PositiveMap(_ValueObject):
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
    was.  A ``sum`` or ``choi_raw`` map also keeps its read-only Choi tensor,
    the images of the matrix units, for its images; a ``sum`` map's is the
    tensor of its Choi twin ``map_from_choi(choi_matrix(phi), k)``, whose
    images it equals bit for bit, while ``choi`` stays None.
    """

    kind: str
    kraus_cp: tuple = ()
    kraus_cocp: tuple = ()
    choi: np.ndarray | None = None
    name: str | None = None
    input_dim: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind == "named":
            if self.name not in NAMED_MAPS:
                raise DomainError(f"unknown named map {self.name!r}")
            if NAMED_MAPS[self.name] is not None:
                object.__setattr__(self, "input_dim", NAMED_MAPS[self.name])
            return
        # (i, j, r, c): entry (r, c) of the image of the matrix unit e_ij,
        # laid out contiguously for the einsum of every image
        if self.kind == "sum":
            cp = tuple(_held(as_matrix(k)) for k in self.kraus_cp)
            cocp = tuple(_held(as_matrix(k)) for k in self.kraus_cocp)
            ops = cp + cocp
            if not ops:
                raise DimensionError("Kraus representation needs at least one operator")
            l, k = ops[0].shape
            if any(o.shape != (l, k) for o in ops):
                raise DimensionError("all Kraus operators must share one l x k shape")
            object.__setattr__(self, "kraus_cp", cp)
            object.__setattr__(self, "kraus_cocp", cocp)
            object.__setattr__(self, "input_dim", k)
            kp, kq = (np.array(part).reshape(-1, l, k) for part in (cp, cocp))
            # sum K[r, i] conj(K[c, j]) + sum L[r, j] conj(L[c, i]); an entry
            # that overflows is reported by _image_spectra's ScaleError
            with np.errstate(**_SILENT):
                tensor = np.einsum("mri,mcj->ijrc", kp, kp.conj())
                tensor = tensor + np.einsum("mrj,mci->ijrc", kq, kq.conj())
        elif self.kind == "choi_raw":
            c = _held(require_square(self.choi, "Choi matrix"))
            k = _integer(self.input_dim, "choi_raw input_dim", DimensionError)
            if k < 1 or c.shape[0] % k != 0:
                raise DimensionError("choi_raw needs input_dim dividing the Choi size")
            tensor = _split(c, k)
            object.__setattr__(self, "choi", c)
            object.__setattr__(self, "input_dim", k)
        else:
            raise DomainError(f"unknown map kind {self.kind!r}")
        tensor = np.ascontiguousarray(tensor)
        tensor.flags.writeable = False
        object.__setattr__(self, "_tensor", tensor)

    @property
    def output_dim(self) -> int | None:
        return self.input_dim if self.kind == "named" else self._tensor.shape[-1]

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
        the map's input dimension.  Each image gets the arithmetic it gets
        alone: a map given by data contracts with its contiguous Choi
        tensor, one einsum for the whole stack.

        For output dimension l >= 2 the einsum gets C-contiguous blocks, a
        copy where ``a`` is a strided view such as the :func:`_split` blocks
        of the engine's n >= 3 trials, on which it runs up to twice as
        fast.  Its inner loop then runs over each image's l x l entries,
        which are contiguous in both layouts, and every entry sums the
        products over (i, j) in the same order, so the images are equal
        bit for bit (``tests/test_engine.py`` checks every layout the
        engine makes).  At l = 1 the image has no such axis, the loop runs
        over the block itself and its summation order follows the layout:
        ``a`` is kept as it is."""
        if self.kind != "named":
            tensor = self._tensor
            if tensor.shape[-1] > 1:
                a = np.ascontiguousarray(a)
            return np.einsum("...ij,ijrc->...rc", a, tensor)
        if self.name == "identity":
            return a.copy(order="K")
        if self.name == "transpose":
            return np.swapaxes(a, -1, -2).copy(order="K")
        return _choi3_apply(a)


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
    entrywise image of the matrix-unit block matrix.  Raises the ScaleError
    of :func:`_images_overflow` (a DomainError) when the images overflow
    double precision."""
    k = input_dim or phi.input_dim
    if k is None:
        raise DimensionError("dimension-agnostic map: pass input_dim explicitly")
    # an overflow is reported by the ScaleError below, not as a numpy warning
    with np.errstate(**_SILENT):
        c = _assemble(phi.apply(np.eye(k * k).reshape(k, k, k, k)))
    if not np.isfinite(c).all():
        raise _images_overflow(phi)
    return c


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


def _trial_dims(phi: PositiveMap, n, d) -> tuple[int, int]:
    """(n, d) as ints, d the block dimension of trial matrices (the map's
    own when d is None), after checking that trials have at least one block
    of positive size and that the map takes d x d input.  These are the
    checks :meth:`PositiveMap.apply` would make on every stack, made once
    for the stacks that :func:`_hermitian_images` maps unchecked."""
    d = d if d is not None else phi.input_dim
    if d is None:
        raise DimensionError("dimension-agnostic map: pass d explicitly")
    n, d = _integer(n, "n", DimensionError), _integer(d, "d", DimensionError)
    if n < 1 or d < 1:
        raise DimensionError(f"trial blocks need n >= 1 and d >= 1, got n={n}, d={d}")
    if phi.input_dim is not None and d != phi.input_dim:
        raise DimensionError(f"map expects {phi.input_dim} x {phi.input_dim} input, got d={d}")
    return n, d


def _trial_blocks(rng: np.random.Generator, count: int, n: int, d: int) -> np.ndarray:
    """``count`` two-sided-positive trial blocks, shape (count, n, n, d, d):
    Gram blocks of random pairs for n = 2, mixed Wishart blocks otherwise.
    Runs in the engine's ``np.errstate(**_SILENT)``.  The blocks for n > 2
    come from the public :func:`random_stormer_blocks`, whose own state
    nests in it, so that a tracer of the public functions sees the sampler."""
    if n != 2:
        return random_stormer_blocks(rng, count, n, d)
    return _gram_blocks(_pair_stack(rng, count, d))


def _hermitian_images(phi: PositiveMap, blocks: np.ndarray) -> np.ndarray:
    """The Hermitian parts, shape (k, nd, nd), of the entrywise images of a
    stack of k sampled blocks, whose dimensions :func:`_trial_dims` checked.
    Runs in the caller's ``np.errstate(**_SILENT)``: an overflow is
    reported by :func:`_image_spectra`."""
    m = _assemble(phi._apply(blocks))
    return _hermitian_part(m, adjoint(m))


def _image_spectra(phi: PositiveMap, h: np.ndarray, tol: Tolerance):
    """Ascending spectra, shape (k, nd), of a stack of k Hermitian images
    of :func:`_hermitian_images`: a restart's first image in the witness
    search, and the necessity stacks and witness windows beyond the range
    of the shifted-Cholesky test (:func:`_screen`).  Runs in the caller's
    ``np.errstate(**_SILENT)``, in which its stacked ``eigvalsh`` warns as
    numpy's does.  Raises ScaleError (a DomainError) where an image's
    spectrum overflows double precision: where LAPACK fails on it, or
    where an end of it, and with it its :func:`psd_margin` threshold, is
    not finite."""
    try:
        w = _eigvalsh(h)
    except np.linalg.LinAlgError:  # numpy's answer to a NaN spectrum
        raise _images_overflow(phi) from None
    if not math.isfinite(psd_margin(w, tol)[1].max()):
        raise _images_overflow(phi)
    return w


def _images_overflow(phi: PositiveMap) -> ScaleError:
    """The ScaleError for a map whose images overflow, naming the largest
    entry of its Kraus operators or Choi matrix."""
    choi = () if phi.choi is None else (phi.choi,)
    return _overflow("map images overflow", "map", *phi.kraus_cp, *phi.kraus_cocp, *choi)


# The square root of the smallest normal double: a stack's sum of squares
# at least that normal double lost at most a relative 1e-13 to underflow.
_SMALLEST_NORM = math.sqrt(_TINY)


def _margin(m: int, norm: float, current: float) -> float:
    """The shift margin of :func:`_screen` for m x m Hermitian images of
    operator norm at most ``norm``: 8 m^3 eps (norm + |current|)."""
    return 8.0 * m**3 * _EPS * (norm + abs(current))


def _screen(h: np.ndarray, tol: Tolerance):
    """The shifted-Cholesky test of a stack of m x m Hermitian images: a
    function that gives, for a number ``current``, a bool array that is
    True where an image's lowest eigenvalue, as ``eigvalsh`` computes it,
    is provably above ``current``; None for a stack beyond the test's
    range.  The one certificate of the necessity engine
    (:func:`_stack_report`) and of the witness search
    (:func:`_first_better`).  Runs in the caller's
    ``np.errstate(**_SILENT)``.

    One stacked Cholesky of H - (current + delta) I, delta of
    :func:`_margin`, clears every image it factors.  Let F, the Frobenius
    norm of the whole stack, bound each image's norm, u = eps / 2 and s
    the shift as rounded.  A Cholesky that completes without an overflow,
    the only kind :func:`_positive_definite` clears, on H - sI as rounded
    (each diagonal entry off by at most u (F + |s|)) has factored a PSD
    matrix within a backward error of norm at most about m (m + 1) u
    (F + |s|) (Higham 2002, Theorem 10.3), so
    lambda_min(H) >= s - (m^2 + m + 1) u (F + |s|) to first order.
    ``eigvalsh`` returns the exact eigenvalues of H + E with
    ||E|| <= p(m) u ||H||, p a modest function (LAPACK Users' Guide,
    section 4.7), which the margin takes as m^3.  With s at least
    current + delta - u |current + delta|, these errors add up to less than
    a third of delta = 16 m^3 u (F + |current|): a cleared image's computed
    lowest eigenvalue is above ``current``.

    The range: the stack's sum of squares is a finite normal number, and
    the PSD threshold at its scale 2F is finite.  There every image's
    spectrum is finite and below 2F in magnitude, so its threshold is
    finite and a bare ``eigvalsh`` gives what :func:`_image_spectra` would.
    Beyond it the caller takes every spectrum through
    :func:`_image_spectra`, and so its ScaleError where one overflows."""
    f = math.sqrt(np.vdot(h, h).real)
    if not (_SMALLEST_NORM <= f < math.inf and math.isfinite(tol.threshold(2.0 * f))):
        return None
    m = h.shape[-1]

    def clears(current: float) -> np.ndarray:
        return _positive_definite(h - (current + _margin(m, f, current)) * _identity(m))

    return clears


def _stack_report(phi: PositiveMap, h: np.ndarray, tol: Tolerance) -> tuple[int, float]:
    """(violations, smallest minimum eigenvalue) of a stack of Hermitian
    trial images, the part of the necessity report it sets, from the
    spectra of only the trials that can set it.  Runs in the engine's
    ``np.errstate(**_SILENT)``.

    The two probes are the trials whose smallest diagonal entry is lowest,
    since that entry bounds the lowest eigenvalue from above; their spectra
    give u, the lower of their lowest eigenvalues.  Where u > 0, the
    shifted Cholesky of :func:`_screen` proves of every trial it clears
    that its lowest eigenvalue, as ``eigvalsh`` computes it, is above u: a
    cleared trial is neither the stack's minimum nor a violation, since
    its threshold is at least 0.  Only the others get a spectrum, in one
    stack.  Probes at or below 0, as rank-deficient images give (the Gram
    images of n = 2 trials under many maps), leave every other trial to
    that spectrum, and a
    stack beyond the test's range gets every spectrum through
    :func:`_image_spectra`.  No trial is diagonalized twice, and each
    spectrum is the one ``eigvalsh`` gives the trial alone, so the report
    is the one every trial's spectrum gives.  A stack whose lowest computed
    eigenvalue is at least 0 has no violation, and needs no threshold."""
    screen = _screen(h, tol)
    if screen is None:
        w = _image_spectra(phi, h, tol)
    else:
        order = np.argsort(h.diagonal(0, -2, -1).real.min(-1))
        w = _eigvalsh(h[order[:2]])
        rest = order[2:]
        u = w[:, 0].min()
        if u > 0.0 and rest.size:
            rest = rest[~screen(u)[rest]]
        if rest.size:
            w = np.concatenate((w, _eigvalsh(h[rest])))
    worst = float(w[:, 0].min())
    if worst >= 0.0:
        return 0, worst
    lowest, thr = psd_margin(w, tol)
    return int(np.count_nonzero(lowest < -thr)), worst


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
    the report depends on (phi, seed, trials, n, d, tol) only.  Each stack
    is drawn, mapped and judged in one ``np.errstate(**_SILENT)``.

    The report prints only the smallest minimum eigenvalue and the count
    of violations, so only the trials that can set them are diagonalized
    (:func:`_stack_report`): two probes, then those that one shifted
    Cholesky of the stack cannot prove to lie above the probes' minimum.
    The report is the one every trial's spectrum gives, bit for bit.  Raises
    DomainError when ``trials`` is not an integer of at least 1 or the
    images' spectra overflow, and DimensionError when n or d is not an
    integer of at least 1.
    """
    trials = _integer(trials, "trials", DomainError)
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    n, d = _trial_dims(phi, n, d)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    for start in range(0, trials, _TRIAL_CHUNK):
        count = min(_TRIAL_CHUNK, trials - start)
        with np.errstate(**_SILENT):
            blocks = _trial_blocks(rng, count, n, d)
            found, lowest = _stack_report(phi, _hermitian_images(phi, blocks), tol)
        violations += found
        worst = min(worst, lowest)
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

# The low 32-bit word of a raw 64-bit output.
_WORD = 0xFFFFFFFF


def _words(raw):
    """The 32-bit words of the raw 64-bit outputs ``raw()`` gives, the low
    one of each first.  An output is drawn only when its low word is
    asked for, and its high word waits in the generator until it is."""
    while True:
        v = raw()
        yield v & _WORD
        yield v >> 32


def _kicks(rng: np.random.Generator, nd: int, steps: int) -> list:
    """``steps`` witness kicks (i, j, z), each what
    ``(rng.integers(nd), rng.integers(nd),
    rng.standard_normal() + 1j * rng.standard_normal())`` gives, in that
    order, with i and j as Python ints; for 1 <= nd <= 2**32, the only
    sizes whose window fits in memory.

    ``Generator.integers(nd)`` draws by Lemire's bounded-integer rule
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019): a 32-bit word v gives m = v nd, accepted when
    m mod 2**32 >= (2**32 - nd) mod nd, and the index m >> 32; a rejected
    word is replaced by the next.  nd = 1 draws no word.  The words are the
    halves of the bit generator's raw 64-bit outputs, the low one first;
    the high one waits in a buffer, which the 64-bit draws of
    ``standard_normal`` do not touch.  Here :func:`_words` holds the
    waiting word, so one ``random_raw()`` call gives two words, and one
    ``standard_normal(2)`` call gives the two normals: half the generator
    calls.  The raw stream is the part of numpy's random API that NEP 19
    keeps stable; ``tests/test_witness.py`` checks the rule against
    ``Generator.integers`` itself.

    The generator's own 32-bit buffer must be empty on entry, as it is for
    a generator that has drawn only doubles since it was seeded.  This
    helper does not update it, so the generator must draw no 32-bit word
    after it: the witness search discards a restart's generator once its
    kicks are drawn."""
    normal = rng.standard_normal
    words = _words(rng.bit_generator.random_raw)
    threshold = (_WORD + 1 - nd) % nd

    def index() -> int:
        if nd > 1:
            for v in words:
                m = v * nd
                if m & _WORD >= threshold:
                    return m >> 32
        return 0

    kicks = []
    for _ in range(steps):
        i = index()
        j = index()
        a, b = normal(2).tolist()
        kicks.append((i, j, a + 1j * b))
    return kicks


def _first_better(phi: PositiveMap, h: np.ndarray, current: float, tol: Tolerance):
    """(t, lowest, top) for the first Hermitian image ``h[t]`` of a witness
    window whose lowest eigenvalue, as ``eigvalsh`` computes it, is below
    ``current``, with the highest; None when no image is.  Runs in the
    search's ``np.errstate(**_SILENT)``, in which the Cholesky and
    ``eigvalsh`` calls issue no warning.

    The shifted Cholesky of :func:`_screen` proves of every image it
    clears that it is not below ``current``; the others get a bare
    ``eigvalsh``, one at a time in window order, until one is below.  So
    every decision is the one ``eigvalsh`` alone makes.  A window beyond
    that test's range gets every spectrum in one stack through
    :func:`_image_spectra`, and so its ScaleError where an image's
    spectrum overflows."""
    screen = _screen(h, tol)
    if screen is not None:
        for t in np.flatnonzero(~screen(current)):
            w = _eigvalsh(h[t])
            if w[0] < current:
                return int(t), float(w[0]), float(w[-1])
        return None
    w = _image_spectra(phi, h, tol)
    better = w[:, 0] < current
    t = int(better.argmax())
    return (t, float(w[t, 0]), float(w[t, -1])) if better[t] else None


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
    is exhausted.  At n d = 1 every candidate of every restart is the 1 x 1
    block G G* scaled to trace 1, which rounds to 1 or to the double below
    it, whatever G and the kicks are: a map whose restart 0 ends without a
    witness has none at any restart, unless its image lies within a
    rounding of the witness threshold, so the search returns None after
    restart 0 instead of spending its budget.

    A step kicks one entry of the current G; an improving step is accepted
    and widens the kick (sigma * 1.2, at most 1), a rejected one narrows it
    (sigma * 0.97, at least 1e-3).  A restart's kicks and floors do not
    depend on acceptance, so the climb draws them up front and evaluates the
    next five steps as one stack, each with the sigma it has if every step
    before it in the window is rejected; the first improving step is
    accepted, the steps after it are discarded and the next window starts
    from it.  The window's candidates are kicked copies of G in one buffer
    that every window of the search refills, so only an accepted G is
    copied out.  The boundary mix and the Hermitian images run on the whole
    window, with the arithmetic each candidate gets alone.

    A candidate is better when the lowest eigenvalue of its image, as
    ``eigvalsh`` computes it, is below the current one.  A window asks that
    of its images with one stacked Cholesky of H - (current + delta) I
    (:func:`_first_better`): a candidate it factors is proved not better,
    since delta, 8 m^3 eps (F + |current|) for m = n d and F the window's
    Frobenius norm, exceeds the backward errors of Cholesky and of
    ``eigvalsh`` at the window's scale.
    Only the others get a spectrum, one at a time in window order, until
    one is below: the accepted step, whose two spectrum ends the climb
    keeps.  So every decision is the one ``eigvalsh`` alone makes, and the
    result is equal to the one-step climb for every input.  A window whose
    scale could overflow takes every spectrum in one stack, and raises
    :func:`_image_spectra`'s ScaleError where one of them overflows.

    Only the candidate a restart ends on is judged, against the PSD
    threshold :func:`psd_margin` gives the two ends of its own spectrum.
    The whole search runs in one floating-point state,
    ``np.errstate(**_SILENT)``; an overflow is reported by the ScaleError
    below, in the window where it appears, and never as a numpy warning.

    Deterministic in (seed, budget): restart r uses the stream seeded by
    (seed, r).  It draws G with :func:`ginibre`, then per step the kick's
    entry (i, j) and its value, ``rng.integers(nd)`` twice and
    ``rng.standard_normal() + 1j * rng.standard_normal()``: the stream of
    those Generator calls, which :func:`_kicks` reads off the raw bit
    stream with half as many calls.  Raises DimensionError when n or d is
    not an integer of at least 1, and DomainError when ``budget`` is not an
    integer or the images' spectra overflow.
    """
    budget = _integer(budget, "budget", DomainError)
    n, d = _trial_dims(phi, n, d)
    nd = n * d
    cand = np.empty((_WINDOW, nd, nd), dtype=complex)  # a window's kicked copies of G
    evaluations = 0
    restart = 0
    with np.errstate(**_SILENT):  # one floating-point state for the whole search
        while evaluations < budget:
            rng = np.random.default_rng([seed, restart])
            g = ginibre(rng, nd)
            steps = min(_STEPS_PER_RESTART, budget - evaluations - 1)
            kicks = _kicks(rng, nd, steps)
            x = _boundary_grams(g[None], n, _FLOORS[:1])
            w = _image_spectra(phi, _hermitian_images(phi, _split(x, n)), tol)
            # the ends of the current image's spectrum: its min_eig and top
            current, top, x = float(w[0, 0]), float(w[0, -1]), x[0]
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
                found = _first_better(phi, _hermitian_images(phi, _split(xs, n)), current, tol)
                if found is None:
                    step += k
                    continue
                a, current, top = found
                g, x = cand[a].copy(), xs[a]
                sigma = min(sigmas[a] * 1.2, 1.0)
                step += a + 1
            evaluations += 1 + step
            # the one threshold the restart reads: psd_margin's, of its last image
            if current < -10.0 * psd_margin((current, top), tol)[1]:
                return WitnessResult(
                    block=OperatorBlockMatrix.from_assembled(x, n),
                    min_eig=current,
                    evaluations=evaluations,
                    restart=restart,
                )
            if nd == 1:  # every restart climbs over the blocks of restart 0
                break
            restart += 1
    return None
