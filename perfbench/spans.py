"""Span tracer that instruments stormer_kit from outside the package.

``Tracer.install`` wraps every public function and every public method (and
dataclass ``__post_init__``) defined in the stormer_kit modules, and rebinds
each wrapped name at every import site: modules do ``from .linalg import
is_psd``, so the name is replaced in every ``stormer_kit.*`` namespace that
holds it, the package namespace included.  LAPACK entry points
(``numpy.linalg.{eigvalsh,eigh,svd,pinv,qr,cond}`` and
``scipy.linalg.schur``) are wrapped the same way, as the ``lapack`` layer.

A span records calls, inclusive time and self time (inclusive minus the time
covered by child spans).  Spans stay in memory; ``summary`` returns them as a
JSON-serializable dict whose numbers add up across processes, so traces of
CLI child processes merge into one.  A deterministic reservoir keeps a few
argument tuples per captured function; after ``uninstall`` they are replayed
through the original functions to time them without tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import statistics
import sys
from time import perf_counter_ns

LAYERS = ("linalg", "blocks", "stormer", "states", "maps", "sampling", "io", "cli", "selftest")
LAPACK = (
    ("numpy.linalg", ("eigvalsh", "eigh", "svd", "pinv", "qr", "cond")),
    ("scipy.linalg", ("schur",)),
)
REPLAY_REPEATS = 5
SAMPLE_SIZE = 24  # captured argument tuples kept per span key


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    """Wraps the library in place; spans are recorded only while ``active``.

    ``capture`` names the span keys whose arguments are kept for replay.
    ``tags`` maps ``id(first argument)`` to a label: calls of a wrapped
    function whose first argument is tagged are also recorded under
    ``"<key>:<label>"`` (used to split entrywise map application by map
    representation).
    """

    def __init__(self, capture=(), tags=None):
        self.active = False
        self.stats: dict[str, list[int]] = {}
        self.capture = set(capture)
        self.tags = dict(tags or {})
        self.samples: dict[str, list] = {}
        self._seen: dict[str, int] = {}
        self._rng = random.Random(0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets: set[int] = set()

    # -- recording -------------------------------------------------------

    def _record(self, key: str, dt: int, self_ns: int) -> None:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0, 0]
        st[0] += 1
        st[1] += dt
        st[2] += self_ns

    def _keep(self, key: str, fn, args, kwargs) -> None:
        seen = self._seen.get(key, 0) + 1
        self._seen[key] = seen
        kept = self.samples.setdefault(key, [])
        if len(kept) < SAMPLE_SIZE:
            kept.append((fn, args, kwargs))
        else:
            j = self._rng.randrange(seen)
            if j < SAMPLE_SIZE:
                kept[j] = (fn, args, kwargs)

    def _wrap(self, fn, key: str):
        tracer = self
        stack = self._stack
        capture = key in self.capture
        tags = self.tags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                tracer._record(key, dt, dt - child)
                tag = tags.get(id(args[0])) if args and tags else None
                if tag is not None:
                    tracer._record(f"{key}:{tag}", dt, dt - child)
                if capture:
                    tracer._keep(key if tag is None else f"{key}:{tag}", fn, args, kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the library and LAPACK entry points.

        A LAPACK module is instrumented only if something imported it
        already, so the tracer never imports ``scipy.linalg`` itself.
        """
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"stormer_kit.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                    self._targets.add(id(obj))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "stormer_kit"]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for modname, names in LAPACK:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for name in names:
                self._patch(mod, name, self._wrap(getattr(mod, name), f"lapack.{name}"))
        self.active = True

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr != "__post_init__" and attr.startswith("_"):
                continue
            key = f"{prefix}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, key))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, key)))

    def missed(self) -> list[str]:
        """Import sites still bound to an unwrapped library function."""
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "stormer_kit":
                continue
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in self._targets:
                    out.append(f"{modname}.{name}")
        return out

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- replay and summary ----------------------------------------------

    def replay(self, references=None) -> dict[str, list[float]]:
        """Time each captured call through the original function.

        Returns ``{key: [inputs, total_us]}``, with each input's time the
        median of ``REPLAY_REPEATS`` runs.  ``references`` maps a captured key
        to ``(name, fn)``: ``fn`` is timed on the same arguments and recorded
        under ``name``.
        """
        references = references or {}
        out: dict[str, list[float]] = {}
        for key, kept in sorted(self.samples.items()):
            for name, ref in [(key, None)] + ([references[key]] if key in references else []):
                times = [_median_call_us(ref or fn, args, kwargs) for fn, args, kwargs in kept]
                out[name] = [len(times), sum(times)]
        return out

    def summary(self, references=None) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "replay": self.replay(references),
        }


def _median_call_us(fn, args, kwargs) -> float:
    times = []
    for _ in range(REPLAY_REPEATS):
        t0 = perf_counter_ns()
        try:
            fn(*args, **kwargs)
        except ValueError:  # library errors derive from ValueError (e.g. DomainError)
            pass
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1000.0


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    stats: dict[str, list[int]] = {}
    replay: dict[str, list[float]] = {}
    for s in summaries:
        for k, v in s["stats"].items():
            acc = stats.setdefault(k, [0, 0, 0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in s["replay"].items():
            acc = replay.setdefault(k, [0, 0.0])
            acc[0] += v[0]
            acc[1] += v[1]
    return {"stats": stats, "replay": replay}
