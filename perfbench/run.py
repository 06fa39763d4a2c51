#!/usr/bin/env python3
"""stormer-kit benchmark.

    python3 perfbench/run.py --workload {necessity,witness,decompose,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a stormer-kit checkout; the library is imported from
its ``src/`` (no install needed).  One client, closed loop: each call returns
before the next starts.  Every call's output is checked.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds provenance (revision, versions, sample counts).

``--trace 0`` measures the end-to-end metrics for S seconds (whole cycles of
the workload's input mix).  ``--trace 1`` runs S/2 seconds untraced, then
the workload's fixed traced cycles with every stormer_kit function wrapped,
and reports the per-layer metrics.  See README.md for the definitions.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import CAPTURE, PER_LAYER, REFERENCES, coverage_errors, per_layer  # noqa: E402
from spans import Tracer, merge  # noqa: E402
from workloads import REQUIRED_FILES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 4
PROBE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 0.5
LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_ref": "1/ref",
    "call_p50_ref": "ref",
    "call_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


class Record:
    """Timed calls of one phase: durations, units of work, failures, and
    the reference probes taken between the calls."""

    def __init__(self, probe=None, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.durations: list[float] = []
        self.midpoints: list[float] = []
        self.units = 0
        self.cycles: list[tuple[int, int, int]] = []  # first call, end call, units
        self.failed = 0
        self.errors: list[str] = []
        self.probe_at: list[float] = []
        self.reference_s: list[float] = []
        self._next_probe = 0.0

    def run(self, call) -> None:
        exc = None
        t0 = time.perf_counter()
        try:
            out = call.fn()
        except Exception as e:  # an unexpected exception is a failed call
            exc = e
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        self.midpoints.append(t0 + dt / 2)
        if self.tracer is not None:
            self.tracer.active = False
        try:
            if exc is not None:
                units, errors = 0, [f"unexpected {type(exc).__name__}: {exc}"]
            else:
                units, errors = call.check(out)
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        if errors:
            self.failed += 1
            self.errors += [f"{call.label}: {e}" for e in errors]
        else:
            self.units += units
        if self.probe is not None and time.perf_counter() >= self._next_probe:
            self.reference_s.append(self.probe())
            self.probe_at.append(time.perf_counter())
            self._next_probe = self.probe_at[-1] + PROBE_EVERY_S

    def run_cycles(self, wl, indices) -> "Record":
        for i in indices:
            units, first = self.units, len(self.durations)
            for call in wl.cycle(i):
                self.run(call)
            self.cycles.append((first, len(self.durations), self.units - units))
        return self

    def rate(self, durations) -> float:
        """Median over cycles of work units per unit of the given per-call
        durations: a cycle that a stall of the host slowed moves it less
        than it moves the mean."""
        return statistics.median(u / sum(durations[a:b]) for a, b, u in self.cycles)

    @property
    def work_per_s(self) -> float:
        return self.rate(self.durations)

    def in_reference_units(self) -> np.ndarray:
        """Each call's duration divided by the mean reference time probed
        within REFERENCE_WINDOW_S of the call's midpoint (the nearest probe
        if none is), so the host's speed at that moment cancels."""
        at, ref = np.array(self.probe_at), self.reference_s
        lows = np.searchsorted(at, np.array(self.midpoints) - REFERENCE_WINDOW_S)
        highs = np.searchsorted(at, np.array(self.midpoints) + REFERENCE_WINDOW_S)
        out = []
        for d, mid, lo, hi in zip(self.durations, self.midpoints, lows, highs):
            local = ref[lo:hi] if hi > lo else [ref[int(np.argmin(np.abs(at - mid)))]]
            out.append(d / statistics.fmean(local))
        return np.array(out)


def run_for(wl, seconds: float) -> Record:
    """Whole cycles (at least one) until the next cycle, at the mean cycle
    time so far, would end more than half a cycle past ``seconds``."""
    rec = Record(probe=wl.probe)
    t0 = time.perf_counter()
    i = 0
    while True:
        rec.run_cycles(wl, [i])
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / i >= seconds:
            return rec


def tail_percentile(n: int, wanted: float) -> float:
    """The workload's tail percentile, lowered along LADDER until at least
    ten samples lie beyond it."""
    fits = [p for p in LADDER if p <= wanted and n * (100.0 - p) / 100.0 >= 10]
    return max(fits) if fits else LADDER[0]


def setup_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_revision() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository's revision.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, samples: dict) -> dict:
    import importlib.metadata

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "samples": samples,
    }


def end_to_end(wl, rec: Record, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end values; timings are in units of the reference time
    around each call (see reference.py), and the provenance keeps them in
    seconds too."""
    ms = np.array(rec.durations) * 1000.0
    refs = rec.in_reference_units()
    pct = tail_percentile(len(ms), wl.tail_pct)
    p50_ms, tail_ms = float(np.percentile(ms, 50)), float(np.percentile(ms, pct))
    ref_ms = 1000.0 * statistics.median(rec.reference_s)
    if wl.name == "cli":
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "work_per_ref": rec.rate(refs),
        "call_p50_ref": float(np.percentile(refs, 50)),
        "call_tail_ref": float(np.percentile(refs, pct)),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    samples = {
        "setup_s": {"runs": len(setup), "values": setup},
        "reference": {"probes": len(rec.reference_s), "median_ms": ref_ms},
        "work_per_s": {
            "value": rec.work_per_s, "units": rec.units, "unit": wl.unit, "busy_s": sum(rec.durations),
            "cycles": len(rec.cycles),
        },
        "call_p50_ms": {"value": p50_ms, "percentile": 50.0, "samples": len(ms)},
        "call_tail_ms": {"value": tail_ms, "percentile": pct, "samples": len(ms), "beyond": int((ms > tail_ms).sum())},
    }
    return values, samples


def traced_run(wl, seconds: float) -> tuple[list[Record], dict, dict, list[str]]:
    untraced = run_for(wl, seconds / 2.0)
    if wl.name == "cli":
        wl.traced = True
        traced = Record().run_cycles(wl, wl.traced_cycles)
        summary = merge(wl.traces)
        missed = sorted({m for t in wl.traces for m in t["missed"]})
    else:
        tracer = Tracer(capture=CAPTURE, tags=wl.tags)
        tracer.install()
        missed = tracer.missed()
        try:
            traced = Record(tracer=tracer).run_cycles(wl, wl.traced_cycles)
        finally:
            tracer.uninstall()
        summary = tracer.summary(REFERENCES)
    errors = [f"import site not rebound: {m}" for m in missed]
    errors += coverage_errors(summary["stats"], wl.required_spans, wl.required_layers)
    extras = wl.layer_extras()
    extras["trace.overhead_frac"] = untraced.work_per_s / traced.work_per_s - 1.0
    untraced_ns_per_op = sum(untraced.durations) * 1e9 / max(untraced.units, 1)
    values = per_layer(summary, traced.units, untraced_ns_per_op, extras)
    samples = {
        "traced_units": traced.units,
        "traced_calls": len(traced.durations),
        "untraced_calls": len(untraced.durations),
        "spans": {k: v[0] for k, v in sorted(summary["stats"].items())},
    }
    return [untraced, traced], values, samples, errors


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print set-up time, exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in REQUIRED_FILES if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a stormer-kit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    setup = [time.perf_counter() - _T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0

    if args.trace:
        records, values, samples, errors = traced_run(wl, args.seconds)
        if errors:
            print("perfbench: benchmark error in traced run:\n  " + "\n  ".join(errors), file=sys.stderr)
            return 3
        units = dict(PER_LAYER)
    else:
        # Set-up children run on both sides of the timed calls, so the median
        # samples the host's speed at two times.
        setup += [setup_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN // 2)]
        rec = run_for(wl, args.seconds)
        setup += [setup_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
        records = [rec]
        values, samples = end_to_end(wl, rec, setup)
        units = END_TO_END_UNITS

    attempted = sum(len(r.durations) for r in records)
    failed = sum(r.failed for r in records)
    for r in records:
        for e in r.errors[:20]:
            print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, samples)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
