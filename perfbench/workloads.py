"""The four benchmark workloads.

Each workload is built from the repository root and the workload seed; its
constructor is the set-up (imports, inputs, fixtures, warm-up).  ``cycle(i)``
returns the calls of cycle ``i``: a cycle is always run whole, so every
measurement covers the same mix of inputs.  A call is ``(label, fn, check)``:
``fn()`` is the timed library work and ``check(result)`` returns
``(units of work, errors)``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks
import reference

WITNESS_FIXTURE = Path("tests/fixtures/choi3_witness.json")
GOLDEN_SCRIPT = Path("scripts/regen_golden.py")
REQUIRED_FILES = (Path("src/stormer_kit/__init__.py"), WITNESS_FIXTURE, GOLDEN_SCRIPT)
TRACE_MARKER = b"perfbench-trace "
CHILD_TIMEOUT_S = 120.0


class Call(NamedTuple):
    label: str
    fn: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]


def load_library(root: Path):
    """Import stormer_kit from the working tree's src/, never an installed copy."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import stormer_kit

    if Path(stormer_kit.__file__).resolve().parent != (root / "src" / "stormer_kit").resolve():
        raise RuntimeError(f"stormer_kit imported from {stormer_kit.__file__}, not {src}")
    return stormer_kit


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def kraus_family(sk, rng: np.random.Generator, k: int, l: int, most: int) -> list[np.ndarray]:
    """1 to ``most`` random l x k Kraus operators.  The count depends on
    (k, l) alone, so the cost of the map mix is the same for every seed."""
    return [sk.ginibre(rng, l, k) for _ in range(1 + (k + l) % most)]


class Workload:
    name = ""
    unit = ""
    tail_pct = 50.0
    traced_cycles = range(1)
    # Entry points the workload calls and layers it must reach; a traced run
    # in which one of them records no span is a benchmark error.
    required_spans: tuple[str, ...] = ()
    required_layers: tuple[str, ...] = ()
    tags: dict[int, str] = {}

    def probe(self) -> float:
        """Seconds of reference work of the same kind as the workload's calls
        (see reference.py)."""
        return reference.probe()

    def cycle(self, i: int) -> list[Call]:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values measured outside the span summary."""
        return {}


class Necessity(Workload):
    """theorem1_necessity_trial over a mix of decomposable maps: identity,
    transpose, CP, co-CP and CP+co-CP Kraus maps on every (k, l) in
    {2, 3, 4}^2, and Choi-matrix twins of the CP+co-CP maps; n in {2, 3}."""

    name, unit = "necessity", "trials"
    tail_pct = 98.0
    TRIALS = 20
    required_spans = ("maps.theorem1_necessity_trial",)
    required_layers = ("maps", "sampling", "lapack")

    def __init__(self, root: Path, seed: int):
        sk = self.sk = load_library(root)
        rng = np.random.default_rng([seed, 1])
        maps = [(sk.identity_map(), 3, "named"), (sk.transpose_map(), 3, "named")]
        for family in ("cp", "cocp", "sum"):
            most = 2 if family == "sum" else 3  # Kraus operators per part, as in C06
            for k in (2, 3, 4):
                for l in (2, 3, 4):
                    cp = kraus_family(sk, rng, k, l, most) if family != "cocp" else []
                    cocp = kraus_family(sk, rng, k, l, most) if family != "cp" else []
                    phi = sk.make_decomposable(cp, cocp)
                    maps.append((phi, k, "kraus"))
                    if family == "sum":
                        maps.append((sk.map_from_choi(sk.choi_matrix(phi), k), k, "choi_raw"))
        self.configs = [(phi, d, n) for phi, d, _ in maps for n in (2, 3)]
        self.tags = {id(phi): kind for phi, _, kind in maps}
        self.seed = seed
        for phi, d, n in self.configs:
            sk.theorem1_necessity_trial(phi, seed=0, trials=1, n=n, d=d)

    def cycle(self, i: int) -> list[Call]:
        calls = []
        for j, (phi, d, n) in enumerate(self.configs):
            s = derived_seed(self.seed, i, j)

            def fn(phi=phi, d=d, n=n, s=s):
                return self.sk.theorem1_necessity_trial(phi, seed=s, trials=self.TRIALS, n=n, d=d)

            def check(rep, d=d, n=n):
                return self.TRIALS, checks.check_necessity(rep, self.TRIALS, n, d)

            calls.append(Call(f"necessity[{j}] n={n} d={d}", fn, check))
        return calls


class Witness(Workload):
    """witness_search against the choi3 map.  Cycle 0 replays the frozen
    seed-42 search with its full budget; every later cycle searches from a
    seed derived from the workload seed with a budget of one restart.

    Without a budget a search's time depends on the seed (0.2-4 s for seeds
    42-46).  One restart is exactly BUDGET evaluations whether or not it
    finds a witness, so every derived call does the same work and its
    latency follows only the program and the machine."""

    name, unit = "witness", "evaluations"
    tail_pct = 90.0
    BUDGET = 601  # witness_search's first evaluation plus its 600 steps per restart
    traced_cycles = range(1, 3)
    required_spans = ("maps.witness_search",)
    required_layers = ("maps", "lapack")

    def __init__(self, root: Path, seed: int):
        sk = self.sk = load_library(root)
        self.fixture = json.loads((root / WITNESS_FIXTURE).read_text())
        self.phi = sk.choi_fixture()
        self.tags = {id(self.phi): "named"}
        self.seed = seed
        self.evaluations: dict[int, int] = {}
        sk.witness_search(self.phi, seed=0, budget=2, n=3, d=3)

    def cycle(self, i: int) -> list[Call]:
        fx = self.fixture
        if i == 0:
            seed, budget = fx["seed"], fx["budget"]
        else:
            seed, budget = derived_seed(self.seed, i), self.BUDGET

        def fn():
            return self.sk.witness_search(self.phi, seed=seed, budget=budget, n=fx["n"], d=fx["d"])

        def check(res):
            if res is None:
                self.evaluations[i] = budget
                if i == 0:
                    return budget, ["seed-42 replay found no witness"]
                return budget, []
            self.evaluations[i] = res.evaluations
            errors = checks.check_witness(res.block.blocks, bool(self.sk.stormer_test(res.block)))
            if i == 0:
                errors += checks.check_replay(res.evaluations, res.restart, res.block.blocks, fx)
            return res.evaluations, errors

        return [Call(f"witness[{i}] seed={seed}", fn, check)]

    def layer_extras(self) -> dict[str, float]:
        cycles = [0, *self.traced_cycles]
        return {"maps.evals_to_witness": sum(self.evaluations.get(i, 0) for i in cycles)}


class Decompose(Workload):
    """Per-instance chain on a pool of inputs: passing pairs (d = 2..6),
    failing pairs (a2 = T a1, T non-normal; d = 2..6), and the four
    random_partition kinds checked by contraction factorization and oracle.
    A cycle is the whole pool, BATCHES of those 14 inputs."""

    name, unit = "decompose", "instances"
    tail_pct = 98.0
    BATCHES = 16
    required_spans = (
        "stormer.OperatorPair.__post_init__",
        "stormer.gram_block",
        "stormer.stormer_test",
        "stormer.canonical_decomposition",
        "stormer.dual_decomposition",
        "stormer.reconstruct_block",
        "states.state_from_block",
        "states.is_ppt",
        "states.separable_decomposition",
        "blocks.Partition2.__post_init__",
        "blocks.psd_via_contraction",
        "blocks.psd_oracle",
    )
    required_layers = ("linalg", "lapack")

    def __init__(self, root: Path, seed: int):
        sk = self.sk = load_library(root)
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        sizes = [(n, k) for n in range(1, 6) for k in range(1, 6)]
        for batch in range(self.BATCHES):
            for d in range(2, 7):
                pair = sk.random_stormer_pair(rng, d)
                self.pool.append(("pass", pair.a1, pair.a2))
            for d in range(2, 7):
                a1 = sk.random_stormer_pair(rng, d).a1
                t = sk.ginibre(rng, d) + np.triu(np.ones((d, d)), 1)  # far from normal
                self.pool.append(("fail", a1, t @ a1))
            for slot, kind in enumerate(("psd", "inflated", "indefinite", "singular")):
                # Partition sizes follow a fixed schedule, the same for every seed.
                n, k = sizes[(4 * batch + slot) % len(sizes)]
                self.pool.append(("partition", *sk.sampling.random_partition(rng, n, k, kind)))
        for call in self.cycle(0)[: len(self.pool) // self.BATCHES]:
            call.fn()

    def _pass_chain(self, a1, a2) -> dict:
        sk = self.sk
        pair = sk.OperatorPair(a1, a2)
        x = sk.gram_block(pair)
        ok = sk.stormer_test(x)
        dec = sk.canonical_decomposition(pair)
        dual = sk.dual_decomposition(pair)
        rec, rec_dual = sk.reconstruct_block(dec), sk.reconstruct_block(dual)
        rho = sk.state_from_block(x)
        return {
            "stormer": ok,
            "degenerate": dec.degenerate or dual.degenerate,
            "reconstructed": rec.blocks,
            "reconstructed_dual": rec_dual.blocks,
            "state": rho.matrix,
            "ppt": sk.is_ppt(rho),
            "separable": sk.separable_decomposition(dec),
        }

    def _fail_chain(self, a1, a2) -> dict:
        sk = self.sk
        pair = sk.OperatorPair(a1, a2)
        ok = sk.stormer_test(sk.gram_block(pair))
        try:
            sk.canonical_decomposition(pair)
            error = None
        except sk.DomainError:
            error = "DomainError"
        return {"stormer": ok, "error": error}

    def _partition(self, a, b, c):
        p = self.sk.Partition2(a, b, c)
        return self.sk.psd_via_contraction(p), self.sk.psd_oracle(p)

    def cycle(self, i: int) -> list[Call]:
        calls = []
        for j, (kind, *args) in enumerate(self.pool):
            label = f"decompose[{j}] {kind}"
            if kind == "pass":
                calls.append(Call(
                    label,
                    lambda args=args: self._pass_chain(*args),
                    lambda out, args=args: (1, checks.check_decompose_pass(*args, out)),
                ))
            elif kind == "fail":
                calls.append(Call(
                    label,
                    lambda args=args: self._fail_chain(*args),
                    lambda out: (1, checks.check_decompose_fail(out)),
                ))
            else:
                calls.append(Call(
                    label,
                    lambda args=args: self._partition(*args),
                    lambda out, args=args: (
                        1, checks.check_partition(*args, out[0].psd, out[1], out[0].residual)
                    ),
                ))
        return calls


class ChildResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(cmd: list[str], env: dict, cwd: Path) -> ChildResult:
    """Run a process to completion and return its own peak RSS (wait4)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    # Reaped by wait4 above; recording the code stops Popen from waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err[0], usage.ru_maxrss)


class Cli(Workload):
    """The golden CLI cases of scripts/regen_golden.py, round-robin, each a
    fresh ``python -m stormer_kit.cli ... --json`` process; exit code and
    stdout must match tests/fixtures/golden/ byte for byte."""

    name, unit = "cli", "invocations"
    tail_pct = 75.0
    required_spans = ("cli.main",)
    required_layers = ("cli", "io", "selftest")

    def __init__(self, root: Path, seed: int):
        spec = importlib.util.spec_from_file_location("regen_golden", root / GOLDEN_SCRIPT)
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        self.root = root
        cases = []
        for name, (code, argv) in regen.CASES.items():
            argv = [str(regen.FIXTURES / a) if a.endswith(".json") else a for a in argv]
            cases.append((name, code, [*argv, "--json"], (regen.GOLDEN / f"{name}.json").read_bytes()))
        start = seed % len(cases)
        self.cases = cases[start:] + cases[:start]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.peak_rss_kb = 0
        self.traces: list[dict] = []
        self.traced = False
        run_child([sys.executable, "-m", "stormer_kit.cli", *self.cases[0][2]], self.env, root)

    def cycle(self, i: int) -> list[Call]:
        return [self._call(*case) for case in self.cases]

    def _call(self, name, code, argv, golden) -> Call:
        def fn():
            if self.traced:
                cmd = [sys.executable, "-X", "importtime", str(self.root / "perfbench" / "cli_child.py")]
            else:
                cmd = [sys.executable, "-m", "stormer_kit.cli"]
            return run_child([*cmd, *argv], self.env, self.root)

        def check(res: ChildResult):
            self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
            errors = checks.check_cli(code, golden, res.code, res.stdout)
            if self.traced:
                trace, scipy_us = parse_child_trace(res.stderr)
                if trace is None:
                    errors.append("traced child wrote no trace")
                else:
                    trace["scipy_import_us"] = scipy_us
                    self.traces.append(trace)
            return 1, errors

        return Call(f"cli {name}", fn, check)

    def probe(self) -> float:
        """A bare interpreter start: a CLI call is mostly start-up and
        imports, which a shared host slows unlike in-process numpy work."""
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], self.env, self.root)
        return time.perf_counter() - t0

    def layer_extras(self) -> dict[str, float]:
        n = max(len(self.traces), 1)
        return {
            "cli.interpreter_ms": 1000.0 * float(np.median([self.probe() for _ in range(5)])),
            "cli.import_ms": sum(t["import_ms"] for t in self.traces) / n,
            "cli.scipy_import_ms": sum(t["scipy_import_us"] for t in self.traces) / n / 1000.0,
        }


def parse_child_trace(stderr: bytes) -> tuple[dict | None, float]:
    """The traced child's span summary and, from ``-X importtime``, the
    cumulative microseconds spent importing scipy.linalg (0 if never)."""
    trace, scipy_us = None, 0.0
    for line in stderr.splitlines():
        if line.startswith(TRACE_MARKER):
            trace = json.loads(line[len(TRACE_MARKER):])
        elif line.startswith(b"import time:"):
            fields = line.split(b"|")
            if len(fields) == 3 and fields[2].strip() == b"scipy.linalg":
                scipy_us += float(fields[1])
    return trace, scipy_us


WORKLOADS = {w.name: w for w in (Necessity, Witness, Decompose, Cli)}
