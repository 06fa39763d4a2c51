"""Command line front end.

    stormer-kit <check-psd|block-check|stormer-check|decompose|make-state|
                 ppt-check|map-test|selftest> [flags] [files]

Each handler ``cmd_<command>(args)`` returns only what it computed,
``(verdict, metrics[, artifacts[, message]])``: a bool verdict reads
``true``/``false``, a word such as ``degenerate`` reads as itself, and a
message says why the command failed.  :func:`main` builds every report, and
the ``Tolerance`` once, as ``args.tol``.

Exit codes: 1 when the verdict is false or a message is set, 0 otherwise,
and 2 on malformed input (stderr ``error: ...``; finite input whose
arithmetic overflows, a ``ScaleError``, is malformed, never a false
verdict) and on internal errors (stderr ``internal error: ...``).
Reports go to stdout (JSON with --json), diagnostics to stderr; identical
inputs, flags, and seed produce byte-identical reports.

A call is mostly interpreter and numpy start-up, so this module imports only
the standard library and ``errors``: each handler imports what it uses, and
a call loads only its own subcommand's modules.  The process entry,
:func:`run`, also keeps the cyclic garbage collector out of the call: a
one-shot process frees everything when it exits.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .errors import InputError, ScaleError, StormerKitError

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


def _check_flags(args) -> None:
    """Reject malformed numeric flags as input errors before any command
    runs; tolerances are checked by ``Tolerance`` itself."""
    if not 0.0 <= args.rcond < math.inf:
        raise InputError(f"--rcond must be finite and nonnegative, got {args.rcond!r}")
    if args.seed < 0:
        raise InputError(f"--seed must be nonnegative, got {args.seed}")
    if getattr(args, "witness_budget", 0) < 0:
        raise InputError(f"--witness-budget must be nonnegative, got {args.witness_budget}")


def _report(args, verdict, metrics, artifacts=None, message=None):
    """The report of a handler's result and the call's exit code."""
    if not isinstance(verdict, str):
        verdict = "true" if verdict else "false"
    report = {
        "command": args.command,
        "verdict": verdict,
        "metrics": metrics,
        "artifacts": artifacts or {},
        "seed": int(args.seed),
        "tolerance": {
            "abs_eps": float(args.tol_abs),
            "rel_eps": float(args.tol_rel),
            "rcond": float(args.rcond),
        },
    }
    if message is not None:
        report["message"] = message
    return report, EXIT_FAIL if verdict == "false" or message is not None else EXIT_OK


def _load_pair(args):
    from .io import load_matrix
    from .stormer import OperatorPair

    return OperatorPair(load_matrix(args.a1), load_matrix(args.a2))


def cmd_check_psd(args):
    from .io import load_matrix
    from .linalg import _psd_check, op_norm, require_square

    m = require_square(load_matrix(args.file))
    ok, lowest, _ = _psd_check(m, args.tol)
    return ok, {"min_eig": float(lowest), "op_norm": op_norm(m)}


def cmd_block_check(args):
    from .blocks import Partition2, assemble, psd_via_contraction
    from .io import load_partition_blocks
    from .linalg import _psd_check, op_norm

    a, b, c = load_partition_blocks(args.file)
    p = Partition2(a, b, c)
    cert = psd_via_contraction(p, args.tol, args.rcond)
    oracle, lowest, _ = _psd_check(assemble(p), args.tol)
    metrics = {
        "min_eig": float(lowest),
        "oracle_psd": int(oracle),
        "factorization_psd": int(cert.psd),
    }
    if math.isfinite(cert.residual):
        metrics["residual"] = float(cert.residual)
    if cert.w is not None:
        metrics["contraction_norm"] = op_norm(cert.w)
    return cert.psd, metrics


def _two_sided_metrics(x, tol):
    from .stormer import _two_sided

    direct, swapped = _two_sided(x, tol)
    metrics = {"min_eig_direct": float(direct[1]), "min_eig_swapped": float(swapped[1])}
    return direct[0] and swapped[0], metrics


def cmd_stormer_check(args):
    from .io import load_block
    from .stormer import gram_block

    if args.block is not None:
        x = load_block(args.block)
    elif args.a1 is not None and args.a2 is not None:
        x = gram_block(_load_pair(args))
    else:
        raise InputError("pass either --block or both --a1 and --a2")
    return _two_sided_metrics(x, args.tol)


def cmd_decompose(args):
    from .io import matrix_to_payload
    from .linalg import _rel_fro
    from .stormer import canonical_decomposition, gram_block, reconstruct_block

    pair = _load_pair(args)
    x = gram_block(pair)
    metrics = _two_sided_metrics(x, args.tol)[1]
    try:
        dec = canonical_decomposition(pair, args.tol, args.rcond)
    except ScaleError:
        raise  # an overflow is malformed input, not a verdict
    except StormerKitError as exc:
        verdict = "degenerate" if "degenerate" in str(exc) else False
        return verdict, metrics, None, str(exc)
    rec = reconstruct_block(dec).assembled()
    ref = x.assembled()
    metrics["residual"] = _rel_fro(rec - ref, ref)
    artifacts = {
        "alphas": [float(a) for a in dec.alphas],
        "lambdas": [[float(l.real), float(l.imag)] for l in dec.lambdas],
        "phis": matrix_to_payload(dec.phis),
        "es": matrix_to_payload(dec.es),
    }
    return "degenerate" if dec.degenerate else True, metrics, artifacts


def cmd_make_state(args):
    from .io import matrix_to_payload
    from .linalg import _rel_fro
    from .states import _ppt_check, separable_decomposition, separable_state, state_from_block
    from .stormer import canonical_decomposition, gram_block, stormer_test

    pair = _load_pair(args)
    tol = args.tol
    x = gram_block(pair)
    stormer_test(x, tol)  # kept on x: the state reuses its direct side
    rho = state_from_block(x, tol)
    metrics = {"min_eig_state": float(rho._lowest)}
    try:
        dec = canonical_decomposition(pair, tol, args.rcond)
    except ScaleError:
        raise  # an overflow is malformed input, not a verdict
    except StormerKitError as exc:
        return False, metrics, None, str(exc)
    sep = separable_decomposition(dec)
    metrics["residual"] = _rel_fro(separable_state(sep) - rho.matrix, rho.matrix)
    ppt, lowest, _ = _ppt_check(rho, tol)
    metrics["min_eig_partial_transpose"] = float(lowest)
    metrics["ppt"] = int(ppt)
    artifacts = {
        "state": matrix_to_payload(rho.matrix),
        "weights": [float(w) for w in sep.weights],
        "factor1": matrix_to_payload(sep.factor1),
        "factor2": matrix_to_payload(sep.factor2),
    }
    return ppt, metrics, artifacts


def cmd_ppt_check(args):
    from .io import load_matrix
    from .states import DensityState, _ppt_check

    rho = DensityState((args.n, args.d), load_matrix(args.state))
    ppt, lowest, _ = _ppt_check(rho, args.tol)
    return ppt, {"min_eig_partial_transpose": float(lowest)}


def cmd_map_test(args):
    from .io import block_to_payload, load_map_spec
    from .maps import theorem1_necessity_trial, witness_search

    phi = load_map_spec(args.map)
    rep = theorem1_necessity_trial(
        phi, seed=args.seed, trials=args.trials, n=args.n, d=args.d, tol=args.tol
    )
    metrics = {
        "trials": rep.trials,
        "violations": rep.violations,
        "worst_min_eig": float(rep.worst_min_eig),
    }
    if rep.violations > 0:
        return False, metrics
    if args.witness_budget > 0:
        found = witness_search(
            phi, seed=args.seed, budget=args.witness_budget, n=args.n, d=args.d, tol=args.tol
        )
        if found is not None:
            metrics["witness_min_eig"] = float(found.min_eig)
            metrics["witness_evaluations"] = found.evaluations
            return False, metrics, {"witness": block_to_payload(found.block)}
        metrics["witness_evaluations"] = args.witness_budget
        return "inconclusive", metrics
    return True, metrics


def cmd_selftest(args):
    from .selftest import run_selftest

    result = run_selftest(seed=args.seed, tol=args.tol)
    metrics = {name: int(suite["passed"]) for name, suite in result["suites"].items()}
    return result["passed"], metrics, {"suites": result["suites"]}


class _MapHelpFormatter(argparse.HelpFormatter):
    """Puts the named maps before ``--map``'s help only when help is printed,
    so that building the parser loads no map code."""

    def _get_help_string(self, action):
        if action.dest == "map":
            from .maps import NAMED_MAPS

            return " | ".join([*NAMED_MAPS, action.help])
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-10, help="absolute tolerance")
    common.add_argument("--tol-rel", type=float, default=1e-9, help="relative tolerance")
    common.add_argument("--rcond", type=float, default=1e-12, help="pseudoinverse cutoff")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    common.add_argument("--json", action="store_true", help="machine-readable report")

    parser = argparse.ArgumentParser(
        prog="stormer-kit",
        description="Block-matrix positivity and decomposability analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-psd", parents=[common], help="PSD test of a matrix file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_check_psd)

    p = sub.add_parser(
        "block-check",
        parents=[common],
        help="positivity of a partition {A,B,C} via contraction factorization",
    )
    p.add_argument("file")
    p.set_defaults(handler=cmd_block_check)

    p = sub.add_parser(
        "stormer-check",
        parents=[common],
        help="two-sided positivity of a Gram pair or a block file",
    )
    p.add_argument("--a1", help="matrix file for the first operator")
    p.add_argument("--a2", help="matrix file for the second operator")
    p.add_argument("--block", help="block matrix file")
    p.set_defaults(handler=cmd_stormer_check)

    p = sub.add_parser(
        "decompose", parents=[common], help="canonical decomposition of a Gram pair"
    )
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser(
        "make-state",
        parents=[common],
        help="normalized state, separable decomposition, and PPT verdict of a pair",
    )
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.set_defaults(handler=cmd_make_state)

    p = sub.add_parser("ppt-check", parents=[common], help="PPT test of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=int, required=True, help="first factor dimension")
    p.add_argument("--d", type=int, required=True, help="second factor dimension")
    p.set_defaults(handler=cmd_ppt_check)

    p = sub.add_parser(
        "map-test",
        parents=[common],
        help="necessity trials and optional witness search for a positive map",
        formatter_class=_MapHelpFormatter,
    )
    p.add_argument("--map", required=True, help="spec file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n", type=int, default=2, help="block count of trial matrices")
    p.add_argument("--d", type=int, default=None, help="block dimension (defaults to the map's)")
    p.add_argument("--witness-budget", type=int, default=0)
    p.set_defaults(handler=cmd_map_test)

    p = sub.add_parser("selftest", parents=[common], help="reduced invariant suites")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # Before numpy loads OpenBLAS: a thread pool costs start-up time and
        # buys nothing on matrices this small.  A value the user set wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        import numpy as np

        from .io import render_report
        from .linalg import Tolerance, _SILENT

        args.tol = Tolerance(abs_eps=args.tol_abs, rel_eps=args.tol_rel)
        # an overflow is reported as an input error, not as a numpy warning
        with np.errstate(**_SILENT):
            report, code = _report(args, *args.handler(args))
        out = render_report(report, args.json)
    except StormerKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not bad input; still no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(out)
    return code


def run() -> None:
    """The process entry of ``python -m stormer_kit.cli`` and of the
    ``stormer-kit`` script: :func:`main` on ``sys.argv``, then exit with its
    code.

    A one-shot process needs no cyclic garbage collection: the collector is
    off while the call runs, and the heap is frozen before exit, so
    interpreter shutdown does not walk every object ``import numpy`` made.
    Atexit handlers and the flush of stdout and stderr still run.  :func:`main`
    never touches the collector, so a program calling it keeps its own.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
