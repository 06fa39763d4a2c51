"""Command line front end.

    stormer-kit <check-psd|block-check|stormer-check|decompose|make-state|
                 ppt-check|map-test|selftest> [flags] [files]

Exit codes: 0 when the tested condition holds (or the run succeeded), 1 when
it fails (or a witness against a map was found), 2 on malformed input
(stderr ``error: ...``) and on internal errors (stderr ``internal error: ...``).
Reports go to stdout (JSON with --json), diagnostics to stderr; identical
inputs, flags, and seed produce byte-identical reports.

A call is mostly interpreter and numpy start-up, so this module imports only
the standard library and ``errors``: each handler imports what it uses, and
a call loads only its own subcommand's modules.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DomainError, InputError, StormerKitError

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


def _tol(args):
    from .linalg import Tolerance

    return Tolerance(abs_eps=args.tol_abs, rel_eps=args.tol_rel)


def _check_flags(args) -> None:
    """Reject malformed numeric flags as input errors before any command
    runs; tolerances are checked by ``Tolerance`` itself."""
    if not 0.0 <= args.rcond < math.inf:
        raise InputError(f"--rcond must be finite and nonnegative, got {args.rcond!r}")
    if args.seed < 0:
        raise InputError(f"--seed must be nonnegative, got {args.seed}")
    if getattr(args, "witness_budget", 0) < 0:
        raise InputError(f"--witness-budget must be nonnegative, got {args.witness_budget}")


def _report(args, command, verdict, metrics=None, artifacts=None, message=None):
    report = {
        "command": command,
        "verdict": verdict,
        "metrics": metrics or {},
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
    return report


def _verdict(flag: bool) -> str:
    return "true" if flag else "false"


def _load_pair(args):
    from .io import load_matrix
    from .stormer import OperatorPair

    return OperatorPair(load_matrix(args.a1), load_matrix(args.a2))


def cmd_check_psd(args):
    import numpy as np

    from .io import load_matrix
    from .linalg import _psd_check, op_norm, require_square

    m = require_square(load_matrix(args.file))
    with np.errstate(over="ignore", invalid="ignore"):
        ok, lowest, _ = _psd_check(m, _tol(args))
    if not math.isfinite(lowest):
        raise DomainError(
            f"spectrum overflows: matrix entries reach {np.abs(m).max():.3e}; "
            "rescale the matrix"
        )
    metrics = {"min_eig": float(lowest), "op_norm": op_norm(m)}
    return _report(args, "check-psd", _verdict(ok), metrics), EXIT_OK if ok else EXIT_FAIL


def cmd_block_check(args):
    from .blocks import Partition2, assemble, psd_via_contraction
    from .io import load_partition_blocks
    from .linalg import _psd_check, op_norm

    a, b, c = load_partition_blocks(args.file)
    p = Partition2(a, b, c)
    tol = _tol(args)
    cert = psd_via_contraction(p, tol, args.rcond)
    oracle, lowest, _ = _psd_check(assemble(p), tol)
    metrics = {
        "min_eig": float(lowest),
        "oracle_psd": int(oracle),
        "factorization_psd": int(cert.psd),
    }
    if math.isfinite(cert.residual):
        metrics["residual"] = float(cert.residual)
    if cert.w is not None:
        metrics["contraction_norm"] = op_norm(cert.w)
    return _report(args, "block-check", _verdict(cert.psd), metrics), (
        EXIT_OK if cert.psd else EXIT_FAIL
    )


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
    ok, metrics = _two_sided_metrics(x, _tol(args))
    return _report(args, "stormer-check", _verdict(ok), metrics), (
        EXIT_OK if ok else EXIT_FAIL
    )


def cmd_decompose(args):
    import numpy as np

    from .io import matrix_to_payload
    from .stormer import canonical_decomposition, gram_block, reconstruct_block

    pair = _load_pair(args)
    tol = _tol(args)
    x = gram_block(pair)
    metrics = _two_sided_metrics(x, tol)[1]
    try:
        dec = canonical_decomposition(pair, tol, args.rcond)
    except StormerKitError as exc:
        verdict = "degenerate" if "degenerate" in str(exc) else "false"
        return _report(args, "decompose", verdict, metrics, message=str(exc)), EXIT_FAIL
    rec = reconstruct_block(dec).assembled()
    ref = x.assembled()
    metrics["residual"] = float(np.linalg.norm(rec - ref) / max(np.linalg.norm(ref), 1e-300))
    artifacts = {
        "alphas": [float(a) for a in dec.alphas],
        "lambdas": [[float(l.real), float(l.imag)] for l in dec.lambdas],
        "phis": matrix_to_payload(dec.phis),
        "es": matrix_to_payload(dec.es),
    }
    verdict = "degenerate" if dec.degenerate else "true"
    return _report(args, "decompose", verdict, metrics, artifacts), EXIT_OK


def cmd_make_state(args):
    import numpy as np

    from .io import matrix_to_payload
    from .linalg import _psd_check
    from .states import (
        partial_transpose,
        separable_decomposition,
        separable_state,
        state_from_block,
    )
    from .stormer import canonical_decomposition, gram_block, stormer_test

    pair = _load_pair(args)
    tol = _tol(args)
    x = gram_block(pair)
    stormer_test(x, tol)  # kept on x: the state reuses its direct side
    rho = state_from_block(x, tol)
    metrics = {"min_eig_state": float(rho._lowest)}
    try:
        dec = canonical_decomposition(pair, tol, args.rcond)
    except StormerKitError as exc:
        return _report(args, "make-state", "false", metrics, message=str(exc)), EXIT_FAIL
    sep = separable_decomposition(dec)
    metrics["residual"] = float(
        np.linalg.norm(separable_state(sep) - rho.matrix) / np.linalg.norm(rho.matrix)
    )
    ppt, lowest, _ = _psd_check(partial_transpose(rho, 1), tol)
    metrics["min_eig_partial_transpose"] = float(lowest)
    metrics["ppt"] = int(ppt)
    artifacts = {
        "state": matrix_to_payload(rho.matrix),
        "weights": [float(w) for w in sep.weights],
        "factor1": matrix_to_payload(sep.factor1),
        "factor2": matrix_to_payload(sep.factor2),
    }
    return _report(args, "make-state", _verdict(ppt), metrics, artifacts), (
        EXIT_OK if ppt else EXIT_FAIL
    )


def cmd_ppt_check(args):
    from .io import load_matrix
    from .linalg import _psd_check
    from .states import DensityState, partial_transpose

    m = load_matrix(args.state)
    rho = DensityState((args.n, args.d), m)
    ppt, lowest, _ = _psd_check(partial_transpose(rho, 1), _tol(args))
    metrics = {"min_eig_partial_transpose": float(lowest)}
    return _report(args, "ppt-check", _verdict(ppt), metrics), (
        EXIT_OK if ppt else EXIT_FAIL
    )


def cmd_map_test(args):
    from .io import block_to_payload, load_map_spec
    from .maps import theorem1_necessity_trial, witness_search

    phi = load_map_spec(args.map)
    tol = _tol(args)
    rep = theorem1_necessity_trial(
        phi, seed=args.seed, trials=args.trials, n=args.n, d=args.d, tol=tol
    )
    metrics = {
        "trials": rep.trials,
        "violations": rep.violations,
        "worst_min_eig": float(rep.worst_min_eig),
    }
    if rep.violations > 0:
        return _report(args, "map-test", "false", metrics), EXIT_FAIL
    if args.witness_budget > 0:
        found = witness_search(
            phi, seed=args.seed, budget=args.witness_budget, n=args.n, d=args.d, tol=tol
        )
        if found is not None:
            metrics["witness_min_eig"] = float(found.min_eig)
            metrics["witness_evaluations"] = found.evaluations
            artifacts = {"witness": block_to_payload(found.block)}
            return _report(args, "map-test", "false", metrics, artifacts), EXIT_FAIL
        metrics["witness_evaluations"] = args.witness_budget
        return _report(args, "map-test", "inconclusive", metrics), EXIT_OK
    return _report(args, "map-test", "true", metrics), EXIT_OK


def cmd_selftest(args):
    from .selftest import run_selftest

    result = run_selftest(seed=args.seed, tol=_tol(args))
    metrics = {name: int(suite["passed"]) for name, suite in result["suites"].items()}
    artifacts = {"suites": result["suites"]}
    ok = result["passed"]
    return _report(args, "selftest", _verdict(ok), metrics, artifacts), (
        EXIT_OK if ok else EXIT_FAIL
    )


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
        report, code = args.handler(args)
        from .io import render_report

        out = render_report(report, args.json)
    except StormerKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not bad input; still no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
