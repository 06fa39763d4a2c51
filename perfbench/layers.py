"""Per-layer metrics computed from a merged span summary (see spans.py).

"per op" divides by the workload's units of work in the traced cycles.  Self
time excludes child spans, so a layer's self time plus its callees' self
times add up to the traced wall time of the calls.  ``*_us`` metrics of
single functions are replay times: the captured arguments run again through
the untraced function after the traced cycles (0 when the workload never
called the function).
"""

from __future__ import annotations

import numpy as np

from spans import layer_of

# Span keys whose arguments are kept for replay.
CAPTURE = (
    "linalg.is_psd",
    "stormer.stormer_test",
    "stormer.canonical_decomposition",
    "stormer.spectral_resolution",
    "states.is_ppt",
    "states.state_from_block",
    "blocks.psd_via_contraction",
    "maps.apply_map_entrywise",
)


def _raw_eigvalsh(m, *args, **kwargs):
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))


# The same is_psd inputs, timed through bare numpy eigvalsh.
REFERENCES = {"linalg.is_psd": ("linalg.eigvalsh_raw", _raw_eigvalsh)}

LAPACK_COUNTS = ("eigvalsh", "eigh", "svd", "pinv", "qr", "cond", "schur")

PER_LAYER = [
    ("linalg.self_us_per_op", "us"),
    ("linalg.validate_us_per_op", "us"),
    ("linalg.is_psd_calls_per_op", "count"),
    ("linalg.op_norm_calls_per_op", "count"),
    ("linalg.eig_hermitian_calls_per_op", "count"),
    ("linalg.is_psd_us", "us"),
    ("linalg.eigvalsh_raw_us", "us"),
    ("linalg.is_psd_overhead_x", "ratio"),
    *[(f"lapack.{name}_per_op", "count") for name in LAPACK_COUNTS],
    ("lapack.self_share", "ratio"),
    ("stormer.self_us_per_op", "us"),
    ("stormer.stormer_test_us", "us"),
    ("stormer.canonical_decomposition_us", "us"),
    ("stormer.spectral_resolution_us", "us"),
    ("stormer.block_constructions_per_op", "count"),
    ("states.self_us_per_op", "us"),
    ("states.is_ppt_us", "us"),
    ("states.state_from_block_us", "us"),
    ("blocks.self_us_per_op", "us"),
    ("blocks.psd_via_contraction_us", "us"),
    ("maps.self_us_per_op", "us"),
    ("maps.apply_calls_per_op", "count"),
    ("maps.entrywise_us_kraus", "us"),
    ("maps.entrywise_us_choi_raw", "us"),
    ("maps.entrywise_us_named", "us"),
    ("maps.evals_to_witness", "count"),
    ("sampling.self_us_per_op", "us"),
    ("sampling.pair_accept_ratio", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.scipy_import_ms", "ms"),
    ("cli.handler_ms", "ms"),
    ("io.load_ms_per_op", "ms"),
    ("io.render_ms_per_op", "ms"),
    ("selftest.run_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

IO_LOAD = ("load_json", "load_matrix", "load_block", "load_partition_blocks", "load_map_spec",
           "matrix_from_payload", "block_from_payload")
IO_RENDER = ("render_report", "matrix_to_payload", "block_to_payload")


def per_layer(summary: dict, ops: int, untraced_ns_per_op: float, extras: dict) -> dict[str, float]:
    """All PER_LAYER values; ``extras`` supplies the ones measured outside
    the span summary (overhead, CLI timings, witness evaluations).

    ``untraced_ns_per_op`` is the busy time per unit of work of the untraced
    run: shares are taken of it, so the tracer's own overhead does not
    dilute them."""
    stats, replay = summary["stats"], summary["replay"]
    ops = max(ops, 1)

    def calls(key):
        return stats.get(key, (0, 0, 0))[0]

    def incl_ns(key):
        return stats.get(key, (0, 0, 0))[1]

    def self_ns(keys):
        return sum(stats.get(k, (0, 0, 0))[2] for k in keys)

    def layer_keys(layer):
        return [k for k in stats if layer_of(k) == layer and ":" not in k]

    def replay_us(key):
        n, total = replay.get(key, (0, 0.0))
        return total / n if n else 0.0

    def per_op_us(keys):
        return self_ns(keys) / 1000.0 / ops

    out = {
        "linalg.self_us_per_op": per_op_us(layer_keys("linalg")),
        "linalg.validate_us_per_op": per_op_us(["linalg.as_matrix", "linalg.require_square"]),
        "linalg.is_psd_calls_per_op": calls("linalg.is_psd") / ops,
        "linalg.op_norm_calls_per_op": calls("linalg.op_norm") / ops,
        "linalg.eig_hermitian_calls_per_op": calls("linalg.eig_hermitian") / ops,
        "linalg.is_psd_us": replay_us("linalg.is_psd"),
        "linalg.eigvalsh_raw_us": replay_us("linalg.eigvalsh_raw"),
    }
    raw = out["linalg.eigvalsh_raw_us"]
    out["linalg.is_psd_overhead_x"] = out["linalg.is_psd_us"] / raw if raw else 0.0
    for name in LAPACK_COUNTS:
        out[f"lapack.{name}_per_op"] = calls(f"lapack.{name}") / ops
    out["lapack.self_share"] = self_ns(layer_keys("lapack")) / ops / untraced_ns_per_op
    out.update({
        "stormer.self_us_per_op": per_op_us(layer_keys("stormer")),
        "stormer.stormer_test_us": replay_us("stormer.stormer_test"),
        "stormer.canonical_decomposition_us": replay_us("stormer.canonical_decomposition"),
        "stormer.spectral_resolution_us": replay_us("stormer.spectral_resolution"),
        "stormer.block_constructions_per_op": calls("stormer.OperatorBlockMatrix.__post_init__") / ops,
        "states.self_us_per_op": per_op_us(layer_keys("states")),
        "states.is_ppt_us": replay_us("states.is_ppt"),
        "states.state_from_block_us": replay_us("states.state_from_block"),
        "blocks.self_us_per_op": per_op_us(layer_keys("blocks")),
        "blocks.psd_via_contraction_us": replay_us("blocks.psd_via_contraction"),
        "maps.self_us_per_op": per_op_us(layer_keys("maps")),
        "maps.apply_calls_per_op": calls("maps.PositiveMap.apply") / ops,
        "maps.entrywise_us_kraus": replay_us("maps.apply_map_entrywise:kraus"),
        "maps.entrywise_us_choi_raw": replay_us("maps.apply_map_entrywise:choi_raw"),
        "maps.entrywise_us_named": replay_us("maps.apply_map_entrywise:named"),
        "maps.evals_to_witness": 0.0,
        "sampling.self_us_per_op": per_op_us(layer_keys("sampling")),
    })
    cond = calls("lapack.cond")
    out["sampling.pair_accept_ratio"] = calls("sampling.random_stormer_pair") / cond if cond else 0.0
    handlers = [k for k in layer_keys("cli") if k.startswith("cli.cmd_")]
    out["cli.interpreter_ms"] = 0.0
    out["cli.import_ms"] = 0.0
    out["cli.scipy_import_ms"] = 0.0
    out["cli.handler_ms"] = sum(incl_ns(k) for k in handlers) / 1e6 / ops
    out["io.load_ms_per_op"] = self_ns([f"io.{n}" for n in IO_LOAD]) / 1e6 / ops
    out["io.render_ms_per_op"] = self_ns([f"io.{n}" for n in IO_RENDER]) / 1e6 / ops
    runs = calls("selftest.run_selftest")
    out["selftest.run_ms"] = incl_ns("selftest.run_selftest") / 1e6 / runs if runs else 0.0
    out["trace.overhead_frac"] = 0.0
    out.update(extras)
    return out


def coverage_errors(stats: dict, required_spans, required_layers) -> list[str]:
    """Entry points and layers that recorded no span on the workload meant to
    exercise them (a missed import-site rebinding shows up here)."""
    errors = [f"span {k} never fired" for k in required_spans if stats.get(k, (0,))[0] == 0]
    layers = {layer_of(k) for k, v in stats.items() if v[0] > 0}
    errors += [f"layer {layer} recorded no span" for layer in required_layers if layer not in layers]
    return errors
