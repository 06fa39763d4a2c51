"""JSON file formats and report rendering for the command line tools.

A matrix file is ``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with the
entries row-major; a block file is ``{"n": n, "d": d, "blocks": [[matrix,
...], ...]}``; a partition file is ``{"A": matrix, "B": matrix, "C": matrix}``.
Map specs are either a name from ``NAMED_MAPS`` (identity, transpose, choi3)
or a JSON object with Kraus or Choi data or such a name.  Reports serialize
with sorted keys so that identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:  # imported inside their users: a matrix file needs neither
    from .maps import PositiveMap
    from .stormer import OperatorBlockMatrix

__all__ = [
    "block_from_payload",
    "block_to_payload",
    "load_block",
    "load_json",
    "load_map_spec",
    "load_matrix",
    "load_partition_blocks",
    "matrix_from_payload",
    "matrix_to_payload",
    "render_report",
]


def _int_field(obj: dict, key: str) -> int:
    """``obj[key]`` when it is a JSON integer; booleans and floats are not."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value


def matrix_to_payload(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_payload(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("matrix payload must be a JSON object")
    try:
        rows, cols = _int_field(obj, "rows"), _int_field(obj, "cols")
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"matrix payload missing or malformed field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InputError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(f"matrix data must hold {rows * cols} entries")
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"entry {i} must be a [re, im] pair")
        re, im = entry
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
            raise InputError(f"entry {i} must hold numbers")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer too large for a double
            finite = False
        if not finite:
            raise InputError(f"entry {i} is not finite")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)


def block_to_payload(x: OperatorBlockMatrix) -> dict:
    return {
        "n": x.n,
        "d": x.d,
        "blocks": [
            [matrix_to_payload(x.blocks[i, j]) for j in range(x.n)] for i in range(x.n)
        ],
    }


def block_from_payload(obj) -> OperatorBlockMatrix:
    from .stormer import OperatorBlockMatrix

    if not isinstance(obj, dict):
        raise InputError("block payload must be a JSON object")
    try:
        n, d = _int_field(obj, "n"), _int_field(obj, "d")
        rows = obj["blocks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"block payload missing or malformed field: {exc}") from exc
    if n < 1 or d < 1:
        raise InputError("block counts must be positive")
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise InputError(f"blocks must be an {n} x {n} nested list")
    blocks = np.empty((n, n, d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            m = matrix_from_payload(rows[i][j])
            if m.shape != (d, d):
                raise InputError(f"block ({i},{j}) must be {d} x {d}, got {m.shape}")
            blocks[i, j] = m
    return OperatorBlockMatrix(blocks)


def load_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_payload(load_json(path))


def load_block(path) -> OperatorBlockMatrix:
    return block_from_payload(load_json(path))


def load_partition_blocks(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    obj = load_json(path)
    if not isinstance(obj, dict) or not all(key in obj for key in ("A", "B", "C")):
        raise InputError("partition file must hold matrix payloads under A, B, C")
    return (
        matrix_from_payload(obj["A"]),
        matrix_from_payload(obj["B"]),
        matrix_from_payload(obj["C"]),
    )


def load_map_spec(spec: str) -> PositiveMap:
    """A name from ``NAMED_MAPS`` (short for a named spec), or a path to a
    JSON map spec."""
    from .maps import NAMED_MAPS, PositiveMap, make_decomposable, map_from_choi

    obj = {"kind": "named", "name": spec} if spec in NAMED_MAPS else load_json(spec)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("map spec must be a JSON object with a 'kind' field")
    kind = obj["kind"]
    if kind == "named":
        name = obj.get("name")
        if not isinstance(name, str) or name not in NAMED_MAPS:
            raise InputError(f"named map must be one of {list(NAMED_MAPS)}, got {name!r}")
        return PositiveMap(kind="named", name=name)
    if kind == "kraus":
        cp, cocp = obj.get("cp", []), obj.get("cocp", [])
        if not (isinstance(cp, list) and isinstance(cocp, list)):
            raise InputError("kraus map spec needs lists of matrices under cp and cocp")
        try:
            return make_decomposable(
                [matrix_from_payload(k) for k in cp], [matrix_from_payload(k) for k in cocp]
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if kind == "choi":
        try:
            return map_from_choi(matrix_from_payload(obj["choi"]), _int_field(obj, "input_dim"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed choi map spec: {exc}") from exc
    raise InputError(f"unknown map spec kind {kind!r}")


def render_report(report: dict, as_json: bool) -> str:
    """Deterministic rendering; JSON mode emits sorted keys.  A report, as
    the command line builds it, has at least one metric, all flat numbers (a
    float prints as its ``repr``), and a tolerance."""
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    lines = [f"command: {report['command']}", f"verdict: {report['verdict']}", "metrics:"]
    metrics = report["metrics"]
    lines.extend(f"  {key} = {metrics[key]!r}" for key in sorted(metrics))
    artifacts = report["artifacts"]
    if artifacts:
        lines.append(f"artifacts: {', '.join(sorted(artifacts))} (use --json for values)")
    lines.append(f"seed: {report['seed']}")
    tol = report["tolerance"]
    lines.append("tolerance: abs={abs_eps} rel={rel_eps} rcond={rcond}".format(**tol))
    return "\n".join(lines) + "\n"
