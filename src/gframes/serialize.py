"""JSON persistence for block systems, plus canonical report serialization.

The on-disk schema is ``{"d": int, "k": [int, ...], "blocks": [...]}`` with
each block stored row-major and every complex entry as a ``[re, im]`` pair.
Floats are written with 17 significant digits, so any finite double survives
a save/load round trip bit for bit; reports additionally sort their keys so
byte-identical inputs give byte-identical output.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

from . import _exports
from .core import ReconstructionSystem
from .errors import StructuralError

__all__ = [*_exports(__name__), "matrix_to_pairs", "pairs_to_matrix"]


def matrix_to_pairs(a: np.ndarray) -> list:
    """Row-major nested lists with each complex entry as ``[re, im]`` (any shape)."""
    arr = np.asarray(a, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _complex(parts) -> complex | None:
    """The pair ``parts`` of JSON numbers as a complex number, infinite where an integer lies
    beyond the float range; None when either part is a bool or not a number."""
    if any(isinstance(part, bool) or not isinstance(part, (int, float)) for part in parts):
        return None
    try:
        return complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        return complex(math.inf)


def pairs_to_matrix(rows, expected_rows: int, expected_cols: int, where: str) -> np.ndarray:
    """The ``expected_rows x expected_cols`` matrix of ``[re, im]`` pairs ``rows``; the first
    defect in row-major order raises ``StructuralError``.  Nothing of the matrix's size is
    allocated before every row has been read, so a huge declared shape costs nothing."""
    if not isinstance(rows, list) or len(rows) != expected_rows:
        raise StructuralError(f"{where}: expected {expected_rows} rows")
    entries = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != expected_cols:
            raise StructuralError(f"{where}, row {r}: expected {expected_cols} entries")
        for c, value in enumerate(row):
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                problem = "each entry must be an [re, im] pair"
            elif (number := _complex(value)) is None:
                problem = "entry parts must be numbers"
            elif not cmath.isfinite(number):
                problem = "entries must be finite"
            else:
                entries.append(number)
                continue
            raise StructuralError(f"{where}, row {r}, column {c}: {problem}")
    return np.array(entries, dtype=np.complex128).reshape(expected_rows, expected_cols)


def system_to_dict(system: ReconstructionSystem) -> dict:
    return {
        "d": system.d,
        "k": list(system.k),
        "blocks": [matrix_to_pairs(b) for b in system.blocks],
    }


def system_from_dict(payload) -> ReconstructionSystem:
    if not isinstance(payload, dict):
        raise StructuralError("system payload must be a JSON object")
    for key in ("d", "k", "blocks"):
        if key not in payload:
            raise StructuralError(f"system payload is missing key {key!r}")
    d = payload["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise StructuralError("'d' must be a positive integer")
    k = payload["k"]
    if (not isinstance(k, list) or not k
            or any(not isinstance(ki, int) or isinstance(ki, bool) or ki < 1 for ki in k)):
        raise StructuralError("'k' must be a non-empty list of positive integers")
    blocks = payload["blocks"]
    if not isinstance(blocks, list) or len(blocks) != len(k):
        raise StructuralError(f"'blocks' must list exactly {len(k)} blocks")
    return ReconstructionSystem(tuple(pairs_to_matrix(block, ki, d, f"block {i}")
                                      for i, (block, ki) in enumerate(zip(blocks, k))))


def save_system(system: ReconstructionSystem, path) -> None:
    Path(path).write_text(dumps_canonical(system_to_dict(system)) + "\n", encoding="utf-8")


def _loads(text: str, what: str):
    """``json.loads(text)``, where a syntax error raises ``json.JSONDecodeError`` with its
    location, and nesting beyond the recursion limit or an integer literal beyond Python's
    digit limit raises ``StructuralError`` naming ``what``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise StructuralError(f"{what} nests too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or int() refusing a long literal
        if isinstance(exc, json.JSONDecodeError):
            raise
        raise StructuralError(f"{what} holds an integer literal with too many digits") from None


def load_system(path) -> ReconstructionSystem:
    """Load a system; malformed JSON raises ``json.JSONDecodeError`` with its location, and a
    file that is not UTF-8 or that ``json`` cannot decode raises ``StructuralError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StructuralError(f"system file is not UTF-8: {exc.reason} at byte {exc.start}")
    return system_from_dict(_loads(text, "system file"))


def _write(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise StructuralError("cannot serialize non-finite float")
        out.append(format(number, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise StructuralError("report keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(value[key], out)
        out.append("}")
    else:
        raise StructuralError(f"cannot serialize value of type {type(value).__name__}")


def dumps_canonical(value) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list = []
    _write(value, out)
    return "".join(out)
