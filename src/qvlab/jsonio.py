"""The package's one JSON writer and its infinity policy.

Every JSON output file is written with sorted keys, an indent of 2 and a
trailing newline, so identical payloads give byte-identical files.  Strict
JSON has no Infinity literal: fields that can be infinite go through
`json_float`, which writes the strings "inf" and "-inf" instead.
"""

from __future__ import annotations

import json
import math

__all__ = ["json_float", "write_json"]


def json_float(x: float) -> float | str:
    """x as a float, or "inf"/"-inf" when it is infinite."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def write_json(path, payload: dict) -> None:
    """Write `payload` to `path` with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
