"""The package's one CSV writer and one JSON writer.

`write_csv` writes a header and then the rows of equal-length columns, which
it converts with `.tolist()` `CHUNK_ROWS` rows at a time, so memory stays
flat; `csv` writes a float as its shortest repr and infinities as "inf"/"-inf".
JSON files have sorted keys, an indent of 2 and a trailing newline.  Strict
JSON has no Infinity literal, so fields that can be infinite go through
`json_float`, which writes the strings "inf" and "-inf" instead.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterator, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "column_rows", "json_float", "write_csv", "write_json"]

CHUNK_ROWS = 4096  # rows converted to Python scalars at a time


def column_rows(columns: Sequence) -> Iterator[tuple]:
    """The rows of equal-length 1-D columns, as tuples of Python scalars."""
    columns = [np.asarray(c) for c in columns]
    length = columns[0].size if columns else 0
    if any(c.shape != (length,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    for start in range(0, length, CHUNK_ROWS):
        yield from zip(*(c[start : start + CHUNK_ROWS].tolist() for c in columns))


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write `header`, then one row per index of the equal-length `columns`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(column_rows(columns))


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
