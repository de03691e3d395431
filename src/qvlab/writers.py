"""The package's one CSV writer and one JSON writer, with one text policy.

Both writers take the text of equal-length 1-D columns from `_column_texts`,
`CHUNK_ROWS` rows at a time, so memory stays flat: each value's `repr` (for a
float its shortest round trip: "inf", "-inf" and "nan" when not finite).  CSV
lines end in "\r\n"; no value the package writes needs quoting.  JSON files
have sorted keys, an indent of 2 and a trailing newline.  Strict JSON has no
Infinity literal, so fields that can be infinite go through `json_float`,
which writes the strings "inf" and "-inf".  `write_report_json` writes an
audit report's float columns with the bytes `write_json` would write for the
same records built as dicts.
"""

from __future__ import annotations

import json
import math
from typing import Collection, Iterator, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "json_float", "write_csv", "write_json", "write_report_json"]

CHUNK_ROWS = 1024  # rows turned into text at a time; few enough that a chunk's texts barely move peak RSS
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}  # keyed by their repr


def _column_texts(columns: Sequence) -> Iterator[list[list[str]]]:
    """The texts of the equal-length 1-D `columns`, one list per column for
    each `CHUNK_ROWS` rows.  The columns are checked before the first chunk
    is asked for."""
    columns = [np.asarray(c) for c in columns]
    length = columns[0].size if columns else 0
    if any(c.shape != (length,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    return ([list(map(repr, c[start : start + CHUNK_ROWS].tolist())) for c in columns]
            for start in range(0, length, CHUNK_ROWS))


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write `header`, then one row per index of the equal-length `columns`."""
    chunks = _column_texts(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for texts in chunks:
            fh.writelines(",".join(row) + "\r\n" for row in zip(*texts))


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


def _record_texts(fields: Sequence[str], columns: Sequence, inf_fields: Collection[str], indent: int) -> Iterator[str]:
    """JSON objects with keys `fields`, one per row of the equal-length float
    `columns`, as they sit at `indent` spaces in an indent-2 file; yields the
    objects of `CHUNK_ROWS` rows at a time, joined by the list separator.
    The columns are checked before the first chunk is asked for."""
    order = sorted(range(len(fields)), key=fields.__getitem__)
    pad = " " * indent
    keys = [json.dumps(fields[i]).replace("%", "%%") for i in order]
    template = "{\n" + ",\n".join(f"{pad}  {key}: %s" for key in keys) + f"\n{pad}}}"
    columns = [np.asarray(columns[i], dtype=float) for i in order]
    chunks = _column_texts(columns)
    # json's text for each non-finite repr, after `json_float` on `inf_fields`, in columns that have one
    fixes = [{t: json.dumps(json_float(v) if fields[i] in inf_fields else v) for t, v in _NON_FINITE.items()}
             if not np.isfinite(c).all() else None for i, c in zip(order, columns)]

    def chunk_text(texts: list[list[str]]) -> str:
        texts = [col if fix is None else [fix.get(t, t) for t in col] for col, fix in zip(texts, fixes)]
        return f",\n{pad}".join(template % row for row in zip(*texts))

    return map(chunk_text, chunks)


def _list_texts(chunks: Iterator[str]) -> Iterator[str]:
    """The record chunks as the JSON list under a top-level key."""
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "[\n    " + first
    for text in chunks:
        yield ",\n    " + text
    yield "\n  ]"


def write_report_json(path, payload: dict, fields: Sequence[str], columns: Sequence, witness: Sequence | None,
                      inf_fields: Collection[str]) -> None:
    """Write `payload` plus "records", one object per row of the float
    `columns`, and "witness", one such row or None.

    The bytes equal `write_json` of the same dict with each record built as
    `dict(zip(fields, row))` of Python floats and `json_float` applied to
    the fields in `inf_fields`.
    """
    # A payload value sits one level deep, so its inner lines gain one indent.
    values = {key: [json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  ")] for key, v in payload.items()}
    values["records"] = _list_texts(_record_texts(fields, columns, inf_fields, 4))
    values["witness"] = ["null"] if witness is None else _record_texts(fields, [[v] for v in witness], inf_fields, 2)
    with open(path, "w") as fh:
        for n, key in enumerate(sorted(values)):
            fh.write((",\n  " if n else "{\n  ") + json.dumps(key) + ": ")
            fh.writelines(values[key])
        fh.write("\n}\n")
