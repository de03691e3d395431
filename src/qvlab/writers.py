"""The package's one CSV writer and one JSON writer, with one text policy.

Both writers take the text of equal-length 1-D columns from `_column_texts`,
`CHUNK_ROWS` rows at a time, so memory stays flat: each value's `repr` (for a
float its shortest round trip: "inf", "-inf" and "nan" when not finite).  CSV
lines end in "\r\n"; no value the package writes needs quoting.

JSON files have sorted keys, an indent of 2 and a trailing newline: the bytes
`json.dump` writes for the same payload with its arrays as lists.  In a
payload, each ndarray (1-D, or 2-D as a list of rows) and each `Records`
table is written from its columns; every other value goes through
`json.dumps`.  A column holding a value whose repr is not its JSON text (a
non-finite float, a bool) has its texts looked up in one table of json's
texts.  Strict JSON has no Infinity literal, so fields that can be infinite
go through `json_float`, which writes the strings "inf" and "-inf"; a
`Records` table applies it to its `inf_fields`.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "Records", "json_float", "write_csv", "write_json"]

CHUNK_ROWS = 1024  # rows turned into text at a time; few enough that a chunk's texts barely move peak RSS


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


class Records(NamedTuple):
    """A JSON list of objects with keys `fields`, one per row of the
    equal-length 1-D `columns`; `json_float` applies to the fields in
    `inf_fields`."""

    fields: Sequence[str]
    columns: Sequence
    inf_fields: Collection[str] = ()


# json's text for each value whose repr is not its JSON text, plain and after `json_float`
_JSON_TEXTS = {repr(v): json.dumps(v) for v in (math.inf, -math.inf, math.nan, True, False)}
_INF_FIELD_TEXTS = {**_JSON_TEXTS, **{repr(v): json.dumps(json_float(v)) for v in (math.inf, -math.inf)}}


def _join(brackets: str, items: Iterable[Iterable[str]], pad: str) -> Iterator[str]:
    """The texts of `items` between `brackets` ("[]" or "{}"), one item per
    line, as an indent-2 `json.dump` lays them out at `pad`."""
    first = True
    for item in items:
        yield (brackets[0] + "\n  " if first else ",\n  ") + pad
        yield from item
        first = False
    yield brackets if first else "\n" + pad + brackets[1]


def _rows_texts(template: str, columns: Sequence, inf: Sequence[bool], pad: str) -> Iterator[str]:
    """The JSON list at `pad` of `template % row` for each row of the
    equal-length 1-D `columns`, `CHUNK_ROWS` rows per text.  A column whose
    `inf` flag is set takes `json_float`'s text for an infinity."""
    columns = [np.asarray(c) for c in columns]
    chunks = _column_texts(columns)
    tables = [None if c.dtype != bool and np.isfinite(c).all() else _INF_FIELD_TEXTS if i else _JSON_TEXTS
              for c, i in zip(columns, inf)]
    sep = ",\n  " + pad

    def chunk_text(texts: list[list[str]]) -> list[str]:
        texts = [col if table is None else [table.get(t, t) for t in col] for col, table in zip(texts, tables)]
        return [sep.join(template % row for row in zip(*texts))]

    return _join("[]", map(chunk_text, chunks), pad)


def _json_texts(value, pad: str) -> Iterable[str]:
    """The texts of `value` as it sits at `pad` in an indent-2 file.  Every
    table in it is checked now, before the first text is asked for."""
    inner = pad + "  "
    if isinstance(value, Records):
        order = sorted(range(len(value.fields)), key=value.fields.__getitem__)
        keys = [json.dumps(value.fields[i]).replace("%", "%%") for i in order]
        template = "{" + ",".join(f"\n{inner}  {key}: %s" for key in keys) + f"\n{inner}}}"
        return _rows_texts(template, [value.columns[i] for i in order],
                           [value.fields[i] in value.inf_fields for i in order], pad)
    if isinstance(value, np.ndarray) and value.ndim == 2:  # its rows pass the check, so each is made when written
        return _join("[]", (_json_texts(row, inner) for row in value), pad)
    if isinstance(value, np.ndarray):
        return _rows_texts("%s", [value], [False], pad)
    if isinstance(value, dict):
        return _join("{}", [chain([json.dumps(key) + ": "], _json_texts(value[key], inner)) for key in sorted(value)],
                     pad)
    return [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)]


def write_json(path, payload: dict) -> None:
    """Write `payload`, whose dicts have string keys, to `path` with sorted
    keys, indent 2 and a final newline: the bytes `json.dump` writes for it
    with every ndarray `.tolist()`'d and every `Records` as its list of
    dicts.  Every table is checked before the file opens."""
    texts = _json_texts(payload, "")
    with open(path, "w") as fh:
        fh.writelines(texts)
        fh.write("\n")
