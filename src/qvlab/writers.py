"""The package's one CSV writer and one JSON writer, with one text policy.

Both writers take the text of equal-length 1-D columns of bools, integers
or floats from `_column_texts`, `CHUNK_ROWS` rows at a time, so memory stays
flat: each value's `repr` (for a float its shortest round trip: "inf", "-inf"
and "nan" when not finite).  The reprs are most of a report's writing time,
and a chunk of an audit column repeats its values, so each distinct value of
a chunk is formatted once and its text shared by the rows that hold it.  A
chunk's rows are then joined in one pass.  CSV lines end in "\r\n"; no value
the package writes needs quoting.

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
from itertools import chain, repeat
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "Records", "json_float", "write_csv", "write_json"]

# Rows turned into text at a time.  Larger chunks repeat more values: of the
# 417,525 values of a level-7 depth-8 audit report, a repr is made for 75%
# (quasi) and 64% (almost) at 1024 rows, 62% and 48% at 4096, 56% and 41% at
# 8192.  At 8192 the chunk's texts raised the CLI audits' peak RSS by 7-12%;
# at 4096 by under 2%.
CHUNK_ROWS = 4096


def _texts(chunk: np.ndarray) -> list[str]:
    """The repr of each value of the 1-D `chunk`, each distinct value
    formatted once.  Floats are told apart by their bits, so -0.0 and 0.0,
    and NaNs with different payloads, keep their own texts.  A chunk with no
    repeats is formatted in row order, with no index back."""
    key = chunk.view(f"u{chunk.itemsize}") if chunk.dtype.kind == "f" else chunk
    distinct, inverse = np.unique(key, return_inverse=True)
    if distinct.size == chunk.size:
        return list(map(repr, chunk.tolist()))
    texts = np.array(list(map(repr, distinct.view(chunk.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def _column_texts(columns: Sequence) -> Iterator[list[list[str]]]:
    """The texts of the equal-length 1-D `columns`, one list per column for
    each `CHUNK_ROWS` rows.  The columns are checked before the first chunk
    is asked for."""
    columns = [np.asarray(c) for c in columns]
    length = columns[0].size if columns else 0
    if any(c.shape != (length,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    if any(c.dtype.kind not in "biuf" or c.itemsize > 8 for c in columns):
        raise ValueError("columns must hold bools, integers or floats of at most 64 bits")
    return ([_texts(c[start : start + CHUNK_ROWS]) for c in columns] for start in range(0, length, CHUNK_ROWS))


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write `header`, then one row per index of the equal-length `columns`."""
    chunks = _column_texts(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for texts in chunks:
            fh.writelines(("\r\n".join(map(",".join, zip(*texts))), "\r\n"))


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


def _rows_texts(fixed: Sequence[str], columns: Sequence, inf: Sequence[bool], pad: str) -> Iterator[str]:
    """The JSON list at `pad` of one text per row of the k equal-length 1-D
    `columns`, `CHUNK_ROWS` rows per text: fixed[0], the row's k values
    each followed by the next of the k + 1 `fixed` texts.  A column whose
    `inf` flag is set takes `json_float`'s text for an infinity."""
    columns = [np.asarray(c) for c in columns]
    chunks = _column_texts(columns)
    tables = [None if c.dtype != bool and np.isfinite(c).all() else _INF_FIELD_TEXTS if i else _JSON_TEXTS
              for c, i in zip(columns, inf)]
    sep = ",\n  " + pad

    def chunk_text(texts: list[list[str]]) -> list[str]:
        parts = [repeat(fixed[0])]
        for col, table, text in zip(texts, tables, fixed[1:]):
            parts += [col if table is None else [table.get(t, t) for t in col], repeat(text)]
        rows = parts[1] if fixed == ["", ""] else map("".join, zip(*parts))  # an array's row is its value's text
        return [sep.join(rows)]

    return _join("[]", map(chunk_text, chunks), pad)


def _json_texts(value, pad: str) -> Iterable[str]:
    """The texts of `value` as it sits at `pad` in an indent-2 file.  Every
    table in it is checked now, before the first text is asked for."""
    inner = pad + "  "
    if isinstance(value, Records):
        order = sorted(range(len(value.fields)), key=value.fields.__getitem__)
        heads = [("," if k else "{") + f"\n{inner}  {json.dumps(value.fields[i])}: " for k, i in enumerate(order)]
        return _rows_texts(heads + [f"\n{inner}}}"], [value.columns[i] for i in order],
                           [value.fields[i] in value.inf_fields for i in order], pad)
    if isinstance(value, np.ndarray) and value.ndim == 2:  # its rows pass the check, so each is made when written
        return _join("[]", (_json_texts(row, inner) for row in value), pad)
    if isinstance(value, np.ndarray):
        return _rows_texts(["", ""], [value], [False], pad)
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
