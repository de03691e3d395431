"""The package's one CSV writer and one JSON writer, with one text policy.

Both writers take a table as an iterable of column blocks: each block is a
sequence of equal-length 1-D columns of bools, integers or floats, and the
table's rows are the blocks' rows in order.  A table held whole is one block;
an audit report's blocks come from its evaluation as they are made, so a
report is written as it is evaluated and never held whole.  Each block is cut
into `CHUNK_ROWS`-row chunks, and memory stays flat: a chunk's texts are each
value's `repr` (for a float its shortest round trip: "inf", "-inf" and "nan"
when not finite).  The reprs are most of a report's writing time, and a chunk
of an audit column repeats its values, so each distinct value of a chunk is
formatted once and its text shared by the rows that hold it.  A chunk's rows
are then drawn from its texts as they are written, `PIECE_ROWS` rows joined
per write, so a writer holds one chunk's texts and one piece of rows.  CSV
lines end in "\r\n"; no value the package writes needs quoting.

JSON files have sorted keys, an indent of 2 and a trailing newline: the bytes
`json.dump` writes for the same payload with its arrays as lists and each
non-finite float as the string of its CSV text.  In a payload, each ndarray
(1-D, or 2-D as a list of rows) and each `Records` table is written from its
columns; a callable is called for its value when the writer reaches it, so a
value can be one that an earlier key's table computes as it is written; a
float is written from its repr; every other value goes through `json.dumps`.
Strict JSON has no Infinity or NaN literal, so one table of JSON texts, used
for a lone float and for each chunk holding a value whose repr is not its
JSON text, writes a non-finite float as the string "inf", "-inf" or "nan" and
a bool as true or false.
"""

from __future__ import annotations

import json
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["CHUNK_ROWS", "Records", "write_csv", "write_json"]

# Rows turned into text at a time.  Larger chunks repeat more values: of the
# 417,525 values of a level-7 depth-8 audit report, a repr is made for 75%
# (quasi) and 64% (almost) at 1024 rows, 62% and 48% at 4096, 56% and 41% at
# 8192.  At 8192 the chunk's texts raised the CLI audits' peak RSS by 7-12%;
# at 4096 by under 2%.  Only the texts are held a chunk at a time: the rows
# are joined and written `PIECE_ROWS` at a time.  Joined whole, a chunk's row
# strings and their join were held beside its texts; at 512 rows per piece
# the benchmark's level-7 audits peak 0.7 MB (quasi CSV) and 2.3 MB (almost
# JSON) lower, and from 256 to 1024 rows the peaks move by under 0.3 MB.
CHUNK_ROWS = 4096
PIECE_ROWS = 512


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


def _checked(block: Sequence) -> list[np.ndarray]:
    """The columns of one block as arrays, once they are 1-D, of equal length
    and of a dtype the writers format."""
    columns = [np.asarray(c) for c in block]
    length = columns[0].size if columns else 0
    if any(c.shape != (length,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    if any(c.dtype.kind not in "biuf" or c.itemsize > 8 for c in columns):
        raise ValueError("columns must hold bools, integers or floats of at most 64 bits")
    return columns


def _pieces(rows: Iterable[str], sep: str) -> Iterator[str]:
    """The texts of `rows`, `PIECE_ROWS` rows per text, each joined by `sep`."""
    rows = iter(rows)
    while piece := list(islice(rows, PIECE_ROWS)):
        yield sep.join(piece)


def _chunks(blocks: Iterable[Sequence]) -> Iterator[list[np.ndarray]]:
    """The columns of each of `blocks`, `CHUNK_ROWS` rows at a time.  Each
    block is checked when it comes, the first one before this returns, so a
    table passed whole, as one block, is checked before its file opens."""
    blocks = iter(blocks)
    first = _checked(next(blocks, ()))

    def chunks():
        for columns in chain([first], map(_checked, blocks)):
            length = columns[0].size if columns else 0
            for start in range(0, length, CHUNK_ROWS):
                yield [c[start : start + CHUNK_ROWS] for c in columns]

    return chunks()


def write_csv(path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write `header`, then one row per row of the column `blocks`."""
    chunks = _chunks(blocks)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for chunk in chunks:
            # The rows live in the loop's iterator alone, so the chunk's texts go with it.
            for piece in _pieces(map(",".join, zip(*map(_texts, chunk))), "\r\n"):
                fh.writelines((piece, "\r\n"))


class Records(NamedTuple):
    """A JSON list of objects with keys `fields`, one per row of the column
    `blocks`, each block a sequence of equal-length 1-D columns in the order
    of `fields`.  Its values are written as an ndarray's are."""

    fields: Sequence[str]
    blocks: Iterable[Sequence]


# The JSON text of each value whose repr is not its JSON text: a non-finite float is the string of its repr.
_JSON_TEXTS = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"', "True": "true", "False": "false"}


def _join(brackets: str, items: Iterable[Iterable[str]], pad: str) -> Iterator[str]:
    """The texts of `items` between `brackets` ("[]" or "{}"), one item per
    line, as an indent-2 `json.dump` lays them out at `pad`."""
    first = True
    for item in items:
        yield (brackets[0] + "\n  " if first else ",\n  ") + pad
        yield from item
        first = False
    yield brackets if first else "\n" + pad + brackets[1]


def _rows_texts(fixed: Sequence[str], blocks: Iterable[Sequence], pad: str) -> Iterator[str]:
    """The JSON list at `pad` of one text per row of the column `blocks`,
    each of k columns, `PIECE_ROWS` rows per text: fixed[0], the row's k
    values each followed by the next of the k + 1 `fixed` texts."""
    chunks = _chunks(blocks)
    sep = ",\n  " + pad

    def chunk_pieces(chunk: list[np.ndarray]) -> Iterator[str]:
        parts = [repeat(fixed[0])]
        for column, text in zip(chunk, fixed[1:]):
            texts = _texts(column)
            if column.dtype == bool or not np.isfinite(column).all():
                texts = [_JSON_TEXTS.get(t, t) for t in texts]
            parts += [texts, repeat(text)]
        rows = parts[1] if fixed == ["", ""] else map("".join, zip(*parts))  # an array's row is its value's text
        return _pieces(rows, sep)

    # A piece is one item of the list, so `_join` puts `sep` between pieces as between rows.
    return _join("[]", ([piece] for chunk in chunks for piece in chunk_pieces(chunk)), pad)


def _later(value: Callable, pad: str) -> Iterator[str]:
    """The texts of `value()`, called when its first text is asked for."""
    yield from _json_texts(value(), pad)


def _json_texts(value, pad: str) -> Iterable[str]:
    """The texts of `value` as it sits at `pad` in an indent-2 file.  Every
    table in it has its first block checked now, before the first text is
    asked for."""
    inner = pad + "  "
    if isinstance(value, Records):
        order = sorted(range(len(value.fields)), key=value.fields.__getitem__)
        heads = [("," if k else "{") + f"\n{inner}  {json.dumps(value.fields[i])}: " for k, i in enumerate(order)]
        return _rows_texts(heads + [f"\n{inner}}}"], ([block[i] for i in order] for block in value.blocks), pad)
    if isinstance(value, np.ndarray) and value.ndim == 2:  # its rows pass the check, so each is made when written
        return _join("[]", (_json_texts(row, inner) for row in value), pad)
    if isinstance(value, np.ndarray):
        return _rows_texts(["", ""], [[value]], pad)
    if isinstance(value, dict):
        return _join("{}", [chain([json.dumps(key) + ": "], _json_texts(value[key], inner)) for key in sorted(value)],
                     pad)
    if callable(value):
        return _later(value, pad)
    if isinstance(value, float):  # float.__repr__ gives an np.float64 its float text
        text = float.__repr__(value)
        return [_JSON_TEXTS.get(text, text)]
    return [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)]


def write_json(path, payload: dict) -> None:
    """Write `payload`, whose dicts have string keys, to `path` with sorted
    keys, indent 2 and a final newline: the bytes `json.dump` writes for it
    with every ndarray `.tolist()`'d, every `Records` as its list of dicts,
    every callable as the value it returns and every non-finite float as the
    string "inf", "-inf" or "nan".  A table passed whole, as one block, is
    checked before the file opens."""
    texts = _json_texts(payload, "")
    with open(path, "w") as fh:
        fh.writelines(texts)
        fh.write("\n")
