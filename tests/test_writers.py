"""Tests for the CSV and JSON writers against the per-row and `json.dump` code they replaced."""

import csv
import json
import math
import tempfile
import tracemalloc
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qvlab import cli, writers
from qvlab.func1d import AuditRecord
from qvlab.writers import Records, write_csv, write_json


def per_row_csv(path, header, float_columns, int_columns):
    """The writer loop the CLI and the reports used before `write_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(len(float_columns[0])):
            writer.writerow([repr(float(c[j])) for c in float_columns] + [int(c[j]) for c in int_columns])


edge_floats = st.sampled_from([np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
any_floats = edge_floats | st.just(np.nan) | st.floats()
# A column drawn from few values repeats them within a chunk and puts -0.0 beside 0.0.
few_floats = st.sampled_from([-0.0, 0.0, 1.5, np.nan, np.inf])
ints = st.integers(-(2**63), 2**63 - 1)


@st.composite
def tables(draw):
    length = draw(st.integers(0, 12))
    n_float = draw(st.integers(1, 3))
    n_int = draw(st.integers(0, 2))
    float_columns = [np.array(draw(st.lists(draw(st.sampled_from([any_floats, few_floats])), min_size=length,
                                            max_size=length)), dtype=float)
                     for _ in range(n_float)]
    int_columns = [np.array(draw(st.lists(ints, min_size=length, max_size=length)), dtype=np.int64)
                   for _ in range(n_int)]
    return float_columns, int_columns


def split(columns, cuts=()):
    """`columns` as blocks cut at the rows `cuts`, empty blocks included; no
    cut gives the whole table as one block."""
    length = len(columns[0]) if columns else 0
    edges = [0, *sorted(min(cut, length) for cut in cuts), length]
    return [[c[lo:hi] for c in columns] for lo, hi in zip(edges, edges[1:])]


def both_bytes(float_columns, int_columns, cuts=()):
    header = [f"c{i}" for i in range(len(float_columns) + len(int_columns))]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        write_csv(new, header, split(float_columns + int_columns, cuts))
        per_row_csv(old, header, float_columns, int_columns)
        return new.read_bytes(), old.read_bytes()


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(table=tables(), chunk=st.integers(1, 5), cuts=st.lists(st.integers(0, 12), max_size=3))
    @example(table=([np.array([0.0, -0.0, 0.0, -0.0, 2.5, 2.5]), np.array([np.nan, np.nan, 1.0, -0.0, 1.0, 0.0])],
                    [np.array([7, 7, -1, 7, 0, 0])]), chunk=5, cuts=[2, 2])
    def test_matches_per_row_loop(self, table, chunk, cuts):
        # A small chunk puts most drawn tables above one chunk; the cuts split
        # it into blocks, some empty, whose chunks end at their last row.
        with mock.patch.object(writers, "CHUNK_ROWS", chunk):
            new, old = both_bytes(*table, cuts)
        assert new == old

    @pytest.mark.parametrize("length", [0, 1, 1025, writers.CHUNK_ROWS + 1])  # 1025: one partly filled chunk
    def test_matches_per_row_loop_at_chunk_size(self, length):
        rng = np.random.default_rng(length)
        floats_col = rng.standard_normal(length) * 10.0 ** rng.integers(-320, 300, length)
        floats_col[::7] = np.inf
        ints_col = rng.integers(-5, 5, length)
        new, old = both_bytes([floats_col, np.arange(length) / 3.0], [ints_col])
        assert new == old

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[np.zeros(3), np.zeros(2)]])
        assert not (tmp_path / "x.csv").exists()

    def test_int_and_bool_columns_match_csv_writer(self, tmp_path):
        columns = [np.array([0.5, -np.inf, np.nan]), np.array([2, -3, 0]), np.array([True, False, True])]
        old = tmp_path / "old.csv"
        with open(old, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            writer.writerows(zip(*(c.tolist() for c in columns)))
        write_csv(tmp_path / "new.csv", ["a", "b", "c"], [columns])
        assert (tmp_path / "new.csv").read_bytes() == old.read_bytes()


def strict(value):
    """`value` with each non-finite float in it, alone or in nested lists, as the string of its repr."""
    if isinstance(value, list):
        return list(map(strict, value))
    return repr(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


def refuse_constant(name):
    """Refuse the Infinity and NaN literals, which strict JSON does not have."""
    raise ValueError(f"{name} is not strict JSON")


class Report(NamedTuple):
    """A report's whole columns and summary, drawn independently of each other."""

    mode: str
    alpha: Optional[float]
    columns: list
    supremum: float
    witness: Optional[AuditRecord]


def report_json(path, report):
    """`report` written through `write_json` in the layout of `MinimalityReport.to_json`."""
    write_json(path, {"mode": report.mode, "alpha": report.alpha,
                      "records": Records(AuditRecord._fields, [report.columns]), "supremum": report.supremum,
                      "witness": report.witness and report.witness._asdict()})


def dict_path_json(path, report):
    """The report JSON path `MinimalityReport.to_json` used before
    `write_report_json`: one dict per record, then `json.dump`."""

    def record_dict(rec):
        return {field: strict(v) for field, v in rec._asdict().items()}

    payload = {
        "mode": report.mode,
        "alpha": strict(report.alpha),
        "supremum": strict(report.supremum),
        "witness": None if report.witness is None else record_dict(report.witness),
        "records": [record_dict(AuditRecord._make(row)) for row in zip(*(c.tolist() for c in report.columns))],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@st.composite
def reports(draw, lengths):
    length = draw(lengths)
    columns = [np.array(draw(st.lists(any_floats, min_size=length, max_size=length)), dtype=float)
               for _ in AuditRecord._fields]
    witness = draw(st.none() | st.tuples(*[any_floats] * len(AuditRecord._fields)).map(AuditRecord._make))
    return Report(
        mode=draw(st.sampled_from(["quasi_k", "omega", "almost"])),
        alpha=draw(st.none() | any_floats),
        columns=columns,
        supremum=draw(any_floats),
        witness=witness,
    )


def both_json_bytes(report):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.json"), Path(tmp, "old.json")
        report_json(new, report)
        dict_path_json(old, report)
        return new.read_bytes(), old.read_bytes()


class TestWriteReportJson:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 5))
    def test_matches_dict_path(self, data, chunk):
        # Lengths 0, 1 and chunk + 1 plus a spread up to a few chunks.
        lengths = st.sampled_from([0, 1, chunk + 1]) | st.integers(0, 12)
        report = data.draw(reports(lengths))
        with mock.patch.object(writers, "CHUNK_ROWS", chunk):
            new, old = both_json_bytes(report)
        assert new == old

    @pytest.mark.parametrize("length", [0, 1, 1025, writers.CHUNK_ROWS + 1])  # 1025: one partly filled chunk
    def test_matches_dict_path_at_chunk_size(self, length):
        rng = np.random.default_rng(length)
        columns = [rng.standard_normal(length) * 10.0 ** rng.integers(-320, 300, length) for _ in range(5)]
        for k, c in enumerate(columns):
            c[k::7] = [np.inf, -np.inf, np.nan, -0.0, 5e-324][k]
        witness = None if length == 0 else AuditRecord(*(float(c[-1]) for c in columns))
        report = Report("almost", 0.5, columns, supremum=np.inf, witness=witness)
        new, old = both_json_bytes(report)
        assert new == old

    def test_unequal_columns_rejected_before_writing(self, tmp_path):
        # The malformed table sorts last, so every table is checked before the file opens.
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            write_json(path, {"a": np.zeros(3), "b": Records(["a", "b"], [[np.zeros(3), np.zeros(2)]])})
        assert not path.exists()


def listed(value):
    """`value` as `json.dump` took it before `write_json` wrote tables itself:
    arrays as lists, `Records` as a list of dicts, a callable as its value and
    each non-finite float as the string of its repr."""
    if isinstance(value, dict):
        return {key: listed(v) for key, v in value.items()}
    if callable(value):
        return listed(value())
    if isinstance(value, Records):
        rows = chain.from_iterable(zip(*(np.asarray(c).tolist() for c in block)) for block in value.blocks)
        return [{f: strict(v) for f, v in zip(value.fields, row)} for row in rows]
    return strict(value.tolist() if isinstance(value, np.ndarray) else value)


@st.composite
def arrays(draw):
    shape = draw(st.tuples(st.integers(0, 12)) | st.tuples(st.integers(0, 4), st.integers(0, 6)))
    elements, dtype = draw(st.sampled_from([(any_floats, float), (few_floats, float), (ints, np.int64),
                                            (st.booleans(), bool)]))
    values = draw(st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def records(draw):
    fields = draw(st.lists(st.text(max_size=3), unique=True, max_size=4))
    length = draw(st.integers(0, 12))
    columns = [np.array(draw(st.lists(any_floats, min_size=length, max_size=length)), dtype=float) for _ in fields]
    blocks = split(columns, draw(st.lists(st.integers(0, 12), max_size=3)))
    return Records(fields, blocks)


leaves = st.none() | st.text(max_size=5) | ints | any_floats | arrays() | records()
payloads = st.dictionaries(st.text(max_size=5), st.recursive(
    leaves, lambda children: st.dictionaries(st.text(max_size=5), children, max_size=3), max_leaves=8), max_size=5)


class TestWriteJson:
    @settings(max_examples=200, deadline=None)
    @given(payload=payloads, chunk=st.integers(1, 5))
    @example(payload={"a": np.zeros((3, 0)), "b": np.zeros((0, 2)), "c": np.array([-0.0, np.nan, np.inf, -np.inf]),
                      "d": {"e": np.array([True, False]), "f": np.array([], dtype=np.int64), "g": {}},
                      "h": Records(["%s", "x"], [[np.array([1.5, np.inf]), np.array([-np.inf, np.nan])]]),
                      "i": lambda: {"j": np.array([np.inf]), "k": "text"}},
             chunk=1)
    def test_matches_json_dump_of_lists(self, payload, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.json"), Path(tmp, "old.json")
            with mock.patch.object(writers, "CHUNK_ROWS", chunk):
                write_json(new, payload)
            with open(old, "w") as fh:
                json.dump(listed(payload), fh, indent=2, sort_keys=True)
                fh.write("\n")
            assert new.read_bytes() == old.read_bytes()
            json.loads(new.read_text(), parse_constant=refuse_constant)


class TestJsonMemory:
    @pytest.mark.parametrize("argv", [["example", "diamond", "--samples", "50000"],
                                      ["branch", "cantor-diamond", "--level", "5", "--grid", "50000"]],
                             ids=["example", "branch"])
    def test_json_peak_within_a_tenth_of_csv(self, argv, tmp_path):
        # JSON once went through Python lists of the whole grid, 1.6-3x the CSV call's peak.
        peaks = {}
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["json"] <= 1.1 * peaks["csv"]


# NaNs with a payload and with the sign bit set; each chunk formats its distinct values once, by their bits.
PAYLOAD_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0xFFF0000000000002], dtype=np.uint64).view(float)


def repeated_columns(length):
    """Float, int64 and bool columns of `length` rows that repeat a few values,
    with runs of -0.0 and of 0.0 that cross chunk boundaries."""
    rows = np.arange(length)
    zeros = np.where(rows // 3 % 2, -0.0, 0.0)
    mixed = np.array([*PAYLOAD_NANS, np.nan, -0.0, 0.0, 1.5, np.inf, -np.inf, 5e-324])[rows % 10]
    extremes = np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64)[rows // 2 % 4]
    return [zeros, mixed], [extremes], rows % 3 == 0


class TestRepeatedValues:
    @pytest.mark.parametrize("chunk, length", [(1, 7), (3, 10), (5, 16), (writers.CHUNK_ROWS, writers.CHUNK_ROWS + 1)])
    def test_csv_matches_per_row_loop(self, chunk, length, tmp_path):
        float_columns, int_columns, flags = repeated_columns(length)
        with mock.patch.object(writers, "CHUNK_ROWS", chunk):
            new, old = both_bytes(float_columns, int_columns)
            write_csv(tmp_path / "flags.csv", ["flag"], [[flags]])
        assert new == old
        assert (tmp_path / "flags.csv").read_bytes() == "".join(f"{f}\r\n" for f in ["flag", *flags.tolist()]).encode()

    @pytest.mark.parametrize("chunk, length", [(1, 7), (3, 10), (5, 16), (writers.CHUNK_ROWS, writers.CHUNK_ROWS + 1)])
    def test_json_matches_json_dump(self, chunk, length, tmp_path):
        (zeros, mixed), (extremes,), flags = repeated_columns(length)
        payload = {"zeros": zeros, "mixed": mixed, "extremes": extremes, "flags": flags,
                   "records": Records(["a", "b", "c"], split([mixed, zeros, extremes], [length // 2])),
                   "rows": np.column_stack((zeros, mixed))}
        with mock.patch.object(writers, "CHUNK_ROWS", chunk):
            write_json(tmp_path / "new.json", payload)
        with open(tmp_path / "old.json", "w") as fh:
            json.dump(listed(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    # Where longdouble is float64 (MSVC, macOS arm64) it is written like any float64.
    WIDE_LONGDOUBLE = pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8, reason="longdouble is float64 here")

    @pytest.mark.parametrize("column", [np.array([1, 1.0, True], dtype=object), np.array(["a", "b"]),
                                        np.array([1 + 0j]),
                                        pytest.param(np.array([1.0], dtype=np.longdouble), marks=WIDE_LONGDOUBLE)],
                             ids=["object", "str", "complex", "longdouble"])
    def test_other_dtypes_rejected_before_writing(self, column, tmp_path):
        # An object column's 1, 1.0 and True are equal, so formatting distinct values would merge their texts.
        for write, path in ((lambda p: write_csv(p, ["a"], [[column]]), tmp_path / "x.csv"),
                            (lambda p: write_json(p, {"a": column}), tmp_path / "x.json")):
            with pytest.raises(ValueError, match="bools, integers or floats"):
                write(path)
            assert not path.exists()


def write_peak(fmt, columns, path):
    """The tracemalloc peak (numpy reports its buffers) of writing five `columns` as one table."""
    tracemalloc.start()
    try:
        if fmt == "csv":
            write_csv(path, list("abcde"), [columns])
        else:
            write_json(path, {"table": Records(list("abcde"), [columns])})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """Five columns of distinct floats: a chunk's texts are the writer's working set."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_stays_flat_in_the_row_count(self, fmt, tmp_path):
        # No chunk's texts or rows outlive its writing.  Joined whole, a
        # chunk's JSON text was still held while the next chunk was
        # formatted: two chunks peaked at 1.22 times one.  Written a piece at
        # a time, two or 32 chunks peak at 1.00 (JSON) and 1.02-1.03 (CSV) times.
        rng = np.random.default_rng(3)
        peaks = {chunks: write_peak(fmt, [rng.standard_normal(chunks * writers.CHUNK_ROWS) for _ in range(5)],
                                    tmp_path / f"table{chunks}.{fmt}")
                 for chunks in (1, 2, 32)}
        assert max(peaks[2], peaks[32]) <= 1.1 * peaks[1], peaks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_chunk_peaks_near_its_texts(self, fmt, tmp_path):
        # Joined whole, a chunk's texts, row strings and their join were held
        # at once: 1.47 (CSV) and 2.04 (JSON) times the texts.  Written
        # `PIECE_ROWS` rows at a time, 1.14 and 1.21 times.
        rng = np.random.default_rng(5)
        columns = [rng.standard_normal(writers.CHUNK_ROWS) for _ in range(5)]
        tracemalloc.start()
        try:
            texts = [writers._texts(c) for c in columns]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del texts
        peak = write_peak(fmt, columns, tmp_path / f"table.{fmt}")
        assert peak <= 1.3 * held, (peak, held)
