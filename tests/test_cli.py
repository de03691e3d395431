"""Tests for the command-line driver: formats, exit codes, determinism."""

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvlab import cli
from qvlab.acceptance import CheckResult
from qvlab.func1d import AuditRecord


class TestExample:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "diamond.csv"
        assert cli.main(["example", "diamond", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,branch_1,branch_2"
        assert len(lines) == 1026

    def test_json_payload(self, tmp_path):
        out = tmp_path / "sin.json"
        code = cli.main(["example", "sin", "--samples", "129", "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["name"] == "sin"
        assert len(payload["x"]) == 129
        assert len(payload["branches"]) == 2

    def test_level_zero_is_usage_error(self, tmp_path):
        code = cli.main(["example", "cantor-diamond", "--level", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_level_is_usage_error(self, tmp_path):
        code = cli.main(["example", "cantor-diamond", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_name_is_usage_error(self, tmp_path):
        code = cli.main(["example", "nonsense", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestAudit:
    def test_quasi_bound(self, tmp_path):
        out = tmp_path / "audit.json"
        code = cli.main(
            ["audit", "cantor-diamond", "--level", "4", "--mode", "quasi", "--depth", "6",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "quasi_k"
        assert float(payload["supremum"]) <= 4.0 + 1e-9

    def test_pluri_losange_reports_infinity_but_succeeds(self, tmp_path):
        out = tmp_path / "audit.json"
        code = cli.main(
            ["audit", "pluri-losange-demo", "--mode", "quasi", "--depth", "5", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out.read_text())["supremum"] == "inf"

    def test_almost_mode(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = cli.main(
            ["audit", "cantor-losange", "--level", "3", "--mode", "almost", "--alpha", "0.5",
             "--depth", "6", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "center,radius,dir_u,dir_min,figure_of_merit"

    def test_omega_mode(self, tmp_path):
        out = tmp_path / "omega.json"
        code = cli.main(
            ["audit", "sin", "--mode", "omega", "--radii", "0.1,0.2", "--centers", "51",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "omega"
        assert float(payload["supremum"]) < 0.05

    def test_repeat_audit_gives_identical_output(self, tmp_path):
        args = ["audit", "cantor-diamond", "--level", "3", "--mode", "quasi", "--depth", "7", "--format", "json"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("radius", ["0", "-0.1", "nan"])
    def test_nonpositive_omega_radius_is_usage_error(self, tmp_path, capsys, radius):
        out = tmp_path / "omega.csv"
        code = cli.main(["audit", "sin", "--mode", "omega", "--radii", radius, "--out", str(out)])
        assert code == 2
        assert f"radius must lie in (0, {np.pi / 4}), got {float(radius)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("centers", ["0", "-1"])
    def test_omega_centers_below_one_is_usage_error(self, tmp_path, capsys, centers):
        # --centers 0 used to exit 0 with records=0, and -1 gave numpy's sampling message
        out = tmp_path / "omega.csv"
        code = cli.main(["audit", "sin", "--mode", "omega", "--centers", centers, "--out", str(out)])
        assert code == 2
        assert f"--centers must be an integer of at least 1, got {centers}" in capsys.readouterr().err
        assert not out.exists()

    def test_unresolvable_omega_radius_is_usage_error(self, tmp_path, capsys):
        # c - r == c + r at this radius; the message used to be "intervals must satisfy a < b"
        out = tmp_path / "omega.csv"
        code = cli.main(["audit", "sin", "--mode", "omega", "--radii", "1e-300", "--out", str(out)])
        assert code == 2
        assert "radius 1e-300 is too small to resolve" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["quasi", "almost"])
    def test_negative_depth_is_usage_error(self, tmp_path, capsys, mode):
        out = tmp_path / "audit.csv"
        code = cli.main(
            ["audit", "cantor-diamond", "--level", "2", "--mode", mode, "--depth", "-1", "--out", str(out)]
        )
        assert code == 2
        assert "depth must be an integer of at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["quasi", "almost"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["cantor-diamond", "--level", "12"], "the audit family would have 76284393 rows"),
            (["diamond", "--depth", "16"], "the audit family would have 64701155 rows"),
            # a level past the construction's bound is refused before any family is counted
            (["cantor-losange", "--level", "40", "--depth", "2"], "level must lie in [1, MAX_LEVEL = 17], got 40"),
        ],
        ids=["level", "depth", "level-40"],
    )
    def test_oversized_family_is_usage_error(self, tmp_path, capsys, mode, args, message):
        out = tmp_path / "audit.csv"
        code = cli.main(["audit", *args, "--mode", mode, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_omega_family_is_usage_error(self, tmp_path, capsys):
        # four default radii times 10^12 centers, refused before any center exists
        out = tmp_path / "omega.csv"
        code = cli.main(["audit", "sin", "--mode", "omega", "--centers", "1000000000000", "--out", str(out)])
        assert code == 2
        assert "the audit family would have 4000000000000 rows" in capsys.readouterr().err
        assert not out.exists()

    def test_omega_balls_are_radius_major(self, tmp_path):
        # the double line has positive energy on every ball, so no ball is skipped
        out = tmp_path / "omega.csv"
        code = cli.main(
            ["audit", "double-line", "--mode", "omega", "--radii", "0.2,0.1", "--centers", "3", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [
            ["0.2", "0.2"], ["0.5", "0.2"], ["0.8", "0.2"], ["0.1", "0.1"], ["0.5", "0.1"], ["0.9", "0.1"]
        ]


# Values the numeric flags must refuse or survive, beside small valid ones.
EDGE_VALUES = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", str(10**12)])


def mixed(valid):
    """A small valid value in three draws of four, else an edge value."""
    return st.one_of(valid, valid, valid, EDGE_VALUES)


def float_list(draw, valid, max_size):
    """A comma-separated --radii or --scales value: 1 to max_size mixed entries, a repeated one among them at times."""
    entries = draw(st.lists(mixed(valid.map(repr)), min_size=1, max_size=max_size))
    return ",".join(entries + entries[:1] * draw(st.integers(0, 1)))


@st.composite
def audit_argvs(draw):
    """`audit` argv, without --out, with each numeric value small and valid
    or an edge value, so that every mode also runs."""
    def flag(name, valid):
        return f"--{name}={draw(mixed(valid))}"

    return [
        "audit", draw(st.sampled_from(["cantor-diamond", "cantor-losange", "fat-cantor-losange"])),
        f"--mode={draw(st.sampled_from(['quasi', 'omega', 'almost']))}",
        f"--format={draw(st.sampled_from(['csv', 'json']))}",
        flag("level", st.integers(1, 3).map(str)),
        flag("depth", st.integers(0, 5).map(str)),
        flag("alpha", st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr)),
        f"--radii={float_list(draw, st.floats(1e-3, 0.5), 3)}",
        flag("centers", st.integers(1, 30).map(str)),
    ]


def edged_flags(draw, valid):
    """--name=value for each (name, strategy) of `valid`: at most two flags
    take an edge value and the others a small valid one.  A list flag's
    value has 2-4 entries, one repeated at times, and one entry of it is the
    edge value."""
    edged = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    argv = []
    for name, strategy in valid.items():
        if name != "scales":
            argv.append(f"--{name}={draw(EDGE_VALUES if name in edged else strategy.map(str))}")
            continue
        entries = draw(st.lists(strategy.map(repr), min_size=2, max_size=4))
        if name in edged:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(EDGE_VALUES)
        argv.append(f"--scales={','.join(entries + entries[:1] * draw(st.integers(0, 1)))}")
    return argv


@st.composite
def decay_argvs(draw):
    """`decay` argv, without --out, over --level, --center, --r0 and --scales."""
    return [
        "decay", draw(st.sampled_from(["cantor-diamond", "cantor-losange", "fat-cantor-losange", "double-line"])),
        f"--format={draw(st.sampled_from(['csv', 'json']))}",
        *edged_flags(draw, {"level": st.integers(1, 3), "center": st.floats(0.25, 0.75),
                            "r0": st.floats(1e-3, 0.25), "scales": st.floats(1e-3, 1.0)}),
    ]


@st.composite
def branch_argvs(draw):
    """`branch` argv, without --out, over --level, --grid (a few thousand
    points at most), --tol and --scales."""
    return [
        "branch", draw(st.sampled_from(["cantor-diamond", "cantor-losange", "fat-cantor-diamond", "sin"])),
        f"--format={draw(st.sampled_from(['csv', 'json']))}",
        *edged_flags(draw, {"level": st.integers(1, 3), "grid": st.integers(3, 3000),
                            "tol": st.floats(0.0, 0.1), "scales": st.floats(1e-3, 0.5)}),
    ]


@st.composite
def example_argvs(draw):
    """`example` argv, without --out, over --level and --samples (a few thousand at most)."""
    return [
        "example", draw(st.sampled_from(cli.NAMED_FUNCTIONS)), f"--format={draw(st.sampled_from(['csv', 'json']))}",
        *edged_flags(draw, {"level": st.integers(1, 3), "samples": st.integers(1, 3000)}),
    ]


@st.composite
def disk_argvs(draw):
    """`disk` argv, without --out, over --samples (a few thousand at most), --modes and --radius."""
    return [
        "disk", f"--trace={draw(st.sampled_from(sorted(cli._TRACES)))}",
        f"--format={draw(st.sampled_from(['csv', 'json']))}",
        *edged_flags(draw, {"samples": st.integers(1, 3000), "modes": st.integers(0, 64),
                            "radius": st.floats(1e-3, 1e3)}),
    ]


LIBC = ctypes.CDLL(None)
LIBC.fflush.argtypes, LIBC.fflush.restype = [ctypes.c_void_p], ctypes.c_int
LIBC.puts.argtypes, LIBC.puts.restype = [ctypes.c_char_p], ctypes.c_int


@contextlib.contextmanager
def c_output():
    """Collect what is written to file descriptors 1 and 2 inside the block,
    past `sys.stdout` and `sys.stderr`: LAPACK prints its " ** On entry to
    DLASCL" lines with C stdio, which is flushed before the descriptors are
    put back.  Yields a list that holds the text once the block ends."""
    written = []
    with tempfile.TemporaryFile() as sink:
        LIBC.fflush(None)
        saved = [os.dup(1), os.dup(2)]
        for fd in (1, 2):
            os.dup2(sink.fileno(), fd)
        try:
            yield written
        finally:
            LIBC.fflush(None)
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
            sink.seek(0)
            written.append(sink.read().decode(errors="replace"))


def run_main(argv):
    """cli.main on `argv`: (exit code, stdout).  A RuntimeWarning is raised
    as an error, so it escapes as a failure, and nothing may reach the
    process's own stdout or stderr, where a LAPACK line would go."""
    stdout = io.StringIO()
    with c_output() as leaked, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert leaked == [""], leaked
    return code, stdout.getvalue()


def run_drawn(argv, out):
    """`run_main` on a drawn argv writing to `out`."""
    return run_main([*argv, f"--out={out}"])


def test_c_output_sees_a_line_that_c_stdio_buffers():
    # a negative control: LAPACK's lines come through C stdio, which a redirect of sys.stdout does not see
    with c_output() as leaked, contextlib.redirect_stdout(io.StringIO()):
        LIBC.puts(b" ** On entry to DLASCL parameter number  4 had an illegal value")
    assert leaked == [" ** On entry to DLASCL parameter number  4 had an illegal value\n"]


def read_back(argv, out):
    """The rows of a written CSV file, each parsed as floats, under its
    header; or a JSON file loaded with no Infinity or NaN constant."""
    if "--format=json" in argv:
        return json.loads(out.read_text(), parse_constant=refuse_constant)
    header, *rows = csv.reader(out.open(newline=""))
    assert {len(row) for row in rows} <= {len(header)}
    return header, [list(map(float, row)) for row in rows]


class TestAuditBoundary:
    """Any mix of valid and edge values: exit 0 with a well-formed file that
    holds the summary's record count, or exit 2 with no file."""

    @settings(max_examples=300, deadline=None)
    @given(argv=audit_argvs())
    def test_audit_exits_0_with_its_file_or_2_without_one(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "audit.out")
            code, stdout = run_drawn(argv, out)
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            records = int(re.search(r" records=(\d+) ", stdout).group(1))
            if "--format=json" in argv:
                assert len(read_back(argv, out)["records"]) == records
            else:
                header, rows = read_back(argv, out)
                assert header == list(AuditRecord._fields)
                assert len(rows) == records


class TestDecayAndBranchBoundary:
    """`decay` and `branch` under any mix of valid and edge values: exit 0
    with a file that reads back, or exit 2 with no file."""

    @settings(max_examples=200, deadline=None)
    @given(argv=decay_argvs())
    def test_decay_exits_0_with_its_file_or_2_without_one(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "decay.out")
            code, stdout = run_drawn(argv, out)
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            assert "slope=" in stdout
            written = read_back(argv, out)
            if "--format=json" not in argv:
                assert written[0] == ["scale", "radius", "energy"]

    @settings(max_examples=200, deadline=None)
    @given(argv=branch_argvs())
    def test_branch_exits_0_with_its_file_or_2_without_one(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "branch.out")
            code, stdout = run_drawn(argv, out)
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            assert "dimension=" in stdout
            written = read_back(argv, out)
            if "--format=json" not in argv:
                assert written[0] == ["x", "sigma", "flagged"]


class TestExampleAndDiskBoundary:
    """`example` and `disk` under any mix of valid and edge values: exit 0
    with a file that reads back, or exit 2 with no file."""

    @settings(max_examples=200, deadline=None)
    @given(argv=example_argvs())
    def test_example_exits_0_with_its_file_or_2_without_one(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "example.out")
            code, _ = run_drawn(argv, out)
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            written = read_back(argv, out)
            if "--format=json" in argv:
                assert len(written["branches"]) >= 1 and {len(b) for b in written["branches"]} == {len(written["x"])}
            else:
                assert written[0][0] == "x" and written[1]

    @settings(max_examples=200, deadline=None)
    @given(argv=disk_argvs())
    def test_disk_exits_0_with_its_file_or_2_without_one(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "disk.out")
            code, stdout = run_drawn(argv, out)
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
                return
            assert "squeeze=" in stdout
            written = read_back(argv, out)
            if "--format=json" in argv:
                assert len(written["samples"]) == written["q_count"]
            else:
                assert written[0][0] == "angle" and written[1]


def number_or_text(text):
    """A drawn flag value as a config holds it: an int, a float, or else the text."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def config_of(argv):
    """The JSON config of a drawn ``--flag=value`` argv: a list flag's value
    is its list of floats, a repeated entry kept, and any other value a
    number where it is one."""
    config = {"command": argv[0], "name": argv[1]}
    for item in argv[2:]:
        key, text = item[2:].split("=", 1)
        is_list = key in ("radii", "scales")
        config[key] = [float(entry) for entry in text.split(",")] if is_list else number_or_text(text)
    return config


class TestConfigBoundary:
    """A drawn `audit`, `decay` or `branch` call written as a --config file:
    with an unknown key (one draw in four), exit 2 and no file; without one,
    the flags' exit code and output, and a file only on exit 0."""

    @settings(max_examples=300, deadline=None)
    @given(argv=st.one_of(audit_argvs(), decay_argvs(), branch_argvs()),
           unknown=st.sampled_from([True, False, False, False]))
    def test_config_exits_0_with_the_flags_file_or_2_without_one(self, argv, unknown):
        with tempfile.TemporaryDirectory() as tmp:
            out, path = Path(tmp, "config.out"), Path(tmp, "run.json")
            path.write_text(json.dumps({**config_of(argv), "out": str(out), **({"bogus": 1} if unknown else {})}))
            code, stdout = run_main(["--config", str(path)])
            assert code in (0, 2)
            if code == 2:
                assert not out.exists()
            if unknown:
                assert code == 2
                return
            flags_out = Path(tmp, "flags.out")
            assert (code, stdout) == run_drawn(argv, flags_out)
            if code == 0:
                assert out.read_bytes() == flags_out.read_bytes()


class TestLevelBound:
    """Every command that takes --level refuses one past MAX_LEVEL before writing anything."""

    @pytest.mark.parametrize("level", ["18", "40"])
    @pytest.mark.parametrize(
        "command",
        [
            ["example"],
            ["branch", "--grid", "101"],
            ["decay", "--center", "0.4", "--r0", "0.05"],
            ["audit", "--mode", "omega"],
            ["audit", "--mode", "quasi"],
        ],
        ids=["example", "branch", "decay", "audit-omega", "audit-quasi"],
    )
    def test_level_above_bound_is_usage_error(self, tmp_path, capsys, command, level):
        out = tmp_path / "out.csv"
        name = "fat-cantor-losange" if command[0] == "example" else "cantor-diamond"
        code = cli.main([command[0], name, *command[1:], "--level", level, "--out", str(out)])
        assert code == 2
        assert f"level must lie in [1, MAX_LEVEL = 17], got {level}" in capsys.readouterr().err
        assert not out.exists()


class TestCountBeforeAllocating:
    """Every grid whose size comes from a flag is counted against MAX_FAMILY_ROWS before it exists."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["example", "sin", "--samples", "1000000000000"], "the sine sample grid would have 1000000000000 rows"),
            (["example", "diamond", "--samples", "1000000000000"], "the example grid would have 1000000000000 rows"),
            (["branch", "diamond", "--grid", "1000000000000"], "the scan grid would have 1000000000000 rows"),
            (["disk", "--trace", "single-cos", "--samples", "1000000000000"], "the circle trace would have 1000000000000 samples"),
        ],
        ids=["example-sin", "example-grid", "branch-grid", "disk-trace"],
    )
    def test_oversized_array_is_usage_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out.csv"
        assert cli.main([*args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_disk_mode_count_is_not_a_size(self, tmp_path):
        # a (modes + 1) x samples Fourier basis of 2 x 10^8 values was refused here
        out = tmp_path / "disk.csv"
        assert cli.main(["disk", "--trace", "sqrt-type", "--samples", "20000", "--modes", "9999", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 20001

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("command", [["example"], ["audit", "--mode", "quasi"]], ids=["example", "audit"])
    def test_samples_below_one_is_usage_error(self, tmp_path, capsys, command, samples):
        # --samples 0 used to fall back to the default grid without a word
        out = tmp_path / "out.csv"
        code = cli.main([command[0], "diamond", *command[1:], "--samples", samples, "--out", str(out)])
        assert code == 2
        assert f"--samples must be an integer of at least 1, got {samples}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["example"], ["audit", "--mode", "quasi"]], ids=["example", "audit"])
    def test_sin_samples_below_two_name_the_flag(self, tmp_path, capsys, command):
        # this said "n must be an integer of at least 2", the sine sampler's own parameter
        out = tmp_path / "out.csv"
        assert cli.main([command[0], "sin", *command[1:], "--samples", "1", "--out", str(out)]) == 2
        assert "error: --samples must be an integer of at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()


# Per command: a call without its list flag, and that flag.
LIST_FLAG_CALLS = {
    "audit": (["audit", "diamond", "--mode", "omega", "--centers", "3"], "radii"),
    "branch": (["branch", "diamond", "--grid", "101"], "scales"),
    "decay": (["decay", "diamond", "--center", "0.5", "--r0", "0.1"], "scales"),
}


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(LIST_FLAG_CALLS))
def test_an_empty_list_is_usage_error(tmp_path, capsys, command, form):
    # `--radii ,` and `--scales ,`, and a config's empty list (`--scales ""`), took the default values and exited 0
    argv, flag = LIST_FLAG_CALLS[command]
    out = tmp_path / "out.csv"
    if form == "flag":
        code = cli.main([*argv, f"--{flag}", ",", "--out", str(out)])
    else:
        config = {"command": argv[0], "name": argv[1], flag: [], "out": str(out)}
        config.update((key[2:], value) for key, value in zip(argv[2::2], argv[3::2]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli.main(["--config", str(path)])
    assert code == 2
    assert f"argument --{flag}: expected at least one comma-separated float" in capsys.readouterr().err
    assert not out.exists()


class TestBranchAndDecay:
    @pytest.mark.parametrize(
        "scales, message",
        [
            ("0.1,0.1", "need at least two distinct scales"),
            ("0.1,inf", "box sizes must lie in (0, inf), got inf"),
            # box indices past int64 used to give a cast warning and dimension=0.0
            ("1e-300,1e-200", "box size 1e-300 is too small for this scan"),
        ],
        ids=["repeated", "infinite", "overflowing"],
    )
    def test_branch_degenerate_scales_are_usage_error(self, tmp_path, capsys, scales, message):
        out = tmp_path / "branch.csv"
        code = cli.main(
            ["branch", "cantor-diamond", "--level", "3", "--grid", "101", "--scales", scales, "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "dimension=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [(["decay", "cantor-diamond", "--level", "1", "--center", "0.5", "--r0", "0.25",
           "--scales", "0.001,0.0010000000000000002"], "the scales with positive energy are too close together"),
         (["branch", "cantor-diamond", "--level", "3", "--grid", "1001", "--scales", "0.1,0.10000000000000002"],
          "the scales are too close together")],
        ids=["decay", "branch"],
    )
    def test_scales_one_ulp_apart_are_usage_error(self, tmp_path, capsys, command, message):
        # np.polyfit warned "Polyfit may be poorly conditioned" (a RuntimeWarning) and the
        # run exited 0 with slope=0.5501716659440048 (decay) or dimension=0.45154499349597166 (branch)
        out = tmp_path / "out.csv"
        assert cli.main([*command, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_branch_json(self, tmp_path):
        out = tmp_path / "branch.json"
        code = cli.main(
            ["branch", "cantor-diamond", "--level", "5", "--grid", "244", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"scan", "dimension"}
        assert len(payload["scan"]["x"]) == 244
        assert set(payload["dimension"]) == {"scales", "counts", "slope", "r_squared"}
        assert {type(flag) for flag in payload["scan"]["flagged"]} == {bool}

    def test_branch_single_scale_is_usage_error(self, tmp_path):
        out = tmp_path / "branch.json"
        code = cli.main(
            ["branch", "cantor-diamond", "--level", "4", "--grid", "244", "--scales", "0.1",
             "--out", str(out), "--format", "json"]
        )
        assert code == 2

    def test_branch_nan_scale_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "branch.json"
        code = cli.main(
            ["branch", "cantor-diamond", "--level", "3", "--grid", "82", "--scales", "0.1,nan",
             "--out", str(out), "--format", "json"]
        )
        assert code == 2
        assert "box size" in capsys.readouterr().err

    def test_branch_nan_tol_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["branch", "sin", "--grid", "101", "--tol", "nan", "--out", str(tmp_path / "b.csv")])
        assert code == 2
        assert "tol must lie in [0, inf), got nan" in capsys.readouterr().err

    def test_branch_csv(self, tmp_path):
        out = tmp_path / "branch.csv"
        code = cli.main(["branch", "sin", "--grid", "101", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,sigma,flagged"
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0", "1"}

    def test_branch_infinite_tol_is_usage_error(self, tmp_path, capsys):
        # every point merged, and the run ended in "no flagged points to count"
        out = tmp_path / "b.csv"
        code = cli.main(["branch", "diamond", "--grid", "11", "--tol", "inf", "--out", str(out)])
        assert code == 2
        assert "tol must lie in [0, inf), got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_csv_and_slope(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        code = cli.main(
            ["decay", "cantor-diamond", "--level", "4", "--center", "0.4", "--r0", "0.05", "--out", str(out)]
        )
        assert code == 0
        assert "slope=" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "scale,radius,energy"

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "warnings-as-errors"])
    def test_decay_with_one_distinct_scale_is_refused_up_front(self, tmp_path, flags):
        # np.polyfit got one abscissa twice: a RuntimeWarning and six LAPACK "DLASCL" lines
        # on stderr, then "SVD did not converge" (under -W error, a traceback and exit 1)
        out = tmp_path / "d.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = ["decay", "cantor-diamond", "--level", "3", "--center", "0.4", "--r0", "0.05", "--scales", "1,1",
                "--out", str(out), "--format", "json"]
        proc = subprocess.run([sys.executable, *flags, "-m", "qvlab.cli", *args], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: need at least two distinct scales with positive energy"]
        assert not out.exists()

    def test_decay_nan_scale_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        code = cli.main(
            ["decay", "double-line", "--center", "0.5", "--r0", "0.25", "--scales", "1,nan,0.5", "--out", str(out)]
        )
        assert code == 2
        assert "scales must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("center, r0, name", [("nan", "0.25", "center"), ("0.5", "nan", "r0")])
    def test_decay_nan_center_or_r0_is_usage_error(self, tmp_path, capsys, center, r0, name):
        message = {"center": "center must be finite, got nan", "r0": "r0 must lie in (0, inf), got nan"}[name]
        out = tmp_path / "decay.csv"
        code = cli.main(
            ["decay", "double-line", "--center", center, "--r0", r0, "--scales", "1,0.5", "--out", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "r0, message",
        [("-0.1", "r0 must lie in (0, inf), got -0.1"), ("1e-320", "r0 = 1e-320 is too small")],
        ids=["negative", "subnormal"],
    )
    def test_decay_r0_without_a_ball_is_usage_error(self, tmp_path, capsys, r0, message):
        # these got "empty interval [0.6, 0.4]" and "empty interval [0.5, 0.5]"
        out = tmp_path / "decay.csv"
        code = cli.main(["decay", "diamond", "--center", "0.5", "--r0", r0, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDisk:
    def test_json_output(self, tmp_path):
        out = tmp_path / "disk.json"
        code = cli.main(
            ["disk", "--trace", "single-cos", "--samples", "256", "--modes", "32",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dir_interior"] == pytest.approx(np.pi)
        assert payload["squeeze_margin"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_nonfinite_radius_is_usage_error(self, tmp_path, radius):
        out = tmp_path / "disk.json"
        code = cli.main(["disk", "--trace", "single-cos", "--radius", radius, "--out", str(out), "--format", "json"])
        assert code == 2

    @pytest.mark.parametrize("trace", ["constant", "single-cos"])
    def test_subnormal_radius_is_usage_error(self, tmp_path, capsys, trace):
        out = tmp_path / "disk.json"
        code = cli.main(
            ["disk", "--trace", trace, "--samples", "64", "--modes", "8", "--radius", "1e-320",
             "--out", str(out), "--format", "json"]
        )
        assert code == 2
        assert "the boundary energy at radius 1e-320 must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_modes_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "disk.csv"
        code = cli.main(["disk", "--trace", "constant", "--samples", "64", "--modes", "-1", "--out", str(out)])
        assert code == 2
        assert "mode_cap must be an integer of at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "disk.csv"
        code = cli.main(["disk", "--trace", "sqrt-type", "--samples", "128", "--modes", "16", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "angle,branch_1,branch_2"


class TestConfig:
    def test_config_round_trip(self, tmp_path):
        cfg = {
            "command": "example",
            "name": "losange",
            "out": str(tmp_path / "l.csv"),
            "format": "csv",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 0
        assert (tmp_path / "l.csv").exists()

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = {"command": "example", "name": "losange", "out": "x.csv", "format": "csv", "bogus": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 2

    def test_unknown_key_is_refused_by_the_command_parser(self, tmp_path, capsys):
        cfg = {"command": "example", "name": "losange", "out": str(tmp_path / "x.csv"), "bogus": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 2
        assert "unrecognized arguments: --bogus=1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # Per command: a config holding every one of its keys, and the same call as
    # flags.  A value that starts with "-" was read as a flag with no value
    # (`--center -1e-05`), so the last config exited 2 where its flags exit 0.
    ALL_KEYS = {
        "example": (
            {"name": "cantor-diamond", "level": 2, "samples": 33, "format": "json"},
            ["example", "cantor-diamond", "--level", "2", "--samples", "33", "--format", "json"],
        ),
        "audit": (
            {"name": "cantor-losange", "mode": "omega", "alpha": 0.25, "depth": 3, "radii": [0.05, 0.1],
             "centers": 5, "level": 2, "samples": 9, "format": "csv"},
            ["audit", "cantor-losange", "--mode", "omega", "--alpha", "0.25", "--depth", "3", "--radii", "0.05,0.1",
             "--centers", "5", "--level", "2", "--samples", "9", "--format", "csv"],
        ),
        "branch": (
            {"name": "cantor-diamond", "grid": 82, "scales": [1 / 9, 1 / 27], "tol": 1e-9, "level": 3,
             "samples": 5, "format": "json"},
            ["branch", "cantor-diamond", "--grid", "82", "--scales", f"{1 / 9!r},{1 / 27!r}", "--tol", "1e-09",
             "--level", "3", "--samples", "5", "--format", "json"],
        ),
        "decay": (
            {"name": "cantor-diamond", "center": 0.4, "r0": 0.05, "scales": [1, 0.5, 0.25], "level": 3,
             "samples": 7, "format": "csv"},
            ["decay", "cantor-diamond", "--center", "0.4", "--r0", "0.05", "--scales", "1,0.5,0.25", "--level", "3",
             "--samples", "7", "--format", "csv"],
        ),
        "disk": (
            {"trace": "sqrt-type", "radius": 2.0, "samples": 64, "modes": 8, "format": "json"},
            ["disk", "--trace", "sqrt-type", "--radius", "2.0", "--samples", "64", "--modes", "8", "--format", "json"],
        ),
        "decay-negative-center": (
            {"name": "sin", "center": -1e-05, "r0": 0.01},
            ["decay", "sin", "--center=-1e-05", "--r0", "0.01"],
        ),
    }

    @pytest.mark.parametrize("command", sorted(ALL_KEYS))
    def test_config_keys_are_the_flags(self, tmp_path, capsys, command):
        keys, argv = self.ALL_KEYS[command]
        assert cli.main([*argv, "--out", str(tmp_path / "flags.out")]) == 0
        from_flags = capsys.readouterr()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": argv[0], **keys, "out": str(tmp_path / "config.out")}))
        assert cli.main(["--config", str(path)]) == 0
        assert capsys.readouterr() == from_flags
        assert (tmp_path / "config.out").read_bytes() == (tmp_path / "flags.out").read_bytes()

    def test_config_takes_the_abbreviations_the_command_line_takes(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = {"command": "example", "name": "diamond", "form": "json", "out": str(tmp_path / "a")}
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 0
        assert cli.main(["example", "diamond", "--form", "json", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert json.loads((tmp_path / "a").read_text())["name"] == "diamond"

    def test_config_with_extra_flags_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "verify-all"}))
        assert cli.main(["--config", str(path), "example"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["example", "cantor-losange", "--level", "3"],
            ["audit", "cantor-diamond", "--level", "2", "--mode", "quasi", "--depth", "6"],
            ["decay", "double-line", "--center", "0.5", "--r0", "0.25"],
            ["disk", "--trace", "shifted-pair", "--samples", "128", "--modes", "16"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, tmp_path, args):
        for fmt in ("csv", "json"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            assert cli.main(args + ["--out", str(a), "--format", fmt]) == 0
            assert cli.main(args + ["--out", str(b), "--format", fmt]) == 0
            assert a.read_bytes() == b.read_bytes()


def refuse_constant(name):
    """Refuse the Infinity and NaN literals, which strict JSON does not have."""
    raise ValueError(f"{name} is not strict JSON")


class TestGoldenBytes:
    """sha256 of small outputs, each recorded before the code that writes it changed.

    The inputs are chosen so that every written number comes from arithmetic
    and interpolation only (no sin/cos or FFT), so the digests do not depend
    on the platform's libm or SIMD paths.  Three JSON cases go further: the
    branch and decay files carry a least-squares slope, and the disk file the
    Fourier coefficients of a constant trace, which come out exact.
    """

    CASES = {
        "audit-quasi.csv": (
            ["audit", "cantor-diamond", "--level", "3", "--mode", "quasi", "--depth", "7"],
            "4013abc96c24c22df0d808bc54f17652c8dbb606d24dffe4618a239e9c573c15",
        ),
        "audit-quasi.json": (
            ["audit", "cantor-diamond", "--level", "3", "--mode", "quasi", "--depth", "7", "--format", "json"],
            "708cc058e39a0f4da34ae1500fa0d0c7829a940ce0c4e6045da6247f21b89ad0",
        ),
        "audit-almost.json": (
            ["audit", "cantor-losange", "--level", "3", "--mode", "almost", "--depth", "7", "--format", "json"],
            "a32405f80769d583575a493780f21b47b7f57552024dc6d84da3381d7373d0a4",
        ),
        "audit-omega.csv": (
            ["audit", "cantor-diamond", "--level", "3", "--mode", "omega", "--radii", "0.05,0.1", "--centers", "21"],
            "8bdf23c529d66618d33c1adf276589b81cb15fb7030224981d09cd0bb99faedd",
        ),
        "branch.csv": (
            ["branch", "cantor-diamond", "--level", "5", "--grid", "244"],
            "a1b029c5cadd525455e0c5c35492972b2308dfb097b6bbf3c686c0dc56d456f2",
        ),
        "example.csv": (
            ["example", "diamond"],
            "fe8109321672becdd1e7efbb61c9c658d5fc3c4b580633e89b4d8c6318a278f1",
        ),
        "decay.csv": (
            ["decay", "cantor-diamond", "--level", "4", "--center", "0.4", "--r0", "0.05",
             "--scales", "1,0.5,0.25,0.125"],
            "7b28050f27cac08d320461d31cc720baee1c7931fb190d71bdb56922965e4166",
        ),
        "disk.csv": (
            ["disk", "--trace", "constant", "--samples", "64", "--modes", "8"],
            "034e3f7267e64da6bfafbd2bd5d0210980ed3f831a51a88e81b7b57c3fb470b8",
        ),
        "audit-quasi-inf.json": (
            ["audit", "losange", "--mode", "quasi", "--depth", "4", "--format", "json"],
            "160079e521ee4332ab5f4c0741f1255af6cec7ef6c04d516c31b04904bf29545",
        ),
        "audit-omega.json": (
            ["audit", "cantor-diamond", "--level", "3", "--mode", "omega", "--radii", "0.05,0.1", "--centers", "21",
             "--format", "json"],
            "9762ddc1e1e4160b4f763c682bb2f263a176e0b6f666abacb7548394938673d2",
        ),
        "example.json": (
            ["example", "diamond", "--format", "json"],
            "80d5f41be493b28652b4cd777368f1801d53f6414331cf3ebee823c88c9031e4",
        ),
        "branch.json": (
            ["branch", "cantor-diamond", "--level", "5", "--grid", "244", "--format", "json"],
            "8e6d408f168e03c46ed031f57060583dff3da1c01f179f1cbdf4ac5c579f8b2f",
        ),
        "decay.json": (
            ["decay", "cantor-diamond", "--level", "4", "--center", "0.4", "--r0", "0.05",
             "--scales", "1,0.5,0.25,0.125", "--format", "json"],
            "50530c05bb63ed78583dedda0d475edebcdd75b59e7cac559fadea6d47feb40a",
        ),
        "disk.json": (
            ["disk", "--trace", "constant", "--samples", "64", "--modes", "8", "--format", "json"],
            "78bbeb638c861c43e53916482e267873e9670552953f9dbedc8156379a578a4c",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_sha256(self, tmp_path, name):
        argv, digest = self.CASES[name]
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        if out.suffix == ".json":
            json.loads(out.read_text(), parse_constant=refuse_constant)


class TestHelp:
    """The named functions and traces are declared once and listed, in this order, by every --help."""

    FUNCTIONS = (
        "double-line", "diamond", "losange", "pluri-losange-demo", "sin",
        "cantor-diamond", "cantor-losange", "fat-cantor-diamond", "fat-cantor-losange",
    )
    TRACES = ("single-cos", "shifted-pair", "sqrt-type", "constant")

    def test_top_level_help(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "{example,audit,branch,decay,disk,verify-all}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["example", "audit", "branch", "decay", "disk", "verify-all"])
    def test_subcommand_help(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: qvlab {command}")
        if command in ("example", "audit", "branch", "decay"):
            assert "{" + ",".join(self.FUNCTIONS) + "}" in out
        if command == "disk":
            assert "{" + ",".join(self.TRACES) + "}" in out

    def test_named_functions_in_order(self):
        assert cli.NAMED_FUNCTIONS == self.FUNCTIONS


class TestVerifyAll:
    def test_exit_codes_follow_results(self, monkeypatch, capsys):
        from qvlab import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub-pass", lambda: (True, "fine"))])
        assert cli.main(["verify-all"]) == 0
        assert "[PASS]" in capsys.readouterr().out

        monkeypatch.setattr(acceptance, "CRITERIA", [(2, "stub-fail", lambda: (False, "broken"))])
        assert cli.main(["verify-all"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_criterion_times_go_to_stderr(self, monkeypatch, capsys):
        from qvlab import acceptance

        stubs = [(number, name, lambda: (True, "fine")) for number, name, _ in acceptance.CRITERIA]
        monkeypatch.setattr(acceptance, "CRITERIA", stubs)
        assert cli.main(["verify-all"]) == 0
        captured = capsys.readouterr()
        # stdout holds the result lines and the count, and nothing else
        lines = [CheckResult(n, name, True, "fine").line() for n, name, _ in stubs]
        assert captured.out.splitlines() == lines + ["12 of 12 checks passed"]
        times = captured.err.splitlines()
        assert len(times) == 12
        for line, (number, name, _) in zip(times, stubs):
            assert re.fullmatch(rf"\[time\] {number} {name} \d+\.\d{{3}} s", line)

    @pytest.mark.parametrize("index", [0, 1, 5])
    def test_an_error_in_any_share_exits_2(self, monkeypatch, capsys, index):
        from qvlab import acceptance

        def broken():
            raise ValueError("stub broke")

        stubs = [(n, f"stub-{n}", lambda: (True, "fine")) for n in range(1, 13)]
        stubs[index] = (index + 1, "stub-raises", broken)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(acceptance, "CRITERIA", stubs)
        assert cli.main(["verify-all"]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [CheckResult(n, name, True, "fine").line() for n, name, _ in stubs[:index]]
        assert captured.err.splitlines()[-1] == "error: stub broke"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_pending_partial_line_is_written_once(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)  # so that stdout to a pipe is buffered
        # Criterion 2 runs in a worker and warns: the worker writes its stderr buffer.
        code = (
            "import os, sys, warnings\n"
            "from qvlab import acceptance, cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "acceptance.CRITERIA = [(n, f'stub-{n}', lambda: (True, 'fine')) for n in range(1, 13)]\n"
            "acceptance.CRITERIA[1] = (2, 'stub-2', lambda: (warnings.warn('stub warns'), (True, 'fine'))[1])\n"
            "print('x', end='')\n"
            "print('y', end='', file=sys.stderr)\n"
            "sys.exit(cli.main(['verify-all']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("x") == 1 and proc.stdout.startswith("x[PASS]  1 stub-1: fine\n")
        assert proc.stdout.endswith("\n12 of 12 checks passed\n")
        assert proc.stderr.count("y") == 1 and proc.stderr.startswith("y")
        assert "UserWarning: stub warns" in proc.stderr

    def test_real_run_prints_the_reference_lines(self, capsys):
        # perfbench/reference.json pins the verify-all stdout the benchmark checks; it is only read here
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        lines = json.loads(reference.read_text())["verify-all"]["lines"]
        assert cli.main(["verify-all"]) == 0
        assert capsys.readouterr().out.splitlines()[: len(lines)] == lines
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 2

    def test_module_runs_as_script(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "qvlab.cli", "--help"], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: qvlab")
