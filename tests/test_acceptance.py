"""Acceptance suite: every criterion at its stated tolerance.

Each test prints the criterion's PASS/FAIL line (visible with -s or on
failure) and asserts it passed.  The same checks back the command-line
`verify-all` subcommand.
"""

import functools
import itertools
import math
import operator
import os
import re
import time
import types
import warnings

import numpy as np
import pytest

from qvlab import acceptance, constructions, disk2d, func1d, qspace
from qvlab.acceptance import CheckResult


@pytest.mark.parametrize(
    "number,name,check",
    acceptance.CRITERIA,
    ids=[f"{num:02d}-{name}" for num, name, _ in acceptance.CRITERIA],
)
def test_criterion(number, name, check):
    result = CheckResult(number, name, *check())
    print(result.line())
    assert result.passed, result.line()


def test_criteria_are_numbered_once():
    numbers = [number for number, _, _ in acceptance.CRITERIA]
    names = [name for _, name, _ in acceptance.CRITERIA]
    assert numbers == list(range(1, 13))
    assert len(set(names)) == len(names)


def permutation_loop_distance(pa, pb):
    """The criterion-1 oracle as a loop over `itertools.permutations`, each sum
    added left to right in row order.  (`sum` would not do: from Python 3.12 it
    adds floats with compensation.)"""
    q = pa.shape[0]
    cost = [[float(((pa[i] - pb[j]) ** 2).sum()) for j in range(q)] for i in range(q)]
    best = min(functools.reduce(operator.add, (cost[i][p[i]] for i in range(q))) for p in itertools.permutations(range(q)))
    return math.sqrt(best)


def test_exhaustive_distance_matches_permutation_loop_bitwise():
    # Integer grids and permuted near-copies put many tied and near-tied pairings in the draws.
    rng = np.random.default_rng(20001)
    for k in range(1000):
        q, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        if k % 3 == 0:
            pa, pb = rng.normal(0.0, 5.0, (q, n)), rng.normal(0.0, 5.0, (q, n))
        elif k % 3 == 1:
            pa, pb = (rng.integers(-2, 3, (2, q, n)) * 0.5).astype(float)
        else:
            pa = rng.normal(0.0, 1e3, (q, n))
            pb = pa[rng.permutation(q)] + rng.normal(0.0, 1e-9, (q, n))
        got = acceptance._exhaustive_distance(pa, pb)
        assert type(got) is float and got == permutation_loop_distance(pa, pb), (pa, pb)


def nan_at_second_call(fn):
    """`fn` whose second call returns NaN (for a tuple, as its last item):
    a later finite result must not take the NaN's place."""
    calls = []

    def patched(*args, **kwargs):
        value = fn(*args, **kwargs)
        calls.append(None)
        if len(calls) != 2:
            return value
        return (*value[:-1], value[-1] * np.nan) if isinstance(value, tuple) else value * np.nan

    return patched


@pytest.mark.parametrize(
    "number, module, name",
    [(1, qspace, "metric_g"), (2, func1d, "dirichlet_energy"), (3, func1d, "_audit_supremum"),
     (4, func1d, "_end_gaps"), (5, constructions, "sin_w_ratio"), (7, func1d, "_audit_supremum"),
     (9, func1d, "energy_decay_exponent"), (10, disk2d, "check_squeeze_2d"), (11, qspace, "metric_g"),
     (12, qspace, "metric_g")],
)
def test_a_nan_figure_fails_its_criterion(number, module, name, monkeypatch):
    # max(0.0, nan), min(inf, nan), `nan > best` and `nan > bound` each let a NaN pass.
    # Only the criterion's own calls see the NaN: the module it reads is a copy.
    patched = types.SimpleNamespace(**vars(module))
    setattr(patched, name, nan_at_second_call(getattr(module, name)))
    binding = next(attr for attr, value in vars(acceptance).items() if value is module)
    monkeypatch.setattr(acceptance, binding, patched)
    _, _, check = acceptance.CRITERIA[number - 1]
    passed, detail = check()
    assert not passed, detail


@pytest.mark.parametrize("number", [3, 7])
def test_a_nan_block_figure_fails_its_criterion(number, monkeypatch):
    # The criterion's own reduction meets the NaN: it raised IndexError there.
    evaluate = func1d._evaluate

    def nan_in_second_block(*args, **kwargs):
        for k, block in enumerate(evaluate(*args, **kwargs)):
            yield block._replace(figure=block.figure * np.nan) if k == 1 else block

    monkeypatch.setattr(func1d, "_evaluate", nan_in_second_block)
    _, _, check = acceptance.CRITERIA[number - 1]
    passed, detail = check()
    assert not passed and "= nan" in detail, detail


def stub(passed, detail="fine"):
    return lambda: (passed, detail)


STUBS = [(n, f"stub-{n}", stub(n % 5 != 0, f"detail {n}")) for n in range(1, 13)]


def set_cpus(monkeypatch, count):
    """`run_all` as if this process could run on `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_stubs(monkeypatch, capsys, stubs, cpus):
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    results = acceptance.run_all()
    assert_no_child_left()
    return results, capsys.readouterr()


class TestRunAll:
    """`run_all` runs the criteria in one process per usable CPU and prints
    what one process prints."""

    @pytest.mark.parametrize("cpus", [2, 3, 12, 16])
    def test_workers_print_what_one_process_prints(self, monkeypatch, capsys, cpus):
        serial, alone = run_stubs(monkeypatch, capsys, STUBS, 1)
        shared, side_by_side = run_stubs(monkeypatch, capsys, STUBS, cpus)
        assert shared == serial
        assert side_by_side.out == alone.out
        assert alone.out.splitlines() == [result.line() for result in serial]
        assert "[FAIL]  5 stub-5: detail 5" in alone.out
        for times in (alone.err, side_by_side.err):
            for line, (number, name, _) in zip(times.splitlines(), STUBS, strict=True):
                assert re.fullmatch(rf"\[time\] {number} {name} \d+\.\d{{3}} s", line)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_worker_runs_its_share_by_index(self, monkeypatch, capsys, cpus):
        stubs = [(n, f"stub-{n}", lambda: (True, str(os.getpid()))) for n in range(1, 13)]
        results, _ = run_stubs(monkeypatch, capsys, stubs, cpus)
        pids = [result.detail for result in results]
        assert pids[0] == str(os.getpid())
        assert len(set(pids)) == cpus
        assert all(pids[i] == pids[i % cpus] for i in range(12))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("index", [0, 1, 2, 7, 11])
    def test_an_exception_keeps_its_class_and_the_lines_before_it(self, monkeypatch, capsys, cpus, index):
        def broken():
            raise ValueError(f"stub {index + 1} broke")

        stubs = list(STUBS)
        stubs[index] = (index + 1, "stub-raises", broken)
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(acceptance, "CRITERIA", stubs)
        with pytest.raises(ValueError, match=rf"^stub {index + 1} broke$"):
            acceptance.run_all()
        assert_no_child_left()
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [CheckResult(n, name, *fn()).line() for n, name, fn in STUBS[:index]]
        assert len(captured.err.splitlines()) == index

    def test_an_exception_that_does_not_pickle_is_raised_from_the_parent(self, monkeypatch, capsys):
        class LocalError(ValueError):
            pass

        def check():
            raise LocalError("not picklable: its class is local")

        stubs = list(STUBS)
        stubs[1] = (2, "stub-raises", check)
        with pytest.raises(LocalError, match="its class is local"):
            run_stubs(monkeypatch, capsys, stubs, 2)
        assert_no_child_left()

    def test_a_worker_that_dies_leaves_its_share_to_the_parent(self, monkeypatch, capsys):
        parent = os.getpid()
        stubs = list(STUBS)
        stubs[1] = (2, "stub-2", lambda: os._exit(3) if os.getpid() != parent else (True, "run by the parent"))
        results, captured = run_stubs(monkeypatch, capsys, stubs, 2)
        assert results[1].detail == "run by the parent"
        assert len(captured.out.splitlines()) == 12

    def test_a_failed_fork_leaves_its_share_to_the_parent(self, monkeypatch, capsys):
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        stubs = [(n, f"stub-{n}", lambda: (True, str(os.getpid()))) for n in range(1, 13)]
        results, captured = run_stubs(monkeypatch, capsys, stubs, 3)
        assert {result.detail for result in results} == {str(os.getpid())}
        assert len(captured.err.splitlines()) == 12

    def test_the_fork_warning_of_a_threaded_process_is_no_error(self, monkeypatch, capsys):
        # From Python 3.12 os.fork warns when threads are alive, as numpy's BLAS threads are;
        # raised as an error it would leave a worker the parent never heard of.
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, side_by_side = run_stubs(monkeypatch, capsys, STUBS, 2)
        _, alone = run_stubs(monkeypatch, capsys, STUBS, 1)
        assert side_by_side.out == alone.out

    def test_an_interrupt_kills_and_reaps_the_workers(self, monkeypatch, capsys):
        def interrupt():
            raise KeyboardInterrupt

        def sleep():
            time.sleep(60)
            return True, "slept"

        stubs = list(STUBS)
        stubs[0] = (1, "stub-interrupted", interrupt)
        stubs[1] = (2, "stub-sleeps", sleep)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_stubs(monkeypatch, capsys, stubs, 2)
        assert_no_child_left()
        assert time.monotonic() - start < 30
        assert capsys.readouterr().out == ""
