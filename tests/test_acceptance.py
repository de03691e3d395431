"""Acceptance suite: every criterion at its stated tolerance.

Each test prints the criterion's PASS/FAIL line (visible with -s or on
failure) and asserts it passed.  The same checks back the command-line
`verify-all` subcommand.
"""

import functools
import itertools
import math
import operator
import types

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
     (4, func1d, "matching_distance_sq"), (5, constructions, "sin_w_ratio"), (7, func1d, "_audit_supremum"),
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
