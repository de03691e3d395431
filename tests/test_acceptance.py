"""Acceptance suite: every criterion at its stated tolerance.

Each test prints the criterion's PASS/FAIL line (visible with -s or on
failure) and asserts it passed.  The same checks back the command-line
`verify-all` subcommand.
"""

import pytest

from qvlab import acceptance
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
