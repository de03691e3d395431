"""Boundary checks, each written so that NaN fails it.  A check names the
parameter, raises its caller's class (ValueError by default) and returns it."""

import math
import operator
import warnings

import numpy as np

# numpy 1.25 moved RankWarning to numpy.exceptions, and numpy 2 removed the old name.
_RankWarning = getattr(np, "exceptions", np).RankWarning


def real(name: str, value, lo=0, hi=math.inf, ends: str = "()", error=ValueError):
    """A number from lo to hi, open or closed at each end as the brackets in `ends` say; by default positive."""
    above = (lo <= value) if ends[0] == "[" else (lo < value)
    if not (above and ((value <= hi) if ends[1] == "]" else (value < hi))):
        raise error(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")
    return value


def integer(name: str, value, least: int = 0, error=ValueError, too_large=None) -> int:
    """An int of at least `least`; a bool or float (2.0 too) is refused, +inf as `too_large` if the caller gives one."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not number >= least:
        refusal = too_large if too_large and value == math.inf else error
        raise refusal(f"{name} must be an integer of at least {least}, got {value!r}")
    return number


def finite(name: str, *arrays, error=ValueError) -> None:
    """Every value of each array, or each number, finite; a number is quoted."""
    for values in arrays:
        if not np.isfinite(values).all():
            quoted = f", got {np.asarray(values).item()!r}" if np.ndim(values) == 0 else ""
            raise error(f"{name} must be finite{quoted}")


def interval(a, b, error=ValueError) -> None:
    if not -math.inf < a < b < math.inf:
        raise error(f"need finite ends a < b, got [{a}, {b}]")


def distinct(name: str, values, error=ValueError) -> None:
    """At least two distinct values; NaNs count as one."""
    if not np.unique(values).size >= 2:
        raise error(f"need at least two distinct {name}")


def line_fit(name: str, x, y, error=ValueError) -> np.ndarray:
    """np.polyfit(x, y, 1), refused where numpy finds the x values too close
    together to fit a line (it warns and fits rounding noise), as for two
    scales one ulp apart."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", _RankWarning)
        try:
            return np.polyfit(x, y, 1)
        except _RankWarning:
            raise error(f"the {name} are too close together to fit a slope") from None
