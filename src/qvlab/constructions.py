"""Constructors for the worked example functions.

Two-branch building blocks (diamonds and losanges over an interval), their
continuous concatenations driven by middle-interval removal schedules of
Cantor type, and the sine pair with its closed-form energies.  Every
constructor returns a valid sorted-branch piecewise-affine function.  A
diamond starts at the double value zero and a double line is 2[[x]]; the
pluri-losange and every Cantor refinement live on [0, 1].  A construction's
removed intervals are its one record: the kept intervals lie between them,
and the branch gap above one peaks at (b - a)/2 for a diamond and b - a for
a losange.  The refinement level is checked in one place, `_check_level`,
against 1 <= L <= MAX_LEVEL, before any removed interval exists.  The
pluri-losange and the diamond refinements share one breakpoint layout,
`_level_breakpoints`: 0, then each interval's a, midpoint and b, then 1.
The pluri-losange drops a point equal to the one before it (touching ends,
or a midpoint that rounds to an end), and a losange refinement is the
pluri-losange of its removed intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _checks
from .func1d import DomainError, FamilySizeError, PiecewiseAffineQ, _check_rows

__all__ = [
    "RemovedInterval",
    "CantorConstruction",
    "CantorLimit",
    "make_diamond",
    "make_losange",
    "make_double_line",
    "make_pluri_losange",
    "ternary_removed_intervals",
    "fat_removed_intervals",
    "fat_residual_length",
    "cantor_level",
    "cantor_limit",
    "sin_dir_u",
    "sin_dir_v_identity",
    "sin_w_ratio",
    "omega_sin",
    "sin_sampled",
    "SIN_HALF_WIDTH",
    "MAX_LEVEL",
]

SIN_HALF_WIDTH = math.pi / 4.0

# The deepest refinement level.  Through level 17 every flavor and schedule
# has 3 * 2^L - 1 breakpoints and builds in well under a second; at level 18
# the fat schedule's smallest removed intervals round to a == b.
MAX_LEVEL = 17


def make_diamond(a: float, b: float) -> PiecewiseAffineQ:
    """Two-branch function whose graph is the parallelogram with vertices
    (a, 0), ((a+b)/2, 0), ((a+b)/2, (b-a)/2), (b, (b-a)/2).

    The lower branch is flat then rises with slope one, the upper branch
    rises first then flattens; both endpoints are double points.
    """
    _checks.interval(a, b, DomainError)
    mid = 0.5 * (a + b)
    top = 0.5 * (b - a)
    bps = np.array([a, mid, b])
    lower = np.array([0.0, 0.0, top])
    upper = np.array([0.0, top, top])
    return PiecewiseAffineQ(bps, np.vstack((lower, upper)))


def make_losange(a: float, b: float) -> PiecewiseAffineQ:
    """Two-branch function whose graph is the parallelogram with vertices
    (a, 0), (b, 0), ((a+b)/2, (b-a)/2), ((a+b)/2, (a-b)/2).

    The upper branch is a tent with slopes +-1, the lower branch its mirror
    image; both endpoints carry the double value zero.
    """
    _checks.interval(a, b, DomainError)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    bps = np.array([a, mid, b])
    return PiecewiseAffineQ(bps, np.vstack((np.array([0.0, -half, 0.0]), np.array([0.0, half, 0.0]))))


def make_double_line(a: float, b: float) -> PiecewiseAffineQ:
    """The double line x -> 2[[x]] on [a, b]."""
    _checks.interval(a, b, DomainError)
    bps = np.array([a, b])
    return PiecewiseAffineQ(bps, np.vstack((bps, bps)))


def make_pluri_losange(intervals) -> PiecewiseAffineQ:
    """Losanges above the given disjoint subintervals of [0, 1], the double
    value zero elsewhere.  Intervals may touch at an end but not overlap."""
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    for a, b in ivs:
        if not (0.0 <= a < b <= 1.0):
            raise DomainError(f"losange interval [{a}, {b}] leaves [0.0, 1.0]")
    for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
        if not b0 <= a1:
            raise DomainError(f"losange intervals [{a0}, {b0}] and [{a1}, {b1}] overlap")
    a, b = np.array(ivs).reshape(-1, 2).T
    bps, _ = _level_breakpoints(a, b)
    branches = np.zeros((2, bps.size))
    branches[:, 2::3] = -0.5 * (b - a), 0.5 * (b - a)
    # A point equal to the one before it (a touching end, a midpoint rounded
    # to an end) is dropped, and the first of the two keeps its values.
    keep = np.concatenate(([True], bps[1:] > bps[:-1]))
    return PiecewiseAffineQ(bps[keep], branches[:, keep])


def _level_breakpoints(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The breakpoint layout above sorted disjoint intervals (a_i, b_i) of
    [0, 1]: 0, then each interval's a, midpoint and b, then 1; and the
    midpoints."""
    mid = 0.5 * (a + b)
    return np.concatenate(([0.0], np.column_stack((a, mid, b)).ravel(), [1.0])), mid


def _check_level(level: int) -> None:
    if not 1 <= _checks.integer("level", level) <= MAX_LEVEL:
        raise ValueError(f"level must lie in [1, MAX_LEVEL = {MAX_LEVEL}], got {level!r}")


class RemovedInterval(NamedTuple):
    a: float
    b: float
    step: int  # refinement step at which the interval was removed


def ternary_removed_intervals(level: int) -> list[RemovedInterval]:
    """Open middle thirds removed from [0, 1] through `level` steps.

    Endpoints are exact integer fractions k / 3^step, evaluated by a single
    float division each.
    """
    _check_level(level)
    removed: list[RemovedInterval] = []
    kept = [(0, 1)]  # intervals [n, n+1] / 3^step at the current step
    for step in range(1, level + 1):
        next_kept = []
        for n, _ in kept:
            lo3 = 3 * n
            removed.append(RemovedInterval((lo3 + 1) / 3.0**step, (lo3 + 2) / 3.0**step, step))
            next_kept.extend([(lo3, lo3 + 1), (lo3 + 2, lo3 + 3)])
        kept = next_kept
    removed.sort()
    return removed


def fat_removed_intervals(level: int) -> list[RemovedInterval]:
    """Positive-measure variant: step k removes the middle 4^-k fraction of
    each remaining interval, leaving residual measure prod(1 - 4^-k)."""
    _check_level(level)
    removed: list[RemovedInterval] = []
    kept = [(0.0, 1.0)]
    for step in range(1, level + 1):
        frac = 4.0 ** (-step)
        next_kept = []
        for a, b in kept:
            mid = 0.5 * (a + b)
            half = 0.5 * frac * (b - a)
            removed.append(RemovedInterval(mid - half, mid + half, step))
            next_kept.extend([(a, mid - half), (mid + half, b)])
        kept = next_kept
    removed.sort()
    return removed


def fat_residual_length(level: int) -> float:
    """Analytic residual measure of the fat schedule after `level` steps."""
    out = 1.0
    for step in range(1, level + 1):
        out *= 1.0 - 4.0 ** (-step)
    return out


_SCHEDULES = {
    "ternary": ternary_removed_intervals,
    "fat": fat_removed_intervals,
}


@dataclass(frozen=True)
class CantorConstruction:
    """A level of the iterated middle-interval refinement on [0, 1].

    flavor "diamond" places a diamond above every removed interval and
    slope-one double lines elsewhere, anchored so the value at the first
    removed interval's left endpoint is the double value zero.  flavor
    "losange" places a losange above every removed interval and the double
    value zero elsewhere.  schedule "ternary" removes middle thirds;
    schedule "fat" removes shrinking middle fractions, leaving a residual
    set of positive measure.
    """

    level: int
    flavor: str
    schedule: str = "ternary"

    def __post_init__(self):
        _check_level(self.level)
        if self.flavor not in ("diamond", "losange"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def removed_intervals(self) -> list[RemovedInterval]:
        return _SCHEDULES[self.schedule](self.level)


def _diamond_level(spec: CantorConstruction) -> PiecewiseAffineQ:
    removed = spec.removed_intervals()
    anchor = min(iv.a for iv in removed if iv.step == 1)
    a, b = np.array([iv[:2] for iv in removed]).T
    # The removed intervals are disjoint and sorted, so their ends and
    # midpoints are already in order, and the one interval that can hold a
    # segment midpoint is the last to start below it.
    bps, mid = _level_breakpoints(a, b)
    mids = 0.5 * (bps[:-1] + bps[1:])
    j = np.searchsorted(a, mids) - 1
    inside = (j >= 0) & (mids < b[j])
    lower_slope = np.where(inside & (mids < mid[j]), 0.0, 1.0)  # flat then rising
    upper_slope = np.where(inside & (mids >= mid[j]), 0.0, 1.0)  # rising then flat
    seg = np.diff(bps)
    lower = np.concatenate(([0.0], np.cumsum(lower_slope * seg)))
    upper = np.concatenate(([0.0], np.cumsum(upper_slope * seg)))
    k = int(np.searchsorted(bps, anchor))
    lower -= lower[k]
    upper -= upper[k]
    # Rounding can leave breakpoint gaps a few ulp negative; re-sorting the
    # columns never changes the unordered function.
    branches = np.vstack((np.minimum(lower, upper), np.maximum(lower, upper)))
    return PiecewiseAffineQ(bps, branches)


def cantor_level(spec: CantorConstruction) -> PiecewiseAffineQ:
    """Level-`spec.level` stage of the chosen refinement flavor."""
    if spec.flavor == "diamond":
        return _diamond_level(spec)
    return make_pluri_losange([(iv.a, iv.b) for iv in spec.removed_intervals()])


class CantorLimit(NamedTuple):
    approximant: PiecewiseAffineQ
    error_bound: float


def cantor_limit(flavor: str, level_cap: int, schedule: str = "ternary") -> CantorLimit:
    """Level-cap approximant of the limit function with a uniform error bound.

    The bound dominates sup_x of the matching distance between the
    approximant and every later level (hence the limit) and decreases
    geometrically in the cap:

    - losange flavor: later levels add tents of height at most half the next
      removed length inside untouched intervals, so for the ternary schedule
      the tail is bounded by sqrt(2) 3^-cap / 4.
    - diamond flavor: each added diamond also shifts every value beyond it
      (continuity propagates a half-removed-length drop outward from the
      anchor), so consecutive levels differ by up to 2^(L-2) 3^-(L+1) per
      branch and the tail is geometric with ratio 2/3, not 1/3: the bound is
      sqrt(2) (2/3)^cap / 2.
    """
    spec = CantorConstruction(level=level_cap, flavor=flavor, schedule=schedule)
    approximant = cantor_level(spec)
    if flavor == "diamond":
        bound = math.sqrt(2.0) * (2.0 / 3.0) ** level_cap / 2.0
    elif schedule == "ternary":
        bound = math.sqrt(2.0) * 3.0 ** (-level_cap) / 4.0
    else:
        # Fat schedule: removed lengths shrink by more than 4^-step, so the
        # ternary-rate bounds dominate as well.
        bound = math.sqrt(2.0) * 4.0 ** (-level_cap)
    return CantorLimit(approximant, bound)


def _check_sin_ball(x: float, r: float) -> None:
    """Refuse unless r > 0 and (x - r, x + r) lies inside (-pi/4, pi/4); NaN fails both."""
    _checks.real("radius", r, error=DomainError)
    if not (-SIN_HALF_WIDTH < x - r and x + r < SIN_HALF_WIDTH):
        raise DomainError(f"ball ({x - r}, {x + r}) leaves (-pi/4, pi/4)")


def sin_dir_u(x: float, r: float) -> float:
    """Energy of the pair {t, sin t} over (x - r, x + r).

    The identity branch contributes 2r; the sine branch integrates cos^2 in
    closed form: cos(2x) sin(2r) / 2 + r.
    """
    _check_sin_ball(x, r)
    return 2.0 * r + 0.5 * math.cos(2.0 * x) * math.sin(2.0 * r) + r


def sin_dir_v_identity(x: float, r: float) -> float:
    """Energy of the two identity-matched straight lines with the same
    boundary values: 2r + 2 cos^2(x) sin^2(r) / r."""
    _check_sin_ball(x, r)
    return 2.0 * r + 2.0 * math.cos(x) ** 2 * math.sin(r) ** 2 / r


def sin_w_ratio(x: float, r: float) -> float:
    """Single-branch energy ratio of sin against its straight-line minimizer:
    [cos(2x) sin(2r)/2 + r] / [2 cos^2(x) sin^2(r) / r]."""
    _check_sin_ball(x, r)
    num = 0.5 * math.cos(2.0 * x) * math.sin(2.0 * r) + r
    den = 2.0 * math.cos(x) ** 2 * math.sin(r) ** 2 / r
    return num / den


def omega_sin(r: float) -> float:
    """Excess profile r^2 / sin^2(r) - 1 on its domain (0, pi); decreases to
    0 as r decreases to 0.  sin vanishes at pi, past which the formula is no
    excess profile, so a radius outside (0, pi) raises DomainError."""
    _checks.real("radius", r, 0, math.pi, error=DomainError)
    return (r / math.sin(r)) ** 2 - 1.0


def sin_sampled(n: int = 4097) -> PiecewiseAffineQ:
    """Sorted-branch sampling of {x, sin x} on n uniform breakpoints over
    [-pi/4, pi/4].  The branches touch exactly at the origin, which is the
    function's only branch point."""
    _check_rows(_checks.integer("n", n, 2, too_large=FamilySizeError), "the sine sample grid")
    xs = np.linspace(-SIN_HALF_WIDTH, SIN_HALF_WIDTH, n)
    s = np.sin(xs)
    return PiecewiseAffineQ(xs, np.vstack((np.minimum(xs, s), np.maximum(xs, s))))
