"""Branch-set detection and fractal measurements on a sample grid.

The support count sigma(x) of a multi-branch function drops below Q exactly
where branches collide.  A scan (`scan`, a `BranchScan`) samples sigma on a
grid, where `sigma == 1` is the full-collision set, and flags the points
where sigma is not locally constant at grid resolution.  The flagged set
feeds a box-counting dimension estimate (`box_counts`, `box_dimension`,
`dimension_report`) and a coarse measure at scale (`measure_at_scale`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks, func1d
from .func1d import PiecewiseAffineQ, _check_rows, branch_values

__all__ = [
    "BranchScan",
    "DimensionReport",
    "UndefinedDimensionError",
    "scan",
    "box_counts",
    "box_dimension",
    "dimension_report",
    "measure_at_scale",
]

DEFAULT_TOL_FACTOR = 1e-9  # clustering tolerance relative to the value range


class UndefinedDimensionError(ValueError):
    """Dimension fit requested for an empty flagged set."""


@dataclass(frozen=True)
class BranchScan:
    """Support counts and branch flags of one function on one grid.

    `sigma` holds the support cardinality per grid point at clustering
    tolerance `tol`; `flags` marks the points where sigma fails to be
    locally constant at grid resolution: either a neighbouring grid point
    carries a different sigma, or sigma < Q while the one-step window around
    the point provably contains full-multiplicity values.
    """

    grid: np.ndarray
    sigma: np.ndarray
    flags: np.ndarray
    tol: float
    q_count: int

    def flagged_points(self) -> np.ndarray:
        return self.grid[self.flags]


def _sigma_of_columns(values: np.ndarray, tol: float) -> np.ndarray:
    """Support count per column of a (Q, m) sorted-value array.

    Single linkage on collinear sorted values reduces to splitting at the
    consecutive gaps larger than tol.
    """
    return 1 + (np.diff(values, axis=0) > tol).sum(axis=0)


def _min_gap_at_knots(u: PiecewiseAffineQ) -> np.ndarray:
    """Minimum consecutive branch gap at every breakpoint (Q >= 2)."""
    return np.diff(u.branches, axis=0).min(axis=0)


def _window_max(knots: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max of a piecewise-affine function over windows [lo_i, hi_i].

    The max over a window is attained at the window ends or at interior
    knots.
    """
    out = np.maximum(np.interp(lo, knots, values), np.interp(hi, knots, values))
    first = np.searchsorted(knots, lo, side="left")
    last = np.searchsorted(knots, hi, side="right")
    for i in range(out.size):
        if last[i] > first[i]:
            out[i] = max(out[i], values[first[i] : last[i]].max())
    return out


def scan(u: PiecewiseAffineQ, grid_size: int, tol: float | None = None) -> BranchScan:
    """Sample sigma on a uniform grid and flag its non-constancy points.

    tol defaults to 1e-9 times the branch value range, small enough that no
    representable construction gap is merged away.  Adjacent-different
    points are flagged directly; additionally a point with sigma < Q is
    flagged when the one-grid-step window around it provably contains
    full-multiplicity values, computed exactly from the piecewise-affine
    structure (the minimal consecutive branch gap is itself piecewise
    affine).  sigma is filled `BLOCK_ROWS` grid points at a time, so the
    (Q, grid) value table is never held whole.
    """
    _check_rows(_checks.integer("grid_size", grid_size, 3, too_large=func1d.FamilySizeError), "the scan grid")
    lo, hi = u.domain
    if tol is None:
        spread = float(u.branches.max() - u.branches.min())
        tol = DEFAULT_TOL_FACTOR * (spread if spread > 0 else 1.0)
    _checks.real("tol", tol, 0, ends="[)")
    grid = np.linspace(lo, hi, grid_size)
    sig = np.empty(grid_size, dtype=int)
    for start in range(0, grid_size, func1d.BLOCK_ROWS):
        stop = start + func1d.BLOCK_ROWS
        sig[start:stop] = _sigma_of_columns(branch_values(u, grid[start:stop]), tol)

    neighbour_diff = np.zeros(grid_size, dtype=bool)
    neighbour_diff[:-1] |= sig[:-1] != sig[1:]
    neighbour_diff[1:] |= sig[1:] != sig[:-1]

    flags = neighbour_diff.copy()
    candidates = np.flatnonzero(sig < u.q_count)  # empty for Q = 1, where sigma is 1 everywhere
    if candidates.size:
        step = (hi - lo) / (grid_size - 1)
        w_lo = np.maximum(grid[candidates] - step, lo)
        w_hi = np.minimum(grid[candidates] + step, hi)
        gap_max = _window_max(u.breakpoints, _min_gap_at_knots(u), w_lo, w_hi)
        flags[candidates] |= gap_max > tol
    return BranchScan(grid=grid, sigma=sig, flags=flags, tol=float(tol), q_count=u.q_count)


def box_counts(scan_result: BranchScan, scales) -> np.ndarray:
    """Occupied-box counts of the flagged set at each box size."""
    xs = scan_result.flagged_points()
    if xs.size == 0:
        raise UndefinedDimensionError("no flagged points to count")
    lo = float(scan_result.grid[0])
    span = float(xs.max()) - lo  # the largest box index is floor(span / eps)
    counts = []
    for eps in scales:
        _checks.real("box sizes", float(eps))
        # span / 2**63 cannot overflow, and once it is below eps neither can span / eps.
        if not (span / 2.0**63 < eps and span / eps < 2.0**63):
            raise ValueError(f"box size {float(eps)!r} is too small for this scan: its box indices overflow int64")
        counts.append(np.unique(np.floor((xs - lo) / eps).astype(np.int64)).size)
    return np.array(counts)


def box_dimension(scan_result: BranchScan, scales) -> float:
    """Least-squares slope of log N(eps) against log(1/eps)."""
    return dimension_report(scan_result, scales).slope


@dataclass(frozen=True)
class DimensionReport:
    scales: np.ndarray
    counts: np.ndarray
    slope: float
    r_squared: float


def dimension_report(scan_result: BranchScan, scales) -> DimensionReport:
    """Box counts at each scale, the fitted slope and its r^2."""
    scales = np.asarray(list(scales), dtype=float)
    _checks.distinct("scales", scales)
    counts = box_counts(scan_result, scales)
    logx = np.log(1.0 / scales)
    logy = np.log(counts)
    slope, intercept = _checks.line_fit("scales", logx, logy)
    fitted = slope * logx + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DimensionReport(scales=scales, counts=counts, slope=float(slope), r_squared=r2)


def measure_at_scale(scan_result: BranchScan, eps: float) -> float:
    """Length of the eps-neighbourhood of the flagged points, clipped to the
    scan domain.

    For refinements with vanishing residual measure this tends to zero as
    the scale and level sharpen together; for the fat variant it stays
    bounded below by the residual measure of the schedule.
    """
    grid = scan_result.grid
    spacing = float(grid[1] - grid[0])
    _checks.real("eps", eps, spacing, ends="[)")
    xs = np.sort(scan_result.flagged_points())
    if xs.size == 0:
        return 0.0
    lo, hi = float(grid[0]), float(grid[-1])
    starts = np.maximum(xs - eps, lo)
    ends = np.minimum(xs + eps, hi)
    total = 0.0
    cur_a, cur_b = starts[0], ends[0]
    for a, b in zip(starts[1:], ends[1:]):
        if a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    total += cur_b - cur_a
    return float(total)
