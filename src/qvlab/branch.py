"""Branch-set detection and fractal measurements on a sample grid.

The support count sigma(x) of a multi-branch function drops below Q exactly
where branches collide.  A scan samples sigma on a grid, flags the points
where sigma is not locally constant at grid resolution, and the flagged set
feeds a box-counting dimension estimate and a coarse measure at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .func1d import PiecewiseAffineQ, branch_values
from .writers import write_csv

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

    def collapsed_mask(self) -> np.ndarray:
        """Grid mask of the full-collision set {sigma == 1}."""
        return self.sigma == 1

    def to_csv(self, path) -> None:
        write_csv(path, ["x", "sigma", "flagged"], [self.grid, self.sigma, self.flags.astype(int)])


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
    affine).
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    lo, hi = u.domain
    if tol is None:
        spread = float(u.branches.max() - u.branches.min())
        tol = DEFAULT_TOL_FACTOR * (spread if spread > 0 else 1.0)
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    grid = np.linspace(lo, hi, grid_size)
    values = branch_values(u, grid)
    sig = _sigma_of_columns(values, tol)

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
    counts = []
    for eps in scales:
        if not eps > 0:
            raise ValueError(f"box sizes must be positive, got {eps!r}")
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

    def to_json_dict(self) -> dict:
        return {
            "scales": self.scales.tolist(),
            "counts": self.counts.tolist(),
            "slope": self.slope,
            "r_squared": self.r_squared,
        }


def dimension_report(scan_result: BranchScan, scales) -> DimensionReport:
    """Box counts at each scale, the fitted slope and its r^2."""
    scales = np.asarray(list(scales), dtype=float)
    if scales.size < 2:
        raise ValueError("need at least two scales for a dimension fit")
    counts = box_counts(scan_result, scales)
    logx = np.log(1.0 / scales)
    logy = np.log(counts)
    slope, intercept = np.polyfit(logx, logy, 1)
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
    if eps < spacing:
        raise ValueError(f"eps must be at least the grid spacing {spacing}")
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
