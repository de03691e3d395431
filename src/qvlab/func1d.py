"""Multi-branch piecewise-affine functions on an interval.

A codimension-one Q-branch function is stored as Q sorted real branches over
a shared breakpoint grid; `branch_values` gives its sorted values at points.
Because branches are piecewise affine, Dirichlet energies are closed-form
sums, segment by segment: `energy_between` and `dirichlet_energy` take
differences of one energy prefix.  The interval minimizer for given boundary
tuples (`exact_minimizer`, `minimizer_energy`) is the sorted linear
interpolation whose energy equals the squared matching distance of the
boundary tuples divided by the interval length.  On top of the exact
energies this module provides an empirical energy-decay exponent and the
three minimality audits, which are one comparison with three figures of
merit.  Each audit reads its family once and checks it whole (finite
ends, then a < b, then the domain), then
`_evaluate`, the one block evaluator, takes it `BLOCK_ROWS` rows at a time:
one energy prefix per evaluation, the branch values and prefix at the
block's ends, G^2 and Dir(u) from them, and the mode's figure and skip rule.
Each distinct end is interpolated once: a standard-family block carries the
points its rows' ends come from (the breakpoints for a block of breakpoint
pairs, the rows + 1 edges for a block of cells), and each row takes its
values by index.  The ball modes keep each row's own ends c - r and c + r:
on the losange refinements (levels 1-8, depth 12) c - r differs from the
cell's a in 26-36% of rows and c + r from its b in 22-26%.  An evaluated
block holds its figures and the inputs they came from; the record columns
(centers, radii, Dir_min) are made only where rows are written or a witness
is taken.  An audit returns a report,
`MinimalityReport(mode, alpha, evaluate)`, that holds no column, only a way
to evaluate its checked family.  The report is the one reduction: it folds
each block into the running supremum and witness as the block passes
(`_fold`; a NaN figure is the supremum, and its first row the witness), so
the writers take the blocks as they come and the record count, supremum and
witness are reduced on the way.  Read before any write, they come from one
pass that writes nothing and makes no record column but a witness's; the
acceptance criteria that reduce over the standard family read them so.  A
report's columns are never held whole.  A library caller that reads
`figure`, the one column a report gives, evaluates the family again and gets
its blocks' figures concatenated.
The standard family has one constructor, `audit_intervals`, which counts it
and runs its size gate once; no array of it is built.  Its `blocks` are
made of `BLOCK_ROWS` rows as they are read, with ends that never leave the
domain, as (a, b) intervals in quasi_k mode and as (center, radius) balls
clamped to the domain in the ball modes.  An audit of it skips the
whole-family check, since its rows are valid by construction, and makes the
blocks as its report evaluates them; the CLI's quasi and almost audits and
the criteria that reduce over it (3, 4 and 7) read it so, and none of them
holds the family or a record column whole.
`_check_rows` is the one size gate: the standard family, counted from the
function's breakpoints and the depth, the CLI's omega family, counted from
its radii and centers, and every sample grid (a circle trace's included)
and scan grid sized by input are refused above `MAX_FAMILY_ROWS` before any
of them exists.
`writers` writes the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import _checks
from .qspace import QPoint
from .writers import Records, write_csv, write_json

__all__ = [
    "PiecewiseAffineQ",
    "AuditRecord",
    "MinimalityReport",
    "DomainError",
    "EmptyIntervalError",
    "FamilySizeError",
    "UnsupportedCodimensionError",
    "UndefinedExponentError",
    "branch_values",
    "dirichlet_energy",
    "energy_between",
    "exact_minimizer",
    "minimizer_energy",
    "quasi_k_ratio",
    "omega_profile",
    "omega_report",
    "almost_deficiency",
    "energy_decay_exponent",
    "audit_intervals",
]

# Rows per block of an audit family.  Blocks of 1024 rows doubled the time
# of a level-8 audit over the whole family; from 4096 to 65536 the time is
# flat while the memory of a block grows with it.  From 8192 rows up, a
# Q = 2 block's (Q, rows) temporaries pass glibc's 128 KiB mmap threshold;
# once its dynamic thresholds settle on them, the freed heap top is trimmed
# after each block and faulted back in by the next.  Each block allocates
# afresh, so count minor faults whenever this or a block's tables change.
# With a cell block's (Q, rows + 1) branch values and rows + 1 prefix values,
# a second in-process run of acceptance criteria 3, 4 and 7 took 0 minor
# faults each at 4096 rows, and 18,695-31,929, 6,818 and 68,027 at 8192
# (with per-row ends: 0 each, and 56,042-56,084, 75,129 and 59,230).
BLOCK_ROWS = 4096

# The largest standard family an audit builds: level 11 of a Cantor
# refinement at the default depth (19,670,505 rows) fits, level 12
# (76,284,393 rows) does not.
MAX_FAMILY_ROWS = 2**25


class DomainError(ValueError):
    """A query point or ball leaves the function's domain."""


class EmptyIntervalError(ValueError):
    """An energy was requested over an empty or reversed interval."""


class FamilySizeError(ValueError):
    """An audit family, or a sample grid (the example, sine or circle-trace
    grid) or scan grid sized by input, would exceed MAX_FAMILY_ROWS."""


class UnsupportedCodimensionError(ValueError):
    """Only real-valued branches (ambient dimension 1) are supported."""


class UndefinedExponentError(ValueError):
    """Decay exponent requested where the base energy vanishes."""


@dataclass(frozen=True)
class PiecewiseAffineQ:
    """Q sorted piecewise-affine real branches over shared breakpoints.

    Invariants: breakpoints strictly increase, branch values are finite and
    sorted ascending at every breakpoint, and the domain length, the branch
    spread and the energy are finite.  Affine interpolation of sorted
    columns stays sorted, so the induced multi-branch map is continuous.
    """

    breakpoints: np.ndarray  # (m,)
    branches: np.ndarray  # (Q, m)

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=float)
        br = np.asarray(self.branches, dtype=float)
        if br.ndim == 1:
            br = br.reshape(1, -1)
        if bps.ndim != 1 or br.shape != (br.shape[0], bps.size):
            raise ValueError("branches must have one column per breakpoint of a 1-D breakpoint array")
        _checks.integer("the number of breakpoints", bps.size, 2)
        _checks.integer("the number of branches", br.shape[0], 1)
        _checks.finite("breakpoints and branch values", bps, br)
        if not np.all(np.diff(bps) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if br.shape[0] != 1 and not np.all(np.diff(br, axis=0) >= 0):
            raise ValueError("branch values must be sorted at every breakpoint")
        bps = bps.copy()
        br = br.copy()
        bps.flags.writeable = False
        br.flags.writeable = False
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "branches", br)
        # These bound every interval length, Dir(u), (b - a) Dir(u) and G^2
        # of an audit, so that no figure of merit is inf/inf or inf * 0 and
        # a figure overflows only by its division, and every a + b of two
        # domain points, so that no ball center overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            energy = self.energy_prefix()[-1]
            totals = {
                "domain length": bps[-1] - bps[0],
                "branch spread Q (max - min)^2": br.shape[0] * np.ptp(br) ** 2,
                "Dirichlet energy": energy,
                "domain length times Dirichlet energy": (bps[-1] - bps[0]) * energy,
                "doubled domain end": 2.0 * max(abs(bps[0]), abs(bps[-1])),
            }
        for name, total in totals.items():
            if not np.isfinite(total):
                raise ValueError(f"the {name} of the function overflows")

    @property
    def q_count(self) -> int:
        return self.branches.shape[0]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def slopes(self) -> np.ndarray:
        """Per-branch slopes on each segment, shape (Q, m - 1)."""
        return np.diff(self.branches, axis=1) / np.diff(self.breakpoints)

    def energy_prefix(self) -> np.ndarray:
        """Cumulative energy integral at the breakpoints.

        Energies over subintervals are differences of shared prefix values,
        so additivity over adjacent intervals holds to rounding.
        """
        seg = np.diff(self.breakpoints)
        density = (self.slopes() ** 2).sum(axis=0)
        return np.concatenate(([0.0], np.cumsum(density * seg)))


def _check_in_domain(u: PiecewiseAffineQ, x) -> None:
    """Refuse unless lo <= x <= hi holds for every value; NaN fails it."""
    lo, hi = u.domain
    x = np.asarray(x, dtype=float)
    # min and max are NaN where x holds a NaN, so NaN fails the comparison.
    if x.size and not (x.min() >= lo and x.max() <= hi):
        raise DomainError(f"point outside domain [{lo}, {hi}]")


def branch_values(u: PiecewiseAffineQ, x) -> np.ndarray:
    """Sorted branch values at x (scalar or array); shape (Q,) + x.shape."""
    _check_in_domain(u, x)
    return np.stack([np.interp(x, u.breakpoints, row) for row in u.branches])


def energy_between(u: PiecewiseAffineQ, a, b) -> np.ndarray:
    """Vectorized Dirichlet energy over intervals (a_i, b_i) with a_i <= b_i;
    an interval whose ends are equal has energy 0, and a reversed one is
    refused with EmptyIntervalError."""
    _check_in_domain(u, a)
    _check_in_domain(u, b)
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    reversed_ = np.flatnonzero(lo > hi)
    if reversed_.size:
        k = reversed_[0]
        raise EmptyIntervalError(f"reversed interval [{float(lo.flat[k])!r}, {float(hi.flat[k])!r}]: a exceeds b")
    prefix = u.energy_prefix()
    pa = np.interp(a, u.breakpoints, prefix)
    pb = np.interp(b, u.breakpoints, prefix)
    return pb - pa


def dirichlet_energy(u: PiecewiseAffineQ, a: float, b: float) -> float:
    """Exact Dirichlet energy of u over [a, b].

    A difference of shared prefix sums, computed in closed form segment by
    segment and never by quadrature, so it is additive over adjacent
    intervals to rounding.
    """
    _checks.finite("interval ends", a, b, error=DomainError)
    _checks.interval(a, b, EmptyIntervalError)
    return float(energy_between(u, a, b))


def _difference(f, points, ia, ib) -> np.ndarray:
    """f(b) - f(a) over a block's rows, with f taken once per distinct end:
    a = points[ia] and b = points[ib], where `points` is the array of ends
    that the rows share (a cell block's edges, the breakpoints), or a pair
    (a, b) of per-row ends with ia, ib = 0, 1."""
    if isinstance(points, tuple):
        at_a = f(points[ia])
        return f(points[ib]) - at_a
    values = f(points)
    return values[..., ib] - values[..., ia]


def _end_gaps(u: PiecewiseAffineQ, points, ia, ib) -> tuple:
    """(a, b, G^2(u(a), u(b))) of a block's rows, a = points[ia] and
    b = points[ib], from one `branch_values` call per distinct end."""
    return points[ia], points[ib], (_difference(lambda x: branch_values(u, x), points, ia, ib) ** 2).sum(axis=0)


def _sorted_boundary(boundary_a: QPoint, boundary_b: QPoint, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted values of the boundary tuples of an interval minimizer, once
    both are real, they share Q, and the ends are finite with a < b."""
    if boundary_a.ambient_dim != 1 or boundary_b.ambient_dim != 1:
        raise UnsupportedCodimensionError("interval minimizers exist in closed form only for n = 1")
    if boundary_a.q_count != boundary_b.q_count:
        raise ValueError("boundary tuples must share Q")
    _checks.finite("interval ends", a, b, error=DomainError)
    _checks.interval(a, b, EmptyIntervalError)
    return boundary_a.sorted_values(), boundary_b.sorted_values()


def exact_minimizer(boundary_a: QPoint, boundary_b: QPoint, a: float, b: float) -> PiecewiseAffineQ:
    """The least-energy multi-branch function with the given boundary tuples.

    Sorts both boundary tuples and joins i-th value to i-th value by straight
    lines.  Its energy is the squared matching distance of the boundary
    tuples divided by (b - a) and is minimal among all competitors sharing
    the boundary values.
    """
    va, vb = _sorted_boundary(boundary_a, boundary_b, a, b)
    return PiecewiseAffineQ(np.array([a, b]), np.column_stack((va, vb)))


def minimizer_energy(boundary_a: QPoint, boundary_b: QPoint, a: float, b: float) -> float:
    """Closed-form minimal energy: squared matching distance over (b - a)."""
    va, vb = _sorted_boundary(boundary_a, boundary_b, a, b)
    return float(np.sum((vb - va) ** 2) / (b - a))


class AuditRecord(NamedTuple):
    center: float
    radius: float
    dir_u: float
    dir_min: float
    figure_of_merit: float


class _Block(NamedTuple):
    """One evaluated block of an audit: its figures and the columns they were
    computed from.  In quasi_k mode `first` and `second` are the ends a and b
    and `last` is G^2; in the ball modes they are the centers and radii and
    `last` is Dir_min, so the columns are already the records'.  `records`
    makes the record columns only where rows are written or a witness is
    taken."""

    first: np.ndarray
    second: np.ndarray
    dir_u: np.ndarray
    last: np.ndarray
    figure: np.ndarray
    quasi: bool = False

    def records(self, rows=slice(None)) -> tuple:
        """The (centers, radii, dir_u, dir_min, figure) columns of `rows`."""
        columns = tuple(column[rows] for column in self[:5])
        if not self.quasi:
            return columns
        a, b, dir_u, gsq, figure = columns
        return *_balls(a, b), dir_u, np.where(gsq > 0.0, gsq / (b - a), 0.0), figure


class MinimalityReport:
    """Per-ball audit records plus the supremum and its witness.

    mode is one of {"quasi_k", "omega", "almost"}; a record is (center,
    radius, dir_u, dir_min, figure), where the figure is the ratio (quasi_k,
    omega) or deficiency (almost).  Records are columnar because audit
    families run to millions of intervals.

    A report is a stream: `evaluate()` returns a fresh iterator of
    `_evaluate`'s blocks, and the report holds no column.  It is the one
    audit reduction: each block is folded into the supremum and witness as
    it passes (`_fold`), and a write takes the record columns of the blocks
    as they come and keeps only their record count, supremum and witness.
    Before any write, reading one of these three evaluates the family once
    to reduce it, and makes no record column but the witness rows'.
    `figure` is the one column a report reads
    whole: it evaluates the family again and concatenates the blocks'
    figures, and it stays until the traced counters that read it move into
    the package (ROADMAP item 3).
    """

    def __init__(self, mode: str, alpha: Optional[float], evaluate: Callable[[], Iterator[tuple]]):
        self.mode, self.alpha = mode, alpha
        self._evaluate, self._reduced = evaluate, None

    def _summary(self) -> tuple:
        """(supremum, witness, record count): from the last write, or from one pass that writes nothing."""
        if self._reduced is None:
            for _ in self._blocks():
                pass
        return self._reduced

    figure = property(lambda self: np.concatenate([block.figure for block in self._evaluate()]))
    supremum = property(lambda self: self._summary()[0])
    witness = property(lambda self: self._summary()[1])
    record_count = property(lambda self: self._summary()[2], doc="The number of records.")

    def _blocks(self) -> Iterator[_Block]:
        """`evaluate()`'s blocks as they come, each folded into the supremum
        and witness; once the last one is taken, their record count,
        supremum and witness are kept."""
        count, key, witness = 0, (-np.inf,), None
        for block in self._evaluate():
            count += block.figure.size
            key, witness = _fold((key, witness), block)
            yield block
        self._reduced = (0.0 if witness is None else float(key[0]), witness, count)

    def to_csv(self, path) -> None:
        write_csv(path, AuditRecord._fields, (block.records() for block in self._blocks()))

    def to_json(self, path) -> None:
        records = Records(AuditRecord._fields, (block.records() for block in self._blocks()))
        write_json(path, {"mode": self.mode, "alpha": self.alpha, "records": records, "supremum": lambda: self.supremum,
                          "witness": lambda: self.witness and self.witness._asdict()})


def _listed(values) -> np.ndarray:
    """A float array: an ndarray is used as it is, any other iterable is listed once."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)


def _pairs(family) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a family of pairs; an empty family gives empty columns."""
    arr = _listed(family)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("an audit family must be an iterable of pairs")
    return arr[:, 0], arr[:, 1]


def _balls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the intervals (a_i, b_i)."""
    return 0.5 * (a + b), 0.5 * (b - a)


def _interval_ends(mode: str, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) columns of a family: quasi_k reads intervals, omega and almost read balls."""
    return (first, second) if mode == "quasi_k" else (first - second, first + second)


def _slices(first: np.ndarray, second: np.ndarray):
    """The columns of a family as `_evaluate`'s blocks of per-row pairs,
    BLOCK_ROWS rows at a time; an empty family is one empty block."""
    for start in range(0, max(first.size, 1), BLOCK_ROWS):
        yield (first[start : start + BLOCK_ROWS], second[start : start + BLOCK_ROWS]), 0, 1


def _evaluate(u: PiecewiseAffineQ, mode: str, blocks, alpha: Optional[float] = None) -> Iterator[_Block]:
    """The one audit evaluator: per block of a checked family, the `_Block`
    of its kept rows.

    A block is (points, ia, ib): the family's two columns are points[ia] and
    points[ib], so the rows of a standard-family block share their ends
    (`audit_intervals`), and `_slices` gives per-row pairs.  In quasi_k mode
    the columns are the ends a and b, and the branch values and energy
    prefix of each distinct end are taken once; in the ball modes the ends
    are each row's own c - r and c + r.  Dir(u) is a difference of one
    energy prefix, built once per call, and G^2(u(a), u(b)) comes from
    `_end_gaps`.  quasi_k skips the intervals with zero energy between
    identical boundary tuples and omega the balls with Dir(u) = Dir_min = 0:
    they carry no information.  A ratio past the float range, over a
    subnormal G^2 or Dir_min, is +inf.
    """
    bps, prefix = u.breakpoints, u.energy_prefix()
    for points, ia, ib in blocks:
        if mode != "quasi_k":
            centers, radii = points[ia], points[ib]
            points, ia, ib = _interval_ends(mode, centers, radii), 0, 1
        a, b, gsq = _end_gaps(u, points, ia, ib)
        dir_u = _difference(lambda x: np.interp(x, bps, prefix), points, ia, ib)
        if mode == "quasi_k":
            a, b, dir_u, gsq = _kept((gsq != 0.0) | (dir_u != 0.0), a, b, dir_u, gsq)
            positive = gsq > 0.0
            with np.errstate(divide="ignore", over="ignore"):
                ratio = np.where(positive, (b - a) * dir_u / np.where(positive, gsq, 1.0), np.inf)
            yield _Block(a, b, dir_u, gsq, ratio, quasi=True)
        elif mode == "omega":
            dir_min = gsq / (2.0 * radii)
            centers, radii, dir_u, dir_min = _kept((dir_min != 0.0) | (dir_u != 0.0), centers, radii, dir_u, dir_min)
            positive = dir_min > 0.0
            with np.errstate(divide="ignore", over="ignore"):
                omega = np.where(positive, dir_u / np.where(positive, dir_min, 1.0) - 1.0, np.inf)
            yield _Block(centers, radii, dir_u, dir_min, omega)
        else:
            dir_min = gsq / (2.0 * radii)
            yield _Block(centers, radii, dir_u, dir_min, np.maximum(0.0, dir_u - dir_min) * radii ** (1.0 - alpha))


def _kept(keep: np.ndarray, *columns: np.ndarray) -> tuple:
    """The rows of the columns where `keep` holds: the columns themselves where it holds on every row."""
    return columns if keep.all() else tuple(column[keep] for column in columns)


def _fold(best: tuple, block: _Block) -> tuple:
    """One step of the one audit reduction: the (key, witness) of the records
    so far, ((-inf,), None) before any, with a block of `_evaluate`'s folded in.
    The key is (figure, -a, -b), a = center - radius and b = center + radius:
    the larger figure wins, then the smaller a, then the smaller b, across
    blocks too.  A NaN figure wins and stays, with its first row the witness.
    Only a block whose largest figure can win makes records, and only for the
    rows that attain it."""
    figure = block.figure
    if figure.size == 0 or np.isnan(best[0][0]):
        return best
    top = figure.max()
    if np.isnan(top):
        return (top,), AuditRecord(*(float(column[0]) for column in block.records(np.isnan(figure))))
    if top < best[0][0]:
        return best
    records = block.records(figure == top)
    a, b = records[0] - records[1], records[0] + records[1]
    k = np.lexsort((b, a))[0]
    key = (top, -a[k], -b[k])
    return (key, AuditRecord(*(float(column[k]) for column in records))) if key > best[0] else best


def _audit(u: PiecewiseAffineQ, mode: str, family, alpha: Optional[float] = None) -> MinimalityReport:
    """Read a family once and check it whole, finite ends first, then a < b,
    then the domain, so that the same error wins at any block size; the
    report evaluates it a block at a time when it is written or read.  The
    standard family is valid as it is made, so it is only matched to `u` and
    the mode, and the report makes its blocks as it evaluates them."""
    if isinstance(family, _StandardFamily):
        family.check(u, mode)
        return MinimalityReport(mode, alpha, lambda: _evaluate(u, mode, family.blocks(mode), alpha))
    first, second = _pairs(family)
    a, b = _interval_ends(mode, first, second)
    _checks.finite("interval ends", a, b, error=DomainError)
    if np.any(a >= b):
        raise EmptyIntervalError("intervals must satisfy a < b")
    _check_in_domain(u, a)
    _check_in_domain(u, b)
    return MinimalityReport(mode, alpha, lambda: _evaluate(u, mode, _slices(first, second), alpha))


def quasi_k_ratio(u: PiecewiseAffineQ, intervals: Iterable[tuple[float, float]]) -> MinimalityReport:
    """Multiplicative minimality audit over a family of intervals.

    Per interval the figure of merit is (b - a) Dir(u) / G^2(u(b), u(a)),
    i.e. the energy of u relative to the interval minimizer with the same
    boundary tuples.  A positive energy over an interval with identical
    boundary tuples yields +inf (the function cannot be a bounded-factor
    minimizer); zero energy over such an interval carries no information and
    the interval is skipped.
    """
    return _audit(u, "quasi_k", intervals)


def omega_report(u: PiecewiseAffineQ, balls) -> MinimalityReport:
    """Excess-over-minimizer audit: figure = Dir(u)/Dir_min - 1 per ball
    of a family of (center, radius) pairs."""
    return _audit(u, "omega", balls)


def omega_profile(u: PiecewiseAffineQ, radii, centers) -> dict[float, float]:
    """Empirical excess profile: r -> sup over centers of Dir/Dir_min - 1."""
    xs = _listed(centers)
    out: dict[float, float] = {}
    for r in radii:
        report = omega_report(u, np.column_stack((xs, np.full(xs.size, r))))
        if report.record_count:
            out[float(r)] = report.supremum
    return out


def almost_deficiency(u: PiecewiseAffineQ, alpha: float, balls) -> MinimalityReport:
    """Additive-allowance audit with allowance c r^(alpha - 1) in 1D.

    Per ball the deficiency is max(0, Dir(u) - Dir_min) r^(1 - alpha); the
    supremum over the family is the smallest constant c certified by the
    family.
    """
    _checks.real("alpha", alpha, 0, 1)
    return _audit(u, "almost", balls, alpha)


def energy_decay_exponent(u: PiecewiseAffineQ, z: float, r0: float, scales) -> float:
    """Least-squares slope of log Dir(u; (z - s r0, z + s r0)) against log s.

    For a function minimizing up to factor K the slope cannot drop below
    1 / (K Q) over shrinking balls.
    """
    scales = _listed(scales)
    if not np.all((scales > 0) & (scales <= 1)):
        raise ValueError("scales must lie in (0, 1]")
    _checks.finite("center", z, error=DomainError)
    _checks.real("r0", r0, error=DomainError)
    if not z - r0 < z + r0:
        raise DomainError(f"r0 = {r0!r} is too small: the ball about {z!r} rounds to a point")
    _checks.real("the energy at the base radius", dirichlet_energy(u, z - r0, z + r0), error=UndefinedExponentError)
    energies = energy_between(u, z - scales * r0, z + scales * r0)
    keep = energies > 0.0
    _checks.distinct("scales with positive energy", scales[keep], UndefinedExponentError)
    fit = _checks.line_fit("scales with positive energy", np.log(scales[keep]), np.log(energies[keep]),
                           UndefinedExponentError)
    return float(fit[0])


def _family_rows(m: int, depth: int) -> int:
    """Rows of the standard family over m breakpoints, counted without
    building it: m(m - 1)/2 breakpoint pairs and 2^d + 3^d cells at each
    level d <= depth."""
    return m * (m - 1) // 2 + 2 ** (depth + 1) - 1 + (3 ** (depth + 1) - 1) // 2


def _check_rows(rows: int, what: str = "the audit family", unit: str = "rows", exact: bool = True) -> None:
    """The one size gate: refuse, before any of it exists, an array `what` of
    more than MAX_FAMILY_ROWS `unit`; `exact` is False when `rows` is a lower
    bound."""
    if not rows <= MAX_FAMILY_ROWS:
        count = f"{rows}" if exact else f"more than {rows}"
        raise FamilySizeError(
            f"{what} would have {count} {unit}; at most MAX_FAMILY_ROWS = {MAX_FAMILY_ROWS} are allowed"
        )


def _check_family_size(m: int, depth: int) -> int:
    """The rows of a standard family over m breakpoints, refused above MAX_FAMILY_ROWS."""
    depth = _checks.integer("depth", depth, too_large=FamilySizeError)
    # Past depth 32 the family is far above the limit; its size is then
    # counted there, as a lower bound, to keep the integers small.
    rows = _family_rows(m, min(depth, 32))
    _check_rows(rows, exact=depth <= 32)
    return rows


# In a scan of 300 domains far from 0, cells up to one ulp of the larger end
# wide gave rows with a == b, and wider cells none; breakpoints this close
# can give a ball of radius 0 (`_StandardFamily.check`).
_MIN_CELL_ULPS = 4


class _StandardFamily:
    """The standard family of `u` at `depth`, counted but not built (see
    `audit_intervals`, its one constructor).  Its rows are finite, satisfy
    a < b and lie in the domain by construction, so an audit skips the
    whole-family check and reads `blocks` as they are made."""

    def __init__(self, u: PiecewiseAffineQ, depth: int):
        self.u, self.depth = u, depth
        self.rows = _check_family_size(u.breakpoints.size, depth)
        lo, hi = u.domain
        if not (hi - lo) / 3**depth > _MIN_CELL_ULPS * np.spacing(max(abs(lo), abs(hi))):
            raise DomainError(
                f"the depth-{depth} family's finest cell, (hi - lo) / 3**{depth}, is within {_MIN_CELL_ULPS} ulps"
                f" of the ends of the domain [{lo!r}, {hi!r}]"
            )

    def __len__(self) -> int:
        return self.rows

    def check(self, u: PiecewiseAffineQ, mode: str) -> None:
        """Refuse an audit with a function other than the family's own, and in
        a ball mode one of a function with adjacent breakpoints within
        `_MIN_CELL_ULPS` ulps of the larger, whose ball could round to radius 0
        (Dir_min = 0 / 0): wider gaps make every pair wider, and rounding
        moves a center by at most 1.5 of its pair's ulps."""
        if self.u is not u:
            raise DomainError("a standard family is audited only with the function it was made for")
        bps = u.breakpoints
        close = np.flatnonzero(np.diff(bps) <= _MIN_CELL_ULPS * np.spacing(np.maximum(abs(bps[:-1]), abs(bps[1:]))))
        if mode != "quasi_k" and close.size:
            a, b = float(bps[close[0]]), float(bps[close[0] + 1])
            raise EmptyIntervalError(f"breakpoints {a!r} and {b!r} are within {_MIN_CELL_ULPS} ulps: the ball of"
                                     " their pair could round to radius 0")

    def blocks(self, mode: str = "quasi_k") -> Iterator[tuple]:
        """`_evaluate`'s blocks of at most BLOCK_ROWS rows: the breakpoint pairs
        (i, j), i < j, in row-major order, whose points are the breakpoints,
        then each dyadic and triadic level, a block of whose cells shares its
        rows + 1 edges.  A quasi_k block is (points, ia, ib), the intervals
        (points[ia], points[ib]); a ball-mode block is its clamped balls."""
        def as_mode(points, ia, ib):
            return (points, ia, ib) if mode == "quasi_k" else (self._balls_inside(points[ia], points[ib]), 0, 1)

        bps = self.u.breakpoints
        # Row i of the pairs starts at flat position starts[i]; starts[-1] is the pair count.
        starts = np.concatenate(([0], np.cumsum(np.arange(bps.size - 1, 0, -1))))
        for start in range(0, int(starts[-1]), BLOCK_ROWS):
            k = np.arange(start, min(start + BLOCK_ROWS, int(starts[-1])))
            i = np.searchsorted(starts, k, side="right") - 1
            yield as_mode(bps, i, k - starts[i] + i + 1)
        lo, hi = self.u.domain
        for base in (2, 3):
            for d in range(self.depth + 1):
                cells = base**d
                for start in range(0, cells, BLOCK_ROWS):
                    # The last edge can round above hi: 0.1 * 3 / 3 > 0.1.
                    edges = np.minimum(lo + (hi - lo) * np.arange(start, min(start + BLOCK_ROWS, cells) + 1) / cells, hi)
                    yield as_mode(edges, slice(None, -1), slice(1, None))

    def _balls_inside(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The balls of the rows, clamped to the domain as cell edges are: c + r rounds past hi only if it is
        past hi exactly, so a radius one ulp below the rounded room to the nearer end fits (c - r likewise)."""
        c, r = _balls(a, b)
        lo, hi = self.u.domain
        out = (c - r < lo) | (c + r > hi)  # the ends `_interval_ends` gives a ball
        return c, np.where(out, np.nextafter(np.minimum(hi - c, c - lo), 0.0), r) if out.any() else r


def audit_intervals(u: PiecewiseAffineQ, depth: int = 12) -> _StandardFamily:
    """The standard audit family, counted (`len()` is its row count) and made
    a block at a time as an audit of `u` reads it, never as one array.

    All breakpoint pairs, plus the cells of dyadic and triadic refinements
    of the domain down to `depth`.  Extrema of the audited figures for the
    shipped constructions occur at construction-aligned intervals, and the
    triadic cells align with the ternary refinements.  quasi_k_ratio reads
    its rows as (a, b) intervals; omega_report and almost_deficiency read
    them as (center, radius) balls, shrinking one whose rounded ends leave
    the domain, and refuse a function with two breakpoints within 4 ulps
    (EmptyIntervalError).  A family of more than MAX_FAMILY_ROWS rows
    (FamilySizeError), or a domain whose finest cell, (hi - lo) / 3**depth,
    is within 4 ulps of its ends (DomainError), is refused here.
    """
    return _StandardFamily(u, depth)
