"""Multi-branch piecewise-affine functions on an interval.

A codimension-one Q-branch function is stored as Q sorted real branches over
a shared breakpoint grid.  Because branches are piecewise affine, Dirichlet
energies are closed-form sums, segment by segment, and the interval
minimizer for given boundary tuples is the sorted linear interpolation whose
energy equals the squared matching distance of the boundary tuples divided
by the interval length.  On top of the exact energies this module provides
an empirical energy-decay exponent and the three minimality audits, which
are one comparison with three figures of merit.  Each audit reads its family
once and checks it whole (finite ends, then a < b, then the domain), then
`_evaluate`, the one block evaluator, takes it `BLOCK_ROWS` rows at a time:
one energy prefix per evaluation, G^2 from `matching_distance_sq`, and the mode's
figure and skip rule.  `_supremum`, the one reduction, keeps the largest
figure and its witness record across blocks, for a report and for the
acceptance criteria that reduce over the standard family
(`_audit_supremum`).  An audit returns a report that holds its checked
family and is written as it is evaluated: the writers take the blocks as
they come, and the record count, supremum and witness are reduced on the
way, so a written report's columns are never held whole.  A library caller
that reads a column gets the blocks concatenated.  The standard family is
itself made of `BLOCK_ROWS`-row blocks whose ends never leave the domain:
`audit_intervals` fills them into one array, while `_StandardFamily` stands
for the family without building it.  An audit of a `_StandardFamily` skips
the whole-family check, since its rows are valid by construction, and makes
the blocks as its report evaluates them; the CLI's quasi and almost audits
and the criteria that reduce over the standard family use it, so none of
them holds the family, and a criterion holds no report either.
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
    "StepWeight",
    "AuditRecord",
    "MinimalityReport",
    "DomainError",
    "EmptyIntervalError",
    "FamilySizeError",
    "UnsupportedCodimensionError",
    "UndefinedExponentError",
    "evaluate",
    "branch_values",
    "dirichlet_energy",
    "energy_between",
    "exact_minimizer",
    "minimizer_energy",
    "matching_distance_sq",
    "quasi_k_ratio",
    "omega_profile",
    "omega_report",
    "almost_deficiency",
    "energy_decay_exponent",
    "audit_intervals",
    "balls_from_intervals",
    "rescale_domain",
]

# Rows per block of an audit family.  Blocks of 1024 rows doubled the time
# of a level-8 audit over the whole family; from 4096 to 65536 the time is
# flat while the memory of a block grows with it.  From 8192 rows up, a
# Q = 2 block's (Q, rows) temporaries pass glibc's 128 KiB mmap threshold;
# once its dynamic thresholds settle on them, the freed heap top is trimmed
# after each block and faulted back in by the next (acceptance criterion 4:
# about 76,000 minor page faults at 8192 rows, 35 at 4096).
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
        # These bound every interval length, Dir(u) and G^2 of an audit, so
        # that no figure of merit is inf/inf or inf * 0, and every a + b of
        # two domain points, so that no ball center overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            totals = {
                "domain length": bps[-1] - bps[0],
                "branch spread Q (max - min)^2": br.shape[0] * np.ptp(br) ** 2,
                "Dirichlet energy": self.energy_prefix()[-1],
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


@dataclass(frozen=True)
class StepWeight:
    """Piecewise-constant positive weight: values[i] on (knots[i], knots[i+1]).

    It is defined on [knots[0], knots[-1]] only: a weighted energy over an
    interval that the knots do not cover is refused."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or knots.size != values.size + 1:
            raise ValueError("need k+1 knots for k weight values")
        _checks.finite("weight knots and values", knots, values)
        if not np.all(np.diff(knots) > 0):
            raise ValueError("weight knots must be strictly increasing")
        if not np.all(values > 0):
            raise ValueError("weight values must be positive")
        knots = knots.copy()
        values = values.copy()
        knots.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def value_at(self, x: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.values.size - 1)
        return self.values[idx]


def _check_in_domain(u: PiecewiseAffineQ, x) -> None:
    """Refuse unless lo <= x <= hi holds for every value; NaN fails it."""
    lo, hi = u.domain
    x = np.asarray(x, dtype=float)
    if not np.all((x >= lo) & (x <= hi)):
        raise DomainError(f"point outside domain [{lo}, {hi}]")


def branch_values(u: PiecewiseAffineQ, x) -> np.ndarray:
    """Sorted branch values at x (scalar or array); shape (Q,) + x.shape."""
    _check_in_domain(u, x)
    return np.stack([np.interp(x, u.breakpoints, row) for row in u.branches])


def evaluate(u: PiecewiseAffineQ, x: float) -> QPoint:
    """Value of the multi-branch function at x as an unordered tuple."""
    vals = branch_values(u, float(x))
    return QPoint(vals.reshape(u.q_count, 1))


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


def dirichlet_energy(
    u: PiecewiseAffineQ,
    a: float,
    b: float,
    weight: Optional[StepWeight] = None,
) -> float:
    """Exact Dirichlet energy of u over [a, b], optionally weighted.

    Computed in closed form segment by segment, never by quadrature; the
    unweighted value is a difference of shared prefix sums, so it is
    additive over adjacent intervals to rounding.
    """
    _checks.finite("interval ends", a, b, error=DomainError)
    _checks.interval(a, b, EmptyIntervalError)
    if weight is None:
        return float(energy_between(u, a, b))
    _check_in_domain(u, [a, b])
    if not weight.knots[0] <= a < b <= weight.knots[-1]:
        raise DomainError(f"the weight's knots [{weight.knots[0]}, {weight.knots[-1]}] do not cover [{a}, {b}]")
    cuts = np.concatenate((u.breakpoints, weight.knots, [a, b]))
    cuts = np.unique(cuts)
    cuts = cuts[(cuts >= a) & (cuts <= b)]
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    seg_idx = np.clip(np.searchsorted(u.breakpoints, mids, side="right") - 1, 0, len(u.breakpoints) - 2)
    density = (u.slopes() ** 2).sum(axis=0)[seg_idx]
    return float(np.sum(weight.value_at(mids) * density * np.diff(cuts)))


def matching_distance_sq(u: PiecewiseAffineQ, a, b) -> np.ndarray:
    """Squared matching distance between u(a) and u(b), vectorized.

    Branches are stored sorted, so the sorted pairing of the endpoint
    values, which is optimal in one dimension, is a direct column
    difference.
    """
    va = branch_values(u, a)
    vb = branch_values(u, b)
    return ((vb - va) ** 2).sum(axis=0)


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


class MinimalityReport:
    """Per-ball audit records plus the supremum and its witness.

    mode is one of {"quasi_k", "omega", "almost"}; `figure` holds the
    ratio (quasi_k, omega) or deficiency (almost) per record.  Records are
    columnar because audit families run to millions of intervals.

    A report built from its columns holds them.  A report an audit returns
    holds its checked family and evaluates it when it is written or read: a
    write takes `_evaluate`'s blocks as they come and keeps only their
    record count, supremum and witness, so the report's columns are never
    held whole; reading a column (or, before a write, the supremum or the
    witness) concatenates the blocks once and keeps them, and a later write
    uses them.
    """

    def __init__(self, mode: str, centers: np.ndarray, radii: np.ndarray, dir_u: np.ndarray, dir_min: np.ndarray,
                 figure: np.ndarray, supremum: float, witness: Optional[AuditRecord], alpha: Optional[float] = None):
        self.mode, self.alpha = mode, alpha
        self._evaluate = None
        self._columns = (centers, radii, dir_u, dir_min, figure)
        self._reduced = (supremum, witness, len(figure))

    @classmethod
    def _of_family(cls, mode: str, alpha: Optional[float], evaluate: Callable[[], Iterator[tuple]]):
        """The report of a checked family, whose blocks `evaluate()` makes when asked."""
        report = cls.__new__(cls)
        report.mode, report.alpha = mode, alpha
        report._evaluate, report._columns, report._reduced = evaluate, None, None
        return report

    def _whole(self) -> tuple[np.ndarray, ...]:
        """The columns, concatenated from the blocks and reduced the first time they are asked for."""
        if self._columns is None:
            self._columns = tuple(np.concatenate(column) for column in zip(*self._evaluate()))
            self._reduced = (*_supremum([self._columns]), self._columns[-1].size)
        return self._columns

    def _summary(self) -> tuple:
        """(supremum, witness, record count): from the last write, or from the columns."""
        if self._reduced is None:
            self._whole()
        return self._reduced

    centers = property(lambda self: self._whole()[0])
    radii = property(lambda self: self._whole()[1])
    dir_u = property(lambda self: self._whole()[2])
    dir_min = property(lambda self: self._whole()[3])
    figure = property(lambda self: self._whole()[4])
    supremum = property(lambda self: self._summary()[0])
    witness = property(lambda self: self._summary()[1])
    record_count = property(lambda self: self._summary()[2], doc="The number of records.")

    def _blocks(self) -> Iterator[tuple]:
        """The blocks to write: the columns whole once they are held, else
        `_evaluate`'s blocks as they come, whose record count, supremum and
        witness are kept once the last one is written.  The supremum is
        `_supremum` of the blocks' own (supremum, witness) records."""
        if self._columns is not None:
            yield self._columns
            return
        count, witnesses = 0, []
        for block in self._evaluate():
            count += block[-1].size
            witness = _supremum([block])[1]
            if witness is not None:
                witnesses.append(witness)
            yield block
        self._reduced = (*_supremum([np.array(witnesses).reshape(-1, len(AuditRecord._fields)).T]), count)

    def to_csv(self, path) -> None:
        write_csv(path, AuditRecord._fields, self._blocks())

    def to_json(self, path) -> None:
        records = Records(AuditRecord._fields, self._blocks())
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
    """The columns of a family, BLOCK_ROWS rows at a time; an empty family is one empty block."""
    for start in range(0, max(first.size, 1), BLOCK_ROWS):
        yield first[start : start + BLOCK_ROWS], second[start : start + BLOCK_ROWS]


def _evaluate(u: PiecewiseAffineQ, mode: str, blocks, alpha: Optional[float] = None):
    """The one audit evaluator: per block of a checked family, the kept
    (centers, radii, dir_u, dir_min, figure) columns.

    Dir(u) is a difference of one energy prefix, built once per call, and
    G^2(u(a), u(b)) is `matching_distance_sq`.  quasi_k skips the intervals
    with zero energy between identical boundary tuples and omega the balls
    with Dir(u) = Dir_min = 0: they carry no information.
    """
    bps, prefix = u.breakpoints, u.energy_prefix()
    for first, second in blocks:
        a, b = _interval_ends(mode, first, second)
        gsq = matching_distance_sq(u, a, b)
        dir_u = np.interp(b, bps, prefix) - np.interp(a, bps, prefix)
        if mode == "quasi_k":
            keep = ~((gsq == 0.0) & (dir_u == 0.0))
            a, b, dir_u, gsq = a[keep], b[keep], dir_u[keep], gsq[keep]
            with np.errstate(divide="ignore"):
                ratio = np.where(gsq > 0.0, (b - a) * dir_u / np.where(gsq > 0.0, gsq, 1.0), np.inf)
            yield *_balls(a, b), dir_u, np.where(gsq > 0.0, gsq / (b - a), 0.0), ratio
        elif mode == "omega":
            dir_min = gsq / (2.0 * second)
            keep = ~((dir_min == 0.0) & (dir_u == 0.0))
            dir_u, dir_min = dir_u[keep], dir_min[keep]
            with np.errstate(divide="ignore"):
                omega = np.where(dir_min > 0.0, dir_u / np.where(dir_min > 0.0, dir_min, 1.0) - 1.0, np.inf)
            yield first[keep], second[keep], dir_u, dir_min, omega
        else:
            dir_min = gsq / (2.0 * second)
            yield first, second, dir_u, dir_min, np.maximum(0.0, dir_u - dir_min) * second ** (1.0 - alpha)


def _supremum(blocks) -> tuple[float, Optional[AuditRecord]]:
    """The one audit reduction: the supremum of the figures of `_evaluate`'s
    blocks and the record that attains it.  Ties go to the smallest (a, b),
    a = center - radius and b = center + radius, across blocks too; no
    record gives (0.0, None)."""
    best, witness = None, None
    for block in blocks:
        centers, radii, *_, figure = block
        if figure.size == 0:
            continue
        top = figure.max()
        hits = np.flatnonzero(figure == top)
        a, b = centers[hits] - radii[hits], centers[hits] + radii[hits]
        k = np.lexsort((b, a))[0]
        # The larger figure wins, then the smaller a, then the smaller b.
        key = (top, -a[k], -b[k])
        if best is None or key > best:
            best, witness = key, AuditRecord(*(float(column[hits[k]]) for column in block))
    return (0.0, None) if best is None else (float(best[0]), witness)


def _audit(u: PiecewiseAffineQ, mode: str, family, alpha: Optional[float] = None) -> MinimalityReport:
    """Read a family once and check it whole, finite ends first, then a < b,
    then the domain, so that the same error wins at any block size; the
    report evaluates it a block at a time when it is written or read.  A
    `_StandardFamily` is valid as it is made, so it is only matched to `u`,
    and the report makes its blocks as it evaluates them."""
    if isinstance(family, _StandardFamily):
        if family.u is not u:
            raise DomainError("a standard family is audited only with the function it was made for")
        return MinimalityReport._of_family(mode, alpha, lambda: _evaluate(u, mode, family.blocks(mode), alpha))
    first, second = _pairs(family)
    a, b = _interval_ends(mode, first, second)
    _checks.finite("interval ends", a, b, error=DomainError)
    if np.any(a >= b):
        raise EmptyIntervalError("intervals must satisfy a < b")
    _check_in_domain(u, a)
    _check_in_domain(u, b)
    return MinimalityReport._of_family(mode, alpha, lambda: _evaluate(u, mode, _slices(first, second), alpha))


def _audit_supremum(u: PiecewiseAffineQ, mode: str, depth: int = 12, alpha: Optional[float] = None) -> float:
    """The supremum of an audit over the standard family of depth `depth`,
    reduced block by block: neither the family nor a report is held."""
    return _supremum(_evaluate(u, mode, _StandardFamily(u, depth).blocks(mode), alpha))[0]


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
        if report.figure.size:
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
    slope = np.polyfit(np.log(scales[keep]), np.log(energies[keep]), 1)[0]
    return float(slope)


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


def _family_blocks(u: PiecewiseAffineQ, depth: int):
    """The standard family of depth `depth` as (a, b) columns of at most
    BLOCK_ROWS rows: the breakpoint pairs (i, j), i < j, in row-major order,
    then each dyadic and each triadic level of the domain's refinement."""
    bps = u.breakpoints
    _check_family_size(bps.size, depth)
    # Row i of the pairs starts at flat position starts[i]; starts[-1] is the pair count.
    starts = np.concatenate(([0], np.cumsum(np.arange(bps.size - 1, 0, -1))))
    for start in range(0, int(starts[-1]), BLOCK_ROWS):
        k = np.arange(start, min(start + BLOCK_ROWS, int(starts[-1])))
        i = np.searchsorted(starts, k, side="right") - 1
        yield bps[i], bps[k - starts[i] + i + 1]
    lo, hi = u.domain
    for base in (2, 3):
        for d in range(depth + 1):
            cells = base**d
            for start in range(0, cells, BLOCK_ROWS):
                # The last edge can round above hi: 0.1 * 3 / 3 > 0.1.
                edges = np.minimum(lo + (hi - lo) * np.arange(start, min(start + BLOCK_ROWS, cells) + 1) / cells, hi)
                yield edges[:-1], edges[1:]


# In a scan of 300 domains far from 0, cells up to one ulp of the larger end
# wide gave rows with a == b, and wider cells none.
_MIN_CELL_ULPS = 4


class _StandardFamily:
    """The standard family of `u` at `depth`, counted but not built.

    Making one runs the size gate, so a family over MAX_FAMILY_ROWS rows or
    a negative depth is refused before anything is evaluated or written;
    `len()` gives its row count.  It also refuses, with DomainError, a
    domain whose finest cell, (hi - lo) / 3**depth, is not wider than
    `_MIN_CELL_ULPS` ulps of its larger end: rounded cell edges could meet
    there.  Otherwise its rows are finite, satisfy a < b and lie in the domain by construction, so
    an audit skips the whole-family check and reads `_family_blocks` as they
    are made: as (a, b) intervals in quasi_k mode and as (center, radius)
    balls in the ball modes, the columns `balls_from_intervals` would give,
    except that a ball whose rounded ends leave the domain is shrunk to fit.
    """

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

    def blocks(self, mode: str):
        blocks = _family_blocks(self.u, self.depth)
        return blocks if mode == "quasi_k" else (self._balls_inside(a, b) for a, b in blocks)

    def _balls_inside(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The balls of the rows, clamped to the domain as cell edges are: c + r rounds past hi only if it is
        past hi exactly, so a radius one ulp below the rounded room to the nearer end fits (c - r likewise)."""
        c, r = _balls(a, b)
        lo, hi = self.u.domain
        out = (c - r < lo) | (c + r > hi)  # the ends `_interval_ends` gives a ball
        return c, np.where(out, np.nextafter(np.minimum(hi - c, c - lo), 0.0), r) if out.any() else r


def audit_intervals(u: PiecewiseAffineQ, depth: int = 12) -> np.ndarray:
    """Standard interval family for the audits, as an (m, 2) array.

    All breakpoint pairs, plus the cells of dyadic and triadic refinements
    of the domain down to `depth`.  Extrema of the audited figures for the
    shipped constructions occur at construction-aligned intervals, and the
    triadic cells align with the ternary refinements.  A family of more
    than MAX_FAMILY_ROWS rows raises FamilySizeError before it is built;
    the blocks fill the array in place, so the family is held once.
    """
    family = np.empty((_check_family_size(u.breakpoints.size, depth), 2))
    start = 0
    for a, b in _family_blocks(u, depth):
        family[start : start + a.size, 0] = a
        family[start : start + a.size, 1] = b
        start += a.size
    return family


def balls_from_intervals(intervals) -> np.ndarray:
    """The (center, radius) rows of a family of (a, b) intervals."""
    return np.column_stack(_balls(*_pairs(intervals)))


def rescale_domain(u: PiecewiseAffineQ, scale: float) -> PiecewiseAffineQ:
    """Stretch the domain by `scale` > 0, keeping branch values."""
    _checks.real("scale", scale)
    return PiecewiseAffineQ(u.breakpoints * scale, u.branches)
