"""Input checks at the boundary: NaN, infinities, non-integers and
non-positive values are refused with a ValueError subclass that names the
parameter, and the shared validators behave as documented."""

import math
import re

import numpy as np
import pytest

from qvlab import _checks, func1d
from qvlab.branch import scan
from qvlab.constructions import (
    CantorConstruction,
    cantor_level,
    make_diamond,
    make_losange,
    sin_sampled,
)
from qvlab.disk2d import AliasingError, decay_profile_2d, minimize_disk, sorted_trace
from qvlab.func1d import DomainError, FamilySizeError, almost_deficiency, audit_intervals
from qvlab.qspace import ClusterSelection, QPoint, RetractionParams, c_of_q, select_clusters

NAN, INF = math.nan, math.inf
UNIT = make_diamond(0.0, 1.0)


# Each case: the call, the class it raises (the parent's class, or a subclass of
# it: TypeError and numpy's own errors, which NaN and non-integers reached
# before, become ValueError subclasses), and the parameter its message names.
CASES = {
    # an integer where a float was given went on to a TypeError in range() or a slice
    "sorted_trace-mode_cap-2.5": (lambda: sorted_trace(np.cos, 64, 2.5), ValueError, "mode_cap"),
    "sorted_trace-mode_cap-nan": (lambda: sorted_trace(np.cos, 64, NAN), ValueError, "mode_cap"),
    "sorted_trace-mode_cap-inf": (lambda: sorted_trace(np.cos, 64, INF), AliasingError, "mode_cap"),
    # NaN reached numpy's "arange: cannot compute length"
    "sorted_trace-sample_count-nan": (lambda: sorted_trace(np.cos, NAN, 4), AliasingError, "sample_count"),
    "sorted_trace-sample_count-2.5": (lambda: sorted_trace(np.cos, 2.5, 1), AliasingError, "sample_count"),
    "sorted_trace-sample_count-inf": (lambda: sorted_trace(np.cos, INF, 4), FamilySizeError, "sample_count"),
    "sorted_trace-radius--1": (lambda: sorted_trace(np.cos, 64, 8, radius=-1.0), ValueError, "radius"),
    "scan-grid_size-2.5": (lambda: scan(UNIT, 2.5), ValueError, "grid_size"),
    "scan-grid_size-101.5": (lambda: scan(UNIT, 101.5), ValueError, "grid_size"),
    "scan-grid_size-nan": (lambda: scan(UNIT, NAN), ValueError, "grid_size"),
    "scan-grid_size-inf": (lambda: scan(UNIT, INF), FamilySizeError, "grid_size"),
    "scan-tol--inf": (lambda: scan(UNIT, 101, -INF), ValueError, "tol"),
    "audit_intervals-depth-2.5": (lambda: audit_intervals(UNIT, 2.5), ValueError, "depth"),
    "audit_intervals-depth-nan": (lambda: audit_intervals(UNIT, NAN), ValueError, "depth"),
    "audit_intervals-depth-inf": (lambda: audit_intervals(UNIT, INF), FamilySizeError, "depth"),
    # accepted before: NaN passed both `depth < 0` and the size gate
    "standard_family-depth-nan": (lambda: func1d._StandardFamily(UNIT, NAN), ValueError, "depth"),
    "CantorConstruction-level-2.5": (lambda: cantor_level(CantorConstruction(2.5, "diamond")), ValueError, "level"),
    "CantorConstruction-level-nan": (lambda: CantorConstruction(NAN, "losange"), ValueError, "level"),
    "CantorConstruction-level-inf": (lambda: CantorConstruction(INF, "diamond"), ValueError, "level"),
    "select_clusters-s0--1": (lambda: select_clusters(QPoint.of(0.0, 1.0), -1.0, 2.0), ValueError, "s0"),
    "select_clusters-k--inf": (lambda: select_clusters(QPoint.of(0.0, 1.0), 0.1, -INF), ValueError, "separation_k"),
    "c_of_q-q-2.5": (lambda: c_of_q(2.5, 2.0), ValueError, "Q"),
    "c_of_q-q-nan": (lambda: c_of_q(NAN, 2.0), ValueError, "Q"),
    "c_of_q-q-inf": (lambda: c_of_q(INF, 2.0), ValueError, "Q"),
    "ClusterSelection-radius-nan": (
        lambda: ClusterSelection(1, (2,), np.array([[0.0]]), radius=NAN, s0=1.0, separation_k=2.0), ValueError, "radius"
    ),
    "RetractionParams-s1-nan": (lambda: RetractionParams(NAN, 1.0, None), ValueError, "s1"),
    "RetractionParams-s2-inf": (lambda: RetractionParams(0.5, INF, None), ValueError, "s2"),
    "energy_decay_exponent-r0--inf": (
        lambda: func1d.energy_decay_exponent(UNIT, 0.5, -INF, [1.0, 0.5]), DomainError, "r0"
    ),
    "energy_decay_exponent-center-inf": (
        lambda: func1d.energy_decay_exponent(UNIT, INF, 0.1, [1.0, 0.5]), DomainError, "center"
    ),
    # the ends reached PiecewiseAffineQ: "breakpoints and branch values must be finite"
    "make_diamond-a-nan": (lambda: make_diamond(NAN, 1.0), DomainError, "a < b"),
    "make_diamond-b-inf": (lambda: make_diamond(0.0, INF), DomainError, "a < b"),
    "make_losange-a--inf": (lambda: make_losange(-INF, 1.0), DomainError, "a < b"),
    # numpy's "zero-size array to reduction operation maximum" from the overflow totals
    "PiecewiseAffineQ-no-branches": (
        lambda: func1d.PiecewiseAffineQ([0.0, 1.0], np.empty((0, 2))), ValueError, "the number of branches"
    ),
    "sin_sampled-n-2.5": (lambda: sin_sampled(2.5), ValueError, "n"),
    "sin_sampled-n-nan": (lambda: sin_sampled(NAN), ValueError, "n"),
    "sin_sampled-n-inf": (lambda: sin_sampled(INF), FamilySizeError, "n"),
    "almost_deficiency-alpha-nan": (lambda: almost_deficiency(UNIT, NAN, [(0.5, 0.1)]), ValueError, "alpha"),
    "almost_deficiency-alpha-inf": (lambda: almost_deficiency(UNIT, INF, [(0.5, 0.1)]), ValueError, "alpha"),
    "subdisk_energy-scale-nan": (
        lambda: decay_profile_2d(minimize_disk(sorted_trace(np.cos, 64, 8)), [NAN]), ValueError, "scale"
    ),
    "QPoint-nan": (lambda: QPoint.of(0.0, NAN), ValueError, "coordinates"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES.keys())
def test_a_bad_parameter_is_refused_by_name(call, error, name):
    with pytest.raises(error, match=re.escape(name)):
        call()


@pytest.mark.parametrize(
    "value, lo, hi, ends, holds",
    [
        (1.0, 0, math.inf, "()", True),
        (0.0, 0, math.inf, "()", False),
        (0.0, 0, math.inf, "[)", True),
        (math.inf, 0, math.inf, "[)", False),
        (math.inf, 0, math.inf, "(]", True),
        (1.0, 0, 1, "(]", True),
        (1.0, 0, 1, "()", False),
        (math.nan, -math.inf, math.inf, "[]", False),
        (np.float64(math.nan), 0, 1, "()", False),
    ],
)
def test_real_takes_its_ends_from_the_brackets(value, lo, hi, ends, holds):
    if holds:
        assert _checks.real("x", value, lo, hi, ends) is value
    else:
        with pytest.raises(ValueError, match=re.escape(f"x must lie in {ends[0]}{lo}, {hi}{ends[1]}, got")):
            _checks.real("x", value, lo, hi, ends)


@pytest.mark.parametrize("value", [True, 2.0, np.float64(2.0), "2", math.nan, math.inf, -1, np.int64(-1)])
def test_integer_refuses_what_is_not_a_count(value):
    with pytest.raises(ValueError, match=r"n must be an integer of at least 0, got"):
        _checks.integer("n", value)


def test_integer_returns_an_int_and_sends_infinity_to_the_size_class():
    assert type(_checks.integer("n", np.int64(3), 2)) is int
    with pytest.raises(FamilySizeError):
        _checks.integer("n", math.inf, too_large=FamilySizeError)
    with pytest.raises(AliasingError):  # below `least`: the caller's class, not the size class
        _checks.integer("n", 1, 2, AliasingError, FamilySizeError)


def test_finite_quotes_a_number_but_not_an_array():
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
        _checks.finite("x", np.float64(math.nan))
    with pytest.raises(ValueError, match=r"^xs must be finite$"):
        _checks.finite("xs", [1.0, 2.0], [3.0, math.inf])


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_interval_needs_finite_ends_in_order(a, b):
    with pytest.raises(DomainError, match=re.escape(f"need finite ends a < b, got [{a}, {b}]")):
        _checks.interval(a, b, DomainError)


def test_distinct_counts_nans_as_one():
    _checks.distinct("scales", [0.1, 0.2])
    with pytest.raises(ValueError, match="need at least two distinct scales"):
        _checks.distinct("scales", [math.nan, math.nan])
