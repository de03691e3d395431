"""Tests for exact energies, interval minimizers, and the minimality audits."""

import bisect
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qvlab import cli, func1d

from qvlab.constructions import cantor_level, CantorConstruction, make_diamond, make_double_line, make_losange, make_pluri_losange
from qvlab.func1d import (
    MAX_FAMILY_ROWS,
    AuditRecord,
    DomainError,
    EmptyIntervalError,
    FamilySizeError,
    PiecewiseAffineQ,
    UndefinedExponentError,
    UnsupportedCodimensionError,
    almost_deficiency,
    audit_intervals,
    branch_values,
    dirichlet_energy,
    energy_between,
    energy_decay_exponent,
    exact_minimizer,
    minimizer_energy,
    omega_profile,
    omega_report,
    quasi_k_ratio,
)
from qvlab.qspace import QPoint, metric_g
from qvlab.writers import Records, write_csv, write_json


def double_line():
    return make_double_line(0.0, 1.0)


def record_columns(report):
    """A report's (centers, radii, dir_u, dir_min, figure) columns, from one evaluation of its family."""
    return tuple(np.concatenate(column) for column in zip(*(block.records() for block in report._evaluate())))


def reduced(blocks):
    """The (supremum, witness) of a report of the evaluated `blocks`; its mode does not enter the reduction."""
    report = func1d.MinimalityReport("almost", 0.5, lambda: iter(blocks))
    return report.supremum, report.witness


class TestEvaluation:
    def test_affine_interpolation(self):
        u = PiecewiseAffineQ([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        assert np.allclose(branch_values(u, 0.5), [0.5, 0.5])

    def test_diamond_midpoint(self):
        u = make_diamond(0.0, 1.0)
        assert branch_values(u, 0.5).tolist() == [0.0, 0.5]

    def test_breakpoint_values_exact(self):
        # a diamond over [0.25, 0.75] raised by 0.5
        u = PiecewiseAffineQ([0.25, 0.5, 0.75], [[0.5, 0.5, 0.75], [0.5, 0.75, 0.75]])
        for x in u.breakpoints:
            cols = branch_values(u, float(x))
            j = int(np.searchsorted(u.breakpoints, x))
            assert np.array_equal(cols, u.branches[:, j])

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            branch_values(double_line(), 1.5)

    def test_unsorted_branches_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseAffineQ([0.0, 1.0], [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "breakpoints, branches, total",
        [
            ([0.0, 1.0], [[-1e308, 1e308]], "branch spread"),
            ([0.0, 1e-320], [[0.0, 1.0]], "Dirichlet energy"),
            ([-1e308, 0.0, 1e308], [[0.0, 0.0, 1.0]], "domain length"),
            # a ball center 0.5 * (a + b) was inf, with "overflow encountered in add"
            ([1e308, 1.7e308], [[0.0, 1.0]], "doubled domain end"),
            # (b - a) Dir(u) over the whole domain is 1e410, so a quasi figure's numerator overflowed
            ([0.0, 1e-10, 1e200], [[0.0, 1e100, 1e100]], "domain length times Dirichlet energy"),
        ],
        ids=["spread", "energy", "length", "center", "length-times-energy"],
    )
    def test_overflowing_function_refused(self, breakpoints, branches, total):
        # Each was accepted: its quasi audit met inf/inf or inf * 0 = NaN
        # figures (an IndexError from the witness search), or its energy was inf.
        with pytest.raises(ValueError, match=f"the {total} .*of the function overflows"):
            PiecewiseAffineQ(breakpoints, branches)

    @pytest.mark.parametrize("mode", ["quasi_k", "omega"])
    def test_a_ratio_over_a_subnormal_gap_is_inf(self, mode):
        # G^2 over [0, 1] is 1e-320 and Dir(u) is 4: the ratio overflowed with a RuntimeWarning.
        u = PiecewiseAffineQ([0.0, 0.5, 1.0], [[0.0, 1.0, 1e-160]])
        report = run_audit(u, mode, [(0.0, 1.0)] if mode == "quasi_k" else [(0.5, 0.5)])
        assert report.supremum == np.inf and report.record_count == 1

    def test_rescale_to_an_overflowing_energy_refused(self):
        # the subnormal domain used to get energy inf
        u = make_diamond(0.0, 1.0)
        with pytest.raises(ValueError, match="the Dirichlet energy of the function overflows"):
            PiecewiseAffineQ(u.breakpoints * 1e-320, u.branches)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda u: branch_values(u, np.nan), None),
            # dirichlet_energy checks that its ends are finite before a < b, as exact_minimizer does
            (lambda u: dirichlet_energy(u, np.nan, 1.0), "interval ends must be finite, got nan"),
            # these gave nan, and 0.5 clamped by np.interp
            (lambda u: energy_between(u, np.nan, 0.5), None),
            (lambda u: energy_between(u, -5.0, 0.5), None),
            (lambda u: energy_between(u, [0.1, 0.2], np.array([0.5, np.nan])), None),
        ],
        ids=["branch_values", "dirichlet_energy", "energy_between", "energy_between-outside", "energy_between-array"],
    )
    def test_nan_point_is_outside_the_domain(self, call, message):
        # NaN fails lo <= x <= hi; it used to pass as inside and give nan
        with pytest.raises(DomainError, match=message or r"point outside domain \[0.0, 1.0\]"):
            call(make_diamond(0.0, 1.0))


class TestDirichletEnergy:
    def test_double_line(self):
        assert dirichlet_energy(double_line(), 0.2, 0.9) == pytest.approx(2 * 0.7, rel=1e-14)

    def test_diamond_on_middle_third(self):
        u = make_diamond(1.0 / 3.0, 2.0 / 3.0)
        assert dirichlet_energy(u, 1.0 / 3.0, 2.0 / 3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_losange_full(self):
        assert dirichlet_energy(make_losange(0.0, 1.0), 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_additivity_is_exact(self):
        rng = np.random.default_rng(2)
        u = cantor_level(CantorConstruction(4, "diamond"))
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(0, 1, 3))
            if a == b or b == c:
                continue
            whole = dirichlet_energy(u, a, c)
            parts = dirichlet_energy(u, a, b) + dirichlet_energy(u, b, c)
            # closed-form differences of one shared prefix: agreement to rounding
            assert whole == pytest.approx(parts, rel=1e-14)

    def test_empty_interval(self):
        with pytest.raises(EmptyIntervalError):
            dirichlet_energy(double_line(), 0.5, 0.5)

    def test_energy_between_refuses_reversed_ends(self):
        # this gave -0.8; equal ends stay energy 0, as decay profiles need
        u = make_diamond(0.0, 1.0)
        with pytest.raises(EmptyIntervalError, match=r"reversed interval \[0.9, 0.1\]"):
            energy_between(u, 0.9, 0.1)
        with pytest.raises(EmptyIntervalError, match=r"reversed interval \[0.7, 0.6\]"):
            energy_between(u, [0.1, 0.7], [0.2, 0.6])
        assert energy_between(u, [0.5, 0.2], [0.5, 0.3]).tolist() == [0.0, pytest.approx(0.1)]

    def test_scaling_covariance(self):
        u = cantor_level(CantorConstruction(3, "diamond"))
        lam = 2.5
        v = PiecewiseAffineQ(u.breakpoints * lam, u.branches)
        assert dirichlet_energy(v, 0.0, lam) == pytest.approx(dirichlet_energy(u, 0.0, 1.0) / lam, rel=1e-12)
        ru = quasi_k_ratio(u, [(0.2, 0.8)]).supremum
        rv = quasi_k_ratio(v, [(0.2 * lam, 0.8 * lam)]).supremum
        assert rv == pytest.approx(ru, rel=1e-12)


class TestExactMinimizer:
    def test_equal_boundaries_constant(self):
        q = QPoint.of(1.0, 2.0)
        u = exact_minimizer(q, q, 0.0, 1.0)
        assert dirichlet_energy(u, 0.0, 1.0) == 0.0

    def test_splitting_pair(self):
        u = exact_minimizer(QPoint.of(0.0, 0.0), QPoint.of(0.0, 1.0), 0.0, 1.0)
        assert dirichlet_energy(u, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(u.branches, [[0.0, 0.0], [0.0, 1.0]])

    def test_energy_equals_matching_distance_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = int(rng.integers(1, 6))
            a, b = sorted(rng.uniform(-2, 2, 2))
            if b - a < 1e-6:
                continue
            qa = QPoint(rng.normal(0, 2, (q, 1)))
            qb = QPoint(rng.normal(0, 2, (q, 1)))
            closed = minimizer_energy(qa, qb, a, b)
            assert dirichlet_energy(exact_minimizer(qa, qb, a, b), a, b) == pytest.approx(closed, rel=1e-12, abs=1e-15)
            assert closed == pytest.approx(metric_g(qa, qb) ** 2 / (b - a), rel=1e-12, abs=1e-15)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = int(rng.integers(1, 4))
            qa = QPoint(rng.normal(0, 1, (q, 1)))
            qb = QPoint(rng.normal(0, 1, (q, 1)))
            emin = minimizer_energy(qa, qb, 0.0, 1.0)
            xs = np.linspace(0.0, 1.0, 7)
            for _ in range(20):
                mid = np.sort(rng.normal(0, 1, (q, 5)), axis=0)
                cols = np.column_stack((np.sort(qa.points[:, 0]), mid, np.sort(qb.points[:, 0])))
                energy = float(((np.diff(cols, axis=1) ** 2) / np.diff(xs)).sum())
                assert energy >= emin * (1 - 1e-12)

    def test_codimension_guard(self):
        p = QPoint(np.zeros((2, 2)))
        with pytest.raises(UnsupportedCodimensionError):
            exact_minimizer(p, p, 0.0, 1.0)

    @pytest.mark.parametrize("minimizer", [exact_minimizer, minimizer_energy])
    @pytest.mark.parametrize(
        "boundary_a, boundary_b, a, b, error, message",
        [
            (QPoint(np.zeros((2, 2))), QPoint(np.zeros((2, 2))), 0.0, 1.0, UnsupportedCodimensionError, "n = 1"),
            (QPoint.of(0.0), QPoint.of(1.0, 2.0, 3.0), 0.0, 1.0, ValueError, "must share Q"),
            (QPoint.of(0.0), QPoint.of(1.0), 0.0, np.inf, DomainError, "must be finite"),
            (QPoint.of(0.0), QPoint.of(1.0), np.nan, 1.0, DomainError, "must be finite"),
            (QPoint.of(0.0), QPoint.of(1.0), 1.0, 1.0, EmptyIntervalError, "need finite ends a < b"),
        ],
        ids=["codimension", "q-mismatch", "infinite-end", "nan-end", "empty"],
    )
    def test_both_minimizers_check_the_boundary_alike(self, minimizer, boundary_a, boundary_b, a, b, error, message):
        with pytest.raises(error, match=message):
            minimizer(boundary_a, boundary_b, a, b)


@st.composite
def piecewise_functions(draw):
    """A Q-branch function, Q <= 3, on 2-8 breakpoints with sorted branch values."""
    q = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=7))
    bps = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=q * bps.size, max_size=q * bps.size))
    return PiecewiseAffineQ(bps, np.sort(np.reshape(values, (q, bps.size)), axis=0))


@st.composite
def competitors(draw):
    """Q, an interval [a, a + length], its 2Q boundary values, 1-6 interior
    fractions and the Q kicks per fraction that push a competitor off the minimizer."""
    q = draw(st.integers(1, 4))
    a = draw(st.floats(-5.0, 5.0))
    length = draw(st.floats(0.1, 5.0))
    ends = draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * q, max_size=2 * q))
    fractions = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True))
    kicks = draw(st.lists(st.floats(-3.0, 3.0), min_size=q * len(fractions), max_size=q * len(fractions)))
    return q, a, length, ends, fractions, kicks


# Below np.finfo(float).tiny a float keeps fewer than 53 bits: a rounding there
# errs by up to half of smallest_subnormal, absolutely, not relatively.  Each
# energy here takes a few hundred such roundings at most (Q <= 4 branches, 7
# segments, a division by a length >= 0.1), so 1024 subnormal steps bound what
# the two energies can differ by; 20,000 random subnormal draws differed by 6 at
# most.  The slack is below 1e-12 * tiny, so for every energy of normal range
# the relative bound decides, as before.
SUBNORMAL_SLACK = 1024 * np.finfo(float).smallest_subnormal


class TestEnergyProperties:
    @settings(max_examples=150, deadline=None)
    @given(u=piecewise_functions(), cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_prefix_energies_add_over_adjacent_intervals(self, u, cuts):
        lo, hi = u.domain
        xs = np.clip(lo + (hi - lo) * np.sort(cuts), lo, hi)
        parts = energy_between(u, xs[:-1], xs[1:])
        whole = float(energy_between(u, xs[0], xs[-1]))
        # Each part is a difference of one shared prefix, so the sum telescopes
        # up to a rounding of a few ulps of the largest prefix per part.
        bound = 4 * xs.size * np.finfo(float).eps * u.energy_prefix()[-1]
        assert abs(float(parts.sum()) - whole) <= bound

    @settings(max_examples=150, deadline=None)
    @given(case=competitors())
    # Both energies of this draw are subnormal: 7.2845e-320 against 7.285e-320, one
    # subnormal step apart, which the relative bound alone refused.
    @example(case=(2, 0.0, 1.0, [0.0, 0.0, 0.0, 2.699099369687668e-160], [0.5], [0.0, 0.0]))
    def test_exact_minimizer_never_beaten(self, case):
        q, a, length, ends, fractions, kicks = case
        b = a + length
        qa, qb = QPoint.of(*ends[:q]), QPoint.of(*ends[q:])
        xs = a + length * np.sort(fractions)
        # The minimizer at interior nodes, pushed off, with the same boundary tuples.
        interior = branch_values(exact_minimizer(qa, qb, a, b), xs) + np.reshape(kicks, (q, xs.size))
        nodes = np.concatenate(([a], xs, [b]))
        assume(np.all(np.diff(nodes) > 0))
        columns = np.column_stack((qa.sorted_values(), np.sort(interior, axis=0), qb.sorted_values()))
        competitor = PiecewiseAffineQ(nodes, columns)
        emin = minimizer_energy(qa, qb, a, b)
        assert dirichlet_energy(competitor, a, b) >= min(emin * (1 - 1e-12), emin - SUBNORMAL_SLACK)


class TestQuasiRatio:
    def test_double_line_ratio_one(self):
        report = quasi_k_ratio(double_line(), [(0.1, 0.6), (0.0, 1.0)])
        assert report.supremum == pytest.approx(1.0, rel=1e-12)

    def test_level_one_middle_interval(self):
        u = cantor_level(CantorConstruction(1, "diamond"))
        report = quasi_k_ratio(u, [(1.0 / 3.0, 2.0 / 3.0)])
        # Dir = 1/3 and the endpoint tuples sit at distance^2 = 1/18
        assert report.supremum == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_diamond_levels_bounded_by_four(self, level):
        u = cantor_level(CantorConstruction(level, "diamond"))
        report = quasi_k_ratio(u, audit_intervals(u, depth=8))
        assert report.supremum <= 4.0 + 1e-9

    def test_flat_with_energy_flags_infinity(self):
        u = make_losange(0.0, 1.0)
        report = quasi_k_ratio(u, [(0.0, 1.0)])
        assert np.isinf(report.supremum)

    def test_zero_over_zero_skipped(self):
        u = make_pluri_losange([(0.5, 0.7)])
        report = quasi_k_ratio(u, [(0.0, 0.3), (0.5, 0.7)])
        # the flat interval carries no information and is dropped
        assert report.figure.size == 1
        assert np.isinf(report.supremum)

    def test_witness_ties_break_lexicographically(self):
        # dyadic endpoints keep all three ratios exactly 1.0, forcing the tie-break
        u = double_line()
        report = quasi_k_ratio(u, [(0.5, 1.0), (0.25, 0.5), (0.25, 0.375)])
        w = report.witness
        assert (w.center - w.radius, w.center + w.radius) == (0.25, 0.375)


class TestOmega:
    def test_affine_profiles_vanish(self):
        u = exact_minimizer(QPoint.of(0.0, 1.0), QPoint.of(0.5, 2.0), 0.0, 1.0)
        prof = omega_profile(u, [0.1, 0.2], np.linspace(0.25, 0.75, 11))
        assert all(abs(v) <= 1e-12 for v in prof.values())
        prof = omega_profile(double_line(), [0.1], [0.5])
        assert prof[0.1] == pytest.approx(0.0, abs=1e-12)

    def test_losange_region_is_infinite(self):
        u = make_pluri_losange([(0.2, 0.8)])
        report = omega_report(u, [(0.5, 0.3)])
        assert np.isinf(report.supremum)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            omega_profile(double_line(), [0.4], [0.1])


class TestAlmostDeficiency:
    def test_affine_deficiency_zero(self):
        report = almost_deficiency(double_line(), 0.5, [(0.5, 0.4)])
        assert report.supremum == 0.0

    def test_full_losange_ball(self):
        report = almost_deficiency(make_losange(0.0, 1.0), 0.5, [(0.5, 0.5)])
        assert report.supremum == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_losange_levels_bounded_by_two(self, level):
        u = cantor_level(CantorConstruction(level, "losange"))
        fam = whole_family(u, depth=8)
        balls = np.column_stack((0.5 * (fam[:, 0] + fam[:, 1]), 0.5 * (fam[:, 1] - fam[:, 0])))
        assert almost_deficiency(u, 0.5, balls).supremum <= 2.0

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            almost_deficiency(double_line(), 1.5, [(0.5, 0.1)])


class TestAuditBoundary:
    """The audits share one family reader and one boundary check."""

    @pytest.mark.parametrize("ball", [(0.5, 0.0), (0.5, -0.1), (0.5, np.nan)])
    def test_almost_rejects_bad_radius(self, ball):
        with pytest.raises(ValueError):
            almost_deficiency(make_losange(0.0, 1.0), 0.5, [ball])

    def test_almost_nonpositive_radius_is_empty_interval(self):
        with pytest.raises(EmptyIntervalError):
            almost_deficiency(make_losange(0.0, 1.0), 0.5, np.array([[0.5, 0.0]]))

    def test_quasi_rejects_nan_end(self):
        with pytest.raises(ValueError):
            quasi_k_ratio(double_line(), [(np.nan, 0.5), (0.1, 0.9)])

    @pytest.mark.parametrize("radius", [0.0, -0.1])
    def test_omega_rejects_nonpositive_radius(self, radius):
        with pytest.raises(EmptyIntervalError):
            omega_report(double_line(), [(0.5, radius)])

    def test_reversed_interval_rejected(self):
        with pytest.raises(EmptyIntervalError):
            quasi_k_ratio(double_line(), [(0.6, 0.2)])

    def test_non_pair_family_rejected(self):
        with pytest.raises(ValueError):
            quasi_k_ratio(double_line(), [(0.1, 0.2, 0.3)])

    @pytest.mark.parametrize(
        "audit",
        [
            lambda u: quasi_k_ratio(u, []),
            lambda u: quasi_k_ratio(u, np.empty((0, 2))),
            lambda u: almost_deficiency(u, 0.5, []),
            lambda u: almost_deficiency(u, 0.5, iter(())),
            lambda u: omega_report(u, []),
        ],
    )
    def test_empty_family_gives_empty_report(self, audit):
        report = audit(double_line())
        assert report.supremum == 0.0
        assert report.witness is None
        assert report.figure.size == 0

    def test_generator_family_read_once(self):
        pairs = [(0.1, 0.6), (0.0, 1.0)]
        want = quasi_k_ratio(double_line(), pairs)
        got = quasi_k_ratio(double_line(), (p for p in pairs))
        assert np.array_equal(got.figure, want.figure)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be an integer of at least 0, got -1"):
            audit_intervals(double_line(), depth=-1)


def block_ends(block):
    """The two columns of one of `_evaluate`'s blocks (points, ia, ib)."""
    points, ia, ib = block
    return points[ia], points[ib]


def block_columns(blocks):
    """The (rows, 2) array of `_evaluate`'s blocks, concatenated."""
    return np.column_stack([np.concatenate(column) for column in zip(*map(block_ends, blocks))])


def whole_family(u, depth):
    """The standard family built in one piece: every breakpoint pair, then
    each dyadic and each triadic level of the domain (whose last edge is not
    clamped to the domain, unlike the family's)."""
    lo, hi = u.domain
    i, j = np.triu_indices(u.breakpoints.size, k=1)
    parts = [np.column_stack((u.breakpoints[i], u.breakpoints[j]))]
    for base in (2, 3):
        for d in range(depth + 1):
            edges = lo + (hi - lo) * np.arange(base**d + 1) / base**d
            parts.append(np.column_stack((edges[:-1], edges[1:])))
    return np.concatenate(parts)


def separate_ends(u, a, b):
    """Dir(u) and G^2 of the intervals (a_i, b_i), with the branch values and
    energy prefix of each row's a and b interpolated on their own."""
    bps, prefix = u.breakpoints, u.energy_prefix()
    va = np.stack([np.interp(a, bps, row) for row in u.branches])
    vb = np.stack([np.interp(b, bps, row) for row in u.branches])
    return np.interp(b, bps, prefix) - np.interp(a, bps, prefix), ((vb - va) ** 2).sum(axis=0)


def whole_family_audit(u, mode, family, alpha=0.5):
    """Each audit's formulas in one pass over the whole family: the columns,
    then the supremum and the witness (ties go to the smallest (a, b))."""
    first, second = np.asarray(family, dtype=float).T
    a, b = (first, second) if mode == "quasi_k" else (first - second, first + second)
    dir_u, gsq = separate_ends(u, a, b)
    if mode == "quasi_k":
        keep = ~((gsq == 0.0) & (dir_u == 0.0))
        a, b, dir_u, gsq = a[keep], b[keep], dir_u[keep], gsq[keep]
        with np.errstate(divide="ignore", over="ignore"):  # a ratio past the float range is inf
            figure = np.where(gsq > 0.0, (b - a) * dir_u / np.where(gsq > 0.0, gsq, 1.0), np.inf)
        columns = (0.5 * (a + b), 0.5 * (b - a), dir_u, np.where(gsq > 0.0, gsq / (b - a), 0.0), figure)
    else:
        x, r = first, second
        dir_min = gsq / (2.0 * r)
        if mode == "omega":
            keep = ~((dir_min == 0.0) & (dir_u == 0.0))
            x, r, dir_u, dir_min = x[keep], r[keep], dir_u[keep], dir_min[keep]
            with np.errstate(divide="ignore", over="ignore"):
                figure = np.where(dir_min > 0.0, dir_u / np.where(dir_min > 0.0, dir_min, 1.0) - 1.0, np.inf)
        else:
            figure = np.maximum(0.0, dir_u - dir_min) * r ** (1.0 - alpha)
        columns = (x, r, dir_u, dir_min, figure)
    if figure.size == 0:
        return columns, 0.0, None
    supremum = float(figure.max())
    hits = [k for k in range(figure.size) if figure[k] == supremum]
    k = min(hits, key=lambda k: (columns[0][k] - columns[1][k], columns[0][k] + columns[1][k]))
    return columns, supremum, tuple(float(c[k]) for c in columns)


def balls_of(intervals):
    """The (center, radius) rows of a family of (a, b) intervals, unclamped."""
    a, b = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    return np.column_stack((0.5 * (a + b), 0.5 * (b - a)))


def mode_family(mode, intervals):
    """quasi_k reads intervals, omega and almost read balls."""
    return intervals if mode == "quasi_k" else balls_of(intervals)


def run_audit(u, mode, family):
    if mode == "quasi_k":
        return quasi_k_ratio(u, family)
    return omega_report(u, family) if mode == "omega" else almost_deficiency(u, 0.5, family)


def audit_families():
    # Losanges over (1/4, 1/2) and (5/8, 7/8): flat intervals are 0/0 rows
    # (skipped by quasi_k and omega), losange intervals have infinite quasi_k
    # and omega figures, and the smallest infinite (a, b) comes last but one.
    pluri = make_pluri_losange([(0.25, 0.5), (0.625, 0.875)])
    pluri_family = [
        (0.5, 0.625), (0.625, 0.875), (0.0, 0.25), (0.25, 0.5), (0.875, 1.0), (0.25, 0.5),
        (0.0, 0.375), (0.3, 0.4), (0.5, 0.875), (0.0, 1.0), (0.0, 0.125), (0.125, 0.25),
    ]
    # On the double line every dyadic interval ties: quasi_k 1, omega and almost 0.
    ties = [(0.5, 1.0), (0.25, 0.5), (0.5, 0.75), (0.25, 0.375), (0.75, 1.0), (0.0, 0.125)]
    diamond = cantor_level(CantorConstruction(2, "diamond"))
    losange = cantor_level(CantorConstruction(2, "losange"))
    return [
        (pluri, pluri_family),
        (double_line(), ties),
        (diamond, whole_family(diamond, depth=3)),
        (losange, whole_family(losange, depth=3)),
    ]


def bits(values):
    """The bit patterns of float values, so that 0.0 and -0.0 differ and NaN equals itself."""
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def audited_functions(draw):
    """A Q-branch function, Q <= 3, on 2-12 breakpoints over a domain near 0,
    far from 0 or narrow, with branch values that often repeat, so that rows
    tie, are skipped as 0/0 or have infinite figures.  Breakpoints are at
    least 1e-3 of the domain apart."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.3, 0.2), (1e5, 1e5 + 7.3), (0.25, 0.25 + 1e-6),
                                   (-1e5 - 1e-3, -1e5)]))
    steps = draw(st.lists(st.integers(1, 999), max_size=10, unique=True))
    jitter = draw(st.floats(0.0, 0.5))
    bps = np.concatenate(([lo], lo + (hi - lo) * (np.sort(steps) + jitter) / 1000.0, [hi]))
    q = draw(st.integers(1, 3))
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10.0, 10.0)
    values = draw(st.lists(value, min_size=q * bps.size, max_size=q * bps.size))
    return PiecewiseAffineQ(bps, np.sort(np.reshape(values, (q, bps.size)), axis=0))


@st.composite
def crowded_functions(draw):
    """A one-branch function whose breakpoints step 1-12 doubles at a time
    from a start at 0, near 1, at a binade edge or subnormal (mirrored at
    times), with a far end at times; its value is constant over the steps,
    so that the energy stays finite."""
    x = draw(st.sampled_from([0.0, 1.0, -1.0, 1.0 - 2**-53, 2.0**-1022, 1e-310, -5e-324, 1e5]))
    bps = [x]
    for step in draw(st.lists(st.integers(1, 12), min_size=1, max_size=5)):
        for _ in range(step):
            x = np.nextafter(x, np.inf)
        bps.append(x)
    values = [0.0] * len(bps)
    far = draw(st.sampled_from([None, 1.0, 2.0**-40]))
    if far is not None:
        bps.append(x + far * max(1.0, abs(x)))
        values.append(draw(st.sampled_from([0.0, 1.0, -3.0])))
    if draw(st.booleans()):
        bps, values = [-b for b in reversed(bps)], values[::-1]
    return PiecewiseAffineQ(bps, [values])


class TestSharedEnds:
    """The standard family's rows share their ends: each distinct end is
    evaluated once, with the bits of evaluating every row's a and b alone."""

    @settings(max_examples=150, deadline=None)
    @given(u=audited_functions(), depth=st.integers(0, 6), mode=st.sampled_from(["quasi_k", "omega", "almost"]),
           rows=st.sampled_from([1, 3, 7, 4096]), streamed=st.booleans())
    def test_shared_ends_match_separate_ends_bit_for_bit(self, u, depth, mode, rows, streamed):
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            family = audit_intervals(u, depth)
            columns = block_columns(family.blocks(mode))
            want, want_sup, want_witness = whole_family_audit(u, mode, columns)
            report = run_audit(u, mode, family if streamed else columns)
            got = record_columns(report)
            for got_column, want_column in zip(got, want):
                assert np.array_equal(bits(got_column), bits(want_column))
            assert report.record_count == want[-1].size
            assert bits(report.supremum) == bits(want_sup)
            assert (report.witness is None) == (want_witness is None)
            if want_witness is not None:
                assert np.array_equal(bits(tuple(report.witness)), bits(want_witness))
            oracle = reduced([func1d._Block(*want)])[0]
            assert bits(run_audit(u, mode, audit_intervals(u, depth)).supremum) == bits(oracle)

    @pytest.mark.parametrize("rows", [7, 64, 4096])
    def test_each_distinct_end_is_evaluated_once(self, rows):
        # A pair block evaluates the m breakpoints, a cell block its rows + 1
        # edges; evaluating each row's a and b alone took 2 x rows points.
        u = cantor_level(CantorConstruction(2, "diamond"))
        depth, m = 4, u.breakpoints.size
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            with mock.patch.object(func1d, "branch_values", wraps=func1d.branch_values) as spy:
                report = quasi_k_ratio(u, audit_intervals(u, depth))
                report.record_count
        received = sum(np.size(call.args[1]) for call in spy.call_args_list)
        pairs, cells = m * (m - 1) // 2, [base**d for base in (2, 3) for d in range(depth + 1)]
        assert received == -(-pairs // rows) * m + sum(n + -(-n // rows) for n in cells)


def exact_figures(u, mode, rows):
    """Each row's figure in exact arithmetic on the stored floats: the
    breakpoints, the branch values and the row's ends (a, b in quasi_k mode;
    c - r and c + r as the audit rounds them, and r, in the ball modes), each
    read as a Fraction.  None marks a row skipped as zero over zero; a row
    whose G^2, and so its Dir_min, is 0 with energy gets inf.  In almost mode
    no row is skipped, and the exact max(0, Dir(u) - Dir_min) is multiplied
    by the float r ** (1 - alpha) at `run_audit`'s alpha = 0.5."""
    xs = [Fraction(x) for x in u.breakpoints.tolist()]
    values = [[Fraction(v) for v in row] for row in u.branches.tolist()]
    slopes = [[(v1 - v0) / (x1 - x0) for v0, v1, x0, x1 in zip(row, row[1:], xs, xs[1:])] for row in values]
    density = [sum(column) for column in zip(*([s * s for s in row] for row in slopes))]
    prefix = [Fraction(0)]
    for d, x0, x1 in zip(density, xs, xs[1:]):
        prefix.append(prefix[-1] + d * (x1 - x0))

    def at(x):
        """The branch values and the energy prefix at x."""
        j = min(bisect.bisect_right(xs, x) - 1, len(xs) - 2)
        dx = x - xs[j]
        return [row[j] + s[j] * dx for row, s in zip(values, slopes)], prefix[j] + density[j] * dx

    figures = []
    for first, second in rows.tolist():
        a, b = (first, second) if mode == "quasi_k" else (first - second, first + second)
        (va, pa), (vb, pb) = at(Fraction(a)), at(Fraction(b))
        dir_u, gsq = pb - pa, sum((q - p) ** 2 for p, q in zip(va, vb))
        if mode == "almost":
            figures.append(max(0, dir_u - gsq / (2 * Fraction(second))) * Fraction(second ** 0.5))
        elif gsq == 0:
            figures.append(None if dir_u == 0 else math.inf)
        elif mode == "quasi_k":
            figures.append((Fraction(b) - Fraction(a)) * dir_u / gsq)
        else:
            figures.append(dir_u / (gsq / (2 * Fraction(second))) - 1)
    return figures


class TestExactDiamondFigures:
    """The diamond refinements' audit figures against exact arithmetic on the
    same floats: rounding in the evaluation moves no figure by more than
    1e-12 (relative in quasi_k mode, absolute in omega mode, whose figures
    sit near 0), skips no other row and makes no other figure inf."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["quasi_k", "omega"])
    def test_figures_match_exact_arithmetic(self, mode, level):
        u = cantor_level(CantorConstruction(level, "diamond"))
        family = audit_intervals(u, 5)
        rows = block_columns(family.blocks(mode))
        exact = exact_figures(u, mode, rows)
        kept = np.array([figure is not None for figure in exact])
        blocks = list(func1d._evaluate(u, mode, family.blocks(mode)))
        got = np.concatenate([block.figure for block in blocks])
        assert np.array_equal(np.concatenate([block.first for block in blocks]), rows[kept, 0])
        assert np.array_equal(np.concatenate([block.second for block in blocks]), rows[kept, 1])
        want = [figure for figure in exact if figure is not None]
        assert np.array_equal(np.isinf(got), [figure == math.inf for figure in want])
        bound = Fraction(1e-12)
        for figure, exact_figure in zip(got.tolist(), want):
            if exact_figure != math.inf:
                error = abs(Fraction(figure) - exact_figure)
                assert error <= bound * (abs(exact_figure) if mode == "quasi_k" else 1)


class TestExactAlmostFigures:
    """The almost figures of the diamond and losange refinements against
    exact arithmetic on the same floats: rounding moves no figure by more
    than 1e-12.  This mode subtracts Dir_min where the others divide by G^2,
    so the losange's near-zero G^2 on its cells symmetric about 1/2 does not
    blow its figures up."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("flavor", ["diamond", "losange"])
    def test_figures_match_exact_arithmetic(self, flavor, level):
        u = cantor_level(CantorConstruction(level, flavor))
        family = audit_intervals(u, 5)
        rows = block_columns(family.blocks("almost"))
        got = np.concatenate([block.figure for block in func1d._evaluate(u, "almost", family.blocks("almost"), 0.5)])
        exact = exact_figures(u, "almost", rows)
        assert got.size == len(exact)
        for figure, exact_figure in zip(got.tolist(), exact):
            assert abs(Fraction(figure) - exact_figure) <= Fraction(1e-12)


def nan_block(figure, quasi=False):
    """A block of len(figure) rows, (0.5 k, 0.5 k + 1) in quasi_k form, or balls (k + 0.5, 0.5)."""
    k = np.arange(len(figure), dtype=float)
    if quasi:
        return func1d._Block(0.5 * k, 0.5 * k + 1.0, np.ones(k.size), np.ones(k.size), np.array(figure), quasi=True)
    return func1d._Block(k + 0.5, np.full(k.size, 0.5), np.ones(k.size), np.full(k.size, 2.0), np.array(figure))


class TestNanSupremum:
    """A NaN figure is the supremum, and its first row the witness."""

    def test_a_nan_figure_is_the_supremum(self):
        # figure.max() was NaN, `figure == top` selected no row, and the reduction raised IndexError.
        supremum, witness = reduced([nan_block([1.0, np.nan])])
        assert math.isnan(supremum)
        assert witness[:4] == (1.5, 0.5, 1.0, 2.0) and math.isnan(witness.figure_of_merit)

    def test_the_first_nan_row_wins_across_blocks(self):
        blocks = [nan_block([np.inf, 3.0]), nan_block([2.0, np.nan, np.nan]), nan_block([np.nan, np.inf])]
        supremum, witness = reduced(blocks)
        assert math.isnan(supremum) and witness[:2] == (1.5, 0.5)
        supremum, witness = reduced([nan_block([np.inf, np.nan, 4.0], quasi=True)])
        assert math.isnan(supremum) and witness[:4] == (1.0, 0.5, 1.0, 1.0)

    def test_a_report_with_a_nan_figure(self, tmp_path):
        blocks = [nan_block([1.0, 5.0]), nan_block([np.nan, 7.0]), nan_block([np.nan])]
        report = func1d.MinimalityReport("almost", 0.5, lambda: iter(blocks))
        assert repr(report.supremum) == "nan" and report.witness[:2] == (0.5, 0.5)
        report.to_csv(tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text().splitlines()[3] == "0.5,0.5,1.0,2.0,nan"
        assert repr(report.supremum) == "nan" and report.record_count == 5


class TestFamilyBlocks:
    """One block evaluator: block sizes change no column, supremum or witness."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_blocks_concatenate_to_the_whole_family(self, rows):
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            for level in range(1, 6):
                u = cantor_level(CantorConstruction(level, "diamond"))
                for depth in range(7):
                    family = audit_intervals(u, depth)
                    assert max(block_ends(block)[0].size for block in family.blocks()) <= rows
                    want = whole_family(u, depth)
                    assert np.array_equal(block_columns(family.blocks()).view(np.uint64), want.view(np.uint64))
                    assert len(want) == len(family) == func1d._family_rows(u.breakpoints.size, depth)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("mode", ["quasi_k", "omega", "almost"])
    def test_blocked_report_matches_whole_family_audit(self, mode, rows):
        for u, intervals in audit_families():
            family = mode_family(mode, intervals)
            want_columns, want_sup, want_witness = whole_family_audit(u, mode, family)
            # A report evaluates its family when it is read, so it is read inside the patch.
            with mock.patch.object(func1d, "BLOCK_ROWS", rows):
                report = run_audit(u, mode, family)
                got_columns = record_columns(report)
                got_sup, got_witness = report.supremum, report.witness
            for got, want in zip(got_columns, want_columns):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got_sup == want_sup
            assert (got_witness and tuple(got_witness)) == want_witness

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["quasi_k", "omega", "almost"])
    def test_supremum_reduces_blocks_like_the_whole_family(self, mode, rows):
        # Ties and infinite figures fall in different blocks at these sizes.
        for u, intervals in audit_families():
            family = np.asarray(mode_family(mode, intervals), dtype=float)
            _, want_sup, want_witness = whole_family_audit(u, mode, family)
            with mock.patch.object(func1d, "BLOCK_ROWS", rows):
                blocks = list(func1d._evaluate(u, mode, func1d._slices(*family.T), alpha=0.5))
            assert len(blocks) == -(-len(family) // rows)
            supremum, witness = reduced(blocks)
            assert supremum == want_sup
            assert (witness and tuple(witness)) == want_witness
        assert reduced([]) == (0.0, None)

    @pytest.mark.parametrize("rows", [1, 2, func1d.BLOCK_ROWS, 8192])
    @pytest.mark.parametrize(
        "later, error, message",
        [((np.nan, 0.5), DomainError, "interval ends must be finite"), ((0.6, 0.3), EmptyIntervalError, "a < b")],
    )
    def test_the_same_error_wins_at_any_block_size(self, rows, later, error, message):
        # The first row leaves the domain, a later one is worse: the whole
        # family is checked, finite ends first, then a < b, then the domain.
        family = [(0.1, 1.5), (0.2, 0.4), later]
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            with pytest.raises(error, match=message):
                quasi_k_ratio(double_line(), family)

    @pytest.mark.parametrize("rows", [5, func1d.BLOCK_ROWS, 8192])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_supremum_reduction_matches_report(self, level, rows):
        diamond = cantor_level(CantorConstruction(level, "diamond"))
        losange = cantor_level(CantorConstruction(level, "losange"))
        quasi = quasi_k_ratio(diamond, whole_family(diamond, depth=5)).supremum
        almost = almost_deficiency(losange, 0.5, balls_of(whole_family(losange, depth=5))).supremum
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            assert quasi_k_ratio(diamond, audit_intervals(diamond, 5)).supremum == quasi
            assert almost_deficiency(losange, 0.5, audit_intervals(losange, 5)).supremum == almost

    @pytest.mark.parametrize("mode", ["quasi_k", "omega"])
    def test_supremum_of_a_family_with_no_kept_record_is_zero(self, mode):
        # A constant function makes every row 0/0, so quasi_k and omega keep none.
        flat = PiecewiseAffineQ([0.0, 0.5, 1.0], [[1.0, 1.0, 1.0]])
        report = run_audit(flat, mode, mode_family(mode, whole_family(flat, depth=4)))
        assert report.figure.size == 0 and report.supremum == 0.0
        with mock.patch.object(func1d, "BLOCK_ROWS", 3):
            assert run_audit(flat, mode, audit_intervals(flat, 4)).supremum == 0.0

    def test_energy_prefix_built_once_per_audit(self):
        # A report evaluates its family when it is read, so each call reads one.
        u, intervals = audit_families()[0]
        prefix = PiecewiseAffineQ.energy_prefix
        with mock.patch.object(func1d, "BLOCK_ROWS", 2):
            for call in (
                lambda: quasi_k_ratio(u, intervals).figure,
                lambda: omega_report(u, balls_of(intervals)).figure,
                lambda: almost_deficiency(u, 0.5, balls_of(intervals)).figure,
                lambda: quasi_k_ratio(u, audit_intervals(u, 3)).supremum,
            ):
                with mock.patch.object(PiecewiseAffineQ, "energy_prefix", autospec=True, side_effect=prefix) as spy:
                    call()
                assert spy.call_count == 1

    def test_last_edge_stays_in_the_domain(self):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, past the end of [0, 0.1]
        u = make_diamond(0.0, 0.1)
        family = block_columns(audit_intervals(u, depth=1).blocks())
        assert family.max() == 0.1
        assert quasi_k_ratio(u, family).supremum == quasi_k_ratio(u, audit_intervals(u, 1)).supremum

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), depth=st.integers(0, 8))
    @example(lo=0.0, width=0.1, depth=1)
    @example(lo=0.0, width=1.0, depth=12)  # the acceptance criteria's family
    def test_family_ends_lie_in_the_domain(self, lo, width, depth):
        u = make_double_line(lo, lo + width)
        lo, hi = u.domain
        a, b = block_columns(audit_intervals(u, depth).blocks()).T
        assert np.all((lo <= a) & (a < b) & (b <= hi))

    def test_level_8_supremum_holds_no_family(self):
        # numpy reports its buffers to tracemalloc.  The level-8 family has
        # 1.1M rows; building it whole for the report peaks near 100 MB.
        u = cantor_level(CantorConstruction(8, "diamond"))
        tracemalloc.start()
        try:
            supremum = quasi_k_ratio(u, audit_intervals(u)).supremum
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert supremum <= 4.0 + 1e-9
        assert peak < 16 * 2**20


def written(report, fmt, path):
    """The bytes `report` writes as `fmt`."""
    getattr(report, f"to_{fmt}")(path)
    return path.read_bytes()


def written_whole(mode, alpha, columns, supremum, witness, fmt, path):
    """The bytes of whole columns written as `fmt` through `writers`, in a report's layout."""
    if fmt == "csv":
        write_csv(path, AuditRecord._fields, [columns])
    else:
        write_json(path, {"mode": mode, "alpha": alpha, "records": Records(AuditRecord._fields, [columns]),
                          "supremum": supremum, "witness": witness and witness._asdict()})
    return path.read_bytes()


class TestStreamedReport:
    """An audit's report is written as it is evaluated, with the bytes of its whole columns."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["quasi_k", "omega", "almost"])
    def test_streamed_write_matches_the_whole_columns(self, mode, rows, fmt, tmp_path):
        # Ties and infinite figures fall in different blocks at these sizes.
        alpha = 0.5 if mode == "almost" else None
        for k, (u, intervals) in enumerate(audit_families() + [(double_line(), np.empty((0, 2)))]):
            family = mode_family(mode, intervals)
            columns, supremum, witness = whole_family_audit(u, mode, family)
            witness = witness and AuditRecord(*witness)
            want = written_whole(mode, alpha, columns, supremum, witness, fmt, tmp_path / f"whole{k}.{fmt}")
            with mock.patch.object(func1d, "BLOCK_ROWS", rows):
                streamed = run_audit(u, mode, family)
                assert written(streamed, fmt, tmp_path / f"streamed{k}.{fmt}") == want
                assert (streamed.supremum, streamed.witness, streamed.record_count) == (supremum, witness,
                                                                                       columns[-1].size)
                read_first = run_audit(u, mode, family)
                assert read_first.figure.size == columns[-1].size
                assert written(read_first, fmt, tmp_path / f"read{k}.{fmt}") == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_pass_evaluates_the_family_once(self, fmt, tmp_path):
        # A report keeps no column: a write evaluates once, and so does each
        # column read; the summary comes from the last write, or before any
        # write from one pass of its own.
        u, intervals = audit_families()[2]
        path = tmp_path / f"report.{fmt}"
        with mock.patch.object(func1d, "_evaluate", wraps=func1d._evaluate) as spy:
            report = quasi_k_ratio(u, intervals)
            assert spy.call_count == 0
            written(report, fmt, path)
            assert spy.call_count == 1
            report.supremum, report.witness, report.record_count
            assert spy.call_count == 1
            report.figure, record_columns(report)
            assert spy.call_count == 3
            spy.reset_mock()
            report = quasi_k_ratio(u, intervals)
            report.supremum, report.witness, report.record_count
            assert spy.call_count == 1
            report.figure
            assert spy.call_count == 2
            written(report, fmt, path)
            report.supremum, report.witness, report.record_count
            assert spy.call_count == 3

    @pytest.mark.parametrize("mode", ["quasi_k", "almost"])
    def test_a_summary_read_before_any_write_makes_no_record_column(self, mode):
        # The report folds its blocks as they pass: only the rows that attain
        # a block's largest figure make records.  When the summary pass took
        # each block's records as a write does, 15 of the 31 calls here took
        # whole blocks.
        u = cantor_level(CantorConstruction(3, "diamond"))
        report = run_audit(u, mode, audit_intervals(u, 6))
        with mock.patch.object(func1d._Block, "records", autospec=True, side_effect=func1d._Block.records) as spy:
            assert report.supremum > 0.0
        assert spy.call_count > 0
        for call in spy.call_args_list:
            assert len(call.args) == 2 and call.args[1].dtype == bool

    @pytest.mark.parametrize(
        "audit, family",
        [(quasi_k_ratio, [(0.2, 0.4), (0.6, 0.3)]), (omega_report, [(0.5, 0.1), (0.5, np.nan)]),
         (lambda u, balls: almost_deficiency(u, 0.5, balls), [(0.5, 0.1), (0.95, 0.1)])],
        ids=["quasi", "omega", "almost"],
    )
    def test_an_invalid_family_raises_at_the_call(self, audit, family, tmp_path):
        # The whole family is checked before a block is evaluated or a file opened.
        path = tmp_path / "report.csv"
        with mock.patch.object(func1d, "_evaluate", wraps=func1d._evaluate) as spy:
            with pytest.raises(ValueError):
                audit(double_line(), family).to_csv(path)
        assert spy.call_count == 0
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_audit_holds_no_report_column(self, fmt, tmp_path, capsys):
        # numpy reports its buffers to tracemalloc.  Concatenating the five
        # columns before the write peaked at 2.8 times their bytes; streamed
        # from a built family, 0.64 (CSV) and 0.78 (JSON) times them; with
        # the family made as it is read, one block, one chunk's texts and
        # its joined rows: 0.25 and 0.39 times them; with the rows written
        # `writers.PIECE_ROWS` at a time, 0.20 and 0.20.
        argv = ["audit", "cantor-diamond", "--level", "8", "--depth", "8", "--mode", "quasi", "--format", fmt,
                "--out", str(tmp_path / f"audit.{fmt}")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        records = int(re.search(r"records=(\d+) ", capsys.readouterr().out).group(1))
        column_bytes = len(AuditRecord._fields) * 8 * records
        assert records == 304113
        assert peak < column_bytes, (peak, column_bytes)


def cli_audit_peak(tmp_path, mode, fmt, level, depth):
    """The tracemalloc peak (numpy reports its buffers) of one CLI audit."""
    argv = ["audit", "cantor-diamond", "--level", str(level), "--depth", str(depth), "--mode", mode,
            "--format", fmt, "--out", str(tmp_path / f"audit-{depth}.{fmt}")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStandardFamily:
    """The CLI's standard family is made block by block as its audit reads it."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4096])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", ["quasi_k", "almost"])
    def test_streamed_report_matches_the_built_family(self, mode, fmt, rows, tmp_path):
        # Ties and infinite figures fall in different blocks at the small sizes.
        for k, name in enumerate(["diamond", "losange"]):
            u = cantor_level(CantorConstruction(2, name))
            built = whole_family(u, depth=3)
            if mode == "quasi_k":
                want, got = quasi_k_ratio(u, built), quasi_k_ratio(u, audit_intervals(u, 3))
            else:
                want = almost_deficiency(u, 0.5, balls_of(built))
                got = almost_deficiency(u, 0.5, audit_intervals(u, 3))
            want_bytes = written(want, fmt, tmp_path / f"built{k}.{fmt}")
            with mock.patch.object(func1d, "BLOCK_ROWS", rows):
                assert written(got, fmt, tmp_path / f"streamed{k}.{fmt}") == want_bytes
            assert (got.supremum, got.witness, got.record_count) == (want.supremum, want.witness,
                                                                     want.record_count)

    def test_made_with_the_size_gate(self):
        u = make_diamond(0.0, 1.0)
        assert len(audit_intervals(u, 5)) == len(whole_family(u, 5))
        with pytest.raises(FamilySizeError, match="would have 64701155 rows"):
            audit_intervals(u, 16)
        with pytest.raises(ValueError, match="depth must be an integer of at least 0, got -1"):
            audit_intervals(u, -1)
        # The gate runs once per family: when it is made, not again as its blocks are.
        with mock.patch.object(func1d, "_check_family_size", wraps=func1d._check_family_size) as spy:
            family = audit_intervals(u, 5)
            quasi_k_ratio(u, family).record_count
            almost_deficiency(u, 0.5, family).record_count
        assert spy.call_count == 1

    @pytest.mark.parametrize(
        "audit", [quasi_k_ratio, omega_report, lambda u, family: almost_deficiency(u, 0.5, family)],
        ids=["quasi", "omega", "almost"],
    )
    def test_a_family_of_another_function_is_refused(self, audit):
        family = audit_intervals(make_losange(0.0, 1.0), 2)
        with pytest.raises(DomainError, match="only with the function it was made for"):
            audit(double_line(), family)

    @pytest.mark.parametrize("mode, alpha", [("quasi_k", None), ("omega", None), ("almost", 0.5)])
    def test_cells_below_the_rounding_of_the_domain_are_refused(self, mode, alpha):
        # On [1e9, 1e9 + 1e-3] a depth-12 triadic cell is 0.016 ulps of 1e9,
        # and the built family holds 753,764 rows with a >= b.  Made as it was
        # read, quasi_k skipped them silently (supremum 2.0000000284) and the
        # ball modes failed from inside the evaluation.
        u = make_diamond(1e9, 1e9 + 1e-3)
        with pytest.raises(DomainError, match=r"depth-12 family.*\[1000000000\.0, 1000000000\.001\]$"):
            func1d._audit(u, mode, audit_intervals(u, 12), alpha).supremum

    def test_ball_rows_are_clamped_to_a_domain_far_from_zero(self):
        # On [1e5, 1e5 + 7.3] eight balls of the depth-12 family had c + r = 100007.30000000002,
        # past hi, and the omega and almost audits failed from inside the evaluation.
        u = make_diamond(1e5, 1e5 + 7.3)
        lo, hi = u.domain
        shrunk = 0
        family = audit_intervals(u, 12)
        for (c, r), (a, b) in zip(map(block_ends, family.blocks("omega")), map(block_ends, family.blocks())):
            assert np.all((c - r >= lo) & (c + r <= hi) & (r > 0))
            shrunk += np.count_nonzero(r != 0.5 * (b - a))
        assert shrunk == 8
        assert quasi_k_ratio(u, audit_intervals(u, 12)).supremum == 2.000000000131061
        assert np.isfinite(omega_report(u, audit_intervals(u, 12)).supremum)
        assert np.isfinite(almost_deficiency(u, 0.5, audit_intervals(u, 12)).supremum)
        # The clamp is the standard family's: its balls unclamped, given as a family, are refused whole.
        with pytest.raises(DomainError, match="point outside domain"):
            omega_report(u, balls_of(block_columns(family.blocks())))
        audit_intervals(make_diamond(1e9, 1e9 + 1.0), 12)  # cells of 16 ulps are kept

    @pytest.mark.parametrize(
        "breakpoints, values, pair",
        [([1.0, 1.0 + 2**-52, 2.0], [0.0, 0.0, 1.0], "1.0 and 1.0000000000000002"),
         ([0.0, 5e-324, 1.0], [-1.0, -1.0, -1.0], "0.0 and 5e-324")],
        ids=["one-ulp", "subnormal"],
    )
    def test_a_ball_that_could_round_to_radius_0_is_refused(self, breakpoints, values, pair):
        # The ball of each function's first breakpoint pair had radius 0, so
        # the omega and almost audits took Dir_min = 0 / 0 ("invalid value
        # encountered in divide"); a built family of these balls was refused.
        u = PiecewiseAffineQ(breakpoints, [values])
        message = f"breakpoints {re.escape(pair)} are within 4 ulps"
        with mock.patch.object(func1d, "_evaluate", wraps=func1d._evaluate) as spy:
            for mode in ("omega", "almost"):
                with pytest.raises(EmptyIntervalError, match=message):
                    run_audit(u, mode, audit_intervals(u, 0))
                with pytest.raises(EmptyIntervalError, match=message):
                    func1d._audit(u, mode, audit_intervals(u, 0), 0.5).supremum
        assert spy.call_count == 0
        # A quasi audit reads the rows as intervals and keeps its result.
        got, want = quasi_k_ratio(u, audit_intervals(u, 0)), quasi_k_ratio(u, whole_family(u, 0))
        assert (got.record_count, got.supremum, got.witness) == (want.record_count, want.supremum, want.witness)

    @settings(max_examples=200, deadline=None)
    @given(u=crowded_functions(), depth=st.integers(0, 2), mode=st.sampled_from(["omega", "almost"]))
    def test_ball_modes_refuse_or_keep_a_positive_radius(self, u, depth, mode):
        # A RuntimeWarning (0 / 0 over a ball of radius 0) fails this through pyproject's filter.
        try:
            report = run_audit(u, mode, audit_intervals(u, depth))
        except (DomainError, EmptyIntervalError):  # the finest cell, or two breakpoints, within 4 ulps
            return
        lo, hi = u.domain
        centers, radii = record_columns(report)[:2]
        assert np.all((radii > 0) & (centers - radii >= lo) & (centers + radii <= hi))
        assert not math.isnan(report.supremum)

    @pytest.mark.parametrize("mode, fmt", [("quasi", "csv"), ("almost", "json")])
    def test_cli_audit_peak_does_not_grow_with_the_family(self, mode, fmt, tmp_path):
        # At level 6 every family has full BLOCK_ROWS blocks of breakpoint
        # pairs from depth 7 on; depth 10 adds 87,000 rows of cells.  Built
        # whole, that family raised the peak 1.50 (quasi CSV) and 1.31
        # (almost JSON) times; made as it is read, by 1.00.
        shallow = cli_audit_peak(tmp_path, mode, fmt, 6, 7)
        deep = cli_audit_peak(tmp_path, mode, fmt, 6, 10)
        assert deep < 1.1 * shallow, (deep, shallow)


class TestFamilySize:
    """A standard family is counted, and refused above MAX_FAMILY_ROWS, before any of it exists."""

    def test_cantor_levels_11_and_12_at_the_default_depth(self):
        # Level L has 3 * 2^L - 1 breakpoints.
        assert func1d._family_rows(3 * 2**11 - 1, 12) == 19_670_505 <= MAX_FAMILY_ROWS
        func1d._check_family_size(3 * 2**11 - 1, 12)
        with pytest.raises(FamilySizeError, match="would have 76284393 rows"):
            func1d._check_family_size(3 * 2**12 - 1, 12)

    def test_deep_family_refused(self):
        u = make_diamond(0.0, 1.0)
        m = u.breakpoints.size
        rows = m * (m - 1) // 2 + sum(2**d + 3**d for d in range(17))
        with pytest.raises(FamilySizeError, match=f"would have {rows} rows"):
            audit_intervals(u, depth=16)

    def test_many_breakpoints_refused(self):
        # 8193 breakpoints make 33,558,528 pairs, just over 2^25; 8192 make 33,550,336.
        u = PiecewiseAffineQ(np.arange(8193.0), np.zeros(8193))
        with pytest.raises(FamilySizeError, match="would have 33558530 rows"):
            audit_intervals(u, depth=0)
        func1d._check_family_size(8192, 0)

    def test_huge_counts_are_bounded_below(self):
        with pytest.raises(FamilySizeError, match="would have more than"):
            func1d._check_family_size(3, 10**9)

    def test_one_gate_names_what_it_counted(self):
        func1d._check_rows(MAX_FAMILY_ROWS, "the scan grid")
        with pytest.raises(FamilySizeError, match=r"^the scan grid would have 33554433 rows; at most"):
            func1d._check_rows(MAX_FAMILY_ROWS + 1, "the scan grid")


class TestAuditScaling:
    @settings(max_examples=40, deadline=None)
    @given(
        level=st.integers(1, 4),
        schedule=st.sampled_from(["ternary", "fat"]),
        scale=st.sampled_from([0.5, 3.0]) | st.floats(1e-3, 1e3),
    )
    def test_quasi_figures_invariant_under_rescaling(self, level, schedule, scale):
        # Dir(u) scales like 1/s and b - a like s, while G^2 is unchanged.
        u = cantor_level(CantorConstruction(level, "diamond", schedule))
        family = whole_family(u, depth=4)
        plain = quasi_k_ratio(u, family)
        scaled = quasi_k_ratio(PiecewiseAffineQ(u.breakpoints * scale, u.branches), family * scale)
        assert np.all(np.isfinite(plain.figure))
        np.testing.assert_allclose(scaled.figure, plain.figure, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(record_columns(scaled)[2] * scale, record_columns(plain)[2], rtol=1e-9, atol=0.0)
        assert scaled.supremum == pytest.approx(plain.supremum, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        level=st.integers(1, 4),
        schedule=st.sampled_from(["ternary", "fat"]),
        shift=st.sampled_from([-1.0, 0.5, 3.0]) | st.floats(-1e3, 1e3),
    )
    def test_quasi_figures_invariant_under_translation(self, level, schedule, shift):
        # Energies and G^2 do not see a shift of the domain.  Adding a shift t
        # rounds each end by up to |t| eps / 2, but an interval's length and
        # its energy see the same rounded ends, so a figure moves far less
        # than the relative 1e-9 allowed (400 draws moved it by <= 5.2e-12).
        u = cantor_level(CantorConstruction(level, "diamond", schedule))
        family = whole_family(u, depth=4)
        plain = quasi_k_ratio(u, family)
        moved = quasi_k_ratio(PiecewiseAffineQ(u.breakpoints + shift, u.branches), family + shift)
        assert np.all(np.isfinite(plain.figure))
        np.testing.assert_allclose(moved.figure, plain.figure, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(record_columns(moved)[0] - shift, record_columns(plain)[0], rtol=0.0,
                                   atol=1e-12 * max(1.0, abs(shift)))
        assert moved.supremum == pytest.approx(plain.supremum, rel=1e-9)


class TestDecayExponent:
    def test_double_line_slope_one(self):
        slope = energy_decay_exponent(double_line(), 0.5, 0.3, np.logspace(0, -2, 10))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_level_one_closed_form(self):
        u = cantor_level(CantorConstruction(1, "diamond"))
        # two slope-one branches on the left of 1/3, one on the right
        for s in [0.25, 0.1, 0.02]:
            assert dirichlet_energy(u, 1 / 3 - s, 1 / 3 + s) == pytest.approx(3 * s, rel=1e-12)
        slope = energy_decay_exponent(u, 1.0 / 3.0, 0.25, np.logspace(0, -2, 10))
        assert slope == pytest.approx(1.0, abs=1e-10)

    def test_one_distinct_scale_is_refused_as_a_dimension_fit_refuses_it(self):
        # np.polyfit got two equal abscissae: a RuntimeWarning, LAPACK "DLASCL" lines and LinAlgError
        u = cantor_level(CantorConstruction(3, "diamond"))
        with pytest.raises(UndefinedExponentError, match="need at least two distinct scales with positive energy"):
            energy_decay_exponent(u, 0.4, 0.05, [1.0, 1.0])

    def test_zero_energy_errors(self):
        u = make_pluri_losange([(0.6, 0.9)])
        with pytest.raises(UndefinedExponentError):
            energy_decay_exponent(u, 0.2, 0.1, [1.0, 0.5])

    @pytest.mark.parametrize("scales", [[1.0, np.nan, 0.5], [1.0, 0.0], [1.5, 0.5]])
    def test_scales_outside_unit_interval_rejected(self, scales):
        with pytest.raises(ValueError, match=r"scales must lie in \(0, 1\]"):
            energy_decay_exponent(double_line(), 0.5, 0.25, scales)

    @pytest.mark.parametrize(
        "center, r0, name", [(np.nan, 0.25, "center"), (0.5, np.nan, "r0"), (0.5, np.inf, "r0")]
    )
    def test_nonfinite_center_or_r0_rejected(self, center, r0, name):
        message = {"center": "center must be finite, got nan", "r0": rf"r0 must lie in \(0, inf\), got {r0}"}[name]
        with pytest.raises(DomainError, match=message):
            energy_decay_exponent(double_line(), center, r0, [1.0, 0.5])

    @pytest.mark.parametrize(
        "r0, message",
        [(-0.1, r"r0 must lie in \(0, inf\), got -0.1"), (0.0, r"r0 must lie in \(0, inf\), got 0.0"),
         (1e-320, "r0 = 1e-320 is too small: the ball about 0.5 rounds to a point")],
        ids=["negative", "zero", "subnormal"],
    )
    def test_r0_must_give_a_ball(self, r0, message):
        # these gave "empty interval [0.6, 0.4]" and "[0.5, 0.5]", naming no parameter
        with pytest.raises(DomainError, match=message):
            energy_decay_exponent(double_line(), 0.5, r0, [1.0, 0.5])


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        u = cantor_level(CantorConstruction(2, "diamond"))
        report = quasi_k_ratio(u, audit_intervals(u, depth=3))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        rows = path.read_text().splitlines()
        assert rows[0] == "center,radius,dir_u,dir_min,figure_of_merit"
        assert len(rows) == report.figure.size + 1
        first = [float(v) for v in rows[1].split(",")]
        columns = record_columns(report)
        assert first == pytest.approx([c[0] for c in columns])

    def test_json_schema_and_infinity(self, tmp_path):
        u = make_pluri_losange([(0.2, 0.8)])
        report = quasi_k_ratio(u, [(0.2, 0.8), (0.3, 0.7)])
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "quasi_k"
        assert payload["supremum"] == "inf"
        assert payload["witness"]["figure_of_merit"] == "inf"
        assert len(payload["records"]) == 2

    def test_deterministic_serialization(self, tmp_path):
        u = cantor_level(CantorConstruction(2, "diamond"))
        report = quasi_k_ratio(u, audit_intervals(u, depth=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        report.to_json(p1)
        quasi_k_ratio(u, audit_intervals(u, depth=4)).to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()
