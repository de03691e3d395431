"""Tests for exact energies, interval minimizers, and the minimality audits."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qvlab import func1d

from qvlab.constructions import cantor_level, CantorConstruction, make_diamond, make_double_line, make_losange, make_pluri_losange
from qvlab.func1d import (
    MAX_FAMILY_ROWS,
    DomainError,
    EmptyIntervalError,
    FamilySizeError,
    PiecewiseAffineQ,
    StepWeight,
    UndefinedExponentError,
    UnsupportedCodimensionError,
    almost_deficiency,
    audit_intervals,
    balls_from_intervals,
    branch_values,
    dirichlet_energy,
    energy_between,
    energy_decay_exponent,
    evaluate,
    exact_minimizer,
    matching_distance_sq,
    minimizer_energy,
    omega_profile,
    omega_report,
    quasi_k_ratio,
    rescale_domain,
)
from qvlab.qspace import QPoint, metric_g


def double_line():
    return make_double_line(0.0, 1.0)


class TestEvaluation:
    def test_affine_interpolation(self):
        u = PiecewiseAffineQ([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        v = evaluate(u, 0.5)
        assert np.allclose(v.points, [[0.5], [0.5]])

    def test_diamond_midpoint(self):
        u = make_diamond(0.0, 1.0, 0.0)
        v = evaluate(u, 0.5)
        assert sorted(v.points[:, 0]) == [0.0, 0.5]

    def test_breakpoint_values_exact(self):
        u = make_diamond(0.25, 0.75, 0.5)
        for x in u.breakpoints:
            cols = branch_values(u, float(x))
            j = int(np.searchsorted(u.breakpoints, x))
            assert np.array_equal(cols, u.branches[:, j])

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            evaluate(double_line(), 1.5)

    def test_unsorted_branches_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseAffineQ([0.0, 1.0], [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "breakpoints, branches, total",
        [
            ([0.0, 1.0], [[-1e308, 1e308]], "branch spread"),
            ([0.0, 1e-320], [[0.0, 1.0]], "Dirichlet energy"),
            ([-1e308, 0.0, 1e308], [[0.0, 0.0, 1.0]], "domain length"),
        ],
        ids=["spread", "energy", "length"],
    )
    def test_overflowing_function_refused(self, breakpoints, branches, total):
        # Each was accepted: its quasi audit met inf/inf or inf * 0 = NaN
        # figures (an IndexError from the witness search), or its energy was inf.
        with pytest.raises(ValueError, match=f"the {total} .*of the function overflows"):
            PiecewiseAffineQ(breakpoints, branches)

    def test_rescale_to_an_overflowing_energy_refused(self):
        # the subnormal domain used to get energy inf
        with pytest.raises(ValueError, match="the Dirichlet energy of the function overflows"):
            rescale_domain(make_diamond(0.0, 1.0), 1e-320)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u: branch_values(u, np.nan),
            lambda u: matching_distance_sq(u, [np.nan], [0.5]),
            lambda u: dirichlet_energy(u, np.nan, 1.0),
            lambda u: dirichlet_energy(u, np.nan, 1.0, StepWeight([0.0, 0.5, 1.0], [1.0, 2.0])),
        ],
        ids=["branch_values", "matching_distance_sq", "dirichlet_energy", "dirichlet_energy-weighted"],
    )
    def test_nan_point_is_outside_the_domain(self, call):
        # NaN fails lo <= x <= hi; it used to pass as inside and give nan (or 0.0 weighted)
        with pytest.raises(DomainError, match=r"point outside domain \[0.0, 1.0\]"):
            call(make_diamond(0.0, 1.0))


class TestDirichletEnergy:
    def test_double_line(self):
        assert dirichlet_energy(double_line(), 0.2, 0.9) == pytest.approx(2 * 0.7, rel=1e-14)

    def test_diamond_on_middle_third(self):
        u = make_diamond(1.0 / 3.0, 2.0 / 3.0, 0.0)
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

    def test_scaling_covariance(self):
        u = cantor_level(CantorConstruction(3, "diamond"))
        lam = 2.5
        v = rescale_domain(u, lam)
        assert dirichlet_energy(v, 0.0, lam) == pytest.approx(dirichlet_energy(u, 0.0, 1.0) / lam, rel=1e-12)
        ru = quasi_k_ratio(u, [(0.2, 0.8)]).supremum
        rv = quasi_k_ratio(v, [(0.2 * lam, 0.8 * lam)]).supremum
        assert rv == pytest.approx(ru, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.0, np.nan, np.inf])
    def test_rescale_needs_positive_finite_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            rescale_domain(double_line(), scale)


class TestWeightedEnergy:
    def test_matches_manual_sum(self):
        u = make_diamond(0.0, 1.0, 0.0)
        w = StepWeight([0.0, 0.25, 1.0], [3.0, 0.5])
        # |slopes|^2 is identically 1 on the diamond
        assert dirichlet_energy(u, 0.0, 1.0, weight=w) == pytest.approx(3.0 * 0.25 + 0.5 * 0.75, rel=1e-14)

    def test_bounded_weight_bounds_the_ratio(self):
        # weighted energy against the unweighted minimizer inflates the
        # quasiminimality factor by at most max(a)/min(a)
        u = cantor_level(CantorConstruction(2, "diamond"))
        w = StepWeight([0.0, 0.4, 1.0], [2.0, 0.5])
        hi, lo = 2.0, 0.5
        for a, b in [(0.1, 0.9), (1 / 3, 2 / 3), (0.05, 0.6)]:
            ju = dirichlet_energy(u, a, b, weight=w)
            base = quasi_k_ratio(u, [(a, b)]).supremum
            jmin = lo * matching_distance_sq(u, a, b) / (b - a)
            assert ju <= (hi / lo) * base * jmin * (1 + 1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            StepWeight([0.0, 1.0], [0.0])

    @pytest.mark.parametrize("knots, values", [([0.0, 1.0], [np.inf]), ([0.0, np.inf], [1.0]), ([0.0, 1.0], [np.nan])])
    def test_weight_must_be_finite(self, knots, values):
        # an infinite value gave Dir = inf, or NaN on a flat function
        with pytest.raises(ValueError, match="weight knots and values must be finite"):
            StepWeight(knots, values)

    def test_weight_must_cover_the_interval(self):
        # the weight used to be stretched past its knots: 2.0 over [0.1, 0.9] gave 1.6
        u = make_diamond(0.0, 1.0)
        with pytest.raises(DomainError, match=r"the weight's knots \[0.4, 0.6\] do not cover \[0.1, 0.9\]"):
            dirichlet_energy(u, 0.1, 0.9, StepWeight([0.4, 0.6], [2.0]))
        assert dirichlet_energy(u, 0.4, 0.6, StepWeight([0.4, 0.6], [2.0])) == pytest.approx(0.4, rel=1e-14)


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
            (QPoint.of(0.0), QPoint.of(1.0), 1.0, 1.0, EmptyIntervalError, "empty interval"),
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
    @given(
        q=st.integers(1, 4),
        a=st.floats(-5.0, 5.0),
        length=st.floats(0.1, 5.0),
        data=st.data(),
    )
    def test_exact_minimizer_never_beaten(self, q, a, length, data):
        b = a + length
        ends = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * q, max_size=2 * q))
        qa, qb = QPoint.of(*ends[:q]), QPoint.of(*ends[q:])
        fractions = data.draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True))
        xs = a + length * np.sort(fractions)
        kicks = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=q * xs.size, max_size=q * xs.size))
        # The minimizer at interior nodes, pushed off, with the same boundary tuples.
        interior = branch_values(exact_minimizer(qa, qb, a, b), xs) + np.reshape(kicks, (q, xs.size))
        nodes = np.concatenate(([a], xs, [b]))
        assume(np.all(np.diff(nodes) > 0))
        columns = np.column_stack((qa.sorted_values(), np.sort(interior, axis=0), qb.sorted_values()))
        competitor = PiecewiseAffineQ(nodes, columns)
        emin = minimizer_energy(qa, qb, a, b)
        assert dirichlet_energy(competitor, a, b) >= emin * (1 - 1e-12)


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
        fam = audit_intervals(u, depth=8)
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
        with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
            audit_intervals(double_line(), depth=-1)

    def test_balls_from_intervals(self):
        balls = balls_from_intervals([(0.0, 1.0), (0.25, 0.5)])
        assert balls.tolist() == [[0.5, 0.5], [0.375, 0.125]]
        assert balls_from_intervals([]).shape == (0, 2)


def whole_family(u, depth):
    """The standard family built in one piece: every breakpoint pair, then
    each dyadic and each triadic level of the domain."""
    lo, hi = u.domain
    i, j = np.triu_indices(u.breakpoints.size, k=1)
    parts = [np.column_stack((u.breakpoints[i], u.breakpoints[j]))]
    for base in (2, 3):
        for d in range(depth + 1):
            edges = lo + (hi - lo) * np.arange(base**d + 1) / base**d
            parts.append(np.column_stack((edges[:-1], edges[1:])))
    return np.concatenate(parts)


def whole_family_audit(u, mode, family, alpha=0.5):
    """Each audit's formulas in one pass over the whole family: the columns,
    then the supremum and the witness (ties go to the smallest (a, b))."""
    first, second = np.asarray(family, dtype=float).T
    a, b = (first, second) if mode == "quasi_k" else (first - second, first + second)
    dir_u = energy_between(u, a, b)
    gsq = matching_distance_sq(u, a, b)
    if mode == "quasi_k":
        keep = ~((gsq == 0.0) & (dir_u == 0.0))
        a, b, dir_u, gsq = a[keep], b[keep], dir_u[keep], gsq[keep]
        with np.errstate(divide="ignore"):
            figure = np.where(gsq > 0.0, (b - a) * dir_u / np.where(gsq > 0.0, gsq, 1.0), np.inf)
        columns = (0.5 * (a + b), 0.5 * (b - a), dir_u, np.where(gsq > 0.0, gsq / (b - a), 0.0), figure)
    else:
        x, r = first, second
        dir_min = gsq / (2.0 * r)
        if mode == "omega":
            keep = ~((dir_min == 0.0) & (dir_u == 0.0))
            x, r, dir_u, dir_min = x[keep], r[keep], dir_u[keep], dir_min[keep]
            with np.errstate(divide="ignore"):
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


def mode_family(mode, intervals):
    """quasi_k reads intervals, omega and almost read balls."""
    return intervals if mode == "quasi_k" else balls_from_intervals(intervals)


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
        (diamond, audit_intervals(diamond, depth=3)),
        (losange, audit_intervals(losange, depth=3)),
    ]


class TestFamilyBlocks:
    """One block evaluator: block sizes change no column, supremum or witness."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_blocks_concatenate_to_the_whole_family(self, rows):
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            for level in range(1, 6):
                u = cantor_level(CantorConstruction(level, "diamond"))
                for depth in range(7):
                    blocks = list(func1d._family_blocks(u, depth))
                    assert max(a.size for a, _ in blocks) <= rows
                    got = np.column_stack([np.concatenate(column) for column in zip(*blocks)])
                    want = whole_family(u, depth)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                    assert np.array_equal(audit_intervals(u, depth).view(np.uint64), want.view(np.uint64))
                    assert len(want) == func1d._family_rows(u.breakpoints.size, depth)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("mode", ["quasi_k", "omega", "almost"])
    def test_blocked_report_matches_whole_family_audit(self, mode, rows):
        for u, intervals in audit_families():
            family = mode_family(mode, intervals)
            want_columns, want_sup, want_witness = whole_family_audit(u, mode, family)
            with mock.patch.object(func1d, "BLOCK_ROWS", rows):
                report = run_audit(u, mode, family)
            got_columns = (report.centers, report.radii, report.dir_u, report.dir_min, report.figure)
            for got, want in zip(got_columns, want_columns):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert report.supremum == want_sup
            assert (report.witness and tuple(report.witness)) == want_witness

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
            supremum, witness = func1d._supremum(blocks)
            assert supremum == want_sup
            assert (witness and tuple(witness)) == want_witness
        assert func1d._supremum([]) == (0.0, None)

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
        quasi = quasi_k_ratio(diamond, audit_intervals(diamond, depth=5)).supremum
        almost = almost_deficiency(losange, 0.5, balls_from_intervals(audit_intervals(losange, depth=5))).supremum
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            assert func1d._audit_supremum(diamond, "quasi_k", depth=5) == quasi
            assert func1d._audit_supremum(losange, "almost", depth=5, alpha=0.5) == almost

    @pytest.mark.parametrize("mode", ["quasi_k", "omega"])
    def test_supremum_of_a_family_with_no_kept_record_is_zero(self, mode):
        # A constant function makes every row 0/0, so quasi_k and omega keep none.
        flat = PiecewiseAffineQ([0.0, 0.5, 1.0], [[1.0, 1.0, 1.0]])
        report = run_audit(flat, mode, mode_family(mode, audit_intervals(flat, depth=4)))
        assert report.figure.size == 0 and report.supremum == 0.0
        with mock.patch.object(func1d, "BLOCK_ROWS", 3):
            assert func1d._audit_supremum(flat, mode, depth=4) == 0.0

    def test_energy_prefix_built_once_per_audit(self):
        u, intervals = audit_families()[0]
        prefix = PiecewiseAffineQ.energy_prefix
        with mock.patch.object(func1d, "BLOCK_ROWS", 2):
            for call in (
                lambda: quasi_k_ratio(u, intervals),
                lambda: omega_report(u, balls_from_intervals(intervals)),
                lambda: almost_deficiency(u, 0.5, balls_from_intervals(intervals)),
                lambda: func1d._audit_supremum(u, "quasi_k", depth=3),
            ):
                with mock.patch.object(PiecewiseAffineQ, "energy_prefix", autospec=True, side_effect=prefix) as spy:
                    call()
                assert spy.call_count == 1

    def test_last_edge_stays_in_the_domain(self):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, past the end of [0, 0.1]
        u = make_diamond(0.0, 0.1)
        family = audit_intervals(u, depth=1)
        assert family.max() == 0.1
        assert quasi_k_ratio(u, family).supremum == func1d._audit_supremum(u, "quasi_k", depth=1)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), depth=st.integers(0, 8))
    @example(lo=0.0, width=0.1, depth=1)
    @example(lo=0.0, width=1.0, depth=12)  # the acceptance criteria's family
    def test_family_ends_lie_in_the_domain(self, lo, width, depth):
        u = make_double_line(lo, lo + width)
        lo, hi = u.domain
        a, b = audit_intervals(u, depth).T
        assert np.all((lo <= a) & (a < b) & (b <= hi))

    def test_level_8_supremum_holds_no_family(self):
        # numpy reports its buffers to tracemalloc.  The level-8 family has
        # 1.1M rows; building it whole for the report peaks near 100 MB.
        u = cantor_level(CantorConstruction(8, "diamond"))
        tracemalloc.start()
        try:
            supremum = func1d._audit_supremum(u, "quasi_k")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert supremum <= 4.0 + 1e-9
        assert peak < 16 * 2**20


class TestFamilySize:
    """A standard family is counted, and refused above MAX_FAMILY_ROWS, before any of it exists."""

    def test_cantor_levels_11_and_12_at_the_default_depth(self):
        # Level L has 3 * 2^L - 1 breakpoints.
        assert func1d._family_rows(3 * 2**11 - 1, 12) == 19_670_505 <= MAX_FAMILY_ROWS
        func1d._check_family_size(3 * 2**11 - 1, 12)
        with pytest.raises(FamilySizeError, match="would have 76284393 rows"):
            func1d._check_family_size(3 * 2**12 - 1, 12)

    def test_deep_family_refused(self):
        u = make_diamond(0.0, 1.0, 0.0)
        m = u.breakpoints.size
        rows = m * (m - 1) // 2 + sum(2**d + 3**d for d in range(17))
        with pytest.raises(FamilySizeError, match=f"would have {rows} rows"):
            audit_intervals(u, depth=16)
        with pytest.raises(FamilySizeError, match=f"would have {rows} rows"):
            next(func1d._family_blocks(u, 16))

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
        family = audit_intervals(u, depth=4)
        plain = quasi_k_ratio(u, family)
        scaled = quasi_k_ratio(rescale_domain(u, scale), family * scale)
        assert np.all(np.isfinite(plain.figure))
        np.testing.assert_allclose(scaled.figure, plain.figure, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(scaled.dir_u * scale, plain.dir_u, rtol=1e-9, atol=0.0)
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
        family = audit_intervals(u, depth=4)
        plain = quasi_k_ratio(u, family)
        moved = quasi_k_ratio(PiecewiseAffineQ(u.breakpoints + shift, u.branches), family + shift)
        assert np.all(np.isfinite(plain.figure))
        np.testing.assert_allclose(moved.figure, plain.figure, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(moved.centers - shift, plain.centers, rtol=0.0, atol=1e-12 * max(1.0, abs(shift)))
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
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            energy_decay_exponent(double_line(), center, r0, [1.0, 0.5])

    @pytest.mark.parametrize(
        "r0, message",
        [(-0.1, "r0 must be positive, got -0.1"), (0.0, "r0 must be positive, got 0.0"),
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
        columns = (report.centers, report.radii, report.dir_u, report.dir_min, report.figure)
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
