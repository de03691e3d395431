"""Tests for exact energies, interval minimizers, and the minimality audits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvlab.constructions import cantor_level, CantorConstruction, make_diamond, make_double_line, make_losange, make_pluri_losange
from qvlab.func1d import (
    DomainError,
    EmptyIntervalError,
    PiecewiseAffineQ,
    StepWeight,
    UndefinedExponentError,
    UnsupportedCodimensionError,
    almost_deficiency,
    audit_intervals,
    balls_from_intervals,
    branch_values,
    dirichlet_energy,
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

    def test_balls_from_intervals(self):
        balls = balls_from_intervals([(0.0, 1.0), (0.25, 0.5)])
        assert balls.tolist() == [[0.5, 0.5], [0.375, 0.125]]
        assert balls_from_intervals([]).shape == (0, 2)


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
        rec = next(report.rows())
        assert first == pytest.approx([rec.center, rec.radius, rec.dir_u, rec.dir_min, rec.figure_of_merit])

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
