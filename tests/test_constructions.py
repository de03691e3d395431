"""Tests for the example constructors and their closed forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from qvlab import constructions
from qvlab.constructions import (
    MAX_LEVEL,
    CantorConstruction,
    cantor_level,
    cantor_limit,
    fat_removed_intervals,
    fat_residual_length,
    make_diamond,
    make_losange,
    make_pluri_losange,
    omega_sin,
    sin_dir_u,
    sin_dir_v_identity,
    sin_sampled,
    sin_w_ratio,
    ternary_removed_intervals,
    SIN_HALF_WIDTH,
)
from qvlab.func1d import (
    DomainError,
    FamilySizeError,
    PiecewiseAffineQ,
    audit_intervals,
    branch_values,
    dirichlet_energy,
    minimizer_energy,
    omega_profile,
    quasi_k_ratio,
)
from qvlab.qspace import QPoint, metric_g


def kept_intervals(spec):
    """The closed intervals between a construction's removed intervals."""
    removed = spec.removed_intervals()
    return list(zip([0.0, *(iv.b for iv in removed)], [*(iv.a for iv in removed), 1.0]))


def sup_metric_distance(u, v, samples=20001):
    xs = np.linspace(0.0, 1.0, samples)
    du = branch_values(u, xs)
    dv = branch_values(v, xs)
    return float(np.sqrt(((du - dv) ** 2).sum(axis=0)).max())


class TestDiamond:
    def test_vertices(self):
        u = make_diamond(0.0, 1.0)
        assert np.allclose(branch_values(u, 0.0), [0.0, 0.0])
        assert np.allclose(branch_values(u, 1.0), [0.5, 0.5])
        assert sorted(branch_values(u, 0.5)) == [0.0, 0.5]

    def test_energy_is_length(self):
        assert dirichlet_energy(make_diamond(0.0, 1.0), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_lipschitz_constant(self):
        u = make_diamond(0.0, 1.0)
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 1, 200)
        ys = rng.uniform(0, 1, 200)
        for x, y in zip(xs, ys):
            if x == y:
                continue
            d = metric_g(QPoint(branch_values(u, x)), QPoint(branch_values(u, y)))
            assert d <= np.sqrt(2.0) * abs(x - y) * (1 + 1e-12)

    def test_degenerate_interval(self):
        with pytest.raises(DomainError):
            make_diamond(1.0, 1.0)


class TestLosange:
    def test_vertices(self):
        u = make_losange(0.0, 1.0)
        assert sorted(branch_values(u, 0.5)) == [-0.5, 0.5]
        assert np.allclose(branch_values(u, 0.0), [0.0, 0.0])
        assert np.allclose(branch_values(u, 1.0), [0.0, 0.0])

    def test_energy(self):
        assert dirichlet_energy(make_losange(0.0, 1.0), 0.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("intervals", [[(0.1, 0.5), (0.3, 0.9)], [(0.3, 0.9), (0.1, 0.5)], [(0.1, 0.9), (0.3, 0.5)]])
    def test_overlapping_intervals_are_refused(self, intervals):
        # [(0.1, 0.5), (0.3, 0.9)] gave breakpoints [0, .1, .3, .5, .6, .9, 1], not two losanges
        with pytest.raises(DomainError, match=r"losange intervals \[0\.1, .*\] and \[0\.3, .*\] overlap"):
            make_pluri_losange(intervals)

    def test_touching_intervals_are_two_losanges(self):
        u = make_pluri_losange([(0.2, 0.5), (0.5, 0.8)])
        assert u.breakpoints.tolist() == [0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0]
        assert dirichlet_energy(u, 0.0, 1.0) == pytest.approx(2 * 2.0 * 0.3, rel=1e-14)


def reference_pluri_losange(intervals):
    """The pluri-losange builder that walks the intervals one point at a
    time, keeping a point only past the last one kept."""
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    for a, b in ivs:
        if not (0.0 <= a < b <= 1.0):
            raise DomainError(f"losange interval [{a}, {b}] leaves [0.0, 1.0]")
    for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
        if not b0 <= a1:
            raise DomainError(f"losange intervals [{a0}, {b0}] and [{a1}, {b1}] overlap")
    bps = [0.0]
    lower = [0.0]
    upper = [0.0]
    for a, b in ivs:
        half = 0.5 * (b - a)
        for x, lo_v, up_v in ((a, 0.0, 0.0), (0.5 * (a + b), -half, half), (b, 0.0, 0.0)):
            if x > bps[-1]:
                bps.append(x)
                lower.append(lo_v)
                upper.append(up_v)
    if 1.0 > bps[-1]:
        bps.append(1.0)
        lower.append(0.0)
        upper.append(0.0)
    return PiecewiseAffineQ(np.array(bps), np.vstack((lower, upper)))


def built(build, intervals):
    """The bytes of the breakpoints and branches `build` makes, or the class and message of what it raises."""
    try:
        u = build(intervals)
    except ValueError as error:
        return type(error), str(error)
    return u.breakpoints.tobytes(), u.branches.tobytes()


@st.composite
def losange_intervals(draw):
    """Disjoint intervals of [0, 1] in any order, between sorted cut points
    that include 0, 1 or 1/2 at times: an interval spans two neighbouring
    cuts (touching the next one, or 0 or 1) or is one ulp wide at either
    cut, so that its midpoint rounds to one of its ends."""
    cut = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1.0 - 2**-53])
    cuts = sorted(set(draw(st.lists(cut, max_size=12))))
    ivs = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from(["none", "span", "ulp at lo", "ulp at hi"]))
        if kind == "span":
            ivs.append((lo, hi))
        elif kind == "ulp at lo":
            ivs.append((lo, float(np.nextafter(lo, 1.0))))
        elif kind == "ulp at hi":
            ivs.append((float(np.nextafter(hi, 0.0)), hi))
    return draw(st.permutations(ivs))


class TestPluriLosangeReference:
    """The vectorized pluri-losange builder makes the reference loop's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(intervals=losange_intervals())
    @example(intervals=[(0.0, 5e-324), (0.25, 0.5), (0.5, 0.75), (1.0 - 2**-53, 1.0)])
    @example(intervals=[])
    def test_random_intervals_match_the_reference(self, intervals):
        assert built(make_pluri_losange, intervals) == built(reference_pluri_losange, intervals)

    @pytest.mark.parametrize("schedule", ["ternary", "fat"])
    def test_every_level_matches_the_reference(self, schedule):
        for level in range(1, MAX_LEVEL + 1):
            intervals = [(iv.a, iv.b) for iv in CantorConstruction(level, "losange", schedule).removed_intervals()]
            got = cantor_level(CantorConstruction(level, "losange", schedule))
            assert (got.breakpoints.tobytes(), got.branches.tobytes()) == built(reference_pluri_losange, intervals)

    @pytest.mark.parametrize(
        "intervals",
        [[(0.5, 1.5)], [(-0.1, 0.2)], [(0.3, 0.3)], [(0.4, 0.2)], [(0.1, np.nan)], [(0.1, 0.5), (0.3, 0.9)],
         [(0.1, 0.9), (0.3, 0.5)], [(0.2, 0.4), (0.4, 0.6), (0.5, 0.7)]],
    )
    def test_errors_match_the_reference(self, intervals):
        got = built(make_pluri_losange, intervals)
        assert got == built(reference_pluri_losange, intervals) and got[0] is DomainError


class TestRemovalSchedules:
    def test_ternary_level_two(self):
        ivs = ternary_removed_intervals(2)
        assert [(iv.a, iv.b) for iv in ivs] == pytest.approx(
            [(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)]
        )
        assert [iv.step for iv in ivs] == [2, 1, 2]

    def test_fat_residual(self):
        ivs = fat_removed_intervals(3)
        removed = sum(iv.b - iv.a for iv in ivs)
        assert 1.0 - removed == pytest.approx(fat_residual_length(3), rel=1e-12)
        assert fat_residual_length(1) == pytest.approx(0.75)

    def test_kept_intervals_partition(self):
        spec = CantorConstruction(3, "diamond")
        kept = kept_intervals(spec)
        removed = spec.removed_intervals()
        total = sum(b - a for a, b in kept) + sum(iv.b - iv.a for iv in removed)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert len(kept) == 8


def reference_diamond_level(spec):
    """The diamond builder with one mask pass per removed interval."""
    removed = spec.removed_intervals()
    anchor = min(iv.a for iv in removed if iv.step == 1)
    bps = {0.0, 1.0}
    for iv in removed:
        bps.update((iv.a, 0.5 * (iv.a + iv.b), iv.b))
    bps = np.array(sorted(bps))
    mids = 0.5 * (bps[:-1] + bps[1:])
    lower_slope = np.ones(mids.size)
    upper_slope = np.ones(mids.size)
    for iv in removed:
        mid = 0.5 * (iv.a + iv.b)
        lower_slope[(mids > iv.a) & (mids < mid)] = 0.0
        upper_slope[(mids >= mid) & (mids < iv.b)] = 0.0
    seg = np.diff(bps)
    lower = np.concatenate(([0.0], np.cumsum(lower_slope * seg)))
    upper = np.concatenate(([0.0], np.cumsum(upper_slope * seg)))
    k = int(np.searchsorted(bps, anchor))
    lower -= lower[k]
    upper -= upper[k]
    return PiecewiseAffineQ(bps, np.vstack((np.minimum(lower, upper), np.maximum(lower, upper))))


class TestCantorLevelBound:
    def test_levels_outside_the_bound_are_refused(self):
        message = rf"level must lie in \[1, MAX_LEVEL = {MAX_LEVEL}\]"
        for build in (
            lambda: CantorConstruction(MAX_LEVEL + 1, "diamond"),
            lambda: ternary_removed_intervals(MAX_LEVEL + 1),
            lambda: fat_removed_intervals(40),
            lambda: CantorConstruction(0, "losange", "fat"),
            lambda: ternary_removed_intervals(0),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_cantor_breakpoint_count(self):
        # Every flavor and schedule has 3 * 2^L - 1 breakpoints up to the bound.
        assert MAX_LEVEL == 17
        for level in [1, 2, 3, 4, 5, MAX_LEVEL]:
            for flavor in ("diamond", "losange"):
                for schedule in ("ternary", "fat"):
                    u = cantor_level(CantorConstruction(level, flavor, schedule))
                    assert u.breakpoints.size == 3 * 2**level - 1

    @pytest.mark.parametrize("schedule", ["ternary", "fat"])
    def test_diamond_matches_the_reference_builder(self, schedule):
        for level in range(1, 13):
            spec = CantorConstruction(level, "diamond", schedule)
            got = constructions._diamond_level(spec)
            want = reference_diamond_level(spec)
            assert np.array_equal(got.breakpoints.view(np.uint64), want.breakpoints.view(np.uint64))
            assert np.array_equal(got.branches.view(np.uint64), want.branches.view(np.uint64))


class TestCantorDiamond:
    def test_level_one_shape(self):
        u = cantor_level(CantorConstruction(1, "diamond"))
        assert np.allclose(branch_values(u, 1.0 / 3.0), [0.0, 0.0])
        assert np.allclose(branch_values(u, 0.0), [-1 / 3, -1 / 3], atol=1e-15)
        assert np.allclose(branch_values(u, 1.0), [0.5, 0.5], atol=1e-15)
        assert sorted(branch_values(u, 0.5)) == pytest.approx([0.0, 1.0 / 6.0])

    def test_level_two_diamond_placement(self):
        u = cantor_level(CantorConstruction(2, "diamond"))
        # separation is positive exactly above the removed intervals
        for mid in (1.0 / 6.0, 0.5, 5.0 / 6.0):
            v = np.sort(branch_values(u, mid))
            assert v[1] - v[0] > 0.05
        for x in (0.05, 0.25, 0.7, 0.95):
            v = np.sort(branch_values(u, x))
            assert v[1] - v[0] <= 1e-12

    @pytest.mark.parametrize("level", [1, 2, 3, 5])
    def test_branch_lipschitz_constants_are_one(self, level):
        u = cantor_level(CantorConstruction(level, "diamond"))
        slopes = u.slopes()
        assert np.max(np.abs(slopes)) <= 1.0 + 1e-12
        assert np.max(np.abs(slopes[0])) == pytest.approx(1.0)
        assert np.max(np.abs(slopes[1])) == pytest.approx(1.0)

    def test_collision_set_is_kept_set(self):
        spec = CantorConstruction(3, "diamond")
        u = cantor_level(spec)
        gaps = np.diff(u.branches, axis=0).ravel()
        kept = kept_intervals(spec)
        for x, gap in zip(u.breakpoints, gaps):
            in_kept = any(a - 1e-12 <= x <= b + 1e-12 for a, b in kept)
            if gap > 1e-12:
                assert not in_kept
        # midpoints of removed intervals separate by half the removed length
        for iv in spec.removed_intervals():
            v = np.sort(branch_values(u, 0.5 * (iv.a + iv.b)))
            assert v[1] - v[0] == pytest.approx(0.5 * (iv.b - iv.a), rel=1e-12)

    def test_gap_persists_at_later_levels(self):
        # refinement shifts both branches equally, so separations above
        # already-removed intervals never change
        early = CantorConstruction(2, "diamond")
        u2 = cantor_level(early)
        u5 = cantor_level(CantorConstruction(5, "diamond"))
        for iv in early.removed_intervals():
            mid = 0.5 * (iv.a + iv.b)
            g2 = np.diff(np.sort(branch_values(u2, mid)))[0]
            g5 = np.diff(np.sort(branch_values(u5, mid)))[0]
            assert g5 == pytest.approx(g2, rel=1e-12)

    def test_refinement_drifts_values_beyond_touched_intervals(self):
        # adding a diamond above [a, b] lowers every later value by (b-a)/2,
        # so consecutive levels drift by exactly 2^(L-2) 3^-(L+1) at x = 1
        for level in (1, 2, 3, 4, 5):
            u = cantor_level(CantorConstruction(level, "diamond"))
            v = cantor_level(CantorConstruction(level + 1, "diamond"))
            drift = abs(branch_values(u, 1.0)[0] - branch_values(v, 1.0)[0])
            assert drift == pytest.approx(2.0 ** (level - 2) * 3.0 ** -(level + 1), rel=1e-12)
        # consequence: for level >= 4 consecutive levels are farther apart
        # than 3^-level in the uniform metric
        u4 = cantor_level(CantorConstruction(4, "diamond"))
        u5 = cantor_level(CantorConstruction(5, "diamond"))
        assert sup_metric_distance(u4, u5) > 3.0**-4

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_quasi_factor_bounded(self, level):
        u = cantor_level(CantorConstruction(level, "diamond"))
        assert quasi_k_ratio(u, audit_intervals(u, depth=7)).supremum <= 4.0 + 1e-9


class TestCantorLosange:
    def test_level_two_placement(self):
        u = cantor_level(CantorConstruction(2, "losange"))
        for x in (0.05, 0.27, 0.95):
            assert np.allclose(branch_values(u, x), [0.0, 0.0], atol=1e-15)
        v = np.sort(branch_values(u, 0.5))
        assert v == pytest.approx([-1.0 / 6.0, 1.0 / 6.0])

    def test_refinement_is_local(self):
        # losanges are value-neutral: levels agree off the newly removed part
        u2 = cantor_level(CantorConstruction(2, "losange"))
        u3 = cantor_level(CantorConstruction(3, "losange"))
        new = [iv for iv in CantorConstruction(3, "losange").removed_intervals() if iv.step == 3]
        xs = np.linspace(0, 1, 4001)
        inside_new = np.zeros_like(xs, dtype=bool)
        for iv in new:
            inside_new |= (xs > iv.a) & (xs < iv.b)
        d2 = branch_values(u2, xs)
        d3 = branch_values(u3, xs)
        diff = np.abs(d3 - d2).max(axis=0)
        assert np.all(diff[~inside_new] <= 1e-15)
        assert diff[inside_new].max() <= 0.5 * 3.0**-3 * (1 + 1e-12)
        # exactly half the removed length at a new losange midpoint
        mid = 0.5 * (new[0].a + new[0].b)
        peak = np.abs(branch_values(u3, mid) - branch_values(u2, mid)).max()
        assert peak == pytest.approx(0.5 * 3.0**-3, rel=1e-12)


class TestCantorLimit:
    @pytest.mark.parametrize("flavor", ["diamond", "losange"])
    def test_bound_dominates_later_levels(self, flavor):
        for cap in (1, 2, 3, 4):
            approx, bound = cantor_limit(flavor, cap)
            deep = cantor_level(CantorConstruction(cap + 5, flavor))
            assert sup_metric_distance(approx, deep) <= bound

    def test_bounds_decrease_geometrically(self):
        for flavor, ratio in (("diamond", 2.0 / 3.0), ("losange", 1.0 / 3.0)):
            bounds = [cantor_limit(flavor, cap).error_bound for cap in range(1, 8)]
            assert np.allclose(np.diff(np.log(bounds)), np.log(ratio))

    def test_collapsed_on_kept_set(self):
        approx, _ = cantor_limit("diamond", 6)
        spec = CantorConstruction(6, "diamond")
        for a, b in kept_intervals(spec)[:16]:
            v = np.sort(branch_values(approx, 0.5 * (a + b)))
            assert v[1] - v[0] <= 1e-12


class TestSinClosedForms:
    def test_omega_reference_value(self):
        # frozen from an extended-precision evaluation of r^2/sin^2 r - 1
        assert omega_sin(0.1) == pytest.approx(3.3400105968446607e-3, abs=1e-12)

    def test_sin_branch_energy_against_quadrature(self):
        for x, r in [(0.0, 0.3), (0.2, 0.1), (-0.4, 0.25)]:
            expected, _ = quad(lambda s: np.cos(s) ** 2, x - r, x + r, epsabs=1e-13)
            got = sin_dir_u(x, r) - 2 * r  # remove the identity branch
            assert got == pytest.approx(expected, abs=1e-10)

    def test_identity_line_energy_formula(self):
        x, r = 0.1, 0.2
        slope_id = 1.0
        slope_sin = (np.sin(x + r) - np.sin(x - r)) / (2 * r)
        manual = (slope_id**2 + slope_sin**2) * 2 * r
        assert sin_dir_v_identity(x, r) == pytest.approx(manual, rel=1e-12)

    def test_normalized_ratio_below_one(self):
        rng = np.random.default_rng(6)
        worst = -np.inf
        for _ in range(2000):
            x = rng.uniform(-SIN_HALF_WIDTH, SIN_HALF_WIDTH)
            r = rng.uniform(1e-4, SIN_HALF_WIDTH - abs(x) - 1e-12)
            if r <= 0:
                continue
            worst = max(worst, sin_w_ratio(x, r) * np.sin(r) ** 2 / r**2)
        assert worst <= 1.0 + 1e-12

    def test_omega_monotone_to_zero(self):
        rs = np.linspace(1.0, 1e-5, 400)
        vals = [omega_sin(float(r)) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-9

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            sin_dir_u(0.7, 0.2)
        with pytest.raises(DomainError):
            omega_sin(0.0)

    @pytest.mark.parametrize("r", [math.pi, 4.0])
    def test_omega_refused_from_pi_on(self, r):
        # sin vanishes at pi: this gave 6.6e32 at pi and 26.9 at 4.0
        with pytest.raises(DomainError, match=r"radius must lie in \(0, 3\.141592653589793\)"):
            omega_sin(r)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sin_dir_u(0.0, float("nan")),
            lambda: sin_dir_u(float("nan"), 0.1),
            lambda: sin_dir_v_identity(float("inf"), 0.1),
            lambda: sin_w_ratio(float("nan"), 0.1),
            lambda: sin_w_ratio(0.0, float("inf")),
            lambda: omega_sin(float("nan")),
            lambda: omega_sin(float("inf")),
        ],
        ids=["dir_u-nan-r", "dir_u-nan-x", "dir_v-inf-x", "w_ratio-nan-x", "w_ratio-inf-r", "omega-nan", "omega-inf"],
    )
    def test_nonfinite_ball_is_refused(self, call):
        # NaN passed the `r <= 0` and `x - r <= -W` tests and gave nan; omega_sin(inf) hit a math domain error
        with pytest.raises(DomainError):
            call()


class TestSinSampled:
    def test_huge_grid_refused_before_it_exists(self):
        with pytest.raises(FamilySizeError, match="the sine sample grid would have 1000000000000 rows"):
            sin_sampled(10**12)

    def test_origin_double_point(self):
        u = sin_sampled(4097)
        assert np.allclose(branch_values(u, 0.0), [0.0, 0.0], atol=1e-15)

    def test_branch_identification(self):
        u = sin_sampled(4097)
        x = 0.5
        v = np.sort(branch_values(u, x))
        assert v[0] == pytest.approx(np.sin(x), abs=1e-7)
        assert v[1] == pytest.approx(x, abs=1e-12)
        x = -0.5
        v = np.sort(branch_values(u, x))
        assert v[0] == pytest.approx(x, abs=1e-12)
        assert v[1] == pytest.approx(np.sin(x), abs=1e-7)

    def test_empirical_excess_vs_closed_form(self):
        # the sorted minimizer audit stays below the closed-form profile
        u = sin_sampled(4097)
        r = 0.1
        centers = np.linspace(-SIN_HALF_WIDTH + r + 1e-6, SIN_HALF_WIDTH - r - 1e-6, 801)
        sup = omega_profile(u, [r], centers)[r]
        assert sup <= omega_sin(r) * (1 + 1e-3)
        assert sup >= 0.15 * omega_sin(r)  # same order, not degenerate

    def test_sorted_beats_identity_matching_at_origin(self):
        # crossing branches: the sorted pairing is strictly cheaper, by
        # (r - sin r)^2 / r for balls centered at the origin
        r = 0.3
        a = QPoint.of(-r, np.sin(-r))
        b = QPoint.of(r, np.sin(r))
        sorted_energy = minimizer_energy(a, b, -r, r)
        identity_energy = sin_dir_v_identity(0.0, r)
        gap = identity_energy - sorted_energy
        assert gap > 0
        assert gap == pytest.approx((r - np.sin(r)) ** 2 / r, rel=1e-10)

    def test_pair_energy_matches_sampled_function(self):
        u = sin_sampled(8193)
        x, r = 0.15, 0.2
        assert dirichlet_energy(u, x - r, x + r) == pytest.approx(sin_dir_u(x, r), rel=1e-6)
