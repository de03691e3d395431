"""Tests for branch-set scanning, box dimension, and measure at scale."""

import warnings
from unittest import mock

import numpy as np
import pytest

from qvlab import cli, func1d
from qvlab.branch import (
    UndefinedDimensionError,
    box_counts,
    box_dimension,
    dimension_report,
    measure_at_scale,
    scan,
)
from qvlab.constructions import (
    CantorConstruction,
    cantor_level,
    cantor_limit,
    fat_residual_length,
    make_double_line,
    sin_sampled,
)
from qvlab.func1d import FamilySizeError, PiecewiseAffineQ


def kept_intervals(spec):
    """The closed intervals between a construction's removed intervals."""
    removed = spec.removed_intervals()
    return list(zip([0.0, *(iv.b for iv in removed)], [*(iv.a for iv in removed), 1.0]))


class TestScan:
    def test_double_line_has_no_flags(self):
        sc = scan(make_double_line(0.0, 1.0), 101)
        assert np.all(sc.sigma == 1)
        assert not sc.flags.any()

    def test_sin_flags_hug_the_origin(self):
        u = sin_sampled(4097)
        for grid in (401, 1601):
            sc = scan(u, grid)
            flagged = sc.flagged_points()
            assert flagged.size > 0
            assert np.abs(flagged).max() < 0.02

    def test_sin_flag_zone_shrinks_with_grid(self):
        u = sin_sampled(4097)
        spans = []
        for grid in (201, 801, 3201):
            flagged = scan(u, grid).flagged_points()
            spans.append(np.abs(flagged).max())
        assert spans[2] <= spans[0] + 1e-12

    def test_collision_set_matches_construction(self):
        level = 6
        spec = CantorConstruction(level, "diamond")
        u = cantor_level(spec)
        sc = scan(u, 3**level + 1)
        cell = 3.0**-level
        kept = kept_intervals(spec)
        collapsed = sc.sigma == 1
        for x, hit in zip(sc.grid, collapsed):
            dist = min(max(a - x, 0.0, x - b) for a, b in kept)
            if hit:
                assert dist <= cell + 1e-12
            else:
                assert dist > 0

    def test_limit_flags_near_kept_set(self):
        approx, _ = cantor_limit("diamond", 7)
        spec = CantorConstruction(7, "diamond")
        sc = scan(approx, 3**7 + 1)
        cell = 3.0**-7
        kept = kept_intervals(spec)
        for x in sc.flagged_points():
            dist = min(max(a - x, 0.0, x - b) for a, b in kept)
            assert dist <= cell + 1e-12
        # every interior kept grid point is flagged: removed material sits
        # within one cell.  The domain endpoints see none inside their window.
        collapsed = sc.sigma == 1
        assert np.all(sc.flags[1:-1][collapsed[1:-1]])

    def test_grid_refinement_moves_flags_by_at_most_one_cell(self):
        u = cantor_level(CantorConstruction(5, "diamond"))
        coarse = scan(u, 3**5 + 1)
        fine = scan(u, 3**6 + 1)
        cell = 3.0**-5
        coarse_pts = coarse.flagged_points()
        for x in fine.flagged_points():
            assert np.abs(coarse_pts - x).min() <= cell + 1e-12

    def test_translation_invariance(self):
        u = cantor_level(CantorConstruction(3, "diamond"))
        shifted = PiecewiseAffineQ(u.breakpoints, u.branches + 7.25)
        a = scan(u, 244)
        b = scan(shifted, 244)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4096])
    def test_blocked_sigma_matches_the_whole_table(self, rows):
        # sigma is filled BLOCK_ROWS grid points at a time; the whole (Q, grid) table gives the same.
        u = cantor_level(CantorConstruction(4, "diamond"))
        whole = 1 + (np.diff(func1d.branch_values(u, np.linspace(0.0, 1.0, 3**5 + 1)), axis=0) > 1e-9).sum(axis=0)
        with mock.patch.object(func1d, "BLOCK_ROWS", rows):
            sc = scan(u, 3**5 + 1, 1e-9)
        assert sc.sigma.dtype == whole.dtype
        assert np.array_equal(sc.sigma, whole)
        assert np.array_equal(sc.flags, scan(u, 3**5 + 1, 1e-9).flags)

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            scan(make_double_line(0.0, 1.0), 2)

    def test_huge_grid_refused_before_it_exists(self):
        with pytest.raises(FamilySizeError, match="the scan grid would have 1000000000000 rows"):
            scan(make_double_line(0.0, 1.0), 10**12)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            scan(sin_sampled(257), 101, tol=float("nan"))

    def test_infinite_tol_rejected(self):
        # at tol = inf every point merged into one support value
        with pytest.raises(ValueError, match=r"tol must lie in \[0, inf\), got inf"):
            scan(make_double_line(0.0, 1.0), 11, tol=float("inf"))

    def test_csv_export(self, tmp_path):
        # the scan CSV layout is the CLI's: x, sigma and an integer flag per grid point
        path = tmp_path / "scan.csv"
        assert cli.main(["branch", "sin", "--samples", "257", "--grid", "101", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,sigma,flagged"
        assert len(lines) == 102


class TestBoxDimension:
    def test_single_point_dimension_zero(self):
        u = sin_sampled(257)
        sc = scan(u, 401)
        # keep exactly one flagged point
        keep = np.zeros_like(sc.flags)
        keep[np.flatnonzero(sc.flags)[0]] = True
        single = type(sc)(grid=sc.grid, sigma=sc.sigma, flags=keep, tol=sc.tol, q_count=sc.q_count)
        assert box_dimension(single, [0.1, 0.01, 0.001]) == pytest.approx(0.0, abs=1e-12)

    def test_full_interval_dimension_one(self):
        u = make_double_line(0.0, 1.0)
        sc = scan(u, 2001)
        full = type(sc)(grid=sc.grid, sigma=sc.sigma, flags=np.ones_like(sc.flags), tol=sc.tol, q_count=1)
        # finer scales keep the +1 edge-box bias negligible
        slope = box_dimension(full, [0.03, 0.01, 0.003, 0.001])
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_cantor_dimension_in_range(self):
        approx, _ = cantor_limit("diamond", 7)
        sc = scan(approx, 3**7 + 1)
        slope = box_dimension(sc, [3.0**-k for k in range(2, 7)])
        assert 0.55 <= slope <= 0.70

    def test_empty_flags_error(self):
        sc = scan(make_double_line(0.0, 1.0), 101)
        with pytest.raises(UndefinedDimensionError):
            box_counts(sc, [0.1])

    def test_nan_box_size_rejected(self):
        approx, _ = cantor_limit("diamond", 4)
        sc = scan(approx, 3**4 + 1)
        with pytest.raises(ValueError, match="box size"):
            box_counts(sc, [0.1, float("nan")])

    def test_single_scale_rejected(self):
        approx, _ = cantor_limit("diamond", 4)
        sc = scan(approx, 3**4 + 1)
        with pytest.raises(ValueError):
            dimension_report(sc, [0.1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_box_size_rejected(self, bad):
        approx, _ = cantor_limit("diamond", 4)
        sc = scan(approx, 3**4 + 1)
        with pytest.raises(ValueError, match=r"box sizes must lie in \(0, inf\)"):
            box_counts(sc, [0.1, bad])

    def test_overflowing_box_size_rejected(self):
        approx, _ = cantor_limit("diamond", 3)
        sc = scan(approx, 101)
        for tiny in (1e-200, 1e-320):  # at 1e-320 the index itself overflows float64
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"box size {tiny!r} is too small"):
                    box_counts(sc, [0.1, tiny])

    def test_repeated_scale_is_not_two_scales(self):
        # a fit through two equal x values gave a slope with r_squared 1.0
        approx, _ = cantor_limit("diamond", 3)
        sc = scan(approx, 101)
        with pytest.raises(ValueError, match="two distinct scales"):
            dimension_report(sc, [0.1, 0.1])

    def test_report_fields(self):
        approx, _ = cantor_limit("diamond", 5)
        sc = scan(approx, 3**5 + 1)
        rep = dimension_report(sc, [3.0**-k for k in range(1, 5)])
        assert rep.counts.size == 4
        assert 0.0 <= rep.r_squared <= 1.0


class TestMeasureAtScale:
    def test_empty_set(self):
        sc = scan(make_double_line(0.0, 1.0), 101)
        assert measure_at_scale(sc, 0.05) == 0.0

    def test_ternary_measure_decreases(self):
        vals = []
        for level in (3, 5, 7):
            sc = scan(cantor_level(CantorConstruction(level, "diamond")), 3**level + 1)
            vals.append(measure_at_scale(sc, 3.0**-level))
        assert vals[0] > vals[1] > vals[2]

    def test_fat_measure_bounded_below(self):
        fat, _ = cantor_limit("diamond", 6, schedule="fat")
        sc = scan(fat, 2049)
        m = measure_at_scale(sc, 0.01)
        assert m >= fat_residual_length(6) - 0.05

    def test_eps_below_grid_spacing_rejected(self):
        sc = scan(make_double_line(0.0, 1.0), 101)
        with pytest.raises(ValueError):
            measure_at_scale(sc, 1e-4)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_nonfinite_eps_rejected(self, eps):
        sc = scan(cantor_level(CantorConstruction(3, "diamond")), 3**3 + 1)
        with pytest.raises(ValueError, match=r"eps must lie in \[0\.037037037037037035, inf\)"):
            measure_at_scale(sc, eps)
