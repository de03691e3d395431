"""Tests for sorted circle traces and their least-energy disk extensions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvlab.disk2d import (
    AliasingError,
    check_squeeze_2d,
    decay_profile_2d,
    minimize_disk,
    sorted_trace,
)
from qvlab.func1d import FamilySizeError


def harmonic_value(trace, rho, theta):
    """Branchwise harmonic extension evaluated at polar points."""
    k = np.arange(trace.mode_cap + 1)
    radial = (rho / trace.radius) ** k
    cos_kt = np.cos(np.outer(k, theta)) * radial[:, None]
    sin_kt = np.sin(np.outer(k, theta)) * radial[:, None]
    return trace.cos_coeffs @ cos_kt + trace.sin_coeffs @ sin_kt


def quadrature_energy(trace, perturbation_coeffs, n_rho=400, n_theta=512):
    """Dirichlet energy on the unit disk of (harmonic extension + bump).

    The bump is sum_j c_j (1 - rho^2) cos(j theta), which vanishes on the
    boundary, so the perturbed field is a competitor with the same trace.
    Derivatives are evaluated analytically; only the integral is numeric.
    """
    rho = np.linspace(1e-9, 1.0, n_rho)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    k = np.arange(trace.mode_cap + 1)

    radial = rho[None, :] ** np.maximum(k[:, None] - 1, 0)
    dr_coeff = k[:, None] * radial  # d/drho rho^k
    rk = rho[None, :] ** k[:, None]

    cos_kt = np.cos(np.outer(k, theta))
    sin_kt = np.sin(np.outer(k, theta))

    total = 0.0
    for branch in range(trace.q_count):
        a = trace.cos_coeffs[branch][:, None]
        b = trace.sin_coeffs[branch][:, None]
        u_r = (a * dr_coeff).T @ cos_kt + (b * dr_coeff).T @ sin_kt
        u_t = (-a * k[:, None] * rk).T @ sin_kt + (b * k[:, None] * rk).T @ cos_kt
        for j, c in enumerate(perturbation_coeffs[branch]):
            if c == 0.0:
                continue
            u_r += c * (-2.0 * rho[:, None]) * np.cos(j * theta)[None, :]
            u_t += c * (1.0 - rho[:, None] ** 2) * (-j) * np.sin(j * theta)[None, :]
        integrand = (u_r**2 + (u_t / rho[:, None]) ** 2) * rho[:, None]
        total += np.trapezoid(integrand, rho, axis=0).sum() * (2.0 * np.pi / n_theta)
    return float(total)


class TestSortedTrace:
    def test_constant_trace(self):
        tr = sorted_trace(lambda t: [2.5, 2.5, 2.5], 64, 8)
        assert np.allclose(tr.samples, 2.5)
        assert tr.cos_coeffs[:, 0] == pytest.approx([2.5, 2.5, 2.5])
        assert np.abs(tr.cos_coeffs[:, 1:]).max() < 1e-13
        assert np.abs(tr.sin_coeffs).max() < 1e-13

    def test_separated_branches_do_not_mix(self):
        tr = sorted_trace(lambda t: [np.cos(t), 2.0 + np.cos(t)], 128, 4)
        assert tr.cos_coeffs[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert tr.cos_coeffs[1, 0] == pytest.approx(2.0, rel=1e-13)
        assert tr.cos_coeffs[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert tr.cos_coeffs[1, 1] == pytest.approx(1.0, rel=1e-12)

    def test_two_sheet_square_root_sorts_to_folded_branches(self):
        tr = sorted_trace(lambda t: [np.cos(t / 2.0), -np.cos(t / 2.0)], 1024, 96)
        theta = tr.angles
        assert np.allclose(tr.samples[1], np.abs(np.cos(theta / 2.0)), atol=1e-12)
        assert np.allclose(tr.samples[0], -np.abs(np.cos(theta / 2.0)), atol=1e-12)
        # corners at theta = pi force a slowly decaying spectrum; the stored
        # residual quantifies the truncation
        assert 0 < tr.truncation_residual < 5e-3

    def test_sorting_applied(self):
        tr = sorted_trace(lambda t: [np.sin(t), 0.0], 64, 8)
        assert np.all(np.diff(tr.samples, axis=0) >= 0)

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            sorted_trace(lambda t: [np.cos(t)], 16, 8)

    def test_huge_trace_refused_before_it_exists(self):
        calls = []
        with pytest.raises(FamilySizeError, match="the circle trace would have 1000000000000 samples"):
            sorted_trace(lambda t: calls.append(t) or [np.cos(t)], 10**12, 8)
        assert calls == []

    def test_many_modes_need_no_basis(self):
        # (modes + 1) x samples cosine and sine tables once took 149 GiB each here
        tr = sorted_trace(lambda t: [np.cos(t)], 200000, 99999)
        assert tr.cos_coeffs.shape == tr.sin_coeffs.shape == (1, 100000)
        assert tr.cos_coeffs[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert tr.truncation_residual < 1e-12

    def test_negative_mode_cap_rejected(self):
        with pytest.raises(ValueError, match="mode_cap must be nonnegative, got -1"):
            sorted_trace(lambda t: [1.0], 64, -1)

    @pytest.mark.parametrize("radius", [0.0, np.inf, np.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError):
            sorted_trace(lambda t: [np.cos(t)], 64, 8, radius=radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        v = np.cos(2.0 * np.pi * np.arange(17) / 17)
        v[3] = bad
        with pytest.raises(ValueError, match="trace samples must be finite"):
            sorted_trace(v, 17, 8)
        with pytest.raises(ValueError, match="trace samples must be finite"):
            sorted_trace(lambda t: [np.cos(t), bad], 17, 8)

    @pytest.mark.parametrize(
        "values",
        [lambda t: [np.exp(1j * t)], lambda t: [np.cos(t), 1j], np.exp(2j * np.pi * np.arange(17) / 17)],
        ids=["callable", "callable-constant", "array"],
    )
    def test_complex_trace_refused(self, values):
        # the imaginary part used to be dropped with only a ComplexWarning
        with pytest.raises(ValueError, match="trace values must be real, not complex"):
            sorted_trace(values, 17, 8)

    @pytest.mark.parametrize("values", [np.zeros((0, 17)), np.zeros((2, 16)), np.zeros((1, 2, 17)), lambda t: []],
                             ids=["no-branch", "wrong-width", "three-dim", "no-branch-callable"])
    def test_sample_shape_must_be_branches_by_angles(self, values):
        # no branch used to fail in numpy's max of an empty array
        with pytest.raises(ValueError, match="a trace must have Q >= 1 branches of one value per angle"):
            sorted_trace(values, 17, 8)

    def test_callable_is_called_once_with_every_angle(self):
        calls = []

        def trace(t):
            calls.append(np.copy(t))
            return [np.cos(t), np.sin(t)]

        tr = sorted_trace(trace, 64, 8)
        assert len(calls) == 1
        assert np.array_equal(calls[0], tr.angles)

    def test_bare_array_is_one_branch(self):
        # not one constant branch per angle
        tr = sorted_trace(lambda t: np.cos(t), 17, 8)
        assert tr.q_count == 1
        assert np.array_equal(tr.samples[0], np.cos(tr.angles))

    @pytest.mark.parametrize("values", [lambda t: 1.0, lambda t: np.float64(1.0), lambda t: np.array(1.0)],
                             ids=["float", "numpy-scalar", "zero-dim"])
    def test_scalar_result_is_refused(self, values):
        with pytest.raises(ValueError, match="a trace must return a sequence of branches"):
            sorted_trace(values, 17, 8)

    @pytest.mark.parametrize("values", [lambda t: [np.cos(t), np.cos(t)[:-1]],
                                        lambda t: [np.cos(t), np.ones(18)],
                                        lambda t: [[np.cos(t)]]], ids=["fewer", "more", "nested"])
    def test_branch_must_have_one_value_per_angle(self, values):
        with pytest.raises(ValueError, match="is neither a constant nor one value per angle"):
            sorted_trace(values, 17, 8)

    @pytest.mark.parametrize("values", [lambda t: [np.cos(t)], lambda t: [np.cos(t), 2.0 + np.cos(t)],
                                        lambda t: [np.cos(t / 2.0), -np.cos(t / 2.0)],
                                        lambda t: [np.cos(t) + 0.5 * np.sin(3 * t), 0.3]],
                             ids=["single-cos", "shifted-pair", "sqrt-type", "mixed"])
    def test_residual_matches_the_dense_basis(self, values):
        eps = np.finfo(float).eps
        for n in range(1, 33):
            for mode_cap in range((n + 1) // 2):
                tr = sorted_trace(values, n, mode_cap)
                k = np.arange(mode_cap + 1)
                dense = tr.cos_coeffs @ np.cos(np.outer(k, tr.angles)) + tr.sin_coeffs @ np.sin(np.outer(k, tr.angles))
                oracle = np.abs(dense - tr.samples).max()
                assert abs(tr.truncation_residual - oracle) <= 8 * eps * np.abs(tr.samples).max()

    def test_peak_memory_does_not_grow_with_modes(self):
        # A dense (modes + 1) x samples basis once took 32 MB at 512 modes.
        peaks = []
        for mode_cap in (8, 512):
            tracemalloc.start()
            try:
                sorted_trace(lambda t: [np.cos(t), 2.0 + np.sin(t)], 4096, mode_cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_callable_peak_memory_near_the_array_path(self):
        # The callable path once listed one small array per angle, about 4x the array path's peak.
        n = 50000
        f = lambda t: [np.cos(t), 1.0 - np.sin(t)]
        values = np.array([f(t) for t in 2.0 * np.pi * np.arange(n) / n]).T
        traces, peaks = [], []
        for trace in (values, f):
            tracemalloc.start()
            try:
                traces.append(sorted_trace(trace, n, 4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
        for name in ("samples", "cos_coeffs", "sin_coeffs", "truncation_residual"):
            assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name))


class TestDiskMinimizer:
    @pytest.mark.parametrize("values", [lambda t: [1.0], lambda t: [np.cos(t)]], ids=["constant", "single-cos"])
    def test_subnormal_radius_rejected(self, values):
        # pi / 1e-320 overflows; times a zero power it was NaN, else inf
        trace = sorted_trace(values, 64, 8, radius=1e-320)
        with pytest.raises(ValueError, match="radius 1e-320 gives a non-finite boundary energy"):
            minimize_disk(trace)

    def test_constant_trace_zero_energy(self):
        m = minimize_disk(sorted_trace(lambda t: [1.0, 1.0], 64, 8))
        assert m.dir_interior == 0.0

    def test_pure_cosine_energies(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t)], 512, 64))
        assert m.dir_interior == pytest.approx(np.pi, rel=1e-12)
        assert m.dir_boundary == pytest.approx(np.pi, rel=1e-12)

    def test_truncation_monotone(self):
        f = lambda t: [np.cos(t / 2.0), -np.cos(t / 2.0)]
        coarse = minimize_disk(sorted_trace(f, 1024, 32)).dir_interior
        fine = minimize_disk(sorted_trace(f, 1024, 64)).dir_interior
        finer = minimize_disk(sorted_trace(f, 1024, 128)).dir_interior
        assert coarse <= fine <= finer

    def test_radius_scaling(self):
        f = lambda t: [np.cos(t) + 0.3 * np.sin(2 * t)]
        m1 = minimize_disk(sorted_trace(f, 256, 16, radius=1.0))
        m3 = minimize_disk(sorted_trace(f, 256, 16, radius=3.0))
        assert m3.dir_interior == pytest.approx(m1.dir_interior, rel=1e-12)
        assert m3.dir_boundary == pytest.approx(m1.dir_boundary / 3.0, rel=1e-12)

    def test_rotation_and_shift_invariance(self):
        f = lambda t: [np.cos(t) + 0.5 * np.sin(3 * t)]
        g = lambda t: [np.cos(t + 1.1) + 0.5 * np.sin(3 * (t + 1.1)) + 4.0]
        mf = minimize_disk(sorted_trace(f, 512, 16))
        mg = minimize_disk(sorted_trace(g, 512, 16))
        assert mg.dir_interior == pytest.approx(mf.dir_interior, rel=1e-10)
        assert mg.dir_boundary == pytest.approx(mf.dir_boundary, rel=1e-10)

    def test_interior_energy_beats_quadrature_competitors(self):
        rng = np.random.default_rng(19)
        f = lambda t: [np.cos(t) + 0.4 * np.sin(2 * t), 1.0 + 0.2 * np.cos(3 * t)]
        trace = sorted_trace(f, 256, 16)
        m = minimize_disk(trace)
        baseline = quadrature_energy(trace, np.zeros((2, 5)))
        assert m.dir_interior == pytest.approx(baseline, abs=2e-4)
        for _ in range(10):
            coeffs = rng.normal(0.0, 0.3, (2, 5))
            assert m.dir_interior <= quadrature_energy(trace, coeffs) + 1e-6


class TestSqueeze:
    def test_margin_zero_at_pure_first_mode(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t)], 512, 64))
        holds, margin = check_squeeze_2d(m)
        assert holds and margin == pytest.approx(0.0, abs=1e-12)

    def test_single_branch_always_holds(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m_cap = int(rng.integers(1, 32))
            coeffs_a = rng.normal(0, 1.0 / (1 + np.arange(m_cap + 1)) ** 1.2)
            coeffs_b = rng.normal(0, 1.0 / (1 + np.arange(m_cap + 1)) ** 1.2)
            angles = 2 * np.pi * np.arange(128) / 128
            k = np.arange(m_cap + 1)
            row = coeffs_a @ np.cos(np.outer(k, angles)) + coeffs_b @ np.sin(np.outer(k, angles))
            m = minimize_disk(sorted_trace(row[None, :], 128, m_cap))
            holds, margin = check_squeeze_2d(m)
            assert holds and margin >= 0.0

    def test_two_branch_fold_has_positive_margin(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t / 2.0), -np.cos(t / 2.0)], 1024, 128))
        holds, margin = check_squeeze_2d(m)
        assert holds and margin > 0.1


@st.composite
def sampled_traces(draw):
    """Sorted traces with Q 1-3, mode_cap 1-16, finite samples and a normal radius."""
    q = draw(st.integers(1, 3))
    mode_cap = draw(st.integers(1, 16))
    count = draw(st.integers(2 * mode_cap + 1, 2 * mode_cap + 8))
    samples = draw(st.lists(st.floats(-1e6, 1e6), min_size=q * count, max_size=q * count))
    radius = draw(st.floats(1e-6, 1e6))
    return sorted_trace(np.reshape(samples, (q, count)), count, mode_cap, radius=radius)


class TestSqueezeProperty:
    @settings(max_examples=200, deadline=None)
    @given(trace=sampled_traces())
    def test_margin_nonnegative(self, trace):
        m = minimize_disk(trace)
        _, margin = check_squeeze_2d(m)
        # At equality (one branch on mode one alone) the two sides are the
        # same sum rounded two ways, r (pi / r S) against pi S, so the margin
        # may sit a few ulps of the bound below zero.
        bound = m.q_count * trace.radius * m.dir_boundary
        assert margin >= -4.0 * np.finfo(float).eps * bound


class TestDecayProfile:
    def test_single_mode_power_law(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t)], 256, 16))
        profile = decay_profile_2d(m, [0.25, 0.5, 1.0])
        for s, e in profile:
            assert e == pytest.approx(np.pi * s**2, rel=1e-12)

    def test_mixed_modes_slope_between_extremes(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t) + 0.5 * np.sin(3 * t)], 256, 16))
        profile = decay_profile_2d(m, np.logspace(-1, 0, 10))
        s = np.array([p[0] for p in profile])
        e = np.array([p[1] for p in profile])
        assert np.all(np.diff(e) > 0)
        slope = np.polyfit(np.log(s), np.log(e), 1)[0]
        assert 2.0 - 1e-9 <= slope <= 6.0 + 1e-9

    def test_constant_trace_profile_is_zero(self):
        m = minimize_disk(sorted_trace(lambda t: [5.0], 64, 4))
        assert all(e == 0.0 for _, e in decay_profile_2d(m, [0.5, 1.0]))

    def test_scale_guard(self):
        m = minimize_disk(sorted_trace(lambda t: [np.cos(t)], 64, 4))
        with pytest.raises(ValueError):
            m.subdisk_energy(1.5)


def test_json_export(tmp_path):
    m = minimize_disk(sorted_trace(lambda t: [np.cos(t)], 64, 8))
    path = tmp_path / "disk.json"
    m.to_json(path)
    import json

    payload = json.loads(path.read_text())
    assert payload["dir_interior"] == pytest.approx(np.pi)
    assert payload["squeeze_margin"] == pytest.approx(0.0, abs=1e-12)
    assert len(payload["angles"]) == 64
