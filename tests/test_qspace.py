"""Tests for the matching metric, cluster selection, and semi-retraction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qvlab.acceptance import _exhaustive_distance
from qvlab.qspace import (
    ClusterSelection,
    DimensionMismatchError,
    QPoint,
    RetractionParams,
    _assignment,
    c_of_q,
    lipschitz_bound,
    metric_g,
    select_clusters,
    semi_retraction,
    support_with_multiplicity,
)


class TestMetric:
    def test_identity(self):
        a = QPoint.of([0.0, 1.0], [2.0, -1.0])
        assert metric_g(a, a) == 0.0

    def test_forced_matching(self):
        # both points of the second tuple sit at 1, so the matching is forced
        a = QPoint.of(0.0, 2.0)
        b = QPoint.of(1.0, 1.0)
        assert metric_g(a, b) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            q = int(rng.integers(1, 7))
            n = int(rng.integers(1, 4))
            pa = rng.normal(0, 3, (q, n))
            pb = rng.normal(0, 3, (q, n))
            got = metric_g(QPoint(pa), QPoint(pb))
            ref = _exhaustive_distance(pa, pb)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        # Q = 7 and 8 in two and three dimensions: few draws, the oracle walks 8! pairings
        for q, n in itertools.product((7, 8), (2, 3)):
            pa = rng.normal(0, 3, (q, n))
            pb = rng.normal(0, 3, (q, n))
            got = metric_g(QPoint(pa), QPoint(pb))
            assert got == pytest.approx(_exhaustive_distance(pa, pb), rel=1e-12, abs=1e-15)

    def test_permuted_and_shifted_copies(self):
        rng = np.random.default_rng(1)
        pa = rng.normal(0, 1, (9, 2))
        perm = rng.permutation(9)
        assert metric_g(QPoint(pa), QPoint(pa[perm])) == pytest.approx(0.0, abs=1e-12)
        shift = pa + np.array([1.0, 0.0])
        assert metric_g(QPoint(pa), QPoint(shift)) == pytest.approx(3.0, rel=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            a, b, c = (QPoint(rng.normal(0, 2, (q, n))) for _ in range(3))
            dab, dba = metric_g(a, b), metric_g(b, a)
            assert dab >= 0
            assert dab == pytest.approx(dba, rel=1e-12, abs=1e-15)
            assert metric_g(a, c) <= dab + metric_g(b, c) + 1e-9

    def test_translation_invariance_and_scaling(self):
        rng = np.random.default_rng(3)
        a = QPoint(rng.normal(0, 1, (4, 2)))
        b = QPoint(rng.normal(0, 1, (4, 2)))
        d = metric_g(a, b)
        shift = np.array([3.7, -1.2])
        assert metric_g(QPoint(a.points + shift), QPoint(b.points + shift)) == pytest.approx(d, rel=1e-12)
        assert metric_g(QPoint(2.5 * a.points), QPoint(2.5 * b.points)) == pytest.approx(2.5 * d, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            metric_g(QPoint.of(0.0, 1.0), QPoint.of(0.0, 1.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            metric_g(QPoint.of(0.0), QPoint.of([0.0, 1.0]))

    def test_points_frozen(self):
        a = QPoint.of(0.0, 1.0)
        with pytest.raises(ValueError):
            a.points[0, 0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QPoint.of(np.nan, 1.0)


class TestSupport:
    def test_exact_multiplicities(self):
        a = QPoint.of(0.0, 0.0, 5.0)
        sup = support_with_multiplicity(a, 0.0)
        assert [(float(p[0]), m) for p, m in sup] == [(0.0, 2), (5.0, 1)]

    def test_tolerance_merges(self):
        a = QPoint.of(0.0, 1e-9)
        sup = support_with_multiplicity(a, 1e-6)
        assert len(sup) == 1 and sup[0][1] == 2

    def test_single_linkage_chains(self):
        # pairwise gaps are 0.5 <= 0.6 so everything chains into one cluster
        a = QPoint.of(0.0, 0.5, 1.0)
        sup = support_with_multiplicity(a, 0.6)
        assert len(sup) == 1 and sup[0][1] == 3
        # oracle: transitive closure of the <= tol relation
        assert len(support_with_multiplicity(a, 0.6)) == 1
        assert len(support_with_multiplicity(a, 0.4)) == 3

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            support_with_multiplicity(QPoint.of(0.0), -1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_nonfinite_tol_rejected(self, tol):
        # A NaN tol merged nothing, so coincident points split into Q singletons.
        a = QPoint.of(0.0, 0.0, 5.0)
        with pytest.raises(ValueError, match="tol"):
            support_with_multiplicity(a, tol)


def closure_clusters(pts, threshold):
    """Independent oracle: classes of the transitive closure of dist <= threshold.

    Returns (leader, size) pairs, each class led by its lexicographically
    smallest member and the classes sorted by leader.
    """
    q = pts.shape[0]
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    reach = dist <= threshold
    np.fill_diagonal(reach, True)
    for k in range(q):  # Warshall
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    classes = {tuple(np.flatnonzero(row)) for row in reach}
    out = [(min(tuple(pts[i]) for i in members), len(members)) for members in classes]
    return sorted(out)


def configurations(elements):
    """(Q, n) point arrays with Q <= 8 and n <= 3."""
    shapes = st.tuples(st.integers(1, 8), st.integers(1, 3))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


# Integer grids make equal distances, and distances equal to the threshold, common.
points = st.one_of(
    configurations(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])),
    configurations(st.floats(-10.0, 10.0)),
)


class TestSingleLinkageProperties:
    @settings(max_examples=150, deadline=None)
    @given(pts=points, tol=st.sampled_from([0.0, 1.0, 2.0**0.5, 2.0]) | st.floats(0.0, 5.0))
    def test_support_is_transitive_closure(self, pts, tol):
        got = [(tuple(p), m) for p, m in support_with_multiplicity(QPoint(pts), tol)]
        assert got == closure_clusters(pts, tol)

    @settings(max_examples=150, deadline=None)
    @given(pts=points, s0=st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 2.0),
           k=st.sampled_from([1.5, 2.0]) | st.floats(1.1, 3.0))
    def test_selection_groups_are_transitive_closure(self, pts, s0, k):
        sel = select_clusters(QPoint(pts), s0, k)
        # Walk the same ladder to find the threshold below the selected rung.
        q = pts.shape[0]
        mu = 2.0 * k * (q - 1) ** 1.5
        radius, threshold = s0, 0.0
        while radius < sel.radius:
            threshold = 2.0 * k * radius
            radius = s0 + mu * radius
        assert radius == sel.radius
        want = closure_clusters(pts, threshold)
        assert [(tuple(c), m) for c, m in zip(sel.centers, sel.multiplicities)] == want
        # no merge scale in the band (threshold, 2 K radius]
        assert closure_clusters(pts, 2.0 * k * radius) == want


def metric_triples():
    """Three (Q, n) configurations and a permutation and shift of them, with
    Q <= 12 so that n >= 2 draws reach the assignment solver."""
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 3))
    values = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-10.0, 10.0)
    return shapes.flatmap(
        lambda shape: st.tuples(
            *(arrays(float, shape, elements=values) for _ in range(3)),
            st.permutations(range(shape[0])),
            arrays(float, shape[1], elements=st.floats(-100.0, 100.0)),
        )
    )


class TestMetricProperties:
    @settings(max_examples=200, deadline=None)
    @given(draw=metric_triples())
    def test_metric_axioms_and_invariances(self, draw):
        pa, pb, pc, perm, shift = draw
        a, b, c = QPoint(pa), QPoint(pb), QPoint(pc)
        dab = metric_g(a, b)
        assert dab >= 0.0
        assert metric_g(b, a) == pytest.approx(dab, rel=1e-12, abs=1e-12)
        assert metric_g(a, c) <= dab + metric_g(b, c) + 1e-9
        assert metric_g(QPoint(pa[list(perm)]), b) == pytest.approx(dab, rel=1e-12, abs=1e-12)
        assert metric_g(a, QPoint(pa[list(perm)])) == pytest.approx(0.0, abs=1e-12)
        # A shift rounds each coordinate by at most |x + t| eps / 2 (< 3e-14 here).
        assert metric_g(QPoint(a.points + shift), QPoint(b.points + shift)) == pytest.approx(dab, rel=1e-12, abs=1e-10)


@st.composite
def matching_pairs(draw):
    """Two (Q, n) configurations with Q <= 8 and n in {2, 3}.  Half of the
    draws sit on a small integer grid and each configuration may repeat its
    rows, so equal costs and tied optimal pairings are common."""
    q = draw(st.integers(1, 8))
    n = draw(st.integers(2, 3))
    grid = draw(st.booleans())
    values = st.sampled_from([-1.0, 0.0, 1.0, 2.0]) if grid else st.floats(-10.0, 10.0)

    def configuration():
        pts = draw(arrays(float, (q, n), elements=values))
        rows = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q) | st.just(list(range(q))))
        return pts[rows]

    return configuration(), configuration()


def squared_distances(rng, q, ties):
    a = rng.integers(-1, 2, (q, 2)).astype(float) if ties else rng.normal(0, 3, (q, 2))
    b = rng.integers(-1, 2, (q, 2)).astype(float) if ties else rng.normal(0, 3, (q, 2))
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)


class TestAssignment:
    @settings(max_examples=150, deadline=None)
    @given(draw=matching_pairs())
    def test_metric_matches_exhaustive_oracle(self, draw):
        pa, pb = draw
        assert metric_g(QPoint(pa), QPoint(pb)) == pytest.approx(_exhaustive_distance(pa, pb), rel=1e-12, abs=1e-15)

    def test_cost_matches_scipy(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(2024)
        for q in range(1, 41):
            for cost in (
                squared_distances(rng, q, ties=False),
                squared_distances(rng, q, ties=True),
                rng.integers(0, 3, (q, q)).astype(float),
                rng.uniform(0, 1e6, (q, q)),
            ):
                cols = _assignment(cost.tolist())
                assert sorted(cols) == list(range(q))
                rows, want = linear_sum_assignment(cost)
                assert cost[range(q), cols].sum() == pytest.approx(cost[rows, want].sum(), rel=1e-12, abs=1e-12)

    def test_single_row(self):
        assert _assignment([[3.5]]) == [0]

    def test_constant_cost(self):
        cols = _assignment(np.full((7, 7), 2.5).tolist())
        assert sorted(cols) == list(range(7))

    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_coincident_points(self, q):
        a = QPoint(np.tile([1.5, -2.0], (q, 1)))
        assert metric_g(a, a) == 0.0
        b = QPoint(np.tile([4.5, 2.0], (q, 1)))
        assert metric_g(a, b) == pytest.approx(5.0 * np.sqrt(q), rel=1e-15)

    def test_no_finite_pairing_rejected(self):
        # every squared distance overflows to inf
        a = QPoint(np.array([[1e200, 0.0], [2e200, 0.0]]))
        b = QPoint(np.array([[-1e200, 0.0], [-2e200, 0.0]]))
        with pytest.raises(ValueError, match="finite-cost assignment"):
            metric_g(a, b)


class TestSeparationConstants:
    def test_reference_values(self):
        assert c_of_q(2, 2.0) == 5.0
        assert c_of_q(3, 2.0) == 273.0

    def test_q1_undefined(self):
        with pytest.raises(ValueError):
            c_of_q(1, 2.0)

    def test_k_must_exceed_one(self):
        with pytest.raises(ValueError):
            c_of_q(3, 1.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_nonfinite_k_rejected(self, k):
        with pytest.raises(ValueError, match="K"):
            c_of_q(3, k)


def random_nearby(rng, pts, s0):
    """A configuration within matching distance s0 of pts."""
    disp = rng.normal(0, 1, pts.shape)
    disp *= s0 * rng.uniform(0, 1) / max(float(np.sqrt((disp**2).sum())), 1e-300)
    return QPoint(pts + disp)


class TestSelectClusters:
    def test_coincident_points(self):
        a = QPoint(np.tile([1.0, 2.0], (4, 1)))
        sel = select_clusters(a, 0.5, 2.0)
        assert sel.cluster_count == 1
        assert sel.multiplicities == (4,)
        assert np.allclose(sel.centers[0], [1.0, 2.0])
        assert sel.radius == 0.5

    def test_two_far_points(self):
        sel = select_clusters(QPoint.of(0.0, 10.0), 1.0, 2.0)
        assert sel.cluster_count == 2
        assert sel.multiplicities == (1, 1)
        assert sel.radius == 1.0
        # conclusion (1): 10 > 2 * 2 * 1
        assert sel.min_center_gap() > 2 * 2.0 * sel.radius

    def test_marginal_pair_still_covered(self):
        # distance 2 K s0 exactly: the pair merges and the selection radius
        # must still cover all nearby configurations
        s0, k = 1.0, 2.0
        a = QPoint.of(0.0, 2 * k * s0)
        sel = select_clusters(a, s0, k)
        q0 = sel.collapsed()
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = random_nearby(rng, a.points, s0)
            assert metric_g(z, q0) <= sel.radius + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_conclusions_hold(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(50):
            q = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            if trial % 3 == 0:
                m = int(rng.integers(1, q + 1))
                hubs = rng.normal(0, 40, (m, n))
                pts = hubs[rng.integers(0, m, q)] + rng.normal(0, 1e-2, (q, n))
            else:
                pts = rng.normal(0, 10 ** rng.uniform(-2, 1), (q, n))
            a = QPoint(pts)
            s0 = float(rng.uniform(0.01, 2.0))
            k = float(rng.uniform(1.1, 3.0))
            sel = select_clusters(a, s0, k)  # (1) and the radius range are re-checked on construction
            q0 = sel.collapsed()
            cq = c_of_q(q, k)
            assert metric_g(a, q0) <= cq * s0 / np.sqrt(q - 1) + 1e-12  # (2)
            if sel.cluster_count == 1:  # (4)
                diam = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).max()
                assert diam <= cq * s0 / (q - 1) + 1e-12
            for _ in range(20):  # (3), sampled
                z = random_nearby(rng, pts, s0)
                assert metric_g(z, q0) <= sel.radius + 1e-9

    def test_centers_are_input_points(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 5, (5, 2))
        sel = select_clusters(QPoint(pts), 0.3, 1.5)
        for center in sel.centers:
            assert any(np.array_equal(center, p) for p in pts)

    def test_invalid_parameters(self):
        a = QPoint.of(0.0, 1.0)
        with pytest.raises(ValueError):
            select_clusters(a, 0.0, 2.0)
        with pytest.raises(ValueError):
            select_clusters(a, 1.0, 1.0)

    @pytest.mark.parametrize("s0", [np.nan, np.inf])
    def test_nonfinite_s0_rejected(self, s0):
        with pytest.raises(ValueError, match=r"s0 must lie in \(0, inf\)"):
            select_clusters(QPoint.of(0.0, 1.0), s0, 2.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_nonfinite_separation_rejected(self, k):
        with pytest.raises(ValueError, match="separation_k"):
            select_clusters(QPoint.of(0.0, 1.0), 0.1, k)
        with pytest.raises(ValueError, match="separation_k"):
            ClusterSelection(1, (2,), np.array([[0.0]]), radius=1.0, s0=1.0, separation_k=k)

    def test_infinite_radius_rejected(self):
        with pytest.raises(ValueError, match=r"radius must lie in \[1\.0, inf\), got inf"):
            ClusterSelection(1, (2,), np.array([[0.0]]), radius=np.inf, s0=1.0, separation_k=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_center_rejected(self, bad):
        # Its gaps to the other centers are NaN or inf, which the separation check cannot refuse.
        with pytest.raises(ValueError, match="centers must be finite"):
            ClusterSelection(2, (1, 1), np.array([[0.0], [bad]]), radius=1.0, s0=1.0, separation_k=2.0)


def make_selection(centers, multiplicities, k=1.5):
    centers = np.asarray(centers, dtype=float)
    return ClusterSelection(
        cluster_count=centers.shape[0],
        multiplicities=tuple(multiplicities),
        centers=centers,
        radius=0.01,
        s0=0.005,
        separation_k=k,
    )


def retraction_loop(q, params):
    """The semi-retraction one point at a time, as it was first written: the
    reference for the vectorised map."""
    sel = params.selection
    q0 = sel.collapsed()
    rho = metric_g(q, q0)
    if rho <= params.s1:
        return q.points
    if rho >= params.s2:
        return q0.points
    beta = (params.s2 - rho) / (params.s2 - params.s1)
    centers = sel.centers
    out = np.empty_like(q.points)
    for i, point in enumerate(q.points):
        gaps = np.linalg.norm(centers - point, axis=1)
        candidates = np.flatnonzero(gaps == gaps.min())
        j = min(candidates, key=lambda c: tuple(centers[c]))
        d = gaps[j]
        if d == 0.0:
            out[i] = centers[j]
            continue
        new_d = min(d, beta * min(d, params.s1))
        out[i] = centers[j] + (point - centers[j]) * (new_d / d)
    return out


class TestSemiRetraction:
    def setup_method(self):
        self.sel = make_selection([[0.0, 0.0], [10.0, 0.0]], (2, 1))
        self.params = RetractionParams.from_selection(self.sel, s1=1.0)
        self.q0 = self.sel.collapsed()

    def test_s2_is_half_min_gap(self):
        assert self.params.s2 == 5.0

    def test_identity_inside_inner_radius(self):
        q = QPoint(self.q0.points + np.array([[0.3, 0.1], [-0.2, 0.0], [0.1, 0.4]]))
        assert metric_g(q, self.q0) <= self.params.s1
        assert np.array_equal(semi_retraction(q, self.params).points, q.points)

    def test_collapse_beyond_outer_radius(self):
        q = QPoint(self.q0.points + np.array([[6.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        assert metric_g(q, self.q0) >= self.params.s2
        out = semi_retraction(q, self.params)
        assert metric_g(out, self.q0) == 0.0

    def test_never_moves_farther_than_collapse(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = QPoint(self.q0.points + rng.normal(0, 2.0, (3, 2)))
            rho = metric_g(q, self.q0)
            assert metric_g(q, semi_retraction(q, self.params)) <= rho * (1 + 1e-12) + 1e-15

    def test_output_class_membership(self):
        # every output must put exactly k_j points in the s1-ball of center j
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = QPoint(self.q0.points + rng.normal(0, rng.uniform(0.1, 4.0), (3, 2)))
            out = semi_retraction(q, self.params)
            counts = [
                int(np.sum(np.linalg.norm(out.points - c, axis=1) <= self.params.s1 + 1e-12))
                for c in self.sel.centers
            ]
            assert counts == [2, 1]

    def test_sampled_lipschitz_bound(self):
        rng = np.random.default_rng(31)
        bound = lipschitz_bound(self.params)
        for _ in range(500):
            base = self.q0.points + rng.normal(0, 2.0, (3, 2))
            qa = QPoint(base)
            qb = QPoint(base + rng.normal(0, 0.3, (3, 2)))
            lhs = metric_g(semi_retraction(qa, self.params), semi_retraction(qb, self.params))
            assert lhs <= bound * metric_g(qa, qb) * (1 + 1e-9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RetractionParams(s1=2.0, s2=1.0, selection=self.sel)
        single = make_selection([[0.0, 0.0]], (3,))
        with pytest.raises(ValueError):
            RetractionParams.from_selection(single, s1=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_per_point_loop(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(300):
            q = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            j = int(rng.integers(2, q + 1))
            ties = trial % 2 == 1
            if ties:
                # distinct integer centers and integer probes: equal center distances are common
                grid = np.array(list(itertools.product(range(-3, 4), repeat=n)), dtype=float)
                centers = grid[rng.choice(len(grid), j, replace=False)]
            else:
                centers = rng.uniform(0, 10, (j, n)) + 20.0 * np.arange(j)[:, None]
            sel = make_selection(centers, [1] * (j - 1) + [q - j + 1])
            q0 = sel.collapsed().points
            if ties:
                probe = q0 + rng.integers(-2, 3, (q, n))
                params = RetractionParams(s1=float(rng.uniform(0.1, 1.0)), s2=50.0, selection=sel)
            else:
                probe = q0 + rng.normal(0, 1, (q, n)) * float(rng.choice([0.1, 1.0, 3.0]))
                params = RetractionParams.from_selection(sel, s1=float(rng.uniform(0.05, 0.8)) * sel.min_center_gap() / 2)
            got = semi_retraction(QPoint(probe), params).points
            assert got.tobytes() == retraction_loop(QPoint(probe), params).tobytes()

    def test_tie_goes_to_lexicographically_smaller_center(self):
        # The first center is the larger one.  The point at the origin is at
        # distance 1 from both; s2 is set directly above rho so it moves.
        sel = make_selection([[1.0, 0.0], [-1.0, 0.0]], (1, 1))
        params = RetractionParams(s1=0.5, s2=10.0, selection=sel)
        out = semi_retraction(QPoint(np.array([[0.0, 0.0], [1.0, 0.0]])), params).points
        assert out[0, 0] < 0.0 and out[0, 1] == 0.0
        assert np.array_equal(out[1], [1.0, 0.0])
