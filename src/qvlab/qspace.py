"""Unordered Q-tuples of points with the optimal-matching metric.

A configuration is a multiset of Q points in R^n.  The distance between two
configurations is the minimum over pairings of the root-sum-square of the
pairwise distances, solved exactly: by the sorted pairing in one dimension
and otherwise by the module's own assignment solver, so the package needs
nothing beyond numpy.  On top of the metric this module provides
support/multiplicity queries, a scale-separated cluster selection, and a
Lipschitz semi-retraction onto configurations with prescribed multiplicities
around well-separated centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QPoint",
    "ClusterSelection",
    "RetractionParams",
    "DimensionMismatchError",
    "metric_g",
    "support_with_multiplicity",
    "sigma",
    "c_of_q",
    "c2_of_q",
    "select_clusters",
    "semi_retraction",
    "lipschitz_bound",
]

class DimensionMismatchError(ValueError):
    """Two configurations do not share the same Q or ambient dimension."""


@dataclass(frozen=True)
class QPoint:
    """An unordered tuple of Q points in R^n.

    The stored row order is not semantic; every operation in this package is
    invariant under permutations of the rows.  The array is frozen after
    construction so values can be shared freely.
    """

    points: np.ndarray  # shape (Q, n)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"expected a (Q, n) array of points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("all coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def q_count(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def of(cls, *values) -> "QPoint":
        """Build from scalars (n = 1) or coordinate sequences."""
        return cls(np.array([np.atleast_1d(v) for v in values], dtype=float))

    def sorted_values(self) -> np.ndarray:
        """Sorted coordinate values; only meaningful for n = 1."""
        if self.ambient_dim != 1:
            raise ValueError("sorted_values requires ambient dimension 1")
        return np.sort(self.points[:, 0])

    def translate(self, offset) -> "QPoint":
        return QPoint(self.points + np.atleast_1d(np.asarray(offset, dtype=float)))


def _check_compatible(a: QPoint, b: QPoint) -> None:
    if a.points.shape != b.points.shape:
        raise DimensionMismatchError(f"incompatible configurations: {a.points.shape} vs {b.points.shape}")


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _assignment(c: list[list[float]]) -> list[int]:
    """The column of each row in a least-cost matching of a square cost matrix,
    given as a list of rows.

    Shortest augmenting paths with dual potentials (Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE TAES 2016), started from
    Jonker-Volgenant column reduction: each column's potential v[j] is its
    least cost, and a column whose least-cost row is still free is matched
    to it.  Each free row then grows one Dijkstra tree over the reduced
    costs c[i][j] - u[i] - v[j], which the potentials keep nonnegative,
    until it reaches a free column.  The scanned columns' potentials drop
    by what their distance falls short of the path's, and the path is
    flipped.  A matched row's u[i] is c[i][j] - v[j] on its own column, so
    only v is stored.  Among columns at the same distance the scan prefers
    a free one, which ends the path early when costs tie.  Raises
    ValueError when no assignment has a finite cost.
    """
    size = len(c)
    v = []
    col4row = [-1] * size
    row4col = [-1] * size
    for j, column in enumerate(zip(*c)):
        least = min(column)
        v.append(least)
        i = column.index(least)
        if col4row[i] < 0:
            col4row[i], row4col[j] = j, i
    for free in range(size):
        if col4row[free] >= 0:
            continue
        dist = [math.inf] * size
        path = [free] * size
        remaining = list(range(size))
        scanned = []
        i, shift = free, 0.0
        while True:
            row = c[i]
            lowest, best = math.inf, -1
            for j in remaining:
                d = dist[j]
                r = row[j] - v[j] + shift
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < lowest or (d == lowest and row4col[j] < 0):
                    lowest, best = d, j
            if lowest == math.inf:
                raise ValueError("the cost matrix has no finite-cost assignment")
            remaining.remove(best)
            scanned.append(best)
            i = row4col[best]
            if i < 0:
                break
            shift = lowest - (c[i][best] - v[best])  # the path length to row i, less its u[i]
        for k in scanned:
            v[k] += dist[k] - lowest
        j = best
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == free:
                break
    return col4row


def metric_g(a: QPoint, b: QPoint) -> float:
    """Optimal-matching distance between two configurations.

    Returns min over pairings sigma of (sum_i |a_i - b_sigma(i)|^2)^(1/2).
    For n = 1 the sorted pairing is optimal (squared distance is a convex
    cost); otherwise `_assignment` finds an optimal pairing of the squared
    distance matrix, and numpy sums the paired entries in row order.  Where
    squared distances overflow to inf, n = 1 gives inf and n >= 2 raises
    ValueError unless some pairing has a finite cost.
    """
    _check_compatible(a, b)
    if a.ambient_dim == 1:
        da = np.sort(a.points[:, 0])
        db = np.sort(b.points[:, 0])
        return float(np.sqrt(np.sum((da - db) ** 2)))
    cost = _pairwise_sq(a.points, b.points).tolist()
    matched = np.array([row[j] for row, j in zip(cost, _assignment(cost))])
    return math.sqrt(matched.sum())


def _spanning_tree(pts: np.ndarray) -> list[tuple[int, int, float]]:
    """Prim's minimum spanning tree of the points as (i, j, length) edges.

    Edges are listed in the order Prim adds them: i is already in the tree
    when j joins it, and the first edge starts at point 0.  Ties go to the
    smallest index.
    """
    dist = np.sqrt(_pairwise_sq(pts, pts)).tolist()
    best = list(dist[0])
    via = [0] * len(dist)
    outside = list(range(1, len(dist)))
    edges = []
    while outside:
        j = min(outside, key=best.__getitem__)
        outside.remove(j)
        edges.append((via[j], j, best[j]))
        row = dist[j]
        for k in outside:
            if row[k] < best[k]:
                best[k] = row[k]
                via[k] = j
    return edges


def _single_linkage(
    pts: np.ndarray, tree: list[tuple[int, int, float]], threshold: float
) -> list[tuple[int, int]]:
    """Single-linkage clusters at `threshold` as (leader, size) pairs.

    The clusters are the components of the tree edges no longer than
    `threshold`, which is the transitive closure of dist <= threshold.  Each
    cluster is led by its lexicographically smallest member, and clusters
    are listed in lexicographic order of their leaders.
    """
    keys = [tuple(row) for row in pts.tolist()]
    label = [0] * len(keys)
    leaders, sizes = [0], [1]
    for i, j, length in tree:
        if length <= threshold:
            c = label[j] = label[i]
            sizes[c] += 1
            if keys[j] < keys[leaders[c]]:
                leaders[c] = j
        else:
            label[j] = len(leaders)
            leaders.append(j)
            sizes.append(1)
    return sorted(zip(leaders, sizes), key=lambda item: keys[item[0]])


def support_with_multiplicity(a: QPoint, tol: float = 0.0) -> list[tuple[np.ndarray, int]]:
    """Cluster the points by single linkage at scale `tol`.

    Points whose chained pairwise distances stay within `tol` merge into one
    support point (tol = 0 keeps exactly coincident points together).  Each
    cluster is reported as (representative, multiplicity) where the
    representative is the lexicographically smallest member, and clusters are
    listed in lexicographic order of their representatives.
    """
    if not (0 <= tol < np.inf):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    pts = a.points
    return [(pts[leader].copy(), size) for leader, size in _single_linkage(pts, _spanning_tree(pts), tol)]


def sigma(a: QPoint, tol: float = 0.0) -> int:
    """Number of distinct support points at clustering scale `tol`."""
    return len(support_with_multiplicity(a, tol))


def _separation_sum(q: int, k: float, terms: int) -> float:
    base = (2.0 * k) * (q - 1) ** 2
    return float(sum(base**t for t in range(terms)))


def c_of_q(q: int, k: float) -> float:
    """Geometric separation constant 1 + g + g^2 + ... + g^(Q-1), g = 2K(Q-1)^2."""
    if q < 2:
        raise ValueError("c_of_q requires Q >= 2")
    if not (1 < k < np.inf):
        raise ValueError(f"c_of_q requires a finite K > 1, got k={k!r}")
    return _separation_sum(q, k, q)


def c2_of_q(q: int, k: float) -> float:
    """c_of_q scaled by (Q-1)^(-1/2); undefined for Q = 1."""
    if q < 2:
        raise ValueError("c2_of_q is undefined for Q < 2 (division by (Q-1)^(1/2))")
    return c_of_q(q, k) / np.sqrt(q - 1.0)


@dataclass(frozen=True)
class ClusterSelection:
    """A scale-separated grouping of a configuration.

    The configuration's Q points are grouped into `cluster_count` clusters
    with the given multiplicities around distinct centers chosen from the
    input points, together with a radius `radius` in [s0, C(Q) s0] at which
    the centers are more than 2 K radius apart.
    """

    cluster_count: int
    multiplicities: tuple[int, ...]
    centers: np.ndarray  # (J, n)
    radius: float
    s0: float
    separation_k: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim == 1:
            centers = centers.reshape(-1, 1)
        centers = centers.copy()
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        j = self.cluster_count
        if j != len(self.multiplicities) or j != centers.shape[0]:
            raise ValueError("cluster_count does not match multiplicities/centers")
        if any(k < 1 for k in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if not (0 < self.s0 <= self.radius < np.inf):
            raise ValueError(f"radius must be finite with 0 < s0 <= radius, got {self.radius!r} for s0={self.s0!r}")
        if not (1 < self.separation_k < np.inf):
            raise ValueError(f"separation_k must be finite and exceed 1, got {self.separation_k!r}")
        q = self.q_count
        if q >= 2 and self.radius > c_of_q(q, self.separation_k) * self.s0 * (1 + 1e-12):
            raise ValueError("radius exceeds C(Q) * s0")
        if self.min_center_gap() <= 2.0 * self.separation_k * self.radius:
            raise ValueError("centers are not 2 K radius separated")

    @property
    def q_count(self) -> int:
        return int(sum(self.multiplicities))

    def collapsed(self) -> QPoint:
        """The configuration sum_j k_j [[p_j]] described by this selection."""
        rows = np.repeat(self.centers, self.multiplicities, axis=0)
        return QPoint(rows)

    def min_center_gap(self) -> float:
        if self.cluster_count < 2:
            return float("inf")
        d = np.sqrt(_pairwise_sq(self.centers, self.centers))
        np.fill_diagonal(d, np.inf)
        return float(d.min())


def select_clusters(a: QPoint, s0: float, separation_k: float) -> ClusterSelection:
    """Group a configuration at a radius where clusters separate cleanly.

    Walks a geometric ladder of radii r_0 = s0, r_t = s0 + 2K (Q-1)^(3/2)
    r_(t-1) and stops at the first rung whose linkage band (2K r_(t-1),
    2K r_t] contains no single-linkage merge scale.  The Q - 1 merge scales
    cannot occupy all Q disjoint bands, so the walk terminates, and at the
    stopping rung the clusters formed at threshold 2K r_(t-1) satisfy:

    - centers more than 2K r apart,
    - the collapsed configuration within r - s0 of the input (hence any z
      within s0 of the input is within r of the collapsed configuration),
    - in the single-cluster case, support diameter at most C(Q) s0 / (Q-1).
    """
    if not (0 < s0 < np.inf):
        raise ValueError(f"s0 must be positive and finite, got {s0!r}")
    if not (1 < separation_k < np.inf):
        raise ValueError(f"separation_k must be finite and exceed 1, got {separation_k!r}")
    pts = a.points
    q = a.q_count
    tree = _spanning_tree(pts)
    merges = [length for _, _, length in tree]
    mu = 2.0 * separation_k * (q - 1) ** 1.5

    radius = s0
    threshold = 0.0
    for _ in range(q):
        ceiling = 2.0 * separation_k * radius
        if not any(threshold < m <= ceiling for m in merges):
            groups = _single_linkage(pts, tree, threshold)
            return ClusterSelection(
                cluster_count=len(groups),
                multiplicities=tuple(size for _, size in groups),
                centers=np.array([pts[leader] for leader, _ in groups]),
                radius=radius,
                s0=s0,
                separation_k=separation_k,
            )
        threshold = ceiling
        radius = s0 + mu * radius
    raise AssertionError("cluster search failed to terminate; this cannot happen")


@dataclass(frozen=True)
class RetractionParams:
    """Parameters of the semi-retraction around a cluster selection.

    `s1` is the radius below which configurations are left alone and `s2`,
    any finite value above `s1`, the radius beyond which they collapse onto
    the centers.  `from_selection` sets `s2` to half the minimum center gap,
    so the balls B(p_j, s2) are disjoint.  Then a point tied between two
    nearest centers is at least s2 from both, the configuration collapses,
    and `semi_retraction`'s nearest-center tie-break is reached only with a
    larger, hand-built `s2`.
    """

    s1: float
    s2: float
    selection: ClusterSelection = field(repr=False)

    def __post_init__(self):
        if not (0 < self.s1 < self.s2):
            raise ValueError("parameters must satisfy 0 < s1 < s2")
        if not np.isfinite(self.s2):
            raise ValueError("s2 must be finite (selection needs at least two centers)")

    @classmethod
    def from_selection(cls, selection: ClusterSelection, s1: float) -> "RetractionParams":
        gap = selection.min_center_gap()
        if not np.isfinite(gap):
            raise ValueError("semi-retraction needs at least two cluster centers")
        return cls(s1=s1, s2=0.5 * gap, selection=selection)


def semi_retraction(q: QPoint, params: RetractionParams) -> QPoint:
    """Retract a configuration toward the collapsed cluster configuration.

    With rho the distance from `q` to the collapsed configuration q0, the map
    is the identity for rho <= s1, collapses everything onto the centers for
    rho >= s2, and in between moves each point toward its nearest center so
    that its new center distance is

        min(d_i, beta * min(d_i, s1)),   beta = (s2 - rho) / (s2 - s1).

    The cap by s1 puts every output point inside the s1-ball of its center
    regardless of how far stray input points sit, so the output always has
    exactly k_j points in B(p_j, s1); it also bounds the per-point movement
    rate by s1 / (s2 - s1), which keeps the sampled Lipschitz constant below
    1 + sqrt(Q) s1 / (s2 - s1).
    """
    sel = params.selection
    q0 = sel.collapsed()
    _check_compatible(q, q0)
    rho = metric_g(q, q0)
    if rho <= params.s1:
        return q
    if rho >= params.s2:
        return q0
    beta = (params.s2 - rho) / (params.s2 - params.s1)
    points, centers = q.points, sel.centers
    gaps = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    # Each point goes to its nearest center; argmin over the centers in
    # lexicographic order breaks ties toward the smallest, so the map is
    # deterministic.
    order = np.lexsort(centers.T[::-1])
    nearest = order[np.argmin(gaps[:, order], axis=1)]
    d = gaps[np.arange(len(nearest)), nearest]
    new_d = np.minimum(d, beta * np.minimum(d, params.s1))
    out = centers[nearest]
    moving = d > 0.0
    out[moving] += (points[moving] - out[moving]) * (new_d[moving] / d[moving])[:, None]
    return QPoint(out)


def lipschitz_bound(params: RetractionParams) -> float:
    """Stated Lipschitz bound 1 + sqrt(Q) s1 / (s2 - s1) for the retraction."""
    qn = params.selection.q_count
    return 1.0 + np.sqrt(qn) * params.s1 / (params.s2 - params.s1)
