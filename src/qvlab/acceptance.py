"""Executable acceptance checks for the whole laboratory.

Each criterion is a self-contained function with fixed seeds and pinned
tolerances returning (passed, detail).  A criterion's number and name are
declared once, in `CRITERIA`, and `run_all` builds each CheckResult from
that entry; it prints one PASS/FAIL line per criterion on stdout and its
wall time on stderr, in criterion order.  The criteria share no state, so
`run_all` runs them in one process per usable CPU: workers forked after
import, each with a fixed share.  The pytest suite asserts the same results,
and the command-line `verify-all` subcommand drives them with exit code 0
only if every check passes.  The audit criteria 3, 4 and 7
reduce over the blocks of `func1d.audit_intervals` and never hold it whole.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import branch as branchmod
from . import constructions as cons
from . import disk2d
from . import func1d
from . import qspace

__all__ = ["CheckResult", "CRITERIA", "run_all"]


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:2d} {self.name}: {self.detail}"


@functools.cache
def _permutations(q: int) -> np.ndarray:
    """Every permutation of range(q), one per row."""
    return np.array(list(itertools.permutations(range(q))), dtype=np.intp)


def _exhaustive_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    """The oracle for `metric_g`: the least sum of pair costs over all permutations, in row order."""
    q = pa.shape[0]
    cost = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    perms = _permutations(q)
    total = cost[0, perms[:, 0]]
    for i in range(1, q):
        total = total + cost[i, perms[:, i]]
    return math.sqrt(total.min())


def _worst(pick, worst: float, value: float) -> float:
    """pick (max or min) of the running worst and a new value, or NaN from
    the first value that is not finite on: a NaN or infinite figure fails
    every bound, where max(0.0, nan) and min(inf, nan) would drop it."""
    return pick(worst, value) if math.isfinite(value) and not math.isnan(worst) else math.nan


def check_metric_oracle() -> tuple[bool, str]:
    """metric_g equals the exhaustive-permutation minimum (Q <= 6, n <= 3)."""
    rng = np.random.default_rng(12001)
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(1, 7))
        n = int(rng.integers(1, 4))
        pa = rng.normal(0.0, 5.0, (q, n))
        pb = rng.normal(0.0, 5.0, (q, n))
        got = qspace.metric_g(qspace.QPoint(pa), qspace.QPoint(pb))
        ref = _exhaustive_distance(pa, pb)
        worst = _worst(max, worst, abs(got - ref) / ref if ref > 0 else abs(got - ref))
    return worst <= 1e-12, f"worst relative error {worst:.3e} (tol 1e-12)"


def check_minimizer_exactness() -> tuple[bool, str]:
    """Interval minimizer energy matches the closed form and beats 1e5 competitors."""
    rng = np.random.default_rng(12002)
    worst_rel = 0.0
    beaten = 0
    trials = 0
    interior = 8
    for _ in range(1000):
        q = int(rng.integers(1, 5))
        a, b = 0.0, float(rng.uniform(0.2, 3.0))
        va = qspace.QPoint(rng.normal(0.0, 2.0, (q, 1)))
        vb = qspace.QPoint(rng.normal(0.0, 2.0, (q, 1)))
        closed = func1d.minimizer_energy(va, vb, a, b)
        u_min = func1d.exact_minimizer(va, vb, a, b)
        integrated = func1d.dirichlet_energy(u_min, a, b)
        gsq = qspace.metric_g(va, vb) ** 2
        scale = max(closed, 1e-30)
        for error in (abs(integrated - closed) / scale, abs(gsq / (b - a) - closed) / scale):
            worst_rel = _worst(max, worst_rel, error)
        # 100 random sorted piecewise-affine competitors with the same boundary
        xs = np.linspace(a, b, interior + 2)
        vals = rng.normal(0.0, 2.0, (100, q, interior))
        vals.sort(axis=1)
        sa = np.sort(va.points[:, 0])
        sb = np.sort(vb.points[:, 0])
        columns = np.concatenate(
            (np.broadcast_to(sa[None, :, None], (100, q, 1)), vals, np.broadcast_to(sb[None, :, None], (100, q, 1))),
            axis=2,
        )
        energies = ((np.diff(columns, axis=2) ** 2) / np.diff(xs)).sum(axis=(1, 2))
        trials += energies.size
        beaten += int(np.sum(energies < closed * (1 - 1e-12)))
    passed = worst_rel <= 1e-12 and beaten == 0
    return passed, (
        f"worst closed-form error {worst_rel:.3e} (tol 1e-12); {beaten} of {trials} competitors beat the minimizer"
    )


def check_pluri_diamond_bound() -> tuple[bool, str]:
    """Quasiminimality factor of diamond refinements stays below 4."""
    worst_sup = 0.0
    for level in range(1, 9):
        u = cons.cantor_level(cons.CantorConstruction(level, "diamond"))
        sup = func1d._audit_supremum(u, "quasi_k")
        worst_sup = _worst(max, worst_sup, sup)
        if level == 1:
            level1_sup = sup
            level1_witness = func1d.quasi_k_ratio(u, [(1.0 / 3.0, 2.0 / 3.0)]).supremum
    passed = (
        worst_sup <= 4.0 + 1e-9
        and abs(level1_sup - 2.0) <= 1e-9
        and abs(level1_witness - 2.0) <= 1e-12
    )
    return passed, (
        f"sup over levels 1-8 = {worst_sup:.12f} (<= 4+1e-9); level-1 sup {level1_sup:.12f}, "
        f"ratio on (1/3, 2/3) = {level1_witness:.15f}"
    )


def check_endpoint_gap() -> tuple[bool, str]:
    """Squared endpoint distance of diamond refinements dominates (b-a)^2 / 2."""
    worst = np.inf
    for level in range(1, 9):
        u = cons.cantor_level(cons.CantorConstruction(level, "diamond"))
        for block in func1d.audit_intervals(u, 12).blocks():
            a, b, gsq = func1d._end_gaps(u, *block)
            w = b - a
            worst = _worst(min, worst, float(np.min(gsq / (0.5 * w * w))))
    # The inequality is exact; the 1e-9 guard absorbs interpolation rounding
    # at micro-intervals (measured deficit is below 1e-10).
    passed = worst >= 1.0 - 1e-9
    return passed, f"min gsq / ((b-a)^2/2) = {worst:.12f} (>= 1 - 1e-9)"


def check_sin_inequality() -> tuple[bool, str]:
    """Normalized single-branch ratio stays below one, peaking at the domain ends."""
    delta = 5e-4
    half = cons.SIN_HALF_WIDTH
    xs = np.linspace(-(half - delta), half - delta, 200)
    rs = np.logspace(np.log10(1e-4), np.log10(0.75), 200)
    best = -np.inf
    arg = (0.0, 0.0)
    for x in xs:
        limit = half - abs(x)
        for r in rs[rs < limit]:
            f = cons.sin_w_ratio(float(x), float(r)) * math.sin(r) ** 2 / r**2
            if f > best or math.isnan(f):
                best, arg = f, (float(x), float(r))
    near_edge = abs(half - abs(arg[0])) <= 1e-3
    passed = best <= 1.0 + 1e-12 and near_edge
    return passed, (
        f"max W sin^2(r)/r^2 = {best:.15f} (<= 1+1e-12) at x = {arg[0]:+.6f}, r = {arg[1]:.2e}; "
        f"|x| within 1e-3 of pi/4: {near_edge}"
    )


def check_omega_decay() -> tuple[bool, str]:
    """omega_sin decreases strictly to zero as r decreases on (0, 1]."""
    rs = np.linspace(1.0, 1e-4, 500)
    vals = np.array([cons.omega_sin(float(r)) for r in rs])
    monotone = bool(np.all(np.diff(vals) < 0))
    at_001 = cons.omega_sin(0.01)
    tail = vals[-1]
    passed = monotone and at_001 <= 3.4e-5 and tail <= 1e-8
    return passed, (
        f"strictly decreasing along r down: {monotone}; omega(0.01) = {at_001:.4e} (<= 3.4e-5); "
        f"omega(1e-4) = {tail:.2e}"
    )


def check_losange_almost() -> tuple[bool, str]:
    """Additive-allowance constant of losange refinements stays below 2."""
    worst = 0.0
    for level in range(1, 9):
        u = cons.cantor_level(cons.CantorConstruction(level, "losange"))
        worst = _worst(max, worst, func1d._audit_supremum(u, "almost", alpha=0.5))
    single = cons.make_losange(0.0, 1.0)
    full_ball = func1d.almost_deficiency(single, 0.5, [(0.5, 0.5)]).supremum
    exact_sqrt2 = abs(full_ball - math.sqrt(2.0)) <= 1e-12
    passed = worst <= 2.0 and exact_sqrt2
    return passed, (
        f"sup deficiency over levels 1-8 = {worst:.12f} (<= 2); full-losange ball = {full_ball:.15f} "
        f"(= sqrt(2) to 1e-12: {exact_sqrt2})"
    )


def check_branch_dimension() -> tuple[bool, str]:
    """Box dimension, vanishing ternary measure, fat residual lower bound."""
    approx, _ = cons.cantor_limit("diamond", 10)
    sc = branchmod.scan(approx, 3**10 + 1)
    slope = branchmod.box_dimension(sc, [3.0**-k for k in range(3, 10)])
    dim_ok = 0.60 <= slope <= 0.66
    del approx, sc  # no scan outlives its figure, so no two level-10 scans are held at once

    measures = []
    for level in range(4, 11, 2):
        u = cons.cantor_level(cons.CantorConstruction(level, "diamond"))
        measures.append(branchmod.measure_at_scale(branchmod.scan(u, 3**level + 1), 3.0**-level))
    ternary_ok = bool(np.all(np.diff(measures) < 0)) and measures[-1] <= 0.1

    fat, _ = cons.cantor_limit("diamond", 10, schedule="fat")
    fat_scan = branchmod.scan(fat, 4097)
    fat_measure = branchmod.measure_at_scale(fat_scan, 0.01)
    residual = cons.fat_residual_length(10)
    fat_ok = fat_measure >= residual - 0.02

    passed = dim_ok and ternary_ok and fat_ok
    return passed, (
        f"box dimension {slope:.4f} in [0.60, 0.66]: {dim_ok}; ternary measures {np.round(measures, 4).tolist()} "
        f"decreasing to <= 0.1: {ternary_ok}; fat measure {fat_measure:.4f} >= {residual:.4f} - 0.02: {fat_ok}"
    )


def check_energy_decay() -> tuple[bool, str]:
    """Decay exponent of the level-8 diamond refinement beats 1/(K Q) = 1/8."""
    rng = np.random.default_rng(12009)
    u = cons.cantor_level(cons.CantorConstruction(8, "diamond"))
    scales = np.logspace(0, -2, 12)
    slopes = [
        func1d.energy_decay_exponent(u, float(rng.uniform(0.05, 0.95)), 0.04, scales) for _ in range(20)
    ]
    low = functools.reduce(functools.partial(_worst, min), slopes, math.inf)
    passed = low >= 1.0 / 8.0 - 0.01
    return passed, f"min slope over 20 random centers = {low:.4f} (>= 1/8 - 0.01 = {1/8 - 0.01:.4f})"


def _random_trace(rng: np.random.Generator) -> disk2d.CircleTraceQ:
    q = int(rng.integers(1, 4))
    mode_cap = int(rng.integers(1, 65))
    n = 256
    angles = 2.0 * np.pi * np.arange(n) / n
    rows = []
    for _ in range(q):
        k = np.arange(mode_cap + 1)
        amp = 1.0 / (1.0 + k) ** 1.5
        a = rng.normal(0.0, amp)
        b = rng.normal(0.0, amp)
        b[0] = 0.0
        rows.append(a @ np.cos(np.outer(k, angles)) + b @ np.sin(np.outer(k, angles)) + rng.normal(0.0, 2.0))
    return disk2d.sorted_trace(np.array(rows), n, 64)


def check_squeeze_2d() -> tuple[bool, str]:
    """Interior energy never exceeds Q r times the boundary energy."""
    rng = np.random.default_rng(12010)
    worst = np.inf
    for _ in range(200):
        _, margin = disk2d.check_squeeze_2d(disk2d.minimize_disk(_random_trace(rng)))
        worst = _worst(min, worst, margin)
    pure = disk2d.minimize_disk(disk2d.sorted_trace(np.cos, 512, 64))
    _, pure_margin = disk2d.check_squeeze_2d(pure)
    passed = worst >= 0.0 and abs(pure_margin) <= 1e-12
    return passed, (
        f"min margin over 200 random sorted traces = {worst:.6e} (>= 0); pure k=1 margin = {pure_margin:.3e}"
    )


def _random_selection(rng: np.random.Generator, q: int, n: int) -> qspace.ClusterSelection:
    j = int(rng.integers(2, min(q, 4) + 1))
    while True:
        centers = rng.normal(0.0, 10.0, (j, n))
        gaps = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
        if gaps[np.triu_indices(j, 1)].min() > 1.0:
            break
    ks = np.ones(j, dtype=int)
    for _ in range(q - j):
        ks[rng.integers(0, j)] += 1
    return qspace.ClusterSelection(
        cluster_count=j,
        multiplicities=tuple(int(k) for k in ks),
        centers=centers,
        radius=0.01,
        s0=0.005,
        separation_k=1.5,
    )


def check_retraction_contract() -> tuple[bool, str]:
    """Identity inside s1, collapse beyond s2, contraction, sampled Lipschitz bound."""
    rng = np.random.default_rng(12011)
    violations = 0
    for _ in range(500):
        q = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        sel = _random_selection(rng, q, n)
        params = qspace.RetractionParams.from_selection(sel, s1=float(rng.uniform(0.05, 0.8)) * sel.min_center_gap() / 2.0)
        q0 = sel.collapsed()
        scale = float(rng.choice([0.4, 0.95, 1.3, 2.5, 8.0])) * params.s1
        disp = rng.normal(0.0, 1.0, (q, n))
        disp *= scale / np.sqrt((disp**2).sum())
        probe = qspace.QPoint(q0.points + disp)
        rho = qspace.metric_g(probe, q0)
        image = qspace.semi_retraction(probe, params)
        if rho <= params.s1 and not np.array_equal(image.points, probe.points):
            violations += 1
        if rho >= params.s2 and qspace.metric_g(image, q0) != 0.0:
            violations += 1
        if not qspace.metric_g(probe, image) <= rho * (1.0 + 1e-12) + 1e-15:
            violations += 1

    lip_violations = 0
    rng2 = np.random.default_rng(12111)
    for _ in range(1000):
        q = int(rng2.integers(2, 7))
        n = int(rng2.integers(1, 4))
        sel = _random_selection(rng2, q, n)
        params = qspace.RetractionParams.from_selection(sel, s1=float(rng2.uniform(0.05, 0.8)) * sel.min_center_gap() / 2.0)
        q0 = sel.collapsed()
        base = q0.points + rng2.normal(0.0, params.s2 * 0.5, (q, n))
        other = base + rng2.normal(0.0, params.s1 * 0.2, (q, n))
        qa, qb = qspace.QPoint(base), qspace.QPoint(other)
        lhs = qspace.metric_g(qspace.semi_retraction(qa, params), qspace.semi_retraction(qb, params))
        rhs = qspace.lipschitz_bound(params) * qspace.metric_g(qa, qb)
        if not lhs <= rhs * (1.0 + 1e-9):
            lip_violations += 1
    passed = violations == 0 and lip_violations == 0
    return passed, (
        f"{violations} contract violations over 500 configurations; "
        f"{lip_violations} Lipschitz-bound violations over 1000 pairs"
    )


def check_cluster_selection() -> tuple[bool, str]:
    """Separation, collapse distance, single-cluster diameter, sampled cover."""
    rng = np.random.default_rng(12012)
    violations = 0
    z_violations = 0
    for trial in range(200):
        q = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        style = trial % 4
        if style == 0:
            pts = rng.normal(0.0, 1.0, (q, n))
        elif style == 1:
            pts = rng.normal(0.0, 1.0, (q, n)) * 1e-3
        elif style == 2:
            m = int(rng.integers(1, q + 1))
            centers = rng.normal(0.0, 50.0, (m, n))
            pts = centers[rng.integers(0, m, q)] + rng.normal(0.0, 1e-2, (q, n))
        else:
            pts = rng.normal(0.0, 10.0, (q, n))
        a = qspace.QPoint(pts)
        s0 = float(rng.uniform(0.01, 2.0))
        k = float(rng.uniform(1.1, 3.0))
        sel = qspace.select_clusters(a, s0, k)  # separation is validated on construction
        q0 = sel.collapsed()
        c_q = qspace.c_of_q(q, k)
        if not qspace.metric_g(a, q0) <= c_q * s0 / math.sqrt(q - 1) + 1e-12:
            violations += 1
        if not (s0 <= sel.radius <= c_q * s0 * (1 + 1e-12)):
            violations += 1
        if sel.cluster_count == 1:
            diam = float(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).max())
            if not diam <= c_q * s0 / (q - 1) + 1e-12:
                violations += 1
        for _ in range(100):
            disp = rng.normal(0.0, 1.0, (q, n))
            disp *= s0 * float(rng.uniform(0.0, 1.0)) / max(float(np.sqrt((disp**2).sum())), 1e-300)
            z = qspace.QPoint(pts + disp)
            if not qspace.metric_g(z, q0) <= sel.radius + 1e-9:
                z_violations += 1
    passed = violations == 0 and z_violations == 0
    return passed, (
        f"{violations} deterministic violations over 200 instances; "
        f"{z_violations} cover violations over 20000 sampled nearby configurations"
    )


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "metric-oracle", check_metric_oracle),
    (2, "minimizer-exactness", check_minimizer_exactness),
    (3, "pluri-diamond-bound", check_pluri_diamond_bound),
    (4, "endpoint-gap", check_endpoint_gap),
    (5, "sin-inequality", check_sin_inequality),
    (6, "omega-decay", check_omega_decay),
    (7, "losange-almost", check_losange_almost),
    (8, "branch-dimension", check_branch_dimension),
    (9, "energy-decay", check_energy_decay),
    (10, "squeeze-2d", check_squeeze_2d),
    (11, "retraction-contract", check_retraction_contract),
    (12, "cluster-selection", check_cluster_selection),
]


def _run(fn) -> tuple[bool, str, float] | Exception:
    """One criterion's (passed, detail, wall seconds), or the exception it raised."""
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        return exc
    return passed, detail, time.perf_counter() - start


def _run_share(criteria, share) -> dict:
    """The outcomes, by index, of the criteria in `share`, up to the first that raises."""
    outcomes = {}
    for index in share:
        outcomes[index] = _run(criteria[index][2])
        if isinstance(outcomes[index], Exception):
            break
    return outcomes


def _fork_share(criteria, share):
    """Fork a worker that runs `share` and pickles its outcomes into a pipe.

    Returns (pid, the pipe's read end), or None if the fork fails.  The
    worker prints nothing and leaves by `os._exit`; if it cannot send its
    outcomes (an exception that does not pickle), it sends none.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork with threads alive, and numpy's BLAS
            # has threads; its builds re-create them in the child.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = memoryview(pickle.dumps(_run_share(criteria, share)))
            while data:
                data = data[os.write(write_end, data) :]
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _run_shares(criteria) -> dict:
    """Run the criteria side by side, one process per usable CPU, and return
    the outcomes by index that came back.

    Worker w (the parent is worker 0) runs the indices i with i % workers
    == w.  Every worker is reaped before this returns or raises.  With one
    CPU or one criterion, or where the affinity mask cannot be read (no
    `os.sched_getaffinity`, as on macOS and Windows), it runs nothing.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(criteria))
    if workers < 2:
        return {}
    # A worker that wrote anything (a warning, say) would write its copy of what is pending too.
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for worker in range(1, workers):
            child = _fork_share(criteria, range(worker, len(criteria), workers))
            if child is not None:
                children.append(child)
        outcomes = _run_share(criteria, range(0, len(criteria), workers))
        for _, pipe in children:
            data = pipe.read()
            outcomes.update(pickle.loads(data) if data else {})
        return outcomes
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def run_all() -> list[CheckResult]:
    """Run every criterion; its result line goes to stdout and its own wall
    time to stderr, in criterion order.

    The criteria run side by side in `_run_shares`; a criterion whose outcome
    did not come back (its fork failed, or its worker died) runs here.  An
    exception a criterion raised is raised here, after the lines of the
    criteria before it and with none after it.
    """
    criteria = CRITERIA
    outcomes = _run_shares(criteria)
    results = []
    for index, (number, name, fn) in enumerate(criteria):
        outcome = outcomes[index] if index in outcomes else _run(fn)
        if isinstance(outcome, Exception):
            raise outcome
        passed, detail, seconds = outcome
        results.append(CheckResult(number, name, passed, detail))
        print(results[-1].line())
        print(f"[time] {number} {name} {seconds:.3f} s", file=sys.stderr)
    return results
