"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics computed from its spans.

`install` wraps the public functions of qvlab's modules from outside.  A call
resolves a name in the module that makes the call, so each wrapper is patched
in every qvlab module that holds the original object: ``branch`` imports
``branch_values`` by name, so ``branch.branch_values`` is patched as well as
``func1d.branch_values``.  The acceptance criteria are reached through
``acceptance.CRITERIA``, so that list is replaced too.  `uninstall` puts every
original object back.

A span is ``[name, start, end, parent, run_id, counts]``: ``parent`` is the
index of the enclosing span or -1, and ``counts`` holds what the call did
(rows, bytes, grid points, Q and n).  A layer's self time is its span's
duration minus the part of it that its child spans cover.  Every ``*.s``
metric, and ``cli.main.self_s``, is a sum of self times, so the layer times
of one call add up to the time spent inside traced functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

NAME, START, END, PARENT, RUN, COUNTS = range(6)

MODULES = ("cli", "constructions", "func1d", "qspace", "branch", "disk2d", "acceptance")
METHODS = (("func1d", "MinimalityReport", "to_csv"), ("func1d", "MinimalityReport", "to_json"))

CRITERIA = (
    "metric-oracle", "minimizer-exactness", "pluri-diamond-bound", "endpoint-gap", "sin-inequality",
    "omega-decay", "losange-almost", "branch-dimension", "energy-decay", "squeeze-2d",
    "retraction-contract", "cluster-selection",
)

AUDITS = ("func1d.quasi_k_ratio", "func1d.almost_deficiency", "func1d.omega_report")
WRITERS = ("func1d.MinimalityReport.to_csv", "func1d.MinimalityReport.to_json")

# metric_g buckets, from each call's own Q and n.  Q <= 6 with n > 1 includes
# the trivial Q = 1 calls of acceptance criterion 1.
METRIC_G_BUCKETS = ("n1", "q2-6", "q7-8", "q9-12")

# Every per-layer metric, in the order BENCHMARK.json lists them.  "<span>.s"
# is the summed self time of the spans with that name.
PER_LAYER = (
    "cli.main.self_s",
    "constructions.cantor_level.s",
    "func1d.audit_intervals.s",
    "func1d.audit_intervals.rows",
    "func1d.quasi_k_ratio.s",
    "func1d.almost_deficiency.s",
    "func1d.energy_between.s",
    "func1d.matching_distance_sq.s",
    "func1d.branch_values.s",
    "func1d.audit.rows_in",
    "func1d.audit.rows_kept",
    "func1d.audit.inf_figures",
    "func1d.MinimalityReport.to_csv.s",
    "func1d.MinimalityReport.to_json.s",
    "serialize.bytes_out",
    "serialize.mb_per_s",
    "qspace.metric_g.calls",
    "qspace.metric_g.s",
) + tuple(f"qspace.metric_g.us_per_call.{b}" for b in METRIC_G_BUCKETS) + (
    "qspace.select_clusters.s",
    "qspace.support_with_multiplicity.s",
    "qspace.semi_retraction.s",
    "branch.scan.s",
    "branch.scan.grid_points",
    "branch.box_dimension.s",
    "branch.measure_at_scale.s",
    "disk2d.sorted_trace.s",
    "disk2d.minimize_disk.s",
) + tuple(f"acceptance.{name}.s" for name in CRITERIA) + ("trace.overhead_s",)


def unit(metric: str) -> str:
    if metric == "serialize.bytes_out":
        return "bytes"
    if metric == "serialize.mb_per_s":
        return "MB/s"
    if ".us_per_call." in metric:
        return "us"
    return "s" if metric.endswith((".s", "_s")) else "count"

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _audit_counts(rows_in):
    def counts(args, kwargs, report):
        import numpy as np

        return {
            "rows_in": rows_in(args, kwargs),
            "rows_kept": int(report.figure.size),
            "inf_figures": int(np.count_nonzero(np.isinf(report.figure))),
        }

    return counts


def _metric_g_counts(args, kwargs, _result):
    a = _arg(args, kwargs, 0, "a")
    return {"q": a.q_count, "n": a.ambient_dim}


def _written_bytes(args, kwargs, _result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# Counts taken after a call returns, outside its span.
COUNTERS = {
    "func1d.audit_intervals": lambda args, kwargs, family: {"rows": int(len(family))},
    "func1d.quasi_k_ratio": _audit_counts(lambda args, kwargs: len(_arg(args, kwargs, 1, "intervals"))),
    "func1d.almost_deficiency": _audit_counts(lambda args, kwargs: len(_arg(args, kwargs, 2, "balls"))),
    "func1d.omega_report": _audit_counts(
        lambda args, kwargs: len(_arg(args, kwargs, 1, "radii")) * len(_arg(args, kwargs, 2, "centers"))
    ),
    "func1d.MinimalityReport.to_csv": _written_bytes,
    "func1d.MinimalityReport.to_json": _written_bytes,
    "qspace.metric_g": _metric_g_counts,
    "branch.scan": lambda args, kwargs, _scan: {"grid_points": int(_arg(args, kwargs, 1, "grid_size"))},
}


class Recorder:
    """Collects spans in memory; one recorder per traced call."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, open_spans, run_id, clock = self.spans, self._open, self.run_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, run_id, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> list[tuple]:
    """Wrap qvlab's public functions; returns the patches `uninstall` undoes."""
    modules = {short: importlib.import_module(f"qvlab.{short}") for short in MODULES}
    holders = [m for key, m in sorted(sys.modules.items()) if m is not None and key.split(".")[0] == "qvlab"]
    acceptance = modules["acceptance"]
    criterion_names = {fn: name for _, name, fn in acceptance.CRITERIA}
    patches: list[tuple] = []
    wrappers = {}

    def patch(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"acceptance.{criterion_names[obj]}" if obj in criterion_names else f"{short}.{attr}"
            wrappers[obj] = recorder.wrap(name, obj, COUNTERS.get(name))
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patch(holder, attr, wrappers[obj])
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{method}"
        patch(cls, method, recorder.wrap(name, vars(cls)[method], COUNTERS.get(name)))
    patch(acceptance, "CRITERIA", [(num, name, wrappers.get(fn, fn)) for num, name, fn in acceptance.CRITERIA])
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][START]):
            lo, hi = max(spans[child][START], reach), min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _metric_g_bucket(q: int, n: int) -> str:
    if n == 1:
        return "n1"
    return "q2-6" if q <= 6 else "q7-8" if q <= 8 else "q9-12"


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of one traced call except trace.overhead_s."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    bucket_s = {b: 0.0 for b in METRIC_G_BUCKETS}
    bucket_calls = {b: 0 for b in METRIC_G_BUCKETS}
    for span, own in zip(spans, self_times(spans)):
        name, counts = span[NAME], span[COUNTS]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if counts:
            for key, value in counts.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
            if name == "qspace.metric_g":
                bucket = _metric_g_bucket(counts["q"], counts["n"])
                bucket_s[bucket] += own
                bucket_calls[bucket] += 1

    out = {metric: self_s.get(metric[:-2], 0.0) for metric in PER_LAYER if metric.endswith(".s")}
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["func1d.audit_intervals.rows"] = totals.get("func1d.audit_intervals.rows", 0)
    for key in ("rows_in", "rows_kept", "inf_figures"):
        out[f"func1d.audit.{key}"] = sum(totals.get(f"{name}.{key}", 0) for name in AUDITS)
    written = sum(totals.get(f"{name}.bytes", 0) for name in WRITERS)
    writing_s = sum(self_s.get(name, 0.0) for name in WRITERS)
    out["serialize.bytes_out"] = written
    out["serialize.mb_per_s"] = written / 1e6 / writing_s if writing_s > 0 else 0.0
    out["qspace.metric_g.calls"] = calls.get("qspace.metric_g", 0)
    for bucket in METRIC_G_BUCKETS:
        count = bucket_calls[bucket]
        out[f"qspace.metric_g.us_per_call.{bucket}"] = 1e6 * bucket_s[bucket] / count if count else 0.0
    out["branch.scan.grid_points"] = totals.get("branch.scan.grid_points", 0)
    return out
