"""The benchmark's workloads: their inputs, the call each child makes, and the
checks of each output against the references in ``reference.json``.

Every workload is closed loop: one client makes one call at a time, in one
child process, and the next call starts only after the previous child ended.

- ``audit-quasi-csv`` and ``audit-almost-json`` are CLI audits of a level-7
  Cantor refinement. Their family is dominated by breakpoint pairs, and most
  of their time is spent writing the report, so they show changes to the
  interval family, the audit evaluation and the two writers.
- ``verify-all`` is the acceptance suite: compute-bound, no files written.
- ``qspace-matching`` calls the configuration-space functions directly on
  pairs drawn from a fixed pool. It is the only workload that reaches the
  exhaustive matching path (Q = 7, 8) and the assignment path (Q > 8).

Only ``qspace-matching`` depends on the seed: the CLI workloads are fixed by
their argv, and the acceptance suite pins its own seeds.
"""

from __future__ import annotations

import math
import os

WORKLOADS = ("audit-quasi-csv", "audit-almost-json", "verify-all", "qspace-matching")

# argv and output-file suffix of the CLI workloads; "--out" is appended per call.
CLI_CALLS = {
    "audit-quasi-csv": (
        ["audit", "cantor-diamond", "--level", "7", "--depth", "8", "--mode", "quasi", "--format", "csv"],
        ".csv",
    ),
    "audit-almost-json": (
        ["audit", "cantor-losange", "--level", "7", "--depth", "8", "--mode", "almost", "--alpha", "0.5",
         "--format", "json"],
        ".json",
    ),
    "verify-all": (["verify-all"], None),
}

# qspace-matching: every (Q, n) cell contributes the same number of pairs, so
# the time of a call does not depend on which pairs the seed picks.
Q_VALUES = tuple(range(2, 13))
N_VALUES = (1, 2, 3)
POOL_PER_CELL = 40
PICKED_PER_CELL = 20
POOL_SEED = 7061077
RELATIVE_TOL = 1e-12  # the tolerance acceptance criterion 1 uses for metric_g


def cli_argv(workload: str, out_path: str | None) -> list[str]:
    argv, suffix = CLI_CALLS[workload]
    return argv + ["--out", out_path] if suffix else list(argv)


def cell_key(q: int, n: int) -> str:
    return f"q{q}-n{n}"


def pool_cell(q: int, n: int) -> list[dict]:
    """The fixed pool of inputs of one (Q, n) cell.

    Three shapes alternate: spread points, well-separated clusters, and pairs
    that are small perturbations of each other.  Each entry also carries the
    parameters of the cluster selection, the support tolerance and the probe
    fed to the semi-retraction.
    """
    import numpy as np

    rng = np.random.default_rng((POOL_SEED, q, n))
    entries = []
    for index in range(POOL_PER_CELL):
        style = index % 3
        if style == 0:
            a = rng.normal(0.0, 1.0, (q, n))
            b = rng.normal(0.0, 1.0, (q, n))
        elif style == 1:
            m = int(rng.integers(2, min(q, 4) + 1))
            centers = rng.normal(0.0, 1e4, (m, n))
            a = centers[rng.integers(0, m, q)] + rng.normal(0.0, 1e-3, (q, n))
            b = centers[rng.integers(0, m, q)] + rng.normal(0.0, 1e-3, (q, n))
        else:
            a = rng.normal(0.0, 10.0, (q, n))
            b = a + rng.normal(0.0, 0.5, (q, n))
        direction = rng.normal(0.0, 1.0, (q, n))
        direction /= math.sqrt(float((direction**2).sum()))
        entries.append(
            {
                "a": a,
                "b": b,
                "s0": float(rng.uniform(0.01, 2.0)),
                "k": float(rng.uniform(1.1, 3.0)),
                "tol": float(rng.choice([0.0, 0.05, 0.5])),
                "s1_share": float(rng.uniform(0.05, 0.8)),
                "probe_dir": direction,
                "probe_scale": float(rng.choice([0.4, 0.95, 1.3, 2.5])),
            }
        )
    return entries


def pick_pairs(seed: int) -> list[tuple[str, int]]:
    """The (cell, pool index) pairs of one call, in the order they run."""
    import numpy as np

    rng = np.random.default_rng(seed)
    picks = [
        (cell_key(q, n), int(i))
        for q in Q_VALUES
        for n in N_VALUES
        for i in rng.choice(POOL_PER_CELL, PICKED_PER_CELL, replace=False)
    ]
    order = rng.permutation(len(picks))
    return [picks[i] for i in order]


def build_batch(qspace, picks) -> list[tuple]:
    """Turn pool entries into ready-made QPoint inputs (done before timing)."""
    pools = {}
    batch = []
    for key, index in picks:
        if key not in pools:
            q, n = (int(part[1:]) for part in key.split("-"))
            pools[key] = pool_cell(q, n)
        e = pools[key][index]
        batch.append(
            (qspace.QPoint(e["a"]), qspace.QPoint(e["b"]), e["s0"], e["k"], e["tol"], e["s1_share"],
             e["probe_dir"], e["probe_scale"])
        )
    return batch


def run_batch(qspace, batch) -> list[list]:
    """The timed part of a qspace-matching call.

    Per pair: the distance, the cluster selection and the support of one side
    and, when the selection has at least two clusters, the semi-retraction of
    a probe placed near its collapsed configuration.  Functions are looked up
    on the module at call time, so a traced run sees every call.
    """
    records = []
    for a, b, s0, k, tol, s1_share, probe_dir, probe_scale in batch:
        distance = qspace.metric_g(a, b)
        selection = qspace.select_clusters(a, s0, k)
        support = qspace.support_with_multiplicity(a, tol)
        retracted = None
        if selection.cluster_count >= 2:
            s1 = s1_share * 0.5 * selection.min_center_gap()
            params = qspace.RetractionParams.from_selection(selection, s1=s1)
            probe = qspace.QPoint(selection.collapsed().points + probe_dir * (probe_scale * s1))
            retracted = float((qspace.semi_retraction(probe, params).points ** 2).sum())
        records.append(
            [distance, selection.radius, list(selection.multiplicities), [m for _, m in support], retracted]
        )
    return records


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= RELATIVE_TOL * abs(want) if want else abs(got) <= RELATIVE_TOL


def check_pairs(reference: dict, picks, records) -> list[str]:
    """Distances within RELATIVE_TOL of the reference, cluster counts exact."""
    if len(records) != len(picks):
        return [f"expected {len(picks)} records, got {len(records)}"]
    problems = []
    for (key, index), got in zip(picks, records):
        want = reference["cells"][key][index]
        for field, g, w in (("distance", got[0], want[0]), ("radius", got[1], want[1]),
                            ("retraction", got[4], want[4])):
            if not _close(g, w):
                problems.append(f"{key}[{index}] {field} {g!r} != reference {w!r}")
        if got[2] != want[2] or got[3] != want[3]:
            problems.append(f"{key}[{index}] multiplicities {got[2:4]} != reference {want[2:4]}")
    return problems


def check_audit(reference: dict, rc: int, stdout: str, sha256: str | None) -> list[str]:
    """Byte-identical output file and identical summary line."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if sha256 != reference["sha256"]:
        problems.append(f"output sha256 {sha256} != reference {reference['sha256']}")
    if stdout.rstrip("\n") != reference["summary"]:
        problems.append(f"summary {stdout.strip()!r} != reference {reference['summary']!r}")
    return problems


def check_verify(reference: dict, rc: int, stdout: str) -> list[str]:
    """Exit 0, twelve [PASS] lines, each line starting with its reference text.

    Matching by prefix lets a later version append per-criterion times.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = stdout.splitlines()
    want = reference["lines"]
    passes = sum(line.startswith("[PASS]") for line in lines)
    if passes != 12:
        problems.append(f"{passes} [PASS] lines, expected 12")
    if len(lines) != len(want):
        problems.append(f"{len(lines)} lines, expected {len(want)}")
    for got, ref in zip(lines, want):
        if not got.startswith(ref):
            problems.append(f"line {got!r} does not start with {ref!r}")
    return problems


def check(workload: str, reference: dict, result: dict, sha256: str | None) -> list[str]:
    """Every difference between a child's output and the reference."""
    ref = reference[workload]
    if workload == "qspace-matching":
        return check_pairs(ref, [tuple(p) for p in result["picks"]], result["records"])
    if workload == "verify-all":
        return check_verify(ref, result["rc"], result["stdout"])
    return check_audit(ref, result["rc"], result["stdout"], sha256)


def output_path(workdir: str, workload: str) -> str | None:
    suffix = CLI_CALLS.get(workload, (None, None))[1]
    return os.path.join(workdir, workload + suffix) if suffix else None
