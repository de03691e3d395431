"""The qvlab benchmark: end-to-end metrics per workload, and a traced run for
the per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of audit-quasi-csv, audit-almost-json, verify-all and
qspace-matching (see workloads.py for why each exists).  A run first starts
SETUP_PROBES children that only import qvlab, then starts one child per call
until S seconds have passed; at least one call (two when traced) always runs.
Each child imports qvlab from ``src`` and makes one call (child.py).  Its
peak RSS and CPU time come from that child's own ``os.wait4`` rusage.

With ``--trace 0`` the run reports, as medians over its calls:
  wall_s       wall time of the call, measured inside the child
  cpu_s        user + system CPU time of the child from the start of the call
  peak_rss_mb  peak RSS of the child
  setup_s      time from spawning a child until qvlab is imported and ready
and prints error_rate (failed / attempted calls).  A call fails when its child
exits non-zero or its output differs from ``reference.json``.
With ``--trace 1`` traced and untraced calls alternate; the traced ones give
the per-layer metrics (spans.py) and trace.overhead_s, the median traced wall
time minus the median untraced one.  Traced outputs are checked too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans, per-call records and child stderr go
under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env(nproc: int) -> dict:
    """The parent's environment, QVLAB_THREADS removed, BLAS capped at nproc."""
    env = dict(os.environ)
    env.pop("QVLAB_THREADS", None)
    for var in BLAS_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            env[var] = str(nproc)
    return env


def spawn(cmd: list[str], env: dict, log, timeout: float):
    """Run one child to its end; returns (exit code, rusage, stdout, spawn time).

    The child is reaped with os.wait4, so the rusage is that child's alone.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT)
    chunks = []
    try:
        fd = proc.stdout.fileno()
        while True:
            left = spawned + timeout - time.monotonic()
            if left <= 0:
                print(f"child timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
                proc.kill()
                break
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, b"".join(chunks).decode(), spawned


def _last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over qvlab's sources, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "qvlab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            digest.update(open(os.path.join(package, name), "rb").read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc: int, env: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


def wall_tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def _call(workload, seed, index, traced, tag, reference, env, log) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    out_path = workloads.output_path(os.path.join(OUT, "work"), workload)
    if out_path:
        cmd += ["--out", out_path]
    if traced:
        cmd += ["--trace", os.path.join(OUT, "spans", f"{tag}-call{index}.jsonl"), "--run-id", str(index)]
    code, usage, text, spawned = spawn(cmd, env, log, CHILD_TIMEOUT_S)
    result = _last_json(text)
    record = {"index": index, "traced": traced, "exit": code}
    if result is None:
        problems = [f"child exited {code} without a result"]
    else:
        sha = _sha256(out_path) if out_path and os.path.exists(out_path) else None
        problems = workloads.check(workload, reference, result, sha)
        if code != 0 and not problems:
            problems = [f"exit code {code}"]
        record.update(
            wall_s=result["wall_s"],
            setup_s=result["ready"] - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime - result["cpu_call"],
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            versions=result["versions"],
            layers=result.get("layers"),
        )
    if out_path and os.path.exists(out_path):
        os.remove(out_path)
    record["problems"] = problems[:5]
    if problems:
        print(f"{workload} call {index} failed: {'; '.join(problems[:5])}", file=sys.stderr)
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    nproc = os.cpu_count() or 1
    env = child_env(nproc)
    for sub in ("work", "spans", "logs", "results"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    info = environment(nproc, env)
    info["load_before"] = os.getloadavg()
    with open(os.path.join(OUT, "logs", f"{tag}.stderr"), "wb") as log:
        setups = []
        for _ in range(SETUP_PROBES):
            code, _, text, spawned = spawn([sys.executable, CHILD, "--probe"], env, log, CHILD_TIMEOUT_S)
            probe = _last_json(text)
            if code != 0 or probe is None:
                raise SystemExit(f"set-up failed (exit {code}); see {log.name}")
            setups.append(probe["ready"] - spawned)
        calls = []
        start = time.monotonic()
        while time.monotonic() - start < seconds or len(calls) < (2 if trace else 1):
            traced = trace and len(calls) % 2 == 1
            calls.append(_call(workload, seed, len(calls), traced, tag, reference, env, log))
    info["load_after"] = os.getloadavg()
    info["versions"] = next((c["versions"] for c in calls if "versions" in c), None)

    timed = [c for c in calls if "wall_s" in c]
    plain = [c for c in timed if not c["traced"]]
    traced_calls = [c for c in timed if c["traced"]]
    if not plain or (trace and not traced_calls):
        raise SystemExit(f"{workload}: no call produced a result; see {OUT}/logs/{tag}.stderr")
    metrics = {}
    if trace:
        for name in spans.PER_LAYER[:-1]:
            metrics[name] = (statistics.median(c["layers"][name] for c in traced_calls), spans.unit(name))
        overhead = statistics.median(c["wall_s"] for c in traced_calls) - statistics.median(c["wall_s"] for c in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        for name, unit in END_TO_END:
            samples = setups + [c["setup_s"] for c in timed] if name == "setup_s" else [c[name] for c in plain]
            metrics[name] = (statistics.median(samples), unit)
    failed = sum(1 for c in calls if c["problems"])
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "environment": info,
               "setup_probes_s": setups, "calls": calls, "attempted": len(calls), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print("env " + json.dumps(info, sort_keys=True))
    walls = [c["wall_s"] for c in plain]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            tail = wall_tail(walls)
            note = (f"  median of {len(walls)}; p{tail[0]:.1f} = {tail[1]!r} s" if tail
                    else f"  median of {len(walls)}; no tail percentile below 11 samples")
        print(f"{workload:<18} {name:<44} {value!r} {unit}{note}")
    print(f"{workload:<18} {'error_rate':<44} {failed / len(calls)!r}  ({failed} of {len(calls)} calls failed)")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qvlab", "__init__.py")):
        print(f"no qvlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace), reference) for name in names]
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in s["metrics"].items()})
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
