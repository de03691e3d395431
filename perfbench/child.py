"""One measured call of a workload, in a fresh process.

Started by run.py, one child at a time.  The child imports qvlab from the
checkout's ``src``, notes the moment it is ready (the end of set-up), makes
one call and prints one JSON line with what it saw.  The parent takes the
call's CPU time as the child's total, from ``os.wait4``, minus the
``cpu_call`` reading made just before the call.  With ``--probe`` the child
stops after set-up.  With ``--trace`` it wraps qvlab's public functions for
the call and writes the spans to a file.

Usage: python3 perfbench/child.py --workload NAME --seed N [--out PATH]
       [--trace SPANS_PATH --run-id K] | --probe
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import qvlab.cli

    ready = time.monotonic()
    if not os.path.abspath(qvlab.__file__).startswith(SRC + os.sep):
        print(f"qvlab was imported from {qvlab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    result = {"ready": ready}
    if args.probe:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    import workloads

    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    if args.workload == "qspace-matching":
        picks = workloads.pick_pairs(args.seed)
        batch = workloads.build_batch(qvlab.qspace, picks)
        result["picks"] = picks
        call = lambda: workloads.run_batch(qvlab.qspace, batch)  # noqa: E731
    else:
        argv = workloads.cli_argv(args.workload, args.out)
        call = lambda: qvlab.cli.main(argv)  # noqa: E731

    patches = recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(args.run_id)
        patches = spans.install(recorder)
    captured = io.StringIO()
    result["cpu_call"] = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            output = call()
    finally:
        wall = time.perf_counter() - start
        if patches is not None:
            spans.uninstall(patches)

    result["wall_s"] = wall
    result["stdout"] = captured.getvalue()
    if args.workload == "qspace-matching":
        result["rc"] = 0
        result["records"] = output
    else:
        result["rc"] = output
    if recorder is not None:
        with open(args.trace, "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
        result["layers"] = spans.layer_metrics(recorder.spans)
    print(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
