"""Record the reference outputs that every benchmark call is checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It writes perfbench/reference.json: the sha256 and summary line of each audit
workload, the verify-all output lines, and the qspace-matching record of every
entry of the input pool.  Rerun it only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qvlab.cli
    from qvlab import qspace

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    reference = {"commit": commit or None}
    workdir = os.path.join(HERE, "out", "work")
    os.makedirs(workdir, exist_ok=True)
    for name in workloads.CLI_CALLS:
        out_path = workloads.output_path(workdir, name)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = qvlab.cli.main(workloads.cli_argv(name, out_path))
        if rc != 0:
            raise SystemExit(f"{name} exited {rc}")
        if out_path:
            with open(out_path, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
            os.remove(out_path)
            reference[name] = {"sha256": sha, "summary": captured.getvalue().rstrip("\n")}
        else:
            reference[name] = {"lines": captured.getvalue().splitlines()}
    cells = {}
    for q in workloads.Q_VALUES:
        for n in workloads.N_VALUES:
            key = workloads.cell_key(q, n)
            picks = [(key, i) for i in range(workloads.POOL_PER_CELL)]
            cells[key] = workloads.run_batch(qspace, workloads.build_batch(qspace, picks))
    # One line per top-level entry and per qspace cell keeps the file diffable.
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n")
        for key in sorted(reference):
            fh.write(f"{json.dumps(key)}: {json.dumps(reference[key])},\n")
        fh.write(f'"qspace-matching": {{"pool_seed": {workloads.POOL_SEED}, "cells": {{\n')
        fh.write(",\n".join(f"{json.dumps(key)}: {json.dumps(records)}" for key, records in cells.items()))
        fh.write("\n}}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
