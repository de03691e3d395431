"""Fast tests of the benchmark itself: span arithmetic, wrapper removal, and
failure accounting.  Run with ``python -m pytest perfbench``."""

import hashlib
import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b", 8.0, 9.5, 0),  # overlaps the previous child: counted once
    ]
    assert spans.self_times(tree) == [2.5, 2.0, 1.0, 4.0, 1.5]
    timed = [["func1d.branch_values", 0.0, 2.0, -1, 0, None], ["func1d.branch_values", 3.0, 3.5, -1, 0, None]]
    assert spans.layer_metrics(timed)["func1d.branch_values.s"] == 2.5


def _qvlab_bindings():
    import qvlab.cli  # noqa: F401
    from qvlab.func1d import MinimalityReport

    owners = [m for key, m in sys.modules.items() if m is not None and key.split(".")[0] == "qvlab"]
    owners.append(MinimalityReport)
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_wrappers_are_removed_after_a_traced_call(tmp_path):
    import qvlab.cli
    from qvlab import branch, func1d, qspace

    before = _qvlab_bindings()
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        assert branch.branch_values is not before[(id(branch), "branch_values")]
        assert branch.branch_values is func1d.branch_values
        out = tmp_path / "audit.csv"
        argv = ["audit", "cantor-diamond", "--level", "2", "--depth", "2", "--mode", "quasi", "--out", str(out)]
        assert qvlab.cli.main(argv) == 0
        qspace.metric_g(qspace.QPoint([[0.0, 0.0], [1.0, 1.0]]), qspace.QPoint([[1.0, 0.0], [0.0, 1.0]]))
    finally:
        spans.uninstall(patches)
    after = _qvlab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[spans.NAME] for span in recorder.spans}
    assert {"cli.main", "func1d.quasi_k_ratio", "func1d.branch_values", "func1d.MinimalityReport.to_csv",
            "qspace.metric_g"} <= names
    layers = spans.layer_metrics(recorder.spans)
    assert layers["serialize.bytes_out"] == out.stat().st_size
    assert layers["qspace.metric_g.calls"] == 1


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    assert [m["name"] for m in declared] == list(spans.PER_LAYER)
    assert all(m["unit"] == spans.unit(m["name"]) for m in declared)
    from qvlab import acceptance

    assert tuple(name for _, name, _ in acceptance.CRITERIA) == spans.CRITERIA


def _fake_call(tmp_path, monkeypatch, content):
    """Account one audit call whose child wrote `content`."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    (tmp_path / "work").mkdir(exist_ok=True)
    reference = {"audit-quasi-csv": {"sha256": hashlib.sha256(b"center,radius\n1.0,0.5\n").hexdigest(),
                                     "summary": "audit done"}}

    def spawn(cmd, env, log, timeout):
        with open(cmd[cmd.index("--out") + 1], "wb") as fh:
            fh.write(content)
        result = {"ready": 1.5, "cpu_call": 0.5, "wall_s": 0.25, "rc": 0, "stdout": "audit done\n", "versions": {}}
        usage = types.SimpleNamespace(ru_utime=1.0, ru_stime=0.25, ru_maxrss=2048)
        return 0, usage, json.dumps(result) + "\n", 1.0

    monkeypatch.setattr(run, "spawn", spawn)
    return run._call("audit-quasi-csv", 0, 0, False, "test", reference, {}, None)


def test_a_changed_output_byte_counts_as_a_failure(tmp_path, monkeypatch):
    good = _fake_call(tmp_path, monkeypatch, b"center,radius\n1.0,0.5\n")
    assert good["problems"] == []
    assert (good["setup_s"], good["cpu_s"], good["peak_rss_mb"]) == (0.5, 0.75, 2.0)
    bad = _fake_call(tmp_path, monkeypatch, b"center,radius\n1.0,0.6\n")
    assert len(bad["problems"]) == 1 and "sha256" in bad["problems"][0]
    assert not os.listdir(tmp_path / "work")


def test_output_checks_use_the_stated_tolerances():
    ref = {"cells": {"q2-n2": [[1.0, 2.0, [2], [1, 1], None]]}}
    picks = [("q2-n2", 0)]
    assert workloads.check_pairs(ref, picks, [[1.0 + 5e-13, 2.0, [2], [1, 1], None]]) == []
    assert workloads.check_pairs(ref, picks, [[1.0 + 5e-12, 2.0, [2], [1, 1], None]])
    assert workloads.check_pairs(ref, picks, [[1.0, 2.0, [1, 1], [1, 1], None]])
    lines = {"lines": [f"[PASS] {i:2d} c: ok" for i in range(1, 13)] + ["12 of 12 checks passed"]}
    timed = "\n".join(line + " (0.1 s)" for line in lines["lines"])
    assert workloads.check_verify(lines, 0, timed) == []
    assert workloads.check_verify(lines, 0, timed.replace("[PASS]  3", "[FAIL]  3"))


def test_run_fails_without_qvlab_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
