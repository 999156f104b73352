"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

They start real Ray clusters in child processes, so they take a few
minutes on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run  # noqa: E402

TINY = {"bulk_build": {"pages": 256}, "long_tail_build": {"pages": 512},
        "increment": {"base_pages": 256, "delta_pages": 128}}


def benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_harness():
    bench = benchmark_json()
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    for m in bench["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"], m["name"]
    for m in bench["per_layer"]:
        assert run.PER_LAYER[m["name"]] == m["unit"], m["name"]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == set(run.PER_LAYER)


@pytest.mark.parametrize("workload,trace", [("bulk_build", False),
                                            ("long_tail_build", False),
                                            ("increment", True)])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    bench = benchmark_json()
    info, result = run.run(workload, seed=5, seconds=1, trace=trace,
                           sizes=TINY[workload])
    assert info["errors"] == [] and info["error_rate"] == 0
    assert result["correct"] and result["failed"] == 0
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_corrupted_output_table_raises_error_rate(tmp_path):
    """A build whose published edges lose a row fails its oracle check,
    and the failure reaches error_rate."""
    import ray
    import workloads

    spec = {"root": run.ROOT, "ray_cpus": 2}
    w = workloads.Build(str(tmp_path),
                        lambda: workloads.bulk_pages(7, TINY["bulk_build"]["pages"]))
    real_op = w.op

    def corrupting_op(i):
        out = real_op(i)
        edges = os.path.join(w.store, "edges")
        f = os.path.join(edges, sorted(os.listdir(edges))[0])
        t = pq.read_table(f)
        pq.write_table(t.slice(1), f)
        return out

    w.op = corrupting_op
    rec = workloads.Recorder()
    workloads.start_ray(spec)
    try:
        w.make_inputs()
        workloads.step(w, 0, True, measure.Spans("t", False), rec)
    finally:
        ray.shutdown()
    (op,) = rec.of("op")
    assert not op["ok"] and "Mismatch" in op["err"]
    records = [{"k": "setup", "s": 1.0},
               {"k": "host", "ray_version": "", "pyarrow_version": "",
                "loadavg": [0, 0, 0], "calib_ms": 1.0},
               *rec.records, {"k": "done"}]
    info, result = run.summarize("bulk_build", records, False, False, 0, 1.0)
    assert info["error_rate"] > 0
    assert result["failed"] >= 1 and not result["correct"]


def test_hang_is_killed_and_counted(tmp_path, monkeypatch):
    """A child that stops making progress is killed with everything it
    started, and the operation in flight counts as failed."""
    hang = tmp_path / "hang.py"
    hang.write_text(textwrap.dedent("""
        import json, subprocess, sys, time
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
        print(json.dumps({"k": "host", "ray_version": "", "pyarrow_version": "",
                          "loadavg": [0, 0, 0], "calib_ms": 1.0}), flush=True)
        print(json.dumps({"k": "setup", "s": 1.0}), flush=True)
        print(json.dumps({"k": "phase", "timed": True}), flush=True)
        time.sleep(600)
    """))
    monkeypatch.setattr(run, "CHILD", str(hang))
    with open(tmp_path / "log", "w") as log:
        child = run.Child({"root": run.ROOT}, dict(os.environ), log)
        hung, peak = child.wait(wall_s=3)
        child.reap()
    assert hung and peak > 0
    assert measure.session_members(child.proc.pid) == []
    info, result = run.summarize("increment", child.records, False, True,
                                 child.proc.returncode, peak)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "hang" in info["errors"][0]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(benchmark_json()["command"]
                       + ["--workload", "bulk_build", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
