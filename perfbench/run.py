"""guacray benchmark: one workload per invocation.

    python3 perfbench/run.py --workload bulk_build --seed 1 --seconds 12 --trace 0

Run from the repository root (any cwd works; the root is found from
this file).  The workload runs in a child process under a wall limit
(``workloads.py``); this harness samples the child's process tree for
memory, turns the child's samples into metrics, and prints two JSON
lines: an ``info`` record (host, raw samples, error rate, the ungated
wall-clock metrics, failures) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
Exits 1 without a result when set-up fails (no guacray, no Ray), and
1 after the result when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")

# input sizes per workload; see README.md for why each workload exists
WORKLOADS = {
    "bulk_build": {"pages": 4096},
    "long_tail_build": {"pages": 8192},
    "increment": {"base_pages": 2048, "delta_pages": 1024},
}
CHILD_WALL_S = 160    # the whole run must end within 180 s
SAMPLE_EVERY_S = 0.2  # process-tree RSS sampling period

# gated metrics count CPU work, not wall time: see README.md
END_TO_END = {
    "setup_s": "s", "cold_op_cpu_s": "s", "op_cpu_s": "s",
    "triples_per_cpu_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "host.nproc": "count", "host.ray_cpus": "count", "host.calib_ms": "ms",
    "host.calib_after_ms": "ms",
    "ray.init_s": "s", "ray.empty_exec_ms": "ms",
    "normalize.batch_ms": "ms", "normalize.rows_kept_ratio": "ratio",
    "extract.batch_ms": "ms", "extract.triples_per_page": "triples/page",
    "link.batch_ms_cold": "ms", "link.batch_ms_warm": "ms",
    "link.distinct_surface_ratio": "ratio",
    "canonicalize.ids_ms": "ms", "canonicalize.partial_ms": "ms",
    "canonicalize.merge_ms": "ms", "canonicalize.collapse_ratio": "ratio",
    "canonicalize.bucket_skew": "ratio",
    "kg.link_pass_s": "s", "kg.exchange_s": "s", "kg.publish_s": "s",
    "kg.outside_kernels_share": "ratio",
    "increment.extract_s": "s", "increment.canon_s": "s",
    "increment.merge_s": "s", "increment.touched_bucket_ratio": "ratio",
    "query.neighbors_ms": "ms", "query.node_by_id_ms": "ms",
    "query.evidence_ms": "ms",
    "trace.op_s": "s", "trace.steal_share": "ratio",
}


class SetupError(RuntimeError):
    """The workload could not start: no result is printed."""


def child_env(root: str, work: str) -> dict:
    """The child's environment: the repository importable, temp files
    inside the checkout, and no variable that selects a non-default
    pipeline plan (GUACRAY_CHECKPOINT, GRAFT_*)."""
    env = {k: v for k, v in os.environ.items()
           if k != "GUACRAY_CHECKPOINT" and not k.startswith("GRAFT_")}
    env["PYTHONPATH"] = root
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    # Ray puts unix sockets under its temp dir; their paths may not pass
    # 107 bytes (session dir ~42 + "/sockets/plasma_store")
    if len(work) + 68 <= 107:
        env["RAY_TMPDIR"] = work
    else:
        env["RAY_TMPDIR"] = "/tmp"
        print(f"perfbench: {work} is too long for Ray's socket paths; "
              "Ray's temp files go to /tmp", file=sys.stderr)
    return env


class Child:
    """The workload child process and the records it has streamed."""

    def __init__(self, spec: dict, env: dict, log):
        self.records: list[dict] = []
        self.timed = False
        self.proc = subprocess.Popen(
            [sys.executable, "-u", CHILD, json.dumps(spec)], cwd=spec["root"],
            env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            start_new_session=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith('{"k": '):
                rec = json.loads(line)
                if rec["k"] == "phase":
                    self.timed = rec["timed"]
                self.records.append(rec)

    def wait(self, wall_s: float) -> tuple[bool, float]:
        """(hung, peak MiB of the process tree while timed)."""
        deadline = time.monotonic() + wall_s
        peak = 0.0
        while self.proc.poll() is None:
            if time.monotonic() > deadline:
                return True, peak
            if self.timed:
                peak = max(peak, measure.tree_rss_mb(self.proc.pid))
            time.sleep(SAMPLE_EVERY_S)
        return False, peak

    def reap(self) -> None:
        """Kill whatever is left of the child's session (all of it after
        a hang, Ray stragglers otherwise) and wait for every process."""
        if not measure.kill_session(self.proc.pid):
            print("perfbench: processes of the workload session survived "
                  "SIGKILL", file=sys.stderr)
        self.proc.wait()
        self.reader.join(timeout=10)


def reported_metrics(workload: str, cold: list[dict], warm: list[dict],
                     reads: list[dict]) -> dict:
    """The wall-clock metrics under the workload's own names, with the
    sample count behind each tail, and the CPU cost of a read.
    Reported, not gated: see README.md."""
    op = "build" if workload.endswith("_build") else "increment"
    out = {}
    if cold:
        out[f"cold_{op}_s"] = {"value": cold[0]["s"], "unit": "s"}
    if warm:
        secs = [r["s"] for r in warm]
        tail, label = measure.tail(secs)
        out[f"{op}_s"] = {"value": median(secs), "unit": "s"}
        out[f"{op}_tail_s"] = {"value": tail, "unit": "s", "of": label}
        out["triples_per_s"] = {"value": median(
            [r["triples"] for r in warm]) / out[f"{op}_s"]["value"],
            "unit": "1/s"}
    if reads:
        tail, label = measure.tail([r["ms"] for r in reads])
        out["read_ms"] = {"value": median([r["ms"] for r in reads]),
                          "unit": "ms"}
        out["read_tail_ms"] = {"value": tail, "unit": "ms", "of": label}
        out["read_cpu_ms"] = {"value": median(
            [r["cpu_ms"] for r in reads]), "unit": "ms"}
    return out


def summarize(workload: str, records: list[dict], trace: bool, hung: bool,
              returncode: int, peak_mb: float) -> tuple[dict, dict]:
    """(info, result) from the child's records."""
    of = lambda kind: [r for r in records if r["k"] == kind]  # noqa: E731
    ops, reads, checks = of("op"), of("read"), of("check")
    setup = of("setup")[0]
    items = ops + reads + checks
    errors = [r["err"] for r in items if not r["ok"]]
    finished = bool(of("done"))
    if hung:
        errors.append(f"hang: the workload passed its {CHILD_WALL_S} s wall "
                      "limit and was killed; the operation in flight counts "
                      "as failed")
    elif not finished:
        errors.append(f"the workload child exited with {returncode} "
                      "before finishing")
    attempted = len(items) + (not finished)
    failed = len(errors)

    warm = [r for r in ops if r["ok"] and not r["cold"]]
    cold = [r for r in ops if r["ok"] and r["cold"]]
    warm_reads = [r for r in reads if r["ok"] and r["warm"]]
    metrics = {}
    if not trace:
        metrics["setup_s"] = setup["s"]
        if cold:
            metrics["cold_op_cpu_s"] = cold[0]["cpu_s"]
        if warm:
            metrics["op_cpu_s"] = median([r["cpu_s"] for r in warm])
            metrics["triples_per_cpu_s"] = median(
                [r["triples"] for r in warm]) / metrics["op_cpu_s"]
        if peak_mb:
            metrics["peak_rss_mb"] = peak_mb
        units = END_TO_END
    else:
        metrics = {r["name"]: r["value"] for r in of("layer")}
        units = PER_LAYER
    host = of("host")[0]
    after = of("host_after")
    busy = sum(r["cpu_s"] for r in warm)
    stolen = sum(r["steal_s"] for r in warm)
    info = {
        "workload": workload, "trace": trace,
        "setup": {k: setup[k] for k in ("ray_init_s", "inputs_s", "store_s")
                  if k in setup},
        "error_rate": failed / attempted,
        "reported": reported_metrics(workload, cold, warm, warm_reads),
        "host": {**{k: host[k] for k in ("ray_version", "pyarrow_version")},
                 "loadavg_before": host["loadavg"],
                 "calib_ms_before": host["calib_ms"],
                 "loadavg_after": after[0]["loadavg"] if after else None,
                 "calib_ms_after": after[0]["calib_ms"] if after else None,
                 "steal_share": stolen / (busy + stolen) if warm else None},
        "samples": {key: [r[field] for r in rs] for key, field, rs in (
            ("cold_op_s", "s", cold), ("cold_op_cpu_s", "cpu_s", cold),
            ("cold_op_steal_s", "steal_s", cold),
            ("op_s", "s", warm), ("op_cpu_s", "cpu_s", warm),
            ("op_steal_s", "steal_s", warm), ("read_ms", "ms", warm_reads),
            ("read_cpu_ms", "cpu_ms", warm_reads))},
        "errors": errors[:5],
    }
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return info, result


def run(workload: str, seed: int, seconds: int, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload in a child process; (info, result)."""
    if not os.path.isdir(os.path.join(ROOT, "guacray")):
        raise SetupError(f"no guacray package in {ROOT}: nothing to measure")
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    tag = f"{workload}-{seed}-t{int(trace)}"
    host_cpus = measure.nproc()
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "sizes": sizes or WORKLOADS[workload],
            "root": ROOT, "work": os.path.join(work, "data"),
            "spans_path": os.path.join(base, f"{tag}.spans.json"),
            "nproc": host_cpus, "ray_cpus": measure.ray_cpus(host_cpus)}
    log_path = os.path.join(base, f"{tag}.log")
    try:
        with open(log_path, "w") as log:
            child = Child(spec, child_env(ROOT, work), log)
            try:
                hung, peak = child.wait(CHILD_WALL_S)
            finally:
                child.reap()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = child.records
    if not any(r["k"] == "setup" for r in records):
        with open(log_path) as f:
            log_tail = f.read()[-3000:]
        raise SetupError(f"{workload} set-up did not complete "
                         f"(exit {child.proc.returncode}); log {log_path}:\n"
                         f"{log_tail}")
    info, result = summarize(workload, records, trace, hung,
                             child.proc.returncode, peak)
    info.update(seed=seed, seconds=seconds, nproc=host_cpus,
                ray_cpus=spec["ray_cpus"], log=log_path)
    return info, result


def _terminate(signum, frame):
    # unwind through run()'s finally, which reaps the workload session
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        info, result = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for err in info["errors"]:
        print(f"perfbench: failed: {err}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
