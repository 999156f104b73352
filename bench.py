"""Benchmark harness (driver contract: ONE JSON line on stdout).

Headline: the flagship KG-construction pipeline (pages → normalize →
extract → link → canonicalize → materialized nodes/edges/evidence) on a
deterministic bench-scale pages fixture sized to $GRAFT_SF_DIR, plus
timings for representative operator queries at the same scale.

    python bench.py              # one run at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling    # fresh processes at 8 and 32 CPUs,
                                 # reports both + scaling efficiency

Output: {"metric": "...", "value": <headline sec>, "unit": "sec",
         "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
         "triples_per_sec": ..., "pages_per_sec": ...}
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SEED = 42

# bench pages fixture size per sf (pages ≈ heavier than documents rows:
# each page carries ~1-3 KB html and fans out to ~4 triples).  sf0.1 is
# sized so per-execution fixed costs (<2s each) are noise against the
# CPU-bound extract phase — required for a meaningful scaling ratio.
_PAGES_FOR_SF = {"sf0.001": 2048, "sf0.01": 16384, "sf0.1": 262144}


def _sf_name() -> str:
    return os.path.basename(os.path.normpath(SF_DIR))


# Self-defence against noisy bench windows (BENCH_r02 printed a fake
# 4.5× regression that was pure machine load): every run emits the host
# loadavg and a fixed single-threaded calibration probe whose quiet-
# window cost is known, so a reader can normalize any window.
CALIB_REF_SEC = 0.36  # min-of-5 on a quiet window (loadavg ~2), 2026-08-17


def calibration_probe() -> float:
    """Fixed CPU workload: blake2b over 256 MB in 1 MB chunks, single
    threaded, no allocation churn.  Quiet-window cost ≈ CALIB_REF_SEC;
    the ratio sec/CALIB_REF_SEC estimates the contention factor of the
    window the bench ran in."""
    import hashlib
    buf = b"\xab" * (1 << 20)
    t0 = time.perf_counter()
    h = hashlib.blake2b()
    for _ in range(256):
        h.update(buf)
    h.digest()
    return time.perf_counter() - t0


def _window_fields(prefix: str = "") -> dict:
    calib = min(calibration_probe() for _ in range(2))
    return {
        f"{prefix}loadavg": [round(x, 2) for x in os.getloadavg()],
        f"{prefix}calibration_sec": round(calib, 3),
    }


def run_bench() -> dict:
    import ray
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from guacray.data.pages import write_pages_sharded
    from guacray.pipelines import relational as R
    from guacray.pipelines.kg import run_kg

    sf = _sf_name()
    n_pages = int(os.environ.get("GRAFT_BENCH_PAGES",
                                 _PAGES_FOR_SF.get(sf, 4096)))
    # v2: generator gained role-clause sentences (typed edge props) —
    # new dir so stale round-1 shards are never mixed in
    pages_dir = f"/tmp/guacray_bench/pages_v3_{sf}_{n_pages}"
    write_pages_sharded(pages_dir, n_pages, seed=SEED)

    # kg-only mode (set by run_scaling's subprocesses): the scaling
    # ratio uses only the kg headline, so skipping the representative
    # queries removes ~100s of self-contention per study
    kg_only = bool(os.environ.get("GRAFT_KG_ONLY"))
    # the scaling children pin disk checkpointing at every parallelism
    # level: the width dispatch would pick fused at 8 CPUs and disk at
    # 32, and a ratio across two different pipelines measures the
    # dispatch, not the scaling
    ckpt_mode = "disk" if kg_only else None

    # warm the page cache (untimed): one full read of the inputs
    rd.read_parquet(pages_dir).count()
    if not kg_only:
        for t in ("lineitem", "orders", "customer", "events", "documents",
                  "embeddings"):
            rd.read_parquet(os.path.join(SF_DIR, f"{t}.parquet")).count()

    # ---- headline: KG end-to-end (read → ... → materialized tables)
    # warm run discarded (worker/actor spawn, page cache — BASELINE.md
    # protocol), second run reported
    window_before = _window_fields("before_")

    out_dir = f"/tmp/guacray_bench/kg_out_{NCPU}"
    shutil.rmtree(out_dir, ignore_errors=True)
    run_kg(pages_dir, out_dir, checkpoint_mode=ckpt_mode)
    kg_sec = float("inf")
    repeats = int(os.environ.get("GRAFT_KG_REPEATS", "5"))
    for _ in range(repeats):  # min over repeats damps scheduler/OS noise
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        counts = run_kg(pages_dir, out_dir, checkpoint_mode=ckpt_mode)
        kg_sec = min(kg_sec, time.perf_counter() - t0)

    queries = {"kg_e2e": round(kg_sec, 3)}

    # ---- representative operator queries (each consumed fully)
    def timed(name, fn):
        t0 = time.perf_counter()
        ds = fn(SF_DIR)
        n = ds.count() if hasattr(ds, "count") else len(ds)
        queries[name] = round(time.perf_counter() - t0, 3)
        return n

    if not kg_only:
        timed("q1_pricing_summary", R.q1_pricing_summary)
        timed("top_orders_by_revenue", R.top_orders_by_revenue)
        timed("events_sessions", R.events_sessions)
        timed("doc_exact_dedup", R.doc_exact_dedup)
        timed("doc_minhash_pairs", R.doc_minhash_pairs)
        timed("ann_brute_topk", R.ann_brute_topk)

    result = {
        "metric": "kg_e2e_sec (pages→materialized nodes/edges/evidence)",
        "value": round(kg_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NCPU,
        "n_pages": n_pages,
        "n_triples": counts["triples"],
        "triples_per_sec": round(counts["triples"] / kg_sec, 1),
        "pages_per_sec": round(n_pages / kg_sec, 1),
        "ray_version": ray.__version__,
        "kg_repeats": repeats,
        "calibration_ref_sec": CALIB_REF_SEC,
        **window_before,
        **_window_fields("after_"),
    }
    # contention factor of the worse half of the window: >1.5 means the
    # numbers above are load-noise suspects (see BASELINE.md protocol)
    result["window_contention"] = round(
        max(result["before_calibration_sec"],
            result["after_calibration_sec"]) / CALIB_REF_SEC, 2)
    ray.shutdown()
    return result


def run_scaling() -> dict:
    # scaling fixture defaults to the bench fixture (round-1 protocol
    # continuity); GRAFT_SCALING_PAGES overrides for the larger-input
    # studies recorded in BASELINE.md (both sides keep gaining absolute
    # throughput with input size; see the multi-scale table there)
    scaling_pages = int(os.environ.get(
        "GRAFT_SCALING_PAGES",
        _PAGES_FOR_SF.get(_sf_name(), 4096)))

    def run_at(ncpu: int) -> dict:
        # 3 in-process repeats × 2 interleaved rounds = min-of-6 per
        # level (the round-2 protocol); the single-run bench defaults
        # to min-of-5 instead
        # GRAFT_KG_ONLY also pins disk checkpointing (see run_bench)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_PAGES=str(scaling_pages),
                   GRAFT_KG_ONLY="1",
                   GRAFT_KG_REPEATS=os.environ.get("GRAFT_KG_REPEATS", "3"))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    lo_cpu, hi_cpu = 8, 32
    # interleave levels over two rounds and take the per-level best:
    # this box has noisy neighbors (ambient loadavg >4 while idle), so
    # time-adjacent pairs + min damp the machine-level variance
    lo = hi = None
    for _ in range(2):
        r_lo, r_hi = run_at(lo_cpu), run_at(hi_cpu)
        if lo is None or r_lo["value"] < lo["value"]:
            lo = r_lo
        if hi is None or r_hi["value"] < hi["value"]:
            hi = r_hi
    tput_lo = lo["triples_per_sec"]
    tput_hi = hi["triples_per_sec"]
    eff = (tput_hi / tput_lo) / (hi_cpu / lo_cpu)

    # determinism across parallelism (FIXTURES.md §3.5): the two runs'
    # canonical tables must be byte-equal after sorting
    def outputs_identical() -> bool:
        import pandas as pd
        import pyarrow.parquet as pq
        try:
            for table, key in (("nodes", "node_id"), ("edges", "edge_id")):
                a = pq.read_table(
                    f"/tmp/guacray_bench/kg_out_{lo_cpu}/{table}").to_pandas()
                b = pq.read_table(
                    f"/tmp/guacray_bench/kg_out_{hi_cpu}/{table}").to_pandas()
                a = a.sort_values(key).reset_index(drop=True)
                b = b.sort_values(key).reset_index(drop=True)
                pd.testing.assert_frame_equal(a, b[a.columns])
            return True
        except Exception:
            return False

    return {
        "outputs_identical_across_parallelism": outputs_identical(),
        "metric": "kg_e2e scaling efficiency (triples/sec at 8 vs 32 CPUs)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sec_8": lo["value"], "sec_32": hi["value"],
        "triples_per_sec_8": tput_lo, "triples_per_sec_32": tput_hi,
        "speedup": round(tput_hi / tput_lo, 2),
        "scaling_efficiency": round(eff, 3),
        "sf": lo["sf"], "n_pages": lo["n_pages"],
        "calibration_ref_sec": CALIB_REF_SEC,
        "window_contention_8": lo.get("window_contention"),
        "window_contention_32": hi.get("window_contention"),
        "loadavg_8": lo.get("before_loadavg"),
        "loadavg_32": hi.get("before_loadavg"),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
