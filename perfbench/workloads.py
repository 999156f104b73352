"""Workload child: runs one benchmark workload in a fresh process and
streams raw samples to the harness as JSON lines on stdout.

    python3 perfbench/workloads.py '<spec json>'

``run.py`` starts this file under a wall limit, turns the samples into
metrics and prints the result.  The spec names the workload, seed,
measuring seconds, trace flag, input sizes, Ray width and the work
directory.  Closed loop: one operation at a time, each timed from call
to return, then checked against an oracle outside the timed region.
"""

from __future__ import annotations

import collections
import ctypes
import json
import os
import random
import shutil
import signal
import sys
import time
import traceback
from statistics import median

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import probes
from measure import Spans, calibration_ms, host_cpu_s

SHARD_PAGES = 1024
SETUP_REPS = 3      # inputs are rebuilt this often; setup_s takes the median
MIN_WARM_OPS = 3    # every run measures at least this many warm operations
OPS_SHARE = 0.7     # share of the measured seconds spent on operations
READS = ("neighbors", "node_by_id", "evidence")
PR_SET_PDEATHSIG = 1


class Mismatch(Exception):
    """An output differs from what its oracle says it must be."""


class Recorder:
    """Streams each sample to the harness as one JSON line and keeps it,
    so the traced run can summarise its own samples."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, **fields) -> None:
        rec = {"k": kind, **fields}
        self.records.append(rec)
        print(json.dumps(rec), flush=True)

    def of(self, kind: str, **match) -> list[dict]:
        return [r for r in self.records if r["k"] == kind
                and all(r.get(k) == v for k, v in match.items())]


def now() -> float:
    return time.perf_counter()


def page_offset(seed: int) -> int:
    """First url index of a seed's pages: seeds never share urls."""
    return (seed % 1000) * 1_000_000


def write_shards(table: pa.Table, out_dir: str) -> list[str]:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    files = []
    for i in range(0, table.num_rows, SHARD_PAGES):
        files.append(os.path.join(out_dir, f"pages-{i // SHARD_PAGES:05d}.parquet"))
        pq.write_table(table.slice(i, SHARD_PAGES), files[-1])
    return files


def oracle_tables(pages: pa.Table) -> tuple[pa.Table, pa.Table]:
    """reference_graph(pages) as canonical-schema tables sorted by id."""
    from guacray import schemas
    from guacray.data.reference import reference_graph
    nodes, edges = reference_graph(pages)
    return (pa.Table.from_pylist(nodes, schema=schemas.NODES),
            pa.Table.from_pylist(edges, schema=schemas.EDGES))


def expect_table(what: str, got: pa.Table, want: pa.Table, key: str) -> None:
    got = got.select(want.column_names).cast(want.schema).sort_by(key)
    if not got.equals(want.sort_by(key)):
        raise Mismatch(f"{what}: {got.num_rows} rows differ from the "
                       f"oracle's {want.num_rows}")


def expect_rows(what: str, got: list[dict], want: pa.Table) -> None:
    cols = want.column_names
    g = collections.Counter(tuple(r[c] for c in cols) for r in got)
    w = collections.Counter(tuple(r[c] for c in cols) for r in want.to_pylist())
    if g != w:
        raise Mismatch(f"{what}: {len(got)} rows read, the live table "
                       f"filter gives {want.num_rows}")


def read_store(store: str) -> tuple[pa.Table, pa.Table]:
    """(nodes, edges) of a run_kg output or an incremental store."""
    from guacray import schemas
    return tuple(pq.read_table(os.path.join(store, name), columns=s.names)
                 for name, s in (("nodes", schemas.NODES),
                                 ("edges", schemas.EDGES)))


class Live:
    """The store's tables as published, read with pyarrow: the expected
    answer of every read, and the ids the read mix asks about."""

    def __init__(self, store: str):
        from guacray.query.graph import GraphStore
        self.store = GraphStore(store)
        self.nodes, self.edges = read_store(store)
        self.evidence = pq.read_table(os.path.join(store, "triples"),
                                      columns=GraphStore.EVIDENCE_COLS)
        ends = pa.chunked_array(self.edges["subj_id"].chunks
                                + self.edges["obj_id"].chunks)
        counts = pc.value_counts(ends)
        top = pc.index(counts.field("counts"), pc.max(counts.field("counts")))
        self.head = counts.field("values")[top.as_py()].as_py()

    def reads(self, rng: random.Random):
        """(name, call, expected rows) for one read mix."""
        node = self.nodes["node_id"][rng.randrange(self.nodes.num_rows)].as_py()
        edge = self.edges["edge_id"][rng.randrange(self.edges.num_rows)].as_py()
        e = self.edges
        return [
            ("neighbors", lambda: self.store.neighbors(self.head),
             e.filter(pc.or_(pc.equal(e["subj_id"], self.head),
                             pc.equal(e["obj_id"], self.head)))),
            ("node_by_id", lambda: self.store.node_by_id(node),
             self.nodes.filter(pc.equal(self.nodes["node_id"], node))),
            ("evidence", lambda: self.store.evidence_for_edge(edge),
             self.evidence.filter(pc.equal(self.evidence["edge_id"], edge))),
        ]


class Build:
    """run_kg over one fixed page set, rebuilt into the same directory;
    every build's nodes and edges must equal reference_graph(pages)."""

    op_name = "run_kg"

    def __init__(self, work: str, make_pages):
        self.make_pages = make_pages
        self.pages_dir = os.path.join(work, "pages")
        self.store = os.path.join(work, "out")

    def make_inputs(self) -> None:
        self.pages = self.make_pages()
        self.files = write_shards(self.pages, self.pages_dir)
        self.oracle = oracle_tables(self.pages)

    def make_store(self) -> None:
        pass

    def next_input(self, i: int) -> None:
        pass

    def op(self, i: int) -> tuple[int, dict]:
        from guacray.pipelines.kg import run_kg
        return run_kg(self.pages_dir, self.store)["triples"], {}

    def check_op(self) -> None:
        nodes, edges = read_store(self.store)
        expect_table("nodes", nodes, self.oracle[0], "node_id")
        expect_table("edges", edges, self.oracle[1], "edge_id")

    def final_check(self) -> None:
        pass


class Increment:
    """A bucketed store built once in set-up, then one ingest_increment
    of fresh pages per step; after the last step the store must equal
    reference_graph(base ∪ deltas)."""

    op_name = "ingest_increment"

    def __init__(self, work: str, seed: int, base_pages: int,
                 delta_pages: int):
        self.work, self.seed = work, seed
        self.base_pages, self.delta_pages = base_pages, delta_pages
        self.pages_dir = os.path.join(work, "base")
        self.store = os.path.join(work, "store")
        self.deltas: list[pa.Table] = []

    def make_inputs(self) -> None:
        from guacray.data.pages import generate_pages
        self.pages = generate_pages(self.base_pages,
                                    url_offset=page_offset(self.seed))
        write_shards(self.pages, self.pages_dir)

    def make_store(self) -> None:
        from guacray.pipelines.increment import init_incremental
        init_incremental(self.pages_dir, self.store)

    def next_input(self, i: int) -> None:
        from guacray.data.pages import generate_pages
        offset = page_offset(self.seed) + self.base_pages + i * self.delta_pages
        self.deltas.append(generate_pages(self.delta_pages, url_offset=offset))
        self.delta_dir = os.path.join(self.work, f"delta-{i:04d}")
        write_shards(self.deltas[-1], self.delta_dir)

    def op(self, i: int) -> tuple[int, dict]:
        from guacray.pipelines.increment import ingest_increment
        r = ingest_increment(self.delta_dir, self.store)
        if r["skipped"]:
            raise Mismatch(f"{self.delta_dir} was skipped as already applied")
        tri_dir = os.path.join(self.store, "triples",
                               f"increment={r['increment']}")
        triples = sum(pq.ParquetFile(os.path.join(tri_dir, f)).metadata.num_rows
                      for f in os.listdir(tri_dir) if f.endswith(".parquet"))
        with open(os.path.join(self.store, "edges", "_applied.json")) as f:
            nb = json.load(f)["num_buckets"]
        return triples, {"extract_s": r["sec_extract"],
                         "canon_s": r["sec_canonicalize"],
                         "merge_s": r["sec_merge"],
                         "touched_bucket_ratio": r["touched_edges_buckets"] / nb}

    def check_op(self) -> None:
        pass

    def final_check(self) -> None:
        """The whole store against the oracle of every page it ingested."""
        from guacray.pipelines.increment import read_graph_table
        want = oracle_tables(pa.concat_tables([self.pages, *self.deltas]))
        for (name, key), w in zip((("nodes", "node_id"), ("edges", "edge_id")),
                                  want):
            got = pa.Table.from_pylist(
                read_graph_table(self.store, name).take_all(), schema=w.schema)
            expect_table(f"store {name}", got, w, key)


def bulk_pages(seed: int, n: int) -> pa.Table:
    from guacray.data.pages import generate_pages
    return generate_pages(n, url_offset=page_offset(seed))


def long_tail_pages(seed: int, n: int) -> pa.Table:
    """One profile page per distinct out-of-catalog surface."""
    from guacray.data.pages import synthesize_profile_pages
    rng = random.Random(seed)
    return synthesize_profile_pages(
        [f"lt-{v:09x} labs" for v in rng.sample(range(16 ** 9), n)])


def make_workload(spec: dict):
    name, seed, sizes, work = (spec["workload"], spec["seed"], spec["sizes"],
                               spec["work"])
    if name == "bulk_build":
        return Build(work, lambda: bulk_pages(seed, sizes["pages"]))
    if name == "long_tail_build":
        return Build(work, lambda: long_tail_pages(seed, sizes["pages"]))
    if name == "increment":
        return Increment(work, seed, sizes["base_pages"], sizes["delta_pages"])
    raise ValueError(f"unknown workload {name!r}")


def start_ray(spec: dict) -> None:
    import ray
    ray.init(address="local", num_cpus=spec["ray_cpus"],
             object_store_memory=512 * 2**20, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             # keep idle task workers: by default Ray kills those above
             # num_cpus after 1 s idle, so a warm build restarted 0-4 of
             # them at about 1 CPU-s each, at random (10.3-14.4 CPU-s
             # per build within one run)
             _system_config={"kill_idle_workers_interval_ms": 0},
             # Ray workers start with the driver's cwd on sys.path, not
             # the repository: without this a driver launched elsewhere
             # fails in its first task with "No module named 'guacray'"
             runtime_env={"env_vars": {"PYTHONPATH": spec["root"]}})
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def failure(exc: BaseException) -> str:
    last = traceback.format_exception(exc)[-2].strip().splitlines()[0] \
        if exc.__traceback__ else ""
    return f"{exc!r} at {last}"


def read_mix(store: str, warm: bool, spans: Spans, rng: random.Random,
             rec: Recorder, live: Live | None = None) -> Live | None:
    """One read mix against the published store, each read checked
    against a pyarrow filter of the live tables.  Returns the Live view
    so later mixes against the same store version can reuse it."""
    try:
        live = live or Live(store)
    except Exception as exc:  # the store cannot be read: every read fails
        for name in READS:
            rec.emit("read", name=name, warm=warm, ms=0.0, ok=False,
                     err=failure(exc))
        return None
    for name, call, want in live.reads(rng):
        err = None
        with spans.span(f"read.{name}"):
            cpu0, t0 = host_cpu_s(), now()
            try:
                rows = call().take_all()
            except Exception as exc:
                err, rows = failure(exc), None
            ms = (now() - t0) * 1e3
            cpu1 = host_cpu_s()
        if rows is not None:
            try:
                expect_rows(name, rows, want)
            except Exception as exc:
                err = failure(exc)
        rec.emit("read", name=name, warm=warm, ms=ms,
                 cpu_ms=(cpu1[0] - cpu0[0]) * 1e3,
                 steal_ms=(cpu1[1] - cpu0[1]) * 1e3, ok=err is None, err=err)
    return live


def step(w, i: int, cold: bool, spans: Spans, rec: Recorder) -> None:
    """One closed-loop step: the timed operation, then its output check.
    No reads run between operations: a read mix leaves extra idle Ray
    workers behind, and the next operation's actors then start in them
    or in new processes depending on that history."""
    w.next_input(i)
    triples, extra, err = 0, {}, None
    with spans.span(w.op_name):
        cpu0, t0 = host_cpu_s(), now()
        try:
            triples, extra = w.op(i)
        except Exception as exc:  # recorded as a failed op, run goes on
            err = failure(exc)
        secs = now() - t0
        cpu1 = host_cpu_s()
    if err is None:
        try:
            w.check_op()
        except Exception as exc:
            err = failure(exc)
    rec.emit("op", cold=cold, s=secs, cpu_s=cpu1[0] - cpu0[0],
             steal_s=cpu1[1] - cpu0[1], triples=triples, ok=err is None,
             err=err, **extra)


def traced_layers(w, spec: dict, spans: Spans, rec: Recorder,
                  ray_init_s: float) -> dict:
    """Every per-layer metric of the traced run, measured on this
    workload's own input (see probes.py for the probes)."""
    from guacray.stages.canonicalize import resolve_buckets
    warm = rec.of("op", cold=False, ok=True)
    out = {"host.nproc": spec["nproc"], "host.ray_cpus": spec["ray_cpus"],
           "host.calib_ms": rec.of("host")[0]["calib_ms"],
           "ray.init_s": ray_init_s}
    with spans.span("ray.empty_exec"):
        out["ray.empty_exec_ms"] = probes.empty_exec_ms()
    with spans.span("kernels"):
        kernels = probes.kernels(w.pages, resolve_buckets(None))
    ms_per_page = kernels.pop("kernel_ms_per_page")
    out.update(kernels)

    phased = os.path.join(spec["work"], "phased")
    phases = probes.kg_phases(w.pages_dir, phased, spans)
    out.update(phases)
    want = oracle_tables(w.pages)
    got = read_store(phased)
    expect_table("phased build nodes", got[0], want[0], "node_id")
    expect_table("phased build edges", got[1], want[1], "edge_id")
    # the build this share is taken of: the workload's own run_kg on the
    # build workloads, the phased build of the base pages on increment
    build_s = median([r["s"] for r in warm]) if isinstance(w, Build) \
        else sum(phases.values())
    out["kg.outside_kernels_share"] = \
        1 - ms_per_page * w.pages.num_rows / (1e3 * build_s)

    if isinstance(w, Increment):
        for key in ("extract_s", "canon_s", "merge_s", "touched_bucket_ratio"):
            out[f"increment.{key}"] = median([r[key] for r in warm])
    else:
        out.update(probes.increment_once(
            w.files[:-1], w.files[-1:],
            os.path.join(spec["work"], "increment"), spans))
    for name in READS:
        out[f"query.{name}_ms"] = median(
            [r["ms"] for r in rec.of("read", name=name, warm=True, ok=True)])
    out["trace.op_s"] = median([r["s"] for r in warm])
    stolen = sum(r["steal_s"] for r in warm)
    out["trace.steal_share"] = stolen / (stolen + sum(r["cpu_s"] for r in warm))
    return out


def die_with_parent() -> None:
    """Have the kernel SIGKILL this process when the harness dies, even
    by SIGKILL; Ray's gcs and raylet share the driver's fate, and the
    workers the raylet's, so no cluster outlives the harness."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() == 1:  # the harness died before prctl took effect
        sys.exit(1)


def main(spec: dict) -> int:
    import ray
    import pyarrow
    die_with_parent()
    rng = random.Random(spec["seed"])
    rec = Recorder()
    spans = Spans(f"{spec['workload']}-{spec['seed']}", spec["trace"])
    rec.emit("host", ray_version=ray.__version__,
             pyarrow_version=pyarrow.__version__, loadavg=os.getloadavg(),
             calib_ms=calibration_ms())
    w = make_workload(spec)
    with spans.span("setup"):
        t0 = now()
        with spans.span("ray.init"):
            start_ray(spec)
        ray_init_s = now() - t0
        reps = []
        for _ in range(SETUP_REPS):
            with spans.span("inputs"):
                t0 = now()
                w.make_inputs()
                reps.append(now() - t0)
        t0 = now()
        with spans.span("store"):
            w.make_store()
        store_s = now() - t0
    rec.emit("setup", s=ray_init_s + median(reps) + store_s,
             ray_init_s=ray_init_s, inputs_s=reps, store_s=store_s)

    rec.emit("phase", timed=True)
    step(w, 0, True, spans, rec)
    # the measured seconds: MIN_WARM_OPS warm steps, then more while the
    # next one (as long as the last) fits in OPS_SHARE of the seconds;
    # then read mixes against the last store until the seconds are up,
    # the first one warming the read path and at least one more measured
    t_loop, i, last = now(), 1, 0.0
    while i <= MIN_WARM_OPS \
            or now() - t_loop + last <= OPS_SHARE * spec["seconds"]:
        t0 = now()
        step(w, i, False, spans, rec)
        last, i = now() - t0, i + 1
    live, mixes = read_mix(w.store, False, spans, rng, rec), 0
    while live is not None and (mixes == 0
                                or now() - t_loop < spec["seconds"]):
        live = read_mix(w.store, True, spans, rng, rec, live)
        mixes += 1
    rec.emit("phase", timed=False)
    err = None
    try:
        w.final_check()
    except Exception as exc:
        err = failure(exc)
    rec.emit("check", ok=err is None, err=err)

    if spec["trace"]:
        err = None
        try:
            layers = traced_layers(w, spec, spans, rec, ray_init_s)
        except Exception as exc:
            err, layers = failure(exc), {}
        rec.emit("check", ok=err is None, err=err)
        layers["host.calib_after_ms"] = calibration_ms()
        for name, value in layers.items():
            rec.emit("layer", name=name, value=value)
        with open(spec["spans_path"], "w") as f:
            json.dump(spans.records, f)
    rec.emit("host_after", loadavg=os.getloadavg(), calib_ms=calibration_ms())
    ray.shutdown()
    rec.emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
