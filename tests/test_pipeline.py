"""End-to-end KG pipeline parity, idempotency and determinism tests.

Mirrors the reference's golden-predicate test pattern — run the
pipeline, compare against hand-checkable expected output
(/root/reference/internal/testing/testdata/testdata.go +
parse_spdx_test.go), and the e2e normalize-then-diff goldens
(internal/testing/e2e/e2e:112-190).  The "golden" here is the
single-threaded pure-Python reference implementation
(guacray/data/reference.py); the distributed Ray pipeline must match it
exactly (P/R = 1.0 ≥ the 0.95 gate).
"""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from guacray.data.reference import reference_graph, reference_triples
from guacray.pipelines.kg import kg_datasets, linked_triples


def _norm(df: pd.DataFrame, key: str) -> pd.DataFrame:
    df = df.sort_values(key).reset_index(drop=True)
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c], utc=True).astype("datetime64[us, UTC]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df


def test_triples_match_reference(small_pages):
    ds = rd.from_arrow(small_pages)
    got = linked_triples(ds).to_pandas()
    ref = pd.DataFrame(reference_triples(small_pages))

    key_cols = ["document_ref", "subj_key", "predicate", "obj_key"]
    got_set = set(map(tuple, got[key_cols].values))
    ref_set = set(map(tuple, ref[key_cols].values))
    # exact set equality on tiny fixtures (P = R = 1.0)
    assert got_set == ref_set
    assert len(got) == len(ref)


def test_nodes_edges_match_reference(small_pages):
    ds = rd.from_arrow(small_pages)
    out = kg_datasets(ds)
    ref_nodes, ref_edges = reference_graph(small_pages)

    nodes = _norm(out["nodes"].to_pandas(), "node_id")
    refn = _norm(pd.DataFrame(ref_nodes), "node_id")
    pd.testing.assert_frame_equal(nodes[refn.columns], refn)

    edges = _norm(out["edges"].to_pandas(), "edge_id")
    refe = _norm(pd.DataFrame(ref_edges), "edge_id")
    pd.testing.assert_frame_equal(edges[refe.columns], refe)


def test_idempotent_reingest(small_pages):
    """Ingesting the corpus twice yields the identical graph, with only
    evidence counts doubled — GUAC's content-keyed upsert semantics
    (keyvalue/isDependency.go:119-127)."""
    ds1 = rd.from_arrow(small_pages)
    ds2 = rd.from_arrow(pa.concat_tables([small_pages, small_pages]))
    out1, out2 = kg_datasets(ds1), kg_datasets(ds2)

    n1 = _norm(out1["nodes"].to_pandas(), "node_id")
    n2 = _norm(out2["nodes"].to_pandas(), "node_id")
    pd.testing.assert_frame_equal(n1, n2[n1.columns])

    e1 = _norm(out1["edges"].to_pandas(), "edge_id")
    e2 = _norm(out2["edges"].to_pandas(), "edge_id")
    assert list(e1["edge_id"]) == list(e2["edge_id"])
    assert (e2["n_evidence"].values == 2 * e1["n_evidence"].values).all()
    assert list(e1["first_seen"]) == list(e2["first_seen"])


def test_bucket_count_invariance(small_pages):
    """Shuffle-partitioning choice must not affect results (the salted/
    bucketed exchange is an implementation detail)."""
    ds = rd.from_arrow(small_pages)
    a = kg_datasets(ds, num_buckets=4)
    b = kg_datasets(ds, num_buckets=32)
    ea = _norm(a["edges"].to_pandas(), "edge_id")
    eb = _norm(b["edges"].to_pandas(), "edge_id")
    pd.testing.assert_frame_equal(ea, eb[ea.columns])


def test_document_summary(small_pages):
    """HasSBOM.Includes analog: per-document rollup matches reference."""
    import collections
    from guacray.data.reference import reference_triples
    from guacray.pipelines.kg import linked_triples
    from guacray.stages.canonicalize import document_summary

    tri = linked_triples(rd.from_arrow(small_pages))
    got = document_summary(tri).to_pandas().set_index("document_ref")
    ref = collections.defaultdict(lambda: {"n": 0, "edges": set(),
                                           "url": None, "ts": None})
    for t in reference_triples(small_pages):
        from guacray.functions.keys import edge_id, node_id
        r = ref[t["document_ref"]]
        r["n"] += 1
        r["edges"].add(edge_id(node_id(t["subj_key"]), t["predicate"],
                               node_id(t["obj_key"])))
        r["url"] = t["url"] if r["url"] is None else min(r["url"], t["url"])
        r["ts"] = t["warc_ts"] if r["ts"] is None else min(r["ts"], t["warc_ts"])
    assert len(got) == len(ref)
    for dref, r in ref.items():
        row = got.loc[dref]
        assert row["n_triples"] == r["n"]
        assert row["n_distinct_edges"] == len(r["edges"])
        assert row["url"] == r["url"]


def test_pr_gate_at_larger_corpus():
    """Triple P/R vs reference at a 4096-page corpus (the ≥0.95 gate;
    exact equality expected — our extractor IS the reference)."""
    from guacray.data.pages import generate_pages
    from guacray.data.reference import reference_triples
    pages = generate_pages(4096)
    got = linked_triples(rd.from_arrow(pages)).to_pandas()
    ref = pd.DataFrame(reference_triples(pages))
    key = ["document_ref", "subj_key", "predicate", "obj_key"]
    got_set = set(map(tuple, got[key].values))
    ref_set = set(map(tuple, ref[key].values))
    tp = len(got_set & ref_set)
    precision, recall = tp / len(got_set), tp / len(ref_set)
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0


def test_checkpoint_modes_equal_outputs(small_pages, small_pages_path,
                                        tmp_path):
    """A build's tables equal the reference graph, its triples
    checkpoint holds every reference triple, and its store is one
    bucket per cluster CPU with one file per bucket dir."""
    import json
    import os
    import ray
    from guacray import schemas
    from guacray.pipelines.increment import read_graph_table
    from guacray.pipelines.kg import run_kg
    from guacray.stages.agg import (JOIN_PARTITIONS, ROW_BUCKETS,
                                    cluster_cpus, resolve_buckets)
    out = str(tmp_path / "out")
    counts = run_kg(small_pages_path, out)
    for rows, schema, t, key in zip(
            reference_graph(small_pages), (schemas.NODES, schemas.EDGES),
            ("nodes", "edges"), ("node_id", "edge_id")):
        want = pa.Table.from_pylist(rows, schema=schema).sort_by(key)
        got = pa.Table.from_pylist(read_graph_table(out, t).take_all(),
                                   schema=schema)
        assert got.sort_by(key).equals(want), t
        assert counts[t] == want.num_rows, t
    key = ["document_ref", "subj_key", "predicate", "obj_key"]
    tri = read_graph_table(out, "triples").to_pandas()
    ref = pd.DataFrame(reference_triples(small_pages))
    assert sorted(map(tuple, tri[key].values)) \
        == sorted(map(tuple, ref[key].values))
    assert counts["triples"] == counts["evidence"] == len(ref)
    # the exchange is one bucket per cluster CPU and each exchange
    # bucket is one store bucket, so a build publishes no more table
    # files than the cluster is wide, nor more than one per bucket
    width = int(ray.cluster_resources()["CPU"])
    assert cluster_cpus() == resolve_buckets(None) == width
    # exchanges fed raw rows and hash joins keep their floors
    assert resolve_buckets(None, ROW_BUCKETS) == max(32, width)
    assert resolve_buckets(None, JOIN_PARTITIONS) == max(8, width)
    assert resolve_buckets(3, ROW_BUCKETS) == 3
    for t in ("nodes", "edges"):
        with open(f"{out}/{t}/_applied.json") as f:
            assert json.load(f)["num_buckets"] == width
        per_dir = [sum(f.endswith(".parquet") for f in fs)
                   for _, _, fs in os.walk(f"{out}/{t}")]
        assert 1 <= sum(per_dir) <= width, (t, per_dir)
        assert max(per_dir) == 1, (t, per_dir)


@pytest.fixture
def ray_executions(monkeypatch):
    """The plan names of every Ray Data execution the test runs (each
    goes through ``StreamingExecutor.execute``)."""
    from ray.data._internal.execution import streaming_executor as se
    plans, execute = [], se.StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        plans.append(dag.name)
        return execute(self, dag, *args, **kwargs)
    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    return plans


def test_run_kg_ray_executions(small_pages_path, tmp_path, ray_executions):
    """A build is one Ray execution (read → link → checkpoint →
    exchange → bucket files): the reduce tasks write the store, so no
    table has a write plan of its own."""
    from guacray.pipelines.kg import run_kg
    run_kg(small_pages_path, str(tmp_path / "out"))
    assert len(ray_executions) == 1, ray_executions


def test_run_kg_plan_ignores_width(small_pages_path, tmp_path, monkeypatch,
                                   ray_executions):
    """The build's plan does not depend on the cluster's width: read as
    9 CPUs, a build still runs one Ray execution and publishes the same
    tables."""
    from guacray.pipelines import kg
    from guacray.pipelines.increment import read_graph_table
    want = str(tmp_path / "want")
    kg.run_kg(small_pages_path, want)
    monkeypatch.setattr(kg, "cluster_cpus", lambda: 9, raising=False)
    ray_executions.clear()
    got = str(tmp_path / "got")
    kg.run_kg(small_pages_path, got)
    assert len(ray_executions) == 1, ray_executions
    for t, key in (("nodes", ["node_id"]), ("edges", ["edge_id"]),
                   ("triples", ["url", "edge_id"])):
        x = read_graph_table(want, t).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        y = read_graph_table(got, t).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(x, y[x.columns])


def test_ingest_and_enrichment_ray_executions(small_pages, tmp_path,
                                              ray_executions):
    """An ingest runs the build's link-and-checkpoint pass, the
    touched-bucket pass and the store write: 3 executions.  An
    enrichment pass runs 6."""
    import pyarrow.parquet as pq

    from guacray.pipelines.enrich import run_enrichment
    from guacray.pipelines.increment import ingest_increment
    from guacray.pipelines.kg import run_kg
    base, delta = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(small_pages.slice(0, 192), base)
    pq.write_table(small_pages.slice(192), delta)
    store = str(tmp_path / "store")
    run_kg(base, store)
    ray_executions.clear()
    assert ingest_increment(delta, store)["skipped"] is False
    assert len(ray_executions) == 3, ray_executions
    ray_executions.clear()
    assert run_enrichment(store, certifier="category", now=1000.0)["scanned"]
    assert len(ray_executions) == 6, ray_executions


_WIDTH_ONE_BUILD = """
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from guacray import schemas
from guacray.data.pages import generate_pages
from guacray.data.reference import reference_graph
from guacray.pipelines.kg import run_kg
work = sys.argv[1]
pages = generate_pages(512)
pq.write_table(pages, f"{work}/pages.parquet")
want = [pa.Table.from_pylist(rows, schema=s).sort_by(key)
        for rows, s, key in zip(reference_graph(pages),
                                (schemas.NODES, schemas.EDGES),
                                ("node_id", "edge_id"))]
run_kg(f"{work}/pages.parquet", f"{work}/out")
for w, name, key in zip(want, ("nodes", "edges"), ("node_id", "edge_id")):
    got = pq.read_table(f"{work}/out/{name}", columns=w.column_names)
    assert got.cast(w.schema).sort_by(key).equals(w), name
print("WIDTH1-OK")
"""


def test_width_one_build_completes(tmp_path):
    """At ``num_cpus=1`` the link actors hold no CPU slot, so a build
    finishes (rather than waiting forever behind the pool) and matches
    the reference graph.  Runs in its own 1-CPU Ray
    cluster under a wall timeout."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path
    root = str(Path(__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [root, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    env.pop("RAY_ADDRESS", None)
    # own process group, so a hung build's Ray processes die with it
    proc = subprocess.Popen([sys.executable, "-c", _WIDTH_ONE_BUILD,
                             str(tmp_path)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("no width-1 build finished within 300 s")
    assert proc.returncode == 0 and "WIDTH1-OK" in out, err[-3000:]


def test_fused_checkpoint_rerun_idempotent(small_pages_path, tmp_path):
    """The fused writer's side-effect files must not double on rerun
    into the same dir (deterministic content-hash filenames + atomic
    tmp-dir promotion)."""
    from guacray.pipelines.kg import run_kg
    out = str(tmp_path / "out")
    c1 = run_kg(small_pages_path, out)
    c2 = run_kg(small_pages_path, out)
    assert c1 == c2


def test_fused_checkpoint_empty_input(tmp_path):
    """Zero-row input still yields valid (0-row, canonical-schema)
    parquet dirs."""
    import pyarrow.parquet as pq
    from guacray import schemas
    from guacray.data.pages import write_pages
    from guacray.pipelines.kg import run_kg
    pages = str(tmp_path / "pages.parquet")
    write_pages(pages, 8)
    t = pq.read_table(pages)
    pq.write_table(t.slice(0, 0), pages)  # keep schema, drop rows
    out = str(tmp_path / "out")
    counts = run_kg(pages, out)
    assert counts == {"triples": 0, "nodes": 0, "edges": 0, "evidence": 0}
    for t, schema in (("triples", schemas.TRIPLES), ("nodes", schemas.NODES),
                      ("edges", schemas.EDGES)):
        # the files themselves, without the hive partition column
        got = pq.read_table(f"{out}/{t}", partitioning=None)
        assert got.num_rows == 0 and got.schema.equals(schema), t


def _sorted_frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_exchange_ops_bucket_count_invariance(tiny_pages):
    """Every operator routed through ``agg.exchange`` gives the same
    sorted frame at 1 and 7 buckets (row order may differ; content
    must not)."""
    from guacray.stages.agg import grouped_agg
    from guacray.stages.canonicalize import document_summary
    from guacray.stages.dedup import exact_dedup, span_dedup
    from guacray.stages.extract import identifier_strings

    tri = linked_triples(rd.from_arrow(tiny_pages)).materialize()
    texts = tiny_pages["text"].to_pylist()
    texts += texts[:16]  # exact duplicates across blocks
    docs = rd.from_arrow([
        pa.table({"doc_id": pa.array(range(i, min(i + 20, len(texts))),
                                     type=pa.int64()),
                  "text": pa.array(texts[i:i + 20], type=pa.string())})
        for i in range(0, len(texts), 20)])
    ops = {
        "identifier_strings": lambda nb: identifier_strings(tri, nb),
        "exact_dedup": lambda nb: exact_dedup(docs, num_buckets=nb),
        "span_dedup": lambda nb: span_dedup(docs, w=3, num_buckets=nb),
        "document_summary": lambda nb: document_summary(tri, nb),
        "grouped_agg": lambda nb: grouped_agg(
            tri, ["predicate", "subj_type"],
            [("warc_ts", "min", "first"), ("warc_ts", "max", "last"),
             ("subj_key", "count", "n")], nb),
    }
    for name, op in ops.items():
        one = _sorted_frame(op(1))
        assert len(one), name
        pd.testing.assert_frame_equal(one, _sorted_frame(op(7)),
                                      obj=name)


def test_commit_dir_survives_crash_at_each_rename(tmp_path, monkeypatch):
    """Fault injection on ``_commit_dir``: a commit killed at any
    rename, then a second commit killed at any rename, never loses the
    table — the live dir (or the ``.__old__`` copy the next commit
    rolls back first) holds the old rows or the new ones, and a clean
    third commit publishes its rows."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from guacray.pipelines.kg import _commit_dir

    real_replace = os.replace

    def rows(out):
        for d in (out, out + ".__old__"):
            if os.path.isdir(d):
                return pq.read_table(d)["v"].to_pylist()
        return []

    def commit(out, v, fail_at):
        tmp = out + ".__tmp__"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        pq.write_table(pa.table({"v": [v]}), os.path.join(tmp, "p.parquet"))
        calls = []

        def flaky(src, dst):
            calls.append(src)
            if len(calls) == fail_at:
                raise OSError("injected crash")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", flaky)
        try:
            _commit_dir(tmp, out)
        except OSError:
            pass
        finally:
            monkeypatch.setattr(os, "replace", real_replace)

    for first in (1, 2):
        for second in (1, 2, 3):
            out = str(tmp_path / f"t{first}{second}")
            commit(out, 1, fail_at=0)
            assert rows(out) == [1]
            commit(out, 2, fail_at=first)
            assert rows(out) in ([1], [2]), (first, second)
            commit(out, 3, fail_at=second)
            assert rows(out) in ([1], [2], [3]), (first, second)
            commit(out, 4, fail_at=0)
            assert pq.read_table(out)["v"].to_pylist() == [4]
            assert not os.path.exists(out + ".__old__")
