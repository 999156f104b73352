"""Certifier-loop analog tests: stale-scan scheduling, feedback merge,
idempotency (reference semantics: certify.go poll loop + content-keyed
upsert, SURVEY.md §3.3)."""

import os

import pandas as pd
import ray.data as rd
import pytest

from guacray.pipelines.enrich import (ENRICH_PREDICATE, run_enrichment)
from guacray.pipelines.increment import read_graph_table
from guacray.pipelines.kg import run_kg


@pytest.fixture()
def graph_dir(small_pages_path, tmp_path):
    d = str(tmp_path / "graph")
    run_kg(small_pages_path, d)
    return d


def _edges(d):
    return read_graph_table(d, "edges").to_pandas()


def test_enrichment_loop(graph_dir):
    n_before = len(_edges(graph_dir))
    n_orgs = len(read_graph_table(graph_dir, "nodes")
                 .to_pandas().query("node_type == 'org'"))

    r1 = run_enrichment(graph_dir, node_type="org", now=1000.0)
    assert r1["scanned"] == n_orgs
    edges = _edges(graph_dir)
    enr = edges[edges["predicate"] == ENRICH_PREDICATE]
    assert len(enr) == n_orgs  # one category edge per org
    assert len(edges) == n_before + n_orgs
    # category nodes were fed back into the nodes table
    nodes = read_graph_table(graph_dir, "nodes").to_pandas()
    assert (nodes["node_type"] == "category").sum() >= 1

    # immediate rerun: everything fresh → nothing scanned, graph stable
    r2 = run_enrichment(graph_dir, node_type="org", now=1001.0)
    assert r2["scanned"] == 0
    assert r2["edges_total"] == len(edges)

    # horizon passed → rescan happens, but content-keyed merge is
    # idempotent: same edges, no duplicates
    r3 = run_enrichment(graph_dir, node_type="org",
                        rescan_after_s=0.5, now=2000.0)
    assert r3["scanned"] == n_orgs
    edges3 = _edges(graph_dir)
    assert len(edges3) == len(edges)
    pd.testing.assert_frame_equal(
        edges.sort_values("edge_id").reset_index(drop=True),
        edges3.sort_values("edge_id").reset_index(drop=True))


def test_enrichment_on_partitioned_layout(small_pages_path, tmp_path):
    """Certifier pass works on a default ``run_kg`` build, whose tables
    are hive-partitioned by bucket."""
    d = str(tmp_path / "gpart")
    run_kg(small_pages_path, d)
    before = read_graph_table(d, "edges").count()
    r = run_enrichment(d, node_type="org", now=5000.0)
    assert r["scanned"] > 0
    assert r["edges_total"] == before + r["scanned"]


def test_vuln_certifier_negative_evidence(graph_dir):
    """Round-4: the vulnscan certifier emits queryable NEGATIVE evidence
    — (node)-[scanned_clean]->(NoVuln) for clean scans — so 'scanned
    and clean' is distinguishable from 'never scanned'
    (the noVuln sentinel of parser/vuln/vuln.go:59).  Idempotent under
    replay, and its scan state is independent of other certifiers'."""
    from guacray.functions.keys import entity_key, node_id
    from guacray.pipelines.enrich import (CLEAN_PREDICATE, NOVULN_NAME,
                                          SCANNER_PROPS, VULN_PREDICATE)
    from guacray.query.graph import GraphStore

    n_products = len(read_graph_table(graph_dir, "nodes")
                     .to_pandas().query("node_type == 'product'"))
    # the category certifier running first must NOT mark products fresh
    run_enrichment(graph_dir, certifier="category", now=1000.0)
    r = run_enrichment(graph_dir, certifier="vulnscan", now=1000.0)
    assert r["scanned"] == n_products > 0

    edges = _edges(graph_dir)
    clean = edges[edges["predicate"] == CLEAN_PREDICATE]
    vuln = edges[edges["predicate"] == VULN_PREDICATE]
    # every scanned product got exactly one verdict edge set
    assert len(clean) + len(vuln["subj_id"].unique()) == n_products
    assert len(clean) > 0, "fixture must contain clean scans"
    novuln = node_id(entity_key("vuln", NOVULN_NAME))
    assert (clean["obj_id"] == novuln).all()
    assert (clean["props"] == SCANNER_PROPS).all()

    # queryable through the store surface: neighbors of the sentinel
    store = GraphStore(graph_dir)
    got = store.neighbors(novuln, predicates=[CLEAN_PREDICATE]).to_pandas()
    assert set(got["subj_id"]) == set(clean["subj_id"])

    # replay: same now → nothing to scan; forced rescan → no duplicates
    assert run_enrichment(graph_dir, certifier="vulnscan",
                          now=1001.0)["scanned"] == 0
    run_enrichment(graph_dir, certifier="vulnscan",
                   rescan_after_s=0.5, now=2000.0)
    edges2 = _edges(graph_dir)
    pd.testing.assert_frame_equal(
        edges.sort_values("edge_id").reset_index(drop=True),
        edges2.sort_values("edge_id").reset_index(drop=True))


def test_enrichment_delta_merge_on_incremental_store(small_pages_path,
                                                     tmp_path):
    """The certifier pass must merge via the touched-bucket path:
    untouched bucket partitions keep their inodes (hardlinked, never
    rewritten)."""
    store = str(tmp_path / "inc")
    run_kg(small_pages_path, store, num_buckets=64)
    edges_dir = os.path.join(store, "edges")

    def inodes():
        out = {}
        for b in os.listdir(edges_dir):
            if b.startswith("bucket="):
                d = os.path.join(edges_dir, b)
                out[b] = {f: os.stat(os.path.join(d, f)).st_ino
                          for f in os.listdir(d)}
        return out

    n_edges_before = read_graph_table(store, "edges").count()
    before = inodes()
    r = run_enrichment(store, certifier="category", now=1000.0)
    assert r["scanned"] > 0
    assert r["edges_total"] == n_edges_before + r["scanned"]
    after = inodes()
    untouched = [b for b in before if after.get(b) == before[b]]
    assert untouched, "enrichment delta must leave buckets untouched"

    # idempotent on the incremental path too
    r2 = run_enrichment(store, certifier="category",
                        rescan_after_s=0.5, now=2000.0)
    assert read_graph_table(store, "edges").count() == r["edges_total"]
    # and the graph surface still reads clean (hive column pruned)
    from guacray.query.graph import GraphStore
    cats = GraphStore(store).nodes(node_type="category").to_pandas()
    assert len(cats) >= 1


def test_legacy_scan_state_migrates(graph_dir):
    """A scan_state written by the pre-registry build (two columns, no
    'certifier') must migrate in place — stamped certifier='category' —
    instead of crashing the read filter (round-4 ADVICE, medium)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # first pass writes the modern state; rewrite it as the legacy shape
    r1 = run_enrichment(graph_dir, node_type="org", now=1000.0)
    assert r1["scanned"] > 0
    state = os.path.join(graph_dir, "scan_state")
    legacy = rd.read_parquet(state).to_pandas()[["node_id",
                                                 "last_scan_unix"]]
    import shutil
    shutil.rmtree(state)
    os.makedirs(state)
    pq.write_table(pa.Table.from_pandas(legacy, preserve_index=False),
                   os.path.join(state, "part-0.parquet"))

    # legacy rows count as category scans: nothing is stale an hour on
    r2 = run_enrichment(graph_dir, node_type="org", now=4600.0)
    assert r2["scanned"] == 0
    # migrated table has the canonical three columns with the stamp
    st = rd.read_parquet(state).to_pandas()
    assert sorted(st.columns) == ["certifier", "last_scan_unix",
                                  "node_id"]
    assert (st["certifier"] == "category").all()
    # and the horizon still expires: a later pass rescans everything
    r3 = run_enrichment(graph_dir, node_type="org",
                        rescan_after_s=0.5, now=90000.0)
    assert r3["scanned"] == r1["scanned"]
