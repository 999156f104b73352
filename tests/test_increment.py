"""Incremental ingest (pipelines/increment.py) on the store ``run_kg``
builds: delta merge ≡ full rebuild, replay is a no-op, untouched
buckets are hardlinked (never rewritten), and n_evidence accumulates
across increments — the streaming-upsert semantics of the reference's
MergedIngest loop (/root/reference/pkg/ingestor/ingestor.go:90-150) on
bucket-partitioned Parquet."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from guacray.data.pages import generate_pages
from guacray.pipelines.increment import (ingest_increment,
                                         read_graph_table, table_counts)
from guacray.pipelines.kg import run_kg


def _split_pages(tmp, n=768, cut=512):
    t = generate_pages(n, seed=42)
    paths = {}
    for name, tbl in (("a", t.slice(0, cut)), ("b", t.slice(cut)),
                      ("full", t)):
        p = str(tmp / f"pages_{name}.parquet")
        pq.write_table(tbl, p)
        paths[name] = p
    return paths


def _table_df(ds, key):
    df = ds.to_pandas().sort_values(key).reset_index(drop=True)
    return df[sorted(df.columns)]


def test_increment_equals_full_rebuild(tmp_path):
    p = _split_pages(tmp_path)
    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    run_kg(p["a"], store, num_buckets=32)
    r = ingest_increment(p["b"], store)
    assert r["skipped"] is False and r["touched_edges_buckets"] > 0
    run_kg(p["full"], ref, num_buckets=32)
    for name, key in (("nodes", "node_id"), ("edges", "edge_id")):
        got = _table_df(read_graph_table(store, name), key)
        want = _table_df(read_graph_table(ref, name), key)
        pd.testing.assert_frame_equal(got, want)
    # evidence (triples) accumulated append-only across increments
    tri = read_graph_table(store, "triples").count()
    ref_tri = read_graph_table(ref, "triples").count()
    assert tri == ref_tri


def test_increment_replay_is_noop_and_counts(tmp_path):
    import json
    p = _split_pages(tmp_path, n=320, cut=256)
    store = str(tmp_path / "store")
    run_kg(p["a"], store)
    # the store's bucket count is the build's exchange width
    from guacray.stages.agg import resolve_buckets
    with open(os.path.join(store, "edges", "_applied.json")) as f:
        assert json.load(f)["num_buckets"] == resolve_buckets(None)
    before = table_counts(store)
    r1 = ingest_increment(p["b"], store)
    r2 = ingest_increment(p["b"], store)  # same file list → skipped
    assert r2["skipped"] is True
    assert table_counts(store) == {k: r1[k] for k in ("nodes", "edges")}
    # a rename makes it a NEW increment: n_evidence accumulates so the
    # edge-evidence total equals ALL triple rows ever ingested
    import shutil
    b2 = str(tmp_path / "pages_b_replay.parquet")
    shutil.copy(p["b"], b2)
    r3 = ingest_increment(b2, store)
    assert r3["skipped"] is False
    assert r3["nodes"] == r1["nodes"]  # same ids → no new nodes
    ev = read_graph_table(store, "edges").to_pandas()["n_evidence"].sum()
    tri = read_graph_table(store, "triples").count()
    assert ev == tri
    assert before["nodes"] <= r1["nodes"]


def test_increment_untouched_buckets_hardlinked(tmp_path):
    p = _split_pages(tmp_path, n=514, cut=512)  # 2-page delta
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=64)
    edges_dir = os.path.join(store, "edges")

    def inodes():
        out = {}
        for b in os.listdir(edges_dir):
            if not b.startswith("bucket="):
                continue
            d = os.path.join(edges_dir, b)
            out[b] = {f: os.stat(os.path.join(d, f)).st_ino
                      for f in os.listdir(d)}
        return out

    before = inodes()
    r = ingest_increment(p["b"], store)
    assert r["skipped"] is False
    after = inodes()
    touched = {b for b in after if after[b] != before.get(b)}
    untouched = set(before) - touched
    assert r["touched_edges_buckets"] < len(before)  # delta is sparse
    assert untouched, "a 2-page delta must leave buckets untouched"
    for b in untouched:  # hardlinked: same inodes, zero rewrite
        assert after[b] == before[b]


def test_graphstore_over_incremental_store(tmp_path):
    import pytest

    from guacray.query.graph import GraphStore
    p = _split_pages(tmp_path, n=256, cut=128)
    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    run_kg(p["a"], store, num_buckets=32)
    ingest_increment(p["b"], store)
    run_kg(p["full"], ref, num_buckets=32)
    inc, bat = GraphStore(store), GraphStore(ref)
    # the whole read surface sees the canonical schema (hive bucket
    # column pruned) and matches the batch store value for value
    f_inc = _table_df(inc.find_nodes("acme"), "node_id")
    f_bat = _table_df(bat.find_nodes("acme"), "node_id")
    pd.testing.assert_frame_equal(f_inc, f_bat)
    seed = f_inc["node_id"].iloc[0]
    assert inc.reachable(seed, direction="out", max_depth=4) == \
        bat.reachable(seed, direction="out", max_depth=4)
    n_inc = _table_df(inc.neighbors(seed), "edge_id")
    n_bat = _table_df(bat.neighbors(seed), "edge_id")
    pd.testing.assert_frame_equal(n_inc, n_bat)
    # evidence view over the increment partitions, canonical columns
    ev = inc.evidence_for_edge(n_inc["edge_id"].iloc[0]).to_pandas()
    assert list(ev.columns) == GraphStore.EVIDENCE_COLS
    assert len(ev) >= 1
    # deletes are bucket-targeted rewrites on both stores
    # (test_delete_on_incremental_store covers the partition
    # discipline); the two stores converge afterwards
    r_inc = inc.delete_node(seed)
    r_bat = bat.delete_node(seed)
    assert r_inc == r_bat and r_inc["nodes_removed"] == 1
    e_inc = _table_df(read_graph_table(store, "edges"), "edge_id")
    e_bat = _table_df(read_graph_table(ref, "edges"), "edge_id")
    pd.testing.assert_frame_equal(e_inc, e_bat)


def test_increment_sigkill_replay_equals_clean(tmp_path):
    """Crash safety: SIGKILL an ingest_increment mid-run (right after
    its delta checkpoint appears — triples written, tables unswapped,
    ledger not yet updated), replay it, and require byte-equality with
    a clean build+ingest.  The edges ledger is the commit marker; a
    killed run must be invisible after replay."""
    import glob
    import signal
    import subprocess
    import sys
    import time

    p = _split_pages(tmp_path, n=256, cut=128)
    clean = str(tmp_path / "clean")
    run_kg(p["a"], clean, num_buckets=32)
    ingest_increment(p["b"], clean)

    victim = str(tmp_path / "victim")
    run_kg(p["a"], victim, num_buckets=32)
    proc = subprocess.Popen(
        [sys.executable, "-m", "guacray.cli", "--num-cpus", "4",
         "ingest-add", p["b"], victim],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.time() + 120
    marker = os.path.join(victim, "triples", "increment=inc-*")
    while time.time() < deadline:
        if glob.glob(marker) or proc.poll() is not None:
            break
        time.sleep(0.1)
    time.sleep(0.5)  # let it get into the canonicalize/merge window
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    rc = proc.wait()
    assert rc == -signal.SIGKILL, "subprocess finished before the kill"

    r = ingest_increment(p["b"], victim)  # replay after the crash
    assert r["skipped"] is False
    for name, key in (("nodes", "node_id"), ("edges", "edge_id")):
        got = _table_df(read_graph_table(victim, name), key)
        want = _table_df(read_graph_table(clean, name), key)
        pd.testing.assert_frame_equal(got, want)


def test_bucket_hash_pinned_and_mismatch_refused(tmp_path):
    """The ledger pins the persistent bucket function; an ingest against
    a store stamped with a different one must refuse, not corrupt."""
    import json

    import pytest

    from guacray.functions.hashing import BUCKET_HASH_ID, bucket_of_hexid
    from guacray.functions.hashing import content_id

    # the stamp is our own content hash's first 32 bits — library-free
    ids = [content_id(str(i)) for i in range(64)]
    assert bucket_of_hexid(ids, 32).to_pylist() == \
        [int(h[:8], 16) % 32 for h in ids]

    p = _split_pages(tmp_path, n=96, cut=64)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=8)
    ledger_path = os.path.join(store, "edges", "_applied.json")
    with open(ledger_path) as f:
        ledger = json.load(f)
    assert ledger["bucket_hash"] == BUCKET_HASH_ID
    ledger["bucket_hash"] = "someother-v0"
    with open(ledger_path, "w") as f:
        json.dump(ledger, f)
    with pytest.raises(RuntimeError, match="bucket-stamped"):
        ingest_increment(p["b"], store)

    # every other writer into the bucketed store refuses the same way,
    # before it rewrites anything
    from guacray.pipelines.enrich import run_enrichment
    from guacray.query.graph import GraphStore
    edges_before = read_graph_table(store, "edges").to_pandas()
    with pytest.raises(RuntimeError, match="bucket-stamped"):
        GraphStore(store).delete_edges(sorted(edges_before["edge_id"])[:2])
    with pytest.raises(RuntimeError, match="bucket-stamped"):
        run_enrichment(store, certifier="category", now=1000.0)
    after = read_graph_table(store, "edges").to_pandas()
    assert sorted(after["edge_id"]) == sorted(edges_before["edge_id"])


def test_bucket_of_hexid_refuses_format_drift():
    """The persistent bucket function must fail loudly on ids that are
    not >=8 chars of lowercase hex (round-4 ADVICE: the LUT silently
    mapped drifted bytes to nibble 0 — exactly the mis-bucketing the
    ledger stamp exists to prevent)."""
    import pytest

    from guacray.functions.hashing import bucket_of_hexid, content_id

    good = [content_id(str(i)) for i in range(8)]
    assert len(bucket_of_hexid(good, 8)) == 8
    for bad in (["DEADBEEFCAFE0123"],      # uppercase hex
                ["abc"],                    # too short
                ["xyzw1234abcd5678"],       # non-hex chars
                good[:3] + ["ABCDEF0012345678"]):  # one bad among good
        with pytest.raises(ValueError, match="lowercase hex"):
            bucket_of_hexid(bad, 8)


def test_delete_on_incremental_store(tmp_path):
    """Round-4 verdict item 6: delete_node / delete_edges on a
    run_kg store must rewrite ONLY the bucket partitions the
    ids land in (untouched bucket inodes unchanged — hardlinked), keep
    the ledger intact, and leave the store ingestable."""
    from guacray.functions.hashing import bucket_of_hexid
    from guacray.query.graph import GraphStore

    p = _split_pages(tmp_path, n=320, cut=256)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=8)

    edges_before = read_graph_table(store, "edges").to_pandas()
    nodes_before = read_graph_table(store, "nodes").to_pandas()

    def inodes(table):
        d = os.path.join(store, table)
        return {b: {f: os.stat(os.path.join(d, f"bucket={b}", f)).st_ino
                    for f in os.listdir(os.path.join(d, f"bucket={b}"))}
                for b in range(8)
                if os.path.isdir(os.path.join(d, f"bucket={b}"))}

    # --- delete_edges: only the victims' buckets may be rewritten
    victims = sorted(edges_before["edge_id"])[:4]
    vb = set(bucket_of_hexid(victims, 8).to_pylist())
    ino0 = inodes("edges")
    s = GraphStore(store)
    assert s.delete_edges(victims) == 4
    ino1 = inodes("edges")
    for b in ino0:
        if b not in vb:
            assert ino1[b] == ino0[b], f"untouched bucket {b} rewritten"
    after = read_graph_table(store, "edges").to_pandas()
    assert set(after["edge_id"]) == \
        set(edges_before["edge_id"]) - set(victims)

    # --- delete_node: node gone, incident edges gone, others intact
    victim_node = nodes_before.query("node_type == 'org'")["node_id"].iloc[0]
    incident = set(after[(after["subj_id"] == victim_node)
                         | (after["obj_id"] == victim_node)]["edge_id"])
    r = GraphStore(store).delete_node(victim_node)
    assert r == {"nodes_removed": 1, "edges_removed": len(incident)}
    n2 = read_graph_table(store, "nodes").to_pandas()
    e2 = read_graph_table(store, "edges").to_pandas()
    assert victim_node not in set(n2["node_id"])
    assert set(e2["edge_id"]) == set(after["edge_id"]) - incident

    # --- malformed / unknown ids are no-ops (0 removed) — NOT a
    # bucket_of_hexid format-guard ValueError
    s2 = GraphStore(store)
    assert s2.delete_edges(["NOT-A-HEX-ID", "short", ""]) == 0
    assert s2.delete_node("UPPERCASE-OR-BUST") == \
        {"nodes_removed": 0, "edges_removed": 0}

    # --- ledger survived and the store still ingests increments
    inc = ingest_increment(p["b"], store)
    assert not inc["skipped"]
    assert table_counts(store)["edges"] == len(
        read_graph_table(store, "edges").to_pandas())


def test_compact_store(tmp_path):
    """Compaction: multi-file buckets collapse to one file, reads are
    unchanged, single-file buckets keep their inodes (hardlinked, never
    read), the ledger survives verbatim, and a second pass is a no-op
    (no swap at all — inodes stable)."""
    import json

    from guacray.pipelines.increment import compact_store

    p = _split_pages(tmp_path)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=32)
    ingest_increment(p["b"], store)
    # first pass: a freshly merged store has multi-file buckets (one
    # file per block x increment); after it EVERY bucket is single-file,
    # which makes the hardlink/inode assertions below actually bite
    compact_store(store)

    def bucket_files(table):
        d = os.path.join(store, table)
        out = {}
        for b in os.listdir(d):
            if b.startswith("bucket="):
                bd = os.path.join(d, b)
                out[b] = sorted(f for f in os.listdir(bd)
                                if f.endswith(".parquet"))
        return out

    # fabricate the at-scale state: split one bucket's file in two
    # (distributed merges emit one file per block x increment)
    nd = os.path.join(store, "nodes")
    victim = sorted(bucket_files("nodes"))[0]
    vdir = os.path.join(nd, victim)
    f0 = os.path.join(vdir, sorted(os.listdir(vdir))[0])
    t = pq.read_table(f0)
    assert len(t) >= 2, "fixture bucket too small to split"
    pq.write_table(t.slice(0, 1), f0 + ".half1.parquet")
    pq.write_table(t.slice(1), f0 + ".half2.parquet")
    os.remove(f0)

    before = {n: _table_df(read_graph_table(store, n), k)
              for n, k in (("nodes", "node_id"), ("edges", "edge_id"))}
    ledger_before = json.load(
        open(os.path.join(nd, "_applied.json")))
    untouched_inodes = {
        b: os.stat(os.path.join(nd, b, fs[0])).st_ino
        for b, fs in bucket_files("nodes").items()
        if b != victim and len(fs) == 1}
    assert untouched_inodes, "no single-file buckets — test can't bite"

    r = compact_store(store)
    assert r["compacted_nodes_buckets"] == 1

    after_files = bucket_files("nodes")
    assert all(len(fs) == 1 for fs in after_files.values())
    for n in ("nodes", "edges"):
        key = "node_id" if n == "nodes" else "edge_id"
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), key), before[n])
    assert json.load(
        open(os.path.join(nd, "_applied.json"))) == ledger_before
    for b, ino in untouched_inodes.items():
        assert os.stat(
            os.path.join(nd, b, after_files[b][0])).st_ino == ino, b

    # idempotent second pass: nothing multi-file left -> no swap
    inode_compacted = os.stat(
        os.path.join(nd, victim, after_files[victim][0])).st_ino
    r2 = compact_store(store)
    assert r2 == {"compacted_nodes_buckets": 0,
                  "compacted_edges_buckets": 0}
    assert os.stat(os.path.join(
        nd, victim, after_files[victim][0])).st_ino == inode_compacted


def test_compact_store_crash_recovery(tmp_path):
    """A crash mid-compaction leaves (a) a stale .__tmp__ dir and/or
    (b) one table compacted and the other not — both states must read
    correctly and a re-run must recover."""
    import json as _json
    import shutil

    from guacray.pipelines.increment import compact_store

    p = _split_pages(tmp_path)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=32)
    before = {n: _table_df(read_graph_table(store, n), k)
              for n, k in (("nodes", "node_id"), ("edges", "edge_id"))}

    # partial state: only nodes compacted (crash between the two swaps)
    compact_store(store, tables=("nodes",))
    for n, k in (("nodes", "node_id"), ("edges", "edge_id")):
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), k), before[n])

    # stale tmp dirs from a killed run must not poison the next one —
    # on the table still to compact AND on the already-compact one
    stale = [os.path.join(store, f"{n}.__tmp__") for n in ("edges", "nodes")]
    for s in stale:
        os.makedirs(os.path.join(s, "bucket=0"), exist_ok=True)
        with open(os.path.join(s, "bucket=0", "garbage.parquet"),
                  "w") as f:
            f.write("not parquet")
    r = compact_store(store)
    assert r["compacted_nodes_buckets"] == 0  # already done
    assert not any(os.path.exists(s) for s in stale)
    for n, k in (("nodes", "node_id"), ("edges", "edge_id")):
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), k), before[n])

    # an unknown table name fails before any work
    with pytest.raises(ValueError, match="unknown tables.*triples"):
        compact_store(store, tables=("nodes", "triples"))


def test_compact_store_refuses_missing_outputs(tmp_path, monkeypatch):
    """A compaction task that returns without writing its file (e.g. it
    ran on another node) must fail the pass before the swap: the live
    table's files stay exactly as they were."""
    import ray

    from guacray.pipelines import increment

    p = _split_pages(tmp_path)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=32)
    # give one bucket two files so the pass has a bucket to compact
    nd = os.path.join(store, "nodes")
    f0 = max((os.path.join(nd, b, f) for b in sorted(os.listdir(nd))
              if b.startswith("bucket=")
              for f in os.listdir(os.path.join(nd, b))),
             key=lambda f: pq.ParquetFile(f).metadata.num_rows)
    t = pq.read_table(f0)
    assert len(t) >= 2, "fixture bucket too small to split"
    pq.write_table(t.slice(0, 1), f0 + ".half1.parquet")
    pq.write_table(t.slice(1), f0 + ".half2.parquet")
    os.remove(f0)

    def layout():  # the live tables only (a failed pass leaves a tmp dir)
        return sorted((root, f, os.stat(os.path.join(root, f)).st_ino)
                      for t in ("nodes", "edges")
                      for root, _, fs in os.walk(os.path.join(store, t))
                      for f in fs)
    before = layout()

    @ray.remote
    def lost_write(files, dst, sort_col):
        return None
    monkeypatch.setattr(increment, "_compact_bucket", lost_write)
    with pytest.raises(RuntimeError, match="missing"):
        increment.compact_store(store)
    assert layout() == before


def test_run_kg_store_lifecycle(tmp_path):
    """One store through its whole life: build page set A and enrich it,
    rebuild the same dir from page set B at another bucket count (the
    tables equal reference_graph(B): no stale bucket rows, no stale
    increment partition, no scan state of A's enrichment), then ingest,
    delete, enrich and compact it."""
    import json

    import pyarrow as pa

    from guacray import schemas
    from guacray.data.reference import reference_graph
    from guacray.pipelines.enrich import run_enrichment
    from guacray.pipelines.increment import compact_store
    from guacray.query.graph import GraphStore
    from guacray.stages.agg import resolve_buckets

    pages = {}
    for name, n, offset in (("a", 192, 0), ("b", 160, 10_000),
                            ("c", 64, 20_000)):
        pages[name] = generate_pages(n, url_offset=offset)
        pq.write_table(pages[name], str(tmp_path / f"{name}.parquet"))
    store = str(tmp_path / "store")

    def expect_reference(pages_table):
        for rows, schema, name, key in zip(
                reference_graph(pages_table), (schemas.NODES, schemas.EDGES),
                ("nodes", "edges"), ("node_id", "edge_id")):
            want = pa.Table.from_pylist(rows, schema=schema).sort_by(key)
            got = pa.Table.from_pylist(
                read_graph_table(store, name).take_all(), schema=schema)
            assert got.sort_by(key).equals(want), name

    # --- build A, enrich it, rebuild the same dir from B
    run_kg(str(tmp_path / "a.parquet"), store, num_buckets=8)
    assert run_enrichment(store, certifier="category", now=1000.0)["scanned"]
    run_kg(str(tmp_path / "b.parquet"), store)
    expect_reference(pages["b"])
    assert not os.path.exists(os.path.join(store, "scan_state"))
    width = resolve_buckets(None)
    for name in ("nodes", "edges"):
        d = os.path.join(store, name)
        with open(os.path.join(d, "_applied.json")) as f:
            ledger = json.load(f)
        assert ledger["num_buckets"] == width
        buckets = [b for b in os.listdir(d) if b.startswith("bucket=")]
        assert {int(b.split("=")[1]) for b in buckets} <= set(range(width))
    assert os.listdir(os.path.join(store, "triples")) == \
        [f"increment={ledger['applied'][0]}"]

    # --- ingest: the store equals the batch graph of everything ingested
    r = ingest_increment(str(tmp_path / "c.parquet"), store)
    assert r["skipped"] is False
    expect_reference(pa.concat_tables([pages["b"], pages["c"]]))

    # --- delete_node: node gone, incident edges gone, others intact
    edges = read_graph_table(store, "edges").to_pandas()
    nodes = read_graph_table(store, "nodes").to_pandas()
    victim = nodes.query("node_type == 'org'")["node_id"].iloc[0]
    incident = set(edges[(edges["subj_id"] == victim)
                         | (edges["obj_id"] == victim)]["edge_id"])
    assert GraphStore(store).delete_node(victim) == \
        {"nodes_removed": 1, "edges_removed": len(incident)}
    edges = read_graph_table(store, "edges").to_pandas()
    assert victim not in set(read_graph_table(store, "nodes")
                             .to_pandas()["node_id"])
    assert not incident & set(edges["edge_id"])

    # --- enrichment merges one category edge per org: A's scan state
    #     went with the rebuild, so no org of B counts as scanned
    e = run_enrichment(store, certifier="category", now=1000.0)
    assert e["scanned"] == (read_graph_table(store, "nodes").to_pandas()
                            ["node_type"] == "org").sum()
    assert e["edges_total"] == len(edges) + e["scanned"]

    # --- compaction: every bucket one file, reads unchanged
    before = {n: _table_df(read_graph_table(store, n), k)
              for n, k in (("nodes", "node_id"), ("edges", "edge_id"))}
    compact_store(store)
    for n, k in (("nodes", "node_id"), ("edges", "edge_id")):
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), k), before[n])
        for root, _, fs in os.walk(os.path.join(store, n)):
            if os.path.basename(root).startswith("bucket="):
                assert len(fs) == 1, root
