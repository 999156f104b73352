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
    """Crash safety: SIGKILL an ingest_increment mid-run (0.5 s after
    its delta checkpoint's staging dir ``_staging/increment=<id>``
    appears,
    which is when the link pass starts — tables unswapped, ledger not
    yet updated), replay it, and require equality with a clean
    build+ingest.  The edges ledger is the commit marker; a killed run
    must be invisible after replay.  ``test_increment_crash_after_
    checkpoint_replay_equals_clean`` covers the later window, between
    the checkpoint's commit and the table swaps."""
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
    marker = os.path.join(victim, "_staging", "increment=inc-*")
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


def test_increment_crash_after_checkpoint_replay_equals_clean(tmp_path,
                                                             monkeypatch):
    """Crash safety between the delta's checkpoint commit and the table
    swaps: the store write raises before any swap, with the checkpoint
    partition committed.  The tables and ledger stay as they were, and
    replaying the ingest equals a clean build+ingest, evidence
    included (the replay rewrites the partition, never adds a copy)."""
    from guacray.pipelines import increment

    p = _split_pages(tmp_path, n=256, cut=128)
    clean = str(tmp_path / "clean")
    run_kg(p["a"], clean, num_buckets=32)
    ingest_increment(p["b"], clean)

    victim = str(tmp_path / "victim")
    run_kg(p["a"], victim, num_buckets=32)
    before = table_counts(victim)
    tri = os.path.join(victim, "triples")

    def crash(*args, **kwargs):
        parts = sorted(os.listdir(tri))
        assert len(parts) == 2 and not any("__tmp__" in d for d in parts)
        raise RuntimeError("injected crash before the swap")
    with monkeypatch.context() as m:
        m.setattr(increment, "write_store", crash)
        with pytest.raises(RuntimeError, match="injected crash"):
            ingest_increment(p["b"], victim)
    assert table_counts(victim) == before
    assert ingest_increment(p["b"], victim)["skipped"] is False  # replay
    for name, key in (("nodes", "node_id"), ("edges", "edge_id"),
                      ("triples", ["url", "edge_id"])):
        got = _table_df(read_graph_table(victim, name), key)
        want = _table_df(read_graph_table(clean, name), key)
        pd.testing.assert_frame_equal(got, want)


def test_increment_crash_before_checkpoint_commit_is_invisible(
        tmp_path, monkeypatch):
    """Crash between the delta's link pass and its checkpoint commit.
    The checkpoint is staged outside ``triples/``, so no ``.__tmp__`` or
    ``.__old__`` name appears under it, and the triples count and an
    edge's evidence stay at their pre-ingest values.  Replaying the
    ingest then equals a clean build+ingest."""
    from guacray.pipelines import increment
    from guacray.query.graph import GraphStore

    p = _split_pages(tmp_path, n=256, cut=128)
    clean = str(tmp_path / "clean")
    run_kg(p["a"], clean, num_buckets=32)
    ingest_increment(p["b"], clean)

    victim = str(tmp_path / "victim")
    run_kg(p["a"], victim, num_buckets=32)

    def evidence(store):
        df = read_graph_table(store, "triples").to_pandas()
        return df["edge_id"].value_counts().to_dict()
    before, after = evidence(victim), evidence(clean)
    # an edge the delta adds evidence to
    edge = min(e for e, n in before.items() if after[e] > n)

    def crash(*args, **kwargs):
        raise RuntimeError("injected crash before the checkpoint commit")
    with monkeypatch.context() as m:
        m.setattr(increment, "_commit_dir", crash)
        with pytest.raises(RuntimeError, match="injected crash"):
            ingest_increment(p["b"], victim)
    tri = os.listdir(os.path.join(victim, "triples"))
    assert not [d for d in tri if d.endswith((".__tmp__", ".__old__"))], tri
    assert read_graph_table(victim, "triples").count() == sum(before.values())
    assert GraphStore(victim).evidence_for_edge(edge).count() == before[edge]

    assert ingest_increment(p["b"], victim)["skipped"] is False  # replay
    for name, key in (("nodes", "node_id"), ("edges", "edge_id"),
                      ("triples", ["url", "edge_id"])):
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


def _bucket_layout(store, table):
    """{bucket: [(file, inode)]} of a store table's bucket dirs."""
    d = os.path.join(store, table)
    return {int(b.split("=")[1]): sorted(
        (f, os.stat(os.path.join(d, b, f)).st_ino)
        for f in os.listdir(os.path.join(d, b)))
        for b in os.listdir(d) if b.startswith("bucket=")}


def test_one_file_per_bucket_after_every_write(tmp_path):
    """Every store write — build, ingest, enrichment, edge delete, node
    delete — leaves each bucket dir of nodes/ and edges/ with exactly
    one parquet file, rewrites only the buckets its ids land in (the
    others keep their inodes), and leaves tables equal to a clean
    rebuild or a filter of the previous tables."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from guacray.functions.hashing import bucket_of_hexid
    from guacray.pipelines.enrich import ENRICH_PREDICATE, run_enrichment
    from guacray.query.graph import GraphStore

    p = _split_pages(tmp_path, n=320, cut=256)
    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    nb = 8

    def tables(where):
        return {name: pa.Table.from_pylist(
            read_graph_table(where, name).take_all()).sort_by(key)
            for name, key in (("nodes", "node_id"), ("edges", "edge_id"))}

    def write(step, touched):
        """Run one write; check the layout against the buckets
        ``touched(tables before)`` names per table."""
        before_t = tables(store)
        before = {n: _bucket_layout(store, n) for n in ("nodes", "edges")}
        step()
        expect = touched(before_t)
        for name in ("nodes", "edges"):
            after = _bucket_layout(store, name)
            for b, files in after.items():
                assert len(files) == 1 and files[0][0].endswith(".parquet"), \
                    (name, b, files)
            for b in set(before[name]) - expect[name]:
                assert after[b] == before[name][b], (name, b)

    def buckets(ids):
        return set(bucket_of_hexid(list(ids), nb).to_pylist())

    run_kg(p["a"], store, num_buckets=nb)
    for name in ("nodes", "edges"):
        assert all(len(fs) == 1
                   for fs in _bucket_layout(store, name).values())

    # ingest: the delta's ids name the touched buckets of both tables
    def delta_buckets(_):
        ids = pq.read_table(os.path.join(store, "triples",
                                         f"increment={ingest['increment']}"),
                            columns=["subj_id", "obj_id", "edge_id"])
        t = buckets(pc.unique(pa.chunked_array(
            ids["subj_id"].chunks + ids["obj_id"].chunks
            + ids["edge_id"].chunks)).to_pylist())
        return {"nodes": t, "edges": t}
    ingest = {}
    write(lambda: ingest.update(ingest_increment(p["b"], store)),
          delta_buckets)
    run_kg(p["full"], ref, num_buckets=nb)
    assert tables(store) == tables(ref)

    # enrichment: the new category nodes and edges name them
    def enriched_buckets(before_t):
        e = tables(store)["edges"]
        new = e.filter(pc.invert(pc.is_in(
            e["edge_id"], value_set=before_t["edges"]["edge_id"])))
        t = buckets(new["edge_id"].to_pylist() + new["obj_id"].to_pylist())
        return {"nodes": t, "edges": t}
    write(lambda: run_enrichment(store, certifier="category", now=1000.0),
          enriched_buckets)
    got, want = tables(store), tables(ref)
    derived = pc.equal(got["edges"]["predicate"], ENRICH_PREDICATE)
    assert got["edges"].filter(pc.invert(derived)) == want["edges"]
    assert got["nodes"].filter(pc.invert(pc.equal(
        got["nodes"]["node_type"], "category"))) == want["nodes"]

    # delete_edges: 5 ids rewrite their edges buckets only
    victims = got["edges"]["edge_id"].to_pylist()[:5]
    write(lambda: GraphStore(store).delete_edges(victims),
          lambda _: {"nodes": set(), "edges": buckets(victims)})
    after = tables(store)
    assert after["edges"] == got["edges"].filter(pc.invert(pc.is_in(
        got["edges"]["edge_id"], value_set=pa.array(victims))))
    assert after["nodes"] == got["nodes"]

    # delete_node: its bucket, and its incident edges' buckets
    e = after["edges"]
    victim = after["nodes"].filter(pc.equal(
        after["nodes"]["node_type"], "org"))["node_id"][0].as_py()
    incident = e.filter(pc.or_(pc.equal(e["subj_id"], victim),
                               pc.equal(e["obj_id"], victim)))
    write(lambda: GraphStore(store).delete_node(victim),
          lambda _: {"nodes": buckets([victim]),
                     "edges": buckets(incident["edge_id"].to_pylist())})
    final = tables(store)
    assert final["nodes"] == after["nodes"].filter(
        pc.not_equal(after["nodes"]["node_id"], victim))
    assert final["edges"] == e.filter(pc.invert(pc.is_in(
        e["edge_id"], value_set=incident["edge_id"])))


def test_write_store_clears_stale_tmp(tmp_path):
    """A killed earlier write leaves ``<table>.__tmp__`` dirs behind;
    the next write clears them first, so none of their files reach the
    published tables."""
    p = _split_pages(tmp_path)
    store, ref = str(tmp_path / "store"), str(tmp_path / "ref")
    run_kg(p["a"], store, num_buckets=32)
    stale = [os.path.join(store, f"{n}.__tmp__") for n in ("edges", "nodes")]
    for s in stale:
        os.makedirs(os.path.join(s, "bucket=0"), exist_ok=True)
        with open(os.path.join(s, "bucket=0", "garbage.parquet"),
                  "w") as f:
            f.write("not parquet")
    ingest_increment(p["b"], store)
    assert not any(os.path.exists(s) for s in stale)
    run_kg(p["full"], ref, num_buckets=32)
    for n, k in (("nodes", "node_id"), ("edges", "edge_id")):
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), k),
            _table_df(read_graph_table(ref, n), k))


def test_write_store_refuses_missing_outputs(tmp_path, monkeypatch):
    """A reduce task that reports a bucket file but left none (e.g. it
    ran on another node) fails the write before any swap: the live
    tables stay byte-for-byte as they were."""
    from guacray.pipelines import increment

    p = _split_pages(tmp_path)
    store = str(tmp_path / "store")
    run_kg(p["a"], store, num_buckets=32)

    def layout():  # the live tables only (a failed write leaves tmp dirs)
        out = []
        for t in ("nodes", "edges"):
            for root, _, fs in os.walk(os.path.join(store, t)):
                for f in fs:
                    path = os.path.join(root, f)
                    with open(path, "rb") as fh:
                        out.append((path, os.stat(path).st_ino, fh.read()))
        return sorted(out)
    before = layout()

    reducer = increment._bucket_reducer

    def lossy_reducer(tmps):
        reduce = reducer(tmps)

        def lose_bucket_0(group):
            out = reduce(group)
            if group["bucket"][0].as_py() == 0:
                os.remove(os.path.join(tmps["edges"], "bucket=0",
                                       increment.BUCKET_FILE))
            return out
        return lose_bucket_0
    monkeypatch.setattr(increment, "_bucket_reducer", lossy_reducer)
    with pytest.raises(RuntimeError, match="missing"):
        ingest_increment(p["b"], store)
    assert layout() == before


def test_run_kg_store_lifecycle(tmp_path):
    """One store through its whole life: build page set A and enrich it,
    rebuild the same dir from page set B at another bucket count (the
    tables equal reference_graph(B): no stale bucket rows, no stale
    increment partition, no scan state of A's enrichment), then ingest,
    delete and enrich it: every bucket stays one file."""
    import json

    import pyarrow as pa

    from guacray import schemas
    from guacray.data.reference import reference_graph
    from guacray.pipelines.enrich import run_enrichment
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

    # --- every bucket one file, reads unchanged
    before = {n: _table_df(read_graph_table(store, n), k)
              for n, k in (("nodes", "node_id"), ("edges", "edge_id"))}
    for n, k in (("nodes", "node_id"), ("edges", "edge_id")):
        pd.testing.assert_frame_equal(
            _table_df(read_graph_table(store, n), k), before[n])
        for root, _, fs in os.walk(os.path.join(store, n)):
            if os.path.basename(root).startswith("bucket="):
                assert len(fs) == 1, root
