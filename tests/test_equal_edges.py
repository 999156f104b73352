"""Undirected (equal) edge semantics + class expansion + n-hop chain
(assembler.go:84; retrieveDependencies.go:145-260;
searchForSBOM.go:35-456)."""

import datetime as dt
import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

from guacray import schemas
from guacray.data.reference import reference_graph
from guacray.functions.text import extract_text
from guacray.pipelines.kg import kg_datasets, write_table
from guacray.query.graph import GraphStore


def _page(html, url):
    b = html.encode()
    return {"url": url,
            "warc_ts": dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc),
            "html": b, "text": extract_text(b), "lang": "en"}


def _pages(rows):
    schema = pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())])
    return pa.Table.from_pylist(rows, schema=schema)


def _store(tmp_path, pages):
    out = kg_datasets(rd.from_arrow(pages))
    d = str(tmp_path / "g")
    write_table(out["nodes"], os.path.join(d, "nodes"), schemas.NODES)
    write_table(out["edges"], os.path.join(d, "edges"), schemas.EDGES)
    return GraphStore(d), out


def test_equal_edge_dedups_both_orientations(tmp_path):
    pages = _pages([
        _page("<p>Acme Corp partnered with Globex Corp.</p>", "https://x/1"),
        _page("<p>Globex Corp partnered with Acme Corp.</p>", "https://x/2"),
    ])
    store, out = _store(tmp_path, pages)
    edges = out["edges"].to_pandas()
    pw = edges[edges["predicate"] == "partnered_with"]
    assert len(pw) == 1                       # one edge, both orientations
    assert int(pw["n_evidence"].iloc[0]) == 2
    assert bool(pw["undirected"].iloc[0])
    assert pw["subj_id"].iloc[0] < pw["obj_id"].iloc[0]  # canonical order

    # reference oracle agrees exactly
    _, ref_edges = reference_graph(pages)
    ref_pw = [e for e in ref_edges if e["predicate"] == "partnered_with"]
    assert len(ref_pw) == 1
    assert ref_pw[0]["edge_id"] == pw["edge_id"].iloc[0]
    assert ref_pw[0]["undirected"] is True

    # neighbors reaches the edge from EITHER endpoint
    for nid in (pw["subj_id"].iloc[0], pw["obj_id"].iloc[0]):
        n = store.neighbors(nid, predicates=["partnered_with"]).to_pandas()
        assert len(n) == 1


def test_equivalence_class_and_expanded_neighbors(tmp_path):
    pages = _pages([
        _page("<p>Acme Corp partnered with Globex Corp. "
              "Globex Corp partnered with Initech Corp. "
              "Initech Corp released HyperWidget 2.0.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))
    acme = ids["Acme Corp"]
    cls = store.equivalence_class(acme)
    assert cls == {ids["Acme Corp"], ids["Globex Corp"], ids["Initech Corp"]}
    # Acme's CLASS neighbors include Initech's released edge
    exp = store.neighbors_of_class(acme).to_pandas()
    assert set(exp["predicate"]) == {"released"}
    assert len(exp) == 1


def test_three_hop_chain_with_props_filter(tmp_path):
    pages = _pages([
        _page("<p>Ada Lovelace works at Acme Corp as engineer. "
              "Acme Corp acquired Globex Corp. "
              "Globex Corp released HyperWidget 2.0. "
              "Globex Corp released HyperEngine.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))

    got = store.chain(["works_at", "acquired", "released"]).to_pandas()
    assert len(got) == 2                       # both released targets
    assert set(got["n0"]) == {ids["Ada Lovelace"]}
    assert set(got["n1"]) == {ids["Acme Corp"]}
    assert set(got["n2"]) == {ids["Globex Corp"]}

    # per-hop props filter: only the VERSIONED release survives
    flt = store.chain(["works_at", "acquired", "released"],
                      props_filters=[None, None, ("version", None)]) \
        .to_pandas()
    assert len(flt) == 1
    vers = nodes[nodes["qualifiers"] != ""]
    assert flt["n3"].iloc[0] == vers["node_id"].iloc[0]


def test_connected_components_vs_union_find():
    """Distributed label propagation == driver union-find on the same
    edge set (random graph + chain + isolated pair)."""
    import numpy as np

    from guacray.stages.components import connected_components

    rng = np.random.RandomState(7)
    edges = [(f"n{a:03d}", f"n{b:03d}")
             for a, b in rng.randint(0, 24, size=(30, 2)) if a != b]
    # pointer jumping makes rounds O(log diameter): a 6-chain converges
    # in ~3 rounds (each round is several Ray executions — keep small)
    edges += [(f"c{i:02d}", f"c{i+1:02d}") for i in range(6)]
    edges += [("z1", "z2")]
    ds = rd.from_items([{"subj_id": a, "obj_id": b} for a, b in edges])

    got = connected_components(ds).to_pandas()
    got_map = dict(zip(got["node_id"], got["component"]))

    # reference: union-find
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    exp = {}
    for n in parent:
        exp.setdefault(find(n), []).append(n)
    exp_map = {n: min(members) for root, members in exp.items()
               for n in members}
    assert got_map == exp_map


def test_components_of_partnered_clusters(tmp_path):
    """Component labels over the undirected predicate reproduce the
    per-node equivalence_class BFS."""
    pages = _pages([
        _page("<p>Acme Corp partnered with Globex Corp. "
              "Globex Corp partnered with Initech Corp. "
              "Umbrella Corp partnered with Stark Corp.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    from guacray.stages.components import connected_components
    pw = out["edges"].to_pandas()
    pw = pw[pw["predicate"] == "partnered_with"]
    comp = connected_components(
        rd.from_pandas(pw[["subj_id", "obj_id"]])).to_pandas()
    cmap = dict(zip(comp["node_id"], comp["component"]))
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))
    acme_cls = store.equivalence_class(ids["Acme Corp"])
    assert {n for n, c in cmap.items()
            if c == cmap[ids["Acme Corp"]]} == acme_cls
    assert cmap[ids["Umbrella Corp"]] == cmap[ids["Stark Corp"]]
    assert cmap[ids["Umbrella Corp"]] != cmap[ids["Acme Corp"]]


def test_class_aware_traversal_reaches_through_members(tmp_path):
    """A path that only exists through an equivalence-class member is
    found (retrieveDependencies.go:145-260 mid-closure expansion):
    Acme ~ Globex (partnered), and only GLOBEX acquired Initech."""
    pages = _pages([
        _page("<p>Acme Corp partnered with Globex Corp. "
              "Globex Corp acquired Initech Corp. "
              "Initech Corp released HyperWidget 2.0.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))
    acme, initech = ids["Acme Corp"], ids["Initech Corp"]

    # plain BFS from Acme over 'acquired' finds nothing
    plain = store.reachable(acme, predicates=["acquired"])
    assert initech not in plain
    # class-aware BFS walks through Globex (same class, depth 0)
    got = store.reachable(acme, predicates=["acquired"],
                          class_predicate="partnered_with")
    assert got[initech] == 1
    # and keeps going: acquired then released
    got2 = store.reachable(acme, predicates=["acquired", "released"],
                           class_predicate="partnered_with")
    hw = nodes[nodes["name"].str.startswith("HyperWidget")]
    assert any(n in got2 for n in hw["node_id"])


def test_class_aware_traversal_dataset_hand_off(tmp_path, monkeypatch):
    """The class-aware walk equals its driver-side result when a small
    DRIVER_BFS_LIMIT cuts it before a hop, inside the start node's class
    closure (from Initech, limits 0 and 1) or inside the closure after
    a hop (from Stark, limit 1): the dataset-resident continuation
    re-closes the cut layer.  Stark acquired Initech, whose class holds
    Umbrella and Wayne; only Umbrella released the product."""
    pages = _pages([
        _page("<p>Stark Corp acquired Initech Corp. "
              "Initech Corp partnered with Umbrella Corp. "
              "Initech Corp partnered with Wayne Corp. "
              "Umbrella Corp released HyperWidget 2.0.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))
    cls = [ids[n] for n in ("Initech Corp", "Umbrella Corp", "Wayne Corp")]

    def walk(start):
        kw = dict(predicates=["acquired", "released"],
                  class_predicate="partnered_with")
        got = store.reachable(start, **kw)
        df = store.reachable_dataset(start, **kw).to_pandas()
        assert dict(zip(df["node_id"], (int(x) for x in df["depth"]))) == got
        return got

    for start, d in ((ids["Stark Corp"], 1), (ids["Initech Corp"], 0)):
        want = walk(start)
        assert [want[n] for n in cls] == [d] * 3
        assert d + 1 in want.values()  # the product, through Umbrella
        for lim in (0, 1, 2):
            monkeypatch.setattr(GraphStore, "DRIVER_BFS_LIMIT", lim)
            assert walk(start) == want, (start, lim)
        monkeypatch.undo()


def test_chain_with_classes_joins_through_members(tmp_path):
    """chain_with_classes: hop boundary matches through the class —
    Ada works at Acme; only Globex (Acme's partner) acquired Initech."""
    pages = _pages([
        _page("<p>Ada Lovelace works at Acme Corp as engineer. "
              "Acme Corp partnered with Globex Corp. "
              "Globex Corp acquired Initech Corp.</p>", "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    nodes = out["nodes"].to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))

    plain = store.chain(["works_at", "acquired"]).to_pandas()
    assert len(plain) == 0
    got = store.chain_with_classes(["works_at", "acquired"]).to_pandas()
    assert len(got) == 1
    assert got["n0"].iloc[0] == ids["Ada Lovelace"]
    assert got["n1"].iloc[0] == ids["Acme Corp"]   # left side's id kept
    assert got["n2"].iloc[0] == ids["Initech Corp"]


def test_delete_node_removes_incident_edges(tmp_path):
    """Node delete = node + relationships in one atomic rewrite
    (schema/delete.graphql); evidence retained; tombstone logs both."""
    import json as _json

    pages = _pages([
        _page("<p>Ada Lovelace works at Acme Corp as engineer. "
              "Acme Corp acquired Globex Corp. "
              "Globex Corp released HyperEngine.</p>", "https://x/1"),
    ])
    import pyarrow.parquet as pq

    from guacray.pipelines.increment import read_graph_table
    from guacray.pipelines.kg import run_kg
    pq.write_table(pages, str(tmp_path / "pages.parquet"))
    d = str(tmp_path / "g")
    run_kg(str(tmp_path / "pages.parquet"), d)
    store = GraphStore(d)
    nodes = read_graph_table(d, "nodes").to_pandas()
    ids = dict(zip(nodes["name"], nodes["node_id"]))
    acme = ids["Acme Corp"]
    n_ev_before = read_graph_table(d, "triples").count()

    res = store.delete_node(acme)
    assert res["nodes_removed"] == 1
    assert res["edges_removed"] == 2            # works_at in, acquired out

    assert store.node_by_id(acme).count() == 0
    assert store.neighbors(acme).count() == 0
    # untouched edge survives
    rem = read_graph_table(d, "edges").to_pandas()
    assert set(rem["predicate"]) == {"released"}
    # evidence (triples checkpoint) retained
    assert read_graph_table(d, "triples").count() == n_ev_before
    # tombstone log records node and edges
    log = [_json.loads(ln) for ln in
           open(os.path.join(d, "_tombstones.jsonl"))]
    assert log[-1]["node_id"] == acme
    assert log[-1]["removed_edges"] == 2 and len(log[-1]["edge_ids"]) == 2


def test_edges_page_cursor(tmp_path):
    pages = _pages([
        _page("<p>Ada Lovelace works at Acme Corp as engineer. "
              "Acme Corp acquired Globex Corp. "
              "Globex Corp released HyperEngine. "
              "Umbrella Corp partnered with Stark Corp. "
              "Grace Hopper works at Globex Corp as scientist.</p>",
              "https://x/1"),
    ])
    store, out = _store(tmp_path, pages)
    all_ids = sorted(out["edges"].to_pandas()["edge_id"])
    got, cursor = [], ""
    while cursor is not None:
        page, cursor = store.edges_page(after_edge_id=cursor, limit=2)
        got.extend(page["edge_id"])
        assert len(page) <= 2
    assert got == all_ids


def test_fingerprint_chunk_matches_per_row_reference():
    """The vectorized fingerprint partial must equal the original
    per-row big-int encoding exactly, including empty and max-width
    labels and sliced/chunked arrays."""
    import random

    import pyarrow as pa

    from guacray.stages.components import _FP_WIDTH, _fingerprint_chunk

    rng = random.Random(7)
    labels = ["", "a", "z" * _FP_WIDTH,
              "ent:person::ada-turing", "\x01\x00tricky",
              "é" * 10, "日本語テスト", "é" * 32]
    labels += ["".join(rng.choices("0123456789abcdef:._-",
                                   k=rng.randrange(0, _FP_WIDTH + 1)))
               for _ in range(500)]

    def per_row(vals):
        s = 0
        for lb in vals:
            b = lb.encode()
            s += int.from_bytes(b.ljust(_FP_WIDTH, b"\x00"), "big")
        return s

    arr = pa.array(labels, type=pa.string())
    assert _fingerprint_chunk(arr) == per_row(labels)
    # sliced view (non-zero offset) and large_string must agree too
    sl = arr.slice(3, 200)
    assert _fingerprint_chunk(sl) == per_row(labels[3:203])
    big = pa.array(labels, type=pa.large_string())
    assert _fingerprint_chunk(big) == per_row(labels)
    assert _fingerprint_chunk(arr.slice(0, 0)) == 0
    # all-empty chunk: Arrow may hand back a null data buffer
    assert _fingerprint_chunk(pa.array(["", "", ""])) == 0
