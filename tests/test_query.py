"""Graph query module + sources + multimodal plumbing tests.

Mirrors the reference's e2e golden-query pattern: build a small graph,
run fixed queries, compare normalized results
(/root/reference/internal/testing/e2e/e2e:112-190).
"""

import os

import pytest
import ray.data as rd

from guacray.data.pages import generate_pages
from guacray.data.reference import reference_graph
from guacray.functions.keys import entity_key, node_id
from guacray.pipelines.kg import run_kg, write_table
from guacray.query.graph import GraphStore
from guacray import schemas


@pytest.fixture(scope="module")
def store(small_pages_path, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("graph"))
    run_kg(small_pages_path, d)
    return GraphStore(d)


ACME = node_id(entity_key("org", "Acme Corp"))


def test_node_filters(store, small_pages):
    orgs = store.nodes(node_type="org").to_pandas()
    ref_nodes, _ = reference_graph(small_pages)
    assert len(orgs) == sum(1 for n in ref_nodes if n["node_type"] == "org")
    hit = store.nodes(node_key=entity_key("org", "Acme Corp")).to_pandas()
    assert len(hit) == 1 and hit.iloc[0]["name"] == "Acme Corp"


def test_find_nodes_substring(store):
    got = store.find_nodes("acme").to_pandas()
    assert ACME in set(got["node_id"])


def test_neighbors_match_reference(store, small_pages):
    _, ref_edges = reference_graph(small_pages)
    exp_in = {e["edge_id"] for e in ref_edges if e["obj_id"] == ACME}
    exp_out = {e["edge_id"] for e in ref_edges if e["subj_id"] == ACME}
    got = store.neighbors(ACME).to_pandas()
    assert set(got["edge_id"]) == exp_in | exp_out
    got_works = store.neighbors(ACME, predicates=["works_at"]).to_pandas()
    assert set(got_works["edge_id"]) == \
        {e["edge_id"] for e in ref_edges
         if e["predicate"] == "works_at" and ACME in (e["subj_id"], e["obj_id"])}


def test_bfs_path_and_reachable(store, small_pages):
    _, ref_edges = reference_graph(small_pages)
    # pick an edge and check the trivial 2-node path
    e = ref_edges[0]
    path = store.bfs_path(e["subj_id"], e["obj_id"], max_len=3)
    assert path is not None and path[0] == e["subj_id"] \
        and path[-1] == e["obj_id"] and len(path) == 2
    # reachable from Acme covers at least its direct neighborhood
    depth = store.reachable(ACME, direction="both", max_depth=2)
    direct = ({e["subj_id"] for e in ref_edges if e["obj_id"] == ACME} |
              {e["obj_id"] for e in ref_edges if e["subj_id"] == ACME}) \
        - {ACME}  # self-loops (alias → same canonical) stay at depth 0
    assert direct <= set(depth)
    assert all(depth[n] == 1 for n in direct)
    assert depth[ACME] == 0


def test_top_dependents(store, small_pages):
    _, ref_edges = reference_graph(small_pages)
    import collections
    cnt = collections.Counter(e["obj_id"] for e in ref_edges
                              if e["predicate"] == "works_at")
    got = store.top_dependents(k=5, predicate="works_at").to_pandas()
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(zip(got["obj_id"], got["n_edges"])) == exp


def test_toposort_runs(store):
    order = store.toposort(ACME, direction="out", max_depth=3)
    # Kahn's algorithm: outputs the acyclic part, each node once; the
    # synthetic graph contains cycles (mutual acquisitions), so only
    # check the topological contract, not full coverage.
    assert len(order) > 0
    assert len(order) == len(set(order))
    reach = set(store.reachable(ACME, direction="out", max_depth=3))
    assert set(order) <= reach


def test_toposort_levels_contract(store):
    levels = store.toposort_levels(ACME, direction="out", max_depth=3)
    order = store.toposort(ACME, direction="out", max_depth=3)
    # same node set as the flat Kahn order, roots at 0
    assert set(levels) == set(order)
    assert min(levels.values()) == 0
    # every depth-increasing edge must strictly increase the level
    # (the topological-layering contract the SQL oracle re-derives)
    depth = store.reachable(ACME, direction="out", max_depth=3)
    edges = store._frontier_expand(set(depth), None, "out")
    for s, o in zip(edges["subj_id"].to_pylist(),
                    edges["obj_id"].to_pylist()):
        if s in levels and o in levels and depth[s] < depth[o]:
            assert levels[o] > levels[s]
    # level == longest path from roots: some parent sits exactly one
    # level below every non-root node
    parents: dict[str, list[int]] = {}
    for s, o in zip(edges["subj_id"].to_pylist(),
                    edges["obj_id"].to_pylist()):
        if s in levels and o in levels and depth[s] < depth[o]:
            parents.setdefault(o, []).append(levels[s])
    for n, lvl in levels.items():
        if lvl > 0:
            assert max(parents[n]) == lvl - 1


def test_toposort_direction_in(store):
    """direction='in' must layer the REVERSE traversal: the BFS walks
    edges backwards, so the DAG edge for a raw (s, o) is (o, s) when
    depth[o] < depth[s].  The old hardcoded depth[s] < depth[o] filter
    kept zero traversal edges and reported (almost) every node at
    level 0."""
    depth = store.reachable(ACME, direction="in", max_depth=3)
    if max(depth.values()) == 0:  # nothing points at ACME in fixture
        import pytest
        pytest.skip("fixture has no in-edges at ACME")
    levels = store.toposort_levels(ACME, direction="in", max_depth=3)
    order = store.toposort(ACME, direction="in", max_depth=3)
    assert set(levels) == set(order) == set(depth)
    # traversal edges constrain the layering: some node must sit at a
    # level > 0 (there IS at least one depth-1 node)
    assert max(levels.values()) > 0
    # contract: every kept DAG edge (o -> s, depth[o] < depth[s])
    # strictly increases the level
    edges = store._frontier_expand(set(depth), None, "both")
    for s, o in zip(edges["subj_id"].to_pylist(),
                    edges["obj_id"].to_pylist()):
        if s in levels and o in levels and depth[o] < depth[s]:
            assert levels[s] > levels[o]


def test_evidence_drilldown(store, small_pages):
    _, ref_edges = reference_graph(small_pages)
    e = max(ref_edges, key=lambda x: x["n_evidence"])
    ev = store.evidence_for_edge(e["edge_id"]).to_pandas()
    assert len(ev) == e["n_evidence"]
    assert all(r.startswith("sha256_") for r in ev["document_ref"])


def test_jsonlines_explode(tmp_path):
    import ray.data as rd
    from guacray.sources.readers import explode_jsonlines, read_binary_docs
    p = tmp_path / "docs.jsonl"
    p.write_text('{"a": 1}\n\nnot json\n{"b": 2}\n')
    ds = read_binary_docs(str(p))
    out = explode_jsonlines(ds).to_pandas().sort_values("line_no")
    assert len(out) == 3  # blank line skipped
    assert list(out["error"].str.len() > 0) == [False, True, False]


def test_multimodal_fake_decode():
    import ray.data as rd
    from guacray.stages.multimodal import (MediaDecoder,
                                           extract_media_features,
                                           synth_media_table)
    media = synth_media_table(32)
    feats = extract_media_features(rd.from_arrow(media)).to_pandas()
    assert len(feats) == 32
    assert all(len(f) == MediaDecoder.FEAT_DIM for f in feats["features"])
    # deterministic per payload content
    again = extract_media_features(rd.from_arrow(media)).to_pandas()
    a = feats.sort_values("media_id").reset_index(drop=True)
    b = again.sort_values("media_id").reset_index(drop=True)
    assert (a["payload_sha256"] == b["payload_sha256"]).all()
    assert all(list(x) == list(y) for x, y in zip(a["features"], b["features"]))
    # unknown decoder modes are rejected
    import pytest as _pt
    with _pt.raises(ValueError):
        MediaDecoder(decoder="nonsense")


def test_pagination_cursor(store):
    seen = []
    cursor = ""
    pages_count = 0
    while True:
        rows, cursor = store.nodes_page(after_node_id=cursor or "",
                                        limit=50, node_type="person")
        seen.extend(rows["node_id"])
        pages_count += 1
        if cursor is None:
            break
    all_persons = store.nodes(node_type="person").to_pandas()
    assert sorted(seen) == sorted(all_persons["node_id"])
    assert len(seen) == len(set(seen))
    assert pages_count >= 2  # actually paginated


def test_delete_edges_tombstone(store, small_pages, tmp_path):
    # operate on a private copy: other tests share `store`
    import shutil
    from guacray.pipelines.increment import read_graph_table
    from guacray.query.graph import GraphStore
    d = str(tmp_path / "graph_del")
    shutil.copytree(os.path.dirname(store.edges_path), d)
    s2 = GraphStore(d)
    edges = read_graph_table(d, "edges").to_pandas()
    victims = sorted(edges["edge_id"])[:5]
    removed = s2.delete_edges(victims)
    assert removed == 5
    after = read_graph_table(d, "edges").to_pandas()
    assert set(after["edge_id"]) == set(edges["edge_id"]) - set(victims)
    import json
    log = open(os.path.join(d, "_tombstones.jsonl")).read().strip()
    assert json.loads(log)["removed"] == 5


def test_identifier_strings(small_pages):
    import collections
    import ray.data as rd
    from guacray.data.reference import reference_triples
    from guacray.pipelines.kg import linked_triples
    from guacray.stages.extract import identifier_strings
    tri = linked_triples(rd.from_arrow(small_pages))
    got = identifier_strings(tri).to_pandas()
    ref = collections.Counter()
    for t in reference_triples(small_pages):
        ref[t["subj_surface"]] += 1
        ref[t["obj_surface"]] += 1
    assert dict(zip(got["surface"], got["n_mentions"])) == dict(ref)


def test_source_registry(tmp_path):
    from guacray.sources.readers import READERS
    p = tmp_path / "rows.jsonl"
    p.write_text('{"a": 1}\n{"a": 2}\n')
    assert READERS["jsonl"](str(p)).count() == 2
    c = tmp_path / "rows.csv"
    c.write_text("x,y\n1,2\n3,4\n")
    assert READERS["csv"](str(c)).count() == 2
    t = tmp_path / "rows.txt"
    t.write_text("hello\nworld\n")
    assert READERS["text"](str(t)).count() == 2


def test_reachable_hybrid_parity(store, monkeypatch):
    """The dataset-resident BFS (forced by a zero DRIVER_BFS_LIMIT) must
    equal the driver-side walk for every direction, and so must the
    class-aware walk, in both its dict and its Dataset form."""
    seed = store.nodes(node_type="org").to_pandas()["node_id"].min()
    want = {d: store.reachable(seed, direction=d, max_depth=6)
            for d in ("out", "in", "both")}
    a = store.reachable(seed, direction="out", max_depth=6,
                        class_predicate="partnered_with")
    monkeypatch.setattr(GraphStore, "DRIVER_BFS_LIMIT", 0)
    for direction, w in want.items():
        assert store.reachable(seed, direction=direction, max_depth=6) == w
        assert w[seed] == 0
    b = store.reachable(seed, direction="out", max_depth=6,
                        class_predicate="partnered_with")
    ds = store.reachable_dataset(seed, direction="out", max_depth=6,
                                 class_predicate="partnered_with")
    df = ds.to_pandas()
    c = dict(zip(df["node_id"], (int(x) for x in df["depth"])))
    assert a == b == c


def test_reachable_mid_walk_escalation(store, monkeypatch):
    """A small nonzero DRIVER_BFS_LIMIT escalates MID-walk (after some
    driver-side hops); the continuation must pick up exactly where the
    driver phase stopped."""
    seed = store.nodes(node_type="org").to_pandas()["node_id"].min()
    want = store.reachable(seed, direction="out", max_depth=8)
    for lim in (1, 5, 50):
        monkeypatch.setattr(GraphStore, "DRIVER_BFS_LIMIT", lim)
        got = store.reachable(seed, direction="out", max_depth=8)
        assert got == want


def _hub_store(tmp_path, n):
    """Synthetic hub store: node "hub" fanning out to n leaves (the
    expansion that would flood the driver), behind a chain a -> hub -> b."""
    import pyarrow as pa

    center, leaves = "hub", [f"leaf{i:05d}" for i in range(n)]
    edges = {
        "edge_id": [f"e{i}" for i in range(n + 2)],
        "subj_id": ["a", center] + [center] * n,
        "predicate": ["linked_to"] * (n + 2),
        "obj_id": [center, "b"] + leaves,
        "props": [""] * (n + 2),
        "first_seen": pa.nulls(n + 2, type=schemas.TS),
        "n_evidence": [1] * (n + 2),
        "undirected": [False] * (n + 2),
    }
    nodes_ids = ["a", "b", center] + leaves
    nodes = {
        "node_id": nodes_ids,
        "node_key": nodes_ids,
        "node_type": ["org"] * len(nodes_ids),
        "name": nodes_ids,
        "qualifiers": [""] * len(nodes_ids),
    }
    d = str(tmp_path / "hub")
    write_table(rd.from_arrow(pa.table(edges).cast(schemas.EDGES)),
                os.path.join(d, "edges"), schemas.EDGES)
    write_table(rd.from_arrow(pa.table(nodes).cast(schemas.NODES)),
                os.path.join(d, "nodes"), schemas.NODES)
    return GraphStore(d)


def test_reachable_hub_graph_distributed(tmp_path, monkeypatch):
    """The distributed path must return all depths of the hub graph
    without the driver ever collecting the hub's expansion
    (DRIVER_BFS_LIMIT << n)."""
    n = 3000
    s = _hub_store(tmp_path, n)
    monkeypatch.setattr(GraphStore, "DRIVER_BFS_LIMIT", 100)
    got = s.reachable("a", direction="out", max_depth=4)
    assert got["a"] == 0 and got["hub"] == 1 and got["b"] == 2
    assert len(got) == n + 3 and got["leaf00000"] == 2
    # dataset form agrees
    df = s.reachable_dataset("a", direction="out", max_depth=4).to_pandas()
    assert dict(zip(df["node_id"], (int(x) for x in df["depth"]))) == got


def test_bfs_path_refuses_hub_expansion(tmp_path, monkeypatch):
    """bfs_path collects each hop under DRIVER_BFS_LIMIT: the hop that
    expands the hub past it fails loudly, naming the hop and the
    limit; a hop under it still finds its path."""
    s = _hub_store(tmp_path, 3000)
    monkeypatch.setattr(GraphStore, "DRIVER_BFS_LIMIT", 100)
    assert s.bfs_path("a", "hub") == ["a", "hub"]
    with pytest.raises(RuntimeError, match=r"hop 2: .* 100 edge rows"):
        s.bfs_path("a", "leaf02999")
