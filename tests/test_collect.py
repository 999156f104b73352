"""Collectsub loop closure: found identifiers become new collection
work, fetched documents ingest as increments (reference flow:
ingestor.go:189-201 feed + collectsub.proto:21-58 service)."""


import pyarrow.parquet as pq

from guacray.data.pages import generate_pages
from guacray.pipelines.collect import (dispatchable, pending_identifiers,
                                       run_collect_loop)
from guacray.pipelines.increment import read_graph_table
from guacray.pipelines.kg import run_kg


def _store(tmp_path, n=256):
    p = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages(n, seed=42), p)
    store = str(tmp_path / "store")
    run_kg(p, store, num_buckets=8)
    return store


def test_collect_loop_discovers_and_ingests(tmp_path):
    store = _store(tmp_path)
    nodes1 = read_graph_table(store, "nodes").to_pandas()
    edges1 = read_graph_table(store, "edges").to_pandas()
    unknowns = nodes1.query("node_type == 'unknown'")
    assert len(unknowns) > 0, "fixture must mint fallback identities"

    # discovery = exactly the unknown fallback nodes (nothing dispatched)
    pend = pending_identifiers(store)
    assert sorted(pend) == sorted(unknowns["name"])

    res = run_collect_loop(store, max_rounds=3)
    assert res["rounds"] and res["rounds"][0]["discovered"] == len(pend)

    # discovered edges appear in the incremental store: every
    # DISPATCHABLE unknown gained profile edges via the standard merge
    edges2 = read_graph_table(store, "edges").to_pandas()
    assert len(edges2) > len(edges1)
    fetched_ids = set(
        unknowns[unknowns["name"].map(dispatchable)]["node_id"])
    prof = edges2[edges2["predicate"].isin(["works_at", "located_in"])
                  & edges2["subj_id"].isin(fetched_ids)]
    assert set(prof["subj_id"]) == fetched_ids
    # objects resolve through the store's own catalog: no new unknowns
    nodes2 = read_graph_table(store, "nodes").to_pandas()
    id2type = dict(zip(nodes2["node_id"], nodes2["node_type"]))
    assert all(id2type[o] in ("org", "place") for o in prof["obj_id"])

    # evidence rows carry the synthesized documents' provenance
    ev = read_graph_table(store, "triples").to_pandas()
    assert ev["url"].str.startswith("https://profiles.example/").any()

    # fixpoint: rerunning discovers nothing and refetches nothing
    res2 = run_collect_loop(store, max_rounds=3)
    assert res2["rounds"] == [] and res2["dispatched_total"] == 0
    edges3 = read_graph_table(store, "edges").to_pandas()
    assert len(edges3) == len(edges2)


def test_dispatchable_sanitation():
    assert dispatchable("judy hopps")
    assert not dispatchable("")
    assert not dispatchable("acme. corp")          # sentence splitter
    assert not dispatchable('the "best" tool')     # quote handling
    assert not dispatchable("bob works at night")  # verb needle
    assert not dispatchable("x is located in y")   # verb needle
    assert not dispatchable("a is referred to as b")  # anchor needle


def test_second_collect_cycle_ingests(tmp_path):
    """A LATER collect cycle must not be silently skipped: the fetch
    output path is content-addressed by the dispatched surface set, so a
    new cycle's increment never collides with an earlier cycle's entry
    in the exactly-once ledger (a fixed per-round filename did exactly
    that — the merge was skipped while the surfaces were still committed
    as dispatched, permanently losing their profile edges)."""
    from guacray.pipelines.increment import ingest_increment
    store = _store(tmp_path)
    run_collect_loop(store, max_rounds=3)
    assert pending_identifiers(store) == []

    # a fresh crawl increment mints unknowns the first cycle never saw
    p2 = str(tmp_path / "pages2.parquet")
    pq.write_table(generate_pages(256, seed=99), p2)
    ingest_increment(p2, store)
    newly = [s for s in pending_identifiers(store) if dispatchable(s)]
    assert newly, "second increment must mint new unknown identities"
    edges_before = len(read_graph_table(store, "edges").to_pandas())

    res = run_collect_loop(store, max_rounds=3)
    assert res["rounds"], "new unknowns must trigger a new cycle"
    assert res["rounds"][0]["increment_skipped"] is False
    edges_after = read_graph_table(store, "edges").to_pandas()
    assert len(edges_after) > edges_before
    # every newly-discovered dispatchable unknown gained profile edges
    nodes = read_graph_table(store, "nodes").to_pandas()
    new_ids = set(nodes[nodes["name"].isin(newly)]["node_id"])
    prof = edges_after[
        edges_after["predicate"].isin(["works_at", "located_in"])
        & edges_after["subj_id"].isin(new_ids)]
    assert set(prof["subj_id"]) == new_ids
    assert pending_identifiers(store) == []


def test_capped_batch_does_not_abandon_pending(tmp_path):
    """A dispatch_limit-capped round that happens to drain only
    undispatchable surfaces must NOT be treated as the fixpoint — the
    loop continues until a round discovers nothing, so identifiers past
    the cap are still fetched by later rounds."""
    store = _store(tmp_path, n=128)
    n_unknown = len(pending_identifiers(store))
    assert n_unknown >= 2
    res = run_collect_loop(store, max_rounds=n_unknown + 2,
                           dispatch_limit=1)
    assert pending_identifiers(store) == []
    assert res["dispatched_total"] == n_unknown
