"""Canonicalize stage: linked triples → deduplicated nodes / edges tables.

GUAC analog: the assembler — noun extraction + first-wins dedup maps
(/root/reference/pkg/assembler/assembler.go:196-547) and the keyvalue
backend's content-hash edge upsert
(backends/keyvalue/isDependency.go:46-56,119-140).  GUAC does this
behind one global server lock; here it is the pipeline's one keyed
shuffle, expressed as a two-phase aggregation:

  phase 1 (combiner, inside ``map_batches``): each triple becomes
    kind-tagged exchange rows (two node rows, one edge row) that the
    reduce step itself (``_combined_merge``: one vectorized
    ``pyarrow.TableGroupBy``) collapses per block, so each block emits
    ≤1 row per (kind, key).  The combiner IS the merge, applied early —
    valid because the merge is algebraic (min-carry attributes, summed
    counts).  This is the skew defence: a head entity
    appearing in 10% of all pages still contributes at most one row per
    block to the shuffle, so no reducer sees the raw hot-key volume.
  phase 2 (``agg.exchange``): an explicit bucket column + coalesce +
    ``groupby("bucket").map_groups`` — one vectorized merge per
    bucket, B = one bucket per cluster CPU by default
    (``agg.resolve_buckets``), so each exchange stage is one task per
    CPU.  The bucket is the store's PERSISTENT one
    (``functions.hashing.bucket_of_hexid`` of the content-hash key,
    mod B): ``run_kg`` pins B in the store ledger, so each reduce
    group is exactly one store bucket and publishes one file per
    table.  Using B coarse buckets instead of per-key groups keeps the
    reduce side vectorized (pyarrow group_by inside each bucket)
    rather than one Python call per key; coalescing combiner outputs
    first keeps the sort shuffle from paying #blocks² transfers.
    ``graph_tables`` shares ONE exchange between the nodes and edges
    dedups (kind-tagged rows) — half the passes of running them apart.

All identities are content hashes (functions/keys.py), so the whole
step is idempotent and order-independent: re-running, re-ingesting, or
changing the cluster size yields byte-identical sorted tables.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import bucket_of_hexid
from ..functions.keys import edge_id as _edge_id
from ..functions.keys import node_id as _node_id
from ..functions.keys import node_qualifiers
from .agg import agg_by_name, bucket_of, exchange, resolve_buckets

# the columns the canonicalization exchange actually consumes — readers
# of the triples checkpoint should prune to these (url / document_ref /
# raw surfaces stay on disk for the evidence view only)
CANON_COLS = ["subj_id", "obj_id", "edge_id",
              "subj_key", "subj_type", "subj_name",
              "obj_key", "obj_type", "obj_name",
              "predicate", "props", "warc_ts"]


# Worker-level content-id memo caches: identity hashes are pure
# functions of their key strings, and web-corpus keys repeat heavily
# (head entities; edges average many evidence rows per identity), so
# memoizing turns ~3 blake2b calls per triple into ~3 dict hits.
# Bounded: cleared when they outgrow the cap (keys are unbounded only
# in adversarial inputs; canonical key cardinality ≪ triple count).
_ID_CACHE_CAP = 1_000_000
_node_id_cache: dict[str, str] = {}
_edge_id_cache: dict[tuple, str] = {}


def _node_id_memo(key: str) -> str:
    nid = _node_id_cache.get(key)
    if nid is None:
        if len(_node_id_cache) >= _ID_CACHE_CAP:
            _node_id_cache.clear()
        nid = _node_id_cache[key] = _node_id(key)
    return nid


def edge_ids_memo(subj_ids, preds, obj_ids, props) -> list[str]:
    """Memoized edge-id minting with the canonical min-id orientation
    for symmetric predicates — shared by the bulk ingest path and the
    enrichment delta (enrich.py ``to_edges``), so every producer mints
    identical ids for identical statements."""
    from ..functions.text import SYMMETRIC_PREDICATES
    ecache = _edge_id_cache
    if len(ecache) >= _ID_CACHE_CAP:
        ecache.clear()
    eids = []
    for s, p, o, pr in zip(subj_ids, preds, obj_ids, props):
        ek = (o, p, s, pr) if p in SYMMETRIC_PREDICATES and o < s \
            else (s, p, o, pr)
        eid = ecache.get(ek)
        if eid is None:
            eid = ecache[ek] = _edge_id(*ek)
        eids.append(eid)
    return eids


def add_ids_batch(batch: pa.Table) -> pa.Table:
    """Stamp content-hash subj_id / obj_id / edge_id columns.

    Edge identity covers the typed props string (when present), so
    prop-distinct statements stay distinct edges (assembler InputSpec
    identity, keyvalue/isDependency.go:46-56)."""
    subj_ids = [_node_id_memo(k) for k in batch["subj_key"].to_pylist()]
    obj_ids = [_node_id_memo(k) for k in batch["obj_key"].to_pylist()]
    preds = batch["predicate"].to_pylist()
    props = (batch["props"].to_pylist() if "props" in batch.column_names
             else [""] * batch.num_rows)
    # undirected predicates hash in canonical (min id first) orientation
    # so "A partnered with B" and "B partnered with A" get ONE edge_id
    # (assembler.go:84 equal-edge semantics).  The triple row keeps
    # statement order (provenance); the edges-table combiner
    # (_combined_partial) normalizes the stored orientation.
    eids = edge_ids_memo(subj_ids, preds, obj_ids, props)
    batch = batch.append_column("subj_id", pa.array(subj_ids, type=pa.string()))
    batch = batch.append_column("obj_id", pa.array(obj_ids, type=pa.string()))
    batch = batch.append_column("edge_id", pa.array(eids, type=pa.string()))
    return batch


def with_undirected(t: pa.Table) -> pa.Table:
    """Append the ``undirected`` flag — a pure projection of the
    predicate, so it never travels through the exchange."""
    from ..functions.text import SYMMETRIC_PREDICATES
    sym = pa.array(sorted(SYMMETRIC_PREDICATES))
    return t.append_column("undirected", pc.is_in(t["predicate"],
                                                  value_set=sym))


# ---- combined nodes+edges canonicalization (single exchange) ----------
#
# nodes and edges are two keyed dedups over the same triples input; a
# naive plan runs two full executions (read → partial → shuffle → merge
# → write).  Tagging partial rows with a `kind` column and sharing ONE
# exchange halves the passes over the checkpoint and the shuffle count —
# the dedup semantics are unchanged because (kind, key) partitions the
# keyspace.

def _combined_partial(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Combiner: tag each triple's statement rows straight into the
    exchange schema — one node row per side, one edge row — and reduce
    them with the exchange's own merge, so a block emits ≤1 row per
    (kind, key)."""
    from ..functions.text import SYMMETRIC_PREDICATES
    n = batch.num_rows
    props = (batch["props"] if "props" in batch.column_names
             else pa.array([""] * n, type=pa.string()))
    ts_type = batch.schema.field("warc_ts").type

    def kind(k: int) -> pa.Array:
        return pa.repeat(pa.scalar(k, type=pa.int8()), n)

    def node_rows(side: str) -> pa.Table:
        return pa.table({
            "kind": kind(0), "key": batch[f"{side}_id"],
            "a": batch[f"{side}_key"], "b": batch[f"{side}_type"],
            "c": batch[f"{side}_name"], "d": pa.nulls(n, type=pa.string()),
            "ts": pa.nulls(n, type=ts_type), "n": pa.nulls(n, type=pa.int64()),
        })

    # store undirected edges in canonical (min id first) orientation —
    # vectorized swap; MUST happen before the group_by, otherwise the
    # per-column "min" could pair a subj from one orientation with an
    # obj from the other.  props is constant within an edge_id group (it
    # is hashed into the id), so its "min" is a carry, not a choice.
    sym = pa.array(sorted(SYMMETRIC_PREDICATES))
    swap = pc.and_(pc.is_in(batch["predicate"], value_set=sym),
                   pc.less(batch["obj_id"], batch["subj_id"]))
    edges = pa.table({
        "kind": kind(1), "key": batch["edge_id"],
        "a": pc.if_else(swap, batch["obj_id"], batch["subj_id"]),
        "b": batch["predicate"],
        "c": pc.if_else(swap, batch["subj_id"], batch["obj_id"]),
        "d": props, "ts": batch["warc_ts"],
        "n": pa.repeat(pa.scalar(1, type=pa.int64()), n),
    })
    t = _combined_merge(pa.concat_tables(
        [node_rows("subj"), node_rows("obj"), edges]))
    return t.append_column("bucket", bucket_of_hexid(t["key"], num_buckets))


def _combined_merge(group: pa.Table) -> pa.Table:
    return agg_by_name(group, ["kind", "key"], [
        ("a", "min", "a"), ("b", "min", "b"), ("c", "min", "c"),
        ("d", "min", "d"), ("ts", "min", "ts"), ("n", "sum", "n")])


def graph_tables(linked_ds, num_buckets: int | None = None):
    """One exchange → (nodes Dataset, edges Dataset).

    The combined result is materialized (it is canonical-size — orders
    of magnitude smaller than the triples input), then the two table
    views are cheap in-memory projections.
    """
    nb = resolve_buckets(num_buckets)
    # batch_size=None → combiner sees whole blocks; on 1024-row default
    # batches the per-batch dedup collapses almost nothing and the
    # exchange shuffles ~the full triple volume
    partial = linked_ds.map_batches(
        lambda b: _combined_partial(b, nb), batch_format="pyarrow",
        batch_size=None)
    combined = exchange(partial, _combined_merge, nb).materialize()

    def to_nodes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], pa.scalar(0, type=pa.int8())))
        # qualifiers: a pure projection of the key (the pkg-trie
        # qualifier column of helpers/package.go:26-99), so it is
        # computed once per canonical node, after the exchange
        return pa.table({"node_id": t["key"], "node_key": t["a"],
                         "node_type": t["b"], "name": t["c"],
                         "qualifiers": pa.array(
                             [node_qualifiers(k)
                              for k in t["a"].to_pylist()],
                             type=pa.string())})

    def to_edges(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["kind"], pa.scalar(1, type=pa.int8())))
        return with_undirected(pa.table({
            "edge_id": t["key"], "subj_id": t["a"],
            "predicate": t["b"], "obj_id": t["c"],
            "props": t["d"], "first_seen": t["ts"],
            "n_evidence": pc.cast(t["n"], pa.int64())}))

    nodes = combined.map_batches(to_nodes, batch_format="pyarrow")
    edges = combined.map_batches(to_edges, batch_format="pyarrow")
    return nodes, edges


def document_summary(linked_ds, num_buckets: int | None = None):
    """Per-document rollup of what was extracted — the HasSBOM.Includes
    analog (per-document aggregation of all ids emitted by one doc,
    /root/reference/pkg/assembler/clients/helpers/bulk.go:202-210).

    Output: document_ref, url, n_triples, n_distinct_edges, first_ts.
    Exact under any block layout: the combiner emits distinct
    (document_ref, edge_id) pairs with partial triple counts; the
    exchange co-locates by document_ref; the merge re-dedups pairs
    before counting (sum of per-block distincts would double-count an
    edge whose document straddles blocks).
    """
    nb = resolve_buckets(num_buckets)

    def partial(batch: pa.Table) -> pa.Table:
        pairs = agg_by_name(batch, ["document_ref", "edge_id"], [
            ("url", "min", "url"), ("warc_ts", "min", "first_ts"),
            ("edge_id", "count", "n_triples")])
        pairs = pairs.set_column(
            pairs.schema.get_field_index("n_triples"), "n_triples",
            pc.cast(pairs["n_triples"], pa.int64()))
        return pairs.append_column(
            "bucket", bucket_of(pairs, ["document_ref"], nb))

    def merge(group: pa.Table) -> pa.Table:
        pairs = agg_by_name(group, ["document_ref", "edge_id"], [
            ("url", "min", "url"), ("first_ts", "min", "first_ts"),
            ("n_triples", "sum", "n_triples")])
        agg = agg_by_name(pairs, ["document_ref"], [
            ("url", "min", "url"), ("first_ts", "min", "first_ts"),
            ("n_triples", "sum", "n_triples"),
            ("document_ref", "count", "n_distinct_edges")])
        for c in ("n_triples", "n_distinct_edges"):
            agg = agg.set_column(agg.schema.get_field_index(c), c,
                                 pc.cast(agg[c], pa.int64()))
        return agg

    return exchange(linked_ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None), merge, nb)
