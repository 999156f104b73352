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
    group is exactly one store bucket.  Using B coarse buckets instead
    of per-key groups keeps the reduce side vectorized (pyarrow
    group_by inside each bucket) rather than one Python call per key;
    coalescing combiner outputs first keeps the sort shuffle from
    paying #blocks² transfers.  ONE exchange serves the nodes and edges
    dedups (kind-tagged rows) — half the passes of running them apart.
  projection (``to_nodes`` / ``to_edges``): merged rows → the two
    canonical tables.

The store's writer (``pipelines/increment.write_store``) runs phase 2
with a reduce that projects and writes each bucket's table files
itself; ``graph_tables`` runs the same phases and returns the tables as
Datasets.  Every other producer of store rows — the live rows an
increment or delete rewrites, enrichment's derived statements — builds
them with ``node_rows`` / ``edge_rows``, so one merge and one edge
orientation serve every write.

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
from ..schemas import TS
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

def node_rows(key, node_key, node_type, name,
              ts_type: pa.DataType = TS) -> pa.Table:
    """Node exchange rows (kind 0): ``a``/``b``/``c`` carry the node
    key, type and name; ``d``, ``ts`` and ``n`` are null."""
    n = len(key)
    return pa.table({
        "kind": pa.repeat(pa.scalar(0, type=pa.int8()), n), "key": key,
        "a": node_key, "b": node_type, "c": name,
        "d": pa.nulls(n, type=pa.string()), "ts": pa.nulls(n, type=ts_type),
        "n": pa.nulls(n, type=pa.int64())})


def edge_rows(key, subj_id, predicate, obj_id, props, ts, n) -> pa.Table:
    """Edge exchange rows (kind 1): ``a``/``b``/``c``/``d`` carry subject,
    predicate, object and props, ``ts`` the first sighting and ``n`` the
    evidence count.

    Undirected edges are stored in canonical (min id first) orientation
    — a vectorized swap that MUST happen before any merge, otherwise the
    per-column "min" could pair a subj from one orientation with an obj
    from the other.  props is constant within an edge_id group (it is
    hashed into the id), so its "min" is a carry, not a choice."""
    from ..functions.text import SYMMETRIC_PREDICATES
    sym = pa.array(sorted(SYMMETRIC_PREDICATES))
    swap = pc.and_(pc.is_in(predicate, value_set=sym),
                   pc.less(obj_id, subj_id))
    return pa.table({
        "kind": pa.repeat(pa.scalar(1, type=pa.int8()), len(key)),
        "key": key, "a": pc.if_else(swap, obj_id, subj_id),
        "b": predicate, "c": pc.if_else(swap, subj_id, obj_id),
        "d": props, "ts": ts, "n": n})


def _combined_partial(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Combiner: tag each triple's statement rows straight into the
    exchange schema — one node row per side, one edge row — reduce them
    with the exchange's own merge, so a block emits ≤1 row per (kind,
    key), and stamp each row's persistent store bucket."""
    n = batch.num_rows
    props = (batch["props"] if "props" in batch.column_names
             else pa.array([""] * n, type=pa.string()))
    ts_type = batch.schema.field("warc_ts").type
    t = _combined_merge(pa.concat_tables([
        *(node_rows(batch[f"{side}_id"], batch[f"{side}_key"],
                    batch[f"{side}_type"], batch[f"{side}_name"], ts_type)
          for side in ("subj", "obj")),
        edge_rows(batch["edge_id"], batch["subj_id"], batch["predicate"],
                  batch["obj_id"], props, batch["warc_ts"],
                  pa.repeat(pa.scalar(1, type=pa.int64()), n))]))
    return with_bucket(t, num_buckets)


def with_bucket(rows: pa.Table, num_buckets: int) -> pa.Table:
    """Exchange rows with their PERSISTENT store bucket appended — must
    be ``bucket_of_hexid``, never a library hash: the store layout
    outlives the process, and a hash whose implementation could drift
    across library versions would silently route the same id to a
    different bucket than the live store (duplicate rows,
    double-counted n_evidence, no error).  The ledger pins
    BUCKET_HASH_ID and every writer refuses on mismatch."""
    return rows.append_column("bucket",
                              bucket_of_hexid(rows["key"], num_buckets))


def _combined_merge(group: pa.Table) -> pa.Table:
    return agg_by_name(group, ["kind", "key"], [
        ("a", "min", "a"), ("b", "min", "b"), ("c", "min", "c"),
        ("d", "min", "d"), ("ts", "min", "ts"), ("n", "sum", "n")])


def combined_rows(linked_ds, num_buckets: int):
    """Linked triples → the exchange's partial rows, bucketed for a
    ``num_buckets`` store.  batch_size=None: the combiner sees whole
    blocks; on 1024-row default batches the per-batch dedup collapses
    almost nothing and the exchange shuffles ~the full triple volume."""
    return linked_ds.map_batches(
        lambda b: _combined_partial(b, num_buckets), batch_format="pyarrow",
        batch_size=None)


def to_nodes(t: pa.Table) -> pa.Table:
    """Merged exchange rows → the nodes table (kind 0 rows).  The
    qualifiers column is a pure projection of the key (the pkg-trie
    qualifier column of helpers/package.go:26-99), so it is computed
    once per canonical node, after the merge."""
    t = t.filter(pc.equal(t["kind"], pa.scalar(0, type=pa.int8())))
    return pa.table({"node_id": t["key"], "node_key": t["a"],
                     "node_type": t["b"], "name": t["c"],
                     "qualifiers": pa.array(
                         [node_qualifiers(k) for k in t["a"].to_pylist()],
                         type=pa.string())})


def to_edges(t: pa.Table) -> pa.Table:
    """Merged exchange rows → the edges table (kind 1 rows)."""
    t = t.filter(pc.equal(t["kind"], pa.scalar(1, type=pa.int8())))
    return with_undirected(pa.table({
        "edge_id": t["key"], "subj_id": t["a"], "predicate": t["b"],
        "obj_id": t["c"], "props": t["d"], "first_seen": t["ts"],
        "n_evidence": pc.cast(t["n"], pa.int64())}))


def graph_tables(linked_ds, num_buckets: int | None = None):
    """One exchange → (nodes Dataset, edges Dataset), for callers that
    consume the tables as Datasets (``kg_datasets``, the oracles); the
    store's writer (``pipelines/increment.write_store``) runs the same
    partial, merge and projections.

    The combined result is materialized (it is canonical-size — orders
    of magnitude smaller than the triples input), then the two table
    views are cheap in-memory projections.
    """
    nb = resolve_buckets(num_buckets)
    combined = exchange(combined_rows(linked_ds, nb), _combined_merge,
                        nb).materialize()
    return (combined.map_batches(to_nodes, batch_format="pyarrow"),
            combined.map_batches(to_edges, batch_format="pyarrow"))


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
