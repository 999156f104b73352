"""Incremental ingest: merge new documents into an existing graph.

The reference's operational mode is STREAMING ingest — collectors keep
feeding documents and the assembler upserts nodes/edges into the live
backend (MergedIngest flush loop,
/root/reference/pkg/ingestor/ingestor.go:90-150; keyvalue upserts
assembler.go:196-308).  A batch rebuild (``run_kg``) re-canonicalizes
all history every run; this module is the Ray-Data-native equivalent
of the upsert path:

  init_incremental   same pipeline as ``run_kg`` but nodes/edges are
                     written hive-partitioned by shuffle bucket
                     (``bucket=<b>/`` dirs; bucket count pinned in the
                     table ledger — increments MUST reuse it)
  ingest_increment   extract+link ONLY the new pages, canonicalize the
                     delta, then merge into the store touching ONLY
                     the bucket partitions the delta lands in —
                     untouched buckets are hardlinked into the new
                     table version (an O(1) metadata op per file),
                     never read, never rewritten

At 100 TB the store has thousands of bucket partitions, so a daily
crawl increment reads and rewrites a small slice of the graph instead
of re-shuffling all of it.

Merge semantics are the batch semantics: every node/edge attribute is
a pure function of its content-hash id (so node merge is any-wins /
min-carry), and edges additionally accumulate ``n_evidence`` (sum) and
``first_seen`` (min) — exactly the canonical exchange's merge applied
to old ∪ delta rows.

Exactly-once + crash safety: each table version carries an
``_applied.json`` ledger INSIDE the table dir (pyarrow datasets ignore
``_``-prefixed files), listing the content-addressed increment ids
already merged; the ledger swaps atomically WITH the data.  Increments
are applied nodes-first, edges-last: the edges ledger is the commit
marker, and replaying an increment after any crash is safe because the
node merge is idempotent (no counters) while an increment whose id is
already in the edges ledger is skipped before anything runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from .. import schemas
from ..functions.hashing import BUCKET_HASH_ID, bucket_of_hexid
from ..stages.agg import agg_by_name, cluster_cpus
from ..stages.canonicalize import CANON_COLS, graph_tables, with_undirected
from ..stages.link import link_pool
from .kg import (_commit_dir, broadcast_alias_map, linked_triples,
                 read_parquet_fast, write_table)

LEDGER = "_applied.json"
# bucket count of a new store: pinned in its ledger for the store's
# life (every increment, delete and compaction reuses it), so it is a
# layout constant, not the transient exchange width ``resolve_buckets``
# derives from whichever cluster happens to run ``init_incremental``
STORE_BUCKETS = 32
# bucketed store tables → the id column their buckets hash
ID_COLS = {"nodes": "node_id", "edges": "edge_id"}

NODE_SPECS = [("node_key", "min", "node_key"),
              ("node_type", "min", "node_type"),
              ("name", "min", "name"),
              ("qualifiers", "min", "qualifiers")]
EDGE_SPECS = [("subj_id", "min", "subj_id"),
              ("predicate", "min", "predicate"),
              ("obj_id", "min", "obj_id"),
              ("props", "min", "props"),
              ("first_seen", "min", "first_seen"),
              ("n_evidence", "sum", "n_evidence")]


def _ledger_path(table_dir: str) -> str:
    return os.path.join(table_dir, LEDGER)


def _read_ledger(table_dir: str) -> dict:
    with open(_ledger_path(table_dir)) as f:
        return json.load(f)


def _checked_ledger(table_dir: str) -> dict:
    """``table_dir``'s ledger, refusing a store stamped with another
    persistent bucket function: merging into or deleting from it would
    route ids to different buckets than the live rows (silent duplicates
    or missed rows)."""
    ledger = _read_ledger(table_dir)
    stamped = ledger.get("bucket_hash")
    if stamped != BUCKET_HASH_ID:
        raise RuntimeError(
            f"incremental table at {table_dir} was bucket-stamped with "
            f"{stamped!r}, this build uses {BUCKET_HASH_ID!r} — refusing "
            "to write with a different bucket function; rebuild the "
            "store with init_incremental")
    return ledger


def _increment_id(files: list[str]) -> str:
    """Content-address an increment by its sorted input-file list —
    replaying the same submission is a no-op, not a double-count."""
    h = hashlib.blake2b("\n".join(sorted(files)).encode(),
                        digest_size=8).hexdigest()
    return f"inc-{h}"


def _input_files(pages_path) -> list[str]:
    if isinstance(pages_path, (list, tuple)):
        return sorted(pages_path)
    if os.path.isdir(pages_path):
        return sorted(os.path.join(pages_path, f)
                      for f in os.listdir(pages_path)
                      if f.endswith(".parquet"))
    return [pages_path]


def _bucket_files(table_dir: str, bucket: int) -> list[str]:
    d = os.path.join(table_dir, f"bucket={bucket}")
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def _live_buckets(table_dir: str) -> set[int]:
    return {int(name.split("=", 1)[1]) for name in os.listdir(table_dir)
            if name.startswith("bucket=")}


def _touched(delta_ds) -> set[int]:
    """Distinct bucket values of a (small, canonical-size) delta."""
    parts = delta_ds.map_batches(
        lambda t: pa.table({"bucket": pc.unique(t["bucket"])}),
        batch_format="pyarrow").to_pandas()
    return set(int(b) for b in parts["bucket"])


def _with_bucket(id_col: str, nb: int):
    """PERSISTENT bucket stamping — must be ``bucket_of_hexid``, never a
    library hash: the store layout outlives the process, and a hash
    whose implementation could drift across library versions would
    silently route the same id to a different bucket than the live
    store (duplicate rows, double-counted n_evidence, no error).  The
    ledger pins BUCKET_HASH_ID and ingest refuses on mismatch."""
    def fn(t: pa.Table) -> pa.Table:
        return t.append_column("bucket", bucket_of_hexid(t[id_col], nb))
    return fn


def _merge_nodes(group: pa.Table) -> pa.Table:
    return agg_by_name(group, ["bucket", "node_id"], NODE_SPECS)


def _merge_edges(group: pa.Table) -> pa.Table:
    out = agg_by_name(group, ["bucket", "edge_id"], EDGE_SPECS)
    i = out.schema.get_field_index("n_evidence")
    return out.set_column(i, "n_evidence",
                          pc.cast(out["n_evidence"], pa.int64()))


def _hardlink_buckets(live_dir: str, tmp_dir: str,
                      buckets: set[int]) -> None:
    """Carry untouched bucket partitions into a new table version as
    hardlinks — O(1) metadata per file, the data is never read.  The
    ONE publish discipline shared by the delta merge and compaction."""
    for b in sorted(buckets):
        src = os.path.join(live_dir, f"bucket={b}")
        dst = os.path.join(tmp_dir, f"bucket={b}")
        os.makedirs(dst, exist_ok=True)
        for f in os.listdir(src):
            os.link(os.path.join(src, f), os.path.join(dst, f))


def _swap_table(table_dir: str, merged_ds, touched: set[int],
                ledger: dict, order_cols: list[str]) -> None:
    """Publish a new table version: merged touched buckets written
    distributed (hive layout), untouched buckets HARDLINKED from the
    live version (never read), ledger written last, then ONE atomic
    dir swap.  A crash before the swap leaves the live table exactly
    as it was."""
    tmp = table_dir.rstrip("/") + ".__tmp__"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    merged_ds.map_batches(
        lambda t: t.select(["bucket"] + order_cols),
        batch_format="pyarrow").write_parquet(
            tmp, partition_cols=["bucket"])
    _hardlink_buckets(table_dir, tmp, _live_buckets(table_dir) - touched)
    with open(_ledger_path(tmp), "w") as f:
        json.dump(ledger, f)
    _commit_dir(tmp, table_dir)


def read_graph_table(out_dir: str, name: str):
    """Canonical-schema Dataset over an incremental store's table (the
    hive ``bucket`` partition column is pruned at the read)."""
    cols = ([f.name for f in schemas.NODES] if name == "nodes"
            else [f.name for f in schemas.EDGES] if name == "edges"
            else None)
    return rd.read_parquet(os.path.join(out_dir, name), columns=cols)


def table_counts(out_dir: str) -> dict:
    counts = {}
    for name in ("nodes", "edges"):
        counts[name] = sum(
            pq.ParquetFile(p).metadata.num_rows
            for b in sorted(_live_buckets(os.path.join(out_dir, name)))
            for p in _bucket_files(os.path.join(out_dir, name), b))
    return counts


def init_incremental(pages_path, out_dir: str, *,
                     num_buckets: int | None = None, seed: int = 42,
                     link_concurrency=None) -> dict:
    """Build the initial incrementally-maintainable store, with
    ``num_buckets`` store buckets (default ``STORE_BUCKETS``) pinned in
    its ledger.  ``init`` means init: any existing store at ``out_dir``
    is removed first (otherwise stale live buckets would be hardlinked
    in next to the fresh ones)."""
    link_pool(link_concurrency)  # a pool that cannot progress fails here
    shutil.rmtree(out_dir, ignore_errors=True)
    nb = STORE_BUCKETS if num_buckets is None else num_buckets
    files = _input_files(pages_path)
    inc = _increment_id(files)
    alias_ref = broadcast_alias_map(seed)
    tri_dir = os.path.join(out_dir, "triples", f"increment={inc}")
    write_table(linked_triples(read_parquet_fast(files), alias_ref,
                               link_concurrency),
                tri_dir, schemas.TRIPLES, min_rows_per_file=200_000)
    tri = read_parquet_fast(tri_dir, columns=CANON_COLS)
    # the exchange is transient: cluster-wide, like the delta's below;
    # only the _with_bucket stamp carries the store's bucket count
    nodes, edges = graph_tables(tri)
    nodes = nodes.map_batches(_with_bucket("node_id", nb),
                              batch_format="pyarrow")
    edges = edges.map_batches(_with_bucket("edge_id", nb),
                              batch_format="pyarrow")
    ledger = {"applied": [inc], "num_buckets": nb, "seed": seed,
              "bucket_hash": BUCKET_HASH_ID}
    node_cols = [f.name for f in schemas.NODES]
    edge_cols = [f.name for f in schemas.EDGES]
    for table, ds, cols in (("nodes", nodes, node_cols),
                            ("edges", edges, edge_cols)):
        d = os.path.join(out_dir, table)
        os.makedirs(d, exist_ok=True)
        _swap_table(d, ds, set(), ledger, cols)
    return {"increment": inc, **table_counts(out_dir)}


def _delta_pool_size(files: list[str]):
    """Actor-pool bound for a DELTA: autoscaling sized to the increment
    (~4k pages per actor), not to the cluster — spawning a cluster-wide
    pool for a small delta costs more than the extraction itself."""
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    cap = max(1, cluster_cpus() - 2)
    return (1, max(1, min(cap, rows // 4096 + 1)))


def ingest_increment(pages_path, out_dir: str, *,
                     link_concurrency=None) -> dict:
    """Merge new pages into an existing incremental store.

    Only the bucket partitions the delta's content-hash ids land in are
    read and rewritten; the rest of the graph is untouched.  Replaying
    an already-applied increment (same input-file list) is a no-op.
    Returns per-phase wall times alongside the table counts (the
    metrics half of the per-partition lineage+metrics contract).

    Increments are SERIAL by contract: one writer at a time per store
    (the reference's ingest loop is equally single-writer per backend).
    Two concurrent ingests would race the table swap and the loser's
    merge would be silently dropped — schedule increments from one
    driver.
    """
    import time

    edges_dir = os.path.join(out_dir, "edges")
    nodes_dir = os.path.join(out_dir, "nodes")
    ledger = _checked_ledger(edges_dir)  # edges ledger = commit marker
    nb, seed = ledger["num_buckets"], ledger["seed"]
    files = _input_files(pages_path)
    inc = _increment_id(files)
    if inc in ledger["applied"]:
        return {"increment": inc, "skipped": True, **table_counts(out_dir)}

    # 1. delta triples → durable checkpoint partition (evidence grows
    #    append-only; atomic overwrite makes a crash-rerun idempotent)
    t0 = time.time()
    alias_ref = broadcast_alias_map(seed)
    if link_concurrency is None:
        link_concurrency = _delta_pool_size(files)
    tri_dir = os.path.join(out_dir, "triples", f"increment={inc}")
    write_table(linked_triples(read_parquet_fast(files), alias_ref,
                               link_concurrency),
                tri_dir, schemas.TRIPLES, min_rows_per_file=200_000)
    t_extract = time.time() - t0

    # 2. canonicalize the DELTA alone.  The exchange width scales to
    #    the INCREMENT (~200k triples per bucket), not the cluster —
    #    the store's bucket ids are stamped afterwards and are
    #    independent of the delta exchange's shuffle buckets.  The
    #    bucket-stamped views stay lazy: graph_tables already
    #    materialized the canonical delta, so the projections re-run
    #    from memory for _touched and the merge alike.
    t0 = time.time()
    tri = read_parquet_fast(tri_dir, columns=CANON_COLS)
    n_delta_rows = sum(
        pq.ParquetFile(os.path.join(tri_dir, f)).metadata.num_rows
        for f in os.listdir(tri_dir) if f.endswith(".parquet"))
    delta_nb = min(nb, n_delta_rows // 200_000 + 1)
    d_nodes, d_edges = graph_tables(tri, delta_nb)
    d_nodes = d_nodes.map_batches(_with_bucket("node_id", nb),
                                  batch_format="pyarrow")
    d_edges = d_edges.map_batches(_with_bucket("edge_id", nb),
                                  batch_format="pyarrow")
    t_canon = time.time() - t0

    new_ledger = dict(ledger)
    new_ledger["applied"] = ledger["applied"] + [inc]

    # 3. per-table: read ONLY the touched live buckets, merge with the
    #    delta in a bucketed group-by, publish (nodes first — their
    #    merge is idempotent; the edges swap commits the increment)
    stats = {"sec_extract": round(t_extract, 2),
             "sec_canonicalize": round(t_canon, 2)}
    t0 = time.time()
    stats.update(merge_delta_tables(out_dir, d_nodes, d_edges, new_ledger))
    stats["sec_merge"] = round(time.time() - t0, 2)
    return {"increment": inc, "skipped": False, **stats,
            **table_counts(out_dir)}


def delete_rows_bucketed(table_dir: str, id_col: str, ids: list[str],
                         schema: pa.Schema) -> int:
    """Bucket-targeted delete from one incremental table: only the
    bucket partitions the ids land in are read and rewritten (filtered),
    every other bucket is hardlinked into the new version untouched —
    the same touched-bucket discipline as the increment merge, applied
    to removal.  Returns the number of rows removed.  Atomic: the dir
    swap publishes the new version or leaves the live one intact."""
    ledger = _checked_ledger(table_dir)
    # ids that are not >=8 chars of lowercase hex cannot exist in an
    # incremental table (every stored row was bucket-stamped through
    # bucket_of_hexid at ingest, which REJECTS such ids) — treat them
    # as not-present (0 rows removed), matching the flat-store path,
    # instead of letting the persistent-bucket format guard raise
    ids = sorted({i for i in ids
                  if isinstance(i, str) and len(i) >= 8
                  and all(c in "0123456789abcdef" for c in i[:8])})
    if not ids:
        return 0
    nb = ledger["num_buckets"]
    touched = set(bucket_of_hexid(ids, nb).to_pylist()) \
        & _live_buckets(table_dir)
    live = [f for b in sorted(touched) for f in _bucket_files(table_dir, b)]
    if not live:
        return 0
    before = sum(pq.ParquetFile(f).metadata.num_rows for f in live)
    cols = [f.name for f in schema]
    import ray
    ref = ray.put(pa.array(ids))

    def drop(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[id_col],
                                           value_set=ray.get(ref))))
    remaining = read_parquet_fast(live, columns=cols) \
        .map_batches(drop, batch_format="pyarrow") \
        .map_batches(_with_bucket(id_col, nb), batch_format="pyarrow")
    _swap_table(table_dir, remaining, touched, ledger, cols)
    after = sum(pq.ParquetFile(f).metadata.num_rows
                for b in sorted(touched) for f in _bucket_files(table_dir, b))
    return before - after


def merge_delta_tables(out_dir: str, d_nodes, d_edges,
                       new_ledger: dict) -> dict:
    """Touched-bucket merge of canonical node/edge DELTA Datasets (a
    ``bucket`` column already stamped via ``_with_bucket``) into an
    incremental store: only the live bucket partitions the delta's ids
    land in are read and rewritten, untouched buckets are HARDLINKED,
    nodes are published first (any-wins merge — idempotent under
    crash-replay), the edges swap commits.  Shared by ingest_increment
    and the certifier loop (pipelines/enrich.py) — a daily enrichment
    pass must not re-shuffle the whole graph."""
    nb = new_ledger["num_buckets"]
    nodes_dir = os.path.join(out_dir, "nodes")
    edges_dir = os.path.join(out_dir, "edges")
    node_cols = [f.name for f in schemas.NODES]
    edge_cols = [f.name for f in schemas.EDGES]
    plans = (("nodes", nodes_dir, d_nodes, _merge_nodes, node_cols),
             ("edges", edges_dir, d_edges, _merge_edges, edge_cols))
    stats = {}
    for name, d, delta, merge_fn, cols in plans:
        touched = _touched(delta)
        live = [f for b in sorted(touched) for f in _bucket_files(d, b)]
        if name == "edges" and "undirected" in delta.schema().names:
            delta = delta.drop_columns(["undirected"])
        if live:
            existing = read_parquet_fast(live, columns=cols)
            if name == "edges":
                existing = existing.drop_columns(["undirected"])
            existing = existing.map_batches(
                _with_bucket(ID_COLS[name], nb),
                batch_format="pyarrow")
            merged = existing.union(delta).groupby("bucket") \
                .map_groups(merge_fn, batch_format="pyarrow")
        else:
            merged = delta
        if name == "edges":
            merged = merged.map_batches(with_undirected,
                                        batch_format="pyarrow")
        _swap_table(d, merged, touched, new_ledger, cols)
        stats[f"touched_{name}_buckets"] = len(touched)
    return stats


@ray.remote
def _compact_bucket(files: list[str], dst: str, sort_col: str) -> None:
    t = pa.concat_tables([pq.read_table(f) for f in files],
                         promote_options="default")
    t = t.sort_by(sort_col)
    pq.write_table(t, dst)


def compact_store(out_dir: str, tables=("nodes", "edges")) -> dict:
    """Bucket-file compaction — the maintenance pass an incremental
    store needs at scale: every merged-touched-bucket write emits one
    file per (block × increment), so a bucket accumulates small files
    over daily crawls and read amplification grows.  Rewrites each
    bucket partition holding more than one parquet file as ONE file
    (rows sorted by the table's id column — deterministic bytes),
    HARDLINKS already-single-file buckets (inode-stable, never read),
    preserves the applied-increments ledger verbatim, and publishes
    with the same atomic dir swap as ingest (crash before the swap
    leaves the live table untouched).  Query results are unchanged:
    readers never rely on intra-bucket row order.

    Raw Ray tasks rather than a Dataset (the documented last-resort
    tier): the unit of work is "one bucket dir → exactly one file", a
    per-partition file-layout invariant the Dataset write path cannot
    pin without a full shuffle.  Only file PATHS cross the driver;
    bucket data stays in the tasks.  A no-op table (all buckets
    already single-file) is left byte-for-byte alone — no swap.
    """
    unknown = [name for name in tables if name not in ID_COLS]
    if unknown:
        raise ValueError(f"compact_store: unknown tables {unknown}; "
                         f"expected a subset of {sorted(ID_COLS)}")
    stats = {}
    for name in tables:
        d = os.path.join(out_dir, name)
        if not os.path.exists(_ledger_path(d)):
            raise RuntimeError(
                f"{d} is not an incremental store table (no "
                f"{os.path.basename(_ledger_path(d))} ledger) — compact "
                f"applies to init_incremental stores; flat run_kg "
                f"outputs are rewritten whole on each run instead")
        ledger = _read_ledger(d)
        per_bucket = {b: _bucket_files(d, b) for b in _live_buckets(d)}
        multi = {b: fs for b, fs in per_bucket.items() if len(fs) > 1}
        # a killed earlier run may have left a tmp dir — clear it even
        # when this table needs no compaction
        tmp = d.rstrip("/") + ".__tmp__"
        shutil.rmtree(tmp, ignore_errors=True)
        if not multi:
            stats[f"compacted_{name}_buckets"] = 0
            continue
        refs, dsts = [], []
        for b, fs in sorted(multi.items()):
            bd = os.path.join(tmp, f"bucket={b}")
            os.makedirs(bd, exist_ok=True)
            dsts.append(os.path.join(bd, "compact-0.parquet"))
            refs.append(_compact_bucket.remote(fs, dsts[-1], ID_COLS[name]))
        _hardlink_buckets(d, tmp, set(per_bucket) - set(multi))
        ray.get(refs)
        # a task that ran on another node (or lost its write) returns
        # normally but leaves no file here — publishing that tmp dir
        # would silently drop the bucket's rows
        missing = [f for f in dsts if not os.path.exists(f)]
        if missing:
            raise RuntimeError(
                f"compact_store: {len(missing)} compacted bucket file(s) "
                f"missing, e.g. {missing[0]} — live table left unchanged")
        with open(_ledger_path(tmp), "w") as f:
            json.dump(ledger, f)
        _commit_dir(tmp, d)
        stats[f"compacted_{name}_buckets"] = len(multi)
    return stats
