"""Incremental ingest: merge new documents into an existing graph.

The reference's operational mode is STREAMING ingest — collectors keep
feeding documents and the assembler upserts nodes/edges into the live
backend (MergedIngest flush loop,
/root/reference/pkg/ingestor/ingestor.go:90-150; keyvalue upserts
assembler.go:196-308).  A batch rebuild (``run_kg``) re-canonicalizes
all history every run; this module is the Ray-Data-native equivalent
of the upsert path over the store ``run_kg`` builds (nodes/edges
hive-partitioned as ``bucket=<b>/`` dirs, bucket count pinned in the
table ledger — every later writer MUST reuse it):

  ingest_increment   extract+link ONLY the new pages, canonicalize the
                     delta, then merge into the store touching ONLY
                     the bucket partitions the delta lands in —
                     untouched buckets are hardlinked into the new
                     table version (an O(1) metadata op per file),
                     never read, never rewritten

The saving scales with the bucket count, which is the build's width
(one bucket per CPU unless ``run_kg`` is given ``num_buckets``): at
100 TB the store has thousands of bucket partitions, so a daily crawl
increment reads and rewrites a small slice of the graph instead of
re-shuffling all of it; a store built on a 2-CPU cluster has 2 buckets,
so nearly every delta touches both and a one-id delete rewrites about
half of a table.

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

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

from .. import schemas
from ..functions.hashing import BUCKET_HASH_ID, bucket_of_hexid
from ..stages.agg import agg_by_name, cluster_cpus
from ..stages.canonicalize import CANON_COLS, graph_tables, with_undirected
from .kg import (_commit_dir, _dir_num_rows, _increment_id, _input_files,
                 broadcast_alias_map, linked_triples, read_parquet_fast,
                 run_kg, write_table)

LEDGER = "_applied.json"
# GraphStore deletes' append-only log, beside the tables
TOMBSTONES = "_tombstones.jsonl"
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
            "store with run_kg")
    return ledger


def _bucket_files(table_dir: str, bucket: int) -> list[str]:
    d = os.path.join(table_dir, f"bucket={bucket}")
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def _live_buckets(table_dir: str) -> set[int]:
    if not os.path.isdir(table_dir):
        return set()
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
                ledger: dict, schema: pa.Schema) -> None:
    """Publish a new table version: merged touched buckets written
    distributed (hive layout), untouched buckets HARDLINKED from the
    live version (never read), ledger written last, then ONE atomic
    dir swap.  A crash before the swap leaves the live table exactly
    as it was.  A table left with no rows keeps one empty file in
    ``bucket=0`` so readers still see its schema."""
    tmp = table_dir.rstrip("/") + ".__tmp__"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    merged_ds.map_batches(
        lambda t: t.select(["bucket"] + schema.names),
        batch_format="pyarrow").write_parquet(
            tmp, partition_cols=["bucket"])
    _hardlink_buckets(table_dir, tmp, _live_buckets(table_dir) - touched)
    if not _live_buckets(tmp):
        os.makedirs(os.path.join(tmp, "bucket=0"))
        pq.write_table(schema.empty_table(),
                       os.path.join(tmp, "bucket=0", "empty.parquet"))
    with open(_ledger_path(tmp), "w") as f:
        json.dump(ledger, f)
    _commit_dir(tmp, table_dir)


def read_graph_table(out_dir: str, name: str):
    """Canonical-schema Dataset over a store table: ``nodes``,
    ``edges`` or ``triples`` (the hive ``bucket`` / ``increment``
    partition column is pruned at the read)."""
    schema = {"nodes": schemas.NODES, "edges": schemas.EDGES,
              "triples": schemas.TRIPLES}[name]
    return rd.read_parquet(os.path.join(out_dir, name),
                           columns=schema.names)


def table_counts(out_dir: str) -> dict:
    return {name: _dir_num_rows(os.path.join(out_dir, name))
            for name in ("nodes", "edges")}


def ingested_since_build(out_dir: str) -> list[str]:
    """Increment ids the store's edges ledger lists past its build's own
    partitions (``base``): what ``ingest_increment`` merged since the
    last publish.  Empty for a dir that holds no store yet."""
    d = os.path.join(out_dir, "edges")
    if not os.path.exists(_ledger_path(d)):
        return []
    ledger = _read_ledger(d)
    base = set(ledger["base"])
    return [i for i in ledger["applied"] if i not in base]


def publish_build(out_dir: str, nodes, edges, *, base: list[str],
                  num_buckets: int, seed: int,
                  increments: list[str] = ()) -> None:
    """Publish a full build's canonical nodes/edges as the bucketed
    store, ``num_buckets`` pinned in a fresh ledger.  ``base`` names the
    build's own triples partitions and ``increments`` earlier ingests
    the build re-read; the ledger's ``applied`` lists both and its
    ``base`` the former, so a republish can tell them apart.  Every
    live bucket counts as touched: a build carries no table row over,
    so a rebuild into an existing store leaves no stale bucket (of this
    or of another bucket count) behind.

    Enrichment scan state and the tombstone log describe the previous
    tables, whose enrichment edges and deletes a build does not
    reproduce, so both go first: a crash before the swaps then costs a
    full (idempotent) rescan, never a node marked scanned whose
    enrichment edges are gone."""
    from .enrich import _scan_state_path
    shutil.rmtree(_scan_state_path(out_dir), ignore_errors=True)
    tombstones = os.path.join(out_dir, TOMBSTONES)
    if os.path.exists(tombstones):
        os.remove(tombstones)
    ledger = {"applied": list(base) + list(increments), "base": list(base),
              "num_buckets": num_buckets, "seed": seed,
              "bucket_hash": BUCKET_HASH_ID}
    for name, ds, schema in (("nodes", nodes, schemas.NODES),
                             ("edges", edges, schemas.EDGES)):
        d = os.path.join(out_dir, name)
        stamped = ds.map_batches(_with_bucket(ID_COLS[name], num_buckets),
                                 batch_format="pyarrow")
        _swap_table(d, stamped, _live_buckets(d), ledger, schema)


# the store's builder under its former name, which perfbench/ still calls
init_incremental = run_kg


def _delta_pool_size(files: list[str]):
    """Actor-pool bound for a DELTA: autoscaling sized to the increment
    (~4k pages per actor), not to the cluster — spawning a cluster-wide
    pool for a small delta costs more than the extraction itself."""
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    cap = max(1, cluster_cpus() - 2)
    return (1, max(1, min(cap, rows // 4096 + 1)))


def ingest_increment(pages_path, out_dir: str, *,
                     link_concurrency=None) -> dict:
    """Merge new pages into an existing store (built by ``run_kg``).

    Only the bucket partitions the delta's content-hash ids land in are
    read and rewritten; the other buckets are hardlinked.  Replaying
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

    # edges ledger = commit marker
    ledger = _checked_ledger(os.path.join(out_dir, "edges"))
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
    # ids that are not >=8 chars of lowercase hex cannot exist in a
    # store table (every stored row was bucket-stamped through
    # bucket_of_hexid, which REJECTS such ids) — treat them as
    # not-present (0 rows removed) instead of letting the
    # persistent-bucket format guard raise
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
    ref = ray.put(pa.array(ids))

    def drop(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[id_col],
                                           value_set=ray.get(ref))))
    remaining = read_parquet_fast(live, columns=schema.names) \
        .map_batches(drop, batch_format="pyarrow") \
        .map_batches(_with_bucket(id_col, nb), batch_format="pyarrow")
    _swap_table(table_dir, remaining, touched, ledger, schema)
    after = sum(pq.ParquetFile(f).metadata.num_rows
                for b in sorted(touched) for f in _bucket_files(table_dir, b))
    return before - after


def merge_delta_tables(out_dir: str, d_nodes, d_edges,
                       new_ledger: dict) -> dict:
    """Touched-bucket merge of canonical node/edge DELTA Datasets (a
    ``bucket`` column already stamped via ``_with_bucket``) into the
    store: only the live bucket partitions the delta's ids land in are
    read and rewritten, untouched buckets are HARDLINKED,
    nodes are published first (any-wins merge — idempotent under
    crash-replay), the edges swap commits.  Shared by ingest_increment
    and the certifier loop (pipelines/enrich.py) — a daily enrichment
    pass must not re-shuffle the whole graph."""
    nb = new_ledger["num_buckets"]
    plans = (("nodes", d_nodes, _merge_nodes, schemas.NODES),
             ("edges", d_edges, _merge_edges, schemas.EDGES))
    stats = {}
    for name, delta, merge_fn, schema in plans:
        d = os.path.join(out_dir, name)
        touched = _touched(delta)
        live = [f for b in sorted(touched) for f in _bucket_files(d, b)]
        if name == "edges" and "undirected" in delta.schema().names:
            delta = delta.drop_columns(["undirected"])
        if live:
            existing = read_parquet_fast(live, columns=schema.names)
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
        _swap_table(d, merged, touched, new_ledger, schema)
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
    bucket data stays in the tasks, which are pinned to the driver's
    node because the paths are the driver's local ones.  A no-op table
    (all buckets already single-file) is left byte-for-byte alone — no
    swap.
    """
    unknown = [name for name in tables if name not in ID_COLS]
    if unknown:
        raise ValueError(f"compact_store: unknown tables {unknown}; "
                         f"expected a subset of {sorted(ID_COLS)}")
    stats = {}
    for name in tables:
        d = os.path.join(out_dir, name)
        ledger = _checked_ledger(d)
        per_bucket = {b: _bucket_files(d, b) for b in _live_buckets(d)}
        multi = {b: fs for b, fs in per_bucket.items() if len(fs) > 1}
        # a killed earlier run may have left a tmp dir — clear it even
        # when this table needs no compaction
        tmp = d.rstrip("/") + ".__tmp__"
        shutil.rmtree(tmp, ignore_errors=True)
        if not multi:
            stats[f"compacted_{name}_buckets"] = 0
            continue
        here = NodeAffinitySchedulingStrategy(
            ray.get_runtime_context().get_node_id(), soft=False)
        refs, dsts = [], []
        for b, fs in sorted(multi.items()):
            bd = os.path.join(tmp, f"bucket={b}")
            os.makedirs(bd, exist_ok=True)
            dsts.append(os.path.join(bd, "compact-0.parquet"))
            refs.append(_compact_bucket.options(scheduling_strategy=here)
                        .remote(fs, dsts[-1], ID_COLS[name]))
        _hardlink_buckets(d, tmp, set(per_bucket) - set(multi))
        ray.get(refs)
        # a task that lost its write returns normally but leaves no
        # file here — publishing that tmp dir would silently drop the
        # bucket's rows
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
