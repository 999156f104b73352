"""The store's one writer, and incremental ingest on top of it.

The reference's operational mode is STREAMING ingest — collectors keep
feeding documents and the assembler upserts nodes/edges into the live
backend through one content-hash merge (MergedIngest flush loop,
/root/reference/pkg/ingestor/ingestor.go:90-150; keyvalue upserts
assembler.go:196-308).  Here every store write — a build (``run_kg``,
``run_kg_resumable``), an increment, an enrichment pass, a
``GraphStore`` delete — goes through ONE function, ``write_store``,
over the store ``run_kg`` builds (nodes/edges hive-partitioned as
``bucket=<b>/`` dirs, bucket count pinned in the table ledger — every
later writer MUST reuse it):

  write_store        the canonical exchange's kind-tagged rows
                     (``stages/canonicalize.py``), each carrying its
                     persistent store bucket, go through ONE
                     ``agg.exchange``; each reduce call holds one store
                     bucket, merges it with ``_combined_merge`` and
                     writes that bucket's ONE nodes file and ONE edges
                     file.  Untouched buckets are hardlinked into the
                     new table version (an O(1) metadata op per file),
                     never read, never rewritten.  So every bucket dir
                     holds exactly one file after every write, and the
                     store needs no compaction pass.
  ingest_increment   run the build's page-ingest plan
                     (``kg.checkpointed_rows``) over ONLY the new
                     pages, then hand the delta's rows plus the live
                     rows of the buckets they land in to
                     ``write_store``.

The saving scales with the bucket count, which is the build's width
(one bucket per CPU unless ``run_kg`` is given ``num_buckets``): at
100 TB the store has thousands of bucket partitions, so a daily crawl
increment reads and rewrites a small slice of the graph instead of
re-shuffling all of it; a store built on a 2-CPU cluster has 2 buckets,
so nearly every delta touches both and a one-id delete rewrites about
half of a table.

Merge semantics are the batch semantics because the merge IS the
batch merge: every node/edge attribute is a pure function of its
content-hash id (min-carry), and edges additionally accumulate
``n_evidence`` (sum) and ``first_seen`` (min) — the live rows re-enter
the exchange as rows of the same shape (``live_rows``).

The reduce tasks write to local paths built by the process that calls
``write_store``, so the store assumes a single node or a filesystem
every node shares (as the triples checkpoint's ``write_parquet``
does).  A reduce that lost its file
fails the write before any swap (``write_store`` checks every reported
file).

Exactly-once + crash safety: each table version carries an
``_applied.json`` ledger INSIDE the table dir (pyarrow datasets ignore
``_``-prefixed files), listing the content-addressed increment ids
already merged (``applied``), the input files of each (``inputs``) and
which of them are the last build's own partitions (``base``); the
ledger swaps atomically WITH the data.  It is the store's one lineage
record: a resumable rebuild (``run_kg_resumable``) reads it to choose
which ingested increments it carries and which it rebuilds from its own
files.  Tables are committed nodes-first, edges-last: the edges ledger
is the commit marker, and replaying an increment after any crash is
safe because the node merge is idempotent (no counters) while an
increment whose id is already in the edges ledger is skipped before
anything runs.
"""

from __future__ import annotations

import gc
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .. import schemas
from ..functions.hashing import BUCKET_HASH_ID, bucket_of_hexid
from ..stages.agg import cluster_cpus, exchange
from ..stages.canonicalize import (_combined_merge, edge_rows, node_rows,
                                   to_edges, to_nodes, with_bucket)
from .kg import (_commit_dir, _dir_num_rows, _increment_id, _input_files,
                 broadcast_alias_map, checkpointed_rows, read_parquet_fast,
                 run_kg, seal_checkpoint, stage_checkpoint)

LEDGER = "_applied.json"
# GraphStore deletes' append-only log, beside the tables
TOMBSTONES = "_tombstones.jsonl"
# bucketed store tables → the id column their buckets hash, in commit
# order (nodes first; the edges ledger commits)
ID_COLS = {"nodes": "node_id", "edges": "edge_id"}
SCHEMAS = {"nodes": schemas.NODES, "edges": schemas.EDGES}
# the one file of each bucket dir: a fixed name, so a retried reduce
# task overwrites its own file
BUCKET_FILE = "part-0.parquet"


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


def _hardlink_buckets(live_dir: str, tmp_dir: str,
                      buckets: set[int]) -> None:
    """Carry untouched bucket partitions into a new table version as
    hardlinks — O(1) metadata per file, the data is never read."""
    for b in sorted(buckets):
        src = os.path.join(live_dir, f"bucket={b}")
        dst = os.path.join(tmp_dir, f"bucket={b}")
        os.makedirs(dst, exist_ok=True)
        for f in os.listdir(src):
            os.link(os.path.join(src, f), os.path.join(dst, f))


def _bucket_path(table_dir: str, bucket: int) -> str:
    return os.path.join(table_dir, f"bucket={bucket}", BUCKET_FILE)


def _bucket_reducer(tmps: dict[str, str]):
    """The store exchange's reduce: one call holds every row of one
    store bucket.  Merge them, write each table's rows of the bucket as
    its one file under ``tmps[table]`` (sorted by id: a retry rewrites
    the same bytes), and report ``(kind, bucket, rows)`` per file."""
    def reduce(group: pa.Table) -> pa.Table:
        b = group["bucket"][0].as_py()
        merged = _combined_merge(group).sort_by("key")
        kinds, counts = [], []
        for kind, (name, project) in enumerate((("nodes", to_nodes),
                                                ("edges", to_edges))):
            if name not in tmps:
                continue
            t = project(merged)
            if t.num_rows:
                path = _bucket_path(tmps[name], b)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                pq.write_table(t, path)
                kinds.append(kind)
                counts.append(t.num_rows)
        return pa.table({"kind": pa.array(kinds, type=pa.int8()),
                         "bucket": pa.array([b] * len(kinds), type=pa.int32()),
                         "rows": pa.array(counts, type=pa.int64())})
    return reduce


def live_rows(out_dir: str, touched: set[int], nb: int,
              tables=tuple(ID_COLS), drop: list[str] = ()) -> list:
    """The live rows of the ``touched`` buckets of ``tables``, minus the
    ``drop`` ids, as exchange rows (edges keep their ``first_seen`` as
    ``ts`` and their ``n_evidence`` as ``n``) — one Dataset per table
    that has files there."""
    drop = pa.array(drop, type=pa.string())

    def as_rows(name: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.invert(pc.is_in(t[ID_COLS[name]],
                                            value_set=drop)))
            r = node_rows(t["node_id"], t["node_key"], t["node_type"],
                          t["name"]) if name == "nodes" else edge_rows(
                t["edge_id"], t["subj_id"], t["predicate"], t["obj_id"],
                t["props"], t["first_seen"], t["n_evidence"])
            return with_bucket(r, nb)
        return fn

    parts = []
    for name in tables:
        d = os.path.join(out_dir, name)
        files = [f for b in sorted(touched) for f in _bucket_files(d, b)]
        if files:
            parts.append(read_parquet_fast(files, columns=SCHEMAS[name].names)
                         .map_batches(as_rows(name), batch_format="pyarrow"))
    return parts


def write_store(out_dir: str, rows, ledger: dict, *,
                touched: set[int] | None = None, tables=tuple(ID_COLS),
                before_commit=None) -> dict:
    """THE store writer: publish new versions of ``tables`` from
    ``rows``, the kind-tagged exchange rows (``kind, key, a, b, c, d,
    ts, n, bucket``) of every store bucket the write touches, each
    stamped with its persistent bucket under ``ledger["num_buckets"]``.

    ``touched=None`` is a full build: ``rows`` hold the whole store, the
    exchange runs one bucket per store bucket, and no live bucket
    carries over.  Otherwise ``rows`` hold every row of the ``touched``
    buckets (new rows plus ``live_rows``), the exchange runs one bucket
    per touched bucket, and the untouched buckets are hardlinked.

    One Ray execution: each reduce call merges one store bucket and
    writes its one file per table into ``<table>.__tmp__`` (cleared
    first, so a killed earlier write leaves nothing behind).  Every file
    a reduce reported must exist before anything is swapped — else
    ``RuntimeError`` and the live tables stay as they were.  Then the
    ledger is written into each tmp dir, ``before_commit`` runs, and
    the tables swap atomically in ``tables`` order (nodes before
    edges).  A table left with no rows keeps one empty file in
    ``bucket=0`` so readers still see its schema.  Returns the rows
    written per table (the touched buckets' new contents)."""
    dirs = {name: os.path.join(out_dir, name) for name in tables}
    tmps = {name: d.rstrip("/") + ".__tmp__" for name, d in dirs.items()}
    for tmp in tmps.values():
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
    width = ledger["num_buckets"] if touched is None else max(1, len(touched))
    reports = exchange(rows, _bucket_reducer(tmps), width).take_all()
    # Ray Data releases a finished execution's actors (the build's link
    # pool) by reference counting, and the finished execution sits in
    # reference cycles: until a collection runs, those actors keep their
    # CPUs and the next execution's tasks wait for them (10-20 s stalls
    # per build at 2 CPUs)
    gc.collect()
    written = {name: 0 for name in tables}
    missing = []
    for r in reports:
        name = ("nodes", "edges")[r["kind"]]
        written[name] += r["rows"]
        if not os.path.exists(_bucket_path(tmps[name], r["bucket"])):
            missing.append(_bucket_path(tmps[name], r["bucket"]))
    if missing:
        raise RuntimeError(
            f"write_store: {len(missing)} reported bucket file(s) missing, "
            f"e.g. {missing[0]} — live tables left unchanged")
    for name, tmp in tmps.items():
        if touched is not None:
            _hardlink_buckets(dirs[name], tmp,
                              _live_buckets(dirs[name]) - touched)
        if not _live_buckets(tmp):
            os.makedirs(os.path.join(tmp, "bucket=0"))
            pq.write_table(SCHEMAS[name].empty_table(),
                           os.path.join(tmp, "bucket=0", "empty.parquet"))
        with open(_ledger_path(tmp), "w") as f:
            json.dump(ledger, f)
    if before_commit is not None:
        before_commit()
    for name, tmp in tmps.items():
        _commit_dir(tmp, dirs[name])
    return written


def touched_buckets(rows) -> set[int]:
    """The store buckets that exchange ``rows`` (materialized) land in:
    their unique ``bucket`` values, in one small execution."""
    return {r["bucket"] for r in rows.map_batches(
        lambda t: pa.table({"bucket": pc.unique(t["bucket"])}),
        batch_format="pyarrow").take_all()}


def merge_rows(out_dir: str, rows, ledger: dict, touched: set[int]) -> None:
    """Upsert new exchange ``rows`` into the store's ``touched``
    buckets: their live rows join the new ones in ``write_store``."""
    live = live_rows(out_dir, touched, ledger["num_buckets"])
    write_store(out_dir, rows.union(*live) if live else rows, ledger,
                touched=touched)


def read_graph_table(out_dir: str, name: str):
    """Canonical-schema Dataset over a store table: ``nodes``,
    ``edges`` or ``triples`` (the hive ``bucket`` / ``increment``
    partition column is pruned at the read)."""
    schema = {**SCHEMAS, "triples": schemas.TRIPLES}[name]
    return rd.read_parquet(os.path.join(out_dir, name),
                           columns=schema.names)


def table_counts(out_dir: str) -> dict:
    return {name: _dir_num_rows(os.path.join(out_dir, name))
            for name in ("nodes", "edges")}


def carried_increments(out_dir: str, files: list[str]) -> dict:
    """The increments a rebuild of the store at ``out_dir`` from
    ``files`` re-reads, as ``{id: files}``: those its edges ledger
    lists past its build's own partitions (``base``), i.e. merged by
    ``ingest_increment`` since the last publish, none of whose input
    files is in ``files``.  One whose files are all in ``files`` is
    rebuilt from them instead (carrying it too would count its pages
    twice); one with only some raises ``ValueError``.  Empty for a dir
    that holds no store yet."""
    d = os.path.join(out_dir, "edges")
    if not os.path.exists(_ledger_path(d)):
        return {}
    ledger = _read_ledger(d)
    # a ledger written before it recorded inputs knows no files: carry
    inputs = ledger.get("inputs", {})
    files = set(files)
    carried = {}
    for inc in ledger["applied"]:
        if inc in ledger["base"]:
            continue
        own = inputs.get(inc, [])
        shared = files.intersection(own)
        if not shared:
            carried[inc] = own
        elif len(shared) < len(set(own)):
            raise ValueError(
                f"increment {inc} of the store at {out_dir} was ingested "
                f"from {sorted(own)}; the rebuild reads only "
                f"{sorted(shared)} of them — pass all or none")
    return carried


def publish_build(out_dir: str, rows, *, base: dict[str, list[str]],
                  num_buckets: int, seed: int,
                  increments: dict[str, list[str]] | None = None,
                  before_commit=None) -> None:
    """Publish a full build — ``rows``, the canonical exchange's partial
    rows (``canonicalize.combined_rows``) — as the bucketed store,
    ``num_buckets`` pinned in a fresh ledger.  ``base`` maps the
    build's own triples partitions and ``increments`` the earlier
    ingests the build re-read to their input files; the ledger's
    ``applied`` lists both, its ``base`` the former, so a republish can
    tell them apart, and its ``inputs`` maps every applied id to its
    files.  No live bucket carries over: a rebuild into an existing
    store leaves no stale bucket (of this or of another bucket count)
    behind.

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
    inputs = {**base, **(increments or {})}
    ledger = {"applied": list(inputs), "base": list(base), "inputs": inputs,
              "num_buckets": num_buckets, "seed": seed,
              "bucket_hash": BUCKET_HASH_ID}
    write_store(out_dir, rows, ledger, before_commit=before_commit)


# the store's builder under its former name, which perfbench/ still calls
init_incremental = run_kg


def _delta_pool_size(files: list[str]):
    """Actor-pool bound for a DELTA: autoscaling sized to the increment
    (~4k pages per actor), not to the cluster — spawning a cluster-wide
    pool for a small delta costs more than the extraction itself."""
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    cap = max(1, cluster_cpus() - 2)
    return (1, max(1, min(cap, rows // 4096 + 1)))


def ingest_increment(pages_path, out_dir: str) -> dict:
    """Merge new pages into an existing store (built by ``run_kg``).

    The delta goes through the build's own plan, ``checkpointed_rows``
    (link pool sized to the delta): its partial rows are materialized —
    canonical-size, the touched buckets' names — and its checkpoint
    partition ``triples/increment=<id>/``, written inside that same
    link pass and staged outside ``triples/`` (``stage_checkpoint``),
    is committed before any table moves.  Only the bucket partitions
    the delta's content-hash ids land in are then read and rewritten;
    the other buckets are hardlinked.  That is 3 Ray executions at
    every width: the link pass with its checkpoint, the touched-bucket
    pass and the store write.

    Replaying an already-applied increment (same input-file list) is a
    no-op.  Returns the table counts, the touched-bucket counts and
    per-phase wall times: ``sec_extract`` (the link pass, checkpoint
    included), ``sec_canonicalize`` (the touched-bucket pass) and
    ``sec_merge`` (the store write).

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

    # 1. the delta's partial rows, stamped with the store's buckets, and
    #    its durable checkpoint partition (evidence grows append-only;
    #    the atomic promotion makes a crash-rerun idempotent)
    t0 = time.time()
    part = f"increment={inc}"
    stage = stage_checkpoint(out_dir, part)
    delta = checkpointed_rows(read_parquet_fast(files), stage, nb,
                              broadcast_alias_map(seed),
                              link_concurrency=_delta_pool_size(files)
                              ).materialize()
    seal_checkpoint(stage)
    _commit_dir(stage, os.path.join(out_dir, "triples", part))
    t_extract = time.time() - t0

    t0 = time.time()
    touched = touched_buckets(delta)
    t_canon = time.time() - t0

    # 2. merge into ONLY the touched buckets and publish (nodes first —
    #    their merge is idempotent; the edges swap commits the increment)
    t0 = time.time()
    merge_rows(out_dir, delta,
               {**ledger, "applied": ledger["applied"] + [inc],
                "inputs": {**ledger.get("inputs", {}), inc: files}},
               touched)
    return {"increment": inc, "skipped": False,
            "sec_extract": round(t_extract, 2),
            "sec_canonicalize": round(t_canon, 2),
            "sec_merge": round(time.time() - t0, 2),
            **{f"touched_{name}_buckets": len(touched) for name in ID_COLS},
            **table_counts(out_dir)}


def delete_rows(out_dir: str, name: str, ids: list[str]) -> int:
    """Bucket-targeted delete from one store table: only the bucket
    partitions the ids land in are read and rewritten (minus the ids),
    every other bucket is hardlinked into the new version untouched —
    the increment's touched-bucket write, applied to removal.  Returns
    the number of rows removed.  Atomic: the dir swap publishes the new
    version or leaves the live one intact."""
    d = os.path.join(out_dir, name)
    ledger = _checked_ledger(d)
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
    touched = set(bucket_of_hexid(ids, nb).to_pylist()) & _live_buckets(d)
    live = live_rows(out_dir, touched, nb, (name,), drop=ids)
    if not live:
        return 0
    before = sum(pq.ParquetFile(f).metadata.num_rows
                 for b in touched for f in _bucket_files(d, b))
    written = write_store(out_dir, live[0], ledger, touched=touched,
                          tables=(name,))
    return before - written[name]
