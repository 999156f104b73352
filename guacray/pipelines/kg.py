"""Flagship pipeline: pages → nodes / edges / evidence Parquet.

The Ray-Data re-expression of GUAC's collect → process → parse →
assemble lifecycle (/root/reference/cmd/guacone/cmd/files.go:62-191 and
SURVEY.md §3.1), end to end:

    read_parquet(pages)                      # collectors
      → normalize → extract → link+ids       # processor+parsers+scanners
        (fused into ONE actor-pool pass)     #   (content-hash identity)
      → triples checkpoint, written block by block inside the same
        streaming execution that feeds the exchange
      → canonicalize (combiner + ONE bucketed exchange → nodes+edges)
      → nodes/bucket=<b>/ edges/bucket=<b>/  # assembler backend tables
        (evidence = projection view of the checkpoint)

Everything up to the exchange's rows is ``checkpointed_rows``, the one
page-ingest plan at every cluster width: ``run_kg`` hands a build's
rows to the store writer (ONE Ray execution in all),
and ``ingest_increment`` (``pipelines/increment.py``) a delta's rows
plus the live rows of the buckets they touch.  The published tables
are the one store layout every writer maintains: one bucket per
exchange bucket, the bucket count pinned in each table's
``_applied.json`` ledger, and each checkpoint under
``triples/increment=<id>/``.

Everything is lazy/streaming until the writes; nothing materializes the
full dataset on the driver.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.agg import resolve_buckets
from ..stages.canonicalize import (CANON_COLS, combined_rows,
                                   graph_tables)
from ..stages.extract import extract
from ..stages.link import link
from ..stages.normalize import normalize
from ..state.manifest import Manifest
from .. import schemas


def write_table(ds, out_dir: str, empty_schema=None,
                min_rows_per_file: int | None = None) -> None:
    """Overwrite-write a Dataset as a parquet dir, atomically.

    ``write_parquet`` appends part files into an existing dir; a rerun
    would silently double the table.  Write to a sibling tmp dir and
    swap via rename — readers never observe a half-written table and
    reruns are idempotent (the resumability contract).

    ``min_rows_per_file`` compacts output (e.g. a checkpoint that will
    be re-read by shuffles: hundreds of tiny files make every
    downstream exchange pay #blocks² object transfers).
    """
    tmp = out_dir.rstrip("/") + ".__tmp__"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    kwargs = {}
    if min_rows_per_file is not None:
        kwargs["min_rows_per_file"] = min_rows_per_file
    ds.write_parquet(tmp, **kwargs)
    if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
        # empty dataset: write_parquet emits no files; persist an explicit
        # empty table so readers see a valid (0-row) parquet dir
        import pyarrow as pa
        schema = ds.schema()
        arrow_schema = getattr(schema, "base_schema", None)
        if not isinstance(arrow_schema, pa.Schema):
            arrow_schema = empty_schema
        if arrow_schema is not None:
            pq.write_table(arrow_schema.empty_table(),
                           os.path.join(tmp, "empty.parquet"))
    _commit_dir(tmp, out_dir)


def upsert_sidecar(path: str, new_ds, keys: list[str], ts_col: str,
                   schema) -> None:
    """Keyed keep-latest commit of a small state sidecar (scan_state,
    collect_state): union the live table with ``new_ds``, keep the max
    ``ts_col`` row per ``keys`` via a distributed grouped max, and
    publish atomically through ``write_table``.  One implementation for
    every sidecar so schema handling / atomicity fixes land once.  The
    live table is projected+cast to ``schema`` (so a column ADDED to the
    schema must be migrated by the caller before calling — see
    enrich._migrate_scan_state for the pattern)."""
    import ray.data as rd

    from ..stages.agg import grouped_agg
    if os.path.isdir(path):
        old = rd.read_parquet(path).map_batches(
            lambda t: t.select(schema.names).cast(schema),
            batch_format="pyarrow")
        new_ds = old.union(new_ds)
    st = grouped_agg(new_ds, keys, [(ts_col, "max", ts_col)])
    write_table(st, path, schema)


def _commit_dir(tmp: str, out_dir: str) -> None:
    """Atomically promote a fully-written tmp dir to ``out_dir``.

    The live copy parks beside ``tmp`` as ``<name>.__old__`` (beside
    ``out_dir`` too when ``tmp`` is its ``.__tmp__`` sibling).  A commit
    that died between its two renames left ``.__old__`` as the only
    copy of the live table and no ``out_dir``: roll it back before
    anything else, so the cleanup below never deletes the last copy."""
    old = os.path.join(os.path.dirname(tmp.rstrip("/")),
                       os.path.basename(out_dir.rstrip("/")) + ".__old__")
    if os.path.isdir(old) and not os.path.exists(out_dir):
        os.replace(old, out_dir)
    shutil.rmtree(old, ignore_errors=True)
    if os.path.isdir(out_dir):
        os.replace(out_dir, old)
    os.replace(tmp, out_dir)
    shutil.rmtree(old, ignore_errors=True)


def stage_checkpoint(out_dir: str, part: str) -> str:
    """A cleared staging dir for checkpoint partition ``triples/<part>``
    of the store at ``out_dir``, which ``_commit_dir`` then renames into
    place.  It sits in ``<out_dir>/_staging/``: on the same filesystem
    as ``triples/`` but outside it.  Ray and pyarrow skip only names
    that start with ``.`` or ``_``, so a ``.__tmp__`` or ``.__old__``
    dir under ``triples/`` (a write in flight, or a crash's leftover)
    would read as one more partition in ``read_graph_table``,
    ``evidence_view`` and DuckDB's ``triples/**`` globs alike."""
    stage = os.path.join(out_dir, "_staging", part)
    shutil.rmtree(stage, ignore_errors=True)
    os.makedirs(stage)
    return stage


def read_parquet_fast(path_or_paths, **kwargs):
    """``read_parquet`` without the decoding-size sampling pass.

    Ray's parquet planner READS sample files at ``read_parquet()`` call
    time to estimate in-memory block size — 3-7 s of driver-side serial
    constant on a 512-shard input, paid identically at every
    parallelism level (it was the single largest non-scaling term in
    the 8→32 study).  The KG pipeline's inputs are its own uniform
    small shards (pages fixture, compacted triples checkpoint), so
    on-disk size is a fine block-sizing proxy; skip the sampling."""
    from ray.data import DataContext
    ctx = DataContext.get_current()
    old = ctx.decoding_size_estimation
    ctx.decoding_size_estimation = False
    try:
        return rd.read_parquet(path_or_paths, **kwargs)
    finally:
        ctx.decoding_size_estimation = old


def _input_files(pages_path) -> list[str]:
    """Sorted parquet files of a pages input: a list of files, or a
    local directory walked recursively; any other path (one file, a
    non-local URI) is its own one-element list."""
    if isinstance(pages_path, (list, tuple)):
        return sorted(pages_path)
    if os.path.isdir(pages_path):
        return sorted(os.path.join(r, f) for r, _, fs in os.walk(pages_path)
                      for f in fs if f.endswith(".parquet"))
    return [pages_path]


def _increment_id(files: list[str]) -> str:
    """Content-address an increment by its sorted input-file list —
    replaying the same submission is a no-op, not a double-count."""
    import hashlib
    h = hashlib.blake2b("\n".join(sorted(files)).encode(),
                        digest_size=8).hexdigest()
    return f"inc-{h}"


def _fused_checkpoint_writer(tmp_dir: str):
    """Pass-through block stage: persist each triples block to the
    checkpoint tmp dir AND emit the pruned canonicalize projection.

    This overlaps the checkpoint write with the downstream exchange in
    ONE streaming execution: no executor teardown/startup and no serial
    read-back of the whole checkpoint between the two.

    The write is inline: the file has landed before the task returns,
    so every checkpoint block is inside Ray's lineage.

    Idempotent under Ray task retries: the filename is a deterministic
    content hash of the block (vectorized), so a retried task rewrites
    its own file byte-for-byte instead of appending a duplicate.
    """
    def write_and_project(batch):
        import numpy as np
        import pandas as pd
        if batch.num_rows:
            # hash EVERY identity-bearing column, not just edge_id: two
            # blocks can share an identical edge_id sequence yet differ
            # in evidence columns (the same statement extracted from
            # different urls/warc_ts — routine with duplicated web
            # pages); an edge_id-only name would silently overwrite one
            # block's evidence rows with the other's
            h = np.zeros(batch.num_rows, dtype=np.uint64)
            for i, col in enumerate(("edge_id", "document_ref", "url",
                                     "warc_ts", "props")):
                ch = pd.util.hash_array(
                    batch[col].to_numpy(zero_copy_only=False))
                h ^= (ch << np.uint64(i)) | (ch >> np.uint64(64 - i)) \
                    if i else ch
            name = (f"blk-{batch.num_rows}-"
                    f"{np.bitwise_xor.reduce(h):016x}-{h.sum():016x}")
            pq.write_table(batch, os.path.join(tmp_dir, f"{name}.parquet"))
        return batch.select(CANON_COLS)

    return write_and_project


def linked_triples(pages_ds, alias_ref=None, link_concurrency=None):
    """pages Dataset → linked + content-id'd triples Dataset.

    normalize → extract → link fuse into ONE actor-pool operator (id
    stamping happens inside the linker), so each page is touched by
    exactly one Python task chain with no intermediate serialization.
    """
    ds = normalize(pages_ds)
    ds = extract(ds)
    return link(ds, alias_ref=alias_ref, concurrency=link_concurrency)


def kg_datasets(pages_ds, alias_ref=None,
                num_buckets: int | None = None) -> dict:
    """Wire the full pipeline; returns Datasets keyed by table name.

    nodes/edges come from ``graph_tables`` — the same kind-tagged
    exchange ``run_kg`` runs — which materializes the exchange, so this
    call executes the pipeline once.  ``triples`` and ``evidence`` stay
    lazy and re-execute the (cheap, deterministic) lineage per
    consumer: triples-only callers should use ``linked_triples``, and
    callers that consume every table at scale should checkpoint the
    triples inside the pass that feeds the exchange, as ``run_kg`` does
    (``checkpointed_rows``).
    """
    triples = linked_triples(pages_ds, alias_ref)
    nodes, edges = graph_tables(triples, num_buckets)
    return {
        "triples": triples,
        "nodes": nodes,
        "edges": edges,
        "evidence": triples.select_columns(schemas.EVIDENCE.names),
    }


def broadcast_alias_map(seed: int = 42):
    """ray.put the alias dictionary once; actors fetch it in __init__."""
    from ..data.catalog import build_catalog
    return ray.put(build_catalog(seed).alias_map())


def _dir_num_rows(d: str) -> int:
    """Row count from parquet footers (recursive — handles hive
    partitioning) — no Ray job needed."""
    total = 0
    for root, _, files in os.walk(d):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
    return total


def evidence_view(out_dir: str):
    """The evidence table is a pure projection of the triples
    checkpoint — serving it as a pruned read of ``triples/`` avoids a
    whole extra pass and a duplicate copy on disk (the reference keeps
    provenance inline on every edge instead,
    keyvalue/isDependency.go:46-56)."""
    return rd.read_parquet(os.path.join(out_dir, "triples"),
                           columns=schemas.EVIDENCE.names)


def seal_checkpoint(part: str) -> None:
    """Give a checkpoint partition that received no rows one empty
    canonical-schema file, so readers still see a valid table."""
    if not any(f.endswith(".parquet") for f in os.listdir(part)):
        pq.write_table(schemas.TRIPLES.empty_table(),
                       os.path.join(part, "empty.parquet"))


def checkpointed_rows(pages_ds, part: str, num_buckets: int, alias_ref, *,
                      link_concurrency=None, extra_triples=None):
    """The one page-ingest plan: pages Dataset → the store's exchange
    rows (``combined_rows``, bucketed for a ``num_buckets`` store), with
    the linked triples (plus ``extra_triples``) checkpointed into
    ``part``, a tmp dir cleared first.  ``run_kg`` and
    ``ingest_increment`` both build through it.

    normalize → extract → link run as one actor pass, and nothing runs
    here: each triples block is written to ``part`` inside the same map
    task that feeds the rows (``_fused_checkpoint_writer``), so the
    checkpoint is complete once the rows' execution has run.  The
    caller runs the rows, then ``seal_checkpoint(part)`` and promotes
    the tmp dir (``_commit_dir``).
    """
    triples = linked_triples(pages_ds, alias_ref, link_concurrency)
    if extra_triples is not None:
        triples = triples.union(extra_triples)
    shutil.rmtree(part, ignore_errors=True)
    os.makedirs(part)
    # batch_size=200k: the writer coalesces the linker's many small
    # output blocks into compacted checkpoint files AND hands the
    # downstream combiner big blocks — per-block dedup on small blocks
    # collapses almost nothing and the exchange would shuffle ~the full
    # triple volume (the first inline-writer A/B measured 25% slower
    # than a write-then-re-read for exactly this reason)
    tri = triples.map_batches(_fused_checkpoint_writer(part),
                              batch_format="pyarrow", batch_size=200_000)
    return combined_rows(tri, num_buckets)


def run_kg(pages_path, out_dir: str, *, num_buckets: int | None = None,
           seed: int = 42, attestations_path: str | None = None,
           public_keys: dict[str, bytes] | None = None) -> dict:
    """One-shot build: pages parquet (a file, a dir or a list of files)
    → the store under ``out_dir``: ``triples/increment=<id>/`` plus
    ``nodes/bucket=<b>/`` and ``edges/bucket=<b>/``, each table with
    its ``_applied.json`` ledger, which ``ingest_increment``,
    ``run_enrichment`` and ``GraphStore`` deletes then maintain through
    the same writer (``increment.write_store``).

    The store has ``num_buckets`` buckets (default: the cluster width,
    ``resolve_buckets``), pinned in the ledger for the store's life;
    the canonical exchange runs at that width and routes by the same
    persistent bucket function, and its reduce tasks write each
    bucket's one node file and one edge file themselves.  A rebuild
    into an existing store replaces ``triples/`` whole and swaps each
    table atomically, leaving no stale bucket or increment partition
    behind; the old store's enrichment scan state and tombstone log go
    with it (``publish_build``).

    The rows come from ``checkpointed_rows``, so a build is ONE Ray
    execution at every cluster width: the checkpoint tmp dir is
    promoted once the exchange has run, just before the tables.

    The evidence table is a projection view of the checkpoint
    (``evidence_view``) — no extra pass.  Returns row counts per table
    (parquet footers, no extra Ray job).
    """
    from .increment import publish_build
    nb = resolve_buckets(num_buckets)
    inc = _increment_id(_input_files(pages_path))
    att = None
    if attestations_path is not None:
        # signed-attestation slice (identity propagation,
        # parser/common/types.go:25-41): verified DSSE envelopes emit
        # (identity)-[signed]->(document) statements in the same
        # TRIPLES shape, unioned BEFORE the checkpoint so every
        # downstream consumer (exchange, evidence view, oracles) sees
        # one consistent statement log
        from ..sources.readers import (dsse_identity_triples,
                                       read_binary_docs,
                                       verify_dsse_stage)
        att = dsse_identity_triples(verify_dsse_stage(
            read_binary_docs(attestations_path), public_keys or {}))
    # the build's checkpoint is the store's only increment partition:
    # written into a tmp copy of triples/ that replaces the live one
    # whole, so increments of an older store never outlive a rebuild
    tri_dir = os.path.join(out_dir, "triples")
    tri_tmp = tri_dir.rstrip("/") + ".__tmp__"
    part = os.path.join(tri_tmp, f"increment={inc}")
    shutil.rmtree(tri_tmp, ignore_errors=True)
    rows = checkpointed_rows(read_parquet_fast(pages_path), part, nb,
                             broadcast_alias_map(seed),
                             extra_triples=att)

    def commit_triples():
        # the exchange has run, so every upstream task (and its
        # inline checkpoint write) has completed
        seal_checkpoint(part)
        _commit_dir(tri_tmp, tri_dir)
    publish_build(out_dir, rows, base=[inc], num_buckets=nb, seed=seed,
                  before_commit=commit_triples)
    counts = {name: _dir_num_rows(os.path.join(out_dir, name))
              for name in ("triples", "nodes", "edges")}
    counts["evidence"] = counts["triples"]
    return counts


def run_kg_resumable(pages_files: list[str], out_dir: str, *,
                     num_buckets: int | None = None, seed: int = 42,
                     files_per_partition: int = 8) -> dict:
    """Resumable run: one checkpoint partition per GROUP of input files.

    Phase A (per-partition, embarrassingly parallel, checkpointed): for
    each group of ``files_per_partition`` input files whose partition is
    not yet in the manifest, run normalize→extract→link, stage the
    triples outside ``triples/`` (``stage_checkpoint``), commit them as
    ``out_dir/triples/increment=part-<k>/`` + an atomic manifest entry
    with lineage and metrics.  A killed run reruns only missing
    partitions.  Grouping matters: each partition is a full
    (cheap-but-not-free) Ray execution, so 10k input shards as 10k
    partitions would pay 10k executor startups; ~8 files per partition
    keeps restart granularity fine while amortizing that overhead.

    Phase B (global shuffle, idempotent): canonicalize from ALL
    completed triple partitions, plus the increments ingested into an
    earlier publish of this store, and publish nodes/edges as the same
    bucketed store ``run_kg`` builds (ledger ``base`` = the partition
    ids), so ``ingest_increment`` extends it like any other.  Triples
    partitions neither read nor listed (another grouping's, an earlier
    build's) are removed with their manifest entries, so the evidence
    reads count each page once.  Safe to repeat — content-hash
    identities make it a pure function of the triples table.
    """
    from .increment import ingested_since_build, publish_build
    tri_root = os.path.join(out_dir, "triples")
    man = Manifest(tri_root)
    alias_ref = broadcast_alias_map(seed)

    files = sorted(pages_files)
    groups = [files[i:i + files_per_partition]
              for i in range(0, len(files), files_per_partition)]
    for i, group in enumerate(groups):
        pid = f"part-{i:05d}"
        # skip only when the committed entry's recorded inputs match
        # THIS group: partition ids are positional, so a changed input
        # list (new file sorting first, different files_per_partition)
        # shifts groups and a bare done() check would silently skip
        # unprocessed files / keep stale outputs
        if man.done_with_inputs(pid, group):
            continue
        started = time.time()
        part_dir = os.path.join(tri_root, f"increment={pid}")
        stage = stage_checkpoint(out_dir, f"increment={pid}")
        linked_triples(rd.read_parquet(group), alias_ref).write_parquet(stage)
        seal_checkpoint(stage)
        _commit_dir(stage, part_dir)
        man.commit(pid, inputs=group, outputs=[part_dir],
                   rows_in=sum(pq.ParquetFile(p).metadata.num_rows
                               for p in group),
                   rows_out=_dir_num_rows(part_dir), started=started)

    # only manifest-committed partitions OF THIS RUN'S GROUPING feed the
    # shuffle phase (stale entries from a previous, differently-grouped
    # run would double-ingest their files)
    valid = {f"part-{i:05d}" for i in range(len(groups))}
    done = {pid: e["outputs"][0] for pid, e in man.completed().items()
            if pid in valid}
    carried = ingested_since_build(out_dir)
    dirs = list(done.values()) + [os.path.join(tri_root, f"increment={i}")
                                  for i in carried]
    # read_parquet expands a single dir, but a LIST of paths must be files
    part_files = [os.path.join(d, f) for d in dirs
                  for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    tri = read_parquet_fast(part_files, columns=CANON_COLS)
    nb = resolve_buckets(num_buckets)
    # ONE kind-tagged exchange for both tables (same plan as run_kg)
    publish_build(out_dir, combined_rows(tri, nb), base=sorted(done),
                  increments=carried, num_buckets=nb, seed=seed)
    for pid in set(man.completed()) - set(done):
        man.drop(pid)
    live = {os.path.basename(d) for d in dirs}
    for name in os.listdir(tri_root):
        if name.startswith("increment=") and name not in live:
            shutil.rmtree(os.path.join(tri_root, name))
    counts = {name: _dir_num_rows(os.path.join(out_dir, name))
              for name in ("nodes", "edges")}
    counts["evidence"] = sum(_dir_num_rows(d) for d in dirs)
    return counts
