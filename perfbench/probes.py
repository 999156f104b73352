"""Per-layer probes of the traced run.  Each probe calls one layer's
public entry point from outside and times it; nothing inside guacray is
instrumented.  Layer names are guacray's module names.

Kernels run Ray-free on one core, on the workload's own pages.  The
``kg`` phases drive the two-execution plan by hand: linked_triples +
checkpoint write, then checkpoint read + graph_tables, then the node
and edge table writes.
"""

from __future__ import annotations

import os
import time
from statistics import median

import pyarrow as pa
import pyarrow.compute as pc

KERNEL_PAGES = 4096   # kernel probes use at most this many pages
KERNEL_REPS = 3       # kernel timings are medians of this many repetitions
EMPTY_EXEC_REPS = 5


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _batches(t: pa.Table, size: int) -> list[pa.Table]:
    return [t.slice(i, size) for i in range(0, t.num_rows, size)]


def empty_exec_ms() -> float:
    """The fixed cost of one Ray Data execution: a one-row dataset
    through a no-op map, after one warm-up execution."""
    import ray.data as rd
    samples = []
    for _ in range(EMPTY_EXEC_REPS + 1):
        t0 = time.perf_counter()
        rd.range(1).map_batches(lambda b: b).count()
        samples.append(_ms(t0))
    return median(samples[1:])


def kernels(pages: pa.Table, num_buckets: int) -> dict:
    """normalize → extract → link (+ids) → combiner partial → merge on
    one core, each kernel fed its pipeline batch size.  Link runs with
    a fresh Linker and cleared id caches (cold), then again on the same
    Linker (warm)."""
    from guacray.data.catalog import build_catalog
    from guacray.stages import canonicalize as canon
    from guacray.stages.extract import extract_batch
    from guacray.stages.link import Linker
    from guacray.stages.normalize import normalize_batch

    pages = pages.slice(0, KERNEL_PAGES)
    alias_map = build_catalog().alias_map()
    ms: dict[str, list[float]] = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        ms.setdefault(name, []).append(_ms(t0))
        return out

    def clear_id_caches():
        canon._node_id_cache.clear()
        canon._edge_id_cache.clear()

    for _ in range(KERNEL_REPS):
        norm = pa.concat_tables(timed("normalize.batch_ms", lambda: [
            normalize_batch(b) for b in _batches(pages, 256)]))
        raw = pa.concat_tables(timed("extract.batch_ms", lambda: [
            extract_batch(b) for b in _batches(norm, 512)]))
        clear_id_caches()
        linker = Linker(alias_map)
        linked = pa.concat_tables(timed("link.batch_ms_cold", lambda: [
            linker(b) for b in _batches(raw, 512)]))
        timed("link.batch_ms_warm", lambda: [
            linker(b) for b in _batches(raw, 512)])
        bare = linked.drop_columns(["subj_id", "obj_id", "edge_id"])
        clear_id_caches()
        timed("canonicalize.ids_ms", lambda: [
            canon.add_ids_batch(b) for b in _batches(bare, 512)])
        partial = timed("canonicalize.partial_ms",
                        canon._combined_partial, linked, num_buckets)
        groups = [partial.filter(pc.equal(partial["bucket"], b))
                  for b in pc.unique(partial["bucket"]).to_pylist()]
        timed("canonicalize.merge_ms",
              lambda: [canon._combined_merge(g) for g in groups])

    out = {name: median(v) for name, v in ms.items()}
    mentions = pa.chunked_array(raw["subj_surface"].chunks
                                + raw["obj_surface"].chunks)
    sizes = [g.num_rows for g in groups]
    out.update({
        "normalize.rows_kept_ratio": norm.num_rows / pages.num_rows,
        "extract.triples_per_page": raw.num_rows / pages.num_rows,
        "link.distinct_surface_ratio":
            len(pc.unique(mentions)) / max(1, len(mentions)),
        "canonicalize.collapse_ratio": partial.num_rows / max(1, linked.num_rows),
        "canonicalize.bucket_skew":
            max(sizes) / (sum(sizes) / num_buckets) if sizes else 0.0,
    })
    kernel_ms = sum(out[k] for k in (
        "normalize.batch_ms", "extract.batch_ms", "link.batch_ms_cold",
        "canonicalize.partial_ms", "canonicalize.merge_ms"))
    out["kernel_ms_per_page"] = kernel_ms / pages.num_rows
    return out


def kg_phases(pages_dir: str, out_dir: str, spans) -> dict:
    """The build as two executions driven from outside, phase by phase;
    publishes nodes/ and edges/ under ``out_dir``, returns phase walls."""
    from guacray import schemas
    from guacray.pipelines.kg import (broadcast_alias_map, linked_triples,
                                      read_parquet_fast, write_table)
    from guacray.stages.canonicalize import CANON_COLS, graph_tables

    tri_dir = os.path.join(out_dir, "triples")
    walls = {}
    with spans.span("kg.link_pass"):
        t0 = time.perf_counter()
        triples = linked_triples(read_parquet_fast(pages_dir),
                                 broadcast_alias_map())
        write_table(triples, tri_dir, schemas.TRIPLES,
                    min_rows_per_file=200_000)
        walls["kg.link_pass_s"] = time.perf_counter() - t0
    with spans.span("kg.exchange"):
        t0 = time.perf_counter()
        nodes, edges = graph_tables(read_parquet_fast(tri_dir,
                                                      columns=CANON_COLS))
        walls["kg.exchange_s"] = time.perf_counter() - t0
    with spans.span("kg.publish"):
        t0 = time.perf_counter()
        write_table(nodes, os.path.join(out_dir, "nodes"), schemas.NODES)
        write_table(edges, os.path.join(out_dir, "edges"), schemas.EDGES)
        walls["kg.publish_s"] = time.perf_counter() - t0
    return walls


def increment_once(base_files: list[str], delta_files: list[str],
                   store: str, spans) -> dict:
    """init_incremental over ``base_files``, then one ingest_increment
    of ``delta_files``: the increment layer on a build workload's pages."""
    import json

    from guacray.pipelines.increment import (ingest_increment,
                                             init_incremental)
    with spans.span("increment.init"):
        init_incremental(base_files, store)
    with spans.span("ingest_increment"):
        r = ingest_increment(delta_files, store)
    with open(os.path.join(store, "edges", "_applied.json")) as f:
        nb = json.load(f)["num_buckets"]
    return {"increment.extract_s": r["sec_extract"],
            "increment.canon_s": r["sec_canonicalize"],
            "increment.merge_s": r["sec_merge"],
            "increment.touched_bucket_ratio": r["touched_edges_buckets"] / nb}
