"""Resumability: kill-and-rerun semantics via the partition manifest.

Reference analog: at-least-once NATS consumption + idempotent
content-keyed upserts (/root/reference/pkg/emitter/emitter.go:64-74);
here, deterministic partition layout + atomic per-partition manifest
(FIXTURES.md §3.6).
"""

import json
import os

import pandas as pd
import pyarrow.parquet as pq

from guacray.data.pages import generate_pages
from guacray.pipelines.increment import read_graph_table
from guacray.pipelines.kg import run_kg_resumable
from guacray.state.manifest import Manifest


def _split_pages(tmp_path, n=192, parts=3):
    pages = generate_pages(n)
    files = []
    step = n // parts
    for i in range(parts):
        p = str(tmp_path / f"pages-{i}.parquet")
        pq.write_table(pages.slice(i * step, step), p)
        files.append(p)
    return files


def _edges(out_dir):
    df = read_graph_table(out_dir, "edges").to_pandas()
    return df.sort_values("edge_id").reset_index(drop=True)


def test_resume_skips_completed_partitions(tmp_path):
    files = _split_pages(tmp_path)

    # interrupted run: only the first two partitions complete
    out1 = str(tmp_path / "out_interrupted")
    run_kg_resumable(files[:2], out1, files_per_partition=1)
    man = Manifest(os.path.join(out1, "triples"))
    done_before = man.completed()
    assert set(done_before) == {"part-00000", "part-00001"}
    stamps_before = {k: v["completed_at_unix"] for k, v in done_before.items()}

    # resumed run over the full input: parts 0,1 skipped, part 2 processed
    run_kg_resumable(files, out1, files_per_partition=1)
    done_after = man.completed()
    assert set(done_after) == {"part-00000", "part-00001", "part-00002"}
    for k, stamp in stamps_before.items():
        assert done_after[k]["completed_at_unix"] == stamp  # untouched

    # final tables equal an uninterrupted run
    out2 = str(tmp_path / "out_clean")
    run_kg_resumable(files, out2, files_per_partition=1)
    pd.testing.assert_frame_equal(_edges(out1), _edges(out2))


def test_manifest_lineage_fields(tmp_path):
    files = _split_pages(tmp_path, n=64, parts=1)
    out = str(tmp_path / "out")
    run_kg_resumable(files, out, files_per_partition=1)
    entry = Manifest(os.path.join(out, "triples")).completed()["part-00000"]
    assert entry["inputs"] == [files[0]]
    assert entry["rows_in"] == 64
    assert entry["rows_out"] > 0
    assert entry["wall_sec"] >= 0
    assert os.path.isdir(entry["outputs"][0])
    # manifest is valid json on disk (atomic write landed)
    path = os.path.join(out, "triples", "_manifest", "part-00000.json")
    json.load(open(path))


def test_changed_input_grouping_reprocesses(tmp_path):
    """Positional partition ids shift when the input list changes; the
    manifest must invalidate by recorded lineage, not id."""
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files, out, files_per_partition=1)
    baseline = _edges(out)

    # add a file that sorts FIRST: every group shifts by one
    extra_pages = generate_pages(64, url_offset=1_000_000)
    extra = str(tmp_path / "aaa-extra.parquet")
    pq.write_table(extra_pages, extra)
    run_kg_resumable(sorted(files + [extra]), out, files_per_partition=1)

    # clean-room run over the same 4 files must match exactly
    out2 = str(tmp_path / "out2")
    run_kg_resumable(sorted(files + [extra]), out2, files_per_partition=1)
    pd.testing.assert_frame_equal(_edges(out), _edges(out2))


def test_stale_partitions_excluded_after_regrouping(tmp_path):
    """Fewer groups on rerun (larger files_per_partition): entries past
    the new group count must not feed the shuffle phase."""
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files, out, files_per_partition=1)   # 3 partitions
    run_kg_resumable(files, out, files_per_partition=3)   # 1 partition
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2, files_per_partition=3)
    pd.testing.assert_frame_equal(_edges(out), _edges(out2))


def test_resumable_store_takes_increments(tmp_path):
    """run_kg_resumable publishes the same bucketed store as run_kg:
    its partitions share the ``increment=`` hive key, so
    ingest_increment extends it and the triples read as one table.  A
    rerun after the ingest re-reads the increment and keeps it in the
    ledger."""
    from guacray.pipelines.increment import ingest_increment
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files[:2], out, files_per_partition=1)
    inc = ingest_increment(files[2], out)
    assert inc["skipped"] is False
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2, files_per_partition=1)
    n_triples = read_graph_table(out2, "triples").count()

    def same_as_out2():
        pd.testing.assert_frame_equal(_edges(out), _edges(out2))
        assert read_graph_table(out, "triples").count() == n_triples
        with open(os.path.join(out, "edges", "_applied.json")) as f:
            assert inc["increment"] in json.load(f)["applied"]

    same_as_out2()
    assert run_kg_resumable(files[:2], out,
                            files_per_partition=1)["evidence"] == n_triples
    same_as_out2()


def test_regrouping_removes_stale_partitions(tmp_path):
    """A rerun with fewer groups removes the partitions past the new
    group count and their manifest entries: the evidence read counts
    each page once."""
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files, out, files_per_partition=1)
    run_kg_resumable(files, out, files_per_partition=3)
    tri = os.path.join(out, "triples")
    assert sorted(n for n in os.listdir(tri) if n.startswith("increment=")) \
        == ["increment=part-00000"]
    assert set(Manifest(tri).completed()) == {"part-00000"}
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2, files_per_partition=3)
    assert read_graph_table(out, "triples").count() == \
        read_graph_table(out2, "triples").count()
