"""Resumability: kill-and-rerun semantics via content-addressed partitions.

Reference analog: at-least-once NATS consumption + idempotent
content-keyed upserts (/root/reference/pkg/emitter/emitter.go:64-74);
here, one checkpoint partition per group of input files, named by the
content id of the group's file list and committed by an atomic rename,
with the store ledger (``_applied.json``) as the one lineage record
(FIXTURES.md §3.6).
"""

import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from guacray.data.pages import generate_pages
from guacray.pipelines import kg
from guacray.pipelines.increment import ingest_increment, read_graph_table
from guacray.pipelines.kg import _increment_id, run_kg_resumable


def _split_pages(tmp_path, n=192, parts=3):
    pages = generate_pages(n)
    files = []
    step = n // parts
    for i in range(parts):
        p = str(tmp_path / f"pages-{i}.parquet")
        pq.write_table(pages.slice(i * step, step), p)
        files.append(p)
    return files


def _sorted(out_dir, name):
    df = read_graph_table(out_dir, name).to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _edges(out_dir):
    return _sorted(out_dir, "edges")


def _assert_same_store(got, want):
    for name in ("nodes", "edges", "triples"):
        pd.testing.assert_frame_equal(_sorted(got, name), _sorted(want, name))


def _ledger(out_dir):
    with open(os.path.join(out_dir, "edges", "_applied.json")) as f:
        return json.load(f)


def _partitions(out_dir):
    return sorted(os.listdir(os.path.join(out_dir, "triples")))


def _snapshot(out_dir):
    """Every path under ``out_dir`` with its inode and mtime."""
    snap = {}
    for root, dirs, files in os.walk(out_dir):
        for name in dirs + files:
            st = os.stat(os.path.join(root, name))
            snap[os.path.relpath(os.path.join(root, name), out_dir)] = \
                (st.st_ino, st.st_mtime_ns)
    return snap


def test_resume_skips_completed_partitions(tmp_path, monkeypatch):
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    files = _split_pages(tmp_path)

    # interrupted run: only the first two partitions complete
    out1 = str(tmp_path / "out_interrupted")
    run_kg_resumable(files[:2], out1)
    done = [f"increment={_increment_id([f])}" for f in files]
    assert _partitions(out1) == sorted(done[:2])
    files_before = {}
    for part in done[:2]:
        d = os.path.join(out1, "triples", part)
        for name in os.listdir(d):
            st = os.stat(os.path.join(d, name))
            files_before[os.path.join(d, name)] = (st.st_ino, st.st_mtime_ns)
    assert files_before

    # resumed run over the full input: groups 0,1 skipped, group 2 linked
    run_kg_resumable(files, out1)
    assert _partitions(out1) == sorted(done)
    for path, stamp in files_before.items():
        st = os.stat(path)
        assert (st.st_ino, st.st_mtime_ns) == stamp  # untouched

    # final tables equal an uninterrupted run
    out2 = str(tmp_path / "out_clean")
    run_kg_resumable(files, out2)
    _assert_same_store(out1, out2)


def test_ledger_lineage(tmp_path):
    files = _split_pages(tmp_path, n=64, parts=1)
    out = str(tmp_path / "out")
    counts = run_kg_resumable(files, out)
    inc = _increment_id(files)
    assert _partitions(out) == [f"increment={inc}"]
    # the ledger maps the partition to the group it was linked from
    ledger = _ledger(out)
    assert ledger["applied"] == ledger["base"] == [inc]
    assert ledger["inputs"] == {inc: files}
    assert counts["triples"] == counts["evidence"] == \
        read_graph_table(out, "triples").count() > 0


def test_changed_input_grouping_reprocesses(tmp_path, monkeypatch):
    """A new file that sorts first gives every group new content: the
    rerun links its new partitions and matches a clean run."""
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 2)
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files, out)

    # add a file that sorts FIRST: every group shifts by one
    extra_pages = generate_pages(64, url_offset=1_000_000)
    extra = str(tmp_path / "aaa-extra.parquet")
    pq.write_table(extra_pages, extra)
    run_kg_resumable(sorted(files + [extra]), out)

    # clean-room run over the same 4 files must match exactly
    out2 = str(tmp_path / "out2")
    run_kg_resumable(sorted(files + [extra]), out2)
    _assert_same_store(out, out2)
    assert _partitions(out) == _partitions(out2)


def test_stale_partitions_excluded_after_regrouping(tmp_path, monkeypatch):
    """Fewer groups on rerun (more files per partition): the earlier
    grouping's partitions must not feed the shuffle phase."""
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    run_kg_resumable(files, out)   # 3 partitions
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 3)
    run_kg_resumable(files, out)   # 1 partition
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2)
    _assert_same_store(out, out2)


def test_resumable_store_takes_increments(tmp_path, monkeypatch):
    """run_kg_resumable publishes the same bucketed store as run_kg:
    its partitions share the ``increment=`` hive key, so
    ingest_increment extends it and the triples read as one table.  A
    rerun over files that leave the increment's out re-reads the
    increment and keeps it in the ledger."""
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files[:2], out)
    inc = ingest_increment(files[2], out)
    assert inc["skipped"] is False
    assert _ledger(out)["inputs"][inc["increment"]] == [files[2]]
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2)
    n_triples = read_graph_table(out2, "triples").count()

    def same_as_out2():
        pd.testing.assert_frame_equal(_edges(out), _edges(out2))
        assert read_graph_table(out, "triples").count() == n_triples
        assert inc["increment"] in _ledger(out)["applied"]

    same_as_out2()
    counts = run_kg_resumable(files[:2], out)
    assert counts["evidence"] == counts["triples"] == n_triples
    same_as_out2()


def test_rerun_over_ingested_file_counts_pages_once(tmp_path, monkeypatch):
    """A rerun whose input list holds an ingested file rebuilds it
    from the file and no longer carries the increment: its pages count
    once, as in a clean build."""
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files[:2], out)
    ingest_increment(files[2], out)
    counts = run_kg_resumable(files, out)
    clean = str(tmp_path / "clean")
    want = run_kg_resumable(files, clean)
    assert counts == want
    pd.testing.assert_frame_equal(_edges(out), _edges(clean))
    assert read_graph_table(out, "triples").count() == \
        read_graph_table(clean, "triples").count()
    assert _edges(out)["n_evidence"].sum() == \
        _edges(clean)["n_evidence"].sum() == want["triples"]
    assert _ledger(out)["applied"] == _ledger(clean)["applied"]


def test_rebuild_drops_or_refuses_ingested_increments(tmp_path, monkeypatch):
    """An ingest only some of whose files a rebuild reads is refused
    before anything runs; one whose files it reads in full is rebuilt
    from them, and its partition is removed."""
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files[:1], out)
    inc = ingest_increment(files[1:], out)["increment"]
    before = _snapshot(out)
    with pytest.raises(ValueError, match=inc):
        run_kg_resumable(files[:2], out)
    assert _snapshot(out) == before

    run_kg_resumable(files, out)
    assert _partitions(out) == sorted(
        f"increment={_increment_id([f])}" for f in files)
    assert inc not in _ledger(out)["applied"]
    clean = str(tmp_path / "clean")
    run_kg_resumable(files, clean)
    _assert_same_store(out, clean)


def test_empty_input_raises_and_keeps_the_store(tmp_path, monkeypatch):
    """An empty input list is refused before anything runs: it would
    republish the store without its build."""
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    run_kg_resumable(files[:2], out)
    ingest_increment(files[2], out)
    before = _snapshot(out)
    with pytest.raises(ValueError):
        run_kg_resumable([], out)
    assert _snapshot(out) == before


def test_regrouping_removes_stale_partitions(tmp_path, monkeypatch):
    """A rerun with fewer groups removes the earlier grouping's
    partitions: the one group's content id is the only partition left,
    and the evidence read counts each page once."""
    files = _split_pages(tmp_path, n=192, parts=3)
    out = str(tmp_path / "out")
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    run_kg_resumable(files, out)
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 3)
    run_kg_resumable(files, out)
    assert _partitions(out) == [f"increment={_increment_id(files)}"]
    assert not os.path.exists(os.path.join(out, "triples", "_manifest"))
    out2 = str(tmp_path / "out2")
    run_kg_resumable(files, out2)
    assert read_graph_table(out, "triples").count() == \
        read_graph_table(out2, "triples").count()
