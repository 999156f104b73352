"""CLI surface tests (the guacone-analog verbs), driven in-process."""

import json
import os

import pyarrow.parquet as pq
import pytest

from guacray.cli import main
from guacray.data.pages import generate_pages


@pytest.fixture(scope="module")
def cli_graph(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    pages = str(d / "pages.parquet")
    pq.write_table(generate_pages(128), pages)
    out = str(d / "graph")
    assert main(["ingest", pages, out]) == 0
    return out


def test_cli_ingest_and_find(cli_graph, capsys):
    assert main(["query", "find", cli_graph, "acme corp"]) == 0
    lines = [json.loads(l) for l in
             capsys.readouterr().out.strip().splitlines()]
    assert any(r["node_key"] == "ent:org::acme-corp" for r in lines)


def test_cli_topk_and_path(cli_graph, capsys):
    assert main(["query", "topk", cli_graph, "--predicate", "works_at",
                 "-k", "3"]) == 0
    rows = [json.loads(l) for l in
            capsys.readouterr().out.strip().splitlines()]
    assert 1 <= len(rows) <= 3
    assert rows[0]["n_edges"] >= rows[-1]["n_edges"]

    # path from a person to the org they work at (1 hop)
    assert main(["query", "neighbors", cli_graph, "ent:org::acme-corp",
                 "--predicate", "works_at"]) == 0
    edges = [json.loads(l) for l in
             capsys.readouterr().out.strip().splitlines()]
    subj = edges[0]["subj_id"]
    assert main(["query", "path", cli_graph, subj,
                 "ent:org::acme-corp"]) == 0
    path = json.loads(capsys.readouterr().out.strip())["path"]
    assert path is not None and len(path) == 2


def test_cli_enrich(cli_graph, capsys):
    assert main(["enrich", cli_graph, "--node-type", "org"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["scanned"] > 0


def test_cli_resumable_ingest(tmp_path, capsys, monkeypatch):
    """``--resumable`` checkpoints each group of input files as its own
    content-addressed increment; several files without it are one
    ``run_kg`` build, one partition."""
    from guacray.pipelines import kg
    monkeypatch.setattr(kg, "FILES_PER_PARTITION", 1)
    pages = generate_pages(96)
    files = []
    for i in range(3):
        p = str(tmp_path / f"p{i}.parquet")
        pq.write_table(pages.slice(i * 32, 32), p)
        files.append(p)
    out = str(tmp_path / "graph")
    assert main(["ingest", *files, out, "--resumable"]) == 0
    counts = json.loads(capsys.readouterr().out.strip())
    assert counts["edges"] > 0
    assert counts["triples"] == counts["evidence"] > 0
    assert sorted(os.listdir(os.path.join(out, "triples"))) == sorted(
        f"increment={kg._increment_id([f])}" for f in files)

    plain = str(tmp_path / "plain")
    assert main(["ingest", *files, plain]) == 0
    assert json.loads(capsys.readouterr().out.strip()) == counts
    assert os.listdir(os.path.join(plain, "triples")) == \
        [f"increment={kg._increment_id(files)}"]


def test_cli_props_chain_class(cli_graph, capsys):
    assert main(["query", "props", cli_graph, "role",
                 "--predicate", "works_at"]) == 0
    rows = [json.loads(l) for l in
            capsys.readouterr().out.strip().splitlines()]
    assert rows and all("role=" in r["props"] for r in rows)

    assert main(["query", "chain", cli_graph, "works_at,released"]) == 0
    rows = [json.loads(l) for l in
            capsys.readouterr().out.strip().splitlines()]
    assert rows and set(rows[0]) == {"n0", "n1", "n2"}

    assert main(["query", "class", cli_graph, "ent:org::acme-corp"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["node"] in out["class"] and len(out["class"]) >= 1


def test_cli_unpack(tmp_path, capsys):
    import bz2
    (tmp_path / "d.jsonl.bz2").write_bytes(
        bz2.compress(b'{"a": 1}\n{"a": 2}\n'))
    assert main(["unpack", str(tmp_path)]) == 0
    rows = [json.loads(l) for l in
            capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 2 and all(r["depth"] == 2 for r in rows)


def test_cli_incremental_ingest(tmp_path, capsys):
    t = generate_pages(192)
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 128), a)
    pq.write_table(t.slice(128), b)
    store = str(tmp_path / "inc_store")
    assert main(["ingest", a, store]) == 0
    r0 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["ingest-add", b, store]) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["skipped"] is False and r1["edges"] >= r0["edges"]
    assert main(["ingest-add", b, store]) == 0  # replay → no-op
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["skipped"] is True and r2["edges"] == r1["edges"]
