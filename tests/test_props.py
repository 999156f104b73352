"""Typed edge properties + node qualifiers (assembler InputSpec /
pkg-trie analog, /root/reference/pkg/assembler/assembler.go:51-194,
helpers/package.go:26-99)."""

import datetime as dt

import pandas as pd
import pyarrow as pa
import ray.data as rd

from guacray.functions.text import derive_props, extract_raw_triples, extract_text


def _page(html: str, url: str = "https://x.example/p/1"):
    b = html.encode()
    return {
        "url": url,
        "warc_ts": dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc),
        "html": b,
        "text": extract_text(b),
        "lang": "en",
    }


def _pages_table(rows):
    schema = pa.schema([
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ])
    return pa.Table.from_pylist(rows, schema=schema)


def test_derive_props():
    assert derive_props("works_at", "Acme Corp as senior engineer") == \
        ("Acme Corp", "role=senior%20engineer")
    assert derive_props("works_at", "Acme Corp") == ("Acme Corp", "")
    assert derive_props("released", "HyperWidget 3.0") == \
        ("HyperWidget 3.0", "version=3.0")
    assert derive_props("released", "HyperWidget") == ("HyperWidget", "")
    assert derive_props("founded", "Acme Corp") == ("Acme Corp", "")


def test_extraction_emits_props():
    text = ("Ada Lovelace works at Acme Corp as engineer. "
            "Acme Corp released HyperWidget 3.0.")
    got = extract_raw_triples(text)
    assert got == [
        ("Ada Lovelace", "works_at", "Acme Corp", "role=engineer"),
        ("Acme Corp", "released", "HyperWidget 3.0", "version=3.0"),
    ]


def test_props_reach_tables_and_identity(tmp_path):
    """Props flow extract → link → canonical tables; prop-distinct
    statements are DISTINCT edges; versioned product surfaces become
    version-qualified nodes.  Distributed output == reference oracle."""
    import os

    from guacray import schemas
    from guacray.data.reference import reference_graph
    from guacray.pipelines.kg import kg_datasets, write_table
    from guacray.query.graph import GraphStore

    html1 = ("<html><body><p>Ada Lovelace works at Acme Corp as engineer. "
             "Acme Corp released HyperWidget 3.0.</p></body></html>")
    html2 = ("<html><body><p>Grace Hopper works at Acme Corp as manager. "
             "Acme Corp released HyperWidget 4.0. "
             "Acme Corp released HyperWidget 3.0.</p></body></html>")
    pages = _pages_table([_page(html1), _page(html2, "https://x.example/p/2")])

    out = kg_datasets(rd.from_arrow(pages))
    triples = out["triples"].to_pandas()
    assert set(triples["props"]) >= {"role=engineer", "role=manager",
                                     "version=3.0", "version=4.0"}
    # role-stripped org surface links to the real org entity
    wa = triples[triples["predicate"] == "works_at"]
    assert set(wa["obj_surface"]) == {"Acme Corp"}
    assert set(wa["obj_type"]) == {"org"}

    edges = out["edges"].to_pandas()
    rel = edges[edges["predicate"] == "released"]
    # v3.0 and v4.0 are DISTINCT edges; the repeated v3.0 statement
    # dedups into n_evidence=2
    assert set(rel["props"]) == {"version=3.0", "version=4.0"}
    assert int(rel[rel["props"] == "version=3.0"]["n_evidence"].iloc[0]) == 2

    nodes = out["nodes"].to_pandas()
    vers = nodes[nodes["qualifiers"] != ""]
    assert set(vers["node_key"]) == {
        "ent:product::hyperwidget::version=3.0",
        "ent:product::hyperwidget::version=4.0"}
    assert set(vers["qualifiers"]) == {"version=3.0", "version=4.0"}

    # parity vs the single-threaded oracle
    ref_nodes, ref_edges = reference_graph(pages)
    rn = pd.DataFrame(ref_nodes)
    re_ = pd.DataFrame(ref_edges)
    n = nodes.sort_values("node_id").reset_index(drop=True)
    e = edges.sort_values("edge_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(n[rn.columns], rn)
    e2 = e[re_.columns].copy()
    e2["first_seen"] = e2["first_seen"].astype(object)
    re2 = re_.copy()
    assert list(e2["edge_id"]) == list(re2["edge_id"])
    assert list(e2["props"]) == list(re2["props"])
    assert list(e2["n_evidence"]) == list(re2["n_evidence"])

    # props-filtered query surface
    d = str(tmp_path / "g")
    write_table(out["nodes"], os.path.join(d, "nodes"), schemas.NODES)
    write_table(out["edges"], os.path.join(d, "edges"), schemas.EDGES)
    store = GraphStore(d)
    eng = store.edges_with_prop("role", "engineer").to_pandas()
    assert len(eng) == 1 and eng["props"].iloc[0] == "role=engineer"
    any_role = store.edges_with_prop("role").to_pandas()
    assert len(any_role) == 2
    ver_nodes = store.nodes_with_qualifier("version").to_pandas()
    assert len(ver_nodes) == 2
    v3 = store.nodes_with_qualifier("version", "3.0").to_pandas()
    assert list(v3["node_key"]) == ["ent:product::hyperwidget::version=3.0"]


def test_edge_id_props_in_identity():
    from guacray.functions.keys import edge_id
    base = edge_id("a", "released", "b")
    with_props = edge_id("a", "released", "b", "version=3.0")
    other = edge_id("a", "released", "b", "version=4.0")
    assert len({base, with_props, other}) == 3
    # propless hashing unchanged (pinned in test_keys.py)
    assert base == edge_id("a", "released", "b", "")


def test_version_range_query_and_hive_props_filter(tmp_path):
    """depversion range matching on the qualifiers column, and props
    filters over the hive (bucket-partitioned) store layout."""
    import pyarrow.parquet as pq

    from guacray.pipelines.kg import run_kg
    from guacray.query.graph import GraphStore

    html = ("<html><body><p>Acme Corp released HyperWidget 3.0. "
            "Acme Corp released HyperWidget 5.1. "
            "Acme Corp released HyperWidget 7.2. "
            "Ada Lovelace works at Acme Corp as engineer."
            "</p></body></html>")
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(_pages_table([_page(html)]), pages)
    d = str(tmp_path / "g")
    run_kg(pages, d)
    store = GraphStore(d)

    hit = store.nodes_in_version_range(">=3.0 <6.0").to_pandas()
    assert sorted(q for q in hit["qualifiers"]) == \
        ["version=3.0", "version=5.1"]
    none = store.nodes_in_version_range(">=9.0").to_pandas()
    assert len(none) == 0

    # the predicate filter is pushed into the scan and the props column
    # is still seen
    v = store.edges_with_prop("version", predicates=["released"]) \
        .to_pandas()
    assert len(v) == 3 and set(v["predicate"]) == {"released"}
    r = store.edges_with_prop("role", "engineer").to_pandas()
    assert len(r) == 1 and r["predicate"].iloc[0] == "works_at"
