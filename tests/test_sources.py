"""Compressed-input decode + recursive DocumentTree unpack
(process.go:277-318 ext/sniff decode; process.go:168-195 tree walk)."""

import bz2
import gzip
import json
import lzma
import os

import pyarrow as pa
import ray.data as rd

from guacray.sources.readers import (decode_blob, decode_compressed,
                                     explode_jsonlines, read_binary_docs,
                                     sniff_compression, unpack_tree)

JSONL = b'{"a": 1}\n{"a": 2}\n{"a": 3}\n'


def test_sniff_and_decode_roundtrip():
    raw = b"hello compressed world" * 10
    for codec, comp in (("bzip2", bz2.compress), ("gzip", gzip.compress),
                        ("xz", lzma.compress)):
        blob = comp(raw)
        assert sniff_compression("x.bin", blob) == codec  # magic sniff
        assert decode_blob(blob, codec) == raw
    # extension wins over content
    assert sniff_compression("x.bz2", b"????") == "bzip2"
    assert sniff_compression("x.txt", b"plain") is None


def test_decode_compressed_stage(tmp_path):
    (tmp_path / "a.jsonl.bz2").write_bytes(bz2.compress(JSONL))
    (tmp_path / "b.jsonl.gz").write_bytes(gzip.compress(JSONL))
    (tmp_path / "c.jsonl").write_bytes(JSONL)
    (tmp_path / "bad.bz2").write_bytes(b"not really bzip2")
    ds = decode_compressed(read_binary_docs(str(tmp_path)))
    df = ds.to_pandas().sort_values("path").reset_index(drop=True)
    by = {os.path.basename(p): r for p, r in zip(df["path"],
                                                 df.to_dict("records"))}
    assert by["a.jsonl.bz2"]["bytes"] == JSONL
    assert by["a.jsonl.bz2"]["codec"] == "bzip2"
    assert by["b.jsonl.gz"]["bytes"] == JSONL
    assert by["c.jsonl"]["codec"] == ""          # pass-through
    assert by["bad.bz2"]["error"] != ""          # dead-letter, not crash


def test_unpack_tree_recursive(tmp_path):
    """container → decompress → jsonlines explode → leaves, with
    inherited provenance and document order preserved."""
    (tmp_path / "docs.jsonl.bz2").write_bytes(bz2.compress(JSONL))
    # double-wrapped: gzip(bz2(jsonl)) exercises the fixpoint
    (tmp_path / "deep.jsonl.bz2.gz").write_bytes(
        gzip.compress(bz2.compress(JSONL)))
    (tmp_path / "plain.txt").write_bytes(b"just text, no structure")
    out = unpack_tree(read_binary_docs(str(tmp_path))).to_pandas()
    out["base"] = [os.path.basename(p).split("#")[0]
                   for p in out["root_path"]]

    d1 = out[out["base"] == "docs.jsonl.bz2"].sort_values("path")
    assert len(d1) == 3
    assert [json.loads(x)["a"] for x in d1["doc"]] == [1, 2, 3]
    assert all(p.endswith(("#L0", "#L1", "#L2")) for p in d1["path"])
    assert set(d1["depth"]) == {2}               # decompress + explode

    d2 = out[out["base"] == "deep.jsonl.bz2.gz"]
    assert len(d2) == 3 and set(d2["depth"]) == {3}

    d3 = out[out["base"] == "plain.txt"]
    assert len(d3) == 1 and d3["depth"].iloc[0] == 0
    assert d3["doc"].iloc[0] == "just text, no structure"


def test_unpack_tree_emits_duplicate_siblings(tmp_path):
    """Byte-identical SIBLINGS are all emitted (the reference's
    jsonlines processor emits every line); the cycle guard only trips
    when a blob re-appears in its own ancestor chain."""
    dup = b'{"x": 1}\n{"x": 1}\n{"x": 2}\n'
    (tmp_path / "d.jsonl").write_bytes(dup)
    out = unpack_tree(read_binary_docs(str(tmp_path))).to_pandas()
    assert sorted(json.loads(x)["x"] for x in out["doc"]) == [1, 1, 2]


def _make_envelope(payload: bytes, payload_type="application/vnd.test+json"):
    import base64
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey)
    from cryptography.hazmat.primitives.serialization import (
        Encoding, PublicFormat)
    from guacray.sources.readers import _pae
    priv = Ed25519PrivateKey.generate()
    pub = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    sig = priv.sign(_pae(payload_type, payload))
    env = json.dumps({
        "payload": base64.b64encode(payload).decode(),
        "payloadType": payload_type,
        "signatures": [{"keyid": "k1",
                        "sig": base64.b64encode(sig).decode()}],
    }).encode()
    return env, {"k1": pub}


def test_dsse_verify_and_tamper():
    from guacray.sources.readers import verify_dsse
    payload = b'{"subject": "thing"}'
    env, keys = _make_envelope(payload)
    r = verify_dsse(env, keys)
    assert r["payload"] == payload and r["verified"] == ["k1"]
    # tampered payload → signature fails
    import base64
    obj = json.loads(env)
    obj["payload"] = base64.b64encode(b'{"subject": "EVIL"}').decode()
    r2 = verify_dsse(json.dumps(obj).encode(), keys)
    assert r2["verified"] == [] and r2["failed"] == ["k1"]
    # unknown keyid → failed
    r3 = verify_dsse(env, {})
    assert r3["verified"] == [] and r3["failed"] == ["k1"]


def test_dsse_identity_triples_flow_into_graph(tmp_path):
    """Identity propagation (GetIdentities/TrustInformation,
    parser/common/types.go:25-41 + parser_dsse.go:60-100): each
    VERIFIED signature becomes an (identity)-[signed]->(document)
    statement that flows through the standard canonicalize exchange —
    identity rows land in the nodes table, signed edges in edges."""
    from guacray.functions.hashing import document_ref
    from guacray.sources.readers import (dsse_identity_triples,
                                         verify_dsse_stage)
    from guacray.stages.canonicalize import graph_tables

    payload = b'{"subject": "artifact-1"}'
    env1, keys1 = _make_envelope(payload)          # keyid k1
    env2, keys2 = _make_envelope(payload)          # same payload, new key
    obj2 = json.loads(env2)
    obj2["signatures"][0]["keyid"] = "k2"
    env2 = json.dumps(obj2).encode()
    keys = {**keys1, "k2": keys2["k1"]}
    env3, _ = _make_envelope(b'{"subject": "evil"}')  # key NOT in map
    obj3 = json.loads(env3)
    obj3["signatures"][0]["keyid"] = "k-unknown"
    (tmp_path / "a.dsse").write_bytes(env1)
    (tmp_path / "b.dsse").write_bytes(env2)
    (tmp_path / "c.dsse").write_bytes(json.dumps(obj3).encode())

    verified = verify_dsse_stage(read_binary_docs(str(tmp_path)), keys)
    triples = dsse_identity_triples(verified).to_pandas()
    # only the two verified envelopes emit; both point at ONE document
    assert sorted(triples["subj_name"]) == ["k1", "k2"]
    assert set(triples["predicate"]) == {"signed"}
    assert set(triples["obj_name"]) == {document_ref(payload)}
    assert all("payload_type=" in p and "scheme=ed25519" in p
               for p in triples["props"])

    nodes, edges = graph_tables(
        dsse_identity_triples(verify_dsse_stage(
            read_binary_docs(str(tmp_path)), keys)), num_buckets=4)
    n = nodes.to_pandas()
    e = edges.to_pandas()
    idents = n[n.node_type == "identity"]
    docs = n[n.node_type == "document"]
    assert sorted(idents["name"]) == ["k1", "k2"]
    assert len(docs) == 1 and docs.iloc[0]["name"] == document_ref(payload)
    assert len(e) == 2 and set(e["predicate"]) == {"signed"}
    assert not e["undirected"].any()
    # edge objects all resolve to the single document node
    assert set(e["obj_id"]) == set(docs["node_id"])


def test_attestation_fixture_into_flagship_store(tmp_path):
    """run_kg with an attestation dir: verified identities land in the
    nodes table, unverified (rogue-key / tampered) envelopes are
    dropped, and the build is deterministic (same ids across runs)."""
    from guacray.data.attest import write_attestations
    from guacray.data.pages import write_pages
    from guacray.pipelines.increment import read_graph_table
    from guacray.pipelines.kg import run_kg

    pages = str(tmp_path / "pages.parquet")
    write_pages(pages, 64)
    att = str(tmp_path / "att")
    keys = write_attestations(att, n=24, seed=42)
    out1 = str(tmp_path / "g1")
    c1 = run_kg(pages, out1, attestations_path=att, public_keys=keys)
    n = read_graph_table(out1, "nodes").to_pandas()
    e = read_graph_table(out1, "edges").to_pandas()
    idents = n[n.node_type == "identity"]
    assert len(idents) == 4                      # the 4 trusted keys
    assert all(k.startswith("key-") for k in idents["name"])
    signed = e[e.predicate == "signed"]
    # 24 envelopes − 3 rogue-key (i%8==7) − 2 tampered (i%11==10) = 19
    assert len(signed) == 19
    assert set(signed["subj_id"]) == set(idents["node_id"])
    # determinism: a rebuild in another dir yields identical tables
    out2 = str(tmp_path / "g2")
    c2 = run_kg(pages, out2, attestations_path=att, public_keys=keys)
    assert c1 == c2
    n2 = read_graph_table(out2, "nodes").to_pandas()
    assert sorted(n2["node_id"]) == sorted(n["node_id"])


def test_dsse_unpack_recurses_to_payload_lines(tmp_path):
    """DSSE envelope wrapping a JSON-Lines payload: unpack_tree walks
    envelope → payload → lines (the DocumentTree recursion the
    reference drives through dsse.go + jsonlines.go)."""
    env, _ = _make_envelope(JSONL)
    (tmp_path / "att.dsse").write_bytes(env)
    out = unpack_tree(read_binary_docs(str(tmp_path))).to_pandas()
    assert len(out) == 3
    assert set(out["depth"]) == {2}           # dsse + jsonlines
    assert all("#payload#" in p for p in out["path"])
    assert sorted(json.loads(x)["a"] for x in out["doc"]) == [1, 2, 3]


def test_verify_dsse_stage(tmp_path):
    from guacray.sources.readers import verify_dsse_stage
    env, keys = _make_envelope(b'{"ok": 1}')
    (tmp_path / "a.dsse").write_bytes(env)
    (tmp_path / "junk.dsse").write_bytes(b"not json at all")
    out = verify_dsse_stage(read_binary_docs(str(tmp_path)),
                            keys).to_pandas()
    by = {os.path.basename(p): r for p, r in zip(out["path"],
                                                 out.to_dict("records"))}
    assert by["a.dsse"]["verified"] and by["a.dsse"]["payload"] == b'{"ok": 1}'
    assert not by["junk.dsse"]["verified"] and by["junk.dsse"]["error"]


def test_compressed_jsonl_pages_feed_the_flagship(tmp_path):
    """Common-Crawl-ish path: bz2-compressed JSONL page records →
    unpack → PAGES schema → full KG pipeline, equal to ingesting the
    same pages from parquet."""
    import base64

    import pandas as pd
    import ray.data as rd

    from guacray.data.pages import generate_pages
    from guacray.pipelines.kg import kg_datasets
    from guacray.sources.readers import read_pages_jsonl

    pages = generate_pages(48)
    recs = []
    for r in pages.to_pylist():
        recs.append(json.dumps({
            "url": r["url"],
            "warc_ts": r["warc_ts"].isoformat(),
            "html_b64": base64.b64encode(r["html"]).decode(),
            "lang": r["lang"],
        }))
    (tmp_path / "crawl-00.jsonl.bz2").write_bytes(
        bz2.compress(("\n".join(recs) + "\n").encode()))

    via_jsonl = read_pages_jsonl(str(tmp_path))
    got = kg_datasets(via_jsonl)["edges"].to_pandas() \
        .sort_values("edge_id").reset_index(drop=True)
    exp = kg_datasets(rd.from_arrow(pages))["edges"].to_pandas() \
        .sort_values("edge_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    assert len(got) > 0


def test_validate_format_gate(tmp_path):
    """validateFormat registry (process.go:235-258): JSON / JSON-Lines /
    XML well-formedness; malformed XML dead-letters via the error
    column, unknown formats pass un-errored."""
    from guacray.sources.readers import validate_format

    (tmp_path / "ok.xml").write_bytes(b"<root><a x='1'>hi</a></root>")
    (tmp_path / "bad.xml").write_bytes(b"<root><unclosed></root>")
    (tmp_path / "ok.json").write_bytes(b'{"a": 1}')
    (tmp_path / "bad.json").write_bytes(b'{"a": ')
    (tmp_path / "ok.jsonl").write_bytes(JSONL)
    (tmp_path / "plain.txt").write_bytes(b"just text")

    out = validate_format(read_binary_docs(str(tmp_path))).to_pandas()
    by = {os.path.basename(p): r for p, r in
          zip(out["path"], out.to_dict("records"))}
    assert by["ok.xml"]["format"] == "xml" and by["ok.xml"]["error"] == ""
    assert by["bad.xml"]["format"] == "xml" and by["bad.xml"]["error"] != ""
    assert by["ok.json"]["format"] == "json" and by["ok.json"]["error"] == ""
    assert by["bad.json"]["error"] != ""
    assert by["ok.jsonl"]["format"] == "json-lines"
    assert by["ok.jsonl"]["error"] == ""
    assert by["plain.txt"]["format"] == "unknown"
    assert by["plain.txt"]["error"] == ""


def test_collector_uri_dispatch_and_filesystem_injection(tmp_path):
    """The S3/GCS collector path (s3.go / gcs.go:103-152) minus the
    network: a ``scheme://`` URI dispatches through
    ``pafs.FileSystem.from_uri`` (here ``file://`` — the one remote-URI
    scheme resolvable offline), and ``filesystem=`` injects an
    arbitrary pyarrow FileSystem (here a SubTreeFileSystem standing in
    for a credentialed S3FileSystem).  Both run the normal distributed
    read — the filesystem object is pickled into the per-task load
    closure — and must produce byte-identical rows to the plain local
    read, including the decode stage downstream."""
    from pyarrow import fs as pafs

    (tmp_path / "a.jsonl.bz2").write_bytes(bz2.compress(JSONL))
    (tmp_path / "b.jsonl").write_bytes(JSONL)

    def rows(ds):
        df = decode_compressed(ds).to_pandas()
        df["base"] = [os.path.basename(p) for p in df["path"]]
        return df.sort_values("base")[["base", "bytes", "codec"]] \
                 .reset_index(drop=True)

    local = rows(read_binary_docs(str(tmp_path)))
    via_uri = rows(read_binary_docs(f"file://{tmp_path}"))
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    via_fs = rows(read_binary_docs("/", filesystem=sub))

    import pandas as pd
    pd.testing.assert_frame_equal(local, via_uri)
    pd.testing.assert_frame_equal(local, via_fs)
    assert list(local["base"]) == ["a.jsonl.bz2", "b.jsonl"]
    assert local["bytes"].iloc[0] == JSONL      # decoded downstream
    assert local["codec"].iloc[0] == "bzip2"    # ...from the raw blob
