"""Operator tests: dedup family, quality/lang-id, ANN, grouped_agg.

These mirror the reference's unit-test style (small hand-checkable
inputs, golden expectations) for the training-data operators that have
no SQL oracle.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from guacray.stages.agg import grouped_agg
from guacray.stages.ann import brute_force_topk, lsh_topk, make_query_vector
from guacray.stages.dedup import (MinHasher, exact_dedup, minhash_lsh_pairs,
                                  ngram_jaccard, simhash_pairs, span_dedup)
from guacray.stages.quality import LangID, winnow_fingerprints


def _docs(texts):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))


BASE = ("the quick brown fox jumps over the lazy dog while the "
        "sun sets slowly behind the tall green hills of the valley")
NEAR = BASE.replace("lazy dog", "sleepy dog")  # one-word edit
FAR = ("completely unrelated content about database engines and "
       "vectorized query execution with columnar storage formats")


def test_exact_dedup():
    ds = _docs([BASE, BASE, FAR, BASE])
    out = ds and exact_dedup(ds).to_pandas().sort_values("doc_id")
    assert len(out) == 2
    base_row = out[out["doc_id"] == 0].iloc[0]
    assert base_row["n_copies"] == 3
    assert out[out["doc_id"] == 2].iloc[0]["n_copies"] == 1


def test_span_dedup_first_wins_census():
    """C4-style span dedup vs hand-computed truth (w=3): cross-doc
    dups, within-doc dups (earlier span_idx wins), the < w-word tail
    (dropped), sub-w docs and empty text (absent from output)."""
    texts = [
        "a b c d e f g",    # spans: [a b c][d e f], tail g dropped
        "a b c x y z",      # [a b c] dups doc0; [x y z] unique
        "a b c a b c",      # both spans dup doc0's winner
        "z z",              # < 3 words -> no spans, absent
        "",                 # absent
        "p q r p q r",      # within-doc: idx0 wins, idx1 is the dup
    ]
    out = span_dedup(_docs(texts), w=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = pd.DataFrame({
        "doc_id": [0, 1, 2, 5],
        "n_spans": [2, 2, 2, 2],
        "n_dup_spans": [0, 1, 2, 1],
    })
    pd.testing.assert_frame_equal(
        out[["doc_id", "n_spans", "n_dup_spans"]], want,
        check_dtype=False)


def test_pii_scrub_counts_and_oracle_parity():
    """pii_scrub on PII-BEARING text (the sf fixtures are clean, so the
    positive cases live here): per-pattern counts, staged redaction
    (later patterns see earlier scrubs), and value parity against the
    generated DuckDB oracle on the same rows."""
    import duckdb
    import hashlib

    from guacray.pipelines.relational import _pii_scrub_sql
    from guacray.stages.quality import pii_scrub
    texts = [
        "contact alice@example.com or bob.smith+x@mail.co today",
        "server 10.0.0.1 and 192.168.1.255 are up",
        "ssn 123-45-6789 leaked; also 999-99-9999",
        "mixed a@b.io from 8.8.8.8 ssn 000-11-2222",
        "clean document with no sensitive tokens at all",
        "",
    ]
    got = pii_scrub(_docs(texts)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["n_email"].tolist() == [2, 0, 0, 1, 0, 0]
    assert got["n_ipv4"].tolist() == [0, 2, 0, 1, 0, 0]
    assert got["n_id"].tolist() == [0, 0, 2, 1, 0, 0]
    # staged scrub: doc 3 fingerprint == md5 of the fully redacted text
    want_fp = hashlib.md5(
        b"mixed <EMAIL> from <IP> ssn <ID>").hexdigest()
    assert got.loc[3, "scrubbed_fp"] == want_fp
    # clean doc: fingerprint equals md5(text) untouched
    assert got.loc[4, "scrubbed_fp"] == hashlib.md5(texts[4].encode()) \
        .hexdigest()

    con = duckdb.connect()
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    con.register("documents", df)
    exp = con.execute(_pii_scrub_sql()).df() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["doc_id", "n_email", "n_ipv4", "n_id", "scrubbed_fp"]],
        exp[["doc_id", "n_email", "n_ipv4", "n_id", "scrubbed_fp"]],
        check_dtype=False)


def test_minhash_estimates_jaccard():
    mh = MinHasher(num_perm=128)
    sa, sb = mh.signature(BASE), mh.signature(NEAR)
    est = (sa == sb).mean()
    true = ngram_jaccard(BASE, NEAR)
    assert abs(est - true) < 0.25
    sf = mh.signature(FAR)
    assert (sa == sf).mean() < 0.2


def test_minhash_lsh_pairs_finds_near_dups():
    ds = _docs([BASE, NEAR, FAR])
    pairs = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
    assert {(0, 1)} == set(zip(pairs["doc_a"], pairs["doc_b"]))


def test_simhash_pairs_finds_near_dups():
    ds = _docs([BASE, NEAR, FAR])
    pairs = simhash_pairs(ds, max_hamming=10).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in got
    assert (0, 2) not in got and (1, 2) not in got


def test_jaccard_pairs_exact_vs_brute_force():
    """Prefix-filtered AllPairs must equal the O(n²) brute-force answer
    exactly (perfect recall + exact verification), values included."""
    import itertools

    from guacray.functions.rounding import round_half_away
    from guacray.stages.dedup import jaccard_pairs
    texts = [BASE, NEAR, FAR,
             BASE.replace("quick", "fast").replace("valley", "meadow"),
             "tiny doc", "tiny doc extra", ""]
    for threshold in (0.3, 0.5, 0.8):
        got = jaccard_pairs(_docs(texts), threshold=threshold).to_pandas()
        got_set = {} if got.empty else {
            (a, b): j for a, b, j in
            zip(got["doc_a"], got["doc_b"], got["jaccard"])}
        exp = {}
        for i, j in itertools.combinations(range(len(texts)), 2):
            if not texts[i].split() or not texts[j].split():
                continue
            jac = ngram_jaccard(texts[i], texts[j])
            if jac >= threshold:
                exp[(i, j)] = round_half_away(jac, 6)
        assert got_set == exp, (threshold, got_set, exp)


def test_jaccard_pairs_exact_dup_cluster():
    from guacray.stages.dedup import jaccard_pairs
    ds = _docs([BASE] * 5 + [FAR])
    got = jaccard_pairs(ds, threshold=0.9).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    import itertools
    assert pairs == set(itertools.combinations(range(5), 2))
    assert (got["jaccard"] == 1.0).all()


def test_winnow_fingerprints_ws_invariant():
    ds = _docs([BASE, "  " + BASE.replace(" ", "   ") + " ", FAR])
    out = winnow_fingerprints(ds).to_pandas().sort_values("doc_id")
    fps = list(out["fingerprints"])
    assert list(fps[0]) == list(fps[1])  # whitespace-normalized equal
    assert list(fps[0]) != list(fps[2])


def test_lang_id_classifies_clear_cases():
    lid = LangID()
    assert lid.classify("the cat sat on the mat and the dog was there") == "en"
    assert lid.classify("el gato está en la casa y no quiere salir de ella") == "es"
    assert lid.classify("der Hund ist in dem Haus und die Katze auch da") == "de"
    assert lid.classify("le chat est dans la maison et les chiens sont là") == "fr"


def test_grouped_agg_matches_pandas():
    rng = np.random.RandomState(0)
    df = pd.DataFrame({
        "k": rng.randint(0, 7, 1000),
        "v": rng.standard_normal(1000),
    })
    out = grouped_agg(rd.from_pandas(df), ["k"], [
        ("v", "sum", "v_sum"), ("v", "count", "n"),
        ("v", "min", "v_min"), ("v", "max", "v_max"),
    ]).to_pandas().sort_values("k").reset_index(drop=True)
    exp = df.groupby("k").agg(v_sum=("v", "sum"), n=("v", "size"),
                              v_min=("v", "min"), v_max=("v", "max")) \
            .reset_index()
    pd.testing.assert_frame_equal(out[exp.columns], exp,
                                  check_dtype=False, atol=1e-9)


def test_ann_lsh_subset_of_brute():
    """LSH results must agree with brute-force sims and be drawn from
    the probed subset (approximation affects recall, never values)."""
    sf = "/root/testdata/sf0.001"
    q = make_query_vector(64)
    ds = rd.read_parquet(f"{sf}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    brute = brute_force_topk(ds, q, k=500).to_pandas()
    lsh = lsh_topk(ds, q, k=50).to_pandas()
    sims = dict(zip(brute["vec_id"], brute["cos_sim"]))
    assert len(lsh) > 0
    for vid, cs in zip(lsh["vec_id"], lsh["cos_sim"]):
        assert abs(sims[vid] - cs) < 1e-9
    # descending order
    assert list(lsh["cos_sim"]) == sorted(lsh["cos_sim"], reverse=True)


def test_entry_contract():
    import __ray_entry__ as E
    edges = E.entry()
    n = edges.count()
    assert n > 0
    qs, sqls = E.queries(), E.oracle_sql()
    assert set(sqls) <= set(qs)
    assert len(sqls) >= 18


def test_hll_approx_distinct():
    import ray.data as rd
    from guacray.stages.sketches import HLL, approx_distinct
    # mergeability: sketch(A ∪ B) == merge(sketch(A), sketch(B))
    a, b, c = HLL(), HLL(), HLL()
    a.add_strings([f"x{i}" for i in range(5000)])
    b.add_strings([f"x{i}" for i in range(2500, 7500)])
    c.add_strings([f"x{i}" for i in range(7500)])
    assert (a.merge(b).registers == c.registers).all()
    est = c.estimate()
    assert abs(est - 7500) / 7500 < 0.05
    # distributed path vs exact
    ds = rd.range(20000).map_batches(
        lambda d: {"u": (d["id"] % 3777).astype("int64")},
        batch_format="numpy")
    est2 = approx_distinct(ds, "u")
    assert abs(est2 - 3777) / 3777 < 0.05


def test_hot_key_combiner_collapses():
    """Skew defence: a block full of one hot edge contributes ONE
    partial edge row (and one row per endpoint node) to the shuffle
    (FIXTURES.md §3.7)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from guacray.functions.keys import node_id
    from guacray.stages.canonicalize import _combined_partial
    n = 10000
    cols = {"edge_id": ["ab12" * 8], "predicate": ["works_at"]}
    # content-hash ids: the exchange routes by the persistent bucket
    # function, which refuses anything but lowercase hex
    for side, name in (("subj", "s"), ("obj", "o")):
        key = f"ent:org::{name}"
        cols.update({f"{side}_id": [node_id(key)], f"{side}_key": [key],
                     f"{side}_type": ["org"], f"{side}_name": [name]})
    batch = pa.table({c: pa.array(v * n) for c, v in cols.items()}) \
        .append_column("warc_ts", pa.array(
            [1000 + (i % 7) for i in range(n)],
            type=pa.timestamp("us", tz="UTC")))
    out = _combined_partial(batch, 32)
    edges = out.filter(pc.equal(out["kind"], 1))
    assert out.num_rows == 3 and edges.num_rows == 1
    assert edges["n"][0].as_py() == n


def test_combiner_block_split_equals_whole():
    """The combiner is the merge applied per block: merging the
    partials of two blocks equals merging the partial of their
    concatenation — with a symmetric edge stated in both orientations
    across the split and a node on both sides of it."""
    import pyarrow as pa
    from guacray.stages.canonicalize import _combined_merge, _combined_partial
    from guacray.stages.link import Linker

    stmts = [("Acme Corp", "partnered_with", "Globex", ""),
             ("Alice Smith", "works_at", "Acme Corp", ""),
             ("Globex", "partnered_with", "Acme Corp", ""),
             ("Bob Jones", "works_at", "Acme Corp", "role=cto"),
             ("Alice Smith", "works_at", "Acme Corp", "")]
    subj, pred, obj, props = (list(c) for c in zip(*stmts))
    linked = Linker({"acme corp": ("org", "Acme Corp")})(pa.table({
        "subj_surface": subj, "predicate": pred, "obj_surface": obj,
        "props": props,
        "warc_ts": pa.array([50, 40, 30, 20, 10],
                            type=pa.timestamp("us", tz="UTC"))}))
    order = [("kind", "ascending"), ("key", "ascending")]
    whole = _combined_merge(_combined_partial(linked, 4)).sort_by(order)
    split = _combined_merge(pa.concat_tables([
        _combined_partial(linked.slice(0, 2), 4),
        _combined_partial(linked.slice(2), 4)])).sort_by(order)
    assert split.equals(whole)
    rows = whole.to_pylist()
    # one row per node / edge identity; the symmetric pair is one edge
    # in min-id-first orientation with both statements' evidence
    assert [r["kind"] for r in rows].count(0) == 4
    sym = [r for r in rows if r["b"] == "partnered_with"]
    assert len(sym) == 1 and sym[0]["n"] == 2 and sym[0]["a"] < sym[0]["c"]
    assert sum(r["n"] for r in rows if r["kind"] == 1) == len(stmts)


def test_two_hop_join(small_pages, tmp_path):
    import os
    import ray.data as rd
    from guacray import schemas
    from guacray.data.reference import reference_graph
    from guacray.pipelines.kg import kg_datasets, write_table
    from guacray.query.graph import GraphStore
    d = str(tmp_path / "g2")
    out = kg_datasets(rd.from_arrow(small_pages))
    write_table(out["edges"], os.path.join(d, "edges"), schemas.EDGES)
    store = GraphStore(d)
    got = store.two_hop("works_at", "located_in").to_pandas()
    _, ref_edges = reference_graph(small_pages)
    h1 = [(e["subj_id"], e["obj_id"]) for e in ref_edges
          if e["predicate"] == "works_at"]
    h2 = {(e["subj_id"], e["obj_id"]) for e in ref_edges
          if e["predicate"] == "located_in"}
    exp = {(a, b, c) for a, b in h1 for (b2, c) in h2 if b2 == b}
    assert set(map(tuple, got[["a_id", "b_id", "c_id"]].values)) == exp
    assert len(exp) > 0


def test_embedding_near_dups(tmp_path):
    from guacray.stages.ann import embedding_near_dups
    rng = np.random.RandomState(3)
    base = rng.standard_normal((50, 64)).astype(np.float32)
    rows = []
    for i, v in enumerate(base):
        rows.append({"vec_id": i, "embedding": v.tolist()})
    # near-dups: tiny perturbations of vec 0 and vec 1
    rows.append({"vec_id": 100,
                 "embedding": (base[0] + 0.001 * rng.standard_normal(64)
                               .astype(np.float32)).tolist()})
    rows.append({"vec_id": 101,
                 "embedding": (base[1] * 1.5).tolist()})  # scaled copy
    ds = rd.from_items(rows)
    pairs = embedding_near_dups(ds, threshold=0.98).to_pandas()
    got = set(zip(pairs["vec_a"], pairs["vec_b"]))
    assert (0, 100) in got
    assert (1, 101) in got  # cosine is scale-invariant
    # random pairs are not near-dups
    assert all(a in (0, 1) or b in (100, 101) for a, b in got) or len(got) == 2


def test_curation_pipeline():
    from guacray.pipelines.curate import curate, curation_report
    sf = "/root/testdata/sf0.001"
    out = curate(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet")
    assert 0 < len(out) < len(docs)
    assert len(out) == len(set(out["doc_id"]))   # no dup docs survive
    assert set(out["doc_id"]) <= set(docs["doc_id"])
    # exact dups removed: no two surviving docs share text
    assert out["text"].nunique() == len(out)
    rep = curation_report(sf).to_pandas()
    assert rep["n_curated"][0] == len(out)


def test_curate_matches_driver_set_semantics():
    """The distributed-join curation must keep EXACTLY the ids the
    naive driver-side set algebra keeps: (lang ∩ quality ∩ canonical)
    − near-dup-dropped."""
    import pyarrow.compute as pc

    from guacray.pipelines.curate import curate
    from guacray.stages.dedup import exact_dedup, minhash_lsh_pairs
    from guacray.stages.quality import lang_id, quality_scores

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    allow = pa.array(sorted(("en", "es", "de", "fr")))
    lang_ids = set(lang_id(docs).map_batches(
        lambda t: t.filter(pc.is_in(t["lang_pred"], value_set=allow)),
        batch_format="pyarrow").to_pandas()["doc_id"])
    q_ids = set(quality_scores(docs).map_batches(
        lambda t: t.filter(pc.greater_equal(t["quality"], pa.scalar(0.5))),
        batch_format="pyarrow").to_pandas()["doc_id"])
    canon_ids = set(exact_dedup(docs).to_pandas()["doc_id"])
    # near-dup pairs are computed over the gate SURVIVORS (signatures
    # are the expensive stage; curate feeds them only what the cheap
    # gates kept), so the oracle pairs over the same restricted set
    survivor_ids = lang_ids & q_ids & canon_ids
    assert len(survivor_ids) < docs.count()  # signature input < corpus
    survivors = docs.map_batches(
        lambda t, ids=survivor_ids: t.filter(pa.array(
            [i in ids for i in t["doc_id"].to_pylist()])),
        batch_format="pyarrow")
    dropped = set(minhash_lsh_pairs(survivors, threshold=0.6)
                  .to_pandas()["doc_b"])
    expect = survivor_ids - dropped
    got = set(curate(sf, min_quality=0.5).to_pandas()["doc_id"])
    assert got == expect


def test_semi_join_scale_path_matches_broadcast():
    """semi/anti results identical on the broadcast and the
    hash-partitioned (threshold=0) paths."""
    from guacray.stages.agg import semi_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5, 5], type=pa.int64()),
        "v": pa.array(list("abcdef")),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 5, 5, 9], type=pa.int64()),
    }))
    for anti in (False, True):
        a = semi_join(left, right, on="k", right_on="rk",
                      anti=anti).to_pandas()
        b = semi_join(left, right, on="k", right_on="rk", anti=anti,
                      broadcast_threshold=0).to_pandas()
        a = a.sort_values(["k", "v"]).reset_index(drop=True)
        b = b.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a[["k", "v"]], b[["k", "v"]])
        expect = {1, 3, 4} if anti else {2, 5}
        assert set(a["k"]) == expect


def test_brute_force_topk_multi_matches_single():
    """Each query row of the broadcast matrix must get exactly the
    single-query brute-force answer."""
    from guacray.stages.ann import (brute_force_topk,
                                    brute_force_topk_multi,
                                    make_query_matrix)
    rng = np.random.RandomState(11)
    emb = rng.standard_normal((200, 16))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(200), type=pa.int64()),
        "embedding": pa.array(emb.tolist(),
                              type=pa.list_(pa.float64())),
    }))
    Q = make_query_matrix(3, 16, seed=5)
    multi = brute_force_topk_multi(ds, Q, k=10).to_pandas()
    assert len(multi) == 30
    for j in range(3):
        single = brute_force_topk(ds, Q[j], k=10).to_pandas()
        sub = (multi[multi["query_id"] == j][["vec_id", "cos_sim"]]
               .sort_values(["cos_sim", "vec_id"],
                            ascending=[False, True])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(sub, single.reset_index(drop=True))


def test_auto_join_right_rename_both_paths():
    """right_rename must behave identically on the broadcast path and
    the hash-partitioned (threshold=0) path, and project away
    un-renamed right columns."""
    from guacray.stages.agg import auto_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3], type=pa.int64()),
        "v": pa.array(list("abcd")),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 3, 9], type=pa.int64()),
        "payload": pa.array(["x", "y", "z"]),
        "noise": pa.array([10, 20, 30], type=pa.int64()),
    }))
    rename = {"rk": "__rk", "payload": "__p"}
    frames = []
    for thr in (2_000_000, 0):
        df = auto_join(left, right, on="k", right_on="__rk",
                       broadcast_threshold=thr,
                       right_rename=rename).to_pandas()
        assert "noise" not in df.columns
        frames.append(df[["k", "v", "__p"]]
                      .sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(frames[0], frames[1])
    assert set(zip(frames[0]["k"], frames[0]["__p"])) == {(2, "x"),
                                                          (3, "y")}


def test_kll_rank_error_and_merge():
    """KLL sketch: rank error within bound; merging shard sketches ≈
    sketching the whole; serialization roundtrip exact."""
    from guacray.stages.sketches import KLL
    rng = np.random.RandomState(3)
    data = rng.standard_normal(30000)
    sd = np.sort(data)

    s = KLL(200)
    s.add_many(data)
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        rank = np.searchsorted(sd, s.quantile(q)) / len(sd)
        assert abs(rank - q) < 0.03, (q, rank)

    parts = [KLL(200) for _ in range(8)]
    for i, p in enumerate(parts):
        p.add_many(data[i::8])
    acc = parts[0]
    for p in parts[1:]:
        acc = acc.merge(p)
    assert acc.n == len(data)
    for q in (0.1, 0.5, 0.9):
        rank = np.searchsorted(sd, acc.quantile(q)) / len(sd)
        assert abs(rank - q) < 0.05, (q, rank)

    rt = KLL.deserialize(acc.serialize())
    assert rt.quantile(0.5) == acc.quantile(0.5)
    # sketch stays sublinear
    assert acc._size() < 1000


def test_weighted_quantile_cont_matches_numpy():
    from guacray.stages.sketches import weighted_quantile_cont
    rng = np.random.RandomState(5)
    vals = rng.randint(1, 51, size=5000).astype(float)
    uq, ct = np.unique(vals, return_counts=True)
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        assert abs(weighted_quantile_cont(uq, ct, q)
                   - float(np.percentile(vals, q * 100))) < 1e-9


def test_approx_quantiles_dataset():
    from guacray.stages.sketches import approx_quantiles
    rng = np.random.RandomState(9)
    vals = rng.exponential(100.0, size=20000)
    ds = rd.from_arrow(pa.table({"x": pa.array(vals)}))
    est = approx_quantiles(ds, "x", [0.5, 0.9])
    sv = np.sort(vals)
    for e, q in zip(est, (0.5, 0.9)):
        rank = np.searchsorted(sv, e) / len(sv)
        assert abs(rank - q) < 0.03


def test_minhash_chain_pairs_within_cluster():
    """Adjacent-chain pairing emits non-anchor pairs inside a near-dup
    cluster (anchor-only pairing would link 1 and 2 only through 0)."""
    near2 = NEAR.replace("brown fox", "brown wolf")  # near-dup of NEAR
    ds = _docs([BASE, NEAR, near2])
    pairs = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in got
    assert (1, 2) in got          # the non-anchor pair


def test_bloom_no_false_negatives_and_fp_bound():
    from guacray.stages.sketches import Bloom
    rng = np.random.RandomState(11)
    members = rng.choice(10_000_000, size=50_000, replace=False)
    b = Bloom.for_capacity(len(members), fp_rate=0.01)
    b.add_array(members)
    assert b.contains_array(members).all()          # zero false negatives
    others = np.setdiff1d(rng.choice(10_000_000, size=60_000,
                                     replace=False), members)[:50_000]
    fp = b.contains_array(others).mean()
    assert fp < 0.03                                # ~1% design point
    # string keys + merge + roundtrip
    b1, b2 = Bloom.for_capacity(100), Bloom.for_capacity(100)
    b1.add_array(np.array(["alpha", "beta"], dtype=object))
    b2.add_array(np.array(["gamma"], dtype=object))
    m = Bloom.deserialize(b1.merge(b2).serialize())
    assert m.contains_array(np.array(["alpha", "gamma"],
                                     dtype=object)).all()


def test_multimodal_resize_and_frame_sample():
    """Resize + frame-sample plumbing: schemas, pass-through rules,
    determinism, and the 1:N video explode (fake kernels; 'real'
    raises at actor construction by contract)."""
    import pytest as _pytest
    from guacray.stages.multimodal import (FrameSampler, MediaResizer,
                                           resize_images, sample_frames,
                                           synth_media_table)
    media = rd.from_arrow(synth_media_table(60))
    resized = resize_images(media, target=(32, 32)).to_pandas()
    assert len(resized) == 60
    img = resized[resized["kind"] == "image"]
    assert (img["width"] == 32).all() and (img["height"] == 32).all()
    assert all(len(p) == 32 * 32 * 3 for p in img["payload"])
    aud = resized[resized["kind"] == "audio"]
    assert (aud["width"] == -1).all()            # pass-through

    frames = sample_frames(rd.from_arrow(synth_media_table(60)),
                           n_frames=3).to_pandas()
    n_videos = (synth_media_table(60)["kind"].to_pandas() == "video").sum()
    assert len(frames) == 3 * n_videos           # exact 1:N explode
    assert set(frames["frame_no"]) == {0, 1, 2}
    # timestamps inside the clip, monotone per video
    g = frames.sort_values(["media_id", "frame_no"]).groupby("media_id")
    assert (g["ts_ms"].apply(lambda s: s.is_monotonic_increasing)).all()
    # determinism
    frames2 = sample_frames(rd.from_arrow(synth_media_table(60)),
                            n_frames=3).to_pandas()
    a = frames.sort_values(["media_id", "frame_no"]).reset_index(drop=True)
    b = frames2.sort_values(["media_id", "frame_no"]).reset_index(drop=True)
    assert (a["frame"] == b["frame"]).all()
    assert FrameSampler(decoder="real") is not None  # real mode exists
    with _pytest.raises(ValueError):
        MediaResizer(decoder="nonsense")


def test_raster_kernels_exact():
    """Pure-Python raster kernels: PPM/BMP roundtrip and exact box
    average on a hand-checkable 4x4 → 2x2 downscale."""
    import numpy as np
    from guacray.stages.multimodal import (_encode_bmp24, box_resize,
                                           decode_bmp, decode_ppm,
                                           decode_raster, encode_ppm)
    img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    assert (decode_ppm(encode_ppm(img)) == img).all()
    assert (decode_bmp(_encode_bmp24(img)) == img).all()
    assert (decode_raster(encode_ppm(img)) == img).all()
    # box filter: each output pixel = mean of its 2x2 source block
    small = box_resize(img, 2, 2)
    exp = img.reshape(2, 2, 2, 2, 3).transpose(0, 2, 1, 3, 4) \
        .reshape(2, 2, 4, 3).mean(axis=2)
    assert (small == np.rint(exp).astype(np.uint8)).all()
    # upscale degenerates to replication
    up = box_resize(img[:1, :1], 3, 3)
    assert (up == img[0, 0]).all()
    # PPM with comments and P5 gray
    ppm = b"P6\n# a comment\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    assert decode_ppm(ppm).tolist() == [[[1, 2, 3], [4, 5, 6]]]
    gray = b"P5\n2 1\n255\n" + bytes([9, 200])
    assert decode_ppm(gray)[0, 1].tolist() == [200, 200, 200]


def test_wav_roundtrip_and_audio_features():
    """Pure-stdlib WAV codec: encode→decode is lossless to 16-bit
    quantization; the spectral descriptor localizes a pure tone."""
    import numpy as np
    from guacray.stages.multimodal import (audio_features, decode_wav,
                                           encode_wav)
    sr = 8000
    t = np.arange(sr) / sr  # 1 s
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    y, sr2 = decode_wav(encode_wav(x, sr))
    assert sr2 == sr and len(y) == len(x)
    assert np.max(np.abs(y - x)) < 1.5 / 32768
    f = audio_features(y, sr)
    assert abs(f[0] - 1.0) < 1e-6          # duration
    assert abs(f[1] - 0.5 / np.sqrt(2)) < 1e-3   # RMS of a sine
    assert abs(f[3] - 0.5) < 1e-3          # peak
    # band energy concentrates where the tone lives: the argmax band's
    # edge range must contain bin 440 (1 s ⇒ bin == Hz)
    bands = f[4:]
    nb = len(bands)
    edges = np.geomspace(1, sr // 2 + 1, nb + 1)
    k = int(np.argmax(bands))
    assert edges[k] <= 440 <= edges[k + 1] * 2  # within the peak band
    # stereo + 8-bit paths
    import io
    import wave
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(sr)
        inter = np.empty(2 * len(x), dtype="<i2")
        inter[0::2] = (x * 32767).astype("<i2")
        inter[1::2] = (-x * 32767).astype("<i2")
        w.writeframes(inter.tobytes())
    y2, _ = decode_wav(buf.getvalue())
    assert np.max(np.abs(y2)) < 1e-4       # L/R cancel in the mono mix


def test_real_media_kernels_end_to_end():
    """decoder='real' over a real-format fixture: image features are
    content statistics, resize produces a true P6 raster of the target
    dims, frame sampling emits REAL pixels from a y4m stream."""
    import numpy as np
    from guacray.stages.multimodal import (decode_ppm, decode_y4m,
                                           encode_y4m,
                                           extract_media_features,
                                           resize_images, sample_frames,
                                           synth_real_media_table)
    media = synth_real_media_table(24)
    ds = rd.from_arrow(media)

    feats = extract_media_features(ds, decoder="real").to_pandas()
    img_rows = feats[feats["kind"] == "image"]
    assert (img_rows["error"] == "").all()
    # features are real statistics: first 3 dims are channel means in
    # [0,1]; the blue channel of the gradient fixture is constant
    f0 = np.array(list(img_rows["features"])[0])
    assert 0.0 <= f0[:6].min() and f0[:3].max() <= 1.0
    # audio + video kernels are real too now: every fixture row decodes
    aud = feats[feats["kind"] == "audio"]
    assert (aud["error"] == "").all()
    vid = feats[feats["kind"] == "video"]
    assert (vid["error"] == "").all()
    # audio features are real DSP: dim 0 is duration_s, matching the
    # fixture metadata; RMS of the 0.6+0.3 harmonic tone ≈ 0.474
    meta = {r["media_id"]: r["duration_ms"] for r in media.to_pylist()}
    for _, r in aud.iterrows():
        f = np.array(list(r["features"]))
        assert abs(f[0] - meta[r["media_id"]] / 1000.0) < 0.01
        assert abs(f[1] - 0.474) < 0.02
        assert abs(f[4:].sum() - 1.0) < 1e-3  # normalized band energy

    resized = resize_images(ds, target=(5, 7), decoder="real").to_pandas()
    rimg = resized[resized["kind"] == "image"]
    assert (rimg["mime"] == "image/x-portable-pixmap").all()
    for p in rimg["payload"]:
        arr = decode_ppm(p)
        assert arr.shape == (7, 5, 3)

    frames = sample_frames(ds, n_frames=2, decoder="real").to_pandas()
    ok = frames[frames["error"] == ""]
    assert len(ok) > 0
    # real pixels: the sampled frame decodes and matches the y4m source
    vids = {r["media_id"]: r["payload"] for r in media.to_pylist()
            if r["kind"] == "video"}
    row = ok.iloc[0]
    src_frames, _ = decode_y4m(vids[row["media_id"]])
    got = decode_ppm(row["frame"])
    assert got.shape == src_frames[0].shape
    # YUV444 roundtrip is exact up to rounding (±2)
    diffs = [np.abs(got.astype(int) - f.astype(int)).max()
             for f in src_frames]
    assert min(diffs) <= 2


def test_y4m_roundtrip_gray_exact():
    import numpy as np
    from guacray.stages.multimodal import decode_y4m, encode_y4m
    gray = np.full((4, 6, 3), 128, np.uint8)
    frames, fps = decode_y4m(encode_y4m([gray, gray], fps=(10, 1)))
    assert fps == (10, 1) and len(frames) == 2
    assert (frames[0] == 128).all()


def test_ivf_topk_recall_vs_brute():
    """IVF probed search: values always agree with brute-force sims;
    recall grows with nprobe and is total at nprobe == n_centroids."""
    from guacray.stages.ann import ivf_topk, ivf_train
    sf = "/root/testdata/sf0.001"
    q = make_query_vector(64)
    ds = rd.read_parquet(f"{sf}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    cents = ivf_train(ds, n_centroids=8)
    assert cents.shape[1] == 64
    brute = brute_force_topk(ds, q, k=20).to_pandas()
    sims = dict(zip(brute["vec_id"], brute["cos_sim"]))

    got = ivf_topk(ds, q, cents, k=20, nprobe=4).to_pandas()
    assert len(got) > 0
    for vid, cs in zip(got["vec_id"], got["cos_sim"]):
        if vid in sims:
            assert abs(sims[vid] - cs) < 1e-9
    recall4 = len(set(got["vec_id"]) & set(brute["vec_id"])) / 20

    full = ivf_topk(ds, q, cents, k=20, nprobe=8).to_pandas()
    assert list(full["vec_id"]) == list(brute["vec_id"])  # total recall
    recall8 = 1.0
    assert recall8 >= recall4


def test_simhash_mega_cluster_linear_pairs():
    """Planted exact-dup cluster sharing all four bands: all-pairs
    emission would be O(n²) (~50M pairs at n=10k); anchor+adjacent-chain
    keeps it linear and connected components over the emitted pairs
    still reconstruct the full cluster."""
    n = 10_000
    ds = _docs([BASE] * n)
    pairs = simhash_pairs(ds, max_hamming=3).to_pandas()
    assert 0 < len(pairs) <= 2 * n          # linear, not ~n²/2
    ids = set(pairs["doc_a"]) | set(pairs["doc_b"])
    assert ids == set(range(n))             # cluster fully covered
    assert (pairs["hamming"] == 0).all()


def test_ngram_explode_matches_brute_force():
    from guacray.stages.ngrams import ngram_explode
    texts = ["a b c d a b c", "a b", "x y z", "", "q q q q"]
    ds = _docs(texts)
    got = set(map(tuple, ngram_explode(ds, 3).to_pandas()
                  [["doc_id", "ngram"]].itertuples(index=False)))
    want = set()
    for i, t in enumerate(texts):
        w = t.split(" ")
        for j in range(len(w) - 2):
            want.add((i, " ".join(w[j:j + 3])))
    assert got == want  # distinct per doc, no cross-doc windows


def test_repetition_metrics_matches_brute_force():
    """Gopher repetition metrics vs a per-row reference incl. the
    edge cases: 1-word doc (no 2-gram slots — emits nothing, like the
    oracle's LATERAL), empty text (split yields one empty word), all
    words identical, and multi-row batch alignment."""
    from guacray.functions.rounding import round_half_away
    from guacray.stages.quality import repetition_metrics
    texts = ["a b c d a b c", "q q q q", "x", "", "m n m n m n",
             "one two three four five"]
    ds = _docs(texts)
    got = repetition_metrics(ds, k=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = []
    for i, t in enumerate(texts):
        w = t.split(" ")
        grams = [" ".join(w[j:j + 2]) for j in range(len(w) - 1)]
        if not grams:
            continue
        from collections import Counter
        gc = Counter(grams)
        want.append({
            "doc_id": i, "n_words": len(w),
            "dup_word_frac": round_half_away(1 - len(set(w)) / len(w), 4),
            "n_grams": len(grams),
            "dup_gram_frac": round_half_away(1 - len(gc) / len(grams), 4),
            "top_gram_frac": round_half_away(max(gc.values()) / len(grams),
                                             4)})
    assert got.to_dict("records") == want


def test_repeated_ngrams_and_decontaminate():
    from guacray.stages.ngrams import decontaminate, repeated_ngrams
    texts = ["common gram here plus one", "common gram here plus two",
             "common gram here and more", "totally different text body",
             "benchmark only gram here now"]
    ds = _docs(texts)
    rep = repeated_ngrams(ds, k=3, min_docs=3).to_pandas()
    assert dict(zip(rep["ngram"], rep["n_docs"])) == {"common gram here": 3}
    # benchmark = doc 0; doc 1 shares "common gram here" AND
    # "gram here plus", doc 2 only "common gram here", doc 3 nothing
    bench = _docs([texts[0]])
    corpus = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array(texts[1:4], type=pa.string())}))
    hits = decontaminate(corpus, bench, k=3).to_pandas()
    assert dict(zip(hits["doc_id"], hits["n_hits"])) == {1: 2, 2: 1}


def test_orders_rank_window_ntile_matches_duckdb():
    import duckdb
    from guacray.pipelines.relational import orders_rank_window
    # group sizes 1..6 cover every NTILE(4) remainder case
    rows = [(c, c * 100 + i, float((c * 37 + i * 13) % 7))
            for c in range(1, 7) for i in range(c)]
    df = pd.DataFrame(rows, columns=["o_custkey", "o_orderkey",
                                     "o_totalprice"])
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        df.to_parquet(f"{d}/orders.parquet")
        got = orders_rank_window(d).to_pandas() \
            .sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("orders", df)
    want = con.execute("""
        SELECT o_custkey, o_orderkey,
               CAST(rank() OVER wp AS BIGINT) AS rnk,
               CAST(dense_rank() OVER wp AS BIGINT) AS drnk,
               CAST(row_number() OVER wf AS BIGINT) AS rn,
               CAST(ntile(4) OVER wf AS BIGINT) AS tile
        FROM orders
        WINDOW wp AS (PARTITION BY o_custkey ORDER BY o_totalprice DESC),
               wf AS (PARTITION BY o_custkey
                      ORDER BY o_totalprice DESC, o_orderkey)
        ORDER BY o_custkey, o_orderkey""").df()
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))


def test_curate_decontamination_gate():
    """With decontam_modulus on, curate must drop the benchmark slice
    AND every survivor sharing a 3-gram with it — verified against the
    naive set algebra over the same survivor set."""
    from guacray.pipelines.curate import curate
    from guacray.stages.ngrams import ngram_explode

    sf = "/root/testdata/sf0.001"
    import pyarrow.compute as pc

    from guacray.stages.dedup import exact_dedup, minhash_lsh_pairs
    from guacray.stages.quality import lang_id, quality_scores

    sf = "/root/testdata/sf0.001"
    docs = rd.read_parquet(f"{sf}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    # naive oracle, replaying the pipeline's set algebra end to end
    allow = pa.array(sorted(("en", "es", "de", "fr")))
    lang_ids = set(lang_id(docs).map_batches(
        lambda t: t.filter(pc.is_in(t["lang_pred"], value_set=allow)),
        batch_format="pyarrow").to_pandas()["doc_id"])
    q_ids = set(quality_scores(docs).map_batches(
        lambda t: t.filter(pc.greater_equal(t["quality"], pa.scalar(0.5))),
        batch_format="pyarrow").to_pandas()["doc_id"])
    canon_ids = set(exact_dedup(docs).to_pandas()["doc_id"])
    grams = ngram_explode(docs, 3).to_pandas()
    bench_grams = set(grams[grams["doc_id"] % 25 == 0]["ngram"])
    contaminated = set(grams[grams["ngram"].isin(bench_grams)]["doc_id"])
    surv = {d for d in lang_ids & q_ids & canon_ids
            if d % 25 != 0 and d not in contaminated}
    surv_ds = docs.map_batches(
        lambda t, ids=surv: t.filter(pa.array(
            [i in ids for i in t["doc_id"].to_pylist()])),
        batch_format="pyarrow")
    dropped = set(minhash_lsh_pairs(surv_ds, threshold=0.6)
                  .to_pandas()["doc_b"])
    expect = surv - dropped
    got = set(curate(sf, min_quality=0.5, decontam_modulus=25)
              .to_pandas()["doc_id"])
    assert got == expect
    assert contaminated - surv  # the gate actually dropped something
    assert all(d % 25 != 0 for d in got)


def test_simhash_group_pairs_allpairs_recall():
    """ADVICE r3 counterexample: group [X1, B, X2, D] where every
    anchor/chain pair fails the Hamming verify but (B, D) qualifies —
    anchor+chain alone misses it; all-pairs under the cap must not."""
    from guacray.stages.dedup import _simhash_group_pairs
    ids = np.array([10, 11, 12, 13], dtype=np.int64)   # X1, B, X2, D
    hs = np.array([0xFFFF000000000000,                 # X1: far from all
                   0x0000000000000000,                 # B
                   0x0000FFFF00000000,                 # X2: far from all
                   0x0000000000000001],                # D: hamming(B,D)=1
                  dtype=np.uint64)
    a, b, d = _simhash_group_pairs(ids, hs, max_hamming=3)
    assert set(zip(a, b)) == {(11, 13)} and d == [1]


def test_simhash_group_pairs_matches_brute_force():
    from guacray.stages.dedup import _popcount64, _simhash_group_pairs
    rng = np.random.default_rng(7)
    n, thr = 60, 6
    ids = np.arange(n, dtype=np.int64)
    base = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
    # plant clusters of small perturbations of one hash
    base[20:40] = base[20] ^ rng.integers(0, 16, 20).astype(np.uint64)
    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            if int(_popcount64(np.array([base[i] ^ base[j]]))[0]) <= thr:
                want.add((i, j))
    a, b, _ = _simhash_group_pairs(ids, base, max_hamming=thr)
    assert set(zip(a, b)) == want


def test_simhash_group_pairs_fallback_keeps_equal_hashes():
    """Above the cap the fallback sorts by hash, so identical signatures
    chain at distance 0 even when unrelated docs interleave by doc_id."""
    from guacray.stages.dedup import _simhash_group_pairs
    rng = np.random.default_rng(3)
    n = 2000
    ids = np.arange(n, dtype=np.int64)
    hs = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
    hs[::4] = np.uint64(0xDEADBEEF)                     # every 4th equal
    a, b, d = _simhash_group_pairs(ids, hs, max_hamming=3, cap=256)
    # union-find over emitted pairs: the equal-hash docs must land in
    # one connected component
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent[find(x)] = find(y)
    roots = {find(i) for i in range(0, n, 4)}
    assert len(roots) == 1
    assert all(h == 0 for x, y, h in zip(a, b, d) if x % 4 == 0 and y % 4 == 0)


def test_resize_passthrough_keeps_original_metadata():
    """ADVICE r3: an undecodable image payload passes through unchanged
    — its row must keep the ORIGINAL width/height/mime and carry an
    error mark, not claim target dims it doesn't have."""
    from guacray.stages.multimodal import resize_images
    media = pa.table({
        "media_id": pa.array([1, 2], type=pa.int64()),
        "kind": pa.array(["image", "image"], type=pa.string()),
        "payload": pa.array([b"\xff\xd8\xff\xe0 not a raster",
                             b"P6\n2 2\n255\n" + bytes(12)],
                            type=pa.binary()),
        "mime": pa.array(["image/jpeg", "image/x-portable-pixmap"]),
        "width": pa.array([640, 2], type=pa.int32()),
        "height": pa.array([480, 2], type=pa.int32()),
        "duration_ms": pa.array([0, 0], type=pa.int32()),
    })
    out = resize_images(rd.from_arrow(media), target=(8, 8),
                        decoder="real").to_pandas().set_index("media_id")
    bad, good = out.loc[1], out.loc[2]
    assert bad["error"].startswith("resize pass-through")
    assert (bad["width"], bad["height"]) == (640, 480)
    assert bad["mime"] == "image/jpeg"
    assert bad["payload"] == b"\xff\xd8\xff\xe0 not a raster"
    assert good["error"] == ""
    assert (good["width"], good["height"]) == (8, 8)


def test_left_lookup_join_paths_agree():
    from guacray.stages.agg import left_lookup_join
    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c", "a", None], type=pa.string()),
        "v": pa.array([1, 2, 3, 4, 5], type=pa.int64())}))
    right = rd.from_arrow(pa.table({
        "node_id": pa.array(["a", "c"], type=pa.string()),
        "component": pa.array(["A", "C"], type=pa.string())}))
    want = {(1, "A"), (2, "b"), (3, "C"), (4, "A"), (5, None)}
    for thr in (2_000_000, 0):  # broadcast path, then hash-join path
        got = left_lookup_join(left, right, on="k", right_on="node_id",
                               value_col="component", out="lab",
                               default_from="k",
                               broadcast_threshold=thr).to_pandas()
        pairs = {(int(v), None if pd.isna(l) else l)
                 for v, l in zip(got["v"], got["lab"])}
        assert pairs == want, thr


def test_left_lookup_join_empty_pandas_right_keeps_type():
    """An empty lookup side that came through a pandas-format stage
    (its schema is a PandasBlockSchema) stamps ``out`` with the value
    column's type, as a non-empty lookup does — not an untyped null."""
    from guacray.stages.agg import left_lookup_join
    left = rd.from_arrow(pa.table({"k": pa.array(["a", "c"])}))
    right = rd.from_arrow(pa.table({
        "node_id": pa.array(["a", "c"]),
        "rank": pa.array([1, 3], type=pa.int64())}))
    empty = right.map_batches(lambda d: d[d["rank"] < 0],
                              batch_format="pandas")

    def out_type(r):
        sch = left_lookup_join(left, r, on="k", right_on="node_id",
                               value_col="rank", out="lab").schema()
        return sch.types[sch.names.index("lab")]
    assert out_type(right) == pa.int64()
    assert out_type(empty) == pa.int64()


def test_tfidf_topk_hand_corpus():
    from guacray.stages.quality import tfidf_topk
    # 3 docs: "cat" appears in all (idf=0), "dog" in two, "fox" in one
    ds = _docs(["cat cat dog", "cat dog dog fox", "cat"])
    got = tfidf_topk(ds, k=2).to_pandas()
    n = 3.0
    # math.log (libm), NOT np.log: numpy's SIMD log is an ULP off libm
    # for some inputs (np.log(3.0) ends ...96, libm/Arrow/DuckDB ...98);
    # the engine uses Arrow's ln, which matches libm and DuckDB exactly
    import math
    exp = {
        # doc 0: dog tf=1 idf=ln(3/2); cat tf=2 idf=0 -> score 0
        (0, "dog"): 1 * math.log(n / 2), (0, "cat"): 0.0,
        # doc 1: dog tf=2; fox tf=1 idf=ln(3/1)
        (1, "dog"): 2 * math.log(n / 2), (1, "fox"): 1 * math.log(n / 1),
        # doc 2: only cat
        (2, "cat"): 0.0,
    }
    assert len(got) == len(exp)
    for (_, r) in got.iterrows():
        assert exp[(r["doc_id"], r["word"])] == r["score"]
    # ranks: per doc, descending score with word tiebreak
    rk = {(r["doc_id"], r["word"]): r["rk"] for _, r in got.iterrows()}
    assert rk[(0, "dog")] == 1 and rk[(0, "cat")] == 2
    # fox: 1*ln(3) ~ 1.099 beats dog: 2*ln(1.5) ~ 0.811
    assert rk[(1, "fox")] == 1 and rk[(1, "dog")] == 2
    assert rk[(2, "cat")] == 1


def test_single_bucket_exchange_implementation():
    """``agg.exchange`` is the one place a Dataset is coalesced with
    ``repartition`` and shuffled by ``groupby("bucket")``; a hand-written
    copy elsewhere would dodge its bucket-count and skew fixes."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "guacray"
    chained = re.compile(
        r"\.repartition\([^()]*\)[\s\\]*\.groupby\(\s*[\"']bucket[\"']")
    offenders = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
                 if p.relative_to(root).as_posix() != "stages/agg.py"
                 and chained.search(p.read_text())]
    assert not offenders, offenders
    # ... and ``agg.bucket_of`` is the one transient bucket function:
    # no hand-rolled bit-mask bucket stamps beside it
    masks = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
             if re.search(r"bit_wise_and\(|resolve_buckets_pow2",
                          p.read_text())]
    assert not masks, masks


def test_left_lookup_join_miss_keeps_int_type():
    """A left key with no match leaves an int64 value column int64 on
    the broadcast path (null for the miss), as on the hash-join path."""
    import ray

    from guacray.stages.agg import left_lookup_join
    left = rd.from_arrow(pa.table({"k": pa.array(["a", "b", "c"])}))
    right = rd.from_arrow(pa.table({
        "node_id": pa.array(["a", "c"]),
        "val": pa.array([1, 3], type=pa.int64())}))
    for thr in (2_000_000, 0):  # broadcast path, then hash-join path
        blocks = ray.get(left_lookup_join(
            left, right, on="k", right_on="node_id", value_col="val",
            out="out", broadcast_threshold=thr).to_arrow_refs())
        # the hash join may add zero-row blocks with no schema
        got = pa.concat_tables([b for b in blocks if b.num_columns])
        assert got.schema.field("out").type == pa.int64(), thr
        assert dict(zip(got["k"].to_pylist(), got["out"].to_pylist())) \
            == {"a": 1, "b": None, "c": 3}, thr
