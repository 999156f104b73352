"""Text-analysis operators over a documents table: language ID, quality
scoring, token counting, fingerprinting.

The GUAC analog is the guesser chain — cheap per-document classifiers
that stamp metadata columns before parsing
(/root/reference/pkg/handler/processor/guesser/guesser.go and the 8
``type_*.go`` guessers).  All are stateless vectorized ``map_batches``
stages except language-ID, which holds compiled profiles in actor state.

Where a DuckDB-expressible formula exists, the Python implementation
mirrors the SQL text operation-for-operation (same split semantics,
same rounding) so the driver's value-hash comparison is exact.
"""

from __future__ import annotations

import math
import re

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import round_half_away

# ------------------------------------------------------------ tokens

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def token_counts(ds):
    """doc_id, n_ws_tokens (split on single space — matches DuckDB
    ``len(string_split(text,' '))``), n_re_tokens (BPE-ish regex
    ``\\w+|[^\\w\\s]`` — matches ``regexp_extract_all``)."""
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_ws_tokens": pa.array([len(t.split(" ")) for t in texts],
                                    type=pa.int64()),
            "n_re_tokens": pa.array([len(_WORD_RE.findall(t)) for t in texts],
                                    type=pa.int64()),
        })
    return ds.map_batches(fn, batch_format="pyarrow")


# ----------------------------------------------------------- quality

def quality_scores(ds):
    """Per-doc quality metrics, mirrored exactly by oracle SQL:

      n_chars_txt  = length(text)
      n_words      = len(string_split(text, ' '))
      alpha_ratio  = round(len(regexp_replace(text,'[^a-z]','','g'))
                           / n_chars_txt, 4)
      mean_word_len= round((n_chars_txt - n_words + 1) / n_words, 4)
      quality      = round(least(n_words,100)/100.0 * 0.7
                           + alpha_ratio * 0.3, 4)
    """
    return ds.map_batches(quality_scores_batch, batch_format="pyarrow")


_NONALPHA_RE = re.compile(r"[^a-z]")


def quality_scores_batch(batch: pa.Table) -> pa.Table:
    """Pure batch form of ``quality_scores`` — composable into fused
    passes (e.g. the curation gate computes lang + quality in one scan)."""
    texts = batch["text"].to_pylist()
    n_chars = [len(t) for t in texts]
    n_words = [len(t.split(" ")) for t in texts]
    alpha = [round_half_away(len(_NONALPHA_RE.sub("", t)) / max(c, 1), 4)
             for t, c in zip(texts, n_chars)]
    mwl = [round_half_away((c - w + 1) / w, 4)
           for c, w in zip(n_chars, n_words)]
    q = [round_half_away(min(w, 100) / 100.0 * 0.7 + a * 0.3, 4)
         for w, a in zip(n_words, alpha)]
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars_txt": pa.array(n_chars, type=pa.int64()),
        "n_words": pa.array(n_words, type=pa.int64()),
        "alpha_ratio": pa.array(alpha, type=pa.float64()),
        "mean_word_len": pa.array(mwl, type=pa.float64()),
        "quality": pa.array(q, type=pa.float64()),
    })


# --------------------------------------------------- repetition (Gopher)

def repetition_metrics(ds, k: int = 2):
    """Within-document repetition signals (the Gopher/MassiveText
    repetition filters — Rae et al. 2021 §A1.1): per document, the
    duplicate-word fraction, duplicate word-k-gram fraction, and the
    fraction of k-gram slots taken by the single most frequent k-gram.
    Real pipelines drop documents past thresholds on these (templated /
    machine-generated text); the engine emits the metrics and lets the
    curation gate choose thresholds.

    Output: doc_id, n_words, dup_word_frac, n_grams, dup_gram_frac,
    top_gram_frac — docs with fewer than k words emit nothing (they
    have no k-gram slots; the SQL oracle's LATERAL unnest drops them
    identically).

    Scale shape: one streaming ``map_batches`` pass; the word/k-gram
    explosion and the per-document counting are Arrow kernels +
    ``group_by`` INSIDE the batch (a document never spans rows), so
    nothing shuffles and nothing is per-row Python except the final
    row-count-sized ratio arrays."""
    return ds.map_batches(lambda t: repetition_metrics_batch(t, k),
                          batch_format="pyarrow")


def repetition_metrics_batch(batch: pa.Table, k: int = 2) -> pa.Table:
    import numpy as np

    from ..functions.rounding import np_round_half_away
    from .ngrams import word_windows
    empty = pa.table({
        "doc_id": pa.array([], batch["doc_id"].type),
        "n_words": pa.array([], pa.int64()),
        "dup_word_frac": pa.array([], pa.float64()),
        "n_grams": pa.array([], pa.int64()),
        "dup_gram_frac": pa.array([], pa.float64()),
        "top_gram_frac": pa.array([], pa.float64())})
    if batch.num_rows == 0:
        return empty
    # shared window kernel (stages/ngrams.word_windows) — tokenization
    # can never drift between the SQL-checked n-gram operators; grams
    # kept NON-distinct here (repetition needs total + max counts)
    words, gram_parents, grams = word_windows(batch["text"], k)
    if len(grams) == 0:
        return empty
    flat = pc.list_flatten(words).combine_chunks()
    parents = pc.list_parent_indices(words).combine_chunks()
    n = batch.num_rows
    n_words = pc.list_value_length(words).to_numpy(
        zero_copy_only=False).astype("int64")

    # distinct words per document (single-space split == the oracle's
    # string_split semantics, empty strings counted like DuckDB's)
    wc = pa.table({"p": parents, "w": flat}).group_by(["p"]).aggregate(
        [("w", "count_distinct")])
    nd_words = np.zeros(n, dtype="int64")
    nd_words[wc["p"].to_numpy(zero_copy_only=False)] = \
        wc["w_count_distinct"].to_numpy(zero_copy_only=False)

    gtab = pa.table({"p": gram_parents, "g": grams})
    gc = gtab.group_by(["p", "g"]).aggregate([("g", "count")])
    gs = gc.group_by(["p"]).aggregate([("g_count", "sum"),
                                       ("g_count", "max"),
                                       ("g_count", "count")])
    idx = gs["p"].to_numpy(zero_copy_only=False)
    n_grams = np.zeros(n, dtype="int64")
    n_grams[idx] = gs["g_count_sum"].to_numpy(zero_copy_only=False)
    nd_grams = np.zeros(n, dtype="int64")
    nd_grams[idx] = gs["g_count_count"].to_numpy(zero_copy_only=False)
    max_gram = np.zeros(n, dtype="int64")
    max_gram[idx] = gs["g_count_max"].to_numpy(zero_copy_only=False)

    keep = n_grams >= 1
    ng = n_grams[keep].astype("float64")
    return pa.table({
        "doc_id": pc.filter(batch["doc_id"], pa.array(keep)),
        "n_words": pa.array(n_words[keep], type=pa.int64()),
        "dup_word_frac": pa.array(np_round_half_away(
            1.0 - nd_words[keep] / n_words[keep].astype("float64"), 4),
            type=pa.float64()),
        "n_grams": pa.array(n_grams[keep], type=pa.int64()),
        "dup_gram_frac": pa.array(np_round_half_away(
            1.0 - nd_grams[keep] / ng, 4), type=pa.float64()),
        "top_gram_frac": pa.array(np_round_half_away(
            max_gram[keep] / ng, 4), type=pa.float64()),
    })


# ------------------------------------------------------- fingerprints

# PII scrub patterns, applied IN ORDER (counts for a later pattern are
# taken over text already scrubbed by the earlier ones — the SQL oracle
# mirrors the same staging).  RE2 on both engines, so \b/\d agree.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("id", r"\b\d{3}-\d{2}-\d{4}\b", "<ID>"),
)


def pii_scrub(ds, text_col: str = "text", id_col: str = "doc_id"):
    """PII redaction census — the corpus-release scrubbing pass
    (emails, IPv4 addresses, SSN-shaped ids → typed placeholders).

    Output per document: match count per pattern plus md5 of the fully
    scrubbed text (the release-artifact fingerprint; equal to md5(text)
    for clean documents, so the oracle checks the whole transform on
    any corpus).  Stateless row-local vectorized RE2 kernels — one
    streaming pass, no shuffle, trivially 100 TB-safe."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        scrubbed = batch[text_col].combine_chunks()
        cols: dict = {id_col: batch[id_col]}
        for name, pat, repl in PII_PATTERNS:
            cols[f"n_{name}"] = pc.cast(
                pc.count_substring_regex(scrubbed, pattern=pat), pa.int64())
            scrubbed = pc.replace_substring_regex(
                scrubbed, pattern=pat, replacement=repl)
        cols["scrubbed_fp"] = pa.array(
            [hashlib.md5(t.encode()).hexdigest()
             for t in scrubbed.to_pylist()], type=pa.string())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def norm_fingerprint(ds):
    """Canonical-text fingerprint: md5(lower(ws-collapsed text)).
    Groups documents that differ only in case/whitespace.
    Output: fp, doc_id (min), n_docs.  SQL-checkable."""
    import hashlib

    from .agg import grouped_agg
    ws = re.compile(r"\s+")

    def fn(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(ws.sub(" ", t.lower()).encode()).hexdigest()
               for t in batch["text"].to_pylist()]
        return pa.table({"fp": pa.array(fps, type=pa.string()),
                         "doc_id": batch["doc_id"]})

    return grouped_agg(
        ds.map_batches(fn, batch_format="pyarrow", batch_size=None),
        ["fp"], [("doc_id", "min", "doc_id"), ("fp", "count", "n_docs")])


def tfidf_topk(ds, *, k: int = 5):
    """Per-document top-k terms by tf·idf (idf = ln(N/df)) — the
    relevance-weighted sibling of the raw vocabulary census, the
    keyword-extraction primitive an LLM curation pass reaches for.

    Shape: term frequency needs NO exchange (a document is one row, so
    a per-batch (doc_id, word) group-count is already complete);
    document frequency is ONE grouped exchange over the tf table; the
    idf stamp is a size-aware join (broadcast under the threshold,
    hash-partitioned above — the vocabulary is the small side only at
    small corpora); the final per-doc selection is the standard
    two-stage top-k (per-block prune to ≤k rows per doc, then one
    grouped exchange on doc_id).  The tf table is materialized once —
    it feeds both the df derivation and the scoring join.

    Float parity with the DuckDB oracle: both sides compute
    ``tf * ln(double(N)/double(df))`` on identical integers, so the
    doubles are bit-equal and the (score DESC, word ASC) tiebreak
    orders identically.
    """
    import numpy as np
    import pandas as pd

    from .agg import agg_by_name, auto_join, grouped_agg

    n_docs = ds.count()

    def explode_tf(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t["text"], " ")
        tbl = pa.table({
            "doc_id": pc.take(t["doc_id"], pc.list_parent_indices(words)),
            "word": pc.list_flatten(words)})
        return agg_by_name(tbl, ["doc_id", "word"],
                           [("word", "count", "tf")])

    tf = ds.map_batches(explode_tf, batch_format="pyarrow").materialize()
    df = grouped_agg(tf, "word", [("doc_id", "count", "df")])
    scored = auto_join(tf, df, on="word", right_on="word")

    def score(t: pa.Table) -> pa.Table:
        idf = pc.ln(pc.divide(pa.scalar(float(n_docs), pa.float64()),
                              pc.cast(t["df"], pa.float64())))
        return pa.table({
            "doc_id": t["doc_id"], "word": t["word"],
            "score": pc.multiply(pc.cast(t["tf"], pa.float64()), idf)})

    def local_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["doc_id", "score", "word"],
                              ascending=[True, False, True])
        return pdf.groupby("doc_id", sort=False).head(k)

    def final_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["score", "word"],
                              ascending=[False, True]).head(k).copy()
        pdf["rk"] = np.arange(1, len(pdf) + 1, dtype=np.int64)
        return pdf[["doc_id", "word", "score", "rk"]]

    pruned = scored.map_batches(score, batch_format="pyarrow") \
                   .map_batches(local_topk, batch_format="pandas")
    return pruned.groupby("doc_id").map_groups(final_topk,
                                               batch_format="pandas")


def winnow_fingerprints(ds, k: int = 5, window: int = 4):
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD 2003): rolling hash over char k-grams, per-window minimum.
    Output: doc_id, fingerprints list<int64>.  Not SQL-expressible →
    rows-only oracle; verified by unit test instead."""
    import hashlib

    def fingerprint(text: str) -> list[int]:
        t = re.sub(r"\s+", " ", text.lower()).strip()
        if len(t) < k:
            return []
        hs = [int.from_bytes(
            hashlib.blake2b(t[i:i + k].encode(), digest_size=8).digest(),
            "big") >> 1 for i in range(len(t) - k + 1)]
        out, prev = [], None
        for w in range(max(1, len(hs) - window + 1)):
            m = min(hs[w:w + window])
            if m != prev:
                out.append(m)
                prev = m
        return out

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "fingerprints": pa.array(
                [fingerprint(t) for t in batch["text"].to_pylist()],
                type=pa.list_(pa.int64())),
        })
    return ds.map_batches(fn, batch_format="pyarrow")


# ------------------------------------------------------- language ID

class LangID:
    """Character-n-gram language identifier (van Noord / textcat-style
    rank-order heuristic over trigram profiles), profiles built once per
    actor from small seed word lists — no external models."""

    SEEDS = {
        "en": "the and of to in is you that it he was for on are as with "
              "his they at be this have from or one had by word but not "
              "what all were we when your can said there use an each which",
        "es": "que de no a la el es y en lo un por qué me una te los se "
              "con para mi está si bien pero yo eso las sí su como más",
        "de": "der die und in den von zu das mit sich des auf für ist im "
              "dem nicht ein eine als auch es an werden aus er hat dass",
        "fr": "de la le et les des en un du une que est pour qui dans a "
              "par plus pas au sur ne se ce il sont la vous je nous",
    }

    def __init__(self, top_n: int = 200):
        self.profiles = {}
        for lang, words in self.SEEDS.items():
            grams: dict[str, int] = {}
            text = " " + words.replace(" ", "  ") + " "
            for n in (2, 3):
                for i in range(len(text) - n + 1):
                    g = text[i:i + n]
                    grams[g] = grams.get(g, 0) + 1
            ranked = sorted(grams, key=lambda g: (-grams[g], g))[:top_n]
            self.profiles[lang] = {g: r for r, g in enumerate(ranked)}
        self.top_n = top_n

    def classify(self, text: str) -> str:
        t = " " + re.sub(r"\s+", " ", text.lower())[:400] + " "
        grams: dict[str, int] = {}
        for n in (2, 3):
            for i in range(len(t) - n + 1):
                g = t[i:i + n]
                grams[g] = grams.get(g, 0) + 1
        sample = sorted(grams, key=lambda g: (-grams[g], g))[:self.top_n]
        best, best_d = "unk", math.inf
        for lang, prof in sorted(self.profiles.items()):
            d = sum(abs(prof.get(g, self.top_n) - r)
                    for r, g in enumerate(sample))
            if d < best_d:
                best, best_d = lang, d
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.classify(t) for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "lang_pred": pa.array(preds, type=pa.string()),
        })


def lang_id(ds, concurrency=(1, 4)):
    return ds.map_batches(LangID, batch_format="pyarrow",
                          concurrency=concurrency, num_cpus=1)
