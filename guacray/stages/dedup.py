"""Deduplication operators over a documents table.

The reference's dedup is exact-only, by content key (noun/edge maps,
/root/reference/pkg/assembler/assembler.go:196-308; in-doc identifier
dedup common/helpers.go:121-149).  A web-scale training-data engine
additionally needs near-dup detection; all variants below follow the
same two-phase shape as canonicalization (per-batch combiner →
bucketed exchange), so they scale the same way.

Operators:
  exact_dedup         md5(text) groups, min(doc_id) wins  (SQL-checkable)
  minhash_lsh_pairs   shingle → minhash sig → banded LSH → candidate
                      pairs with estimated Jaccard
  simhash_pairs       64-bit simhash, banded buckets, Hamming ≤ k pairs
  ngram_jaccard_verify exact n-gram Jaccard for a candidate pair list
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import (ROW_BUCKETS, agg_by_name, auto_join, bucket_of, bucketed,
                  exchange, grouped_agg, resolve_buckets)


# ---------------------------------------------------------------- exact

def _md5_col(texts: list[str]) -> pa.Array:
    return pa.array([hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts],
                    type=pa.string())


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int | None = None):
    """Exact dedup: one row per distinct text.

    Output: text_hash, doc_id (min id = canonical copy), n_copies.
    A row-local md5 map, then ``grouped_agg`` (per-block combiner +
    bucketed exchange — the hot-key-safe pattern of canonicalization).
    """
    def hashed(batch: pa.Table) -> pa.Table:
        return pa.table({
            "text_hash": _md5_col(batch[text_col].to_pylist()),
            id_col: batch[id_col],
        })

    return grouped_agg(
        ds.map_batches(hashed, batch_format="pyarrow", batch_size=None),
        ["text_hash"], [(id_col, "min", id_col),
                        ("text_hash", "count", "n_copies")], num_buckets)


# --------------------------------------------------------- span dedup

_SPAN_IDX_BITS = 20  # spans-per-doc bound for the (doc, idx) encoding


def _span_explode(batch: pa.Table, w: int, id_col: str,
                  text_col: str) -> pa.Table:
    """Per-batch kernel: consecutive NON-overlapping w-word spans with
    first-wins encoding — (span, id, enc) rows, no Python row loop.

    Tokenization = single-space split (== DuckDB ``string_split(text,
    ' ')``, the corpus-wide convention shared with ``word_windows``);
    only FULL w-word spans are emitted (the < w-word tail is dropped,
    matching the oracle's ``len(ws) // w``).  ``enc`` packs (doc_id,
    span_idx) into one int64 so a single MIN aggregation yields the
    lexicographic first occurrence."""
    empty = pa.table({
        "span": pa.array([], pa.string()),
        id_col: pa.array([], batch[id_col].type),
        "enc": pa.array([], pa.int64()),
    })
    if batch.num_rows == 0:
        return empty
    words = pc.split_pattern(batch[text_col], " ")
    lens = pc.list_value_length(words).combine_chunks() \
        .to_numpy().astype(np.int64)
    n_spans = lens // w
    total = int(n_spans.sum())
    if total == 0:
        return empty
    flat = pc.list_flatten(words).combine_chunks()
    docrep = np.repeat(np.arange(len(lens)), n_spans)
    span_idx = np.arange(total) - np.repeat(np.cumsum(n_spans) - n_spans,
                                            n_spans)
    doc_offs = np.cumsum(lens) - lens
    starts = doc_offs[docrep] + span_idx * w
    spans = pc.binary_join_element_wise(
        *(pc.take(flat, pa.array(starts + j)) for j in range(w)),
        pa.scalar(" "))
    ids = batch[id_col].combine_chunks().to_numpy()[docrep]
    # encoding bounds: a violation would silently corrupt first-wins
    # order, so fail loudly (2^43 docs x 2^20 spans covers 10^12 pages)
    if span_idx.max() >= (1 << _SPAN_IDX_BITS) or \
            ids.max() >= (1 << (63 - _SPAN_IDX_BITS)):
        raise ValueError("span_dedup: doc_id/span_idx exceed the "
                         "(43, 20)-bit first-wins encoding")
    enc = (ids << _SPAN_IDX_BITS) | span_idx
    return pa.table({
        "span": spans,
        id_col: pa.array(ids),
        "enc": pa.array(enc, type=pa.int64()),
    })


def span_dedup(ds, w: int = 15, text_col: str = "text",
               id_col: str = "doc_id", num_buckets: int | None = None):
    """C4-style cross-document span dedup census.

    Each document splits into consecutive non-overlapping w-word spans;
    a span is a duplicate iff the identical span text occurs earlier in
    the corpus (first-wins by (doc_id, span_idx) — the same
    deterministic winner rule as ``exact_dedup``).  Output one row per
    document that has >= w words: (doc_id, n_spans, n_dup_spans).

    The reference dedups whole blobs only (assembler.go:196-308); this
    is the finer-grained layer C4 applies at the three-sentence level.

    Scale shape: the explode is vectorized Arrow (split -> flatten ->
    strided gather), the per-batch combiner collapses to <= 1 row per
    (span, doc) BEFORE the exchange, and the bucketed merge resolves
    the global winner and per-doc duplicate counts inside one
    vectorized group pass — spans never leave their bucket, payload
    rows never carry document text.  A second tiny exchange sums the
    per-doc partials (2 ints per doc)."""
    num_buckets = resolve_buckets(num_buckets, ROW_BUCKETS)

    def partial(batch: pa.Table) -> pa.Table:
        t = _span_explode(batch, w, id_col, text_col)
        agg = agg_by_name(t, ["span", id_col],
                          [("enc", "min", "min_enc"),
                           ("enc", "count", "n_occ")])
        return agg.append_column(
            "bucket", bucket_of(agg, ["span"], num_buckets))

    def merge(group: pa.Table) -> pa.Table:
        g = agg_by_name(group, ["span", id_col],
                        [("min_enc", "min", "min_enc"),
                         ("n_occ", "sum", "n_occ")])
        gmin = agg_by_name(g, ["span"], [("min_enc", "min", "g_min")])
        # local vectorized winner lookup (all rows of a span share a
        # bucket, so the group-min IS the global min)
        pos = pc.index_in(g["span"], value_set=gmin["span"].combine_chunks())
        is_winner = pc.cast(
            pc.equal(g["min_enc"],
                     pc.take(gmin["g_min"].combine_chunks(), pos)),
            pa.int64())
        n_occ = pc.cast(g["n_occ"], pa.int64())
        return pa.table({
            id_col: g[id_col],
            "n_spans": n_occ,
            "n_dup_spans": pc.subtract(n_occ, is_winner),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
    flags = exchange(partials, merge, num_buckets)
    return grouped_agg(flags, [id_col],
                       [("n_spans", "sum", "n_spans"),
                        ("n_dup_spans", "sum", "n_dup_spans")])


# ------------------------------------------------------------- minhash

def _word_shingles(text: str, k: int = 3) -> set[str]:
    words = text.lower().split()
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


def _stable_hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)
_ROLL_M = np.uint64(0x100000001B3)  # FNV-ish odd multiplier


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — decorrelates the linear rolling combine so
    shingle hashes are uniform 64-bit (MinHash needs uniformity)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX_C1
    x = (x ^ (x >> np.uint64(27))) * _MIX_C2
    return x ^ (x >> np.uint64(31))


# per-worker word→hash memo: web text repeats words heavily, so blake2b
# runs once per DISTINCT word per worker, not once per occurrence
_WORD_MEMO: dict[str, int] = {}


def _hash_words(words: list[str]) -> np.ndarray:
    memo = _WORD_MEMO
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = memo.get(w)
        if h is None:
            h = int.from_bytes(
                hashlib.blake2b(w.encode(), digest_size=8).digest(), "big")
            if len(memo) < 4_000_000:  # ~hundreds of MB cap per worker
                memo[w] = h
        out[i] = h
    return out


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Unique 64-bit hashes of the word-k-shingle set, vectorized.

    Hash each word once (memoized), then combine every k-window with a
    rolling polynomial + splitmix64 finalizer — no shingle strings are
    ever built.  Set semantics match ``_word_shingles`` up to 64-bit
    hash collisions (the same equivalence every hash-based dedup here
    already assumes)."""
    words = text.lower().split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    hv = _hash_words(words)
    n = len(hv)
    if n < k:
        k = n  # single shingle = the whole text
    acc = hv[:n - k + 1].copy()
    for j in range(1, k):
        acc = acc * _ROLL_M + hv[j:n - k + 1 + j]
    return np.unique(_mix64(acc))


class MinHasher:
    """Per-batch MinHash signatures. Permutation params derived from a
    fixed seed in __init__ (once per actor), signatures vectorized with
    numpy over each doc's shingle-hash array."""

    MERSENNE = (1 << 61) - 1

    def __init__(self, num_perm: int = 64, seed: int = 42, shingle_k: int = 3):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, self.MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, self.MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        hv = _shingle_hashes(text, self.shingle_k)
        if len(hv) == 0:
            return np.full(self.num_perm, self.MERSENNE, dtype=np.uint64)
        # (a*h + b) mod p, per permutation — outer product then min
        prod = (self.a[None, :] * (hv[:, None] % self.MERSENNE) + self.b[None, :]) \
            % self.MERSENNE
        return prod.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t) for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "sig": pa.array([s.tolist() for s in sigs],
                            type=pa.list_(pa.uint64())),
        })


def minhash_lsh_pairs(ds, *, num_perm: int = 64, bands: int = 16,
                      threshold: float = 0.5, seed: int = 42,
                      shingle_k: int = 3):
    """Near-dup candidate pairs via banded MinHash-LSH.

    sign → ids-only band explode (band_key, doc_id) → groupby band
    bucket → linear candidate-pair emission → distinct pairs →
    size-aware sig join-back → vectorized estimated-Jaccard verify.
    Output: doc_a, doc_b (a < b), est_jaccard.

    Scale notes: the band exchange shuffles 16 bytes per (doc, band) —
    the 512-byte signatures stay OUT of the explode (carrying them
    multiplies shuffle volume by ``bands``; they are joined back onto
    the ~sparse candidate pairs instead, broadcast below the auto_join
    threshold, hash-partitioned above).  The within-bucket pair loop is
    linear in group size (anchor + adjacent-chain, never all-pairs), so
    exact-dup mega-buckets emit O(n) candidates.
    """
    rows_per_band = num_perm // bands

    def to_bands(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "band_key": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
            })
        # matrix band combine: (n, bands, r) rolling polynomial + mix —
        # no per-band tuple/repr/blake2b in Python; band index is mixed
        # into the key (>>1 keeps it non-negative for the bucket mask)
        sig_mat = np.stack(batch["sig"].to_numpy(zero_copy_only=False)) \
            .astype(np.uint64).reshape(n, bands, rows_per_band)
        acc = sig_mat[:, :, 0] + np.arange(bands, dtype=np.uint64) * _MIX_C2
        for j in range(1, rows_per_band):
            acc = acc * _ROLL_M + sig_mat[:, :, j]
        bk = (_mix64(acc) >> np.uint64(1)).astype(np.int64)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        return pa.table({
            "band_key": pa.array(bk.reshape(-1)),
            "doc_id": batch["doc_id"].take(idx),
        })

    def bucket_candidates(group: pa.Table) -> pa.Table:
        out_a, out_b = [], []
        df = group.to_pandas()
        for _, g in df.groupby("band_key"):
            if len(g) < 2:
                continue
            ids = np.unique(g["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            # anchor pairing vs the min doc PLUS adjacent-chain pairing:
            # both linear (never O(n²) on exact-dup mega-buckets), and
            # the chain recovers pairs where two near-dups each differ
            # from the anchor but not from each other — connected
            # components over the emitted pairs reconstruct clusters
            out_a.extend(int(ids[0]) for _ in ids[1:])
            out_b.extend(int(i) for i in ids[1:])
            out_a.extend(int(i) for i in ids[1:-1])
            out_b.extend(int(i) for i in ids[2:])
        return pa.table({
            "doc_a": pa.array(out_a, type=pa.int64()),
            "doc_b": pa.array(out_b, type=pa.int64()),
        })

    def pair_dedup(group: pa.Table) -> pa.Table:
        return agg_by_name(group, ["doc_a", "doc_b"], [])

    # MinHasher's state is ~1 KB of permutation params — construct per
    # worker (cached) in stateless tasks; an actor pool's spin-up costs
    # more than the state it would amortize
    _hashers: dict = {}

    def sign(batch):
        key = (num_perm, seed, shingle_k)
        h = _hashers.get(key)
        if h is None:
            h = _hashers[key] = MinHasher(num_perm=num_perm, seed=seed,
                                          shingle_k=shingle_k)
        return h(batch)

    nb = resolve_buckets(None, ROW_BUCKETS)
    # signed feeds both the band explode and the verify join-back —
    # materialize so signing runs exactly once
    signed = ds.map_batches(sign, batch_format="pyarrow").materialize()
    banded = signed.map_batches(to_bands, batch_format="pyarrow")
    # coarse bucket on band_key so each map_groups call is vectorized;
    # each call holds raw band rows (docs × bands), so the bucket count
    # is the cluster width with the raw-row floor (resolve_buckets)
    banded = bucketed(banded, ["band_key"], nb)
    cand = exchange(banded, bucket_candidates, nb)
    cand = bucketed(cand, ["doc_a"], nb)
    pairs = exchange(cand, pair_dedup, nb)

    # verify: join each side's signature back onto the distinct pairs
    # (the est value is band-independent, so computing it once per pair
    # here is exactly equivalent to the per-bucket filter it replaces)
    pairs = auto_join(pairs, signed, on="doc_a", right_on="__ja",
                      right_rename={"doc_id": "__ja", "sig": "sig_a"})
    pairs = auto_join(pairs, signed, on="doc_b", right_on="__jb",
                      right_rename={"doc_id": "__jb", "sig": "sig_b"})

    def verify(df):
        import pandas as pd
        if not len(df):
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                 "doc_b": pd.Series(dtype="int64"),
                                 "est_jaccard": pd.Series(dtype="float64")})
        est = (np.stack(df["sig_a"].to_numpy())
               == np.stack(df["sig_b"].to_numpy())).mean(axis=1)
        out = pd.DataFrame({"doc_a": df["doc_a"].to_numpy(),
                            "doc_b": df["doc_b"].to_numpy(),
                            "est_jaccard": est})
        return out[out["est_jaccard"] >= threshold]

    return pairs.map_batches(verify, batch_format="pandas")


# ------------------------------------------------------------- simhash

def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array (bit order is irrelevant
    for counting, so a plain byte view works)."""
    if len(x) == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(np.ascontiguousarray(x).view(np.uint8))
    return bits.reshape(len(x), 64).sum(axis=1).astype(np.int64)

class SimHasher:
    """64-bit SimHash over word unigrams+bigrams; stateful stage holds
    nothing heavy but keeps the pattern (compiled once per actor)."""

    def __init__(self):
        pass

    @staticmethod
    def simhash(text: str) -> int:
        words = text.lower().split()
        if not words:
            return 0
        # features = unigrams + bigrams WITH multiplicity; bigram hashes
        # come from the same rolling combine as shingles (no strings)
        uni = _hash_words(words)
        feats = _mix64(uni)
        if len(uni) > 1:
            feats = np.concatenate(
                [feats, _mix64(uni[:-1] * _ROLL_M + uni[1:])])
        bits = np.unpackbits(feats.astype(">u8").view(np.uint8)) \
            .reshape(len(feats), 64)
        v = 2 * bits.sum(axis=0, dtype=np.int64) - len(feats)
        return int("".join("1" if x > 0 else "0" for x in v), 2)

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = [self.simhash(t) for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            # FULL 64-bit hash (uint64): truncating to 63 bits would
            # drop bit-0 differences, under-reporting Hamming distance
            # by one and admitting pairs at true distance max_hamming+1
            "simhash": pa.array(hs, type=pa.uint64()),
        })


SIMHASH_ALLPAIRS_CAP = 512  # all-pairs verify below this band-group size


def _simhash_group_pairs(ids: np.ndarray, hs: np.ndarray, max_hamming: int,
                         cap: int = SIMHASH_ALLPAIRS_CAP):
    """Emit qualifying pairs within ONE band_key group.

    Groups ≤ cap get exact ALL-PAIRS verification (vectorized XOR +
    popcount over the upper triangle) — this is what preserves the
    pigeonhole recall guarantee: anchor+chain alone can miss a
    qualifying pair (B, D) whenever an unrelated band-collision doc
    sorts between them in EVERY shared bucket.  Groups above the cap
    (exact-dup mega-clusters) fall back to linear anchor+chain pairing,
    sorted by (simhash, doc_id) so identical signatures are adjacent
    and chain at distance 0; recall there is approximate for non-equal
    hashes and documented in simhash_pairs.  ids must be unique.
    """
    n = len(ids)
    if n < 2:
        return [], [], []
    if n <= cap:
        ii, jj = np.triu_indices(n, k=1)
        d = _popcount64(hs[ii] ^ hs[jj])
        keep = d <= max_hamming
        a, b = ids[ii[keep]], ids[jj[keep]]
        # ids arrive doc_id-sorted, so a < b already holds pairwise
        return a.tolist(), b.tolist(), d[keep].tolist()
    order = np.lexsort((ids, hs))
    ids, hs = ids[order], hs[order]
    a_out, b_out, d_out = [], [], []
    for lo, hi, d in ((0, 1, _popcount64(hs[0] ^ hs[1:])),        # anchor
                      (1, 2, _popcount64(hs[1:-1] ^ hs[2:]))):    # chain
        for j in np.nonzero(d <= max_hamming)[0]:
            x, y = int(ids[lo + j]), int(ids[hi + j])
            a_out.append(min(x, y))
            b_out.append(max(x, y))
            d_out.append(int(d[j]))
    return a_out, b_out, d_out


def simhash_pairs(ds, max_hamming: int = 3):
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming.

    Bucket by B = max_hamming+1 bands of ~64/B bits (pigeonhole: a pair
    within the threshold is IDENTICAL in at least one band), then verify
    true Hamming distance within buckets.  Recall is EXACT for every
    band group up to SIMHASH_ALLPAIRS_CAP docs (all-pairs verify);
    above the cap — in practice exact-dup mega-clusters — pairing falls
    back to linear anchor+chain over hash-sorted rows, which still
    emits every identical-hash pair (distance 0 chains) but may miss
    non-equal near-pairs inside such a group; connected components over
    the emitted pairs reconstruct clusters.  Candidate volume grows
    with B (narrower bands collide more), the usual LSH recall/scan
    trade.
    """
    _sh = SimHasher()
    signed = ds.map_batches(_sh, batch_format="pyarrow")
    n_bands = min(max_hamming + 1, 64)
    bounds = np.linspace(0, 64, n_bands + 1).astype(np.int64)

    def band_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"band_key": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "simhash": pa.array([], type=pa.uint64())})
        h = batch["simhash"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        parts = []
        for b in range(n_bands):
            lo, width = int(bounds[b]), int(bounds[b + 1] - bounds[b])
            mask = np.uint64((1 << width) - 1) if width < 64 \
                else np.uint64(0xFFFFFFFFFFFFFFFF)
            val = (h >> np.uint64(lo)) & mask
            # mix (band, value) into one non-negative int64 key; a
            # cross-band key collision only adds verification work
            key = (_mix64(val + np.uint64(b) * _MIX_C1)
                   >> np.uint64(1)).astype(np.int64)
            parts.append(pa.table({"band_key": pa.array(key),
                                   "doc_id": batch["doc_id"],
                                   "simhash": batch["simhash"]}))
        return pa.concat_tables(parts)

    exploded = signed.map_batches(band_rows, batch_format="pyarrow")
    nb = resolve_buckets(None, ROW_BUCKETS)
    exploded = bucketed(exploded, ["band_key"], nb)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        out_a, out_b, out_d = [], [], []
        df = group.to_pandas()
        for _, g in df.groupby("band_key"):
            if len(g) < 2:
                continue
            g = g.sort_values("doc_id").drop_duplicates("doc_id")
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy()
            hs = np.ascontiguousarray(
                g["simhash"].to_numpy().astype(np.uint64))
            a, b, d = _simhash_group_pairs(ids, hs, max_hamming)
            out_a.extend(a)
            out_b.extend(b)
            out_d.extend(d)
        return pa.table({
            "doc_a": pa.array(out_a, type=pa.int64()),
            "doc_b": pa.array(out_b, type=pa.int64()),
            "hamming": pa.array(out_d, type=pa.int64()),
        })

    def pair_dedup(group: pa.Table) -> pa.Table:
        return agg_by_name(group, ["doc_a", "doc_b"],
                           [("hamming", "min", "hamming")])

    pairs = exchange(exploded, bucket_pairs, nb)
    pairs = bucketed(pairs, ["doc_a"], nb)
    return exchange(pairs, pair_dedup, nb)


# ------------------------------------------------- exact Jaccard verify

def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard — the verifier for LSH candidates."""
    a, b = _word_shingles(text_a, k), _word_shingles(text_b, k)
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def jaccard_pairs(ds, *, threshold: float = 0.5, shingle_k: int = 3,
                  id_col: str = "doc_id", text_col: str = "text"):
    """EXACT n-gram-Jaccard similarity join via prefix filtering.

    The AllPairs family (Bayardo, Ma, Srikant, "Scaling Up All Pairs
    Similarity Search", WWW 2007): fix ANY global total order over
    shingle tokens (here: the token's stable 64-bit hash — frequency
    order is only a candidate-count optimization, correctness needs
    just a total order), sort each doc's shingle set by it, and emit
    only the PREFIX — the first ``n - ceil(t*n) + 1`` tokens — as
    bucket keys.  Any pair with J >= t has overlap >= ceil(t*max(n_a,
    n_b)) (because |a∩b| = J·|a∪b| >= t·max(n_a, n_b)), so the two
    prefixes must share a token: bucket-grouping has PERFECT recall.
    Candidates are then verified with exact set Jaccard, making the
    result identical to the O(n²) all-pairs answer (modulo 64-bit
    shingle-hash collisions) — unlike MinHash/SimHash this operator is
    SQL-oracle-checkable value for value.

    Scale shape: prefix explode emits ~(1-t)·|shingles| narrow rows per
    doc; the within-bucket pairing applies the length filter
    (t·n_a <= n_b <= n_a/t) before emitting.  Exact-duplicate
    mega-clusters share every prefix token, so compose with
    ``exact_dedup`` upstream (as ``curate`` does) — the standard
    AllPairs deployment.  Verification joins are size-aware
    (``auto_join``: broadcast below threshold, hash join above).

    Output: (doc_a, doc_b, jaccard) with doc_a < doc_b, jaccard exact,
    rounded half-away to 6 dp for oracle parity.
    """
    import math

    def shingle_sign(batch: pa.Table) -> pa.Table:
        ids, hs_list, ns = [], [], []
        for did, text in zip(batch[id_col].to_pylist(),
                             batch[text_col].to_pylist()):
            hv = _shingle_hashes(text, shingle_k)
            if len(hv) == 0:
                continue
            # signed view: survives the pandas round-trip inside
            # auto_join (object-int lists >= 2^63 break arrow
            # inference); the int64 sort order is a different — but
            # still fixed — total order, which is all prefix filtering
            # needs
            hs = np.unique(hv.view(np.int64))
            ids.append(did)
            hs_list.append(hs)
            ns.append(len(hs))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "hs": pa.array([h.tolist() for h in hs_list],
                           type=pa.list_(pa.int64())),
            "n": pa.array(ns, type=pa.int64()),
        })

    def prefix_rows(batch: pa.Table) -> pa.Table:
        toks, ids, ns = [], [], []
        for did, hs, n in zip(batch["doc_id"].to_pylist(),
                              batch["hs"].to_pylist(),
                              batch["n"].to_pylist()):
            plen = n - math.ceil(threshold * n) + 1
            for t in hs[:plen]:
                toks.append(t)
                ids.append(did)
                ns.append(n)
        return pa.table({
            "token": pa.array(toks, type=pa.int64()),
            "doc_id": pa.array(ids, type=pa.int64()),
            "n": pa.array(ns, type=pa.int64()),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        outs = []
        for _, g in df.groupby("token", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(["n", "doc_id"])
            ids = g["doc_id"].to_numpy()
            ns = g["n"].to_numpy()
            # length filter: J >= t needs n_b <= n_a / t; rows sorted
            # by n, so row i pairs with the contiguous run (i, hi[i)).
            # Pair emission is fully vectorized (ranges concatenation):
            # no Python-per-pair loop even in a mega-bucket.
            hi = np.searchsorted(ns, np.floor(ns / threshold),
                                 side="right")
            starts = np.arange(1, len(g) + 1)
            cnt = np.maximum(hi - starts, 0)
            total = int(cnt.sum())
            if total == 0:
                continue
            a = np.repeat(ids, cnt)
            offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt,
                                                cnt)
            b = ids[np.repeat(starts, cnt) + offs]
            outs.append((np.minimum(a, b), np.maximum(a, b)))
        if not outs:
            return pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "doc_a": pa.array(np.concatenate([o[0] for o in outs]),
                              type=pa.int64()),
            "doc_b": pa.array(np.concatenate([o[1] for o in outs]),
                              type=pa.int64()),
        })

    def pair_dedup(group: pa.Table) -> pa.Table:
        return agg_by_name(group, ["doc_a", "doc_b"], [])

    def verify(batch: pa.Table) -> pa.Table:
        from ..functions.rounding import round_half_away
        keep_a, keep_b, js = [], [], []
        for a, b, ha, hb in zip(batch["doc_a"].to_pylist(),
                                batch["doc_b"].to_pylist(),
                                batch["__ha"].to_pylist(),
                                batch["__hb"].to_pylist()):
            inter = np.intersect1d(
                np.asarray(ha, dtype=np.int64),
                np.asarray(hb, dtype=np.int64),
                assume_unique=True).size
            j = inter / (len(ha) + len(hb) - inter)
            if j >= threshold:
                keep_a.append(a)
                keep_b.append(b)
                js.append(round_half_away(j, 6))
        return pa.table({
            "doc_a": pa.array(keep_a, type=pa.int64()),
            "doc_b": pa.array(keep_b, type=pa.int64()),
            "jaccard": pa.array(js, type=pa.float64()),
        })

    nb = resolve_buckets(None, ROW_BUCKETS)
    sigs = ds.map_batches(shingle_sign, batch_format="pyarrow").materialize()
    pref = sigs.map_batches(prefix_rows, batch_format="pyarrow")
    pref = bucketed(pref, ["token"], nb)
    cand = exchange(pref, bucket_pairs, nb)
    cand = bucketed(cand, ["doc_a"], nb)
    cand = exchange(cand, pair_dedup, nb)
    cand = auto_join(cand, sigs, on="doc_a", right_on="__a",
                     right_rename={"doc_id": "__a", "hs": "__ha"})
    cand = auto_join(cand, sigs, on="doc_b", right_on="__b",
                     right_rename={"doc_id": "__b", "hs": "__hb"})
    return cand.map_batches(verify, batch_format="pyarrow")
