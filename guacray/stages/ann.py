"""Similarity search over an embedding column (list<float>).

No GUAC analog (its search is substring-based, keyvalue/search.go); this
is the training-data-pipeline extension: brute-force cosine top-k as the
exact baseline, and an LSH-bucketed variant as the scale path.

Shape: the query matrix is tiny → broadcast once (``ray.put``), every
batch does one numpy matmul against it (vectorized, zero Python-per-row
work).  Per-batch local top-k keeps the global sort input small:
each batch contributes ≤ k rows, so the final ``sort.limit(k)``
shuffles O(k × num_blocks) rows, not the full table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.rounding import np_round_half_away
from .agg import ROW_BUCKETS, bucketed, exchange, resolve_buckets


def make_query_vector(dim: int = 64, seed: int = 7) -> np.ndarray:
    """Deterministic synthetic query vector (unit-norm)."""
    rng = np.random.RandomState(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _batch_sims(batch: pa.Table, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
    if batch.num_rows == 0:  # np.stack raises on zero arrays
        return (vec_ids.astype(np.int64),
                np.array([], dtype=np.float64))
    emb = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    norms = np.linalg.norm(emb, axis=1)
    norms[norms == 0] = 1.0
    sims = emb @ q / (norms * np.linalg.norm(q))
    return vec_ids, sims


def brute_force_topk(ds, query: np.ndarray, k: int = 50, round_dp: int = 4):
    """Exact cosine top-k: per-batch matmul + local top-k, then a global
    sort-limit.  Output: vec_id, cos_sim (rounded for stable compare).

    At 100 TB the same plan holds: each block emits k rows; the global
    top-k is a tiny shuffle.
    """
    def local_topk(batch: pa.Table) -> pa.Table:
        vec_ids, sims = _batch_sims(batch, query)
        # round BEFORE the local top-k and break ties by vec_id — the
        # global sort (and the SQL oracle) rank by (rounded sim desc,
        # vec_id asc); an unrounded local selection could discard a row
        # the oracle keeps when the global k-th boundary falls inside a
        # rounded-tie group within one block
        r = np_round_half_away(sims, round_dp)
        idx = np.lexsort((vec_ids, -r))[:k]
        return pa.table({
            "vec_id": pa.array(vec_ids[idx], type=pa.int64()),
            "cos_sim": pa.array(r[idx], type=pa.float64()),
        })

    out = ds.map_batches(local_topk, batch_format="pyarrow")
    # deterministic tie-break: (-sim, vec_id)
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


def make_query_matrix(m: int = 4, dim: int = 64,
                      seed: int = 123) -> np.ndarray:
    """Deterministic (m × dim) unit-norm query matrix."""
    rng = np.random.RandomState(seed)
    q = rng.standard_normal((m, dim))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def brute_force_topk_multi(ds, queries: np.ndarray, k: int = 50,
                           round_dp: int = 4):
    """Batched exact cosine top-k for a BROADCAST query matrix.

    The (m × d) matrix ships ONCE via ``ray.put`` (read zero-copy in
    every task, never re-shipped per batch); each batch does one
    (n × d)·(d × m) matmul and emits per-query local top-k rows; a
    per-query grouped head yields the global answer.  The 100 TB plan:
    every block emits ≤ m·k narrow rows regardless of block size, so
    the final exchange is tiny.  Output: query_id, vec_id, cos_sim
    (rounded, deterministic (sim desc, vec_id) tie-break — same
    boundary discipline as ``brute_force_topk``).
    """
    import ray
    ref = ray.put(np.asarray(queries, dtype=np.float64))

    def local_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                          "vec_id": pa.array([], type=pa.int64()),
                          "cos_sim": pa.array([], type=pa.float64())})
        if batch.num_rows == 0:
            return empty
        q = ray.get(ref)
        vec_ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        emb = np.stack(batch["embedding"].to_numpy(
            zero_copy_only=False)).astype(np.float64)
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        qn = np.linalg.norm(q, axis=1)
        qn[qn == 0] = 1.0
        sims = (emb @ q.T) / norms[:, None] / qn[None, :]
        r = np_round_half_away(sims, round_dp)
        qs, vs, ss = [], [], []
        for j in range(q.shape[0]):  # bounded by m queries, not rows
            idx = np.lexsort((vec_ids, -r[:, j]))[:k]
            qs.append(np.full(len(idx), j, dtype=np.int64))
            vs.append(vec_ids[idx])
            ss.append(r[idx, j])
        return pa.table({
            "query_id": pa.array(np.concatenate(qs), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(vs), type=pa.int64()),
            "cos_sim": pa.array(np.concatenate(ss), type=pa.float64()),
        })

    out = ds.map_batches(local_topk, batch_format="pyarrow")

    def head(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["cos_sim", "vec_id"], ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return out.groupby("query_id").map_groups(head, batch_format="pyarrow")


def label_centroids(ds, dim: int = 64, round_dp: int = 4):
    """Per-label embedding centroids, exploded to (label, dim, avg_v).

    Algebraic vector aggregate: each batch emits one (sum-vector, count)
    per label (numpy add.reduceat-style matmul), the exchange merges
    sums — the mergeable-sketch pattern from the Ray guide applied to
    dense vectors.  Output explodes to scalar rows so the result is
    SQL-comparable (DuckDB: avg(embedding[i]) grouped by label, i).
    """
    nb = resolve_buckets(None)

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch["label"].to_numpy(zero_copy_only=False)
        emb = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        uniq = np.unique(labels)
        sums = np.stack([emb[labels == u].sum(axis=0) for u in uniq])
        counts = np.array([(labels == u).sum() for u in uniq], dtype=np.int64)
        return pa.table({
            "label": pa.array(uniq.astype("int32")),
            "vsum": pa.array([s.tolist() for s in sums],
                             type=pa.list_(pa.float64())),
            "n": pa.array(counts, type=pa.int64()),
            "bucket": pa.array((uniq.astype("int64") % nb).astype("int32")),
        })

    def merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        rows = {"label": [], "dim": [], "avg_v": []}
        for label, g in df.groupby("label"):
            vs = np.stack(g["vsum"].to_numpy()).sum(axis=0)
            avg = np_round_half_away(vs / g["n"].sum(), round_dp)
            rows["label"].extend([int(label)] * dim)
            rows["dim"].extend(range(1, dim + 1))
            rows["avg_v"].extend(avg.tolist())
        return pa.table({
            "label": pa.array(rows["label"], type=pa.int32()),
            "dim": pa.array(rows["dim"], type=pa.int64()),
            "avg_v": pa.array(rows["avg_v"], type=pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)
    return exchange(partials, merge, nb)


class HyperplaneLSH:
    """Random-hyperplane signature stage for bucketed ANN.

    Planes derived from a fixed seed once per actor; each batch is one
    matmul.  Search = hash the query, scan only matching buckets.
    """

    def __init__(self, dim: int = 64, n_planes: int = 8, seed: int = 13):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_planes))

    def signature(self, x: np.ndarray) -> np.ndarray:
        bits = (x @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[-1]))).sum(axis=-1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = np.stack(batch["embedding"].to_numpy(zero_copy_only=False))
        sig = self.signature(emb.astype(np.float64))
        return batch.append_column(
            "lsh_bucket", pa.array(sig.astype(np.int32()), type=pa.int32()))


def embedding_near_dups(ds, *, threshold: float = 0.95, n_planes: int = 10,
                        seed: int = 13, round_dp: int = 4):
    """Embedding-cosine near-duplicate pairs.

    The dense-vector member of the dedup family: hyperplane-LSH bucket
    (near-identical vectors share all sign bits with high probability),
    then exact pairwise cosine within each bucket, keep pairs ≥
    threshold.  Output: vec_a, vec_b (a < b), cos_sim.

    Scale: bucket population ~ n/2^n_planes; the within-bucket pairwise
    matmul is O(b²·d) per bucket — n_planes is the knob that bounds b.
    Recall is probabilistic (pairs split across every band differ in ≥1
    sign); raise recall by multi-probe or repeated plantings (seed
    list), same shape.
    """
    _h = HyperplaneLSH(dim=64, n_planes=n_planes, seed=seed)
    nb = resolve_buckets(None, ROW_BUCKETS)
    hashed = bucketed(ds.map_batches(_h, batch_format="pyarrow"),
                      ["lsh_bucket"], nb)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        out_a, out_b, out_s = [], [], []
        for _, g in df.groupby("lsh_bucket"):
            if len(g) < 2:
                continue
            g = g.sort_values("vec_id")
            ids = g["vec_id"].to_numpy()
            emb = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            norms = np.linalg.norm(emb, axis=1)
            norms[norms == 0] = 1.0
            unit = emb / norms[:, None]
            sims = unit @ unit.T
            iu = np.triu_indices(len(ids), k=1)
            hits = sims[iu] >= threshold
            out_a.extend(int(x) for x in ids[iu[0][hits]])
            out_b.extend(int(x) for x in ids[iu[1][hits]])
            out_s.extend(np_round_half_away(sims[iu][hits], round_dp))
        return pa.table({
            "vec_a": pa.array(out_a, type=pa.int64()),
            "vec_b": pa.array(out_b, type=pa.int64()),
            "cos_sim": pa.array(out_s, type=pa.float64()),
        })

    return exchange(hashed, bucket_pairs, nb)


def lsh_topk(ds, query: np.ndarray, k: int = 50, *, n_planes: int = 8,
             seed: int = 13, probe_hamming: int = 1, round_dp: int = 4):
    """Approximate top-k: score only rows whose hyperplane signature is
    within ``probe_hamming`` bits of the query's (multi-probe LSH).

    Recall measured against brute_force_topk in tests; the win is that
    the matmul touches ~(probed buckets / 2^n_planes) of the data.
    """
    hasher = HyperplaneLSH(dim=len(query), n_planes=n_planes, seed=seed)
    q_sig = int(hasher.signature(query[None, :])[0])
    probes = {q_sig}
    if probe_hamming >= 1:
        probes |= {q_sig ^ (1 << i) for i in range(n_planes)}
    probe_arr = pa.array(sorted(probes), type=pa.int32())

    def local(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        batch = batch.filter(pc.is_in(batch["lsh_bucket"], value_set=probe_arr))
        if batch.num_rows == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "cos_sim": pa.array([], type=pa.float64())})
        vec_ids, sims = _batch_sims(batch, query)
        r = np_round_half_away(sims, round_dp)
        idx = np.lexsort((vec_ids, -r))[:k]
        return pa.table({
            "vec_id": pa.array(vec_ids[idx], type=pa.int64()),
            "cos_sim": pa.array(r[idx], type=pa.float64()),
        })

    # tiny state (64×n_planes floats): stateless tasks, hasher captured
    hashed = ds.map_batches(hasher, batch_format="pyarrow")
    out = hashed.map_batches(local, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)


# ------------------------------------------------------------------ IVF

def ivf_train(ds, *, n_centroids: int = 16, sample_size: int = 2048,
              iters: int = 10, seed: int = 17) -> np.ndarray:
    """Train the IVF coarse quantizer: seeded k-means over a BOUNDED
    sample (never the full table — the classic IVF recipe: centroids
    from a sample, assignment streamed).  Returns (n_centroids, dim),
    unit-normalized so assignment is a cosine argmax."""
    rows = ds.limit(sample_size).to_pandas()
    x = np.stack(rows["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0] = 1.0
    x = x / norms[:, None]
    rng = np.random.RandomState(seed)
    cent = x[rng.choice(len(x), size=min(n_centroids, len(x)),
                        replace=False)]
    for _ in range(iters):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                v = x[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def ivf_topk(ds, query: np.ndarray, centroids: np.ndarray, k: int = 50,
             *, nprobe: int = 4, round_dp: int = 4):
    """IVF probed search: score ONLY rows whose nearest centroid is
    among the query's ``nprobe`` closest — each batch does one small
    matmul against the broadcast centroid matrix to assign, then the
    exact cosine matmul on the surviving ~nprobe/n_centroids fraction.

    Same local-top-k + tiny global sort plan as brute force; recall is
    measured against it in tests (the nprobe knob trades recall for
    scan fraction)."""
    import ray

    q = query / np.linalg.norm(query)
    probe = set(np.argsort(-(centroids @ q))[:nprobe].tolist())
    cent_ref = ray.put(centroids)
    probe_arr = np.array(sorted(probe))

    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block after repartition/filter
            return pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "cos_sim": pa.array([], type=pa.float64()),
            })
        cent = ray.get(cent_ref)
        vec_ids, sims = _batch_sims(batch, query)
        emb = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        assign = ((emb / norms[:, None]) @ cent.T).argmax(axis=1)
        keep = np.isin(assign, probe_arr)
        vec_ids, sims = vec_ids[keep], sims[keep]
        r = np_round_half_away(sims, round_dp)
        idx = np.lexsort((vec_ids, -r))[:k]
        return pa.table({
            "vec_id": pa.array(vec_ids[idx], type=pa.int64()),
            "cos_sim": pa.array(r[idx], type=pa.float64()),
        })

    out = ds.map_batches(local, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(k)
