"""Distributed PageRank over the canonical edge table.

Extends the reference's dependents-ranking analytics family
(/root/reference/pkg/guacanalytics/dependents.go:49-183 ranks packages
by transitive dependent count) with the standard damped power
iteration — the global-influence score a degree count can't give.

Semantics (shared exactly with the DuckDB oracle in __ray_entry__):

- edge universe: every canonical edge row contributes subj_id→obj_id;
  ``undirected`` rows contribute BOTH directions (multigraph: parallel
  edges across predicates each count).
- node universe: the nodes table (isolated nodes hold rank too).
- ``r0(v) = 1/N``; each iteration
  ``r(v) = (1-d)/N + d * (Σ_{(u,v)∈E} r(u)/outdeg(u) + D/N)``
  where ``D`` is the total rank mass on dangling nodes (outdeg 0),
  redistributed uniformly (the standard stochastic-matrix fix).

Execution model: iterative dataset algebra.  The rank table is
O(nodes) and is ``materialize()``d once per iteration — required, not
a smell: each iteration's scalar dangling-mass aggregate and the next
iteration's join both consume it, and without pinning, Ray's lazy
lineage would re-execute the whole prefix per consumer and grow
multiplicatively with ``iters``.  Blocks stay in the (spillable)
object store, sharded across the cluster; nothing O(nodes) reaches
the driver.  Per iteration: one size-aware join (broadcast below
threshold, hash-partitioned above — ``auto_join``), one grouped sum,
one O(1)-result filter-sum.  A 100 TB deployment would pre-bucket
edges and ranks by hash(node) once and reuse the co-partitioning
across iterations; with Ray Data's hash join each iteration
re-shuffles the rank side — documented trade for staying inside the
Dataset API.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import auto_join, grouped_agg, left_lookup_join

# the size dispatch: a graph of at most this many node + edge rows runs
# the exact numpy loop on the driver, a larger one the distributed
# dataset path.  The plan reads the input's size alone: no call
# overrides it
DRIVER_ROWS = 4_000_000


def _expand(t: pa.Table) -> pa.Table:
    """Edge rows → directed (src, dst) pairs; undirected rows emit
    both orientations."""
    fwd = pa.table({"src": t["subj_id"], "dst": t["obj_id"]})
    rev = t.filter(pc.fill_null(t["undirected"], False))
    rev = pa.table({"src": rev["obj_id"], "dst": rev["subj_id"]})
    return pa.concat_tables([fwd, rev])


def _pagerank_driver(nodes, edges, iters: int, damping: float,
                     seeds: list[str] | None):
    """Driver-resident exact path: up to ``DRIVER_ROWS`` the whole
    graph fits one process, and the dataset path's ~4 s/iteration of
    executor fix-cost (materialize + scalar aggregate + join + grouped
    sum, each its own streaming execution) dwarfs the compute — the
    same size dispatch as the hybrid BFS (query/graph.py).  Bit-level
    float-sum order differs from the distributed grouped sums (both
    well inside the harness's %.6g)."""
    import pandas as pd
    import ray.data as rd

    ids = np.sort(nodes.select_columns(["node_id"])
                  .to_pandas()["node_id"].to_numpy())
    idx = pd.Index(ids)
    e = edges.select_columns(
        ["subj_id", "obj_id", "undirected"]).to_pandas()
    if len(e) == 0:
        # zero-row to_pandas() drops columns entirely
        src = dst = np.array([], dtype=np.int64)
    else:
        s = idx.get_indexer(e["subj_id"])
        o = idx.get_indexer(e["obj_id"])
        und = e["undirected"].fillna(False).to_numpy(bool)
        src = np.concatenate([s, o[und]])
        dst = np.concatenate([o, s[und]])
    n = len(ids)
    # edges referencing ids absent from the nodes table (indexer -1,
    # e.g. after a node delete that left incident edges): match the
    # distributed path and the SQL oracle exactly — a known src's
    # outdeg counts ALL its out-edges, contributions to a missing dst
    # vanish (mass leaks), edges FROM a missing src contribute nothing
    outdeg = np.bincount(src[src >= 0], minlength=n)
    keep = (src >= 0) & (dst >= 0)
    src_c, dst_c = src[keep], dst[keep]
    if seeds is None:
        p = np.full(n, 1.0 / n)
    else:
        # restart vector over the seed set; a seed absent from nodes
        # leaks its teleport mass (consistent with the dataset path's
        # is_in mask and the SQL oracle's IN clause)
        p = np.zeros(n)
        si = idx.get_indexer(np.asarray(seeds, dtype=object))
        p[si[si >= 0]] = 1.0 / len(seeds)
    r = p.copy()
    for _ in range(iters):
        dang = r[outdeg == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, dst_c, r[src_c] / outdeg[src_c])
        r = ((1 - damping) + damping * dang) * p + damping * contrib
    return rd.from_arrow(pa.table({"node_id": pa.array(ids),
                                   "rank": pa.array(r, pa.float64())}))


def pagerank(nodes, edges, *, iters: int = 3, damping: float = 0.85,
             seeds: list[str] | None = None):
    """PageRank after ``iters`` damped power iterations.

    ``nodes``/``edges``: Datasets with the canonical graph schemas
    (node_id; subj_id/obj_id/undirected).  Returns a Dataset with
    columns (node_id, rank); ranks sum to 1 up to float error.

    ``seeds`` (node_ids; duplicates count once, an empty list raises
    ``ValueError``) switches to PERSONALIZED PageRank: the
    restart vector (initial mass, teleport, dangling redistribution)
    concentrates on the seed set instead of being uniform — the
    influence-weighted sibling of the blast-radius BFS (reference
    analytics family, patchPlanning.go).  The seed list is broadcast
    into every batch's membership mask, so it must stay small (it is a
    query parameter, not a table).

    Size-dispatched like the BFS walk: when nodes+edges fit in
    ``DRIVER_ROWS`` rows the exact numpy loop runs on the driver (the
    iterative dataset algebra pays several executor spin-ups per
    iteration — pure fix-cost at small sizes); above it, the
    distributed path streams.  No call picks the path; the tests
    force each one by patching the constant and prove both equal.
    """
    if seeds is not None:
        if not seeds:
            raise ValueError("seeds must name at least one node_id "
                             "(pass None for global PageRank)")
        # both paths divide the restart mass by the DISTINCT seed count
        seeds = sorted(set(seeds))
    n = nodes.count()
    if 0 < n and n + edges.count() <= DRIVER_ROWS:
        return _pagerank_driver(nodes, edges, iters, damping, seeds)
    if n == 0:
        import ray.data as rd
        return rd.from_arrow(
            pa.table({"node_id": pa.array([], pa.string()),
                      "rank": pa.array([], pa.float64())}))

    ed = edges.map_batches(_expand, batch_format="pyarrow").materialize()
    deg = grouped_agg(ed, "src", [("dst", "count", "outdeg")])

    if seeds is None:
        def p_arr(t: pa.Table) -> pa.Array:
            return pa.array(np.full(len(t), 1.0 / n), pa.float64())
    else:
        seed_set = pa.array(seeds, pa.string())
        inv_ns = 1.0 / len(seeds)

        def p_arr(t: pa.Table) -> pa.Array:
            mask = pc.is_in(t["node_id"], value_set=seed_set)
            return pc.multiply(pc.cast(mask, pa.float64()),
                               pa.scalar(inv_ns, pa.float64()))

    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": t["node_id"],
            "outdeg": pc.fill_null(pc.cast(t["outdeg"], pa.int64()), 0),
            "rank": p_arr(t)})
    ranks = left_lookup_join(
        nodes.select_columns(["node_id"]), deg,
        on="node_id", right_on="src", value_col="outdeg", out="outdeg",
    ).map_batches(init, batch_format="pyarrow").materialize()

    for _ in range(iters):
        dangling = ranks.map_batches(
            lambda t: t.filter(pc.equal(t["outdeg"], 0)).select(["rank"]),
            batch_format="pyarrow").sum("rank") or 0.0
        shares = ranks.map_batches(
            lambda t: pa.table({
                "node_id": t["node_id"],
                "share": pc.divide(
                    t["rank"], pc.cast(t["outdeg"], pa.float64()))}
            ).filter(pc.greater(t["outdeg"], 0)),
            batch_format="pyarrow")
        contrib = grouped_agg(
            auto_join(ed, shares, on="src", right_on="node_id"),
            "dst", [("share", "sum", "contrib")])
        # r = ((1-d) + d*dang) * p_v + d * contrib_v — for a uniform
        # restart (p_v = 1/n) this is the classic (1-d)/n + d*(c+m/n)
        base_coef = (1.0 - damping) + damping * dangling

        def apply(t: pa.Table, base_coef=base_coef) -> pa.Table:
            return pa.table({
                "node_id": t["node_id"],
                "outdeg": t["outdeg"],
                "rank": pc.add(
                    pc.multiply(p_arr(t),
                                pa.scalar(base_coef, pa.float64())),
                    pc.multiply(
                        pa.scalar(damping, pa.float64()),
                        pc.fill_null(pc.cast(t["contrib"], pa.float64()),
                                     0.0)))})
        ranks = left_lookup_join(
            ranks.drop_columns(["rank"]), contrib,
            on="node_id", right_on="dst",
            value_col="contrib", out="contrib",
        ).map_batches(apply, batch_format="pyarrow").materialize()

    return ranks.drop_columns(["outdeg"])
