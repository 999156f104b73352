"""PageRank power iteration vs an in-memory numpy reference
(the spectral sibling of dependents.go:49-183's degree ranking)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from guacray.stages.pagerank import pagerank


def _graph(n_nodes, edges):
    """edges: list of (src_idx, dst_idx, undirected)."""
    nodes = pa.table({"node_id": [f"n{i:02d}" for i in range(n_nodes)]})
    et = pa.table({
        "subj_id": [f"n{s:02d}" for s, _, _ in edges],
        "obj_id": [f"n{d:02d}" for _, d, _ in edges],
        "undirected": [u for _, _, u in edges]})
    return nodes, et


def _numpy_pr(n, edges, iters=3, d=0.85):
    src, dst = [], []
    for s, o, u in edges:
        src.append(s), dst.append(o)
        if u:
            src.append(o), dst.append(s)
    src, dst = np.array(src, int), np.array(dst, int)
    outdeg = np.bincount(src, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dang = r[outdeg == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, dst, r[src] / outdeg[src])
        r = (1 - d) / n + d * (contrib + dang / n)
    return r


@pytest.mark.parametrize("iters", [1, 3])
@pytest.mark.parametrize("driver_limit", [4_000_000, 0])
def test_pagerank_vs_numpy(ray_session, iters, driver_limit):
    # hub, chain, a dangling sink, an undirected pair (both directions),
    # a parallel multi-edge, and two isolated nodes (8, 9)
    edges = [(0, 1, False), (0, 2, False), (0, 3, False),
             (1, 2, False), (2, 3, False), (3, 4, False),
             (5, 6, True), (0, 1, False), (7, 0, False)]
    nodes, et = _graph(10, edges)
    # driver_limit=0 forces the distributed dataset path; the default
    # takes the driver-resident exact path — both must agree
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et), iters=iters,
                   driver_limit=driver_limit
                   ).to_pandas().set_index("node_id")["rank"]
    ref = _numpy_pr(10, edges, iters=iters)
    assert len(got) == 10
    for i in range(10):
        assert got[f"n{i:02d}"] == pytest.approx(ref[i], abs=1e-12)
    # total mass conserved
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_all_dangling(ray_session):
    # no edges at all: every iteration redistributes uniformly, so the
    # rank stays exactly 1/N
    nodes, et = _graph(4, [])
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et)).to_pandas()
    assert sorted(got["rank"]) == pytest.approx([0.25] * 4)


def test_pagerank_empty_graph(ray_session):
    nodes, et = _graph(0, [])
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et))
    assert got.count() == 0
    # to_pandas() drops columns on zero-row datasets; the schema is the
    # contract surface
    assert set(got.schema().names) == {"node_id", "rank"}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("driver_limit", [4_000_000, 0])
def test_pagerank_random_graph_vs_numpy(ray_session, seed, driver_limit):
    rng = np.random.RandomState(seed)
    n = 40
    m = 120
    edges = [(int(rng.randint(n)), int(rng.randint(n)),
              bool(rng.rand() < 0.2)) for _ in range(m)]
    nodes, et = _graph(n, edges)
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et), iters=3,
                   driver_limit=driver_limit
                   ).to_pandas().set_index("node_id")["rank"]
    ref = _numpy_pr(n, edges, iters=3)
    assert len(got) == n
    for i in range(n):
        assert got[f"n{i:02d}"] == pytest.approx(ref[i], abs=1e-12)


@pytest.mark.parametrize("driver_limit", [4_000_000, 0])
def test_pagerank_missing_endpoint_edges(ray_session, driver_limit):
    """Edges referencing ids absent from the nodes table (e.g. after a
    node delete that left incident edges): both paths must agree — a
    known src's outdeg counts ALL its out-edges, contributions to a
    missing dst vanish (mass leaks), edges FROM a missing src
    contribute nothing."""
    nodes = pa.table({"node_id": ["a", "b", "c"]})
    et = pa.table({
        "subj_id": ["a", "a", "ghost", "b"],
        "obj_id": ["b", "ghost", "c", "c"],
        "undirected": [False, False, False, False]})
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et), iters=3,
                   driver_limit=driver_limit
                   ).to_pandas().set_index("node_id")["rank"]
    # numpy reference with the same semantics
    d, n = 0.85, 3
    r = np.full(n, 1.0 / n)  # a=0 b=1 c=2; a outdeg 2 (one to ghost)
    for _ in range(3):
        dang = r[2]  # only c is dangling (b->c keeps b non-dangling)
        contrib = np.zeros(n)
        contrib[1] += r[0] / 2       # a->b (a->ghost vanishes)
        contrib[2] += r[1] / 1       # b->c; ghost->c contributes nothing
        r = (1 - d) / n + d * (contrib + dang / n)
    for i, name in enumerate(["a", "b", "c"]):
        assert got[name] == pytest.approx(r[i], abs=1e-12), name
    assert got.sum() < 1.0  # leaked mass to the ghost endpoint


def test_compact_store_refuses_flat_store(ray_session, tmp_path):
    """Table dirs without a ledger (flat parquet, not a run_kg store)
    are refused before any work, and left as they were."""
    import os

    import pyarrow.parquet as pq
    import pytest as _pytest

    from guacray import schemas
    from guacray.pipelines.increment import compact_store
    flat = tmp_path / "flat"
    for name, schema in (("nodes", schemas.NODES), ("edges", schemas.EDGES)):
        os.makedirs(flat / name)
        for i in range(2):
            pq.write_table(schema.empty_table(), flat / name / f"{i}.parquet")
    with _pytest.raises(FileNotFoundError, match="_applied.json"):
        compact_store(str(flat))
    assert sorted(os.listdir(flat / "nodes")) == ["0.parquet", "1.parquet"]


@pytest.mark.parametrize("driver_limit", [4_000_000, 0])
def test_personalized_pagerank_vs_numpy(ray_session, driver_limit):
    edges = [(0, 1, False), (1, 2, False), (2, 0, False),
             (3, 4, True), (0, 3, False)]
    nodes, et = _graph(6, edges)  # node 5 isolated
    seeds = ["n00", "n04"]
    got = pagerank(rd.from_arrow(nodes), rd.from_arrow(et), iters=3,
                   seeds=seeds, driver_limit=driver_limit
                   ).to_pandas().set_index("node_id")["rank"]
    # numpy reference with a seeded restart vector
    n, d = 6, 0.85
    src, dst = [], []
    for s, o, u in edges:
        src.append(s), dst.append(o)
        if u:
            src.append(o), dst.append(s)
    src, dst = np.array(src), np.array(dst)
    outdeg = np.bincount(src, minlength=n)
    p = np.zeros(n)
    p[[0, 4]] = 0.5
    r = p.copy()
    for _ in range(3):
        dang = r[outdeg == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, dst, r[src] / outdeg[src])
        r = ((1 - d) + d * dang) * p + d * contrib
    for i in range(n):
        assert got[f"n{i:02d}"] == pytest.approx(r[i], abs=1e-12), i
    # restart mass concentrates near seeds: isolated non-seed node
    # gets exactly zero
    assert got["n05"] == 0.0


@pytest.mark.parametrize("driver_limit", [4_000_000, 0])
def test_personalized_pagerank_duplicate_seeds(ray_session, driver_limit):
    """A repeated seed counts once: the restart mass splits over the
    DISTINCT seeds on both the driver and the dataset path."""
    edges = [(0, 1, False), (1, 2, False), (2, 0, False),
             (3, 4, True), (0, 3, False)]
    nodes, et = _graph(6, edges)

    def ranks(seeds):
        return pagerank(rd.from_arrow(nodes), rd.from_arrow(et), iters=3,
                        seeds=seeds, driver_limit=driver_limit
                        ).to_pandas().set_index("node_id")["rank"]

    dup, dedup = ranks(["n04", "n00", "n04"]), ranks(["n00", "n04"])
    for i in range(6):
        assert dup[f"n{i:02d}"] == pytest.approx(dedup[f"n{i:02d}"],
                                                 abs=1e-12), i


def test_personalized_pagerank_rejects_empty_seeds(ray_session):
    nodes, et = _graph(2, [(0, 1, False)])
    with pytest.raises(ValueError, match="seeds"):
        pagerank(rd.from_arrow(nodes), rd.from_arrow(et), seeds=[])
