"""Read-side graph query module over the materialized Parquet tables.

The Ray-Data replacement for GUAC's GraphQL/REST query layer and
analytics (SURVEY.md §2.6):

  node lookup / filters   packages(PkgSpec)-style predicate pushdown
                          (/root/reference/pkg/assembler/graphql/schema/
                          package.graphql:120-246)
  neighbors               backlink traversal (keyvalue/path.go:52-81)
  bfs_path                path(subject,target,maxLen)
                          (keyvalue/path.go:83-152)
  top_dependents          dependents ranking = groupby+count+sort
                          (pkg/dependencies/dependents.go:49-183)
  find_nodes              findSoftware substring search
                          (keyvalue/search.go)
  reachable / blast_radius patch-planning frontier BFS
                          (pkg/guacanalytics/patchPlanning.go:54-235)
  toposort                Kahn's algorithm (guacanalytics/toposort.go:26-87)

Design: filters/aggregates run distributed over the Parquet tables
(predicate pushdown at the read); BFS-style traversals iterate frontier
joins — each hop is a distributed semi-join of the edges table against
the (small) frontier key set, so only the frontier ever sits on the
driver, never the graph.
"""

from __future__ import annotations

import os
from collections import deque

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import schemas


class GraphStore:
    EVIDENCE_COLS = schemas.EVIDENCE.names

    def __init__(self, out_dir: str):
        self.nodes_path = os.path.join(out_dir, "nodes")
        self.edges_path = os.path.join(out_dir, "edges")
        # evidence is a pruned projection of the triples checkpoint
        # (see pipelines.kg.evidence_view)
        self.evidence_path = os.path.join(out_dir, "triples")

    # the store's tables are hive-partitioned by bucket
    # (pipelines/increment.py); every read names its columns, so the
    # partition column is pruned and the query surface sees the
    # canonical schema

    def _read_nodes(self, flt=None):
        return rd.read_parquet(self.nodes_path, filter=flt,
                               columns=schemas.NODES.names)

    # ---------------------------------------------------------- lookups

    def nodes(self, *, node_type: str | None = None,
              name_substr: str | None = None,
              node_key: str | None = None):
        """Filtered node scan — predicate pushdown to the parquet read
        where possible, vectorized Arrow filter otherwise."""
        flt = None
        if node_type is not None:
            flt = pc.field("node_type") == node_type
        if node_key is not None:
            f2 = pc.field("node_key") == node_key
            flt = f2 if flt is None else flt & f2
        ds = self._read_nodes(flt)
        if name_substr is not None:
            pat = name_substr
            ds = ds.map_batches(
                lambda t: t.filter(pc.match_substring(t["name"], pat,
                                                      ignore_case=True)),
                batch_format="pyarrow")
        return ds

    def find_nodes(self, search_text: str):
        """findSoftware analog: case-insensitive substring over name/key."""
        pat = search_text

        def fn(t: pa.Table) -> pa.Table:
            m = pc.or_(pc.match_substring(t["name"], pat, ignore_case=True),
                       pc.match_substring(t["node_key"], pat, ignore_case=True))
            return t.filter(m)
        return self._read_nodes().map_batches(
            fn, batch_format="pyarrow")

    def node_by_id(self, node_id: str):
        return self._read_nodes(pc.field("node_id") == node_id)

    # -------------------------------------------------------- neighbors

    def _read_edges(self, *, predicates: list[str] | None = None, flt=None):
        """Edges read with the predicate filter pushed into the parquet
        scan."""
        if predicates:
            p = pc.field("predicate").isin(predicates)
            flt = p if flt is None else flt & p
        return rd.read_parquet(self.edges_path, filter=flt,
                               columns=schemas.EDGES.names)

    def neighbors(self, node_id: str, *, predicates: list[str] | None = None,
                  direction: str = "both"):
        """One-hop neighbor edges of a node, optionally filtered by
        predicate (the ``usingOnly`` edge-enum filter)."""
        flt = None
        if direction in ("out", "both"):
            flt = pc.field("subj_id") == node_id
        if direction in ("in", "both"):
            f2 = pc.field("obj_id") == node_id
            flt = f2 if flt is None else flt | f2
        return self._read_edges(predicates=predicates, flt=flt)

    def _frontier_expand(self, frontier: set[str],
                         predicates: list[str] | None,
                         direction: str,
                         cap: int | None = None) -> pa.Table | None:
        """Distributed semi-join: edges whose subject (resp. object) is
        in the frontier.  The frontier is broadcast once per hop.

        ``cap``: collection is STREAMED (iter_batches) and aborted the
        moment the expansion exceeds ``cap`` rows, returning None — the
        escalation signal for the hybrid BFS.  The driver never holds
        more than cap+one batch of an oversized expansion."""
        ref = ray.put(pa.array(sorted(frontier)))

        def fn(t: pa.Table) -> pa.Table:
            fr = ray.get(ref)
            m = None
            if direction in ("out", "both"):
                m = pc.is_in(t["subj_id"], value_set=fr)
            if direction in ("in", "both"):
                m2 = pc.is_in(t["obj_id"], value_set=fr)
                m = m2 if m is None else pc.or_(m, m2)
            return t.filter(m)

        # BFS consumers need only the id pair: project BEFORE collecting
        # so a hub node's expansion ships 2 narrow columns, not whole
        # edge rows
        empty = pa.table({"subj_id": pa.array([], type=pa.string()),
                          "obj_id": pa.array([], type=pa.string())})
        ds = self._read_edges(predicates=predicates).map_batches(
            fn, batch_format="pyarrow").select_columns(
            ["subj_id", "obj_id"])
        if cap is None:
            df = ds.to_pandas()
            if "subj_id" not in df.columns:  # empty expansion drops schema
                return empty
            return pa.Table.from_pandas(df, preserve_index=False)
        chunks, total = [], 0
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            total += b.num_rows
            if total > cap:
                return None
            chunks.append(b)
        if not chunks:
            return empty
        return pa.concat_tables(chunks)

    # ------------------------------------------------------------- BFS

    def bfs_path(self, src_id: str, dst_id: str, max_len: int = 10,
                 predicates: list[str] | None = None) -> list[str] | None:
        """Shortest path (undirected over directed edges, like the
        reference's neighbors-based BFS).  Frontier iterates driver-side;
        each hop's expansion is distributed."""
        if src_id == dst_id:
            return [src_id]
        parent: dict[str, str] = {src_id: ""}
        frontier = {src_id}
        for _ in range(max_len):
            if not frontier:
                return None
            edges = self._frontier_expand(frontier, predicates, "both")
            nxt: set[str] = set()
            for s, o in zip(edges["subj_id"].to_pylist(),
                            edges["obj_id"].to_pylist()):
                for a, b in ((s, o), (o, s)):
                    if a in frontier and b not in parent:
                        parent[b] = a
                        nxt.add(b)
            if dst_id in parent:
                path = [dst_id]
                while path[-1] != src_id:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            frontier = nxt
        return None

    # Escalation threshold for the hybrid BFS: while the visited set AND
    # every hop expansion stay below this many rows, the frontier walks
    # driver-side (one distributed edge filter per hop — the cheap path
    # at fixture scale); past it, frontier/visited move into Datasets
    # and the driver holds only counts.  Overridable per call and via
    # env for tests (GUACRAY_BFS_DRIVER_LIMIT=0 forces the distributed
    # path everywhere).
    DRIVER_BFS_LIMIT = 1_000_000

    def _bfs_driver_limit(self, driver_limit: int | None) -> int:
        if driver_limit is not None:
            return driver_limit
        env = os.environ.get("GUACRAY_BFS_DRIVER_LIMIT")
        return int(env) if env else self.DRIVER_BFS_LIMIT

    def reachable(self, start_id: str, *, direction: str = "out",
                  predicates: list[str] | None = None,
                  max_depth: int = 10,
                  driver_limit: int | None = None) -> dict[str, int]:
        """Blast-radius / patch-planning frontier BFS: node_id → depth
        (the SearchDependentsFromStartPackage shape).

        The dict RESULT is driver-sized by contract — callers that need
        the closure of a huge graph should consume
        ``reachable_dataset`` instead; the walk itself is hybrid either
        way (escalates to dataset-resident state past driver_limit), so
        an unexpectedly large closure degrades to a slow collect, never
        a mid-walk driver OOM."""
        kind, v = self._bfs(start_id, direction=direction,
                            predicates=predicates, max_depth=max_depth,
                            driver_limit=self._bfs_driver_limit(driver_limit))
        if kind == "dict":
            return v
        df = v.to_pandas()
        return dict(zip(df["node_id"], (int(x) for x in df["depth"])))

    def reachable_dataset(self, start_id: str, *, direction: str = "out",
                          predicates: list[str] | None = None,
                          max_depth: int = 10,
                          class_predicate: str | None = None,
                          driver_limit: int | None = None):
        """BFS closure as a Dataset(node_id, depth) — the scale form of
        ``reachable``/``reachable_with_classes``.

        Hybrid execution: hops run driver-side (one distributed edge
        filter each) while the visited set and every expansion fit under
        ``driver_limit``; the moment either would exceed it, state
        SPILLS into Datasets and each further hop is a pair of
        size-aware semi/anti joins (stages/agg.semi_join: broadcast
        small frontiers, Bloom + hash join past 2M keys).  From that
        point the driver sees only per-hop counts — a 10-hop closure
        that reaches half the graph streams through the object store
        instead of a Python dict.  Reference shape:
        /root/reference/pkg/guacanalytics/patchPlanning.go:54-151."""
        kind, v = self._bfs(start_id, direction=direction,
                            predicates=predicates, max_depth=max_depth,
                            class_predicate=class_predicate,
                            driver_limit=self._bfs_driver_limit(driver_limit))
        if kind == "ds":
            return v
        ids = sorted(v)
        return rd.from_arrow(pa.table({
            "node_id": pa.array(ids, type=pa.string()),
            "depth": pa.array([v[i] for i in ids], type=pa.int64())}))

    def _bfs(self, start_id: str, *, direction: str,
             predicates: list[str] | None, max_depth: int,
             class_predicate: str | None = None, driver_limit: int = 0):
        """Shared hybrid BFS engine.  Returns ("dict", {id: depth}) if
        the walk completed driver-side, else ("ds", Dataset(node_id,
        depth)).  ``class_predicate`` closes every layer over an
        undirected equivalence predicate at the SAME depth before the
        next directed hop (retrieveDependencies semantics)."""
        depth = {start_id: 0}
        frontier = {start_id}
        cap = driver_limit

        def class_close(nodes: set[str], d: int) -> set[str] | None:
            # expand to class fixpoint at depth d; returns new members,
            # or None if an expansion overflowed the driver cap
            added_all: set[str] = set()
            fr = set(nodes)
            while fr:
                edges = self._frontier_expand(fr, [class_predicate],
                                              "both", cap=cap)
                if edges is None:
                    return None
                new: set[str] = set()
                for s, o in zip(edges["subj_id"].to_pylist(),
                                edges["obj_id"].to_pylist()):
                    for a, b in ((s, o), (o, s)):
                        if a in fr and b not in depth:
                            depth[b] = d
                            new.add(b)
                added_all |= new
                fr = new
            return added_all

        if class_predicate:
            closed = class_close({start_id}, 0)
            if closed is None:
                # partially-closed members already carry depth 0 — the
                # distributed re-closure must start from ALL of them
                return self._bfs_distributed(
                    depth, {k for k, dd in depth.items() if dd == 0}, 1,
                    direction=direction,
                    predicates=predicates, max_depth=max_depth,
                    class_predicate=class_predicate, reclose_frontier=True)
            frontier = {start_id} | closed
        for d in range(1, max_depth + 1):
            if not frontier:
                break
            if len(depth) > cap:
                return self._bfs_distributed(
                    depth, frontier, d, direction=direction,
                    predicates=predicates, max_depth=max_depth,
                    class_predicate=class_predicate)
            edges = self._frontier_expand(frontier, predicates, direction,
                                          cap=cap)
            if edges is None:
                return self._bfs_distributed(
                    depth, frontier, d, direction=direction,
                    predicates=predicates, max_depth=max_depth,
                    class_predicate=class_predicate)
            nxt: set[str] = set()
            for s, o in zip(edges["subj_id"].to_pylist(),
                            edges["obj_id"].to_pylist()):
                if direction == "out":
                    cand = [(s, o)]
                elif direction == "in":
                    cand = [(o, s)]
                else:
                    cand = [(s, o), (o, s)]
                for a, b in cand:
                    if a in frontier and b not in depth:
                        depth[b] = d
                        nxt.add(b)
            if class_predicate and nxt:
                closed = class_close(nxt, d)
                if closed is None:
                    return self._bfs_distributed(
                        depth, {k for k, dd in depth.items() if dd == d},
                        d + 1, direction=direction,
                        predicates=predicates, max_depth=max_depth,
                        class_predicate=class_predicate,
                        reclose_frontier=True)
                nxt |= closed
            frontier = nxt
        return "dict", depth

    def _bfs_distributed(self, depth: dict[str, int], frontier: set[str],
                         next_d: int, *, direction: str,
                         predicates: list[str] | None, max_depth: int,
                         class_predicate: str | None,
                         reclose_frontier: bool = False):
        """Dataset-resident continuation of ``_bfs`` from hop next_d.

        State: ``layers`` — one materialized Dataset(node_id, depth) per
        completed layer (their lazy union is the visited set); the
        frontier is always the newest layer(s).  Per hop: size-aware
        semi-join of the (materialized, 2-column) edge projection
        against the frontier, distributed distinct, anti-join against
        visited, depth stamp.  Driver state: counts only."""
        from ..stages.agg import grouped_agg, semi_join

        def proj(preds):
            return self._read_edges(predicates=preds).select_columns(
                ["subj_id", "obj_id"]).materialize()

        edges_ds = proj(predicates)
        cls_ds = proj([class_predicate]) if class_predicate else None

        def stamp(d):
            def fn(t: pa.Table) -> pa.Table:
                return pa.table({
                    "node_id": t["node_id"],
                    "depth": pa.array([d] * t.num_rows, type=pa.int64())})
            return fn

        def expand(frontier_ds, over, dirn):
            outs = []
            if dirn in ("out", "both"):
                c = semi_join(over, frontier_ds, on="subj_id",
                              right_on="node_id")
                outs.append(c.map_batches(
                    lambda t: pa.table({"node_id": t["obj_id"]}),
                    batch_format="pyarrow"))
            if dirn in ("in", "both"):
                c = semi_join(over, frontier_ds, on="obj_id",
                              right_on="node_id")
                outs.append(c.map_batches(
                    lambda t: pa.table({"node_id": t["subj_id"]}),
                    batch_format="pyarrow"))
            ds = outs[0] if len(outs) == 1 else outs[0].union(outs[1])
            return grouped_agg(ds, ["node_id"], [])  # distributed distinct

        ids = sorted(depth)
        layers = [rd.from_arrow(pa.table({
            "node_id": pa.array(ids, type=pa.string()),
            "depth": pa.array([depth[i] for i in ids], type=pa.int64()),
        })).materialize()]

        def visited():
            v = layers[0]
            for l in layers[1:]:
                v = v.union(l)
            return v

        def fresh(cand_ds, d):
            new = semi_join(cand_ds, visited(), on="node_id", anti=True)
            new = new.map_batches(stamp(d), batch_format="pyarrow") \
                     .materialize()
            return new, new.count()

        def close_classes(frontier_ds, d):
            # class fixpoint at depth d, dataset-resident; frontier
            # datasets are always node_id-only (union-compatible)
            total = frontier_ds
            cur = frontier_ds
            while True:
                add, n = fresh(expand(cur, cls_ds, "both"), d)
                if n == 0:
                    return total
                layers.append(add)
                cur = add.select_columns(["node_id"])
                total = total.union(cur)

        frontier_ds = rd.from_arrow(pa.table({
            "node_id": pa.array(sorted(frontier), type=pa.string())}))
        if reclose_frontier and class_predicate:
            # escalation happened mid class-closure: redo the fixpoint
            # for the whole frontier distributed (idempotent — members
            # already in `depth` are anti-joined away)
            frontier_ds = close_classes(frontier_ds, next_d - 1)
        for d in range(next_d, max_depth + 1):
            new, n = fresh(expand(frontier_ds, edges_ds, direction), d)
            if n == 0:
                break
            layers.append(new)
            frontier_ds = new.select_columns(["node_id"])
            if class_predicate:
                frontier_ds = close_classes(frontier_ds, d)
        return "ds", visited()

    def _bfs_dag(self, start_id: str, direction: str, max_depth: int):
        """Shared DAG construction for the toposort family: BFS depths,
        then orient every subgraph edge from the SHALLOWER endpoint to
        the deeper one, in the BFS's own traversal direction — for
        ``direction="in"`` the walk follows edges backwards, so the
        depth-increasing orientation of a raw edge (s, o) is (o, s)
        (the old hardcoded ``depth[s] < depth[o]`` kept zero traversal
        edges and collapsed every level to 0).  ``"both"`` keeps
        whichever orientation increases depth (at most one can).
        Equal-depth edges are dropped in all modes, so cycles in the raw
        graph cannot starve Kahn's queue."""
        depth = self.reachable(start_id, direction=direction,
                               max_depth=max_depth)
        nodes = set(depth)
        edges = self._frontier_expand(nodes, None, "both")
        adj: dict[str, list[str]] = {n: [] for n in nodes}
        indeg = {n: 0 for n in nodes}
        for s, o in zip(edges["subj_id"].to_pylist(),
                        edges["obj_id"].to_pylist()):
            if s not in nodes or o not in nodes:
                continue
            if direction in ("out", "both") and depth[s] < depth[o]:
                u, v = s, o
            elif direction in ("in", "both") and depth[o] < depth[s]:
                u, v = o, s
            else:
                continue
            adj[u].append(v)
            indeg[v] += 1
        return depth, adj, indeg

    def toposort(self, start_id: str, *, direction: str = "out",
                 max_depth: int = 10) -> list[str]:
        """Kahn's algorithm over the BFS-layered subgraph (driver-side —
        the subgraph is the small result of a BFS).  As in the
        reference (/root/reference/pkg/guacanalytics/toposort.go:26-87),
        the order is over the BFS-derived DAG: only depth-increasing
        edges constrain the order, so cycles in the raw graph cannot
        starve the queue."""
        depth, adj, indeg = self._bfs_dag(start_id, direction, max_depth)
        nodes = set(depth)
        q = deque(sorted(n for n in nodes if indeg[n] == 0))
        out: list[str] = []
        while q:
            n = q.popleft()
            out.append(n)
            for m in sorted(adj[n]):
                indeg[m] -= 1
                if indeg[m] == 0:
                    q.append(m)
        return out

    def toposort_levels(self, start_id: str, *, direction: str = "out",
                        max_depth: int = 10) -> dict[str, int]:
        """Kahn peel levels over the same BFS-layered DAG: node ->
        round in which it became zero-indegree.  This is the
        reference's actual return shape (map of level -> nodeIDs,
        /root/reference/pkg/guacanalytics/toposort.go:26-61) and equals
        longest-path-from-roots in the DAG, so it is SQL-derivable
        (recursive CTE, MAX(lvl) per node) — unlike the flat order,
        which is iterative-choice-dependent."""
        depth, adj, indeg = self._bfs_dag(start_id, direction, max_depth)
        nodes = set(depth)
        level = {n: 0 for n in nodes if indeg[n] == 0}
        frontier = list(level)
        lvl = 0
        while frontier:
            lvl += 1
            nxt: list[str] = []
            for n in frontier:
                for m in adj[n]:
                    indeg[m] -= 1
                    if indeg[m] == 0:
                        level[m] = lvl
                        nxt.append(m)
            frontier = nxt
        return level

    # ------------------------------------------------------- analytics

    def top_dependents(self, k: int = 10,
                       predicate: str = "works_at"):
        """Top-k objects by in-degree for a predicate — the dependents
        ranking (groupby → count → global top-k)."""
        from ..stages.agg import grouped_agg, topk
        ds = self._read_edges(predicates=[predicate]).select_columns(
            ["obj_id", "n_evidence", "predicate"])
        out = grouped_agg(ds, ["obj_id"], [
            ("predicate", "count", "n_edges"),
            ("n_evidence", "sum", "n_mentions")])
        return topk(out, ["n_edges", "obj_id"], [True, False], k)

    def two_hop(self, predicate1: str, predicate2: str):
        """Distributed 2-hop join chain: (a)-[p1]->(b)-[p2]->(c).

        The SBOM-vuln-search shape (sboms ⋈ deps ⋈ vulns,
        /root/reference/pkg/guacanalytics/searchForSBOM.go:35-456) as a
        dataset self-join on the edges table — size-aware ``auto_join``
        on b = hop1.obj_id == hop2.subj_id.  Unlike the frontier BFS,
        nothing touches the driver; both sides stream.

        Output: a_id, b_id, c_id.
        """
        from ..stages.agg import auto_join
        hop1 = self._read_edges(predicates=[predicate1]).map_batches(
            lambda t: pa.table({"a_id": t["subj_id"], "b_id": t["obj_id"]}),
            batch_format="pyarrow")
        hop2 = self._read_edges(predicates=[predicate2]).map_batches(
            lambda t: pa.table({"b2_id": t["subj_id"], "c_id": t["obj_id"]}),
            batch_format="pyarrow")
        joined = auto_join(hop1, hop2, on="b_id", right_on="b2_id")
        return joined.map_batches(
            lambda t: t.select(["a_id", "b_id", "c_id"]),
            batch_format="pyarrow")

    def edges_with_prop(self, key: str, value: str | None = None,
                        predicates: list[str] | None = None):
        """Edges carrying typed property ``key`` (optionally with an
        exact value) — the props-filtered query the reference answers
        from InputSpec payloads (e.g. dependencies with
        scope=runtime).  The canonical "k=v&k=v" props string makes
        this a vectorized substring match on '&'-padded boundaries."""
        import urllib.parse as _u
        qk = _u.quote(key, safe="")
        needle = (f"&{qk}=" if value is None
                  else f"&{qk}={_u.quote(str(value), safe='')}&")

        def fn(t: pa.Table) -> pa.Table:
            amp = pa.array(["&"] * t.num_rows, type=pa.string())
            padded = pc.binary_join_element_wise(amp, t["props"], amp, "")
            return t.filter(pc.match_substring(padded, needle))
        return self._read_edges(predicates=predicates).map_batches(
            fn, batch_format="pyarrow")

    def nodes_with_qualifier(self, key: str, value: str | None = None):
        """Nodes whose key carries qualifier ``key`` (optionally an
        exact value) — the pkg-trie qualifier filter
        (helpers/package.go:26-99)."""
        import urllib.parse as _u
        qk = _u.quote(key, safe="")
        needle = (f"&{qk}=" if value is None
                  else f"&{qk}={_u.quote(str(value), safe='')}&")

        def fn(t: pa.Table) -> pa.Table:
            amp = pa.array(["&"] * t.num_rows, type=pa.string())
            padded = pc.binary_join_element_wise(amp, t["qualifiers"],
                                                 amp, "")
            return t.filter(pc.match_substring(padded, needle))
        return self._read_nodes().map_batches(
            fn, batch_format="pyarrow")

    def equivalence_class(self, node_id: str,
                          predicate: str = "partnered_with",
                          max_depth: int = 10) -> set[str]:
        """Connected component over an undirected ("equal") predicate —
        the start-node equivalence expansion of the reference's
        retrieveDependencies (guacrest/server/retrieveDependencies.go:
        145-260, HashEqual/PkgEqual class walk)."""
        return set(self.reachable(node_id, direction="both",
                                  predicates=[predicate],
                                  max_depth=max_depth))

    def neighbors_of_class(self, node_id: str, *,
                           via_predicate: str = "partnered_with",
                           predicates: list[str] | None = None):
        """Neighbors of the WHOLE equivalence class of ``node_id`` —
        query-time class expansion: edges of any class member (any
        direction), excluding the intra-class equal edges themselves."""
        cls = self.equivalence_class(node_id, via_predicate)
        ref = ray.put(pa.array(sorted(cls)))

        def fn(t: pa.Table) -> pa.Table:
            fr = ray.get(ref)
            m = pc.or_(pc.is_in(t["subj_id"], value_set=fr),
                       pc.is_in(t["obj_id"], value_set=fr))
            m = pc.and_(m, pc.not_equal(t["predicate"],
                                        pa.scalar(via_predicate)))
            return t.filter(m)

        preds = predicates
        return self._read_edges(predicates=preds).map_batches(
            fn, batch_format="pyarrow")

    def nodes_in_version_range(self, range_expr: str,
                               node_type: str = "product"):
        """Version-qualified nodes whose qualifier matches a semver-ish
        range expression — depversion range matching
        (/root/reference/internal/client/depsdevclient deps version
        semantics, functions/versions.py) applied ON the materialized
        qualifier column: the "affected versions" query every
        vuln-style analysis needs."""
        from ..functions.text import parse_props
        from ..functions.versions import range_includes

        def fn(t: pa.Table) -> pa.Table:
            keep = []
            for q in t["qualifiers"].to_pylist():
                ver = parse_props(q).get("version")
                keep.append(ver is not None
                            and range_includes(range_expr, ver))
            return t.filter(pa.array(keep))

        flt = pc.field("node_type") == node_type
        return self._read_nodes(flt).map_batches(
            fn, batch_format="pyarrow")

    def components(self, predicate: str = "partnered_with"):
        """ALL equivalence classes at once: distributed min-label
        propagation with pointer jumping over one undirected
        predicate's edges (stages/components.py) — the scale path
        where per-node ``equivalence_class`` BFS would iterate a
        driver frontier per class.  Returns (node_id, component)."""
        from ..stages.components import connected_components
        return connected_components(self._read_edges(
            predicates=[predicate]))

    def chain(self, predicates: list[str],
              props_filters: list[tuple[str, str | None] | None] | None = None):
        """n-hop distributed join chain:
        (n0)-[p0]->(n1)-[p1]->(n2)-...->(nK), optionally filtering each
        hop's edges by a typed prop (key, value) — the searchForSBOM
        3-hop shape (sboms ⋈ deps ⋈ vulns with per-dep filtering,
        /root/reference/pkg/guacanalytics/searchForSBOM.go:35-456).

        Nothing touches the driver: each hop is a size-aware
        ``auto_join`` on the shared node id.  Output columns: n0..nK.
        """
        from ..stages.agg import auto_join
        assert predicates, "need at least one hop"
        if props_filters is None:
            props_filters = [None] * len(predicates)

        def hop_edges(i: int):
            pf = props_filters[i]
            if pf is None:
                return self._read_edges(predicates=[predicates[i]])
            return self.edges_with_prop(pf[0], pf[1],
                                        predicates=[predicates[i]])

        out = hop_edges(0).map_batches(
            lambda t: pa.table({"n0": t["subj_id"], "n1": t["obj_id"]}),
            batch_format="pyarrow")
        for i in range(1, len(predicates)):
            nxt = hop_edges(i).map_batches(
                lambda t, i=i: pa.table({f"__k{i}": t["subj_id"],
                                         f"n{i + 1}": t["obj_id"]}),
                batch_format="pyarrow")
            out = auto_join(out, nxt, on=f"n{i}", right_on=f"__k{i}")
            out = out.map_batches(
                lambda t, i=i: t.drop_columns(
                    [c for c in (f"__k{i}",) if c in t.column_names]),
                batch_format="pyarrow")
        cols = [f"n{i}" for i in range(len(predicates) + 1)]
        return out.map_batches(lambda t: t.select(cols),
                               batch_format="pyarrow")

    def nodes_page(self, *, after_node_id: str = "", limit: int = 100,
                   node_type: str | None = None):
        """Cursor-based pagination over nodes ordered by node_id — the
        connections/pageInfo pattern (/root/reference/pkg/assembler/
        graphql/schema/pagination.graphql).  Returns (rows, next_cursor);
        next_cursor is None on the last page.  Stateless: the cursor is
        the last node_id, so pages are stable under concurrent appends
        (content-hash ids never reorder)."""
        flt = pc.field("node_id") > after_node_id
        if node_type is not None:
            flt = flt & (pc.field("node_type") == node_type)
        ds = self._read_nodes(flt)

        # per-block local head(limit+1) first: the global sort then
        # touches O(limit × blocks) rows, never the whole node table —
        # pagination stays cheap at any table size
        def local_head(t: pa.Table, k=limit + 1) -> pa.Table:
            return t.sort_by("node_id").slice(0, k)

        ds = ds.map_batches(local_head, batch_format="pyarrow")
        rows = ds.sort("node_id").limit(limit + 1).to_pandas()
        has_next = len(rows) > limit
        rows = rows.iloc[:limit]
        cursor = rows["node_id"].iloc[-1] if has_next and len(rows) else None
        return rows, cursor

    def _delete_table_rows(self, table_path: str, id_col: str,
                           ids: list[str], schema) -> int:
        """Remove rows by id from one table: a bucket-targeted rewrite
        — only the bucket partitions the ids hash into are read and
        rewritten, every other bucket is hardlinked
        (pipelines/increment.py)."""
        from ..pipelines.increment import delete_rows_bucketed
        if not ids:
            return 0
        return delete_rows_bucketed(table_path, id_col, ids, schema)

    def delete_edges(self, edge_ids: list[str]) -> int:
        """Tombstone + compaction delete — the reference supports delete
        for a subset of edge kinds (schema/delete.graphql; keyvalue
        panics otherwise).  Here: filtered rewrite of the edges table
        (atomic, bucket-targeted swap) + an
        append-only tombstone log so lineage shows WHAT was removed.
        Returns number of edges removed."""
        import json
        import time as _t

        from ..pipelines.increment import TOMBSTONES

        removed = self._delete_table_rows(self.edges_path, "edge_id",
                                          edge_ids, schemas.EDGES)
        log = os.path.join(os.path.dirname(self.edges_path), TOMBSTONES)
        with open(log, "a") as f:
            f.write(json.dumps({"ts_unix": round(_t.time(), 3),
                                "edge_ids": sorted(set(edge_ids)),
                                "removed": removed}) + "\n")
        return removed

    def delete_node(self, node_id: str) -> dict:
        """Delete a node AND its incident edges — the reference's node
        delete removes the node plus its relationships
        (/root/reference/pkg/assembler/graphql/schema/delete.graphql).

        One atomic rewrite per table (tmp dir + rename swap, like
        ``delete_edges``; bucket-targeted — only the partitions the node
        id and its incident edge ids hash into are rewritten), with an
        INTENT record appended to the
        tombstone log before the first rewrite so a crash between the
        two swaps is detectable (intent without a matching "done") and
        replayable (the delete is idempotent); EVIDENCE IS RETAINED —
        provenance of a
        deleted statement stays auditable, matching the tombstone-log
        philosophy (the reference's delete also leaves ingested blobs
        in the blob store).  The tombstone log records the node and
        every removed edge id."""
        import json
        import time as _t

        from ..pipelines.increment import TOMBSTONES

        # collect the incident edge ids first (small: one node's edges)
        df = self.neighbors(node_id).select_columns(["edge_id"]).to_pandas()
        # an empty expansion drops its schema (no edge_id column)
        incident = df["edge_id"].tolist() if "edge_id" in df.columns else []

        # ledger-first: each table swap below is atomic, but the
        # OPERATION spans two swaps — a crash in between would leave the
        # node present with its edges gone and nothing recording that a
        # delete was in flight.  Write the intent BEFORE the first
        # rewrite (the increment-ledger discipline); replaying
        # delete_node(node_id) after a crash is idempotent, so an
        # intent with no matching "done" line is detectable AND
        # replayable.
        log = os.path.join(os.path.dirname(self.edges_path), TOMBSTONES)
        with open(log, "a") as f:
            f.write(json.dumps({"ts_unix": round(_t.time(), 3),
                                "phase": "intent",
                                "node_id": node_id,
                                "edge_ids": sorted(incident)}) + "\n")
            f.flush()
            os.fsync(f.fileno())

        # incident = exactly the rows a subj/obj filter would drop
        # (single-writer contract: the table cannot change in between)
        edges_removed = self._delete_table_rows(
            self.edges_path, "edge_id", incident, schemas.EDGES)
        nodes_removed = self._delete_table_rows(
            self.nodes_path, "node_id", [node_id], schemas.NODES)

        with open(log, "a") as f:
            f.write(json.dumps({"ts_unix": round(_t.time(), 3),
                                "phase": "done",
                                "node_id": node_id,
                                "edge_ids": sorted(incident),
                                "removed_nodes": nodes_removed,
                                "removed_edges": edges_removed}) + "\n")
        return {"nodes_removed": nodes_removed,
                "edges_removed": edges_removed}

    def edges_page(self, *, after_edge_id: str = "", limit: int = 100,
                   predicates: list[str] | None = None):
        """Cursor pagination over edges ordered by edge_id — the edges
        analog of ``nodes_page`` (the paginated ``*List`` connections
        pattern, schema/pagination.graphql).  Same O(limit × blocks)
        local-head plan; the cursor is the last edge_id (content-hash
        ids are stable under appends)."""
        flt = pc.field("edge_id") > after_edge_id
        ds = self._read_edges(predicates=predicates, flt=flt)

        def local_head(t: pa.Table, k=limit + 1) -> pa.Table:
            return t.sort_by("edge_id").slice(0, k)

        ds = ds.map_batches(local_head, batch_format="pyarrow")
        rows = ds.sort("edge_id").limit(limit + 1).to_pandas()
        has_next = len(rows) > limit
        rows = rows.iloc[:limit]
        cursor = rows["edge_id"].iloc[-1] if has_next and len(rows) else None
        return rows, cursor

    def reachable_with_classes(self, start_id: str, *,
                               direction: str = "out",
                               predicates: list[str] | None = None,
                               class_predicate: str = "partnered_with",
                               max_depth: int = 10) -> dict[str, int]:
        """Frontier BFS that treats equivalence-class members as ONE
        node mid-walk — the reference's retrieveDependencies expands the
        start node's HashEqual/PkgEqual class and keeps expanding
        classes during the closure (/root/reference/pkg/guacrest/server/
        retrieveDependencies.go:145-260).

        Every reached node is closed over ``class_predicate`` edges
        (undirected, SAME depth) before the next directed hop, so a
        path that only exists through an equal member is found.  Class
        members enter the depth map at the depth of the node that
        pulled them in.

        Dict result = driver-sized contract; the walk is the same
        hybrid engine as ``reachable`` (escalates to dataset-resident
        state past the driver limit) — use ``reachable_dataset(...,
        class_predicate=...)`` to consume a huge closure as a
        Dataset."""
        kind, v = self._bfs(start_id, direction=direction,
                            predicates=predicates, max_depth=max_depth,
                            class_predicate=class_predicate,
                            driver_limit=self._bfs_driver_limit(None))
        if kind == "dict":
            return v
        df = v.to_pandas()
        return dict(zip(df["node_id"], (int(x) for x in df["depth"])))

    def chain_with_classes(self, predicates: list[str], *,
                           class_predicate: str = "partnered_with",
                           props_filters=None):
        """``chain`` with equivalence-class expansion at every hop
        boundary: hop i's object matches hop i+1's subject if they are
        equal THROUGH the class predicate (retrieveDependencies' mid-
        closure class expansion, as a join plan instead of a BFS).

        Plan: label every boundary id with its class component
        (``components`` — distributed min-label CC), then join on the
        component label; ids outside any class keep their own id as the
        label.  Labeling is a size-aware LEFT lookup join against the
        components Dataset (``left_lookup_join``: broadcast merge for a
        dimension-sized membership table, hash-partitioned left_outer
        join past 2M classes) — the membership table never reaches the
        driver and there is no per-row Python ``.get`` loop.
        Output columns: n0..nK (original node ids, not labels)."""
        from ..stages.agg import auto_join, left_lookup_join
        assert predicates, "need at least one hop"
        if props_filters is None:
            props_filters = [None] * len(predicates)

        comp = self.components(class_predicate).materialize()

        def with_label(ds, col: str, out: str):
            return left_lookup_join(ds, comp, on=col, right_on="node_id",
                                    value_col="component", out=out,
                                    default_from=col)

        def hop_edges(i: int):
            pf = props_filters[i]
            if pf is None:
                return self._read_edges(predicates=[predicates[i]])
            return self.edges_with_prop(pf[0], pf[1],
                                        predicates=[predicates[i]])

        out = hop_edges(0).map_batches(
            lambda t: pa.table({"n0": t["subj_id"], "n1": t["obj_id"]}),
            batch_format="pyarrow")
        for i in range(1, len(predicates)):
            out = with_label(out, f"n{i}", f"__l{i}")
            nxt = hop_edges(i).map_batches(
                lambda t, i=i: pa.table({f"__k{i}": t["subj_id"],
                                         f"n{i + 1}": t["obj_id"]}),
                batch_format="pyarrow")
            nxt = with_label(nxt, f"__k{i}", f"__r{i}")
            out = auto_join(out, nxt, on=f"__l{i}", right_on=f"__r{i}")
            out = out.map_batches(
                lambda t, i=i: t.drop_columns(
                    [c for c in (f"__k{i}", f"__l{i}", f"__r{i}")
                     if c in t.column_names]),
                batch_format="pyarrow")
        cols = [f"n{i}" for i in range(len(predicates) + 1)]
        return out.map_batches(lambda t: t.select(cols),
                               batch_format="pyarrow")

    def evidence_for_edge(self, edge_id: str):
        """Provenance drill-down: evidence rows for one canonical edge."""
        return rd.read_parquet(self.evidence_path,
                               columns=self.EVIDENCE_COLS,
                               filter=pc.field("edge_id") == edge_id)
