"""guacray CLI — the ``guacone`` analog (collect/ingest + query verbs,
/root/reference/cmd/guacone/cmd/).

    python -m guacray.cli gen-pages /tmp/pages.parquet --n 4096
    python -m guacray.cli ingest /tmp/pages.parquet /tmp/graph
    python -m guacray.cli ingest shard1.parquet shard2.parquet /tmp/graph --resumable
    python -m guacray.cli enrich /tmp/graph --node-type org
    python -m guacray.cli query find /tmp/graph acme
    python -m guacray.cli query neighbors /tmp/graph ent:org::acme-corp
    python -m guacray.cli query path /tmp/graph <key-or-id> <key-or-id>
    python -m guacray.cli query topk /tmp/graph --predicate works_at -k 10

Owns the Ray session (the driver-contract modules never init Ray).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False


def _resolve_node(store, ref: str) -> str:
    """Accept a node_id (32-hex) or a node_key (ent:...)."""
    if ref.startswith("ent:"):
        from .functions.keys import node_id
        return node_id(ref)
    return ref


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="guacray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-pages", help="write a deterministic pages fixture")
    g.add_argument("path")
    g.add_argument("--n", type=int, default=4096)
    g.add_argument("--seed", type=int, default=42)

    i = sub.add_parser("ingest", help="pages parquet → graph tables")
    i.add_argument("inputs", nargs="+",
                   help="pages parquet file(s); last arg is the output dir")
    i.add_argument("--resumable", action="store_true",
                   help="checkpoint each group of input files, so a "
                        "killed run resumes at the missing groups")

    ia = sub.add_parser("ingest-add",
                        help="merge new pages into a store "
                             "(delta-only; replay of the same input is "
                             "a no-op)")
    ia.add_argument("pages")
    ia.add_argument("out_dir")

    e = sub.add_parser("enrich", help="certifier pass over the graph")
    e.add_argument("out_dir")
    e.add_argument("--node-type", default="org")
    e.add_argument("--rescan-after-s", type=float, default=24 * 3600)

    q = sub.add_parser("query", help="graph queries")
    qs = q.add_subparsers(dest="qcmd", required=True)
    for name, extra in (
            ("find", ["text"]),
            ("neighbors", ["node", "--predicate"]),
            ("path", ["src", "dst"]),
            ("topk", ["--predicate", "-k"]),
            ("evidence", ["edge_id"]),
            ("props", ["key", "--value", "--predicate"]),
            ("chain", ["predicates"]),
            ("class", ["node", "--predicate"])):
        sp = qs.add_parser(name)
        sp.add_argument("out_dir")
        for a in extra:
            if a == "--predicate":
                sp.add_argument("--predicate", default=None)
            elif a == "--value":
                sp.add_argument("--value", default=None)
            elif a == "-k":
                sp.add_argument("-k", type=int, default=10)
            elif a == "predicates":
                sp.add_argument("predicates",
                                help="comma-separated hop predicates")
            else:
                sp.add_argument(a)

    u = sub.add_parser("unpack", help="recursive document-tree unpack of "
                                      "raw files (compressed/DSSE/jsonl)")
    u.add_argument("path", help="file or directory of raw blobs")

    args = p.parse_args(argv)
    _init_ray(args.num_cpus)

    if args.cmd == "gen-pages":
        from .data.pages import write_pages
        write_pages(args.path, args.n, args.seed)
        print(json.dumps({"written": args.path, "n_pages": args.n}))
        return 0

    if args.cmd == "ingest":
        *files, out_dir = args.inputs
        if not files:
            p.error("need at least one input file and an output dir")
        from .pipelines.kg import run_kg, run_kg_resumable
        if args.resumable:
            counts = run_kg_resumable(files, out_dir)
        else:
            counts = run_kg(files if len(files) > 1 else files[0], out_dir)
        print(json.dumps(counts))
        return 0

    if args.cmd == "ingest-add":
        from .pipelines.increment import ingest_increment
        print(json.dumps(ingest_increment(args.pages, args.out_dir)))
        return 0

    if args.cmd == "unpack":
        from .sources.readers import read_binary_docs, unpack_tree
        df = unpack_tree(read_binary_docs(args.path)).to_pandas()
        print(df.to_json(orient="records", lines=True) or "")
        return 0

    if args.cmd == "enrich":
        from .pipelines.enrich import run_enrichment
        print(json.dumps(run_enrichment(
            args.out_dir, node_type=args.node_type,
            rescan_after_s=args.rescan_after_s)))
        return 0

    # query verbs
    from .query.graph import GraphStore
    store = GraphStore(args.out_dir)
    if args.qcmd == "find":
        df = store.find_nodes(args.text).to_pandas()
        print(df.to_json(orient="records", lines=True) or "")
    elif args.qcmd == "neighbors":
        nid = _resolve_node(store, args.node)
        preds = [args.predicate] if args.predicate else None
        df = store.neighbors(nid, predicates=preds).to_pandas()
        print(df.to_json(orient="records", lines=True, date_format="iso") or "")
    elif args.qcmd == "path":
        path = store.bfs_path(_resolve_node(store, args.src),
                              _resolve_node(store, args.dst))
        print(json.dumps({"path": path}))
    elif args.qcmd == "topk":
        df = store.top_dependents(k=args.k,
                                  predicate=args.predicate or "works_at") \
                  .to_pandas()
        print(df.to_json(orient="records", lines=True) or "")
    elif args.qcmd == "evidence":
        df = store.evidence_for_edge(args.edge_id).to_pandas()
        print(df.to_json(orient="records", lines=True, date_format="iso") or "")
    elif args.qcmd == "props":
        preds = [args.predicate] if args.predicate else None
        df = store.edges_with_prop(args.key, args.value,
                                   predicates=preds).to_pandas()
        print(df.to_json(orient="records", lines=True, date_format="iso") or "")
    elif args.qcmd == "chain":
        df = store.chain(args.predicates.split(",")).to_pandas()
        print(df.to_json(orient="records", lines=True) or "")
    elif args.qcmd == "class":
        nid = _resolve_node(store, args.node)
        cls = store.equivalence_class(
            nid, predicate=args.predicate or "partnered_with")
        print(json.dumps({"node": nid, "class": sorted(cls)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
