"""Incremental enrichment loop — the certifier analog.

GUAC's certifier loop polls the graph for components that need
(re)scanning, fans out registered certifiers (OSV / scorecard / CD /
EOL), and feeds the resulting attestations back through ingestion —
a graph → scan → new-edges feedback loop
(/root/reference/pkg/certifier/certify/certify.go:60-194,
components/root_package/root_package.go:53-191; scan scheduling via
``findPackagesThatNeedScanning`` + lastScan horizon).

Ray-Data re-expression (an incremental re-run, not a service):
  1. read the nodes table, filter by type + stale-scan horizon
     (timestamp filter = the ``lastScan`` query; scan state lives in a
     small parquet sidecar, not on the node rows)
  2. actor-pool enrich stage (rate-limitable client held per actor —
     the OSV/deps.dev client pattern) → new triples
  3. MERGE the new rows into the store's touched buckets (the
     increment merge; content-hash identity makes it idempotent, so
     replays are safe)
  4. commit the scan state atomically

The enrichment "service" here is deterministic and local (no network
in this environment): it categorizes entities by a stable hash.  A real
deployment swaps ``FakeEnrichmentClient`` for an HTTP client; the Ray
plumbing is identical.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .. import schemas
from ..functions.hashing import content_id
from ..functions.keys import entity_key, node_id
from ..stages.agg import semi_join
from ..stages.canonicalize import (edge_ids_memo, edge_rows, node_rows,
                                   with_bucket)
from .increment import _checked_ledger, merge_rows, touched_buckets
from .kg import _dir_num_rows, write_table

_CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon",
               "zeta", "eta", "theta", "iota", "kappa"]
ENRICH_PREDICATE = "categorized_as"


class FakeEnrichmentClient:
    """Deterministic stand-in for an external scan API (OSV-shaped:
    batched queries, client-side rate limit, per-actor cache —
    /root/reference/pkg/certifier/osv/osv.go:42-46,106-151)."""

    def __init__(self, requests_per_sec: float | None = None):
        self.requests_per_sec = requests_per_sec
        self._last = 0.0
        self.cache: dict[str, str] = {}

    def categorize(self, node_key: str) -> str:
        hit = self.cache.get(node_key)
        if hit is None:
            if self.requests_per_sec:
                wait = self._last + 1.0 / self.requests_per_sec - time.time()
                if wait > 0:
                    time.sleep(wait)
                self._last = time.time()
            hit = _CATEGORIES[int(content_id("cat", node_key)[:8], 16)
                              % len(_CATEGORIES)]
            self.cache[node_key] = hit
        return hit


def _cert_table(subj, pred, obj, okey, oname, otype, props) -> pa.Table:
    return pa.table({
        "subj_id": pa.array(subj, type=pa.string()),
        "predicate": pa.array(pred, type=pa.string()),
        "obj_id": pa.array(obj, type=pa.string()),
        "obj_key": pa.array(okey, type=pa.string()),
        "obj_name": pa.array(oname, type=pa.string()),
        "obj_type": pa.array(otype, type=pa.string()),
        "props": pa.array(props, type=pa.string()),
    })


class Enricher:
    """Actor-pool stage: node rows → enrichment edge (+node) rows."""

    def __init__(self, requests_per_sec: float | None = None):
        self.client = FakeEnrichmentClient(requests_per_sec)

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj, pred, obj, okey, oname = [], [], [], [], []
        for nid, nkey in zip(batch["node_id"].to_pylist(),
                             batch["node_key"].to_pylist()):
            cat = self.client.categorize(nkey)
            ckey = entity_key("category", cat)
            subj.append(nid)
            pred.append(ENRICH_PREDICATE)
            obj.append(node_id(ckey))
            okey.append(ckey)
            oname.append(cat)
        n = len(subj)
        return _cert_table(subj, pred, obj, okey, oname,
                           ["category"] * n, [""] * n)


# ------------------------------------------------- vuln-scan certifier
#
# Negative evidence: the reference's vulnerability parser emits an
# explicit "scanned and CLEAN" statement — a CertifyVuln edge to the
# noVuln sentinel node (/root/reference/pkg/ingestor/parser/vuln/
# vuln.go:59,75-206) — so queries can distinguish "never scanned" from
# "scanned, nothing found".  The analog: a second certifier kind whose
# clean results are queryable ``scanned_clean`` edges to one sentinel.

VULN_PREDICATE = "affected_by"
CLEAN_PREDICATE = "scanned_clean"
NOVULN_NAME = "NoVuln"
SCANNER_PROPS = "scanner=fakescan-v1"


class FakeVulnScanClient:
    """Deterministic stand-in for a batch vuln-scan API: ~25% of keys
    report one finding, the rest scan clean.  Same client shape as
    FakeEnrichmentClient (rate-limitable, per-actor cache)."""

    def __init__(self, requests_per_sec: float | None = None):
        self.requests_per_sec = requests_per_sec
        self._last = 0.0
        self.cache: dict[str, list[str]] = {}

    def scan(self, node_key: str) -> list[str]:
        hit = self.cache.get(node_key)
        if hit is None:
            if self.requests_per_sec:
                wait = self._last + 1.0 / self.requests_per_sec - time.time()
                if wait > 0:
                    time.sleep(wait)
                self._last = time.time()
            h = content_id("vulnscan", node_key)
            hit = [f"VULN-{h[2:8]}"] if int(h[:2], 16) < 64 else []
            self.cache[node_key] = hit
        return hit


class VulnCertifier:
    """Actor-pool stage: node rows → vuln edges OR clean-scan edges.

    A finding emits (node)-[affected_by]->(vuln); a clean scan emits
    (node)-[scanned_clean]->(NoVuln sentinel).  Scanner identity rides
    in props (part of edge identity — a different scanner version is a
    different attestation), so replaying the same pass is idempotent
    while upgrading the scanner re-attests."""

    def __init__(self, requests_per_sec: float | None = None):
        self.client = FakeVulnScanClient(requests_per_sec)
        self.novuln_key = entity_key("vuln", NOVULN_NAME)
        self.novuln_id = node_id(self.novuln_key)

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj, pred, obj, okey, oname = [], [], [], [], []
        for nid, nkey in zip(batch["node_id"].to_pylist(),
                             batch["node_key"].to_pylist()):
            vulns = self.client.scan(nkey)
            if vulns:
                for v in vulns:
                    vkey = entity_key("vuln", v)
                    subj.append(nid)
                    pred.append(VULN_PREDICATE)
                    obj.append(node_id(vkey))
                    okey.append(vkey)
                    oname.append(v)
            else:
                subj.append(nid)
                pred.append(CLEAN_PREDICATE)
                obj.append(self.novuln_id)
                okey.append(self.novuln_key)
                oname.append(NOVULN_NAME)
        n = len(subj)
        return _cert_table(subj, pred, obj, okey, oname,
                           ["vuln"] * n, [SCANNER_PROPS] * n)


# Certifier registry — the reference registers multiple certifier kinds
# and tracks a lastScan horizon PER kind
# (/root/reference/pkg/certifier/certify/certify.go:48-56,
# components/root_package/root_package.go:74-79).  Scan state here is
# keyed by (node_id, certifier) for the same reason: scanning a node
# with one certifier must not mark it fresh for the others.
CERTIFIERS: dict[str, dict] = {
    "category": {"stage": Enricher, "node_type": "org",
                 "rescan_after_s": 24 * 3600.0},
    "vulnscan": {"stage": VulnCertifier, "node_type": "product",
                 "rescan_after_s": 6 * 3600.0},
}


def _scan_state_path(out_dir: str) -> str:
    return os.path.join(out_dir, "scan_state")


def _migrate_scan_state(state_path: str) -> None:
    """One-time in-place migration of a legacy two-column scan state.

    The certifier registry added a required ``certifier`` column to the
    state schema; a store written by the pre-registry build would crash
    both the ``pc.field('certifier')`` read filter and the
    ``select(_STATE_SCHEMA.names)`` recommit.  Every legacy row was
    written by the original category certifier, so stamping
    ``certifier='category'`` preserves exact semantics.  The rewrite is
    atomic (write_table's tmp-dir + rename), so a crash mid-migration
    leaves the legacy table intact and the next call retries."""
    import pyarrow.dataset as pads
    schema = pads.dataset(state_path, format="parquet").schema
    if "certifier" in schema.names:
        return
    legacy = rd.read_parquet(state_path)
    stamped = legacy.map_batches(
        lambda t: pa.table({
            "node_id": t["node_id"],
            "certifier": pa.array(["category"] * t.num_rows,
                                  type=pa.string()),
            "last_scan_unix": pc.cast(t["last_scan_unix"],
                                      pa.float64())}),
        batch_format="pyarrow")
    write_table(stamped, state_path)


def nodes_needing_scan(out_dir: str, *, node_type: str,
                       rescan_after_s: float, now: float,
                       certifier: str = "category"):
    """The ``findPackagesThatNeedScanning`` analog: typed nodes whose
    last scan BY THIS CERTIFIER is older than the horizon (or never
    scanned) — a distributed anti join against the fresh slice of the
    scan state (size-aware: broadcast array below threshold, Bloom +
    hash join above; the state table never reaches the driver)."""
    from ..query.graph import GraphStore
    nodes = GraphStore(out_dir).nodes(node_type=node_type)
    state = _scan_state_path(out_dir)
    if not os.path.isdir(state):
        return nodes
    _migrate_scan_state(state)
    cutoff = now - rescan_after_s
    fresh = rd.read_parquet(
        state, filter=(pc.field("certifier") == certifier)
        & (pc.field("last_scan_unix") >= cutoff))
    return semi_join(nodes, fresh, on="node_id", anti=True)


def run_enrichment(out_dir: str, *, certifier: str = "category",
                   node_type: str | None = None,
                   rescan_after_s: float | None = None,
                   concurrency=(1, 4), now: float | None = None) -> dict:
    """One pass of one registered certifier kind.  Returns counts
    {scanned, edges_total}.

    Merging uses content-keyed dedup — identical content keys collapse,
    so running this twice (or crashing between steps and rerunning) is
    idempotent, exactly like GUAC's at-least-once queue + content-keyed
    upsert (SURVEY.md §3.3).  The merge is the touched-bucket delta
    merge (pipelines/increment.py) — a daily certifier pass rewrites
    only the bucket partitions its new ids land in, never the whole
    graph."""
    spec = CERTIFIERS[certifier]
    node_type = node_type or spec["node_type"]
    rescan_after_s = spec["rescan_after_s"] if rescan_after_s is None \
        else rescan_after_s
    now = time.time() if now is None else now
    todo = nodes_needing_scan(out_dir, node_type=node_type,
                              rescan_after_s=rescan_after_s, now=now,
                              certifier=certifier)
    # pin the scan list NOW: the merge below atomically replaces the
    # nodes dir, invalidating lazy reads' resolved file paths —
    # materialize pins blocks, not paths; ids stay a Dataset (never
    # collected to the driver)
    todo = todo.materialize()
    n_todo = todo.count()
    if n_todo == 0:
        return {"scanned": 0,
                "edges_total": _dir_num_rows(os.path.join(out_dir, "edges"))}

    enriched = todo.map_batches(spec["stage"], batch_format="pyarrow",
                                batch_size=1024, concurrency=concurrency,
                                num_cpus=1).materialize()

    # new rows in the store exchange's shape: each object node, and one
    # edge per statement (n=0: derived, not page evidence; ts = null —
    # enrichment is not event-timed).  Edge ids are minted by the same
    # memoized function as bulk ingest (add_ids_batch) — enrichment
    # objects repeat heavily (10 categories, 1 sentinel), so the
    # per-row blake2b collapses to dict hits
    ledger = _checked_ledger(os.path.join(out_dir, "edges"))
    nb = ledger["num_buckets"]

    def to_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        eids = edge_ids_memo(t["subj_id"].to_pylist(),
                             t["predicate"].to_pylist(),
                             t["obj_id"].to_pylist(),
                             t["props"].to_pylist())
        return with_bucket(pa.concat_tables([
            node_rows(t["obj_id"], t["obj_key"], t["obj_type"],
                      t["obj_name"]),
            edge_rows(pa.array(eids, type=pa.string()), t["subj_id"],
                      t["predicate"], t["obj_id"], t["props"],
                      pa.nulls(n, type=schemas.TS),
                      pa.repeat(pa.scalar(0, type=pa.int64()), n))]), nb)

    # untouched bucket partitions are hardlinked, never read
    rows = enriched.map_batches(to_rows, batch_format="pyarrow").materialize()
    merge_rows(out_dir, rows, ledger, touched_buckets(rows))

    # commit scan state (atomic via write_table): union old + newly
    # scanned, keep-latest per (node, certifier) via a distributed
    # grouped max — the state table stays in the cluster end to end
    from .kg import upsert_sidecar
    _STATE_SCHEMA = pa.schema([("node_id", pa.string()),
                               ("certifier", pa.string()),
                               ("last_scan_unix", pa.float64())])
    new_state = todo.map_batches(
        lambda t: pa.table({
            "node_id": t["node_id"],
            "certifier": pa.array([certifier] * t.num_rows,
                                  type=pa.string()),
            "last_scan_unix": pa.array([now] * t.num_rows,
                                       type=pa.float64())}),
        batch_format="pyarrow")
    upsert_sidecar(_scan_state_path(out_dir), new_state,
                   ["node_id", "certifier"], "last_scan_unix",
                   _STATE_SCHEMA)

    return {"scanned": n_todo,
            "edges_total": _dir_num_rows(os.path.join(out_dir, "edges"))}
