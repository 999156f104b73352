"""Collectsub loop — dynamic work discovery, closed.

The reference's collectsub service completes a feedback loop the other
pipelines only feed: parsers push the identifier strings they find
(/root/reference/pkg/ingestor/ingestor.go:189-201), collectors
subscribe to those entries
(pkg/collectsub/collectsub/collectsub.proto:21-58, AddCollectEntries /
GetCollectEntries) and fetch new documents about them, and the fetched
documents flow back through ingestion — possibly discovering more
identifiers.

Ray-Data re-expression (an incremental loop over a store, not a
service).  Each round:

  1. DISCOVER — identifier surfaces parsing found but no collector has
     fetched: the store's ``unknown``-typed nodes (mention-minted
     fallback identities, functions/keys.fallback_key) anti-joined
     against the dispatch ledger.  The anti join is the same size-aware
     ``semi_join`` the certifier scheduler uses; only the capped
     dispatch list reaches the driver (collectsub's GetCollectEntries
     is equally a bounded queue drain).
  2. DISPATCH — hand the list to a collector callback.  In production
     that is an HTTP/registry fetcher; in this sandbox the default
     synthesizes deterministic profile documents
     (``data.pages.synthesize_profile_pages``).  Identifiers that
     cannot round-trip the extraction grammar (embedded sentence
     punctuation or verb needles) are skipped and counted — the analog
     of a collector rejecting malformed purls.
  3. INGEST — ``ingest_increment`` the fetched documents: the standard
     touched-bucket delta merge, so discovered edges land exactly like
     any crawl increment.
  4. COMMIT — record the dispatched surfaces in the ``collect_state``
     sidecar (atomic ``write_table`` swap, the scan_state pattern), so
     a rerun never refetches.

The loop terminates when a round discovers nothing new (fixpoint) or
``max_rounds`` is hit — the bound matters because fetched documents can
mention further unknown identifiers (the DocumentTree recursion at
corpus scale).
"""

from __future__ import annotations

import os
import time

import pyarrow as pa
import ray.data as rd

from ..functions.text import _ANCHOR_NEEDLE, _PATTERNS_WITH_NEEDLES
from .increment import _read_ledger, ingest_increment
from .kg import upsert_sidecar

COLLECT_STATE = "collect_state"

_STATE_SCHEMA = pa.schema([("surface", pa.string()),
                           ("dispatched_unix", pa.float64())])

# characters that break the sentence round-trip (segmenter splits /
# quote handling), plus the verb needles AND the anchor-definition
# needle (a surface containing either would shift the pattern match /
# turn a synthesized statement into a definition) — the collector-side
# sanitation gate
_UNSAFE_CHARS = set('.!?"<>')
_NEEDLES = [n for _, _, n in _PATTERNS_WITH_NEEDLES] + [_ANCHOR_NEEDLE]


def dispatchable(surface: str) -> bool:
    return (bool(surface.strip())
            and not (_UNSAFE_CHARS & set(surface))
            and not any(n in f" {surface} " for n in _NEEDLES))


def _state_path(store_dir: str) -> str:
    return os.path.join(store_dir, COLLECT_STATE)


def pending_identifiers(store_dir: str, *,
                        dispatch_limit: int = 100_000) -> list[str]:
    """The GetCollectEntries analog: surfaces discovered by parsing
    (unknown-typed fallback nodes) minus everything already dispatched.
    Distributed anti join; only the capped work list — never the node
    table — reaches the driver."""
    from ..query.graph import GraphStore
    from ..stages.agg import semi_join
    unknowns = GraphStore(store_dir).nodes(node_type="unknown") \
        .map_batches(lambda t: pa.table({"surface": t["name"]}),
                     batch_format="pyarrow")
    sp = _state_path(store_dir)
    if os.path.isdir(sp):
        done = rd.read_parquet(sp, columns=["surface"])
        unknowns = semi_join(unknowns, done, on="surface", anti=True)
    rows = unknowns.limit(dispatch_limit).to_pandas()
    if "surface" not in rows.columns:  # empty result loses its schema
        return []
    return sorted(rows["surface"])


def default_fetch(surfaces: list[str], out_path: str, *,
                  seed: int = 42) -> str | None:
    """Sandbox collector: synthesize one deterministic profile document
    per identifier (data/pages.synthesize_profile_pages) and write the
    pages parquet a real collector would have produced."""
    import pyarrow.parquet as pq

    from ..data.pages import synthesize_profile_pages
    t = synthesize_profile_pages(surfaces, seed=seed)
    if t.num_rows == 0:
        return None
    pq.write_table(t, out_path)
    return out_path


def _commit_dispatch(store_dir: str, surfaces: list[str],
                     now: float) -> None:
    new = rd.from_arrow(pa.table({
        "surface": pa.array(surfaces, type=pa.string()),
        "dispatched_unix": pa.array([now] * len(surfaces),
                                    type=pa.float64())}))
    upsert_sidecar(_state_path(store_dir), new, ["surface"],
                   "dispatched_unix", _STATE_SCHEMA)


def _fetch_name(surfaces: list[str]) -> str:
    """Content-addressed fetch filename: ``ingest_increment`` keys its
    exactly-once ledger on the input file PATH list, so the path must
    change exactly when the dispatched surface set does — a fixed
    ``fetch-{round}.parquet`` name would make the SECOND collect cycle's
    round 0 collide with the first's ledger entry and silently skip the
    merge while still committing its surfaces as dispatched (data
    loss).  Same surfaces ⇒ same path ⇒ crash-replay stays a no-op."""
    import hashlib
    h = hashlib.blake2b("\n".join(sorted(surfaces)).encode(),
                        digest_size=8).hexdigest()
    return f"fetch-{h}.parquet"


def run_collect_loop(store_dir: str, *, fetch=None, max_rounds: int = 2,
                     work_dir: str | None = None,
                     dispatch_limit: int = 100_000,
                     now: float | None = None) -> dict:
    """Run the discover → dispatch → ingest → commit loop against a
    store until fixpoint or ``max_rounds``.

    ``fetch(surfaces, out_path)`` returns the path of a pages parquet
    about those identifiers (or None for "nothing fetchable") —
    defaults to the deterministic synthesizer seeded with the STORE's
    catalog seed.  Dispatch is committed even when nothing was
    fetchable, so undispatchable identifiers are visited once, not
    every round.  Serial per store, like ingest_increment."""
    ledger = _read_ledger(os.path.join(store_dir, "edges"))
    if fetch is None:
        seed = ledger.get("seed", 42)

        def fetch(surfaces, out_path, _seed=seed):
            return default_fetch(surfaces, out_path, seed=_seed)
    work_dir = work_dir or os.path.join(store_dir, "_collect_work")
    os.makedirs(work_dir, exist_ok=True)
    now = time.time() if now is None else now

    rounds = []
    for i in range(max_rounds):
        found = pending_identifiers(store_dir,
                                    dispatch_limit=dispatch_limit)
        todo = [s for s in found if dispatchable(s)]
        skipped = len(found) - len(todo)
        if not found:
            break
        r = {"round": i, "discovered": len(found), "skipped": skipped}
        path = fetch(todo, os.path.join(work_dir, _fetch_name(todo))) \
            if todo else None
        if path is not None:
            inc = ingest_increment(path, store_dir)
            r["increment"] = inc["increment"]
            r["increment_skipped"] = inc["skipped"]
            r["edges_total"] = inc.get("edges", None)
        # commit AFTER the ingest: a crash in between replays the fetch
        # and re-ingest, both idempotent (same surfaces ⇒ same pages ⇒
        # same content-addressed path ⇒ same increment id ⇒ merge
        # skipped)
        _commit_dispatch(store_dir, found, now + i)
        rounds.append(r)
        # fixpoint ONLY when we saw the whole pending set: a
        # dispatch_limit-capped batch that happened to be wholly
        # undispatchable must not abandon dispatchable identifiers
        # beyond the cap — the next round's anti join surfaces them
        if not todo and len(found) < dispatch_limit:
            break
    return {"rounds": rounds,
            "dispatched_total": sum(r["discovered"] for r in rounds)}
