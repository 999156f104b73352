"""Per-partition lineage manifest — the resumability contract.

GUAC gets at-least-once + resume from NATS durable consumers plus
idempotent content-keyed upserts (/root/reference/pkg/emitter/
emitter.go:64-74, process/process.go:102-152).  A batch engine gets the
same guarantee from: deterministic partition layout + an atomically
written manifest entry per completed partition + content-hash identities
that make any replay idempotent.

Layout: ``<out_dir>/_manifest/<partition_id>.json`` written via
tmp-file + ``os.replace`` (atomic on POSIX).  Each entry records
lineage (inputs → outputs), row counts, and wall-time metrics.
A rerun lists the manifest dir and skips completed partitions.
"""

from __future__ import annotations

import json
import os
import time


class Manifest:
    def __init__(self, out_dir: str):
        self.dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, partition_id: str) -> str:
        return os.path.join(self.dir, f"{partition_id}.json")

    def done(self, partition_id: str) -> bool:
        return os.path.exists(self._path(partition_id))

    def entry(self, partition_id: str) -> dict | None:
        """The committed entry for a partition, or None."""
        try:
            with open(self._path(partition_id)) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def done_with_inputs(self, partition_id: str, inputs: list[str]) -> bool:
        """True only if the partition is committed AND was produced from
        exactly ``inputs``.  Positional partition ids shift when the
        input file list changes (a new file sorting first, a different
        grouping) — skipping on id alone would silently drop or
        double-ingest files; validating recorded lineage forces a
        reprocess on mismatch."""
        e = self.entry(partition_id)
        return e is not None and e.get("inputs") == list(inputs)

    def drop(self, partition_id: str) -> None:
        """Forget a partition (its outputs are being removed)."""
        try:
            os.remove(self._path(partition_id))
        except FileNotFoundError:
            pass

    def completed(self) -> dict[str, dict]:
        out = {}
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.dir, name)) as f:
                    out[name[:-5]] = json.load(f)
        return out

    def commit(self, partition_id: str, *, inputs: list[str],
               outputs: list[str], rows_in: int, rows_out: int,
               started: float, extra: dict | None = None) -> None:
        entry = {
            "partition": partition_id,
            "inputs": inputs,
            "outputs": outputs,
            "rows_in": rows_in,
            "rows_out": rows_out,
            "wall_sec": round(time.time() - started, 3),
            "completed_at_unix": round(time.time(), 3),
        }
        if extra:
            entry.update(extra)
        tmp = self._path(partition_id) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(entry, f, indent=1, sort_keys=True)
        os.replace(tmp, self._path(partition_id))
