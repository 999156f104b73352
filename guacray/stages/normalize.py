"""Normalize stage: raw pages → language-gated, text-extracted docs.

GUAC analog: the processor stage — decode → guess → validate → unpack
(/root/reference/pkg/handler/processor/process/process.go:197-221).
Here: language gate (validateFormat analog), deterministic HTML→text
extraction (decode analog; byte-identical per url vs the single-threaded
reference extractor — the conformance invariant), content-hash
document_ref stamping (blob-key analog, pkg/events/events.go:77-90).

Scale notes: runs as stateless ``map_batches`` over zero-copy Arrow
batches; the wide ``html`` binary column is DROPPED here, immediately
after its two uses (text + sha256), so downstream blocks are narrow.
Per-row work (regex HTML strip, sha256) is unavoidable CPU — it
parallelizes embarrassingly across blocks.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import document_ref
from ..functions.text import ACCEPTED_LANGS, extract_text

_LANGS = pa.array(sorted(ACCEPTED_LANGS), type=pa.string())

# pages per normalize (and quarantine) task
BATCH_ROWS = 256


def guess_kind(blob: bytes) -> str:
    """Document-kind guesser — the GuessDocument analog
    (/root/reference/pkg/handler/processor/guesser/guesser.go): cheap
    structural sniffing, stamped as a metadata column (it never gates —
    malformed HTML still yields best-effort text, matching the
    reference's permissive per-type guesser chain)."""
    if b"</html>" not in blob:
        return "malformed"
    if b"<article" in blob or b"<p>" in blob:
        return "article"
    return "page"


def normalize_batch(batch: pa.Table) -> pa.Table:
    """Arrow in / Arrow out.
    Output: url, warc_ts, document_ref, text, lang, kind."""
    batch = batch.filter(pc.is_in(batch["lang"], value_set=_LANGS))
    html_col = batch["html"]
    texts = []
    drefs = []
    kinds = []
    for i in range(batch.num_rows):
        blob = html_col[i].as_py()
        texts.append(extract_text(blob))
        drefs.append(document_ref(blob))
        kinds.append(guess_kind(blob))
    return pa.table({
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "document_ref": pa.array(drefs, type=pa.string()),
        "text": pa.array(texts, type=pa.string()),
        "lang": batch["lang"],
        "kind": pa.array(kinds, type=pa.string()),
    })


def normalize(ds):
    """pages Dataset → normalized docs Dataset (html dropped)."""
    return ds.map_batches(normalize_batch, batch_format="pyarrow",
                          batch_size=BATCH_ROWS)


def quarantined(ds):
    """Dead-letter dataset: the rows the gate rejects, with a reason.

    The reference logs-and-skips poison documents
    (/root/reference/cmd/guacingest/cmd/ingest.go:121-140); keeping them
    as a queryable Dataset (→ parquet next to the graph tables) is the
    batch-engine upgrade of that: reprocessable, auditable, and the
    row counts reconcile (gated + normalized == input)."""
    def fn(batch: pa.Table) -> pa.Table:
        bad = batch.filter(
            pc.invert(pc.is_in(batch["lang"], value_set=_LANGS)))
        reason = pa.array(["lang_not_accepted"] * bad.num_rows,
                          type=pa.string())
        return pa.table({
            "url": bad["url"],
            "warc_ts": bad["warc_ts"],
            "lang": bad["lang"],
            "reason": reason,
        })
    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=BATCH_ROWS)
