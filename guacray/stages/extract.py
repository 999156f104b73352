"""Extract stage: normalized docs → raw (surface) triples, exploded.

GUAC analog: the document parsers — per-document typed statement
emission with provenance stamping
(/root/reference/pkg/ingestor/parser/parser.go:84-107,
parser/common/graph_builder.go:62-156).  One input row fans out to
0..N triple rows (the DocumentTree / flat-map explode pattern,
pkg/handler/processor/jsonlines/jsonlines.go:45-65) — expressed as a
``map_batches`` that returns more rows than it receives (cheaper than
``flat_map``: one Python call per batch, not per row).

Provenance columns (url, warc_ts, document_ref) are carried on every
emitted triple, mirroring Origin/Collector/DocumentRef stamping.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.text import extract_raw_triples
from .agg import grouped_agg

# normalized docs per extract task
BATCH_ROWS = 512


def extract_batch(batch: pa.Table) -> pa.Table:
    urls, tss, drefs = [], [], []
    subjs, preds, objs, props = [], [], [], []
    url_c, ts_c, dref_c, text_c = (batch["url"], batch["warc_ts"],
                                   batch["document_ref"], batch["text"])
    for i in range(batch.num_rows):
        triples = extract_raw_triples(text_c[i].as_py())
        if not triples:
            continue
        u, ts, dr = url_c[i].as_py(), ts_c[i].as_py(), dref_c[i].as_py()
        for s, p, o, pr in triples:
            urls.append(u)
            tss.append(ts)
            drefs.append(dr)
            subjs.append(s)
            preds.append(p)
            objs.append(o)
            props.append(pr)
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(tss, type=batch.schema.field("warc_ts").type),
        "document_ref": pa.array(drefs, type=pa.string()),
        "subj_surface": pa.array(subjs, type=pa.string()),
        "predicate": pa.array(preds, type=pa.string()),
        "obj_surface": pa.array(objs, type=pa.string()),
        # typed statement properties (assembler.go:51-194 InputSpec
        # analog) — canonical sorted "k=v&k=v" string, "" when none
        "props": pa.array(props, type=pa.string()),
    })


def extract(ds):
    """normalized docs Dataset → raw triples Dataset (exploded)."""
    return ds.map_batches(extract_batch, batch_format="pyarrow",
                          batch_size=BATCH_ROWS)


def identifier_strings(triples_ds, num_buckets: int | None = None):
    """Distinct mention surfaces with counts — the collectsub feedback
    feed (parsers push found identifier strings so collectors can
    discover new work, /root/reference/pkg/ingestor/ingestor.go:189-201,
    pkg/collectsub/collectsub/collectsub.proto:21-58).  In-doc exact
    dedup (RemoveDuplicateIdentifiers, common/helpers.go:121-149)
    generalized to corpus-wide two-phase dedup.

    Output: surface, n_mentions.
    """
    def stack(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"surface": batch["subj_surface"]}),
            pa.table({"surface": batch["obj_surface"]}),
        ])

    return grouped_agg(
        triples_ds.map_batches(stack, batch_format="pyarrow",
                               batch_size=None),
        ["surface"], [("surface", "count", "n_mentions")], num_buckets)
