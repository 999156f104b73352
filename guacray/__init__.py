"""guacray — a from-scratch Ray-Data-native knowledge-graph construction
engine with the query/data-processing capabilities of guacsec/guac
(reference at /root/reference, studied for semantics only; see SURVEY.md).

Layout:
  data/       deterministic synthetic pages generator (fixture input)
  functions/  pure scalar/vector functions: text extraction, keys, hashing
  sources/    collectors (pruned parquet, raw binary, compressed decode,
              recursive document-tree unpack, DSSE verify)
  stages/     Ray Data stage builders (normalize, extract, link,
              canonicalize, dedup, quality, ann, sketches, components,
              multimodal, agg)
  pipelines/  wired end-to-end pipelines (kg flagship, the store writer
              and its lineage ledger, relational queries)
  query/      read-side graph query module (neighbors, path, top-k)
"""

__version__ = "0.2.0"
