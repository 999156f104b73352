"""Deterministic content hashing.

The reference allocates node IDs from an atomic counter behind a global
lock (/root/reference/pkg/assembler/backends/keyvalue/backend.go:234-237)
and dedups edges by an fnv128a hash of identifying fields
(keyvalue/isDependency.go:46-56).  A counter cannot be reproduced under
distributed execution, so every ID here is a content hash: same inputs ⇒
same ID on any worker, any cluster size, any run.  That property is what
makes the whole pipeline idempotent (re-ingest ⇒ byte-identical tables).
"""

from __future__ import annotations

import hashlib

# Separator that cannot occur inside a sanitized key component.
SEP = "\x1f"


def content_id(*parts: str) -> str:
    """128-bit hex id of the joined parts (order-sensitive).

    blake2b(digest_size=16) — stable across platforms/python versions,
    plays the role of the reference's fnv128a edge key.
    """
    h = hashlib.blake2b(SEP.join(parts).encode("utf-8"), digest_size=16)
    return h.hexdigest()


def document_ref(blob: bytes) -> str:
    """Blob-store key of a raw document: ``sha256_<hex>``.

    Mirrors the reference's blob key scheme
    (/root/reference/pkg/events/events.go:77-90).
    """
    return "sha256_" + hashlib.sha256(blob).hexdigest()


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def bucket_of_hexid(ids, num_buckets: int):
    """Vectorized ``int(h[:8], 16) % num_buckets`` over a column of
    lowercase hex content ids.

    The PERSISTENT bucket function of the store layout (the build's
    exchange in ``stages/canonicalize.py``, its publish and every
    writer in ``pipelines/increment.py``) — nothing else.  It is defined entirely by this file (first 32 bits
    of our own content hash), so unlike ``pd.util.hash_array`` it can
    never drift across pandas versions and silently re-route ids to
    different buckets.  In-flight shuffles use ``stages.agg.bucket_of``.
    """
    import numpy as np
    import pyarrow as pa

    if isinstance(ids, (pa.Array, pa.ChunkedArray)):
        ids = ids.to_numpy(zero_copy_only=False)
    arr = np.asarray(ids, dtype="S8")  # first 8 hex chars, ascii
    if arr.size == 0:
        return pa.array([], type=pa.int32())
    raw = _HEX_LUT[np.ascontiguousarray(arr).view(np.uint8).reshape(-1, 8)]
    # the LUT marks any byte outside [0-9a-f] (incl. the NUL padding of
    # an id shorter than 8 chars) with a sentinel: a persistent bucket
    # function must FAIL on format drift (uppercase digests, truncated
    # ids), not silently route rows to wrong buckets — that is exactly
    # the duplicate-row corruption the ledger's BUCKET_HASH_ID stamp
    # exists to prevent
    if raw.max() > 15:
        bad = int(np.argmax((raw > 15).any(axis=1)))
        raise ValueError(
            f"bucket_of_hexid: id {ids[bad]!r} is not >=8 chars of "
            f"lowercase hex — refusing to bucket (layout is persistent; "
            f"see BUCKET_HASH_ID)")
    nib = raw.astype(np.uint32)
    val = (nib << _HEX_SHIFTS).sum(axis=1, dtype=np.uint32)
    return pa.array((val % np.uint32(num_buckets)).astype(np.int32),
                    type=pa.int32())


def _hex_tables():
    import numpy as np
    lut = np.full(256, 255, dtype=np.uint8)  # 255 = invalid-byte sentinel
    for i, c in enumerate("0123456789abcdef"):
        lut[ord(c)] = i
    shifts = (np.uint32(4) * np.arange(7, -1, -1)).astype(np.uint32)
    return lut, shifts


_HEX_LUT, _HEX_SHIFTS = _hex_tables()

# identifier recorded in incremental-store ledgers; bump ONLY with a
# store migration (a mismatch makes ingest refuse, never corrupt)
BUCKET_HASH_ID = "hexid32-v1"
