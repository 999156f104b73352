"""Canonical entity-identity key functions.

Mirrors the *shape* of GUAC's node-identity scheme — a typed trie key
with sorted qualifiers and an explicit empty-component sentinel
(``guac-empty-@@``, /root/reference/pkg/assembler/helpers/package.go:26-99;
artifact keys lowercased alg:digest, helpers/artifact.go:33-43; vuln keys
lowercased type::id, helpers/vuln.go:31-44) — re-targeted at web-text
entities (person / org / product / place).

Key grammar:  ``ent:<type>::<slug>[::k=v&k=v...]``
  - <type>  lowercased entity type
  - <slug>  sanitized canonical name (lowercase, [a-z0-9_] runs joined
            by "-"); empty slug → EMPTY sentinel
  - qualifiers sorted by key (GUAC sorts qualifier keys the same way)

node_id = content_id(node_key) — deterministic 128-bit hex (never a
counter; see functions/hashing.py).
"""

from __future__ import annotations

import re
import urllib.parse

from .hashing import content_id

EMPTY = "guac-empty-@@"  # same sentinel idea as the reference

_SLUG_RE = re.compile(r"[^a-z0-9]+")

ENTITY_TYPES = ("person", "org", "product", "place", "license",
                "identity", "document", "unknown")


def slugify(name: str) -> str:
    """Deterministic sanitization of a surface/canonical name."""
    s = _SLUG_RE.sub("-", name.lower()).strip("-")
    return s or EMPTY


def entity_key(etype: str, name: str, qualifiers: dict[str, str] | None = None) -> str:
    """Canonical node key for a linked entity.

    Qualifiers serialize with the SAME URL-quoted "k=v&k=v" encoding as
    edge props (``functions.text.props_string``) so the one canonical
    serialization is shared by node keys, the ``qualifiers`` column, and
    the quoted needles ``nodes_with_qualifier`` searches with."""
    key = f"ent:{etype.lower()}::{slugify(name)}"
    if qualifiers:
        q = "&".join(
            f"{urllib.parse.quote(k, safe='')}="
            f"{urllib.parse.quote(str(qualifiers[k]), safe='')}"
            for k in sorted(qualifiers))
        key += f"::{q}"
    return key


def fallback_key(surface: str) -> str:
    """Identity minted for an unlinkable mention — the analog of
    GuacGenericPurl fallback minting with URL-escaped segments
    (/root/reference/pkg/assembler/helpers/purl.go:258-295)."""
    return "ent:unknown::" + urllib.parse.quote(surface.strip().lower(), safe="")


def parse_entity_key(key: str) -> tuple[str, str, dict[str, str]]:
    """Inverse of ``entity_key`` — (etype, slug, qualifiers).

    The round-trip analog of PkgToPurl/PurlToPkg
    (/root/reference/pkg/assembler/helpers/purl.go:101-151): a canonical
    key must decompose losslessly so trie-level rollups (group by type,
    type+slug, …) are plain column operations.
    """
    if not key.startswith("ent:"):
        raise ValueError(f"not an entity key: {key!r}")
    body = key[4:]
    parts = body.split("::")
    etype = parts[0]
    slug = parts[1] if len(parts) > 1 else EMPTY
    quals: dict[str, str] = {}
    if len(parts) > 2 and parts[2]:
        for kv in parts[2].split("&"):
            k, _, v = kv.partition("=")
            quals[urllib.parse.unquote(k)] = urllib.parse.unquote(v)
    return etype, slug, quals


def node_id(node_key: str) -> str:
    return content_id("node", node_key)


def edge_id(subj_id: str, predicate: str, obj_id: str,
            props: str = "") -> str:
    """Content key of a canonical edge (subject, predicate, object
    [, props]).

    Typed edge properties participate in identity exactly as in the
    reference, where the edge hash covers the full InputSpec payload
    (keyvalue/isDependency.go:46-56): ``released v3.0`` and ``released
    v4.0`` are DISTINCT edges.  A propless edge hashes identically to
    the pre-props scheme, so existing persisted graphs stay valid.

    Evidence (document_ref/url/warc_ts) lives in the separate evidence
    table, keyed by this edge_id — identity split from evidence keeps
    the edges table small and the evidence table append-only.
    """
    if props:
        return content_id("edge", subj_id, predicate, obj_id, props)
    return content_id("edge", subj_id, predicate, obj_id)


def link_surface(surface: str,
                 alias_map: dict[str, tuple[str, str]]) -> tuple[str, str, str]:
    """surface → (etype, node_key, canonical_name) — THE linking rule,
    shared by the distributed linker stages and the single-threaded
    reference oracle so parity is structural.

    Unlinkable surfaces get a minted fallback identity (the analog of
    GuacGenericPurl, helpers/purl.go:258-295).  A PRODUCT surface that
    carries a trailing version number links to a version-QUALIFIED node
    key (the pkgName→pkgVersion trie level of the reference,
    helpers/package.go:26-99): ``HyperWidget 3.0`` →
    ``ent:product::hyperwidget::version=3.0``.
    """
    # license identifiers type structurally, never via the alias map:
    # a minted LicenseRef-<fnv32a> (functions/text.hash_license — the
    # CertifyLegal inline-text scheme, common/license.go:111-116) or a
    # known SPDX-style id keeps its exact surface as the canonical name
    from .text import KNOWN_LICENSES
    if surface.startswith("LicenseRef-") or surface in KNOWN_LICENSES:
        return "license", entity_key("license", surface), surface
    hit = alias_map.get(surface.lower())
    if hit is None:
        # pkgName-level lookup: an unknown versioned surface whose BASE
        # is a known product links as that product with a version
        # qualifier ("HyperWidget 9.0" → hyperwidget::version=9.0 even
        # if only "HyperWidget" is cataloged) — the trie fallback of
        # helpers/package.go:26-99
        from .text import VERSION_RE
        m = VERSION_RE.match(surface.strip())
        if m:
            base_hit = alias_map.get(m.group("base").lower())
            if base_hit is not None and base_hit[0] == "product":
                etype, canonical = base_hit
                return etype, entity_key(
                    etype, canonical,
                    {"version": m.group("ver")}), canonical
        return "unknown", fallback_key(surface), surface.strip().lower()
    etype, canonical = hit
    return etype, linked_key(surface, etype, canonical), canonical


def linked_key(surface: str, etype: str, canonical: str) -> str:
    """Node key for a resolved (surface, etype, canonical) — the one
    place the version-qualifier rule lives, reached through
    ``link_surface`` by the actor-pool linker and the reference
    oracle alike."""
    quals = None
    if etype == "product":
        from .text import VERSION_RE
        m = VERSION_RE.match(surface.strip())
        if m:
            quals = {"version": m.group("ver")}
    return entity_key(etype, canonical, quals)


def node_qualifiers(node_key: str) -> str:
    """The canonical qualifiers segment of a node key ("" when none) —
    a pure projection, so the nodes table's ``qualifiers`` column needs
    no first-wins ordering."""
    parts = node_key.split("::")
    return parts[2] if len(parts) > 2 else ""
