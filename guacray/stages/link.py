"""Entity-linking stage: surface triples → canonically keyed triples.

GUAC analog: the ingest-time enrichment scanners / deps.dev client — a
stateful stage holding a lookup structure in worker state
(/root/reference/pkg/ingestor/parser/common/scanner/scanner.go:39-63).

Ray shape: a callable CLASS passed to ``map_batches(…, concurrency=N)``
— an actor pool.  The alias dictionary is built/deserialized ONCE per
actor in ``__init__`` (broadcast via ``ray.put`` from the driver: one
object-store copy per node, never re-shipped per batch).  Each batch
links only its DISTINCT surfaces (web-corpus mentions repeat heavily)
and scatters the results back to the rows with a vectorized
``index_in`` + ``take``.  At 100 TB the dictionary would be sharded by
alias hash across a larger pool; the lookup path is identical.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .agg import cluster_cpus


class Linker:
    """Actor-pool batch linker.

    ``alias_ref`` is either a plain dict (tests / small runs) or a Ray
    ObjectRef to one (production: ``ray.put(alias_map)`` on the driver).
    """

    def __init__(self, alias_ref=None, seed: int = 42):
        import ray

        if alias_ref is None:
            from ..data.catalog import build_catalog
            self.alias_map = build_catalog(seed).alias_map()
        elif isinstance(alias_ref, dict):
            self.alias_map = alias_ref
        else:
            self.alias_map = ray.get(alias_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.keys import link_surface
        subj, obj = batch["subj_surface"], batch["obj_surface"]
        surfaces = pc.unique(pa.chunked_array(subj.chunks + obj.chunks,
                                              type=subj.type))
        linked = [link_surface(v, self.alias_map)
                  for v in surfaces.to_pylist()]
        fields = [pa.array(vals, type=pa.string())
                  for vals in (zip(*linked) if linked else ((), (), ()))]
        for side in ("subj", "obj"):
            idx = pc.index_in(batch[f"{side}_surface"], value_set=surfaces)
            for name, vals in zip(("type", "key", "name"), fields):
                batch = batch.append_column(f"{side}_{name}", vals.take(idx))
        # stamp content-hash ids here (fused into the same actor pass —
        # a separate map operator would re-serialize the whole table)
        from .canonicalize import add_ids_batch
        return add_ids_batch(batch)


def default_pool_size() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster.

    (max(1, cpus/2), max(2, cpus-2)): min = half the cluster (a min of
    1 leaves most CPUs idle during ramp), max leaves 2 CPUs of headroom
    from 4 CPUs up so downstream task operators always make progress (a
    pool == cluster size deadlocks the streaming executor — round-1
    measurement).  At 2 CPUs the max is the whole cluster, yet builds
    there complete (perfbench runs at that width); at 1 CPU ``link``
    makes the actors CPU-free.
    """
    cpus = cluster_cpus()
    return (max(1, cpus // 2), max(2, cpus - 2))


def link(ds, alias_ref=None, concurrency=None, batch_size: int = 512):
    """The link actor pool: ``concurrency`` actors (default
    ``default_pool_size``), one CPU each at width ≥ 2.  At width 1 the
    actors take no CPU slot: a 1-CPU actor (even a 0.5-CPU one) holds
    the only slot, the 1-CPU read task behind it stays pending, and the
    build makes no progress and raises nothing.

    batch_size is deliberately small: upstream normalize/extract fuse
    into this actor stage, so the batch unit here is PAGES (≈1.5 ms of
    UDF work each) — 512 keeps task granularity high enough that an
    autoscaled pool stays busy instead of 30 actors idling behind 31
    giant tasks."""
    return ds.map_batches(Linker, fn_constructor_kwargs={"alias_ref": alias_ref},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency or default_pool_size(),
                          num_cpus=1 if cluster_cpus() >= 2 else 0)
