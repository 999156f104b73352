"""Two-phase grouped aggregation — the engine's scalable groupby.

A bare ``ds.groupby(keys).aggregate(...)`` shuffles every input row.
This helper implements combiner-style aggregation (the classic
partial/final split, and the skew defence SURVEY.md §4 calls for):

  phase 1: inside ``map_batches``, ``pyarrow.TableGroupBy`` collapses
           each block to ≤1 row per key (vectorized, zero-copy Arrow);
  phase 2: ``exchange`` — an explicit hash bucket column
           (``bucket_of``) + coalesce + ``groupby("bucket").
           map_groups`` merges partials — one vectorized pyarrow
           group_by per bucket, never one Python call per key.

``exchange`` is the engine's ONE keyed wide op: canonicalization,
dedup, near-dup pairing, ANN and ``grouped_agg`` all end in it, so
bucket-count and shuffle changes land in one function.  Its width is
``resolve_buckets``: one bucket per cluster CPU when a combiner feeds
it, with a floor where each reduce call holds a share of the raw input
rows (``ROW_BUCKETS``); the hash joins below read the same width with
their own floor (``JOIN_PARTITIONS``).

Supported ops: sum, count, min, max (count merges by sum).  Averages
are computed by callers as sum/count after the merge — that keeps every
op re-mergeable (the algebraic-aggregate property).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_MERGE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


# floor of an exchange fed raw rows (``bucketed`` and the other row
# stamps, the as-of join, span/near-dup pairing): each reduce call holds
# a 1/B share of the input rows, so B never drops below 32 however
# narrow the cluster
ROW_BUCKETS = 32
# floor of a hash join's partitions: each holds its share of every row
# of both sides.  These paths run only above a 2M-row broadcast
# threshold, which no measured workload reaches, so the floor stays
JOIN_PARTITIONS = 8


def cluster_cpus() -> int:
    """The cluster's width: the one CPU count every sizing rule reads
    (exchange buckets, join partitions, link and delta actor pools).
    A cluster that reports no CPU counts as width 1."""
    import ray
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def resolve_buckets(num_buckets: int | None, floor: int = 1) -> int:
    """Shuffle parallelism: ``max(floor, cluster_cpus())``.

    At the default floor of 1 this is one reduce task per CPU — the
    width of every combiner-fed exchange (``grouped_agg``,
    ``graph_tables``, ``document_summary``).  Those reduce groups are
    canonical-size: the combiner emits at most one row per key per
    block, so a group is bounded by distinct keys, not input rows, and
    each extra bucket costs a whole task per exchange stage — a
    32-bucket floor at 2 CPUs measured ~1.9× the build CPU of 2 buckets
    (BASELINE.md "size the exchange to the cluster").  Skew is the
    combiner's job at any count.

    Exchanges fed raw rows pass ``ROW_BUCKETS`` and hash joins pass
    ``JOIN_PARTITIONS``: their reduce groups grow with the input, so
    the floor bounds one call's share of it.  A ``run_kg`` store pins
    the count its build resolved here in its ledger, for life."""
    if num_buckets is not None:
        return num_buckets
    return max(floor, cluster_cpus())


def bucket_of(t: pa.Table, keys: list[str], num_buckets: int) -> pa.Array:
    """Transient exchange bucket of each row's key tuple.

    Hashes vectorized (pandas ``hash_array``: fixed-key siphash for
    strings, a fixed integer mix for int64 — stable across runs and
    processes), not one hashlib call per row: this runs in the combiner
    hot path of every exchange.  A single integer key hashes natively
    as int64, so equal values share a bucket across int widths (a
    two-sided co-group may key int32 against int64); any other key
    tuple hashes its string-joined form.  Only for in-flight shuffles;
    the persistent store layout uses
    ``functions.hashing.bucket_of_hexid``."""
    import numpy as np
    import pandas as pd
    if len(keys) == 1 and pa.types.is_integer(t.schema.field(keys[0]).type):
        vals = pc.fill_null(pc.cast(t[keys[0]], pa.int64()), 0).to_numpy()
    else:
        parts = [pc.cast(t[k], pa.string()) for k in keys]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, "\x1f")
        vals = joined.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(vals)
    return pa.array((h % num_buckets).astype(np.int32), type=pa.int32())


def bucketed(ds, keys: list[str], num_buckets: int):
    """``ds`` with each row's ``bucket_of`` column appended — the row
    stamp for bucket groupings whose input is not a combiner's (size
    their ``num_buckets`` with ``resolve_buckets(n, ROW_BUCKETS)``)."""
    return ds.map_batches(lambda t: t.append_column(
        "bucket", bucket_of(t, keys, num_buckets)), batch_format="pyarrow")


def exchange(partials, merge_fn, num_buckets: int):
    """Bucketed exchange: ``partials`` carries a ``bucket`` column; each
    bucket's rows reach ONE ``merge_fn(pa.Table)`` call.

    Coalesce the (small) partial blocks to ``num_buckets`` blocks first
    — the sort shuffle moves #map-blocks × #reduce-blocks objects, so
    feeding it hundreds of tiny combiner outputs costs more than the
    sort itself (measured 5× on 550k rows).  Round-4 interleaved A/B at
    1M pages: the repartition wins ~3× at 32 CPUs and ~1.7× at 8 EVEN
    on an already-compacted 23-block checkpoint read (12.5s → 4.1s /
    19.8s → 11.8s for the full exchange) — compact blocks are still not
    bucketed by the exchange key, so it always runs.
    """
    return partials.repartition(num_buckets).groupby("bucket").map_groups(
        merge_fn, batch_format="pyarrow")


def agg_by_name(t: pa.Table, keys: list[str],
                specs: list[tuple[str, str, str]]) -> pa.Table:
    """group_by + aggregate with NAME-based output mapping.

    ``pa.TableGroupBy`` emits aggregate columns named ``<col>_<op>``;
    relying on positional ``rename_columns`` silently mislabels columns
    if the key/aggregate output order ever differs across pyarrow
    versions (keys moved from last to first in pyarrow 14).  Selecting
    by generated name is order-independent.
    """
    agg = t.group_by(keys).aggregate([(c, op) for c, op, _ in specs])
    cols: dict[str, pa.ChunkedArray] = {k: agg[k] for k in keys}
    for c, op, alias in specs:
        cols[alias] = agg[f"{c}_{op}"]
    return pa.table(cols)


def grouped_agg(ds, keys: list[str] | str,
                specs: list[tuple[str, str, str]],
                num_buckets: int | None = None):
    """specs: [(column, op, alias)] with op ∈ {sum,count,min,max}.

    Returns a Dataset with columns keys + aliases (one row per key
    tuple).  count counts NON-NULL values of ``column`` (use a key
    column for row counts).
    """
    num_buckets = resolve_buckets(num_buckets)
    if isinstance(keys, str):
        keys = [keys]
    aliases = [a for _, _, a in specs]

    def partial(batch: pa.Table) -> pa.Table:
        agg = agg_by_name(batch, keys, specs)
        return agg.append_column(
            "bucket", bucket_of(agg, keys, num_buckets))

    def merge(group: pa.Table) -> pa.Table:
        agg = agg_by_name(group, keys,
                          [(a, _MERGE_OP[op], a) for (_, op, _), a
                           in zip(specs, aliases)])
        # counts widen to int64 after the sum-merge
        for (c, op, a) in specs:
            if op == "count":
                i = agg.schema.get_field_index(a)
                agg = agg.set_column(i, a, pc.cast(agg[a], pa.int64()))
        return agg

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None)  # whole-block combiner
    return exchange(partials, merge, num_buckets)


def topk(ds, by: list[str], descending: list[bool], k: int):
    """Exact global top-k without a full sort: each block contributes
    its local head(k) (vectorized Arrow sort_by), so the global sort
    touches O(k × blocks) rows — the same plan shape as the ANN local
    top-k, applied to any ordered limit."""
    order = [(c, "descending" if d else "ascending")
             for c, d in zip(by, descending)]

    def local(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    return ds.map_batches(local, batch_format="pyarrow") \
             .sort(by, descending=descending).limit(k)


def broadcast_lookup(small_df):
    """ray.put a small pandas dim table once for map-side joins.

    Usage: ``ref = broadcast_lookup(df)``; inside a stage,
    ``df = ray.get(ref)`` (in an actor's __init__, or at first batch) —
    the object-store copy is shared per node, never re-shipped.
    """
    import ray
    return ray.put(small_df)


def map_side_join(ds, small_ref, on: str | list[str], how: str = "inner",
                  columns: list[str] | None = None):
    """Broadcast hash join: big Dataset ⋈ small pandas table.

    The Ray-idiomatic replacement for GUAC's noun-ID substitution join
    (/root/reference/pkg/assembler/clients/helpers/bulk.go:120-238) when
    one side is dimension-sized.  For big-big joins use
    ``Dataset.join`` (hash-partitioned) instead.
    """
    import pandas as pd
    import ray

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(small_ref)
        if columns is not None:
            small = small[columns]
        return batch.merge(small, on=on, how=how)

    return ds.map_batches(fn, batch_format="pandas")


def auto_join(left, right, *, on: str, right_on: str,
              num_partitions: int | None = None,
              broadcast_threshold: int = 2_000_000,
              right_rename: dict[str, str] | None = None):
    """Size-aware inner join (the planner decision GUAC never needs —
    its joins are all client-side ID substitution).

    If the right side is below ``broadcast_threshold`` rows it is
    collected and broadcast (map-side hash join: no shuffle, no
    aggregator actors); otherwise fall back to the hash-partitioned
    ``Dataset.join``.  At 100 TB the threshold keeps dimension-sized
    sides on the broadcast path and fact-fact joins on the shuffle path.

    ``right_rename``: project+rename the right side to exactly these
    {old: new} columns INSIDE the join instead of via a map_batches on
    the caller side — a pre-join rename on an already-materialized
    right side would otherwise cost one whole extra Dataset execution
    (measured ~1-2 s each; the main fixed cost of join-heavy
    pipelines like connected components and AllPairs verification).
    """
    import ray
    # materialize once: count() would otherwise execute the right-side
    # pipeline and to_pandas() would re-execute it from scratch
    right = right.materialize()
    n_right = right.count()
    if n_right <= broadcast_threshold:
        import pandas as pd
        small = right.to_pandas()
        if right_rename:
            small = small[list(right_rename)].rename(columns=right_rename)
        ref = ray.put(small)

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(ray.get(ref), left_on=on, right_on=right_on)
        return left.map_batches(fn, batch_format="pandas")
    if right_rename:
        def project(t: pa.Table) -> pa.Table:
            return pa.table({new: t[old]
                             for old, new in right_rename.items()})
        right = right.map_batches(project, batch_format="pyarrow")
    num_partitions = resolve_buckets(num_partitions, JOIN_PARTITIONS)
    return left.join(right, "inner", num_partitions=num_partitions,
                     on=(on,), right_on=(right_on,))


def left_lookup_join(left, right, *, on: str, right_on: str,
                     value_col: str, out: str,
                     default_from: str | None = None,
                     broadcast_threshold: int = 2_000_000,
                     num_partitions: int | None = None):
    """LEFT lookup join: stamp ``out`` = right[value_col] matched on
    key; unmatched rows fall back to left[default_from] (or null).

    The distributed replacement for the "collect a dict to the driver
    and .get() per row" labeling pattern: size-aware like ``auto_join``
    (broadcast Arrow lookup below the threshold, hash-partitioned
    left_outer Dataset.join above), so the lookup table can be any
    size and nothing O(table) reaches the driver.  Both paths keep the
    value column's Arrow type (a missed key is a null, never a float
    upcast).  Right keys must be unique (a duplicate key would fan out
    left rows on the join path)."""
    import ray
    right = right.materialize()
    n_right = right.count()
    if n_right == 0:
        # an empty lookup side collects to a column-less table, so the
        # lookup path can't run; stamp the fallback directly, typed
        # from the right schema when the empty execution preserved one.
        # ``Schema.types`` converts a PandasBlockSchema's dtypes the way
        # a non-empty pandas block converts (``pa.from_numpy_dtype``);
        # an object dtype has no Arrow type and stays untyped
        sch = right.schema(fetch_if_missing=False)
        vtype = (sch.types[sch.names.index(value_col)]
                 if sch is not None and value_col in sch.names else None)
        if not isinstance(vtype, pa.DataType):
            vtype = None

        def stamp(t: pa.Table) -> pa.Table:
            val = (t[default_from] if default_from is not None
                   else pa.nulls(len(t), vtype))
            return t.append_column(out, val)
        return left.map_batches(stamp, batch_format="pyarrow")
    if n_right <= broadcast_threshold:
        small = pa.concat_tables(
            ray.get(right.select_columns([right_on, value_col])
                    .to_arrow_refs()), promote_options="default")
        ref = ray.put((small[right_on].combine_chunks(),
                       small[value_col].combine_chunks()))

        def lookup(t: pa.Table) -> pa.Table:
            keys, vals = ray.get(ref)
            val = vals.take(pc.index_in(t[on], value_set=keys))
            if default_from is not None:
                val = pc.coalesce(val, t[default_from])
            return t.append_column(out, val)
        return left.map_batches(lookup, batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"__lk_key": t[right_on], "__lk_val": t[value_col]})
    right = right.map_batches(project, batch_format="pyarrow")
    num_partitions = resolve_buckets(num_partitions, JOIN_PARTITIONS)
    joined = left.join(right, "left_outer", num_partitions=num_partitions,
                       on=(on,), right_on=("__lk_key",))

    def fin(t: pa.Table) -> pa.Table:
        val = t["__lk_val"]
        if default_from is not None:
            val = pc.coalesce(val, t[default_from])
        t = t.drop_columns([c for c in ("__lk_key", "__lk_val")
                            if c in t.column_names])
        return t.append_column(out, val)
    return joined.map_batches(fin, batch_format="pyarrow")


def asof_join(left, right, *, by_left: str, by_right: str,
              on_left: str, on_right: str, right_cols: list[str],
              num_buckets: int | None = None):
    """As-of join: for each left row, the latest right row with the
    same key and on_right ≤ on_left (inner semantics: unmatched left
    rows drop).

    Ray Data has no native as-of join; the portable expression
    (ray_guide.md) is hash-bucket both sides by key, then
    ``pd.merge_asof`` over the (key, time)-sorted bucket — one
    vectorized merge per bucket.
    """
    import numpy as np
    import pandas as pd

    num_buckets = resolve_buckets(num_buckets, ROW_BUCKETS)

    # unified schema for the co-grouping union: each side null-pads the
    # other's columns (Ray union requires identical schemas)
    lsch = left.schema()
    rsch = right.schema()
    l_fields = list(zip(lsch.names, lsch.types))
    r_use = [by_right, on_right] + right_cols
    r_fields = [(n, t) for n, t in zip(rsch.names, rsch.types)
                if n in r_use]
    all_fields = l_fields + [(n, t) for n, t in r_fields
                             if n not in lsch.names]
    l_names = [n for n, _ in l_fields]

    def prep(side: int, by_col: str):
        def fn(t: pa.Table) -> pa.Table:
            for name, typ in all_fields:
                if name not in t.column_names:
                    t = t.append_column(name, pa.nulls(t.num_rows, type=typ))
            t = t.select([n for n, _ in all_fields])
            t = t.append_column("__side", pa.array([side] * t.num_rows,
                                                   type=pa.int8()))
            return t.append_column("bucket",
                                   bucket_of(t, [by_col], num_buckets))
        return fn

    l = left.map_batches(prep(0, by_left), batch_format="pyarrow")
    r = right.select_columns(r_use).map_batches(prep(1, by_right),
                                                batch_format="pyarrow")

    # dtype restoration: the schema-unifying union null-pads each side's
    # rows into the other's int columns, so pandas upcasts them to
    # float64 — cast back after filtering to the side's own (non-null)
    # rows, and again after the inner filter drops merge_asof's NaNs
    int_types = (pa.int8(), pa.int16(), pa.int32(), pa.int64())
    l_ints = [n for n, t in l_fields if t in int_types]
    r_ints = [n for n, t in r_fields if t in int_types]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        lf = df[df["__side"] == 0][l_names]
        rf = df[df["__side"] == 1][r_use]
        out_cols = l_names + [c for c in r_use if c not in l_names]
        if lf.empty or rf.empty:
            return pd.DataFrame(columns=out_cols)
        # only restore columns fully non-null within the side's OWN rows:
        # a genuine null in the data must not crash the merge task
        lf = lf.astype({c: "int64" for c in l_ints if lf[c].notna().all()})
        rf = rf.astype({c: "int64" for c in r_ints if rf[c].notna().all()})
        lf = lf.sort_values(on_left)
        rf = rf.sort_values(on_right)
        out = pd.merge_asof(lf, rf, left_on=on_left, right_on=on_right,
                            left_by=by_left, right_by=by_right,
                            direction="backward")
        out = out[out[on_right].notna()]
        return out.astype({c: "int64" for c in r_ints
                           if c in out_cols and out[c].notna().all()})

    both = l.union(r)
    return both.groupby("bucket").map_groups(merge, batch_format="pandas")


def semi_join_filter(ds, keys, col: str, anti: bool = False):
    """Semi/anti join by broadcast key set (GUAC's visited-set pattern,
    /root/reference/pkg/ingestor/parser/parser.go:216-220).  At larger
    key cardinalities swap the set for a Bloom filter — same shape.

    ``keys``: a set/list/pa.Array of keys, or an ObjectRef to one.  The
    sorted ``pa.Array`` is built ONCE here and broadcast — per-batch
    work is only the vectorized ``pc.is_in``.
    """
    import ray
    if isinstance(keys, ray.ObjectRef):
        keys = ray.get(keys)
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        # a null join key never matches (SQL semantics); also sorted()
        # would raise on None
        keys = pa.array(sorted(k for k in keys if k is not None))
    elif keys.null_count:
        keys = pc.drop_null(keys)
    if len(keys) == 0:
        return ds if anti else ds.limit(0)
    arr_ref = ray.put(keys)

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch[col], value_set=ray.get(arr_ref))
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def semi_join(left, right, *, on: str, right_on: str | None = None,
              anti: bool = False, broadcast_threshold: int = 2_000_000,
              num_partitions: int | None = None):
    """Distributed semi/anti join: keep left rows whose ``on`` key does
    (semi) / does not (anti) appear in ``right``.

    Size-aware like ``auto_join``: the right side's DISTINCT keys are
    computed first (a dedup — far smaller than the right table); below
    the threshold they broadcast as a sorted array filter, above it the
    decision is a hash-partitioned join against the key set (marker
    column + filter for anti).  Nothing O(left) ever reaches the driver.
    """
    import ray
    right_on = right_on or on

    def distinct_keys(t: pa.Table) -> pa.Table:
        agg = t.group_by(right_on).aggregate([])
        return agg.rename_columns(["__sj_key"]).drop_null()

    keys_ds = right.map_batches(distinct_keys, batch_format="pyarrow",
                                batch_size=None).materialize()
    n = keys_ds.count()
    if n == 0:
        return left if anti else left.limit(0)
    if n <= broadcast_threshold:
        vals = keys_ds.to_pandas()["__sj_key"].tolist()
        return semi_join_filter(left, vals, on, anti=anti)
    num_partitions = resolve_buckets(num_partitions, JOIN_PARTITIONS)

    # big right side: broadcast a Bloom filter of the key set (~1.2 MB /
    # million keys at 1% fp, vs the keys themselves) and pre-filter the
    # left BEFORE the shuffle join.  No false negatives, so:
    #   semi — Bloom-negative rows can never match: drop them up front,
    #          then the exact join de-dups the ~1% false positives;
    #   anti — Bloom-negative rows are DEFINITE keeps (skip the join);
    #          only Bloom-positive rows need the exact anti join.
    # The anti path consumes `left` twice (definite + maybe streams);
    # each consumer re-executes left's lineage rather than pinning
    # O(left) in the object store — for the typical scan+filter left a
    # re-read is far cheaper.  Callers with an expensive left lineage
    # should materialize/checkpoint it first.
    from .sketches import build_bloom
    bloom = build_bloom(keys_ds, "__sj_key", capacity=n)
    bloom_ref = ray.put(bloom.serialize())

    def bloom_mask(t: pa.Table) -> pa.Array:
        from .sketches import Bloom
        b = Bloom.deserialize(ray.get(bloom_ref))
        return pa.array(b.contains_array(
            t[on].to_numpy(zero_copy_only=False)))

    maybe = left.map_batches(
        lambda t: t.filter(bloom_mask(t)), batch_format="pyarrow")
    if not anti:
        joined = maybe.join(keys_ds, "inner", num_partitions=num_partitions,
                            on=(on,), right_on=("__sj_key",))
        # Ray's join may or may not carry the right key column through
        return joined.map_batches(
            lambda t: t.drop_columns([c for c in ("__sj_key",)
                                      if c in t.column_names]),
            batch_format="pyarrow")
    definite = left.map_batches(
        lambda t: t.filter(pc.invert(bloom_mask(t))),
        batch_format="pyarrow")
    marked = keys_ds.map_batches(
        lambda t: t.append_column("__sj_hit",
                                  pa.array([1] * t.num_rows, type=pa.int8())),
        batch_format="pyarrow")
    joined = maybe.join(marked, "left_outer", num_partitions=num_partitions,
                        on=(on,), right_on=("__sj_key",))
    survivors = joined.map_batches(
        lambda t: t.filter(pc.is_null(t["__sj_hit"]))
                   .drop_columns([c for c in ("__sj_key", "__sj_hit")
                                  if c in t.column_names]),
        batch_format="pyarrow")
    return definite.union(survivors)
