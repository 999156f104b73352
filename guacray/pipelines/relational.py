"""Relational / analytic query library over the driver's test tables.

These are the engine's generic operator surface — grouped aggregates,
broadcast + hash-partitioned joins, semi/anti joins, top-k, windowed
and sessionized event analytics — each with a DuckDB-equivalent SQL
string (``SQL`` dict) used by the driver's correctness gate.  They play
the role of GUAC's read-side query/analytics layer (SURVEY.md §2.6):
e.g. ``top dependents ranking`` is the same shape as
``events_user_topk`` (groupby → count → global top-k,
/root/reference/pkg/dependencies/dependents.go:49-183).

Float policy: money sums rounded to 2 dp, ratios/averages to 4 dp, in
BOTH the Ray code and the SQL, so order-of-addition fp noise cannot
flip the driver's value-hash.

Every reader prunes columns at the parquet scan.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.rounding import pc_round
from ..stages.agg import (ROW_BUCKETS, agg_by_name, auto_join, bucket_of,
                          bucketed, grouped_agg, resolve_buckets, semi_join,
                          topk)
from ..stages.ann import brute_force_topk, lsh_topk, make_query_vector
from ..stages.dedup import (exact_dedup, jaccard_pairs, minhash_lsh_pairs,
                            simhash_pairs, span_dedup)
from ..stages.ngrams import decontaminate, repeated_ngrams
from ..stages.quality import (lang_id, norm_fingerprint, quality_scores,
                              repetition_metrics, token_counts,
                              winnow_fingerprints)


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _round_cols(dp: int, *cols):
    def fn(batch: pa.Table) -> pa.Table:
        for c in cols:
            i = batch.schema.get_field_index(c)
            batch = batch.set_column(
                i, c, pc_round(pc.cast(batch[c], pa.float64()), dp))
        return batch
    return fn


# ---------------------------------------------------------------- TPC-H-ish

def q1_pricing_summary(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=[
        "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
        "l_discount", "l_shipdate"])
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        return t.append_column("disc_price", pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])))
    ds = ds.map_batches(prep, batch_format="pyarrow")
    out = grouped_agg(ds, ["l_returnflag", "l_linestatus"], [
        ("l_quantity", "sum", "sum_qty"),
        ("l_extendedprice", "sum", "sum_base_price"),
        ("disc_price", "sum", "sum_disc_price"),
        ("l_quantity", "count", "count_order"),
    ])

    def finish(t: pa.Table) -> pa.Table:
        cnt = pc.cast(t["count_order"], pa.float64())
        t = t.append_column("avg_qty", pc_round(pc.divide(t["sum_qty"], cnt), 4))
        t = t.append_column("avg_price",
                            pc_round(pc.divide(t["sum_base_price"], cnt), 4))
        return t
    out = out.map_batches(finish, batch_format="pyarrow")
    return out.map_batches(
        _round_cols(2, "sum_qty", "sum_base_price", "sum_disc_price"),
        batch_format="pyarrow")


def top_orders_by_revenue(sf_dir: str):
    """q3-ish: top 10 BUILDING-segment orders by revenue.

    Semi-join filter by broadcast custkey set, then ``auto_join``
    lineitem ⋈ orders (broadcast below threshold, hash-partitioned
    ``Dataset.join`` above), grouped revenue, global top-k."""
    cust = rd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], pa.scalar("BUILDING"))),
        batch_format="pyarrow")
    orders = rd.read_parquet(_t(sf_dir, "orders"), columns=[
        "o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])
    # distributed semi join (size-aware: broadcast keys below threshold,
    # hash-partitioned join above — nothing O(left) on the driver)
    orders = semi_join(orders, cust, on="o_custkey", right_on="c_custkey")
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=[
        "l_orderkey", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda t: t.append_column("revenue_item", pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]))),
        batch_format="pyarrow").select_columns(["l_orderkey", "revenue_item"])
    joined = auto_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    out = grouped_agg(joined, ["l_orderkey", "o_orderdate", "o_orderpriority"],
                      [("revenue_item", "sum", "revenue")])
    out = out.map_batches(_round_cols(2, "revenue"), batch_format="pyarrow")
    out = topk(out, ["revenue", "l_orderkey"], [True, False], 10)
    return out.map_batches(
        lambda t: t.rename_columns(
            ["o_orderkey" if c == "l_orderkey" else c for c in t.column_names]),
        batch_format="pyarrow")


def _region_nation_agg(sf_dir: str):
    """Finest-level (region, nation) revenue rollup input: 3-dim
    broadcast join + grouped sum, UNROUNDED (shared by
    ``region_revenue`` and ``region_rollup``)."""
    sup = pd.read_parquet(_t(sf_dir, "supplier"),
                          columns=["s_suppkey", "s_nationkey"])
    nat = pd.read_parquet(_t(sf_dir, "nation"))
    reg = pd.read_parquet(_t(sf_dir, "region"))
    dim = (sup.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
              .merge(reg, left_on="n_regionkey", right_on="r_regionkey"))
    dim = dim[["s_suppkey", "n_name", "r_name"]]
    dim_ref = ray.put(dim)

    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=[
        "l_suppkey", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda t: t.append_column("revenue_item", pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]))),
        batch_format="pyarrow")
    def merge_fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(dim_ref),
                           left_on="l_suppkey", right_on="s_suppkey")
    joined = li.map_batches(merge_fn, batch_format="pandas")
    return grouped_agg(joined, ["r_name", "n_name"], [
        ("revenue_item", "sum", "revenue"),
        ("l_suppkey", "count", "n_items")])


def region_revenue(sf_dir: str):
    """q5-ish: revenue by region/nation via a 3-dim broadcast join."""
    out = _region_nation_agg(sf_dir)
    return out.map_batches(_round_cols(2, "revenue"), batch_format="pyarrow")


def region_rollup(sf_dir: str):
    """GROUP BY ROLLUP(r_name, n_name): (region, nation) revenue plus
    region subtotals and the grand total in one result ('ALL' filler).

    Scale shape: only the FINEST level aggregates the fact table; the
    coarser levels re-aggregate the (tiny) finest result — subtotals
    never re-scan lineitem, the hierarchical-re-aggregation plan for
    rollup/cube.  Rounding applies once, per emitted row, after all
    re-aggregation (matching SQL's per-rollup-row round of the
    full-precision sum)."""
    cols = ["r_name", "n_name", "revenue", "n_items"]
    finest = _region_nation_agg(sf_dir).materialize()
    respec = [("revenue", "sum", "revenue"), ("n_items", "sum", "n_items")]

    def fill(name_cols: dict[str, str | None]):
        def fn(t: pa.Table) -> pa.Table:
            arrs = {}
            for c in cols:
                src = name_cols.get(c, c)
                arrs[c] = (pa.array(["ALL"] * t.num_rows, pa.string())
                           if src is None else t[src])
            return pa.table(arrs)
        return fn

    lvl2 = finest.map_batches(fill({}), batch_format="pyarrow")
    lvl1 = grouped_agg(finest, ["r_name"], respec) \
        .map_batches(fill({"n_name": None}), batch_format="pyarrow")
    const = finest.map_batches(
        lambda t: pa.table({"k": pa.array(["ALL"] * t.num_rows),
                            "revenue": t["revenue"],
                            "n_items": t["n_items"]}),
        batch_format="pyarrow")
    lvl0 = grouped_agg(const, ["k"], respec) \
        .map_batches(fill({"r_name": "k", "n_name": None}),
                     batch_format="pyarrow")
    out = lvl2.union(lvl1).union(lvl0)
    return out.map_batches(_round_cols(2, "revenue"), batch_format="pyarrow")


def brand_revenue(sf_dir: str):
    part = pd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_brand"])
    part_ref = ray.put(part)
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=[
        "l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    li = li.map_batches(
        lambda t: t.append_column("revenue_item", pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"]))),
        batch_format="pyarrow")

    def merge_fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(part_ref),
                           left_on="l_partkey", right_on="p_partkey")
    joined = li.map_batches(merge_fn, batch_format="pandas")
    out = grouped_agg(joined, ["p_brand"], [
        ("revenue_item", "sum", "revenue"),
        ("l_quantity", "sum", "total_qty")])
    return out.map_batches(_round_cols(2, "revenue", "total_qty"),
                           batch_format="pyarrow")


def orders_priority_stats(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderpriority", "o_totalprice"])
    out = grouped_agg(ds, ["o_orderpriority"], [
        ("o_totalprice", "count", "n_orders"),
        ("o_totalprice", "sum", "total_price")])
    return out.map_batches(_round_cols(2, "total_price"),
                           batch_format="pyarrow")


def customers_without_orders(sf_dir: str):
    """Anti join by broadcast key set (Bloom filter at scale):
    customers with no completed ('F') order."""
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderstatus"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], pa.scalar("F"))),
        batch_format="pyarrow")
    cust = rd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_name", "c_mktsegment"])
    return semi_join(cust, orders, on="c_custkey", right_on="o_custkey",
                     anti=True)


def segment_order_stats(sf_dir: str):
    cust = pd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_mktsegment"])
    cust_ref = ray.put(cust)
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_totalprice"])

    def merge_fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(cust_ref),
                           left_on="o_custkey", right_on="c_custkey")
    joined = orders.map_batches(merge_fn, batch_format="pandas")
    out = grouped_agg(joined, ["c_mktsegment"], [
        ("o_totalprice", "count", "n_orders"),
        ("o_totalprice", "sum", "revenue")])
    return out.map_batches(_round_cols(2, "revenue"), batch_format="pyarrow")


def customer_order_counts(sf_dir: str):
    """LEFT OUTER JOIN + aggregate, expressed join-free as a tagged
    UNION + grouped sum: every customer contributes a zero partial,
    every order a (1, price) partial — ONE exchange, nothing broadcast,
    both sides stream (the at-scale plan for outer aggregate joins).
    Assumes the FK holds (every o_custkey exists in customer), which
    LEFT JOIN semantics require anyway for these columns."""
    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_totalprice"])
    zeros = cust.map_batches(
        lambda t: pa.table({
            "c_custkey": t["c_custkey"],
            "cnt": pa.array(np.zeros(t.num_rows, np.int64)),
            "price": pa.array(np.zeros(t.num_rows, np.float64))}),
        batch_format="pyarrow")
    part = orders.map_batches(
        lambda t: pa.table({
            "c_custkey": t["o_custkey"],
            "cnt": pa.array(np.ones(t.num_rows, np.int64)),
            "price": pc.cast(t["o_totalprice"], pa.float64())}),
        batch_format="pyarrow")
    out = grouped_agg(zeros.union(part), ["c_custkey"], [
        ("cnt", "sum", "n_orders"), ("price", "sum", "revenue")])
    return out.map_batches(_round_cols(2, "revenue"), batch_format="pyarrow")


# ------------------------------------------------------------------ events

def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type (streaming-analog)."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "ts", "value"])
    ds = ds.map_batches(
        lambda t: t.append_column(
            "hour", pc.floor_temporal(t["ts"], unit="hour")),
        batch_format="pyarrow")
    out = grouped_agg(ds, ["event_type", "hour"], [
        ("value", "count", "n_events"),
        ("value", "sum", "total_value")])
    return out.map_batches(_round_cols(2, "total_value"),
                           batch_format="pyarrow")


def events_user_topk(sf_dir: str, k: int = 20):
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "value"])
    out = grouped_agg(ds, ["user_id"], [
        ("value", "count", "n_events"),
        ("value", "sum", "total_value")])
    out = out.map_batches(_round_cols(2, "total_value"),
                          batch_format="pyarrow")
    return topk(out, ["total_value", "user_id"], [True, False], k)


def _user_set_flags(sf_dir: str, big_purchase: float = 200.0):
    """Per-user presence flags for two row predicates (clicked; made a
    purchase above the threshold) — one exchange of (user, flag, flag)
    partials; INTERSECT/EXCEPT finish locally on the grouped result."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_type", "value"])
    thr = pa.scalar(big_purchase, type=pa.float64())

    def flags(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "fa": pc.cast(pc.equal(t["event_type"], pa.scalar("click")),
                          pa.int64()),
            "fb": pc.cast(pc.and_(
                pc.equal(t["event_type"], pa.scalar("purchase")),
                pc.greater(pc.cast(t["value"], pa.float64()), thr)),
                pa.int64())})

    return grouped_agg(ds.map_batches(flags, batch_format="pyarrow"),
                       ["user_id"],
                       [("fa", "max", "fa"), ("fb", "max", "fb")])


def _flag_select(out, want_fb: int):
    one = pa.scalar(1, pa.int64())
    fb = pa.scalar(want_fb, pa.int64())
    return out.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["fa"], one),
                                   pc.equal(t["fb"], fb)))
                   .select(["user_id"]),
        batch_format="pyarrow")


def users_click_and_purchase(sf_dir: str):
    """Distributed INTERSECT: users with both a click and a >200
    purchase — set-ops as one flag-aggregation exchange, never a
    shuffle join."""
    return _flag_select(_user_set_flags(sf_dir), 1)


def users_click_not_purchase(sf_dir: str):
    """Distributed EXCEPT: users who clicked but never made a >200
    purchase."""
    return _flag_select(_user_set_flags(sf_dir), 0)


def events_type_stats(sf_dir: str):
    """Distributed second-moment statistics via MERGEABLE MOMENTS: each
    batch contributes (n, Σx, Σx², Σy, Σy², Σxy) partials and stddev /
    correlation finish from the merged sums — the one-pass shape for
    distributed stats (no per-group row collection, one exchange of
    6-number partials).  Degenerate groups (n == 1, or zero variance on
    either side) yield NaN where SQL yields NULL — both denote
    "undefined" and neither occurs in the driver tables."""
    from ..functions.rounding import np_round_half_away
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        x = pc.cast(t["value"], pa.float64())
        y = pc.cast(t["user_id"], pa.float64())
        return pa.table({"event_type": t["event_type"], "x": x,
                         "x2": pc.multiply(x, x), "y": y,
                         "y2": pc.multiply(y, y), "xy": pc.multiply(x, y)})

    out = grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                      ["event_type"], [
        ("x", "count", "n"), ("x", "sum", "sx"), ("x2", "sum", "sx2"),
        ("y", "sum", "sy"), ("y2", "sum", "sy2"), ("xy", "sum", "sxy")])

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy().astype(np.float64)
        sx, sx2 = t["sx"].to_numpy(), t["sx2"].to_numpy()
        sy, sy2 = t["sy"].to_numpy(), t["sy2"].to_numpy()
        sxy = t["sxy"].to_numpy()
        vx, vy = sx2 - sx * sx / n, sy2 - sy * sy / n
        return pa.table({
            "event_type": t["event_type"], "n": t["n"],
            "avg_value": pa.array(np_round_half_away(sx / n, 4)),
            "sd_value": pa.array(np_round_half_away(
                np.sqrt(vx / (n - 1)), 4)),
            "corr_value_user": pa.array(np_round_half_away(
                (sxy - sx * sy / n) / np.sqrt(vx * vy), 4)),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def events_sessions(sf_dir: str, gap_minutes: int = 30):
    """Session windows: per-user event runs split at >30-min gaps.

    Ray Data has no event-time windows; the idiomatic expression is
    hash-bucket by user → ``map_groups`` doing vectorized pandas
    sessionization over (user, ts)-sorted rows (ray_guide.md pattern).
    One Python call per *bucket*, not per user.
    """
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id"])
    ds = bucketed(ds, ["user_id"], resolve_buckets(None, ROW_BUCKETS))

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        g = df.groupby("user_id", sort=False)
        new_sess = (df["ts"] - g["ts"].shift()).gt(gap) | g.cumcount().eq(0)
        df["session_num"] = new_sess.astype("int64").groupby(
            df["user_id"], sort=False).cumsum()
        out = (df.groupby(["user_id", "session_num"], sort=False)
                 .agg(n_events=("event_id", "size"),
                      session_start=("ts", "min"),
                      session_end=("ts", "max"))
                 .reset_index())
        return out

    return ds.groupby("bucket").map_groups(sessionize, batch_format="pandas")


def top_order_per_customer(sf_dir: str):
    """Per-group top-1 (window rank): each customer's highest-value
    order.  The row_number()-over-partition pattern: hash-bucket by
    key, vectorized idxmax within each bucket."""
    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_custkey", "o_orderkey", "o_totalprice"])
    ds = bucketed(ds, ["o_custkey"], resolve_buckets(None, ROW_BUCKETS))

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        # deterministic tie-break: highest price, then lowest orderkey
        df = df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True])
        out = df.groupby("o_custkey", sort=False).head(1)
        return out[["o_custkey", "o_orderkey", "o_totalprice"]]

    return ds.groupby("bucket").map_groups(top1, batch_format="pandas")


def orders_rank_window(sf_dir: str):
    """The full rank-window family in one pass: RANK / DENSE_RANK over
    (o_totalprice DESC) and ROW_NUMBER / NTILE(4) over (o_totalprice
    DESC, o_orderkey), partitioned by customer.  Same distributed shape
    as the other windows: hash-bucket by key, vectorized pandas ranks
    per bucket (one Python call per bucket, never per group)."""
    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_custkey", "o_orderkey", "o_totalprice"])
    ds = bucketed(ds, ["o_custkey"], resolve_buckets(None, ROW_BUCKETS))

    def ranks(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True])
        g = df.groupby("o_custkey", sort=False)
        df["rnk"] = g["o_totalprice"].rank(
            method="min", ascending=False).astype("int64")
        df["drnk"] = g["o_totalprice"].rank(
            method="dense", ascending=False).astype("int64")
        rn = (g.cumcount() + 1).to_numpy()
        df["rn"] = rn
        n = g["o_orderkey"].transform("size").to_numpy()
        # SQL NTILE(4): the first n%4 tiles get ceil(n/4) rows, the
        # rest floor(n/4) — derived from row_number, fully vectorized
        q, r = n // 4, n % 4
        head = r * (q + 1)
        df["tile"] = np.where(
            rn <= head, (rn - 1) // np.maximum(q + 1, 1),
            r + (rn - head - 1) // np.maximum(q, 1)) + 1
        return df[["o_custkey", "o_orderkey", "rnk", "drnk", "rn", "tile"]]

    return ds.groupby("bucket").map_groups(ranks, batch_format="pandas")


def events_gap_us(sf_dir: str):
    """Lag window: microseconds since the user's previous event (-1 for
    the first).  The per-key ordered-window pattern: hash-bucket by
    user, vectorized pandas diff within each bucket."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts"])
    ds = bucketed(ds, ["user_id"], resolve_buckets(None, ROW_BUCKETS))

    def lag_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        gap = df.groupby("user_id", sort=False)["ts"].diff()
        df["gap_us"] = (gap.dt.total_seconds() * 1_000_000) \
            .round().fillna(-1).astype("int64")
        return df[["event_id", "user_id", "gap_us"]]

    return ds.groupby("bucket").map_groups(lag_fn, batch_format="pandas")


def events_asof_order(sf_dir: str):
    """As-of join: each event matched to the user's most recent order at
    or before the event time (user_id ⇔ o_custkey in the synthetic
    star schema).  Inner semantics: events before any order drop."""
    from ..stages.agg import asof_join
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts"])
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderdate",
                                      "o_orderkey"])
    # dedup to ONE order per (custkey, date): merge_asof picks the last
    # row within equal timestamps while SQL ASOF has no such tiebreak —
    # make the join key unique so both semantics coincide
    orders = grouped_agg(orders, ["o_custkey", "o_orderdate"],
                         [("o_orderkey", "max", "o_orderkey")])
    out = asof_join(ev, orders, by_left="user_id", by_right="o_custkey",
                    on_left="ts", on_right="o_orderdate",
                    right_cols=["o_orderkey"])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_orderdate": t["o_orderdate"],
        })
    return out.map_batches(project, batch_format="pyarrow")


def events_sliding_avg(sf_dir: str, window_s: int = 3600):
    """Sliding event-time window: per-event trailing-1h average of
    `value` within the user's own stream.  Ray Data has no window
    operator; the expression is hash-bucket by key + per-bucket
    vectorized pandas time-rolling over (user, ts)-sorted rows —
    equivalent to SQL `RANGE INTERVAL 1 HOUR PRECEDING`."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts", "value"])
    ds = bucketed(ds, ["user_id"], resolve_buckets(None, ROW_BUCKETS))

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import np_round_half_away
        if df.empty:
            return df.assign(avg_1h=0.0)[["event_id", "user_id", "avg_1h"]]
        df = df.sort_values(["user_id", "ts", "event_id"])
        # aggregate per DISTINCT (user, ts) first so equal-timestamp
        # peers are all inside each other's window (SQL RANGE frame
        # semantics: peers included), then ONE vectorized two-pointer
        # pass over every user at once: offset each user's timestamps
        # into disjoint integer ranges so a single searchsorted yields
        # every trailing-window start — no Python-per-user loop.
        per = (df.groupby(["user_id", "ts"], sort=True)["value"]
                 .agg(["sum", "count"]).reset_index())
        ts = per["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        win = np.int64(window_s) * 1_000_000
        uid = per["user_id"].to_numpy()
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(new_user)
        urank = np.cumsum(new_user) - 1
        span = ts.max() - ts.min() + np.int64(1)
        key = urank.astype(np.int64) * (span + win) + (ts - ts.min())
        left = np.searchsorted(key, key - win, side="left")
        left = np.maximum(left, starts[urank])  # never cross a user
        # window sums must be EXACT or 4-dp rounding can flip at
        # midpoints: values are fixed-point decimals, so integer
        # cumsums carry no float error (fall back to extended precision
        # for genuinely fractional inputs)
        sums = per["sum"].to_numpy()
        scaled = sums * 100.0
        idx = np.arange(len(per)) + 1
        if np.allclose(scaled, np.rint(scaled), atol=1e-6):
            cs = np.concatenate(
                [[0], np.cumsum(np.rint(scaled).astype(np.int64))])
            num = (cs[idx] - cs[left]) / 100.0
        else:
            cs = np.concatenate(
                [[0], np.cumsum(sums, dtype=np.longdouble)])
            num = (cs[idx] - cs[left]).astype(np.float64)
        cc = np.concatenate(
            [[0], np.cumsum(per["count"].to_numpy(dtype=np.int64))])
        per["avg_1h"] = np_round_half_away(num / (cc[idx] - cc[left]), 4)
        out = df.merge(per[["user_id", "ts", "avg_1h"]],
                       on=["user_id", "ts"], how="left")
        return out[["event_id", "user_id", "avg_1h"]]

    return ds.groupby("bucket").map_groups(roll, batch_format="pandas")


def events_running_total(sf_dir: str):
    """Cumulative window (ROWS UNBOUNDED PRECEDING): per-user running
    total of `value` in (ts, event_id) order — the remaining classic
    window frame next to lag/sliding/session/rank.  Same expression
    pattern: hash-bucket by user, vectorized pandas cumsum per bucket."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts", "value"])
    ds = bucketed(ds, ["user_id"], resolve_buckets(None, ROW_BUCKETS))

    def run_tot(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away
        df = df.sort_values(["user_id", "ts", "event_id"])
        cum = df.groupby("user_id", sort=False)["value"].cumsum()
        df["running_total"] = [round_half_away(v, 2) for v in cum]
        return df[["event_id", "user_id", "running_total"]]

    return ds.groupby("bucket").map_groups(run_tot, batch_format="pandas")


def events_first_type(sf_dir: str):
    """first_value window: each user's first event_type in (ts,
    event_id) order — one row per user."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])
    ds = bucketed(ds, ["user_id"], resolve_buckets(None, ROW_BUCKETS))

    def first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        out = df.groupby("user_id", sort=False).head(1)
        return out[["user_id", "event_type"]].rename(
            columns={"event_type": "first_type"})

    return ds.groupby("bucket").map_groups(first, batch_format="pandas")


def orders_status_pivot(sf_dir: str):
    """Conditional (FILTER) aggregation / pivot: per-priority order
    counts split by status — indicator columns inside the combiner, so
    the exchange stays one two-phase grouped sum."""
    ds = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderpriority", "o_orderstatus"])

    def indicators(t: pa.Table) -> pa.Table:
        out = {"o_orderpriority": t["o_orderpriority"]}
        for status in ("F", "O", "P"):
            out[f"n_{status.lower()}"] = pc.cast(
                pc.equal(t["o_orderstatus"], pa.scalar(status)),
                pa.int64())
        return pa.table(out)

    ds = ds.map_batches(indicators, batch_format="pyarrow")
    return grouped_agg(ds, ["o_orderpriority"], [
        ("n_f", "sum", "n_f"), ("n_o", "sum", "n_o"),
        ("n_p", "sum", "n_p")])


def region_nation_list(sf_dir: str):
    """Ordered string aggregation (collect_list → join): nation names
    per region, comma-joined in name order — deterministic under any
    block layout because the merge sorts before joining."""
    nat = rd.read_parquet(_t(sf_dir, "nation"),
                          columns=["n_name", "n_regionkey"])
    reg = pd.read_parquet(_t(sf_dir, "region"),
                          columns=["r_regionkey", "r_name"])
    reg_ref = ray.put(reg)

    def merge_fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(reg_ref),
                           left_on="n_regionkey", right_on="r_regionkey")
    joined = nat.map_batches(merge_fn, batch_format="pandas")

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("r_name")["n_name"]
                  .apply(lambda s: ",".join(sorted(s)))
                  .reset_index().rename(columns={"n_name": "nations"}))

    return joined.groupby("r_name").map_groups(agg, batch_format="pandas")


def lineitem_quantiles(sf_dir: str):
    """Holistic aggregate via an exact MERGEABLE histogram: per-flag
    median/p90 quantity.

    A naive groupby(flag).map_groups hands each reducer a full group —
    ⅓ of the table in one task, OOM at 100×.  l_quantity is
    low-cardinality, so the scale-safe exact plan is two-phase: combine
    (flag, value) counts per block, merge counts in the bucketed
    exchange (the histogram is algebraic), then compute quantile_cont
    from the weighted histogram — every task sees O(#distinct) rows.
    High-cardinality columns use the KLL sketch instead
    (stages/sketches.py, ``approx_quantiles``).
    """
    from ..stages.sketches import weighted_quantile_cont
    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_returnflag", "l_quantity"])
    hist = grouped_agg(ds, ["l_returnflag", "l_quantity"],
                       [("l_quantity", "count", "n")])

    def q(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.rounding import round_half_away
        v = df["l_quantity"].to_numpy()
        c = df["n"].to_numpy()
        return pd.DataFrame({
            "l_returnflag": [df["l_returnflag"].iloc[0]],
            "median_qty": [round_half_away(
                weighted_quantile_cont(v, c, 0.5), 4)],
            "p90_qty": [round_half_away(
                weighted_quantile_cont(v, c, 0.9), 4)],
        })

    return hist.groupby("l_returnflag").map_groups(q, batch_format="pandas")


def lineitem_quantiles_kll(sf_dir: str, k: int = 200):
    """Approximate global price quantiles via the mergeable KLL sketch
    (the high-cardinality quantile path; rows-only oracle — the sketch
    is approximate by construction, its error bound is property-tested
    in tests/)."""
    from ..stages.sketches import approx_quantiles
    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_extendedprice"])
    qs = [0.1, 0.5, 0.9, 0.99]
    est = approx_quantiles(ds, "l_extendedprice", qs, k=k)
    return pa.table({
        "q": pa.array(qs, type=pa.float64()),
        "est_price": pa.array([round(float(e), 2) for e in est],
                              type=pa.float64()),
    })


def events_distinct_users(sf_dir: str):
    """count(DISTINCT) via two-level exchange: dedup (type, user) pairs
    first (combiner collapses per block), then count per type."""
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "user_id"])
    pairs = grouped_agg(ds, ["event_type", "user_id"],
                        [("user_id", "count", "n")])
    out = grouped_agg(pairs, ["event_type"], [("user_id", "count", "n_users")])
    return out


def mention_topk(sf_dir: str, k: int = 5):
    """Explode → group → global top-k (the dependents-ranking shape on
    the extraction output)."""
    out = grouped_agg(doc_mentions(sf_dir), ["mention"],
                      [("doc_id", "count", "n_mentions")])
    return topk(out, ["n_mentions", "mention"], [True, False], k)


# --------------------------------------------------------------- documents

def doc_exact_dedup(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return exact_dedup(ds)


def doc_pii_scrub(sf_dir: str):
    """PII redaction census (emails / IPv4 / SSN-shaped ids → typed
    placeholders) with the scrubbed-text fingerprint — SQL-checked
    end-to-end (the oracle is GENERATED from the same pattern table,
    so engine and SQL can never disagree silently)."""
    from ..stages.quality import pii_scrub
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return pii_scrub(ds)


def doc_top_words_by_lang(sf_dir: str, k: int = 10):
    """Vocabulary mining: the k most frequent words per language with
    their rank — the corpus census a tokenizer/BPE training prep needs
    (SQL-checked against a DuckDB window-rank derivation).

    Shape: vectorized explode + per-batch count combiner, ONE grouped
    exchange on (lang, word), then a per-block top-k prune (<= k rows
    per lang leave each block) before the final per-lang selection —
    the full vocabulary never converges on one node."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["lang", "text"])

    def explode_count(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t["text"], " ")
        tbl = pa.table({
            "lang": pc.take(t["lang"], pc.list_parent_indices(words)),
            "word": pc.list_flatten(words),
        })
        return agg_by_name(tbl, ["lang", "word"],
                           [("word", "count", "n_occ")])

    counts = grouped_agg(
        ds.map_batches(explode_count, batch_format="pyarrow"),
        ["lang", "word"], [("n_occ", "sum", "n_occ")])

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        # deterministic tie-break: count desc, then word asc
        df = df.sort_values(["lang", "n_occ", "word"],
                            ascending=[True, False, True])
        return df.groupby("lang", sort=False).head(k)

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_occ", "word"],
                            ascending=[False, True]).head(k).copy()
        df["rk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df[["lang", "word", "n_occ", "rk"]]

    pruned = counts.map_batches(local_topk, batch_format="pandas")
    return pruned.groupby("lang").map_groups(final_topk,
                                             batch_format="pandas")


def doc_tfidf_topk(sf_dir: str, k: int = 5):
    """Per-document top-k keywords by tf·idf (stages/quality.tfidf_topk)
    — SQL-checked value-for-value against a DuckDB window-rank
    derivation over the same split-on-space tokenization."""
    from ..stages.quality import tfidf_topk
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return tfidf_topk(ds, k=k)


def doc_span_dedup(sf_dir: str, w: int = 15):
    """C4-style span-level dedup census: per document, how many of its
    non-overlapping 15-word spans duplicate a span seen earlier in the
    corpus (SQL-checked value for value against a DuckDB window-rank
    re-derivation)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return span_dedup(ds, w=w)


def doc_token_counts(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return token_counts(ds)


def doc_quality(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return quality_scores(ds)


def doc_norm_fingerprint(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return norm_fingerprint(ds)


def doc_lang_stats(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "n_chars"])
    return grouped_agg(ds, ["lang"], [
        ("n_chars", "count", "n_docs"),
        ("n_chars", "sum", "total_chars")])


MENTION_VOCAB = ("spark", "hash", "join", "sort", "scan", "merge",
                 "stream", "batch", "window", "table")


def doc_mentions(sf_dir: str):
    """Explode-extract parity op: split text, keep vocabulary words —
    the SQL-checkable miniature of the KG extract stage (flat-map
    explode with provenance)."""
    vocab = pa.array(MENTION_VOCAB, type=pa.string())
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        # fully vectorized explode: split → flatten with parent
        # indices → vocabulary membership filter (no Python per row)
        words = pc.split_pattern(batch["text"], " ")
        flat = pc.list_flatten(words)
        parents = pc.list_parent_indices(words)
        mask = pc.is_in(flat, value_set=vocab)
        return pa.table({
            "doc_id": pc.take(batch["doc_id"],
                              pc.filter(parents, mask)),
            "mention": pc.filter(flat, mask),
        })
    return ds.map_batches(fn, batch_format="pyarrow")


def doc_repeated_ngrams(sf_dir: str, k: int = 3, min_docs: int = 3):
    """Boilerplate mining: word-3-grams occurring in >= 3 distinct
    docs — the template-text detection primitive (SQL-checked)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return repeated_ngrams(ds, k=k, min_docs=min_docs)


def doc_decontaminate(sf_dir: str, k: int = 3, modulus: int = 50):
    """Benchmark decontamination: per-doc count of word-3-grams shared
    with the held-out 'benchmark' slice (doc_id % 50 == 0, a
    deterministic stand-in for an eval suite).  The benchmark gram set
    broadcasts; the corpus streams (SQL-checked)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def split(keep_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % modulus) == 0
            return t.filter(pa.array(m if keep_bench else ~m))
        return fn

    bench = ds.map_batches(split(True), batch_format="pyarrow")
    corpus = ds.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(corpus, bench, k=k)


def doc_minhash_pairs(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds)


def doc_simhash_pairs(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return simhash_pairs(ds)


def doc_jaccard_pairs(sf_dir: str):
    """EXACT word-3-gram Jaccard similarity join (prefix-filtered
    AllPairs) — unlike the MinHash/SimHash approximations this one is
    value-for-value SQL-checkable."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return jaccard_pairs(ds, threshold=0.5)


def doc_lang_id(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text", "lang"])
    return lang_id(ds)


def doc_repetition(sf_dir: str):
    """Gopher/MassiveText within-document repetition metrics (dup-word
    / dup-2-gram / top-2-gram fractions) — SQL-checked value for value
    against a DuckDB LATERAL-unnest re-derivation."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return repetition_metrics(ds, k=2)


def doc_winnow(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    fp = winnow_fingerprints(ds)

    def summarize(batch: pa.Table) -> pa.Table:
        fps = batch["fingerprints"].to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_fp": pa.array([len(f) for f in fps], type=pa.int64()),
            "fp_checksum": pa.array(
                [int(np.bitwise_xor.reduce(np.array(f, dtype=np.uint64)))
                 if f else 0 for f in fps],
                type=pa.uint64()),
        })
    return fp.map_batches(summarize, batch_format="pyarrow")


# -------------------------------------------------------------- embeddings

def ann_brute_topk(sf_dir: str, k: int = 50):
    q = make_query_vector(64)
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    return brute_force_topk(ds, q, k=k)


def ann_brute_topk_multi(sf_dir: str, k: int = 20):
    """Batched similarity search: 4 broadcast queries answered in one
    pass over the embeddings (one matmul per batch against the shared
    query matrix) — SQL-checked per query against a DuckDB cross join
    + windowed top-k."""
    from ..stages.ann import brute_force_topk_multi, make_query_matrix
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    return brute_force_topk_multi(ds, make_query_matrix(4, 64), k=k)


def ann_lsh_topk(sf_dir: str, k: int = 50):
    q = make_query_vector(64)
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    return lsh_topk(ds, q, k=k)


def ann_ivf_topk(sf_dir: str, k: int = 50):
    """IVF probed approximate top-k (rows-only; recall vs brute force
    is pytest-gated — test_ivf_topk_recall_vs_brute)."""
    from ..stages.ann import ivf_topk, ivf_train
    q = make_query_vector(64)
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    cents = ivf_train(ds, n_centroids=16)
    return ivf_topk(ds, q, cents, k=k, nprobe=6)


def embedding_centroids(sf_dir: str):
    from ..stages.ann import label_centroids
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["label", "embedding"])
    return label_centroids(ds)


def doc_stratified_sample(sf_dir: str, per_group: int = 20, seed: int = 7):
    """Deterministic stratified sample: ``per_group`` docs per language,
    selected by md5-hash order (a seeded, engine-independent shuffle —
    the same ranking is expressible in SQL, so this sampling op is
    fully oracle-checked, unlike RNG-based sampling)."""
    import hashlib
    num_buckets = resolve_buckets(None, ROW_BUCKETS)
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "lang"])

    def rank_key(t: pa.Table) -> pa.Table:
        keys = [hashlib.md5(f"{seed}|{d}".encode()).hexdigest()
                for d in t["doc_id"].to_pylist()]
        t = t.append_column("rk", pa.array(keys, type=pa.string()))
        return t.append_column("bucket",
                               bucket_of(t, ["lang"], num_buckets))

    ds = ds.map_batches(rank_key, batch_format="pyarrow")

    def take(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lang", "rk"])
        out = df.groupby("lang", sort=False).head(per_group)
        return out[["doc_id", "lang"]]

    return ds.groupby("bucket").map_groups(take, batch_format="pandas")


def doc_sample(sf_dir: str, fraction: float = 0.2, seed: int = 7):
    """Seeded random sample (rows-only oracle: RNGs differ across
    engines by construction)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "lang", "n_chars"])
    return ds.random_sample(fraction, seed=seed)


def media_features(sf_dir: str, n: int = 128):
    """Multimodal decode query: deterministic REAL-format media table
    (P6 PPM / 24-bit BMP images, y4m videos, PCM WAV audio) →
    actor-pool decode + feature stage with the real pure-Python
    kernels for all three modalities (rows-only; containers outside
    these formats dead-letter via the ``error`` column — see
    stages/multimodal.py)."""
    from ..stages.multimodal import (extract_media_features,
                                     synth_real_media_table)
    media = rd.from_arrow(synth_real_media_table(n))
    feats = extract_media_features(media, decoder="real")

    # summarize the vector column to scalars (list cells don't survive
    # order-insensitive hashing/sorting in compare harnesses)
    def summarize(t: pa.Table) -> pa.Table:
        arrs = [np.asarray(f, dtype=np.float64)
                for f in t["features"].to_pylist()]
        return pa.table({
            "media_id": t["media_id"],
            "kind": t["kind"],
            "payload_sha256": t["payload_sha256"],
            "feat_dim": pa.array([len(a) for a in arrs], type=pa.int64()),
            "feat_norm": pa.array(
                [round(float(np.linalg.norm(a)), 4) for a in arrs],
                type=pa.float64()),
        })
    return feats.map_batches(summarize, batch_format="pyarrow")


def media_frames(sf_dir: str, n: int = 128):
    """Multimodal frame-sampling query: REAL-format media table →
    box-filter resize (images) → y4m frame-sample (videos), all with
    the real pure-Python kernels — frames are REAL pixels, summarized
    to scalars for the compare harness (rows-only)."""
    import hashlib

    from ..stages.multimodal import (resize_images, sample_frames,
                                     synth_real_media_table)
    media = rd.from_arrow(synth_real_media_table(n))
    frames = sample_frames(resize_images(media, target=(64, 64),
                                         decoder="real"),
                           decoder="real")

    def summarize(t: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": t["media_id"],
            "frame_no": t["frame_no"],
            "ts_ms": t["ts_ms"],
            "frame_sha256": pa.array(
                [hashlib.sha256(f).hexdigest() for f in
                 t["frame"].to_pylist()], type=pa.string()),
            "error": t["error"],
        })
    return frames.map_batches(summarize, batch_format="pyarrow")


def embedding_near_dup_pairs(sf_dir: str):
    """The driver's embeddings are uniform-random vectors, so true
    near-dups (cos ≥ 0.9) don't exist by construction — the query runs
    the operator at a similarity level the data actually contains
    (p99.9 pairwise cos ≈ 0.38 at sf0.01) so the output demonstrates
    live signal; the 0.9-threshold behavior is covered by the planted
    near-dup pytest (test_embedding_near_dups)."""
    from ..stages.ann import embedding_near_dups
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    return embedding_near_dups(ds, threshold=0.3, n_planes=4)


def doc_curation_report(sf_dir: str):
    from .curate import curation_report
    return curation_report(sf_dir)


def embedding_label_counts(sf_dir: str):
    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["label", "vec_id"])
    return grouped_agg(ds, ["label"], [("vec_id", "count", "n_vecs")])


# ------------------------------------------------------------------- SQL

def _query_vec_sql() -> str:
    q = make_query_vector(64)
    return "[" + ", ".join(repr(float(x)) for x in q) + "]"


def _query_matrix_sql() -> str:
    """The broadcast query matrix as a UNION ALL of literal rows."""
    from ..stages.ann import make_query_matrix
    rows = []
    for j, row in enumerate(make_query_matrix(4, 64)):
        vec = "[" + ", ".join(repr(float(x)) for x in row) + "]"
        rows.append(f"SELECT CAST({j} AS BIGINT) AS query_id, {vec} AS q")
    return " UNION ALL ".join(rows)


SQL: dict[str, str] = {
    "q1_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2) AS sum_qty,
               round(sum(l_extendedprice), 2) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
               count(*) AS count_order,
               round(sum(l_quantity) / count(*), 4) AS avg_qty,
               round(sum(l_extendedprice) / count(*), 4) AS avg_price
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "top_orders_by_revenue": """
        SELECT o_orderkey, o_orderdate, o_orderpriority,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
        GROUP BY o_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, o_orderkey
        LIMIT 10
    """,
    "region_revenue": """
        SELECT r_name, n_name,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
               count(*) AS n_items
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY r_name, n_name
    """,
    "brand_revenue": """
        SELECT p_brand,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
               round(sum(l_quantity), 2) AS total_qty
        FROM lineitem JOIN part ON l_partkey = p_partkey
        GROUP BY p_brand
    """,
    "orders_priority_stats": """
        SELECT o_orderpriority, count(*) AS n_orders,
               round(sum(o_totalprice), 2) AS total_price
        FROM orders GROUP BY o_orderpriority
    """,
    "customers_without_orders": """
        SELECT c_custkey, c_name, c_mktsegment
        FROM customer
        WHERE NOT EXISTS (SELECT 1 FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_orderstatus = 'F')
    """,
    "segment_order_stats": """
        SELECT c_mktsegment, count(*) AS n_orders,
               round(sum(o_totalprice), 2) AS revenue
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """,
    "events_hourly": """
        SELECT event_type, date_trunc('hour', ts) AS hour,
               count(*) AS n_events, round(sum(value), 2) AS total_value
        FROM events GROUP BY event_type, date_trunc('hour', ts)
    """,
    "events_user_topk": """
        SELECT user_id, count(*) AS n_events,
               round(sum(value), 2) AS total_value
        FROM events GROUP BY user_id
        ORDER BY total_value DESC, user_id
        LIMIT 20
    """,
    "events_sessions": """
        WITH o AS (
            SELECT user_id, ts, event_id,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_sess
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ), s AS (
            SELECT user_id, ts, event_id,
                   CAST(sum(new_sess) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_num
            FROM o
        )
        SELECT user_id, session_num, count(*) AS n_events,
               min(ts) AS session_start, max(ts) AS session_end
        FROM s GROUP BY user_id, session_num
    """,
    "top_order_per_customer": """
        SELECT o_custkey, o_orderkey, o_totalprice FROM (
            SELECT o_custkey, o_orderkey, o_totalprice,
                   row_number() OVER (PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rn
            FROM orders)
        WHERE rn = 1
    """,
    "customer_order_counts": """
        SELECT c_custkey, count(o_orderkey) AS n_orders,
               round(coalesce(sum(o_totalprice), 0), 2) AS revenue
        FROM customer LEFT JOIN orders ON o_custkey = c_custkey
        GROUP BY c_custkey
    """,
    "events_type_stats": """
        SELECT event_type, count(*) AS n,
               round(avg(value), 4) AS avg_value,
               round(stddev_samp(value), 4) AS sd_value,
               round(corr(value, user_id), 4) AS corr_value_user
        FROM events GROUP BY event_type
    """,
    "users_click_and_purchase": """
        SELECT user_id FROM events WHERE event_type = 'click'
        INTERSECT
        SELECT user_id FROM events
        WHERE event_type = 'purchase' AND value > 200
    """,
    "users_click_not_purchase": """
        SELECT user_id FROM events WHERE event_type = 'click'
        EXCEPT
        SELECT user_id FROM events
        WHERE event_type = 'purchase' AND value > 200
    """,
    "orders_rank_window": """
        SELECT o_custkey, o_orderkey,
               CAST(rank() OVER wp AS BIGINT) AS rnk,
               CAST(dense_rank() OVER wp AS BIGINT) AS drnk,
               CAST(row_number() OVER wf AS BIGINT) AS rn,
               CAST(ntile(4) OVER wf AS BIGINT) AS tile
        FROM orders
        WINDOW wp AS (PARTITION BY o_custkey ORDER BY o_totalprice DESC),
               wf AS (PARTITION BY o_custkey
                      ORDER BY o_totalprice DESC, o_orderkey)
    """,
    "events_gap_us": """
        SELECT event_id, user_id,
               coalesce(epoch_us(ts) - epoch_us(lag(ts) OVER
                   (PARTITION BY user_id ORDER BY ts, event_id)), -1)
                   AS gap_us
        FROM events
    """,
    "events_asof_order": """
        WITH uo AS (
            SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
            FROM orders GROUP BY o_custkey, o_orderdate
        )
        SELECT e.event_id, e.user_id, uo.o_orderkey, uo.o_orderdate
        FROM events e
        ASOF JOIN uo ON e.user_id = uo.o_custkey
                    AND e.ts >= uo.o_orderdate
    """,
    "events_sliding_avg": """
        SELECT event_id, user_id,
               round(avg(value) OVER (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW), 4) AS avg_1h
        FROM events
    """,
    "events_running_total": """
        SELECT event_id, user_id,
               round(sum(value) OVER (PARTITION BY user_id
                     ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING), 2) AS running_total
        FROM events
    """,
    "events_first_type": """
        SELECT DISTINCT user_id,
               first_value(event_type) OVER (PARTITION BY user_id
                   ORDER BY ts, event_id) AS first_type
        FROM events
    """,
    "orders_status_pivot": """
        SELECT o_orderpriority,
               count(*) FILTER (WHERE o_orderstatus = 'F') AS n_f,
               count(*) FILTER (WHERE o_orderstatus = 'O') AS n_o,
               count(*) FILTER (WHERE o_orderstatus = 'P') AS n_p
        FROM orders GROUP BY o_orderpriority
    """,
    "region_nation_list": """
        SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations
        FROM nation JOIN region ON n_regionkey = r_regionkey
        GROUP BY r_name
    """,
    "lineitem_quantiles": """
        SELECT l_returnflag,
               round(quantile_cont(l_quantity, 0.5), 4) AS median_qty,
               round(quantile_cont(l_quantity, 0.9), 4) AS p90_qty
        FROM lineitem GROUP BY l_returnflag
    """,
    "events_distinct_users": """
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
    """,
    "mention_topk": """
        SELECT mention, count(*) AS n_mentions FROM (
            SELECT unnest(list_filter(string_split(text, ' '),
                                      x -> x IN {vocab})) AS mention
            FROM documents)
        GROUP BY mention
        ORDER BY n_mentions DESC, mention
        LIMIT 5
    """.format(vocab="(" + ", ".join(f"'{w}'" for w in MENTION_VOCAB) + ")"),
    "doc_stratified_sample": """
        SELECT doc_id, lang FROM (
            SELECT doc_id, lang,
                   row_number() OVER (PARTITION BY lang
                       ORDER BY md5('7|' || CAST(doc_id AS VARCHAR))) AS rn
            FROM documents)
        WHERE rn <= 20
    """,
    "doc_exact_dedup": """
        SELECT md5(text) AS text_hash, min(doc_id) AS doc_id,
               count(*) AS n_copies
        FROM documents GROUP BY md5(text)
    """,
    # exact all-pairs 3-gram Jaccard (O(n²) is fine at oracle scale;
    # the engine side prunes with prefix filtering, which has perfect
    # recall, so the two must agree value for value).
    # regexp_extract_all('\S+') == Python str.split() tokenization.
    "doc_jaccard_pairs": r"""
        WITH sh AS (
            SELECT doc_id,
                   CASE WHEN len(w) >= 3 THEN list_distinct(list_transform(
                            generate_series(1, len(w) - 2),
                            i -> array_to_string(w[i:i+2], ' ')))
                        ELSE [array_to_string(w, ' ')] END AS s
            FROM (SELECT doc_id,
                         regexp_extract_all(lower(text), '\S+') AS w
                  FROM documents)
            WHERE len(w) > 0
        ), cand AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   len(list_intersect(a.s, b.s)) AS i,
                   len(a.s) AS na, len(b.s) AS nb
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id)
        SELECT doc_a, doc_b, round(i * 1.0 / (na + nb - i), 6) AS jaccard
        FROM cand WHERE i * 1.0 / (na + nb - i) >= 0.5
    """,
    "region_rollup": """
        SELECT COALESCE(r_name, 'ALL') AS r_name,
               COALESCE(n_name, 'ALL') AS n_name,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
               count(*) AS n_items
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY ROLLUP(r_name, n_name)
    """,
    # single-space split == the engine's split_pattern(' ') tokenizer;
    # gcounts is deliberately NON-distinct (repetition needs total and
    # max counts per gram)
    "doc_repetition": """
        WITH words AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), wstats AS (
            SELECT doc_id, count(*) AS n_words,
                   count(DISTINCT word) AS nd_words
            FROM words, LATERAL unnest(w) AS t(word)
            GROUP BY doc_id
        ), gcounts AS (
            SELECT doc_id, array_to_string(w[i:i+1], ' ') AS g,
                   count(*) AS c
            FROM words,
                 LATERAL unnest(generate_series(1, len(w) - 1)) AS t(i)
            GROUP BY doc_id, g
        ), gstats AS (
            SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_grams,
                   count(*) AS nd_grams, max(c) AS max_gram
            FROM gcounts GROUP BY doc_id
        )
        SELECT wstats.doc_id, n_words,
               round(1 - nd_words / CAST(n_words AS DOUBLE), 4)
                   AS dup_word_frac,
               n_grams,
               round(1 - nd_grams / CAST(n_grams AS DOUBLE), 4)
                   AS dup_gram_frac,
               round(max_gram / CAST(n_grams AS DOUBLE), 4)
                   AS top_gram_frac
        FROM wstats JOIN gstats USING (doc_id)
    """,
    # single-space split == the engine's split_pattern(' ') tokenizer;
    # rank tie-break (count desc, word asc) matches the engine's sort
    "doc_top_words_by_lang": """
        WITH words AS (
            SELECT lang, string_split(text, ' ') AS w FROM documents
        ), wc AS (
            SELECT lang, word, COUNT(*) AS n_occ
            FROM words, LATERAL unnest(w) AS t(word)
            GROUP BY lang, word
        ), ranked AS (
            SELECT lang, word, n_occ,
                   ROW_NUMBER() OVER (PARTITION BY lang
                                      ORDER BY n_occ DESC, word) AS rk
            FROM wc)
        SELECT lang, word, n_occ, rk FROM ranked WHERE rk <= 10
    """,
    # tf needs no grouping across docs (one row per doc); idf doubles
    # are bit-equal to the engine's (same integer tf/df/N inputs, same
    # libm ln), so the (score DESC, word) window rank orders identically
    "doc_tfidf_topk": """
        WITH words AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), tf AS (
            SELECT doc_id, word, COUNT(*) AS tf
            FROM words, LATERAL unnest(w) AS t(word)
            GROUP BY doc_id, word
        ), df AS (
            SELECT word, COUNT(*) AS df FROM tf GROUP BY word
        ), nn AS (
            SELECT COUNT(*) AS n FROM documents
        ), ranked AS (
            SELECT tf.doc_id, tf.word,
                   tf.tf * ln(CAST(nn.n AS DOUBLE) / df.df) AS score,
                   ROW_NUMBER() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY tf.tf * ln(CAST(nn.n AS DOUBLE) / df.df)
                                    DESC, tf.word) AS rk
            FROM tf JOIN df USING (word) CROSS JOIN nn)
        SELECT doc_id, word, score, rk FROM ranked WHERE rk <= 5
    """,
    # single-space split == the engine's split_pattern(' ') tokenizer;
    # non-overlapping full 15-word spans (the < w tail is dropped on
    # both sides); first-wins order = (doc_id, span_idx), exactly the
    # engine's packed-int64 MIN
    "doc_span_dedup": """
        WITH words AS (
            SELECT doc_id, string_split(text, ' ') AS ws FROM documents
        ), spans AS (
            SELECT doc_id, CAST(u.i AS BIGINT) - 1 AS span_idx,
                   array_to_string(ws[(u.i-1)*15+1 : u.i*15], ' ') AS span
            FROM words,
                 UNNEST(range(1, CAST(len(ws) // 15 AS BIGINT) + 1)) AS u(i)
        ), flagged AS (
            SELECT doc_id, span,
                   ROW_NUMBER() OVER (PARTITION BY span
                                      ORDER BY doc_id, span_idx) AS rn
            FROM spans)
        SELECT doc_id, COUNT(*) AS n_spans,
               CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_dup_spans
        FROM flagged GROUP BY doc_id
    """,
    # single-space split == the engine's split_pattern(' ') tokenizer;
    # DISTINCT inside `ng` == the engine's per-document gram dedup
    "doc_repeated_ngrams": """
        WITH words AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), ng AS (
            SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS ngram
            FROM words,
                 LATERAL unnest(generate_series(1, len(w) - 2)) AS t(i))
        SELECT ngram, count(*) AS n_docs
        FROM ng GROUP BY ngram HAVING count(*) >= 3
    """,
    "doc_decontaminate": """
        WITH words AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), ng AS (
            SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS ngram
            FROM words,
                 LATERAL unnest(generate_series(1, len(w) - 2)) AS t(i)
        ), bench AS (
            SELECT DISTINCT ngram FROM ng WHERE doc_id % 50 = 0)
        SELECT g.doc_id, count(*) AS n_hits
        FROM ng g JOIN bench USING (ngram)
        WHERE g.doc_id % 50 <> 0
        GROUP BY g.doc_id
    """,
    "doc_token_counts": r"""
        SELECT doc_id,
               len(string_split(text, ' ')) AS n_ws_tokens,
               len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_re_tokens
        FROM documents
    """,
    "doc_quality": r"""
        SELECT doc_id,
               length(text) AS n_chars_txt,
               len(string_split(text, ' ')) AS n_words,
               round(length(regexp_replace(text, '[^a-z]', '', 'g'))
                     / greatest(length(text), 1), 4) AS alpha_ratio,
               round((length(text) - len(string_split(text, ' ')) + 1)
                     / len(string_split(text, ' ')), 4) AS mean_word_len,
               round(least(len(string_split(text, ' ')), 100) / 100.0 * 0.7
                     + round(length(regexp_replace(text, '[^a-z]', '', 'g'))
                             / greatest(length(text), 1), 4) * 0.3, 4) AS quality
        FROM documents
    """,
    "doc_norm_fingerprint": r"""
        SELECT md5(lower(regexp_replace(text, '\s+', ' ', 'g'))) AS fp,
               min(doc_id) AS doc_id, count(*) AS n_docs
        FROM documents GROUP BY 1
    """,
    "doc_lang_stats": """
        SELECT lang, count(*) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS total_chars
        FROM documents GROUP BY lang
    """,
    "doc_mentions": """
        SELECT doc_id,
               unnest(list_filter(string_split(text, ' '),
                                  x -> x IN {vocab})) AS mention
        FROM documents
    """.format(vocab="(" + ", ".join(f"'{w}'" for w in MENTION_VOCAB) + ")"),
    # CAST to DOUBLE[]: list_cosine_similarity on the parquet FLOAT[]
    # column computes in float32, whose error (~1e-7) can land on the
    # other side of a 4-dp half-boundary than the engine's float64
    # (observed once at sf0.1); both sides must do float64 arithmetic
    "ann_brute_topk": f"""
        SELECT vec_id,
               round(list_cosine_similarity(
                   CAST(embedding AS DOUBLE[]), {_query_vec_sql()}), 4)
                   AS cos_sim
        FROM embeddings
        ORDER BY cos_sim DESC, vec_id
        LIMIT 50
    """,
    "ann_brute_topk_multi": f"""
        SELECT query_id, vec_id, cos_sim FROM (
            SELECT q.query_id, e.vec_id,
                   round(list_cosine_similarity(
                       CAST(e.embedding AS DOUBLE[]), q.q), 4)
                       AS cos_sim,
                   row_number() OVER (PARTITION BY q.query_id
                       ORDER BY round(list_cosine_similarity(
                                    CAST(e.embedding AS DOUBLE[]),
                                    q.q), 4) DESC,
                                e.vec_id) AS rn
            FROM ({_query_matrix_sql()}) q CROSS JOIN embeddings e)
        WHERE rn <= 20
    """,
    "embedding_label_counts": """
        SELECT label, count(*) AS n_vecs FROM embeddings GROUP BY label
    """,
    "embedding_centroids": """
        SELECT label, i.i AS dim,
               round(avg(embedding[i.i]), 4) AS avg_v
        FROM embeddings, range(1, 65) i(i)
        GROUP BY label, i.i
    """,
}


def _pii_scrub_sql() -> str:
    """Generated FROM stages.quality.PII_PATTERNS so the oracle can
    never drift from the engine's patterns or staging order (each
    pattern's count is taken over text already scrubbed by the earlier
    ones).  DuckDB single-quoted strings keep backslashes literal, so
    the RE2 patterns pass through unescaped."""
    from ..stages.quality import PII_PATTERNS
    ctes = ["s0 AS (SELECT doc_id, text AS t0 FROM documents)"]
    carried: list[str] = []
    for i, (name, pat, repl) in enumerate(PII_PATTERNS):
        keep = ", ".join(["doc_id"] + carried)
        ctes.append(
            f"s{i + 1} AS (SELECT {keep}, "
            f"len(regexp_extract_all(t{i}, '{pat}')) AS n_{name}, "
            f"regexp_replace(t{i}, '{pat}', '{repl}', 'g') AS t{i + 1} "
            f"FROM s{i})")
        carried.append(f"n_{name}")
    names = ", ".join(carried)
    n = len(PII_PATTERNS)
    return (f"WITH {', '.join(ctes)} SELECT doc_id, {names}, "
            f"md5(t{n}) AS scrubbed_fp FROM s{n}")


SQL["doc_pii_scrub"] = _pii_scrub_sql()
