"""Query registry: one callable per implemented operator/pipeline.

Each function takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table.  Every aggregate column is explicitly named to match the
DuckDB oracle in ``bb_ocr_ray.pipelines.oracles`` (the driver's
correctness gate hashes values after sorting columns by name).

Determinism conventions used throughout:
  - float aggregates are rounded to a fixed decimal count on BOTH
    sides (tiny summation-order drift is absorbed by rounding);
  - ratio-shaped outputs are emitted as integer (numerator,
    denominator) pairs instead of floats wherever possible;
  - every top-k has a total tiebreak order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from bb_ocr_ray.sources.tables import read_parquet_clean as _read_parquet
from ray.data.aggregate import Count, Max, Min, Sum

from bb_ocr_ray.stages.coarse import coarse_agg

from bb_ocr_ray.functions.hashing import md5_hex
from bb_ocr_ray.functions.textstats import (
    n_tokens_series,
    stop_token_counts,
)


def _t(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def _round_sql(x, decimals: int):
    """Round half AWAY from zero — SQL round() semantics.  pandas/numpy
    .round() is banker's (half to even), which diverges from the DuckDB
    oracles on exactly-representable midpoints (e.g. 817/32 at 4 dp)."""
    f = 10.0 ** decimals
    return np.sign(x) * np.floor(np.abs(x) * f + 0.5) / f


def _grouped_per_key(ds, key: str, fn, coarse_buckets: int | None = None):
    """See stages/coarse.grouped_per_key — natural keys (user_id, url,
    content hash) are row-cardinality, and Ray grouped ops pay
    per-GROUP overhead, so no query hands Ray a high-cardinality
    grouping key directly."""
    from bb_ocr_ray.stages.coarse import grouped_per_key

    return grouped_per_key(ds, key, fn, coarse_buckets)


# ---------------------------------------------------------------------------
# Relational: aggregation with partial pre-agg (TPC-H Q1 shape)
# ---------------------------------------------------------------------------
def q1_pricing_summary(sf_dir: str):
    """Filter -> partial per-batch agg (combiner) -> small final groupby.

    The partial agg inside map_batches collapses each ~64k-row batch to
    ≤ 6 rows (|returnflag|×|linestatus|), so the shuffle moves a few
    hundred partial rows instead of every lineitem row.

    Money sums are INTEGER-CENT exact: prices/discounts are 2-dp
    decimals, so ext_cents = round(price*100) and disc_pct =
    round(disc*100) are integers and the revenue sum is an int64 fold
    (unit 1e-4 dollars) that is order-independent — round-2 on a
    float sum stopped absorbing summation-order drift at sf0.1
    (600k rows; caught by the full sf0.1 gate), while integer sums
    are hash-identical to the oracle at ANY scale (int64 headroom
    ~1e18: good to ~sf1000)."""
    ds = _read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        if batch.empty:
            return pd.DataFrame(
                {c: pd.Series([], dtype=d) for c, d in
                 [("l_returnflag", "object"), ("l_linestatus", "object"),
                  ("sum_qty", "float64"), ("base_cents", "int64"),
                  ("disc_units", "int64"), ("count_order", "int64")]}
            )
        ext_c = _round_sql(batch["l_extendedprice"] * 100.0,
                           0).astype("int64")
        disc_pct = _round_sql(batch["l_discount"] * 100.0,
                              0).astype("int64")
        batch = batch.assign(base_cents=ext_c,
                             disc_units=ext_c * (100 - disc_pct))
        g = batch.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            base_cents=("base_cents", "sum"),
            disc_units=("disc_units", "sum"),
            count_order=("l_quantity", "size"),
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("base_cents", alias_name="base_cents"),
        Sum("disc_units", alias_name="disc_units"),
        Sum("count_order", alias_name="count_order"),
    ).to_pandas()
    out["avg_qty"] = _round_sql(out["sum_qty"] / out["count_order"], 4)
    out["sum_qty"] = _round_sql(out["sum_qty"], 2)
    out["sum_base_price"] = _round_sql(
        out["base_cents"].astype("int64") / 100.0, 2)
    out["sum_disc_price"] = _round_sql(
        out["disc_units"].astype("int64") / 10000.0, 2)
    out["count_order"] = out["count_order"].astype("int64")
    return out.drop(columns=["base_cents", "disc_units"])


# ---------------------------------------------------------------------------
# Relational: filter + projection (read-level column pruning)
# ---------------------------------------------------------------------------
def q_filter_project(sf_dir: str):
    import pyarrow.compute as pc

    ds = _read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
    )
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 400000.0)),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Relational: per-group top-k
# ---------------------------------------------------------------------------
def q_topk_per_group(sf_dir: str):
    ds = _read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
    )

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        # combiner: per-batch top-3 per group bounds shuffle input
        return (
            batch.sort_values(["o_orderpriority", "o_totalprice", "o_orderkey"],
                              ascending=[True, False, True], kind="mergesort")
            .groupby("o_orderpriority", as_index=False)
            .head(3)
        )

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True], kind="mergesort").head(3)
        g = g.assign(rank=pd.Series(range(1, len(g) + 1), dtype="int64").values)
        return g

    return (
        ds.map_batches(local_topk, batch_format="pandas")
        .groupby("o_orderpriority")
        .map_groups(final_topk, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Relational: distinct / count-distinct
# ---------------------------------------------------------------------------
def q_distinct(sf_dir: str):
    ds = _read_parquet(_t(sf_dir, "customer"),
                         columns=["c_mktsegment", "c_nationkey"])
    return ds.groupby(["c_mktsegment", "c_nationkey"]).map_groups(
        lambda g: g.head(1), batch_format="pandas"
    )


def q_count_distinct(sf_dir: str):
    ds = _read_parquet(_t(sf_dir, "customer"),
                         columns=["c_mktsegment", "c_nationkey"])
    # two-level: distinct pairs (with per-batch local distinct combiner),
    # then count per segment; plus a straight row count per segment
    local = ds.map_batches(
        lambda b: b.drop_duplicates(), batch_format="pandas"
    )
    pairs = local.groupby(["c_mktsegment", "c_nationkey"]).map_groups(
        lambda g: g.head(1), batch_format="pandas"
    )
    n_nations = pairs.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_nations")
    ).to_pandas()
    n_customers = ds.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_customers")
    ).to_pandas()
    out = n_nations.merge(n_customers, on="c_mktsegment")
    out["n_nations"] = out["n_nations"].astype("int64")
    out["n_customers"] = out["n_customers"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
def q_hash_join(sf_dir: str):
    """Large-large bucketed hash join (stages/joins.hash_join): lineitem
    ⋈ orders on orderkey, revenue per orderstatus."""
    from bb_ocr_ray.stages.joins import hash_join

    li = _read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        # pre-aggregate per order key INSIDE the map (combiner before
        # the join shuffle): ~4 lineitems/order collapse to one row, so
        # the join moves a quarter of the rows; revenue is additive
        # through the 1:1 orders join, n carries the lineitem count.
        # Measured at sf0.1/32cpus: +0.3 s local (pandas groupby cost
        # exceeds the saved shuffle at this size) — kept because at
        # 100 TB the shuffle bytes, not the per-batch CPU, dominate
        # revenue in integer 1e-4-dollar units: ext_cents*(100-disc_pct)
        # — an order-independent int64 fold (float sums drift past
        # round-2 at sf0.1; see q1)
        lambda b: pd.DataFrame(
            {"o_orderkey": b["l_orderkey"],
             "revenue_u": _round_sql(b["l_extendedprice"] * 100.0, 0)
             .astype("int64")
             * (100 - _round_sql(b["l_discount"] * 100.0, 0)
                .astype("int64")),
             "n": np.ones(len(b), dtype="int64")}
        ).groupby("o_orderkey", as_index=False).sum(),
        batch_format="pandas",
    )
    orders = _read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderstatus"])
    joined = hash_join(li, orders, on="o_orderkey")
    # partial agg per joined block — the final groupby shuffles a few
    # hundred partial rows instead of re-shuffling every joined row
    partials = joined.map_batches(
        lambda b: b.groupby("o_orderstatus", as_index=False).agg(
            revenue_u=("revenue_u", "sum"), n_lineitems=("n", "sum")),
        batch_format="pandas",
    )
    out = partials.groupby("o_orderstatus").aggregate(
        Sum("revenue_u", alias_name="revenue_u"),
        Sum("n_lineitems", alias_name="n_lineitems"),
    ).to_pandas()
    out["revenue"] = _round_sql(
        out["revenue_u"].astype("int64") / 10000.0, 2)
    out["n_lineitems"] = out["n_lineitems"].astype("int64")
    return out.drop(columns=["revenue_u"])


def q_broadcast_join_nation(sf_dir: str):
    """Broadcast join: customer ⋈ nation ⋈ region (small dims via ray.put),
    customer count + total acctbal per region name."""
    from bb_ocr_ray.stages.joins import broadcast_join

    nation = pd.read_parquet(_t(sf_dir, "nation"),
                             columns=["n_nationkey", "n_regionkey"])
    region = pd.read_parquet(_t(sf_dir, "region"),
                             columns=["r_regionkey", "r_name"])
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    dim = dim[["n_nationkey", "r_name"]].rename(columns={"n_nationkey": "c_nationkey"})

    cust = _read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_nationkey", "c_acctbal"])
    joined = broadcast_join(cust, dim, on="c_nationkey")
    joined = joined.map_batches(
        # integer cents (see q1: float sums drift past round-2 at sf0.1)
        lambda b: b.assign(acct_c=_round_sql(
            b["c_acctbal"] * 100.0, 0).astype("int64")),
        batch_format="pandas")
    out = joined.groupby("r_name").aggregate(
        Count(alias_name="n_customers"),
        Sum("acct_c", alias_name="total_acctbal"),
    ).to_pandas()
    out["total_acctbal"] = _round_sql(
        out["total_acctbal"].astype("int64") / 100.0, 2)
    out["n_customers"] = out["n_customers"].astype("int64")
    return out


def q5_revenue_by_nation(sf_dir: str):
    """Multi-join: lineitem ⋈ supplier ⋈ orders(hash) ⋈ customer ⋈
    nation(bcast), local-supplier condition (c_nationkey ==
    s_nationkey), revenue per nation name.  The scale-proportional
    sides (supplier, customer) go through the size-gated auto_join —
    broadcast while their projected columns fit the driver
    (``sizing.collect_if_fits``), bucketed hash join beyond that
    (VERDICT r2 item 3: a driver pd.read_parquet broadcast of a side
    that grows with sf blows the driver at 100x).
    nation is constant-size and stays a driver broadcast."""
    from bb_ocr_ray.stages.joins import auto_join, broadcast_join, hash_join

    supp = _read_parquet(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"]
                         ).rename_columns({"s_suppkey": "l_suppkey"})
    li = _read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    li = auto_join(li, supp, on="l_suppkey")
    li = li.map_batches(
        # integer 1e-4-dollar revenue units (order-independent fold;
        # float sums drift past round-2 at sf0.1 — see q1)
        lambda b: pd.DataFrame(
            {"o_orderkey": b["l_orderkey"],
             "s_nationkey": b["s_nationkey"],
             "revenue_u": _round_sql(b["l_extendedprice"] * 100.0, 0)
             .astype("int64")
             * (100 - _round_sql(b["l_discount"] * 100.0, 0)
                .astype("int64"))}
        ),
        batch_format="pandas",
    )
    orders = _read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    # deliberately a HARD hash_join, not the size-gated auto_join:
    # o_orderkey is the probe side's own key (every lineitem row
    # matches), so a broadcast buys nothing and the per-batch pandas
    # merge against a row-cardinality broadcast frame dominates —
    # measured 2.3 s -> 10.8 s at sf0.1 when routed through the gate
    joined = hash_join(li, orders, on="o_orderkey")

    cust = _read_parquet(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"]
                         ).rename_columns({"c_custkey": "o_custkey"})
    joined = auto_join(joined, cust, on="o_custkey")
    joined = joined.map_batches(
        lambda b: b[b["s_nationkey"] == b["c_nationkey"]],
        batch_format="pandas",
    )
    nation = pd.read_parquet(_t(sf_dir, "nation"),
                             columns=["n_nationkey", "n_name"])
    nation = nation.rename(columns={"n_nationkey": "s_nationkey"})
    joined = broadcast_join(joined, nation, on="s_nationkey")
    partials = joined.map_batches(
        lambda b: b.groupby("n_name", as_index=False).agg(
            revenue_u=("revenue_u", "sum"),
            n_lineitems=("revenue_u", "size")),
        batch_format="pandas",
    )
    out = partials.groupby("n_name").aggregate(
        Sum("revenue_u", alias_name="revenue_u"),
        Sum("n_lineitems", alias_name="n_lineitems"),
    ).to_pandas()
    out["revenue"] = _round_sql(
        out["revenue_u"].astype("int64") / 10000.0, 2)
    out["n_lineitems"] = out["n_lineitems"].astype("int64")
    return out.drop(columns=["revenue_u"])


def q_anti_join(sf_dir: str):
    """Customers with no high-value (>300k) order — the resume
    primitive (SURVEY.md J6), through the size-gated auto_anti: the
    filtered orders key side grows with sf, so it is broadcast only
    while its key column's real bytes fit the driver (VERDICT r2 item
    3); beyond the gate it hash-partitions."""
    import pyarrow.compute as pc

    from bb_ocr_ray.stages.joins import auto_anti

    order_keys = (
        _read_parquet(_t(sf_dir, "orders"),
                        columns=["o_custkey", "o_totalprice"])
        .map_batches(
            lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)),
            batch_format="pyarrow",
        )
        .rename_columns({"o_custkey": "c_custkey"})
        .select_columns(["c_custkey"])
    )
    cust = _read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_name"])
    return auto_anti(cust, order_keys, "c_custkey")


def q_semi_join(sf_dir: str):
    """Suppliers that appear in lineitem — size-gated auto_semi (the
    lineitem key side is scale-proportional: broadcast only while its
    key column fits the driver, else exact hash-partitioned semi)."""
    from bb_ocr_ray.stages.joins import auto_semi

    supp_keys = (
        _read_parquet(_t(sf_dir, "lineitem"), columns=["l_suppkey"])
        .rename_columns({"l_suppkey": "s_suppkey"})
    )
    supp = _read_parquet(_t(sf_dir, "supplier"),
                           columns=["s_suppkey", "s_name"])
    return auto_semi(supp, supp_keys, "s_suppkey")


def q_union(sf_dir: str):
    """ds.union of two disjoint filtered projections of orders."""
    import pyarrow.compute as pc

    ds = _read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderkey", "o_totalprice"])
    hi = ds.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 450000.0)),
        batch_format="pyarrow",
    )
    lo = ds.map_batches(
        lambda t: t.filter(pc.less(t["o_totalprice"], 1000.0)),
        batch_format="pyarrow",
    )
    return hi.union(lo)


# ---------------------------------------------------------------------------
# Events: windowed aggregate + sessionization + JSON parse
# ---------------------------------------------------------------------------
def q_events_hourly(sf_dir: str):
    """Tumbling 1h window per event_type (event-time, no watermark
    semantics needed for batch: groupby on truncated ts)."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "ts", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # hour as epoch seconds (int64): avoids ns-vs-us timestamp
        # precision drift between engines in the value-hash compare
        # (total_seconds is unit-independent; .astype(int64) is not)
        hour = (
            (batch["ts"].dt.floor("h") - pd.Timestamp("1970-01-01"))
            .dt.total_seconds()
            .astype("int64")
        )
        batch = batch.assign(hour_epoch=hour)
        return batch.groupby(["event_type", "hour_epoch"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    # hour buckets grow with the corpus time span (x event types):
    # coarse_agg keeps the Ray group count bounded (per-group tax)
    out = coarse_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour_epoch"],
        {"n_events": ("n_events", "sum"),
         "sum_value": ("sum_value", "sum")},
    ).to_pandas()
    out["sum_value"] = _round_sql(out["sum_value"].fillna(0.0), 4)
    out["n_events"] = out["n_events"].astype("int64")
    return out


def q_sessionize(sf_dir: str):
    """Session windows per user (gap > 1800 s starts a new session):
    groupby(user).map_groups over ts-sorted events — the documented
    partitioning assumption is one user fits one group.  NULL user_id
    rows are dropped (repo convention for user aggregates; oracle
    mirrors with WHERE user_id IS NOT NULL)."""
    ds = _read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    ds = ds.map_batches(lambda b: b.dropna(subset=["user_id"]),
                        batch_format="pandas")

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("ts", kind="mergesort")
        gaps = g["ts"].diff().dt.total_seconds()
        n_sessions = int((gaps > 1800).sum()) + 1
        return pd.DataFrame(
            # int() first: the column arrives float64 when any block of
            # the raw table held a NULL user
            {"user_id": pd.Series([int(g["user_id"].iloc[0])], dtype="int64"),
             "n_sessions": pd.Series([n_sessions], dtype="int64"),
             "n_events": pd.Series([len(g)], dtype="int64")}
        )

    return _grouped_per_key(ds, "user_id", sessions)


def q_json_extract(sf_dir: str):
    """Robust JSON field extraction from the events props column (M10
    analog: LLM-response JSON repair) — vectorized regex extract, sum
    per event_type; unparseable rows count as errors, never raised."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "props"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        import re as _re

        k = batch["props"].str.extract(r'"k":\s*(-?\d+)', expand=False,
                                       flags=_re.ASCII)
        # parse with Python int (exact, arbitrary precision): float64
        # rounds literals in (2^53, 2^63) that TRY_CAST parses exactly;
        # the int64 bound is applied exactly too (TRY_CAST -> NULL when
        # outside [-2^63, 2^63-1])
        lo_i, hi_i = -(2**63), 2**63 - 1
        vals = np.zeros(len(k), dtype="int64")
        parsed = np.zeros(len(k), dtype="int64")
        for i, s in enumerate(k.to_numpy()):
            if isinstance(s, str):
                v = int(s)
                if lo_i <= v <= hi_i:
                    vals[i] = v
                    parsed[i] = 1
        return pd.DataFrame(
            {"event_type": batch["event_type"].to_numpy(),
             "k": vals,
             "parsed": parsed}
        ).groupby("event_type", as_index=False).agg(
            sum_k=("k", "sum"), n_parsed=("parsed", "sum"),
            n_rows=("parsed", "size"),
        )

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("sum_k", alias_name="sum_k"),
                   Sum("n_parsed", alias_name="n_parsed"),
                   Sum("n_rows", alias_name="n_rows"))
        .to_pandas()
    )
    for c in ("sum_k", "n_parsed", "n_rows"):
        out[c] = out[c].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Documents: text analysis
# ---------------------------------------------------------------------------
def q_doc_stats(sf_dir: str):
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "text", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(text=batch["text"].fillna(""))
        batch = batch.assign(n_tokens=n_tokens_series(batch["text"]))
        return batch.groupby("lang", as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum"),
            sum_tokens=("n_tokens", "sum"), max_chars=("n_chars", "max"),
            min_chars=("n_chars", "min"),
        )

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("sum_chars", alias_name="sum_chars"),
                   Sum("sum_tokens", alias_name="sum_tokens"),
                   Max("max_chars", alias_name="max_chars"),
                   Min("min_chars", alias_name="min_chars"))
        .to_pandas()
    )
    for c in ("n_docs", "sum_chars", "sum_tokens", "max_chars", "min_chars"):
        out[c] = out[c].astype("int64")
    return out


def q_doc_quality(sf_dir: str):
    """Quality features aggregated per source: integer numerators and
    denominators (no float ratios — exact cross-engine equality)."""
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        return pd.DataFrame(
            {"source": batch["source"],
             "n_tokens": n_tokens_series(t).astype("int64"),
             "n_stop_tokens": stop_token_counts(t).astype("int64"),
             # re.ASCII: RE2's \w/\s are ASCII-only; unicode-aware
             # counting would diverge on non-ASCII corpora
             "n_punct": t.str.count(r"[^\w\s]", flags=__import__("re").ASCII)
                        .astype("int64")}
        ).groupby("source", as_index=False).agg(
            n_docs=("n_tokens", "size"), sum_tokens=("n_tokens", "sum"),
            sum_stop_tokens=("n_stop_tokens", "sum"),
            sum_punct=("n_punct", "sum"),
        )

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("sum_tokens", alias_name="sum_tokens"),
                   Sum("sum_stop_tokens", alias_name="sum_stop_tokens"),
                   Sum("sum_punct", alias_name="sum_punct"))
        .to_pandas()
    )
    for c in out.columns:
        if c != "source":
            out[c] = out[c].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Documents: dedup family
# ---------------------------------------------------------------------------
def q_dedup_exact(sf_dir: str):
    """Exact dedup by content hash: keeper = min doc_id per md5(text)."""
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    def hashed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"content_md5": [md5_hex(t or "") for t in batch["text"]],
             "doc_id": batch["doc_id"]}
        )

    # content hashes are row-cardinality: coarse_agg, never a direct
    # Ray groupby (per-group tax on every distinct document)
    out = coarse_agg(
        ds.map_batches(hashed, batch_format="pandas"),
        ["content_md5"],
        {"keep_doc_id": ("doc_id", "min"),
         "n_copies": ("doc_id", "size")},
    ).to_pandas()
    out["keep_doc_id"] = out["keep_doc_id"].astype("int64")
    out["n_copies"] = out["n_copies"].astype("int64")
    return out


def q_jaccard_pairs(sf_dir: str):
    """EXACT all-pairs distinct-token-set Jaccard join at J ≥ 0.5
    (integer output id_a, id_b, inter, uni) — prefix-filtered, not
    brute force: token (df, token)-order prefixes generate a provably
    complete candidate set, the distributed Bloom-pruned hash-join
    verify scores them, and the result is identical to the all-pairs
    SQL oracle (stages/dedup.set_similarity_join; VERDICT r2 item 6
    retired the known-quadratic driver loop this replaced).

    The algorithm is output-sensitive (candidates ≈ qualifying pairs;
    test_set_similarity_output_sensitive pins that), but on THIS
    synthetic corpus ~36% of ALL pairs qualify (90,752 of 124,750 at
    sf0.001) — the result set itself is quadratic, so the full sf0.1
    sweep keeps excluding this query: enumerating a ~450M-pair answer
    is the task's cost, not the algorithm's."""
    from bb_ocr_ray.stages.dedup import set_similarity_join

    docs = _read_parquet(_t(sf_dir, "documents"),
                           columns=["doc_id", "text"])
    return set_similarity_join(docs, min_jaccard=0.5)


def q_minhash_candidates(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs.  Oracle-checked: the
    DuckDB mirror recomputes the full sketch from the engine's seeded
    permutation constants (md5_number_upper == stable_u64, uint64-wrap
    emulated in HUGEINT, bucket cap 64 + chain tail via row_number) —
    see oracles._minhash_cte."""
    from bb_ocr_ray.stages.dedup import minhash_candidates

    docs = _read_parquet(_t(sf_dir, "documents"),
                           columns=["doc_id", "text"])
    return minhash_candidates(docs)


def q_simhash_near_dups(sf_dir: str):
    """SimHash banded near-dup pairs with hamming distance.
    Oracle-checked: bit votes, 16-bit band blocking, cap+chain and the
    bit_count(xor) verify are all recomputed in SQL."""
    from bb_ocr_ray.stages.dedup import simhash_near_dups

    docs = _read_parquet(_t(sf_dir, "documents"),
                           columns=["doc_id", "text"])
    return simhash_near_dups(docs)


def q_langid(sf_dir: str):
    """Language-ID heuristic agreement with the table's lang column.
    Oracle-checked: every detect_lang step (codepoint slice, CJK-share
    float compare, ASCII lowering, non-overlapping trigram counts,
    earliest-wins argmax) is mirrored in SQL generated from the same
    profile tables (oracles._langid_oracle_sql)."""
    from bb_ocr_ray.stages.text_stats import add_lang_pred

    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "lang", "text"])
    scored = ds.map_batches(add_lang_pred, batch_format="pandas")
    out = (
        scored.map_batches(
            lambda b: pd.DataFrame(
                {"lang": b["lang"],
                 "agree": (b["lang"] == b["lang_pred"]).astype("int64"),
                 "one": np.ones(len(b), dtype="int64")}
            ),
            batch_format="pandas",
        )
        .groupby("lang")
        .aggregate(Sum("agree", alias_name="n_agree"),
                   Sum("one", alias_name="n_docs"))
    )
    return out


def q_fingerprint(sf_dir: str):
    """Rolling-hash + md5 document fingerprints.  Oracle-checked: the
    codepoint Karp-Rabin fold is mirrored exactly in DuckDB via
    list_reduce over ord(substr(...)) in HUGEINT arithmetic, and
    content_md5 via DuckDB's md5()."""
    from bb_ocr_ray.stages.text_stats import add_fingerprints

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ds.map_batches(add_fingerprints, batch_format="pandas").select_columns(
        ["doc_id", "fingerprint", "content_md5"]
    )


# ---------------------------------------------------------------------------
# Embeddings: similarity search
# ---------------------------------------------------------------------------
def q_ann_topk(sf_dir: str):
    """Exact cosine top-5 for query vectors vec_id < 10 (integer-only
    output: query_id, rank, neighbor_id)."""
    from bb_ocr_ray.stages.ann import ann_topk

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "embedding"])
    return ann_topk(vecs, query_ids=list(range(10)), k=5)


def q_embedding_near_dups(sf_dir: str):
    """Embedding near-dup pairs via multi-table hyperplane LSH, probed
    with planted near-duplicate twins: each vec_id < 25 gets a twin
    (vec_id + 1_000_000, every coordinate + 0.01 — cosine ~0.997 to
    its source, SQL-expressible via list_transform), and the output is
    the pairs that involve a twin.  The restriction keeps the
    brute-force DuckDB oracle at O(|twins| x n); the planted pairs'
    huge margin (next-highest corpus cosine ~0.49 vs threshold 0.9)
    plus deterministic seeded planes make LSH recall exactly 1 on this
    probe set, so the oracle is a true value-hash gate."""
    from bb_ocr_ray.stages.ann import embedding_near_dups

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "embedding"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        t = b[b["vec_id"] < 25]
        return pd.DataFrame(
            {"vec_id": (t["vec_id"] + 1_000_000).astype("int64"),
             "embedding": [
                 (np.asarray(v, dtype=np.float64) + 0.01).astype(np.float32)
                 for v in t["embedding"]]}
        )

    twins = vecs.map_batches(plant, batch_format="pandas")
    pairs = embedding_near_dups(vecs.union(twins), threshold=0.9)
    return pairs.map_batches(
        lambda b: b[(b["id_a"] >= 1_000_000) | (b["id_b"] >= 1_000_000)],
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# Flagship extraction + domain aggregation (full web pipeline)
# ---------------------------------------------------------------------------
def q_extract_pages(sf_dir: str):
    """Full pipeline: synthesize pages from documents -> extract ->
    (url, text, status, n_blocks_kept).  The oracle recomputes the
    expected text directly from documents (template inversion) — an
    end-to-end byte-identity check through SQL."""
    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir

    return extract_from_sf_dir(sf_dir).select_columns(
        ["url", "text", "status", "n_blocks_kept"]
    )


def q_domain_stats(sf_dir: str):
    """Salted per-domain aggregation over the extraction output."""
    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir
    from bb_ocr_ray.stages.domain_agg import domain_stats

    stats = domain_stats(extract_from_sf_dir(sf_dir)).to_pandas()
    out = stats[["domain", "n_docs", "extracted_chars", "n_errors"]].copy()
    for c in ("n_docs", "extracted_chars", "n_errors"):
        out[c] = out[c].astype("int64")
    return out


def q_dedup_pages(sf_dir: str):
    """Per-url dedup over pages (groupby + deterministic first row).
    The synthetic corpus has unique urls, so output rows == input rows —
    still a real shuffle + the oracle checks the invariant holds."""
    from bb_ocr_ray.sources.pages import read_pages

    # project BEFORE the shuffle: first_row only needs (url, warc_ts,
    # lang), so the multi-KB html payload never enters the exchange
    pages = read_pages(sf_dir).select_columns(["url", "warc_ts", "lang"])

    def first_row(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("warc_ts", kind="mergesort").head(1)
        return pd.DataFrame({"url": g["url"], "lang": g["lang"]})

    # url-cardinality == row count: coarse-bucketed per-key grouping
    # (one Ray group per key would pay the per-group tax on every row)
    return _grouped_per_key(pages, "url", first_row)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
QUERIES = {
    "q1_pricing_summary": q1_pricing_summary,
    "q_filter_project": q_filter_project,
    "q_topk_per_group": q_topk_per_group,
    "q_distinct": q_distinct,
    "q_count_distinct": q_count_distinct,
    "q_hash_join": q_hash_join,
    "q_broadcast_join_nation": q_broadcast_join_nation,
    "q5_revenue_by_nation": q5_revenue_by_nation,
    "q_anti_join": q_anti_join,
    "q_semi_join": q_semi_join,
    "q_union": q_union,
    "q_events_hourly": q_events_hourly,
    "q_sessionize": q_sessionize,
    "q_json_extract": q_json_extract,
    "q_doc_stats": q_doc_stats,
    "q_doc_quality": q_doc_quality,
    "q_dedup_exact": q_dedup_exact,
    "q_jaccard_pairs": q_jaccard_pairs,
    "q_minhash_candidates": q_minhash_candidates,
    "q_simhash_near_dups": q_simhash_near_dups,
    "q_langid": q_langid,
    "q_fingerprint": q_fingerprint,
    "q_ann_topk": q_ann_topk,
    "q_embedding_near_dups": q_embedding_near_dups,
    "q_extract_pages": q_extract_pages,
    "q_domain_stats": q_domain_stats,
    "q_dedup_pages": q_dedup_pages,
}


# ---------------------------------------------------------------------------
# Additional relational operators (round-1 widening)
# ---------------------------------------------------------------------------
def q_global_topk(sf_dir: str):
    """Global sort + limit: top-20 orders by (o_totalprice desc,
    o_orderkey) — ds.sort is the all-to-all range shuffle; limit
    truncates the stream."""
    ds = _read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderkey", "o_totalprice"])
    out = (
        ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    out["rank"] = pd.Series(range(1, len(out) + 1), dtype="int64")
    return out


def q_offer_ranking(sf_dir: str):
    """Scored top-k per key — re-expression of the reference's offer
    scoring+ranking (abebooks_html.py:149-161, 311-312: keyword hits
    3.0/1.5/1.0, sort by (score, -price), top-10): parts scored by
    deterministic feature hits, top-2 per brand by (score desc,
    p_retailprice asc, p_partkey)."""
    ds = _read_parquet(
        _t(sf_dir, "part"),
        columns=["p_partkey", "p_brand", "p_type", "p_size", "p_retailprice"],
    )

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        s = (
            3.0 * batch["p_type"].str.contains("BRASS").astype("float64")
            + 1.5 * batch["p_type"].str.startswith("ECONOMY").astype("float64")
            + 1.0 * batch["p_size"].between(10, 20).astype("float64")
        )
        batch = batch.assign(score=s)
        # local top-k combiner bounds shuffle input
        return (
            batch.sort_values(["p_brand", "score", "p_retailprice", "p_partkey"],
                              ascending=[True, False, True, True],
                              kind="mergesort")
            .groupby("p_brand", as_index=False)
            .head(2)
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["score", "p_retailprice", "p_partkey"],
                              ascending=[False, True, True],
                              kind="mergesort").head(2)
        g = g.assign(rank=pd.Series(range(1, len(g) + 1), dtype="int64").values)
        return g[["p_brand", "p_partkey", "score", "p_retailprice", "rank"]]

    return (
        ds.map_batches(score, batch_format="pandas")
        .groupby("p_brand")
        .map_groups(final, batch_format="pandas")
    )


def q_keyword_genre(sf_dir: str):
    """Per-doc keyword-list argmax — the genre scoring heuristic
    (hueristics/book_extractor.py:149-178) over documents: count hits
    per keyword set, argmax with fixed tie order, aggregate counts."""
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    genres = [
        ("data", ("data", "table", "column", "row")),
        ("query", ("query", "filter", "join", "sort")),
        ("stream", ("stream", "window", "batch", "event")),
    ]

    def classify(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].fillna("").str.split(" ")
        scores = {}
        for name, kws in genres:
            kwset = frozenset(kws)
            scores[name] = toks.map(lambda ws: sum(1 for w in ws if w in kwset))
        df = pd.DataFrame(scores)
        # argmax with fixed tie order = first max in genre declaration order
        best = df.idxmax(axis=1)
        best[df.max(axis=1) == 0] = "none"
        return pd.DataFrame({"genre": best, "one": 1}).groupby(
            "genre", as_index=False
        ).agg(n_docs=("one", "sum"))

    out = (
        ds.map_batches(classify, batch_format="pandas")
        .groupby("genre")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


def q_asof_join(sf_dir: str):
    """As-of join (SURVEY.md §2.4 custom-operator slot): for every
    'error' event, the most recent 'click' by the same user at or
    before it.  Partitioning assumption: one user's events fit one
    group; within the group pd.merge_asof does the ordered match."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type", "ts"])

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        errors = group[group["event_type"] == "error"].sort_values(
            ["ts", "event_id"], kind="mergesort")
        clicks = group[group["event_type"] == "click"].sort_values(
            "ts", kind="mergesort")
        if errors.empty:
            return pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                                 "last_click_epoch": pd.Series([], dtype="int64")})
        merged = pd.merge_asof(
            errors[["event_id", "ts"]], clicks[["ts"]].assign(click_ts=clicks["ts"]),
            on="ts", direction="backward")
        # floor explicitly: sub-second ts fractions truncate the same
        # way in both engines (DuckDB CAST(double AS BIGINT) rounds)
        epoch = np.floor(
            (merged["click_ts"] - pd.Timestamp("1970-01-01"))
            .dt.total_seconds()
        )
        return pd.DataFrame(
            {"event_id": merged["event_id"].astype("int64"),
             "last_click_epoch": epoch.fillna(-1).astype("int64")}
        )

    return _grouped_per_key(ds, "user_id", per_user)


def q_events_sliding(sf_dir: str):
    """Sliding window (6h window, 1h hop) per event_type: rolling sum
    over the hourly pre-aggregate — windows computed per-type in one
    ordered group pass (hourly partials shuffle, not raw events)."""
    hourly = q_events_hourly(sf_dir)   # event_type, hour_epoch, n_events, ...

    def windows(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("hour_epoch", kind="mergesort").reset_index(drop=True)
        hours = g["hour_epoch"].to_numpy()
        counts = g["n_events"].to_numpy()
        out_n = []
        for h in hours:
            mask = (hours > h - 6 * 3600) & (hours <= h)
            out_n.append(int(counts[mask].sum()))
        return pd.DataFrame(
            {"event_type": g["event_type"],
             "hour_epoch": g["hour_epoch"].astype("int64"),
             "n_events_6h": pd.Series(out_n, dtype="int64")}
        )

    return (
        rd.from_pandas(hourly)
        .groupby("event_type")
        .map_groups(windows, batch_format="pandas")
    )


QUERIES.update(
    {
        "q_global_topk": q_global_topk,
        "q_offer_ranking": q_offer_ranking,
        "q_keyword_genre": q_keyword_genre,
        "q_asof_join": q_asof_join,
        "q_events_sliding": q_events_sliding,
    }
)


def q6_revenue_delta(sf_dir: str):
    """TPC-H Q6 shape: pure filter + scalar aggregate (single row) —
    the simplest partial+final reduction."""
    ds = _read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = (
            (batch["l_shipdate"] >= pd.Timestamp("1995-01-01"))
            & (batch["l_shipdate"] < pd.Timestamp("1997-01-01"))
            & (batch["l_discount"].between(0.03, 0.07))
            & (batch["l_quantity"] < 25)
        )
        sel = batch[m]
        # integer 1e-4-dollar units (ext_cents * disc_pct): the fold
        # is order-independent, so the scalar matches the oracle at
        # any scale (float sums drift past round-2 at sf0.1 — see q1)
        rev_u = (_round_sql(sel["l_extendedprice"] * 100.0, 0)
                 .astype("int64")
                 * _round_sql(sel["l_discount"] * 100.0, 0)
                 .astype("int64")).sum()
        return pd.DataFrame(
            {"revenue_u": pd.Series([rev_u], dtype="int64"),
             "n_rows": [int(m.sum())]}
        )

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=65536).to_pandas()
    return pd.DataFrame(
        {"revenue": [float(_round_sql(
            int(parts["revenue_u"].sum()) / 10000.0, 2))],
         "n_rows": pd.Series([parts["n_rows"].sum()], dtype="int64")}
    )


def q_running_total(sf_dir: str):
    """Windowed running aggregate per group: cumulative order value per
    customer in o_orderdate order (groupby(cust).map_groups cumsum) —
    output restricted to customers with ≥ 8 orders to keep rows bounded."""
    ds = _read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )

    # coarse-bucket shuffle + fully vectorized inner window: one python
    # call per BUCKET (64), with pandas groupby().cumsum() doing every
    # customer at once — no per-customer python (23.5 s -> ~3 s at sf0.1)
    def add_coarse(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__coarse"] = (
            batch["o_custkey"].astype("uint64") * 2654435761 % (1 << 32)
        ) % 64
        return batch

    def running_bucket(group: pd.DataFrame) -> pd.DataFrame:
        counts = group["o_custkey"].value_counts()
        keep = counts[counts >= 8].index
        g = group[group["o_custkey"].isin(keep)].sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        return pd.DataFrame(
            {"o_custkey": g["o_custkey"].astype("int64"),
             "o_orderkey": g["o_orderkey"].astype("int64"),
             "running_total": _round_sql(
                 g.groupby("o_custkey")["o_totalprice"].cumsum(), 2)}
        )

    return (
        ds.map_batches(add_coarse, batch_format="pandas")
        .groupby("__coarse")
        .map_groups(running_bucket, batch_format="pandas")
    )


def q_ivf_topk(sf_dir: str):
    """IVF top-k with exact triangle-inequality refinement
    (stages/ann.ivf_topk_exact): probe the closest inverted lists,
    bound the unseen lists with centroid distance + cluster radius,
    rescan only the lists that could still hold a top-k member.  The
    result provably equals brute force, so the oracle is the exact
    cross-join SQL — this closes the last no_oracle row in the driver
    CORRECTNESS file (VERDICT r2 item 5).  Query vectors are vec_id
    10..19 (q_ann_topk owns 0..9)."""
    from bb_ocr_ray.stages.ann import ivf_topk_exact

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "embedding"])
    return ivf_topk_exact(vecs, query_ids=list(range(10, 20)), k=5)


QUERIES.update(
    {
        "q6_revenue_delta": q6_revenue_delta,
        "q_running_total": q_running_total,
        "q_ivf_topk": q_ivf_topk,
    }
)


def q_reading_order(sf_dir: str):
    """Bounding-box reading-order sort (the layout/PDF branch core,
    reference: bbox region ordering enhanced_extractor.py:289-337):
    synthetic page layouts derived deterministically from lineitem
    (page = orderkey; one box per line item), banded reading order
    computed per page after one shuffle on the page key."""
    from bb_ocr_ray.stages.layout_stage import reading_order_stage

    ds = _read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_partkey"],
    )

    def to_boxes(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"page": batch["l_orderkey"].astype("int64"),
             "item_id": batch["l_linenumber"].astype("int64"),
             "x": ((batch["l_partkey"] % 7) * 140).astype("int64"),
             "y": (batch["l_linenumber"] * 40).astype("int64"),
             "w": 120, "h": 30}
        )

    boxes = ds.map_batches(to_boxes, batch_format="pandas")
    out = reading_order_stage(boxes, page_col="page", strategy="banded",
                              band_h=40)
    return out.select_columns(["page", "item_id", "reading_rank"])


QUERIES.update({"q_reading_order": q_reading_order})


def q_hash_sample(sf_dir: str):
    """Deterministic hash-based sampling (the reproducible-at-scale
    alternative to random_sample): keep rows whose md5(text) first byte
    < 64 (a ~25% sample that is stable across runs, partitions and
    engines — the SQL oracle computes the identical predicate)."""
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        keep = [int(md5_hex(t or "")[:2], 16) < 64 for t in batch["text"]]
        return batch[keep][["doc_id"]]

    return ds.map_batches(sample, batch_format="pandas")


def q_value_histogram(sf_dir: str):
    """Mergeable fixed-bin histogram sketch over events.value per
    event_type — the deterministic quantile-sketch pattern: per-batch
    partial histograms merge by addition; the oracle recomputes the
    same binning exactly (no approximation mismatch because the sketch
    IS the binning)."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])
    lo, hi, nbins = 0.0, 100.0, 20

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # NULL values would NaN-poison the int cast — drop them here and
        # mirror with WHERE value IS NOT NULL in the oracle
        batch = batch[batch["value"].notna()]
        b = np.clip(((batch["value"] - lo) / (hi - lo) * nbins).astype(int),
                    0, nbins - 1)
        df = pd.DataFrame({"event_type": batch["event_type"], "bin": b,
                           "n": 1})
        return df.groupby(["event_type", "bin"], as_index=False).sum()

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "bin"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["bin"] = out["bin"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


def q_rollup(sf_dir: str):
    """Multi-level aggregate (rollup): order counts + revenue at
    (status, priority), (status), and grand total, via partial agg +
    union of levels — mirrors SQL GROUP BY ROLLUP."""
    ds = _read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # integer cents (see q1: float sums drift past round-2 at sf0.1)
        batch = batch.assign(rev_c=_round_sql(
            batch["o_totalprice"] * 100.0, 0).astype("int64"))
        return batch.groupby(["o_orderstatus", "o_orderpriority"],
                             as_index=False).agg(
            n_orders=("rev_c", "size"),
            revenue=("rev_c", "sum"),
        )

    fine = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue", alias_name="revenue"))
        .to_pandas()
    )
    mid = fine.groupby("o_orderstatus", as_index=False).agg(
        n_orders=("n_orders", "sum"), revenue=("revenue", "sum"))
    mid["o_orderpriority"] = None
    total = pd.DataFrame(
        {"o_orderstatus": [None], "o_orderpriority": [None],
         "n_orders": [fine["n_orders"].sum()],
         "revenue": [fine["revenue"].sum()]}
    )
    out = pd.concat([fine, mid, total], ignore_index=True)
    out["revenue"] = _round_sql(out["revenue"].astype("int64") / 100.0, 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out[["o_orderstatus", "o_orderpriority", "n_orders", "revenue"]]


QUERIES.update(
    {
        "q_hash_sample": q_hash_sample,
        "q_value_histogram": q_value_histogram,
        "q_rollup": q_rollup,
    }
)


def q_median(sf_dir: str):
    """Exact grouped median (discrete, lower element): per event_type,
    the value at index floor((n-1)/2) of the sorted values — computed
    per group after one shuffle on the (5-key) group column; mirrors
    DuckDB quantile_disc(0.5)."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "value"])

    def median(group: pd.DataFrame) -> pd.DataFrame:
        # quantile_disc ignores NULLs — drop them before indexing; an
        # all-NULL group yields a NULL median (quantile_disc semantics),
        # not an IndexError
        v = group["value"].dropna().sort_values(kind="mergesort").to_numpy()
        m = float(v[(len(v) - 1) // 2]) if len(v) else np.nan
        return pd.DataFrame({"event_type": [group["event_type"].iloc[0]],
                             "median_value": pd.Series([m], dtype="float64")})

    return ds.groupby("event_type").map_groups(median, batch_format="pandas")


def q_knn_label(sf_dir: str):
    """k-NN majority label vote: for query vectors vec_id < 20, the
    modal label among the 5 nearest neighbors (ties -> smallest label).
    Exact cosine path (ann_topk) + broadcast label lookup."""
    from bb_ocr_ray.stages.ann import ann_topk
    from bb_ocr_ray.stages.joins import broadcast_join

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "embedding"])
    topk = ann_topk(vecs, query_ids=list(range(20)), k=5)
    labels = pd.read_parquet(_t(sf_dir, "embeddings"),
                             columns=["vec_id", "label"])
    labels = labels.rename(columns={"vec_id": "neighbor_id"})
    joined = broadcast_join(topk, labels, on="neighbor_id")

    def vote(group: pd.DataFrame) -> pd.DataFrame:
        counts = group["label"].value_counts()
        top = counts[counts == counts.max()].index.min()   # tie -> min label
        return pd.DataFrame(
            {"query_id": pd.Series([group["query_id"].iloc[0]], dtype="int64"),
             "pred_label": pd.Series([int(top)], dtype="int64")}
        )

    return joined.groupby("query_id").map_groups(vote, batch_format="pandas")


QUERIES.update({"q_median": q_median, "q_knn_label": q_knn_label})


def q_near_dup_dedup(sf_dir: str):
    """End-to-end near-dup dedup (MinHash+LSH -> Jaccard verify ->
    connected components -> keep min id).  Oracle-checked end-to-end:
    the DuckDB mirror recomputes the sketch candidates, the exact
    integer Jaccard verify, and the clustering as a recursive
    min-label transitive closure (oracles._near_dup_dedup_sql)."""
    from bb_ocr_ray.stages.dedup import near_dup_dedup

    docs = _read_parquet(_t(sf_dir, "documents"),
                           columns=["doc_id", "text"])
    return near_dup_dedup(docs).select_columns(["doc_id"])


QUERIES.update({"q_near_dup_dedup": q_near_dup_dedup})


def q_sessionize_stream(sf_dir: str):
    """Watermark/late-data sessionization (incremental actor state, the
    §2.9 streaming variant): events stream through a bank of stateful
    actors with an event-time watermark.  On an in-order stream no
    event is late, so the result provably equals the batch groupby
    sessionization — the oracle IS q_sessionize's SQL; the late-data
    semantics (buffer within lateness, count+drop beyond it) are
    covered by unit tests with out-of-order fixtures."""
    from bb_ocr_ray.stages.streaming import sessionize_watermark

    events = _read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    out, n_late = sessionize_watermark(events, allowed_lateness=300.0)
    assert n_late == 0  # in-order stream: nothing can be late
    return out


QUERIES.update({"q_sessionize_stream": q_sessionize_stream})


def q_registrable_domain(sf_dir: str):
    """Registrable-domain (eTLD+1) grouping: hostnames synthesized
    deterministically from doc_id across five shapes (ccTLD
    second-level registries, deep subdomains, bare domains) are
    reduced to their registrable domain and counted.  Oracle-checked:
    the suffix logic runs in SQL against the SAME embedded PSL subset
    (generated into the oracle), so 'shop.a.co.uk' and 'cdn.a.co.uk'
    group as 'a.co.uk' — the grouping bare netloc gets wrong."""
    from bb_ocr_ray.functions.scalars import registrable_domain

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    _SHAPES = ("shop.site{k}.co.uk", "news.site{k}.com.au",
               "a.b.site{k}.com", "site{k}.org", "cdn.site{k}.co.jp")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].to_numpy()
        hosts = [_SHAPES[int(x) % 5].format(k=int(x) % 7) for x in d]
        reg = [registrable_domain(h) for h in hosts]
        df = pd.DataFrame({"domain": reg, "n": np.ones(len(d), dtype="int64")})
        return df.groupby("domain", as_index=False).sum()

    # registrable domains are unbounded at web scale: coarse_agg
    out = coarse_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["domain"], {"n_docs": ("n", "sum")},
    ).to_pandas()
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


QUERIES.update({"q_registrable_domain": q_registrable_domain})


def q_stratified_sample(sf_dir: str):
    """Per-stratum deterministic sampling (the data-mixing primitive:
    different keep rates per language) — md5(doc_id) first byte under
    a per-lang threshold (en 1/2, de 1/4, others 1/8).  Reproducible
    across engines, partitions and runs; the oracle computes the
    identical predicate."""
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "lang"])

    thr = {"en": 128, "de": 64}

    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        keep = [
            int(md5_hex(str(int(d)))[:2], 16) < thr.get(lg, 32)
            for d, lg in zip(batch["doc_id"], batch["lang"])
        ]
        return batch[keep]

    return ds.map_batches(sample, batch_format="pandas")


def q_token_histogram(sf_dir: str):
    """Token-length distribution per language in power-of-two bins
    (bin = bit_length(n_tokens)) — the corpus length profile every
    training-data pipeline reports.  Mergeable partial histograms;
    integer bins so no float-binning drift."""
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["lang", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = n_tokens_series(batch["text"].fillna("")).astype("int64")
        bins = n.map(lambda x: int(x).bit_length()).astype("int64")
        df = pd.DataFrame({"lang": batch["lang"], "bin": bins,
                           "n": np.ones(len(batch), dtype="int64")})
        return df.groupby(["lang", "bin"], as_index=False).sum()

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["lang", "bin"])
        .aggregate(Sum("n", alias_name="n_docs"))
        .to_pandas()
    )
    out["bin"] = out["bin"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


QUERIES.update({
    "q_stratified_sample": q_stratified_sample,
    "q_token_histogram": q_token_histogram,
})


def q_frame_sample(sf_dir: str):
    """Frame sampling over binary payloads (video frame-extraction
    analog): documents text encoded to bytes, treated as concatenated
    256-byte frames, every 4th full frame emitted.  Oracle-checked on
    the frame BYTES via their hex encoding — DuckDB has no blob
    slicing, but substr(hex(blob)) mirrors byte slicing exactly (2 hex
    chars per byte)."""
    from bb_ocr_ray.stages.multimodal import frame_sample

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def to_payload(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"item_id": b["doc_id"].astype("int64"),
             "payload": [(t or "").encode("utf-8") for t in b["text"]]})

    ds = docs.map_batches(to_payload, batch_format="pandas")
    frames = ds.map_batches(frame_sample, batch_format="pyarrow")

    def to_hex(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"item_id": b["item_id"].astype("int64"),
             "frame_idx": b["frame_idx"].astype("int64"),
             "frame_hex": [bytes(f).hex().upper() for f in b["frame"]]})

    return frames.map_batches(to_hex, batch_format="pandas")


QUERIES.update({"q_frame_sample": q_frame_sample})


def q_band_join(sf_dir: str):
    """Time-band range join: (view, purchase) event pairs within 30 s
    of each other — the interval/proximity join Ray Data lacks,
    composed as window replication + a hash_join on the window + an
    exact band filter (stages/joins.band_join).  Integer-
    microsecond epochs on both sides so the band boundary is exact."""
    from bb_ocr_ray.stages.joins import band_join

    ev = _read_parquet(_t(sf_dir, "events"),
                       columns=["event_id", "event_type", "ts"])

    def prep(kind: str):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            b = b[b["event_type"] == kind]
            return pd.DataFrame(
                {"event_id": b["event_id"].astype("int64"),
                 "t_us": b["ts"].astype("datetime64[us]").astype("int64")})

        return fn

    views = ev.map_batches(prep("view"), batch_format="pandas")
    purchases = ev.map_batches(prep("purchase"), batch_format="pandas")
    pairs = band_join(views, purchases, time_col="t_us",
                      band_us=30_000_000)
    return pairs.map_batches(
        lambda b: pd.DataFrame(
            {"view_id": b["event_id"].astype("int64"),
             "purchase_id": b["event_id_r"].astype("int64")}),
        batch_format="pandas",
    )


QUERIES.update({"q_band_join": q_band_join})


def q_hll_registers(sf_dir: str):
    """HyperLogLog register state over events.user_id — the mergeable
    approximate-count-distinct sketch as a first-class aggregate.  The
    query emits the SKETCH STATE (bucket, max_rho), which is
    integer-exact and oracle-checked; the float estimate derived from
    it (hashing.hll_estimate) is asserted against the true
    cardinality in tests.  rho uses trailing zeros so the oracle can
    mirror it with bit_count in pure integer SQL."""
    from bb_ocr_ray.functions.hashing import hll_bucket_rho

    ds = _read_parquet(_t(sf_dir, "events"), columns=["user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].dropna()
        if not len(u):
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "rho": pd.Series([], dtype="int64")})
        pairs = [hll_bucket_rho(str(int(x))) for x in u]
        df = pd.DataFrame(pairs, columns=["bucket", "rho"])
        return df.groupby("bucket", as_index=False).max()

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Max("rho", alias_name="max_rho"))
        .to_pandas()
    )
    out["bucket"] = out["bucket"].astype("int64")
    out["max_rho"] = out["max_rho"].astype("int64")
    return out


QUERIES.update({"q_hll_registers": q_hll_registers})


def q_hll_grouped(sf_dir: str):
    """GROUPED HyperLogLog: per event_type, the register state of the
    distinct-user sketch — approximate count-distinct per group as ONE
    mergeable aggregate pass (the shape that replaces an exact
    count-distinct shuffle at web scale: 5 groups x 64 registers of
    state instead of every (group, user) pair).  Integer-exact state;
    estimates asserted in tests."""
    from bb_ocr_ray.functions.hashing import hll_bucket_rho

    ds = _read_parquet(_t(sf_dir, "events"),
                       columns=["event_type", "user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=["user_id"])
        if not len(b):
            return pd.DataFrame(
                {"event_type": pd.Series([], dtype="object"),
                 "bucket": pd.Series([], dtype="int64"),
                 "rho": pd.Series([], dtype="int64")})
        pairs = [hll_bucket_rho(str(int(x))) for x in b["user_id"]]
        df = pd.DataFrame(pairs, columns=["bucket", "rho"])
        df["event_type"] = b["event_type"].to_numpy()
        return df.groupby(["event_type", "bucket"], as_index=False).max()

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "bucket"])
        .aggregate(Max("rho", alias_name="max_rho"))
        .to_pandas()
    )
    out["bucket"] = out["bucket"].astype("int64")
    out["max_rho"] = out["max_rho"].astype("int64")
    return out


QUERIES.update({"q_hll_grouped": q_hll_grouped})


def q_binary_features(sf_dir: str):
    """Multimodal plumbing over real binary payloads: documents text
    encoded as bytes -> deterministic fake decode (dims) -> byte
    histogram + entropy.  SQL-oracled since round 3: the md5-derived
    fake dims and the high-nibble entropy both mirror in DuckDB
    (md5(VARCHAR) hashes the same utf-8 bytes; nibble i is hex char
    2i-1 of hex(encode(text))); the driver's round-6 canon absorbs the
    16-term float-sum order difference."""
    from bb_ocr_ray.stages.multimodal import (
        DecodeImageStub,
        byte_histogram_features,
        resize_stub,
    )

    docs = _read_parquet(_t(sf_dir, "documents"),
                           columns=["doc_id", "text"])

    def to_payload(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"item_id": batch["doc_id"].astype("int64"),
             "payload": [(t or "").encode("utf-8") for t in batch["text"]]}
        )

    ds = docs.map_batches(to_payload, batch_format="pandas")
    decoded = ds.map_batches(DecodeImageStub,
                             fn_constructor_kwargs={"fake": True},
                             batch_format="pyarrow", concurrency=(1, 2))
    resized = decoded.map_batches(resize_stub, batch_format="pyarrow")
    feats = resized.map_batches(byte_histogram_features, batch_format="pandas")
    return feats.select_columns(["item_id", "width", "height",
                                 "needs_resize", "byte_entropy"])


QUERIES.update({"q_binary_features": q_binary_features})


def q_provider_fanout(sf_dir: str):
    """Provider fan-out lookup (the reference's pricing pipeline shape,
    SURVEY.md §3.3): each supplier record queries three providers —
    an exact-key lookup, a range scan, and a stub — offers are merged
    with provider tags, deduped on (record, provider, listing) (the
    reference's seen-key includes the provider), then summarized per
    record."""
    import ray

    from bb_ocr_ray.stages.lookup import (
        dedup_offers,
        make_stub_provider,
        provider_fanout,
    )

    part = pd.read_parquet(_t(sf_dir, "part"),
                           columns=["p_partkey", "p_size", "p_retailprice"])
    part_ref = ray.put(part)

    def parts_exact(records: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(part_ref)
        m = records.merge(p, left_on=records["s_suppkey"] * 4,
                          right_on="p_partkey")
        return pd.DataFrame({"record_key": m["s_suppkey"],
                             "listing_id": m["p_partkey"],
                             "amount": m["p_retailprice"]})

    def parts_by_size(records: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(part_ref)
        r = records.assign(p_size=(records["s_suppkey"] % 50).astype("int32"))
        m = r.merge(p, on="p_size")
        m = m[m["p_partkey"] % 25 == 0]     # keep the scan sparse
        return pd.DataFrame({"record_key": m["s_suppkey"],
                             "listing_id": m["p_partkey"],
                             "amount": m["p_retailprice"]})

    providers = {
        "exact": parts_exact,
        "size_scan": parts_by_size,
        "stub": make_stub_provider("stub"),
    }
    records = _read_parquet(_t(sf_dir, "supplier"), columns=["s_suppkey"])
    offers = provider_fanout(records, providers, key_col="s_suppkey")
    offers = offers.map_batches(lambda b: b[b["status"] == "ok"].dropna(
        subset=["listing_id"]), batch_format="pandas")
    deduped = dedup_offers(offers)

    def summarize(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("record_key", as_index=False).agg(
            n_offers=("listing_id", "size"), best_amount=("amount", "min"))

    # record keys scale with the catalog: coarse_agg (per-group tax)
    out = coarse_agg(
        deduped.map_batches(summarize, batch_format="pandas"),
        ["record_key"],
        {"n_offers": ("n_offers", "sum"),
         "best_amount": ("best_amount", "min")},
    ).to_pandas()
    out["record_key"] = out["record_key"].astype("int64")
    out["n_offers"] = out["n_offers"].astype("int64")
    return out


QUERIES.update({"q_provider_fanout": q_provider_fanout})


# ---------------------------------------------------------------------------
# Token-repetition quality stats (Gopher-style repetition filter inputs)
# ---------------------------------------------------------------------------
def q_repetition(sf_dir: str):
    """Per-document token-repetition stats — the inputs to a
    Gopher/C4-style repetition quality filter: total whitespace tokens,
    distinct tokens, and the frequency of the most repeated token.
    Doc-local by construction: one vectorized explode+groupby per
    batch, NO shuffle.  Tokenization is the shared ASCII class
    (`functions.hashing.ws_tokens`), the same one the sketch oracles
    mirror; zero-token docs emit zeros."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def rep(b: pd.DataFrame) -> pd.DataFrame:
        toks = [ws_tokens(t or "") for t in b["text"]]
        lens = [len(t) for t in toks]
        ex = pd.DataFrame({
            "doc_id": np.repeat(b["doc_id"].to_numpy(), lens),
            "tok": [w for t in toks for w in t]})
        pc = ex.groupby(["doc_id", "tok"], as_index=False).size()
        agg = pc.groupby("doc_id").agg(
            n_tokens=("size", "sum"), n_distinct=("size", "size"),
            max_tok_count=("size", "max")).reset_index()
        out = pd.DataFrame({"doc_id": b["doc_id"]}).merge(
            agg, on="doc_id", how="left").fillna(0)
        for c in ("n_tokens", "n_distinct", "max_tok_count"):
            out[c] = out[c].astype("int64")
        return out

    return ds.map_batches(rep, batch_format="pandas")


# ---------------------------------------------------------------------------
# Benchmark decontamination (train/eval n-gram overlap)
# ---------------------------------------------------------------------------
def q_decontaminate(sf_dir: str, k: int = 8):
    """Decontamination: flag corpus docs sharing any k-token shingle
    with the eval set (doc_id % 50 == 0) and count the DISTINCT
    overlapping shingles.  The eval side is a benchmark — inherently
    small — so its distinct-shingle set is built once and broadcast
    via ray.put; the corpus streams through one map_batches with no
    shuffle (the standard scale shape for training-data decontam)."""
    import functools

    import ray

    from bb_ocr_ray.functions.hashing import shingle_set

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    sh_of = functools.partial(shingle_set, k=k)

    eval_pd = docs.map_batches(lambda b: b[b["doc_id"] % 50 == 0],
                               batch_format="pandas").to_pandas()
    eval_sh = set().union(*map(sh_of, eval_pd["text"])) \
        if len(eval_pd) else set()
    ref = ray.put(eval_sh)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        es = ray.get(ref)
        ids, hits = [], []
        for d, t in zip(b["doc_id"], b["text"]):
            if d % 50 == 0:
                continue
            n = len(sh_of(t) & es)
            if n:
                ids.append(int(d))
                hits.append(n)
        return pd.DataFrame({"doc_id": pd.array(ids, dtype="int64"),
                             "n_hit_shingles": pd.array(hits, dtype="int64")})

    out = docs.map_batches(flag, batch_format="pandas").to_pandas()
    if out.empty:
        # an all-empty Dataset loses its schema through to_pandas()
        # (Ray drops empty blocks); re-type the contamination report so
        # a clean corpus still yields the contract columns
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                            "n_hit_shingles": pd.Series([], dtype="int64")})
    return out


QUERIES.update({
    "q_repetition": q_repetition,
    "q_decontaminate": q_decontaminate,
})


# ---------------------------------------------------------------------------
# Corpus n-gram statistics (training-corpus vocabulary analysis)
# ---------------------------------------------------------------------------
def q_ngram_freq(sf_dir: str):
    """Top-20 corpus bigrams by total occurrence count.  The per-batch
    Counter partial bounds the shuffle at O(per-batch vocabulary) —
    one (ngram, n) row per distinct bigram per batch instead of one
    row per occurrence; the groupby-sum then moves counts, not text.
    Deterministic (count desc, ngram asc) tiebreak."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            tk = ws_tokens(t or "")
            c.update(tk[i] + " " + tk[i + 1] for i in range(len(tk) - 1))
        return pd.DataFrame({"ngram": list(c.keys()),
                             "n": pd.array(list(c.values()), dtype="int64")})

    # the ngram vocabulary is unbounded: coarse_agg (per-group tax)
    agg = coarse_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["ngram"], {"n": ("n", "sum")},
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    return (agg.sort_values(["n", "ngram"], ascending=[False, True],
                            kind="mergesort")
            .head(20).reset_index(drop=True))


# ---------------------------------------------------------------------------
# Document frequency (how many docs contain each token)
# ---------------------------------------------------------------------------
def q_doc_freq(sf_dir: str):
    """Top-20 tokens by DOCUMENT frequency (each doc counts once per
    token) — the IDF numerator of a corpus.  Per-batch distinct-per-doc
    Counter partial, groupby-sum, (df desc, token asc) tiebreak."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": list(c.keys()),
                             "df": pd.array(list(c.values()), dtype="int64")})

    # the token vocabulary is unbounded: coarse_agg (per-group tax)
    agg = coarse_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["tok"], {"df": ("df", "sum")},
    ).to_pandas()
    agg["df"] = agg["df"].astype("int64")
    return (agg.sort_values(["df", "tok"], ascending=[False, True],
                            kind="mergesort")
            .head(20).reset_index(drop=True))


QUERIES.update({"q_ngram_freq": q_ngram_freq, "q_doc_freq": q_doc_freq})


# ---------------------------------------------------------------------------
# MinHash Jaccard estimation (sketch-based similarity, integer-exact)
# ---------------------------------------------------------------------------
def q_minhash_est(sf_dir: str):
    """Signature-slot Jaccard estimate for every LSH candidate pair:
    ``n_eq_slots`` = number of equal MinHash slots (of 128), the
    integer numerator of est = n_eq/128 — reported as an int so the
    oracle comparison is exact.  Signatures are computed distributed
    for MENTIONED docs only and collected (bounded by the candidate
    set — the verify-stage pattern); the pair list never reshuffles."""
    import ray

    from bb_ocr_ray.functions.hashing import minhash_signature
    from bb_ocr_ray.stages.dedup import minhash_candidates

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])
    pairs = minhash_candidates(docs).to_pandas()
    if pairs.empty:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64"),
                             "n_eq_slots": pd.Series([], dtype="int64")})
    mentioned = frozenset(pairs["id_a"]) | frozenset(pairs["id_b"])
    ref = ray.put(mentioned)

    def sigs(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        rows = [(int(d), minhash_signature(t or "").tobytes())
                for d, t in zip(b["doc_id"], b["text"]) if d in m]
        return pd.DataFrame({"doc_id": pd.array([r[0] for r in rows],
                                                dtype="int64"),
                             "sig": [r[1] for r in rows]})

    sig_pd = docs.map_batches(sigs, batch_format="pandas").to_pandas()
    lut = {d: np.frombuffer(s, dtype=np.uint64)
           for d, s in zip(sig_pd["doc_id"], sig_pd["sig"])}
    out = pairs[["id_a", "id_b"]].copy()
    out["n_eq_slots"] = pd.array(
        [int((lut[a] == lut[b]).sum())
         for a, b in zip(pairs["id_a"], pairs["id_b"])], dtype="int64")
    return out


QUERIES.update({"q_minhash_est": q_minhash_est})


# ---------------------------------------------------------------------------
# Training-data chunking: fixed token windows with stride (flat_map)
# ---------------------------------------------------------------------------
def q_chunk_docs(sf_dir: str, window: int = 32, stride: int = 24):
    """Split each document into token windows of ``window`` tokens at
    ``stride`` spacing (overlap = window - stride) — the standard LLM
    training-prep chunker, expressed as a 1->N batch expansion.  Chunk
    starts are every stride-th token position, so every token lands in
    at least one chunk; empty docs produce none.  Doc-local: one
    map_batches, NO shuffle."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def chunk(b: pd.DataFrame) -> pd.DataFrame:
        ids, cids, texts, ntoks = [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tk = ws_tokens(t or "")
            for ci, s in enumerate(range(0, len(tk), stride), start=1):
                w = tk[s:s + window]
                ids.append(int(d))
                cids.append(ci)
                texts.append(" ".join(w))
                ntoks.append(len(w))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "chunk_id": pd.array(cids, dtype="int64"),
            "chunk_text": pd.array(texts, dtype="object"),
            "n_tok": pd.array(ntoks, dtype="int64")})

    # returned as a STREAMING Dataset: chunks are corpus-sized (unlike
    # the decontamination report), so the consumer decides whether to
    # write or aggregate them — never materialized here
    return ds.map_batches(chunk, batch_format="pandas")


QUERIES.update({"q_chunk_docs": q_chunk_docs})


# ---------------------------------------------------------------------------
# Flagship training-data prep: quality -> dedup -> decontam -> chunk
# ---------------------------------------------------------------------------
def q_training_prep(sf_dir: str):
    """END-TO-END training-data preparation as ONE streaming pipeline
    over the documents corpus:

      1. quality filter   — keep docs with >= 10 whitespace tokens
                            (and exclude the eval set doc_id%50==0);
      2. exact dedup      — keep the min doc_id per md5(text)
                            (`stages.dedup.dedup_exact`);
      3. decontamination  — drop docs sharing any 8-token shingle with
                            the eval set (shingle set broadcast once);
      4. chunking         — 32-token windows at stride 24 (counted,
                            not materialized);
      5. summary          — per-source surviving docs / chunks /
                            tokens (partial agg, tiny final groupby).

    Every stage streams; nothing corpus-sized touches the driver."""
    import functools

    import ray

    from bb_ocr_ray.functions.hashing import md5_hex, shingle_set, ws_tokens
    from bb_ocr_ray.stages.dedup import dedup_exact

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text", "source"])
    sh8 = functools.partial(shingle_set, k=8)

    eval_pd = docs.map_batches(lambda b: b[b["doc_id"] % 50 == 0],
                               batch_format="pandas").to_pandas()
    eval_sh = set().union(*map(sh8, eval_pd["text"])) \
        if len(eval_pd) else set()
    ref = ray.put(eval_sh)

    def qual_and_hash(b: pd.DataFrame) -> pd.DataFrame:
        keep = [d % 50 != 0 and len(ws_tokens(t or "")) >= 10
                for d, t in zip(b["doc_id"], b["text"])]
        b = b[pd.Series(keep, index=b.index)].copy()
        b["content_hash"] = [md5_hex(t or "") for t in b["text"]]
        return b

    qual = docs.map_batches(qual_and_hash, batch_format="pandas")
    survivors = dedup_exact(qual, key="content_hash",
                            order_col="doc_id")

    def decon(b: pd.DataFrame) -> pd.DataFrame:
        es = ray.get(ref)
        keep = [not (sh8(t) & es) if es else True for t in b["text"]]
        return b[pd.Series(keep, index=b.index)]

    clean = survivors.map_batches(decon, batch_format="pandas")

    def chunk_stats(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for s, t in zip(b["source"], b["text"]):
            n = len(ws_tokens(t or ""))
            rows.append((s, 1, (n - 1) // 24 + 1 if n else 0, n))
        df = pd.DataFrame(rows, columns=["source", "n_docs", "n_chunks",
                                         "n_tokens"])
        return df.groupby("source", as_index=False).sum()

    out = (
        clean.map_batches(chunk_stats, batch_format="pandas")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_chunks", alias_name="n_chunks"),
                   Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()
    )
    for c in ("n_docs", "n_chunks", "n_tokens"):
        out[c] = out[c].astype("int64")
    return out


QUERIES.update({"q_training_prep": q_training_prep})


# ---------------------------------------------------------------------------
# Inverted index build (search-index shape)
# ---------------------------------------------------------------------------
def q_inverted_index(sf_dir: str):
    """Inverted index for the 10 highest-document-frequency tokens:
    token -> '|'-joined doc-id posting list in ascending order.  Scale
    shape: document frequencies come from the bounded counts
    aggregate FIRST; only the winning tokens' (token, doc_id) pairs
    survive a broadcast filter into the 10-group ordered fold — the
    full vocabulary never becomes a map_groups key."""
    import ray

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        c = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": list(c.keys()),
                             "df": pd.array(list(c.values()),
                                            dtype="int64")})

    # Two corpus passes instead of one pinned (doc_id, tok) table: the
    # pair table is CORPUS-sized (every distinct token of every doc),
    # so materializing it to feed two consumers is the pin-vs-reread
    # trade paragraph_dedup's docstring argues against.  Pass 1 folds
    # to per-batch Counter partials (vocabulary-bounded shuffle);
    # pass 2 re-tokenizes and emits ONLY the 10 winners' pairs — the
    # second shuffle moves 10 posting lists, never the vocabulary.
    df_counts = coarse_agg(
        docs.map_batches(df_partial, batch_format="pandas"),
        ["tok"], {"df": ("df", "sum")},
    ).to_pandas()
    df_counts["df"] = df_counts["df"].astype("int64")
    top = (df_counts.sort_values(["df", "tok"], ascending=[False, True],
                                 kind="mergesort").head(10))
    top_ref = ray.put(frozenset(top["tok"]))

    def winner_pairs(b: pd.DataFrame) -> pd.DataFrame:
        winners = ray.get(top_ref)
        ids, tks = [], []
        for d, t in zip(b["doc_id"], b["text"]):
            for tok in set(ws_tokens(t or "")) & winners:
                ids.append(int(d))
                tks.append(tok)
        return pd.DataFrame({"doc_id": pd.array(ids, dtype="int64"),
                             "tok": pd.array(tks, dtype="object")})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(int(d) for d in g["doc_id"])
        return pd.DataFrame({"tok": [g["tok"].iloc[0]],
                             "df": pd.array([len(ids)], dtype="int64"),
                             "postings": ["|".join(map(str, ids))]})

    return (docs.map_batches(winner_pairs, batch_format="pandas")
            .groupby("tok").map_groups(fold, batch_format="pandas"))


QUERIES.update({"q_inverted_index": q_inverted_index})


# ---------------------------------------------------------------------------
# PII detection + redaction (training-data hygiene transform)
# ---------------------------------------------------------------------------
def q_pii_redact(sf_dir: str):
    """Redact emails / international phone numbers / IPv4 literals from
    every document and count each category.  Pure per-row transform —
    one map_batches, zero shuffle, the ideal 100-TB shape: compiled
    patterns live in module scope (compiled once per worker process,
    not per batch), and the value-hash gate proves the redacted TEXT is
    byte-identical to the RE2 cascade in the oracle, not just the
    counts.  Pattern-parity rules in ``functions/pii.py``."""
    from bb_ocr_ray.functions.pii import redact_text

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def redact(b: pd.DataFrame) -> pd.DataFrame:
        out = [redact_text(t) for t in b["text"]]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64").to_numpy(),
            "clean_text": [r[0] for r in out],
            "n_emails": pd.array([r[1] for r in out], dtype="int64"),
            "n_phones": pd.array([r[2] for r in out], dtype="int64"),
            "n_ips": pd.array([r[3] for r in out], dtype="int64")})

    return ds.map_batches(redact, batch_format="pandas")


QUERIES.update({"q_pii_redact": q_pii_redact})


# ---------------------------------------------------------------------------
# Paragraph-level exact dedup (sub-document dedup granularity)
# ---------------------------------------------------------------------------
def q_paragraph_dedup(sf_dir: str):
    """Remove every repeated paragraph corpus-wide (first global
    occurrence by (doc_id, idx) wins, later copies dropped — including
    intra-document repeats) and re-emit each document's surviving
    text.  On the single-paragraph synthetic corpus this degenerates
    to whole-doc exact dedup; the edge fixture exercises the real
    multi-paragraph sharing.  Scale shape in
    ``stages.dedup.paragraph_dedup``: two coarse-bucket shuffles
    (paragraph hash, then doc id), paragraph text shuffled once,
    value-hash gate covers the reconstructed text byte-for-byte."""
    from bb_ocr_ray.stages.dedup import paragraph_dedup

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return paragraph_dedup(docs, id_col="doc_id", text_col="text")


QUERIES.update({"q_paragraph_dedup": q_paragraph_dedup})


def q_dup_spans(sf_dir: str):
    """Exact duplicated-substring statistics (Lee et al. ExactSubstr at
    fixed window size): per doc, how many 8-token windows exist and how
    many of them are duplicated anywhere in the corpus (within-doc
    repeats count — the synthetic megadocs repeat their body 8x, so
    they arrive fully duplicated).  Integer-only output; scale shape in
    ``stages.dedup.dup_span_stats`` (two coarse-bucket shuffles, 16-hex
    window hashes travel, never window text)."""
    from bb_ocr_ray.stages.dedup import dup_span_stats

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return dup_span_stats(docs, k=8)


QUERIES.update({"q_dup_spans": q_dup_spans})


# ---------------------------------------------------------------------------
# TF-IDF: top-3 scored terms per document
# ---------------------------------------------------------------------------
def q_tfidf(sf_dir: str, topk: int = 3):
    """Top-3 TF-IDF terms per document.  Two corpus passes, ZERO
    per-doc shuffle: pass 1 builds document frequencies (per-batch
    distinct-per-doc Counter partial -> vocabulary-sized groupby, the
    q_doc_freq shape), the df map is broadcast once via ray.put, and
    pass 2 re-tokenizes each doc and ranks locally.  Tokenizing twice
    trades pure CPU for not shuffling (doc_id, tok, tf) rows per doc
    — at 100 TB the per-doc shuffle (or a corpus-sized materialize
    feeding two consumers) loses to a second pruned read.
    Cross-engine determinism: the RANKING key is the integer triple
    (tf desc, df asc, tok asc) — never the float score, which only
    decorates the output (round 6, absorbed by the gate's rounding).
    Bounded-vocabulary assumption documented: the df map must fit one
    worker's heap (hundreds of MB at web scale after stopword-level
    truncation; this corpus: tiny)."""
    import math
    from collections import Counter

    import ray

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    n_docs = ds.count()

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": list(c.keys()),
                             "df": pd.array(list(c.values()), dtype="int64")})

    df_pd = coarse_agg(
        ds.map_batches(df_partial, batch_format="pandas"),
        ["tok"], {"df": ("df", "sum")},
    ).to_pandas()
    df_ref = ray.put(dict(zip(df_pd["tok"], (int(x) for x in df_pd["df"]))))

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        ids, toks, tfs, dfs, scores = [], [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tf = Counter(ws_tokens(t or ""))
            top = sorted(tf.items(),
                         key=lambda kv: (-kv[1], dfm[kv[0]], kv[0]))[:topk]
            for tok, c in top:
                ids.append(int(d))
                toks.append(tok)
                tfs.append(c)
                dfs.append(dfm[tok])
                scores.append(float(_round_sql(
                    c * math.log(n_docs / dfm[tok]), 6)))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "tok": pd.array(toks, dtype="object"),
            "tf": pd.array(tfs, dtype="int64"),
            "df": pd.array(dfs, dtype="int64"),
            "score": pd.array(scores, dtype="float64")})

    return ds.map_batches(rank, batch_format="pandas")


QUERIES.update({"q_tfidf": q_tfidf})


# ---------------------------------------------------------------------------
# Deterministic train/val/test split assignment
# ---------------------------------------------------------------------------
def q_train_split(sf_dir: str):
    """Hash-based 90/5/5 train/val/test assignment over documents with
    per-(split, source) doc and char counts — the canonical
    training-data partitioning step.  Assignment is a pure function of
    doc_id (stable md5 bucket % 100), so it is reproducible across
    runs, machines, and engines — never random state.  Per-batch
    partial -> one-task final groupby (bounded: 3 × |sources| keys)."""
    from bb_ocr_ray.functions.hashing import stable_u64

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        buck = np.array([stable_u64(str(int(d))) % 100 for d in b["doc_id"]],
                        dtype=np.int64)
        split = np.where(buck < 90, "train",
                         np.where(buck < 95, "val", "test"))
        g = (b.assign(split=split)
             .groupby(["split", "source"], as_index=False)
             .agg(n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum")))
        return g

    def final(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["split", "source"], as_index=False).agg(
            n_docs=("n_docs", "sum"), sum_chars=("sum_chars", "sum"))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["sum_chars"] = g["sum_chars"].astype("int64")
        return g

    return (ds.map_batches(partial, batch_format="pandas")
            .repartition(1)
            .map_batches(final, batch_format="pandas", batch_size=None))


QUERIES.update({"q_train_split": q_train_split})


# ---------------------------------------------------------------------------
# Unigram LM cross-entropy scoring (CCNet-style quality filter)
# ---------------------------------------------------------------------------
def q_lm_score(sf_dir: str):
    """Per-document cross-entropy under a corpus-trained unigram LM —
    the shape of CCNet's perplexity quality filter with the KenLM
    5-gram swapped for a unigram model (no LM artifacts in this env;
    the Ray plumbing — train pass, broadcast model, score pass — is
    identical).  Pass 1 builds corpus token counts (per-batch Counter
    partial -> vocabulary-sized groupby, the q_doc_freq shape with
    multiplicity), the model is broadcast ONCE via ray.put, and pass 2
    re-tokenizes and scores each doc locally: zero per-doc shuffle,
    same two-pass tradeoff as q_tfidf.  Bounded-vocabulary assumption:
    the count map must fit one worker's heap.  Empty/NULL-text docs
    produce no row (no tokens to score).  Float note: the per-doc sum
    of ln() terms accumulates ~1e-13 error across engines — absorbed
    by the gate's round-6."""
    import math
    from collections import Counter

    import ray

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def tc_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": list(c.keys()),
                             "c": pd.array(list(c.values()), dtype="int64")})

    tc_pd = coarse_agg(
        ds.map_batches(tc_partial, batch_format="pandas"),
        ["tok"], {"c": ("c", "sum")},
    ).to_pandas()
    n_total = int(tc_pd["c"].sum())
    model_ref = ray.put(dict(zip(tc_pd["tok"], (int(x) for x in tc_pd["c"]))))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        model = ray.get(model_ref)
        ids, ntoks, ces = [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tf = Counter(ws_tokens(t or ""))
            n = sum(tf.values())
            if n == 0:
                continue
            lp = sum(c * math.log(model[tok] / n_total)
                     for tok, c in tf.items())
            ids.append(int(d))
            ntoks.append(n)
            ces.append(float(_round_sql(-lp / n, 6)))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "n_tok": pd.array(ntoks, dtype="int64"),
            "cross_entropy": pd.array(ces, dtype="float64")})

    return ds.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# Sequence packing (concat-and-split, GPT-style training prep)
# ---------------------------------------------------------------------------
def q_pack_sequences(sf_dir: str, seq_len: int = 64):
    """Concat-and-split sequence packing: within each source, token
    streams are concatenated in doc_id order and cut into fixed
    ``seq_len`` sequences (documents straddle cuts — the GPT
    pre-training packing discipline, vs first-fit bin packing which is
    neither order-stable nor SQL-mirrorable).  Emits one row per
    (source, seq_id): how many docs contributed and the sequence's
    token count (= seq_len except the tail).  Packing is inherently
    sequential per stream, so the unit of parallelism is the stream:
    ``groupby(source).map_groups`` gives each source one task that
    sorts by doc_id and does integer cumsum arithmetic — at 100 TB the
    stream key is the SHARD (source × shard_id), keeping groups
    worker-sized; a giant single source here would serialize, and
    that's a property of the semantics, not the plan.  Integer-exact:
    no floats anywhere.  Zero-token and NULL-text docs contribute
    nothing (they'd otherwise claim a phantom slot in whichever
    sequence the cursor is on)."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "text"])

    def count_toks(b: pd.DataFrame) -> pd.DataFrame:
        n = pd.array([len(ws_tokens(t or "")) for t in b["text"]],
                     dtype="int64")
        out = pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                            "source": b["source"].fillna("").astype(object),
                            "n": n})
        return out[out["n"] > 0]

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n"].to_numpy(dtype=np.int64)
        st = np.cumsum(n) - n                     # start offset per doc
        first = st // seq_len                     # first seq touched
        last = (st + n - 1) // seq_len            # last seq touched
        total = int(n.sum())
        n_seqs = (total + seq_len - 1) // seq_len
        # docs-per-seq via difference array (vectorized interval add)
        diff = np.zeros(n_seqs + 1, dtype=np.int64)
        np.add.at(diff, first, 1)
        np.add.at(diff, last + 1, -1)
        n_docs = np.cumsum(diff[:-1])
        seq_id = np.arange(n_seqs, dtype=np.int64)
        n_tok = np.minimum(seq_len, total - seq_id * seq_len)
        return pd.DataFrame({
            "source": pd.array([g["source"].iloc[0]] * n_seqs,
                               dtype="object"),
            "seq_id": pd.array(seq_id, dtype="int64"),
            "n_docs": pd.array(n_docs, dtype="int64"),
            "n_tok": pd.array(n_tok, dtype="int64")})

    return (ds.map_batches(count_toks, batch_format="pandas")
            .groupby("source")
            .map_groups(pack, batch_format="pandas"))


# ---------------------------------------------------------------------------
# Per-source quota cap (deterministic hash-rank downsampling)
# ---------------------------------------------------------------------------
def q_domain_quota(sf_dir: str, quota: int = 50):
    """Cap each source at ``quota`` documents chosen by ascending
    stable md5 hash of doc_id — the per-domain downsampling step every
    crawl pipeline runs so no single site dominates the training mix.
    Hash-rank selection is a reproducible "random" sample (pure
    function of doc_id, no RNG state).  Per-batch partial keeps only
    its local top-``quota`` per source plus (count, char-sum) totals,
    so the merge task sees O(sources × quota) candidate rows, never
    the corpus — the bounded-aggregate shape of q_train_split with a
    top-k twist.  Output per source: n_total, n_kept, sum_chars_kept."""
    from bb_ocr_ray.functions.hashing import stable_u64

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"].notna()].copy()
        if not len(b):
            return pd.DataFrame({
                "source": pd.array([], dtype="object"),
                "hv": pd.array([], dtype="object"),
                "doc_id": pd.array([], dtype="int64"),
                "n_chars": pd.array([], dtype="float64"),
                "n_sub": pd.array([], dtype="int64")})
        b["source"] = b["source"].fillna("").astype(object)
        # object dtype: hashes are full-width uint64 (> int64 max)
        b["hv"] = pd.array(
            [stable_u64(str(int(d))) for d in b["doc_id"]], dtype="object")
        b["n_sub"] = 1  # rows this candidate row stands for (count only)
        keep = (b.sort_values(["source", "hv", "doc_id"], kind="mergesort")
                .groupby("source", as_index=False, sort=False)
                .head(quota))
        # totals rows: candidates dropped here must still be counted
        dropped = b.loc[~b.index.isin(keep.index)]
        if len(dropped):
            tot = dropped.groupby("source", as_index=False).agg(
                n_sub=("doc_id", "size"))
            tot["hv"] = None       # sorts nowhere: never selectable
            tot["doc_id"] = -1
            tot["n_chars"] = np.nan
            keep = pd.concat([keep, tot[keep.columns]], ignore_index=True)
        return keep

    def final(b: pd.DataFrame) -> pd.DataFrame:
        cand = b[b["hv"].notna()].copy()
        kept = (cand.sort_values(["source", "hv", "doc_id"],
                                 kind="mergesort")
                .groupby("source", as_index=False, sort=False)
                .head(quota))
        out = b.groupby("source", as_index=False).agg(
            n_total=("n_sub", "sum"))
        ks = kept.groupby("source", as_index=False).agg(
            n_kept=("doc_id", "size"),
            sum_chars_kept=("n_chars", "sum"))
        out = out.merge(ks, on="source", how="left")
        out["n_total"] = out["n_total"].astype("int64")
        out["n_kept"] = out["n_kept"].fillna(0).astype("int64")
        out["sum_chars_kept"] = (
            out["sum_chars_kept"].fillna(0).astype("int64"))
        return out

    return (ds.map_batches(partial, batch_format="pandas")
            .repartition(1)
            .map_batches(final, batch_format="pandas", batch_size=None))


# ---------------------------------------------------------------------------
# C4-style line-level filtering
# ---------------------------------------------------------------------------
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "abcdefghijklmnopqrstuvwxyz")


def q_line_filter(sf_dir: str, min_words: int = 3):
    """C4's line-level cleaning rules as a doc-local batch transform:
    a line survives iff (after stripping ASCII space/tab/CR) it ends
    in terminal punctuation [.!?"], has >= ``min_words`` words, and
    does not mention 'javascript' (C4 drops boilerplate JS warnings).
    Emits per doc: total lines, kept lines, and the char length of the
    newline-rejoined cleaned text.  One map_batches, NO shuffle — the
    ideal 100-TB operator shape.  Cross-engine determinism: the
    case-fold for the javascript test is an explicit A-Z->a-z
    translate (Python .lower()/SQL lower() disagree on exotic unicode
    case maps, cf. detect_lang), the strip set and the word splitter
    '[ \\t\\r\\f\\v]+' are shared ASCII classes, and lengths are code
    points on both engines."""
    import re

    word_re = re.compile("[ \t\r\f\v]+")

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def clean(b: pd.DataFrame) -> pd.DataFrame:
        ids, nl, nk, nc = [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            if pd.isna(d):
                continue
            lines = (t or "").split("\n")
            kept_len = 0
            kept = 0
            for raw in lines:
                s = raw.strip(" \t\r")
                if not s or s[-1] not in '.!?"':
                    continue
                if "javascript" in s.translate(_ASCII_LOWER):
                    continue
                if len([w for w in word_re.split(s) if w]) < min_words:
                    continue
                kept += 1
                kept_len += len(s)
            ids.append(int(d))
            nl.append(len(lines))
            nk.append(kept)
            nc.append(kept_len + max(0, kept - 1))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "n_lines": pd.array(nl, dtype="int64"),
            "n_kept": pd.array(nk, dtype="int64"),
            "n_chars_kept": pd.array(nc, dtype="int64")})

    return ds.map_batches(clean, batch_format="pandas")


# ---------------------------------------------------------------------------
# Per-label embedding centroids
# ---------------------------------------------------------------------------
def q_centroids(sf_dir: str):
    """Per-label mean embedding in long form (label, dim, n_vecs,
    mean_val) — the assignment-free half of a k-means iteration and
    the class-prototype builder for embedding-space analytics.
    Per-batch partial: one float64 sum vector + count per label
    (mergeable, O(labels × 64) per batch regardless of batch size);
    final merge in one bounded task.  Accumulation is float64 even
    though storage is float32 — cast is exact, and cross-engine sum
    order differs by ~1e-13, absorbed by round-6."""
    ds = _read_parquet(_t(sf_dir, "embeddings"),
                       columns=["label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sums: dict = {}
        counts: dict = {}
        for lab, emb in zip(b["label"], b["embedding"]):
            if emb is None or (isinstance(emb, float) and pd.isna(emb)):
                continue
            v = np.asarray(emb, dtype=np.float64)
            key = None if pd.isna(lab) else int(lab)
            if key in sums:
                sums[key] += v
                counts[key] += 1
            else:
                sums[key] = v.copy()
                counts[key] = 1
        labs, dims, ns, ss = [], [], [], []
        for key, v in sums.items():
            d = len(v)
            labs.extend([key] * d)
            dims.extend(range(1, d + 1))
            ns.extend([counts[key]] * d)
            ss.extend(v)
        return pd.DataFrame({
            "label": pd.array(labs, dtype="object"),
            "dim": pd.array(dims, dtype="int64"),
            "n_vecs": pd.array(ns, dtype="int64"),
            "s": pd.array(ss, dtype="float64")})

    def final(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["label", "dim"], as_index=False, dropna=False).agg(
            n_vecs=("n_vecs", "sum"), s=("s", "sum"))
        g["n_vecs"] = g["n_vecs"].astype("int64")
        g["mean_val"] = _round_sql(g["s"] / g["n_vecs"], 6)
        # labels are non-null in every fixture; a null would need the
        # Int64 extension dtype, which the gate's canon can't compare
        g["label"] = g["label"].astype("int64")
        return g[["label", "dim", "n_vecs", "mean_val"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .repartition(1)
            .map_batches(final, batch_format="pandas", batch_size=None))


QUERIES.update({"q_lm_score": q_lm_score,
                "q_pack_sequences": q_pack_sequences,
                "q_domain_quota": q_domain_quota,
                "q_line_filter": q_line_filter,
                "q_centroids": q_centroids})


# ---------------------------------------------------------------------------
# Percentile-bounds outlier filter (two-pass, exact global quantiles)
# ---------------------------------------------------------------------------
def q_outlier_filter(sf_dir: str, lo_q: float = 0.01, hi_q: float = 0.99):
    """Drop length outliers outside the corpus's exact [p1, p99] of
    n_chars — the Gopher/RefinedWeb "remove the freak documents" step.
    Exact GLOBAL quantiles over an unbounded corpus normally need a
    sort; n_chars is a bounded-cardinality integer domain, so pass 1
    builds a value histogram instead (per-batch value->count partial
    -> distinct-value-sized groupby -> driver cumsum picks the
    quantile_disc element, ceil(q*n)-1 of the sorted multiset — exact
    at any corpus size with shuffle bytes O(distinct lengths)).  The
    two scalar bounds ride into pass 2 as closure constants; pass 2 is
    a shuffle-free per-source summary (kept / below / above + kept
    char mass).  NULL lengths fall in no bucket on either engine
    (NaN comparisons and SQL FILTER agree)."""
    import math

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "n_chars"])

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["n_chars"].dropna().astype("int64").value_counts()
        return pd.DataFrame({"v": vc.index.to_numpy(dtype=np.int64),
                             "c": vc.to_numpy(dtype=np.int64)})

    # distinct n_chars values are unbounded: coarse_agg
    hist = (coarse_agg(ds.map_batches(hist_partial, batch_format="pandas"),
                       ["v"], {"c": ("c", "sum")})
            .to_pandas().sort_values("v", kind="mergesort"))
    n = int(hist["c"].sum())
    cum = hist["c"].cumsum().to_numpy()
    vals = hist["v"].to_numpy(dtype=np.int64)

    def pick(q: float) -> int:
        # quantile_disc: element at index ceil(q*n)-1 of the sorted
        # multiset == first value whose cumulative count exceeds it
        return int(vals[np.searchsorted(cum, math.ceil(q * n) - 1,
                                        side="right")])

    lo, hi = pick(lo_q), pick(hi_q)

    def summary(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["source"] = b["source"].fillna("").astype(object)
        v = b["n_chars"]
        b["n_kept"] = ((v >= lo) & (v <= hi)).astype("int64")
        b["n_low"] = (v < lo).astype("int64")
        b["n_high"] = (v > hi).astype("int64")
        b["chars_kept"] = v.where(b["n_kept"] == 1, 0)
        g = b.groupby("source", as_index=False).agg(
            n_kept=("n_kept", "sum"), n_low=("n_low", "sum"),
            n_high=("n_high", "sum"), chars_kept=("chars_kept", "sum"))
        return g

    def final(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("source", as_index=False).agg(
            n_kept=("n_kept", "sum"), n_low=("n_low", "sum"),
            n_high=("n_high", "sum"), chars_kept=("chars_kept", "sum"))
        for c in ("n_kept", "n_low", "n_high", "chars_kept"):
            g[c] = g[c].astype("int64")
        g["lo"] = np.int64(lo)
        g["hi"] = np.int64(hi)
        return g

    return (ds.map_batches(summary, batch_format="pandas")
            .repartition(1)
            .map_batches(final, batch_format="pandas", batch_size=None))


QUERIES.update({"q_outlier_filter": q_outlier_filter})


# ---------------------------------------------------------------------------
# Flagship composition #2: clean -> dedup -> quota -> split -> summary
# ---------------------------------------------------------------------------
def q_corpus_pipeline(sf_dir: str, quota: int = 50):
    """Five-stage web-corpus curation pipeline composed from this
    round's operators, one streaming lineage end-to-end:

      1. line-level clean (RefinedWeb-style short-line removal:
         keep lines with >= 15 words and no 'javascript' — the C4
         terminal-punct rule has zero signal on this corpus), drop
         docs with no surviving line, rejoin kept lines with newline;
      2. exact dedup on md5(cleaned text), keep-min-doc_id (the
         q_dedup_exact discipline) — ONE sort shuffle on the 32-char
         hash, payload never shuffled twice;
      3. per-source quota cap by stable hash rank (q_domain_quota);
      4. deterministic 90/5/5 split (q_train_split);
      5. per-(split, source) doc/char summary.

    Stages 3-5 run on bounded data (partial top-quota per batch ->
    one merge task sees O(sources x quota)); stages 1-2 are the
    corpus-sized part and are shuffle-minimal.  The oracle is one CTE
    chain over the same five stages — integer/string-exact
    throughout, so the value-hash gate covers the whole composition,
    not just the stages in isolation."""
    import re

    from bb_ocr_ray.functions.hashing import md5_hex, stable_u64

    word_re = re.compile("[ \t\r\f\v]+")

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "text"])

    def clean(b: pd.DataFrame) -> pd.DataFrame:
        ids, srcs, hs, ns = [], [], [], []
        for d, src, t in zip(b["doc_id"], b["source"], b["text"]):
            if pd.isna(d):
                continue
            kept = []
            for raw in (t or "").split("\n"):
                s = raw.strip(" \t\r")
                if (s and "javascript" not in s.translate(_ASCII_LOWER)
                        and len([w for w in word_re.split(s) if w]) >= 15):
                    kept.append(s)
            if not kept:
                continue
            ctext = "\n".join(kept)
            ids.append(int(d))
            srcs.append("" if pd.isna(src) else src)
            hs.append(md5_hex(ctext))
            ns.append(len(ctext))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "source": pd.array(srcs, dtype="object"),
            "h": pd.array(hs, dtype="object"),
            "n": pd.array(ns, dtype="int64")})

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("doc_id", kind="mergesort").head(1)
                [["doc_id", "source", "n"]])

    def quota_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["hv"] = pd.array(
            [stable_u64(str(int(d))) for d in b["doc_id"]], dtype="object")
        return (b.sort_values(["source", "hv", "doc_id"], kind="mergesort")
                .groupby("source", as_index=False, sort=False).head(quota))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        kept = (b.sort_values(["source", "hv", "doc_id"], kind="mergesort")
                .groupby("source", as_index=False, sort=False)
                .head(quota).copy())
        buck = np.array([stable_u64(str(int(d))) % 100
                         for d in kept["doc_id"]], dtype=np.int64)
        kept["split"] = np.where(buck < 90, "train",
                                 np.where(buck < 95, "val", "test"))
        g = kept.groupby(["split", "source"], as_index=False).agg(
            n_docs=("doc_id", "size"), sum_chars=("n", "sum"))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["sum_chars"] = g["sum_chars"].astype("int64")
        return g

    out = (_grouped_per_key(
               ds.map_batches(clean, batch_format="pandas"), "h", keep_min)
           .map_batches(quota_partial, batch_format="pandas")
           .repartition(1)
           .map_batches(finish, batch_format="pandas", batch_size=None)
           .to_pandas())
    if not len(out.columns):
        # all-empty Datasets lose their schema through to_pandas();
        # the output is report-shaped (splits x sources), so the
        # typed-empty driver-side fallback is the repo convention
        out = pd.DataFrame({"split": pd.array([], dtype="object"),
                            "source": pd.array([], dtype="object"),
                            "n_docs": pd.array([], dtype="int64"),
                            "sum_chars": pd.array([], dtype="int64")})
    return out


QUERIES.update({"q_corpus_pipeline": q_corpus_pipeline})


# ---------------------------------------------------------------------------
# Character-level Shannon entropy (quality signal)
# ---------------------------------------------------------------------------
def q_char_entropy(sf_dir: str):
    """Per-document Shannon entropy over code points, plus the
    distinct-char count — the Gopher-family "gibberish / binary
    spill" quality signal (natural text sits ~3.5-4.5 bits; base64
    blobs and repeated-char padding fall far outside).  Doc-local,
    one map_batches, NO shuffle.  entropy = log2(n) - (1/n) * sum
    c*log2(c) over char counts c — the engine folds per DISTINCT char
    while the oracle sums per occurrence; both accumulate ~1e-13
    float error, absorbed by round-6.  Empty/NULL docs emit no row
    (entropy of nothing is undefined, not zero)."""
    import math
    from collections import Counter

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def ent(b: pd.DataFrame) -> pd.DataFrame:
        ids, ns, nd, es = [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            if pd.isna(d) or not t:
                continue
            c = Counter(t)
            n = len(t)
            h = math.log2(n) - sum(v * math.log2(v)
                                   for v in c.values()) / n
            ids.append(int(d))
            ns.append(n)
            nd.append(len(c))
            es.append(float(_round_sql(h, 6)))
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "n_chars": pd.array(ns, dtype="int64"),
            "n_distinct": pd.array(nd, dtype="int64"),
            "entropy": pd.array(es, dtype="float64")})

    return ds.map_batches(ent, batch_format="pandas")


QUERIES.update({"q_char_entropy": q_char_entropy})


# ---------------------------------------------------------------------------
# Deterministic global shuffle (hash-order training-data reordering)
# ---------------------------------------------------------------------------
def q_pseudo_shuffle(sf_dir: str):
    """Reproducible global shuffle for training-data ordering: sort by
    md5('shuf1|' || doc_id) — a seeded hash order that is identical
    across runs, partition layouts and engines, unlike
    random_shuffle() whose permutation depends on block boundaries.
    At scale this is ONE deterministic range-partitioned sort (the
    same cost as any global sort) and changing the seed string
    reshuffles every epoch.  Returns the first 100 docs of the
    shuffled order with their sort rank."""
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id"])
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "h": [md5_hex(f"shuf1|{int(d)}") for d in b["doc_id"]]})

    head = (ds.map_batches(keyed, batch_format="pandas")
            .sort("h").limit(100).to_pandas())
    head["rank"] = np.arange(1, len(head) + 1, dtype=np.int64)
    return head


QUERIES.update({"q_pseudo_shuffle": q_pseudo_shuffle})


# ---------------------------------------------------------------------------
# Deterministic weighted sampling (importance sampling for data mixing)
# ---------------------------------------------------------------------------
def q_weighted_sample(sf_dir: str):
    """Length-proportional importance sampling — each document is kept
    with probability min(n_chars, 9999)/10000, decided by comparing a
    seeded md5 draw (stable_u64('ws|' || doc_id) mod 10000) against
    its own weight.  The draw is integer-exact and per-row, so the
    sample is reproducible across runs, partition layouts and engines
    (the mixing-weights analog of q_hash_sample; swap n_chars for any
    quality/temperature weight column).  One streaming map, no
    shuffle.  The registry wrapper materializes driver-side only to
    give the legitimately-empty sample (low-weight corpora — the edge
    fixture) a typed schema: an all-empty Dataset loses its schema
    through to_pandas (repo convention); the `keep` primitive itself
    streams."""
    from bb_ocr_ray.functions.hashing import stable_u64

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "n_chars"])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["doc_id"])
        if not len(b):
            return pd.DataFrame({
                "doc_id": pd.array([], dtype="int64"),
                "n_chars": pd.array([], dtype="int64"),
                "draw": pd.array([], dtype="int64")})
        d = b["doc_id"].astype("int64")
        draw = np.fromiter(
            (stable_u64(f"ws|{int(x)}") % 10000 for x in d),
            dtype=np.int64, count=len(d))
        w = np.minimum(b["n_chars"].fillna(0).astype("int64"), 9999)
        m = draw < w
        return pd.DataFrame({
            "doc_id": d[m],
            # mask BEFORE the int cast: a NULL n_chars row can never be
            # kept (weight coalesces to 0) but casting the whole column
            # first raises on the non-finite value.
            "n_chars": b["n_chars"][m].astype("int64"),
            "draw": draw[m]})

    out = ds.map_batches(keep, batch_format="pandas").to_pandas()
    if not len(out.columns):
        out = pd.DataFrame({
            "doc_id": pd.array([], dtype="int64"),
            "n_chars": pd.array([], dtype="int64"),
            "draw": pd.array([], dtype="int64")})
    return out


QUERIES.update({"q_weighted_sample": q_weighted_sample})


# ---------------------------------------------------------------------------
# BM25 relevance scoring (retrieval / data-selection op)
# ---------------------------------------------------------------------------
def q_bm25(sf_dir: str):
    """BM25 top-20 docs for a deterministic 3-term query (the 3 highest
    document-frequency tokens, ties token-asc) — the retrieval /
    quality-selection scorer a training-data pipeline runs over a
    corpus (k1=1.2, b=0.75, the Robertson idf with +1).

    Shape: two aggregate passes (corpus stats fold to one row per
    batch; df is the q_doc_freq pattern), the 3 terms + constants
    broadcast in the task closure, then one scoring map with per-batch
    partial top-20 — nothing row-sized reaches the driver.  The float
    fold over terms is in FIXED term order on both sides; avglen is
    exact-integer-sum / count so the division is bit-identical to the
    oracle's CAST(sum() AS DOUBLE)/count(*)."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    k1, b = 1.2, 0.75
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def stats_partial(bt: pd.DataFrame) -> pd.DataFrame:
        lens = [len(ws_tokens(t or "")) for t in bt["text"]]
        return pd.DataFrame({"n": pd.array([len(lens)], dtype="int64"),
                             "toks": pd.array([int(np.sum(lens)) if lens
                                               else 0], dtype="int64")})

    st = ds.map_batches(stats_partial, batch_format="pandas").to_pandas()
    n_docs = int(st["n"].sum())
    avglen = int(st["toks"].sum()) / n_docs

    def df_partial(bt: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in bt["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"token": list(c.keys()),
                             "df": pd.array(list(c.values()),
                                            dtype="int64")})

    # the token vocabulary is unbounded: coarse_agg (per-group tax)
    dft = coarse_agg(
        ds.map_batches(df_partial, batch_format="pandas"),
        ["token"], {"df": ("df", "sum")},
    ).to_pandas()
    dft["df"] = dft["df"].astype("int64")
    top = dft.sort_values(["df", "token"], ascending=[False, True],
                          kind="mergesort").head(3)
    terms = list(top["token"])
    idf = {t: float(np.log((n_docs - int(d) + 0.5) / (int(d) + 0.5) + 1.0))
           for t, d in zip(top["token"], top["df"])}

    def score_partial(bt: pd.DataFrame) -> pd.DataFrame:
        ids, scores = [], []
        for did, t in zip(bt["doc_id"], bt["text"]):
            tk = ws_tokens(t or "")
            n_tok = len(tk)
            s = 0.0
            if n_tok:
                norm = k1 * (1 - b + b * n_tok / avglen)
                for q in terms:        # fixed fold order (oracle mirrors)
                    tf = tk.count(q)
                    if tf:
                        s += idf[q] * tf * (k1 + 1) / (tf + norm)
            ids.append(int(did))
            scores.append(s)
        out = pd.DataFrame({"doc_id": pd.array(ids, dtype="int64"),
                            "score": _round_sql(
                                pd.Series(scores, dtype="float64"), 4)})
        return out.sort_values(["score", "doc_id"],
                               ascending=[False, True],
                               kind="mergesort").head(20)

    parts = (ds.map_batches(score_partial, batch_format="pandas")
             .to_pandas())          # <=20 rows per batch: driver-sized
    return (parts.sort_values(["score", "doc_id"],
                              ascending=[False, True], kind="mergesort")
            .head(20).reset_index(drop=True))


QUERIES.update({"q_bm25": q_bm25})


# ---------------------------------------------------------------------------
# PageRank (web-graph link analysis)
# ---------------------------------------------------------------------------
def q_pagerank(sf_dir: str, iters: int = 10):
    """PageRank over a deterministic synthetic link graph: each doc
    links to 3 arithmetic targets mod (max_id + 1) — parallel edges
    kept (multiplicity), targets need not be existing docs (dangling
    sinks receive teleport mass only; leaky formulation, no dangling
    redistribution).  The graph generator stands in for a real edge
    table; the OPERATOR (``stages.graph.pagerank``) takes any (src,
    dst) edge Dataset.  Rank rounded to 6 dp (float sums drift below
    1e-12 across engines; in-degree is ~3 so association error is
    far under the rounding grain)."""
    from bb_ocr_ray.stages.graph import pagerank

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    import ray

    m = int(docs.max("doc_id")) + 1

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        # quadratic + 2-to-1 + affine: a deliberately NON-regular graph
        # (skewed in-degrees), so a wrong rank flow cannot hide behind
        # a uniform stationary distribution
        return pd.DataFrame({"src": np.repeat(d, 3),
                             "dst": np.stack([(d * d + 1) % m,
                                              (d // 2 + 7) % m,
                                              (d * 3 + 11) % m],
                                             axis=1).reshape(-1)})

    out = pagerank(docs.map_batches(edges, batch_format="pandas"),
                   iters=iters).to_pandas()
    out["rank"] = _round_sql(out["rank"], 6)
    return out.sort_values("node", kind="mergesort").reset_index(drop=True)


QUERIES.update({"q_pagerank": q_pagerank})


# ---------------------------------------------------------------------------
# Crawl snapshot diff (recrawl ops: added / removed / changed urls)
# ---------------------------------------------------------------------------
def q_crawl_diff(sf_dir: str):
    """Diff two crawl snapshots by url.  Snapshot A = every doc;
    snapshot B is derived deterministically: docs with
    ``doc_id % 7 == 0`` dropped (removed pages), docs with
    ``doc_id % 5 == 0`` get a changed content hash (re-crawled, new
    bytes), and synthetic new urls appear for ``doc_id % 11 == 0``
    (one new page per such doc, url suffixed ``-new``).  Output: one
    row per url in either snapshot with status added / removed /
    changed / same — the recrawl bookkeeping query, exercising the
    bucketed FULL OUTER join at url (row) cardinality.  Content
    identity is md5(text) (A) vs md5(text + '!') for the changed
    subset (B)."""
    from bb_ocr_ray.stages.joins import hash_join

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def side_a(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "url": [f"u{int(d)}" for d in b["doc_id"]],
            "h_a": [md5_hex(t or "") for t in b["text"]]})

    def side_b(b: pd.DataFrame) -> pd.DataFrame:
        keep = b[b["doc_id"] % 7 != 0]
        urls = [f"u{int(d)}" for d in keep["doc_id"]]
        hs = [md5_hex((t or "") + "!") if int(d) % 5 == 0
              else md5_hex(t or "")
              for d, t in zip(keep["doc_id"], keep["text"])]
        new = b[b["doc_id"] % 11 == 0]
        urls += [f"u{int(d)}-new" for d in new["doc_id"]]
        hs += [md5_hex(f"new{int(d)}") for d in new["doc_id"]]
        return pd.DataFrame({"url": urls, "h_b": hs})

    a = docs.map_batches(side_a, batch_format="pandas")
    b = docs.map_batches(side_b, batch_format="pandas")
    j = hash_join(a, b, on="url", how="full")

    def classify(m: pd.DataFrame) -> pd.DataFrame:
        in_a = m["h_a"].notna()
        in_b = m["h_b"].notna()
        status = np.where(~in_a, "added",
                          np.where(~in_b, "removed",
                                   np.where(m["h_a"] == m["h_b"],
                                            "same", "changed")))
        return pd.DataFrame({"url": m["url"].astype(str),
                             "status": pd.array(status, dtype="object")})

    return j.map_batches(classify, batch_format="pandas")


QUERIES.update({"q_crawl_diff": q_crawl_diff})


# ---------------------------------------------------------------------------
# Out-link graph extraction (crawl graph from raw html)
# ---------------------------------------------------------------------------
def q_link_graph(sf_dir: str):
    """Out-link edge counts per (src domain, link path): REAL href
    extraction from the raw html bytes (compiled regex + RFC-3986
    urljoin, fragments dropped, duplicates kept — kernel/links.py),
    aggregated through ONE coarse shuffle.  The synthetic template
    emits a fixed anchor multiset per page ('/' twice via nav + header,
    six other paths once), so the oracle inverts the template
    arithmetically — same philosophy as the golden text extraction.
    At web scale this is the crawl-graph builder feeding
    stages/graph.pagerank."""
    from urllib.parse import urlsplit

    from bb_ocr_ray.kernel.links import extract_links
    from bb_ocr_ray.sources.pages import read_pages

    pages = read_pages(sf_dir)

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        doms, paths = [], []
        for url, html in zip(b["url"], b["html"]):
            txt = bytes(html).decode("utf-8", errors="replace")
            src = urlsplit(url).netloc
            for link in extract_links(txt, url):
                doms.append(src)
                paths.append(urlsplit(link).path)
        return pd.DataFrame({"domain": pd.array(doms, dtype="object"),
                             "path": pd.array(paths, dtype="object")})

    out = coarse_agg(
        pages.map_batches(edges, batch_format="pandas"),
        ["domain", "path"], {"n": ("path", "size")},
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out


QUERIES.update({"q_link_graph": q_link_graph})


# ---------------------------------------------------------------------------
# Cross-run incremental dedup (persisted seen-set / recrawl hygiene)
# ---------------------------------------------------------------------------
def q_incremental_dedup(sf_dir: str):
    """Recrawl against a persisted seen-set: a prior run (the even
    doc_ids) built a shard-partitioned content-hash index
    (state/hash_index — the at-scale version of the reference's
    in-memory seen-set, aggregator.py:61-69); the new full crawl keeps
    one first-seen row per never-before-seen content hash.  The index
    build, the within-batch first-per-hash, and the anti-join are all
    distributed (one coarse shuffle each); the index lives on disk
    between the two phases, exactly as it would between real runs."""
    import shutil
    import tempfile

    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             incremental_dedup)

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def hashed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"content_md5": [md5_hex(t or "") for t in b["text"]],
             "doc_id": b["doc_id"].astype("int64")})

    # the (hash, id) projection is consumed by BOTH simulated runs —
    # materialize it once (two narrow int/hex columns, ~48 B/doc; in
    # real use the runs are separate processes and each hashes only
    # its own batch)
    hds = ds.map_batches(hashed, batch_format="pandas").materialize()
    prior = hds.map_batches(lambda b: b[b["doc_id"] % 2 == 0],
                            batch_format="pandas")
    tmp = tempfile.mkdtemp(prefix="hash_index_q_", dir="/tmp")
    try:
        idx = f"{tmp}/idx"
        build_hash_index(prior, idx, key="content_md5", n_shards=16)
        out = incremental_dedup(hds, idx, key="content_md5",
                                order_col="doc_id").to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = out.rename(columns={"doc_id": "keep_doc_id"})
    out["keep_doc_id"] = out["keep_doc_id"].astype("int64")
    return (out[["content_md5", "keep_doc_id"]]
            .sort_values("content_md5").reset_index(drop=True))


QUERIES.update({"q_incremental_dedup": q_incremental_dedup})


# ---------------------------------------------------------------------------
# Corpus-LM quality scoring (CCNet-style perplexity filter)
# ---------------------------------------------------------------------------
def q_lm_quality(sf_dir: str):
    """Per-document bigram-LM log-likelihood (the scoring half of a
    CCNet/Gopher-style perplexity quality filter — Wenzek et al. 2020,
    public method): train bigram/context counts over the corpus, score
    each doc by the mean log P(w2|w1) of its bigrams.  Self-trained, so
    every doc bigram has count >= 1 (no smoothing needed; a real
    pipeline trains on a reference corpus and smooths — the operator
    shape is identical).

    Complementary to q_lm_score (unigram LM broadcast via ray.put —
    right when the model fits one worker's heap): here the model is
    bigram-sized, so counts attach to the scoring stream via
    DISTRIBUTED bucketed hash joins instead of a broadcast — the
    join-attached posture survives models that outgrow any heap.

    Scale shape (reworked after the sf0.1 sweep showed this the
    slowest query): the corpus-wide (doc, bigram) explode is computed
    TWICE (count fold + join probe) and shuffled ONCE — the context
    table cc(w1) is NOT a second corpus fold, it derives from the
    bigram-count table itself (every occurrence of bigram "w1 w2"
    contributes exactly once to both c and cc, so cc = sum of c over
    bigrams sharing w1 — a vocabulary-sized fold), and cc pre-joins
    into the count table (vocabulary-sized join on w1) so the probe
    stream attaches (c, cc) in a single hash join on bg.  Previously:
    three corpus explodes + four corpus-wide shuffles.  The model
    ASSEMBLY is size-gated on the materialized (bg, c) table's Arrow
    bytes (``sizing.collect_if_fits``): a heap-sized vocabulary builds
    (bg, c, cc) on the driver (two shuffles on a 10^3-row table are
    pure fixed overhead), a web-scale vocabulary routes to the
    distributed fold + join; the corpus-wide probe join is distributed
    on BOTH paths.  At 100 TB
    prune to top-V bigrams by document frequency first (the
    q_inverted_index pattern); the per-doc fold is one more
    coarse_agg.  Nothing row-unbounded on the driver.  avg_logp
    rounds to 6 dp (sum-order + libm-ulp drift is ~1e-13, far under
    the grain)."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import coarse_agg
    from bb_ocr_ray.stages.joins import hash_join

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def bigram_partials(b: pd.DataFrame) -> pd.DataFrame:
        ids, bgs, ks = [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tk = ws_tokens(t or "")
            if len(tk) < 2:
                continue
            c = Counter(zip(tk[:-1], tk[1:]))
            for (w1, w2), k in c.items():
                ids.append(int(d))
                bgs.append(w1 + " " + w2)
                ks.append(k)
        return pd.DataFrame(
            {"doc_id": pd.array(ids, dtype="int64"),
             "bg": pd.array(bgs, dtype="object"),
             "k": pd.array(ks, dtype="int64")})

    import ray.data as rd

    from bb_ocr_ray.stages import sizing

    rows = ds.map_batches(bigram_partials, batch_format="pandas")
    # materialized so an over-limit gate below does not re-run the
    # corpus fold; it is bigram-vocabulary-sized — the LM model
    # itself, not the corpus
    cnt = coarse_agg(rows, ["bg"], {"c": ("k", "sum")}).materialize()

    # the gate measures the (bg, c) table's Arrow bytes
    cnt_tbl = sizing.collect_if_fits(cnt)
    if cnt_tbl is not None:
        # vocabulary fits a heap: assemble (bg, c, cc) on the driver —
        # two shuffles on a 10^3-row table cost whole seconds of fixed
        # overhead (measured 3 s at 32 cpus).  The CORPUS-wide probe
        # join below stays distributed either way; the join-attached
        # posture this query demonstrates is the probe side, which
        # never fits a heap.
        mp = cnt_tbl.to_pandas()
        # ws_tokens splits on ASCII whitespace, so w1 never contains
        # a plain space — the first space in bg is exactly the seam
        mp["w1"] = mp["bg"].str.split(" ", n=1).str[0]
        cc = (mp.groupby("w1", as_index=False)["c"].sum()
              .rename(columns={"c": "cc"}))
        model = rd.from_pandas(
            mp.merge(cc, on="w1").drop(columns=["w1"]))
    else:
        def add_w1(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["w1"] = b["bg"].str.split(" ", n=1).str[0]
            return b

        # cnt_w1 feeds BOTH the context fold and the model join —
        # materialize so neither re-runs the corpus-wide bigram fold
        cnt_w1 = (cnt.map_batches(add_w1, batch_format="pandas")
                  .materialize())
        ctx = coarse_agg(cnt_w1, ["w1"], {"cc": ("c", "sum")})
        model = hash_join(cnt_w1, ctx, on="w1")

    j = hash_join(rows, model, on="bg")

    def lp(b: pd.DataFrame) -> pd.DataFrame:
        # explicit float64 coercion: join output columns can arrive
        # object-dtyped (schema degradation through shuffles) and
        # np.log on an object array falls back to per-element .log()
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "sum_lp": b["k"].astype("float64").to_numpy()
             * np.log(b["c"].astype("float64").to_numpy()
                      / b["cc"].astype("float64").to_numpy()),
             "n": b["k"].astype("int64")})

    out = coarse_agg(j.map_batches(lp, batch_format="pandas"),
                     ["doc_id"],
                     {"sum_lp": ("sum_lp", "sum"), "n_bigrams": ("n", "sum")}
                     ).to_pandas()
    out["n_bigrams"] = out["n_bigrams"].astype("int64")
    out["avg_logp"] = _round_sql(out["sum_lp"] / out["n_bigrams"], 6)
    return (out[["doc_id", "n_bigrams", "avg_logp"]]
            .sort_values("doc_id").reset_index(drop=True))


QUERIES.update({"q_lm_quality": q_lm_quality})


# ---------------------------------------------------------------------------
# PII scrubbing on PLANTED PII (proves the redaction cascade fires)
# ---------------------------------------------------------------------------
def _plant_pii(doc_id: int, text: str) -> str:
    """Deterministic PII synthesis from doc_id arithmetic (the
    q_pagerank/q_crawl_diff pattern — both engines derive the same
    dirty text): emails on %5, international phones on %3, IPv4 on %7.
    Phone digits are sized to functions/pii.PHONE_PAT exactly."""
    t = text or ""
    if doc_id % 5 == 0:
        t += f" contact user{doc_id}@mail{doc_id % 9}.example.com"
    if doc_id % 3 == 0:
        t += (f" call +{1 + doc_id % 98} {100 + doc_id % 900}"
              f" {100 + (doc_id * 7) % 900} {1000 + doc_id % 9000}")
    if doc_id % 7 == 0:
        t += f" from 10.{doc_id % 256}.{(doc_id * 3) % 256}.{doc_id % 100}"
    return t


def q_pii_scrub(sf_dir: str):
    """The REAL redaction cascade (functions/pii.redact_text —
    email -> phone -> IPv4, sequential, RE2-parity patterns) exercised
    on text with PLANTED PII.  q_pii_redact runs the same cascade on
    the raw corpus, which carries no PII — its value-hash gate proves
    only that clean text passes through unchanged.  This query plants
    deterministic emails/phones/IPs from doc_id arithmetic so the
    oracle verifies the cascade actually FIRES: per-category counts
    plus the md5 of the redacted text (byte-exact rewrite, not just
    counts).  One streaming map, no shuffle."""
    from bb_ocr_ray.functions.pii import redact_text

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def scrub(b: pd.DataFrame) -> pd.DataFrame:
        ids, n_em, n_ph, n_ip, digests = [], [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            d = int(d)
            clean, ke, kp, ki = redact_text(_plant_pii(d, t))
            ids.append(d)
            n_em.append(ke)
            n_ph.append(kp)
            n_ip.append(ki)
            digests.append(md5_hex(clean))
        return pd.DataFrame({"doc_id": pd.array(ids, dtype="int64"),
                             "n_emails": pd.array(n_em, dtype="int64"),
                             "n_phones": pd.array(n_ph, dtype="int64"),
                             "n_ips": pd.array(n_ip, dtype="int64"),
                             "clean_md5": pd.array(digests, dtype="object")})

    out = ds.map_batches(scrub, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES.update({"q_pii_scrub": q_pii_scrub})


# ---------------------------------------------------------------------------
# Data-mixing rebalance (downsample to the minority language)
# ---------------------------------------------------------------------------
def q_mix_balance(sf_dir: str):
    """Language-mix rebalancing (the data-mixing step of a pre-training
    pipeline): derive per-language keep probabilities that downsample
    every language to the MINORITY language's expected count, then keep
    rows by a seeded integer draw.  Unlike q_stratified_sample (fixed
    externally-given rates), the rates here are DERIVED from the data:
    p(lang) = floor(10000 * min_count / count(lang)).

    Scale shape: the per-language counts are one coarse fold
    (|langs|-sized), the rate table broadcasts as a dict, and the keep
    decision is one streaming map with the q_weighted_sample draw
    (stable_u64('mix|' || doc_id) % 10000 — integer-exact,
    reproducible across runs, layouts, and engines).  NULL langs form
    their own group ('<null>' key both sides)."""
    from bb_ocr_ray.functions.hashing import stable_u64

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "lang"])

    def key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "lang": b["lang"].fillna("<null>").astype(str)})

    keyed = ds.map_batches(key, batch_format="pandas")
    cnt = coarse_agg(keyed, ["lang"], {"n": ("doc_id", "size")}).to_pandas()
    mn = int(cnt["n"].min())
    rates = {l: (10000 * mn) // int(n)
             for l, n in zip(cnt["lang"], cnt["n"])}

    import ray

    rates_ref = ray.put(rates)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(rates_ref)
        if not len(b):
            return b
        draw = np.fromiter(
            (stable_u64(f"mix|{int(x)}") % 10000 for x in b["doc_id"]),
            dtype=np.int64, count=len(b))
        p = b["lang"].map(r).astype("int64").to_numpy()
        return b[draw < p]

    out = keyed.map_batches(keep, batch_format="pandas").to_pandas()
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "lang"]])


QUERIES.update({"q_mix_balance": q_mix_balance})


# ---------------------------------------------------------------------------
# Standalone connected components over a link graph (SURVEY §2.7 family)
# ---------------------------------------------------------------------------
def q_connected_components(sf_dir: str):
    """Distributed connected components (alternating large-star /
    small-star, Kiveris et al. 2014 — ``stages.dedup
    .connected_components_ds``) over a deterministic chain graph:
    doc d links to d+1 iff (d² + 3d) mod 11 ≥ 3 AND d+1 is a real doc
    (existence enforced by a distributed semi-join, so id gaps break
    chains on both engines).  Expected run length ~3.7 with an
    irregular tail, so convergence takes several star rounds — real
    multi-hop propagation, not one-hop lookups.  Components here are
    intervals by construction, which is what makes a WINDOW-function
    oracle possible (min-label over an arbitrary graph needs recursive
    SQL); the operator itself is exercised on arbitrary graphs by the
    near-dup differential tests.  Docs with no surviving edge are
    their own component (left join + fill)."""
    from bb_ocr_ray.stages.dedup import connected_components_ds
    from bb_ocr_ray.stages.joins import auto_semi, hash_join

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        d = d[((d * d + 3 * d) % 11) >= 3]
        return pd.DataFrame({"id_a": d, "id_b": d + 1})

    cand = docs.map_batches(edges, batch_format="pandas")
    real = auto_semi(
        cand.map_batches(lambda b: b.rename(columns={"id_b": "doc_id"}),
                         batch_format="pandas"),
        docs, on="doc_id",
    ).map_batches(lambda b: b.rename(columns={"doc_id": "id_b"}),
                  batch_format="pandas")

    cc = connected_components_ds(real)
    out = hash_join(docs, cc, on="doc_id", how="left").to_pandas()
    comp = out["component"].fillna(out["doc_id"]).astype("int64")
    return (pd.DataFrame({"doc_id": out["doc_id"].astype("int64"),
                          "component": comp})
            .sort_values("doc_id").reset_index(drop=True))


QUERIES.update({"q_connected_components": q_connected_components})


# ---------------------------------------------------------------------------
# Distributed multinomial Naive Bayes (train = count aggregation, score =
# broadcast-model map; the classic quality/language classifier shape)
# ---------------------------------------------------------------------------
def q_nb_classify(sf_dir: str):
    """Multinomial Naive Bayes with Laplace smoothing, trained and
    applied distributed: TRAINING is nothing but count aggregation —
    per-(lang, token) counts and per-lang doc counts, each one
    per-batch Counter partial + one coarse_agg — so the classic
    fastText-shaped corpus classifier needs no parameter server.  The
    fitted model (|V|·K counts) is broadcast ONCE via ray.put and the
    SCORE pass is shuffle-free (bounded-vocabulary assumption, the
    q_lm_score posture; at web-scale vocabularies attach counts by a
    token hash join instead — the q_lm_quality posture).

    Split: doc_id % 5 != 0 trains, % 5 == 0 is scored.  Zero-token
    test docs are skipped (no evidence, same rule as q_lm_score).
    score = ln(nd_L/N) + Σ_tok f·ln((c_{L,tok}+1)/(tot_L+V)), rounded
    to 6 dp on both engines before the argmax; ties break on lang
    ascending.  NULL lang trains as the '<null>' class (q_mix_balance
    convention)."""
    import math
    from collections import Counter

    import ray

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "lang", "text"])

    def tok_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 5 != 0]
        c = Counter()
        for lg, t in zip(b["lang"].fillna("<null>"), b["text"]):
            for tok in ws_tokens(t or ""):
                c[(lg, tok)] += 1
        ks = list(c.keys())
        return pd.DataFrame({
            "lang": pd.array([k[0] for k in ks], dtype="object"),
            "tok": pd.array([k[1] for k in ks], dtype="object"),
            "c": pd.array(list(c.values()), dtype="int64")})

    def doc_partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 5 != 0]
        g = (b.assign(lang=b["lang"].fillna("<null>"))
             .groupby("lang", as_index=False).agg(nd=("doc_id", "size")))
        g["nd"] = g["nd"].astype("int64")
        return g

    cnt_pd = coarse_agg(
        ds.map_batches(tok_partial, batch_format="pandas"),
        ["lang", "tok"], {"c": ("c", "sum")}).to_pandas()
    prior_pd = coarse_agg(
        ds.map_batches(doc_partial, batch_format="pandas"),
        ["lang"], {"nd": ("nd", "sum")}).to_pandas()

    n_train = int(prior_pd["nd"].sum())
    vocab = int(cnt_pd["tok"].nunique())
    tot = {lg: int(s) for lg, s in
           cnt_pd.groupby("lang")["c"].sum().items()}
    nd = dict(zip(prior_pd["lang"], (int(x) for x in prior_pd["nd"])))
    langs = sorted(nd)
    model_ref = ray.put({
        "cnt": {(lg, tk): int(c) for lg, tk, c in
                zip(cnt_pd["lang"], cnt_pd["tok"], cnt_pd["c"])},
        "tot": tot, "nd": nd, "langs": langs,
        "n": n_train, "v": vocab})

    def score(b: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(model_ref)
        cnt, totl = m["cnt"], m["tot"]
        ids, truth, preds, s6s = [], [], [], []
        b = b[b["doc_id"] % 5 == 0]
        for d, lg, t in zip(b["doc_id"], b["lang"].fillna("<null>"),
                            b["text"]):
            tf = Counter(ws_tokens(t or ""))
            if not tf:
                continue
            best_s, best_l = None, None
            for L in m["langs"]:           # ascending: tie keeps min lang
                denom = totl.get(L, 0) + m["v"]
                s = math.log(m["nd"][L] / m["n"]) + sum(
                    f * math.log((cnt.get((L, tok), 0) + 1) / denom)
                    for tok, f in tf.items())
                s6 = float(_round_sql(s, 6))
                if best_s is None or s6 > best_s:
                    best_s, best_l = s6, L
            ids.append(int(d))
            truth.append(lg)
            preds.append(best_l)
            s6s.append(best_s)
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "lang": pd.array(truth, dtype="object"),
            "pred": pd.array(preds, dtype="object"),
            "score6": pd.array(s6s, dtype="float64")})

    out = ds.map_batches(score, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES.update({"q_nb_classify": q_nb_classify})


# ---------------------------------------------------------------------------
# Per-domain boilerplate line removal (CCNet/C4 corpus cleaning)
# ---------------------------------------------------------------------------
def _plant_boiler(doc_id: int, source: str, text: str) -> str:
    """Deterministic boilerplate synthesis from doc_id/source
    arithmetic (the q_pii_scrub pattern — both engines derive the same
    dirty text): a copyright banner and nav menu on EVERY doc of a
    source (df 100% -> dropped), a newsletter line on half of each
    source's docs (~50% -> kept, exercising the
    frequent-but-below-threshold branch), a promo line on 3/4 of them
    (~75% -> dropped), the original body, and a per-doc unique
    footnote (df 1 -> kept).  The conditions key on doc_id // 20 —
    the WITHIN-source index (source = doc_id % 20 in the synthetic
    tables), so the ratios hold inside every source; doc_id % 2 would
    be constant per source and degenerate to 0%/100%."""
    parts = [f"(c) 2026 {source} all rights reserved",
             f"home | about | contact {source}"]
    if (doc_id // 20) % 2 == 0:
        parts.append(f"subscribe to {source} newsletter")
    if (doc_id // 20) % 4 < 3:
        parts.append(f"promo {source} deals")
    parts.append(text or "")
    parts.append(f"footnote {doc_id}")
    return "\n".join(parts)


def q_boilerplate(sf_dir: str):
    """CCNet/C4-style per-domain boilerplate removal
    (:func:`stages.boilerplate.remove_boilerplate`) exercised on text
    with PLANTED banners: drop every line present in > 60% of a
    source's docs (and >= 2 of them), rebuild each doc from its kept
    lines in order.  The md5 of the rebuilt text proves the rewrite is
    byte-exact, not just counted; megadoc bodies carry real within-doc
    repeated lines, so the doc-local-distinct df counting is exercised
    too.  The keep/drop decision is exact integer arithmetic
    (df*100 > 60*n_docs) on both engines."""
    from bb_ocr_ray.stages.boilerplate import remove_boilerplate

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "source", "text"])

    def dirty(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "source": b["source"],
             "text": [_plant_boiler(int(d), s, t) for d, s, t in
                      zip(b["doc_id"], b["source"], b["text"])]})

    cleaned = remove_boilerplate(
        docs.map_batches(dirty, batch_format="pandas"))
    out = cleaned.map_batches(
        lambda b: pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "n_lines": b["n_lines"].astype("int64"),
             "n_kept": b["n_kept"].astype("int64"),
             "clean_md5": [md5_hex(t) for t in b["clean_text"]]}),
        batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


QUERIES.update({"q_boilerplate": q_boilerplate})


# ---------------------------------------------------------------------------
# PMI cooccurrence pairs (word-association / phrase mining)
# ---------------------------------------------------------------------------
def q_pmi_pairs(sf_dir: str, window: int = 2, min_count: int = 5,
                topk: int = 20):
    """Pointwise mutual information over skip-gram token pairs (Church
    & Hanks 1990; the word2vec-era association-mining input — public
    method): for every ordered pair (t[i], t[i+d]), d in 1..window,
    PMI = ln(P(pair) / (P(w1) P(w2))) with P(pair) = c12/n_pairs and
    P(w) = c/n_tokens.  Top-k pairs by (pmi desc, w1, w2) at
    c12 >= min_count.

    Scale shape: per-batch Counter partials bound both explodes at
    per-doc vocabulary; the pair and unigram tables are
    vocabulary-sized coarse folds; the c12 >= min_count filter shrinks
    the pair table BEFORE the two unigram attachments (vocab-sized
    hash joins — never corpus-wide); the grand totals are two
    aggregate sums.  The sort ranks the filtered pair table only.
    pmi rounds to 6 dp before ranking (cross-engine libm drift is
    ~1e-13; ties break on the pair itself)."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import coarse_agg
    from bb_ocr_ray.stages.joins import hash_join

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def pair_partials(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            tk = ws_tokens(t or "")
            for d in range(1, window + 1):
                c.update(zip(tk[:-d], tk[d:]))
        if not c:
            return pd.DataFrame({"w1": pd.array([], dtype="object"),
                                 "w2": pd.array([], dtype="object"),
                                 "k": pd.array([], dtype="int64")})
        w1s, w2s = zip(*c.keys())
        return pd.DataFrame({"w1": pd.array(w1s, dtype="object"),
                             "w2": pd.array(w2s, dtype="object"),
                             "k": pd.array(list(c.values()),
                                           dtype="int64")})

    def tok_partials(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": pd.array(list(c.keys()),
                                             dtype="object"),
                             "k": pd.array(list(c.values()),
                                           dtype="int64")})

    # the pair table feeds the min_count filter AND the grand total —
    # pair-vocabulary-sized, materialize once so the corpus explode
    # runs exactly once for it
    pairs = coarse_agg(ds.map_batches(pair_partials,
                                      batch_format="pandas"),
                       ["w1", "w2"], {"c12": ("k", "sum")}).materialize()
    # unigram counts feed BOTH attachments and both grand totals —
    # vocabulary-sized, materialize once
    uni = coarse_agg(ds.map_batches(tok_partials, batch_format="pandas"),
                     ["tok"], {"c": ("k", "sum")}).materialize()

    n_tokens = int(uni.sum("c"))
    n_pairs = int(pairs.sum("c12"))
    kept = pairs.filter(expr=f"c12 >= {int(min_count)}")

    j = hash_join(
        kept.map_batches(lambda b: b.rename(columns={"w1": "tok"}),
                         batch_format="pandas"),
        uni, on="tok")
    j = hash_join(
        j.map_batches(
            lambda b: pd.DataFrame({"w1": b["tok"], "c1": b["c"],
                                    "w2": b["w2"], "c12": b["c12"]})
            .rename(columns={"w2": "tok"}), batch_format="pandas"),
        uni, on="tok")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        c12 = b["c12"].astype("float64").to_numpy()
        c1 = b["c1"].astype("float64").to_numpy()
        c2 = b["c"].astype("float64").to_numpy()
        pmi = np.log(c12 / n_pairs * n_tokens / c1 * n_tokens / c2)
        return pd.DataFrame({"w1": b["w1"], "w2": b["tok"],
                             "c12": b["c12"].astype("int64"),
                             "pmi": _round_sql(pd.Series(pmi), 6)})

    out = (j.map_batches(score, batch_format="pandas")
           .sort(["pmi", "w1", "w2"], descending=[True, False, False])
           .limit(topk).to_pandas())
    return out.reset_index(drop=True)


QUERIES.update({"q_pmi_pairs": q_pmi_pairs})


# ---------------------------------------------------------------------------
# Hybrid retrieval: reciprocal-rank fusion of BM25 + dense cosine arms
# ---------------------------------------------------------------------------
def q_hybrid_rrf(sf_dir: str, k_fuse: int = 60):
    """Reciprocal-rank fusion of a lexical and a dense retrieval arm —
    the hybrid-retrieval step of a RAG / retrieval stack (Cormack,
    Clarke & Buettcher SIGIR'09; public method).  The arms are the
    existing operators: q_bm25's top-20 (corpus-stat folds + partial
    top-k scoring map) and ann_topk's exact cosine top-20 for query
    vector 0 (query broadcast once, corpus streams, distributed
    partial top-k).  Both arm outputs are k-row aggregates, so the
    fusion itself is driver-side arithmetic BY CONSTRUCTION — the
    distributed work is inside the arms.  RRF contributions
    1/(k_fuse + rank) are integer-ratio doubles, bit-identical across
    engines; outputs round to 6 dp (the canon grain).  BOTH arms rank
    at a fixed 4 dp grain — the BM25 arm rounds its score and the
    dense arm rounds the cosine (``score_round=4``, mirrored by
    ``round(list_cosine_similarity(...), 4)`` in the oracle) so a
    near-tie at the k=20 boundary cannot flip set membership between
    engines (ADVICE r4)."""
    from bb_ocr_ray.stages.ann import ann_topk

    lex = q_bm25(sf_dir).reset_index(drop=True)
    lex["r_lex"] = np.arange(1, len(lex) + 1, dtype="int64")

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])
    dn = ann_topk(vecs, query_ids=[0], k=20, score_round=4).to_pandas()
    dn = pd.DataFrame({"doc_id": dn["neighbor_id"].astype("int64"),
                       "r_dense": dn["rank"].astype("int64")})

    f = lex[["doc_id", "r_lex"]].merge(dn, on="doc_id", how="outer")
    lexc = np.where(f["r_lex"].notna(),
                    1.0 / (k_fuse + f["r_lex"].fillna(0)), 0.0)
    denc = np.where(f["r_dense"].notna(),
                    1.0 / (k_fuse + f["r_dense"].fillna(0)), 0.0)
    out = pd.DataFrame({
        "doc_id": f["doc_id"].astype("int64"),
        "lex_rrf": _round_sql(pd.Series(lexc), 6),
        "dense_rrf": _round_sql(pd.Series(denc), 6),
        "rrf": _round_sql(pd.Series(lexc + denc), 6)})
    return (out.sort_values(["rrf", "doc_id"], ascending=[False, True])
            .reset_index(drop=True))


QUERIES.update({"q_hybrid_rrf": q_hybrid_rrf})


# ---------------------------------------------------------------------------
# c-TF-IDF cluster labeling (BERTopic-style top terms per cluster)
# ---------------------------------------------------------------------------
def q_ctfidf(sf_dir: str, topk: int = 5):
    """Class-based TF-IDF over the embedding clusters — the topic /
    cluster LABELING step of a BERTopic-style corpus map (Grootendorst
    2022; public method): every document joins its cluster id (the
    embeddings table's label column, 1:1 on id), per-(cluster, term)
    counts fold once, and W(t,c) = tf(t,c) * ln(1 + A / f(t)) ranks
    each cluster's characteristic terms, where f(t) is the term's
    corpus-wide count and A the mean tokens per cluster.

    Scale shape: one 1:1 bucketed hash join attaches cluster ids; the
    (cluster, term) table is one coarse fold bounded by cluster-local
    vocabulary; f(t) derives from THAT table (vocabulary-sized fold —
    the q_lm_quality trick, never a second corpus pass); A is an
    aggregate scalar; top-k per cluster is the partial-top-k +
    grouped-final pattern.  W rounds to 6 dp before ranking; ties
    break term-ascending on both engines."""
    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.joins import hash_join

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])
    labels = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "label"]).map_batches(
        lambda b: pd.DataFrame({"doc_id": b["vec_id"].astype("int64"),
                                "label": b["label"].astype("int64")}),
        batch_format="pandas")

    joined = hash_join(docs, labels, on="doc_id")

    def term_partials(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter
        c = Counter()
        for lab, t in zip(b["label"], b["text"]):
            for tok in ws_tokens(t or ""):
                c[(int(lab), tok)] += 1
        if not c:
            return pd.DataFrame({"label": pd.array([], dtype="int64"),
                                 "token": pd.array([], dtype="object"),
                                 "k": pd.array([], dtype="int64")})
        labs, toks = zip(*c.keys())
        return pd.DataFrame({"label": pd.array(labs, dtype="int64"),
                             "token": pd.array(toks, dtype="object"),
                             "k": pd.array(list(c.values()),
                                           dtype="int64")})

    # (cluster, term) counts — the model table; feeds f(t), A and the
    # scoring scan, so materialize once (vocabulary-sized)
    ct = coarse_agg(joined.map_batches(term_partials,
                                       batch_format="pandas"),
                    ["label", "token"], {"tf": ("k", "sum")}).materialize()

    ft = coarse_agg(ct, ["token"], {"f": ("tf", "sum")})
    n_classes = len(ct.unique("label"))
    total_tokens = int(ct.sum("tf"))
    avg_per_class = total_tokens / n_classes

    scored = hash_join(ct, ft, on="token")

    def score(b: pd.DataFrame) -> pd.DataFrame:
        w = (b["tf"].astype("float64").to_numpy()
             * np.log(1.0 + avg_per_class
                      / b["f"].astype("float64").to_numpy()))
        return pd.DataFrame({"label": b["label"].astype("int64"),
                             "token": b["token"],
                             "tf": b["tf"].astype("int64"),
                             "w": _round_sql(pd.Series(w), 6)})

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(["label", "w", "token"],
                              ascending=[True, False, True],
                              kind="mergesort")
                .groupby("label", as_index=False).head(topk))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["w", "token"], ascending=[False, True],
                          kind="mergesort").head(topk)
        return g.assign(rank=pd.Series(range(1, len(g) + 1),
                                       dtype="int64").values)

    out = (scored.map_batches(score, batch_format="pandas")
           .map_batches(local_topk, batch_format="pandas")
           .groupby("label").map_groups(final_topk,
                                        batch_format="pandas")
           .to_pandas())
    return (out.sort_values(["label", "rank"])
            .reset_index(drop=True))


QUERIES.update({"q_ctfidf": q_ctfidf})


# ---------------------------------------------------------------------------
# Sorted-neighborhood blocking pairs (merge/purge dedup family)
# ---------------------------------------------------------------------------
def q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood candidate pairs
    (:func:`stages.dedup.sorted_neighborhood_pairs`, window 3,
    blocking key = first 12 chars of text): the non-LSH dedup
    blocking strategy.  Rank parity holds across engines because the
    (key, doc_id) order is total, Python compares str by codepoint,
    and DuckDB's default binary collation compares UTF-8 bytes —
    UTF-8 preserves codepoint order, so the two sorts are identical
    on any text."""
    from bb_ocr_ray.stages.dedup import sorted_neighborhood_pairs

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])
    out = sorted_neighborhood_pairs(docs).to_pandas()
    return (out.sort_values(["id_a", "id_b"])
            .reset_index(drop=True))


QUERIES.update({"q_sorted_neighborhood": q_sorted_neighborhood})


# ---------------------------------------------------------------------------
# Distributed covariance of the embedding matrix (PCA input)
# ---------------------------------------------------------------------------
def q_embed_covariance(sf_dir: str, dim: int = 64):
    """Full covariance matrix of the embedding corpus — the input of a
    PCA / whitening stage, computed as DISTRIBUTED MATRIX PARTIAL
    SUMS: each batch contributes one vectorized X^T X (numpy matmul,
    upper triangle flattened to (i, j, sxy) rows), the column-sum
    vector, and its row count; one coarse fold merges the partials and
    the final (dim x (dim+1)/2)-row covariance assembles from the
    merged sums.  Nothing corpus-sized moves: the shuffle carries
    2,080 partial rows PER BATCH regardless of batch row count.

    Both engines evaluate the identical expression
    cov = (Sxy - Sx*Sy/n)/n from their own float64 sums; summation
    order differs (numpy pairwise vs DuckDB sequential) by ~1e-12
    relative, absorbed by the round-6 grain."""
    from bb_ocr_ray.stages.coarse import coarse_agg

    ds = _read_parquet(_t(sf_dir, "embeddings"), columns=["embedding"])
    iu, ju = np.triu_indices(dim)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(v, dtype=np.float64)
                        for v in b["embedding"]])
        if not len(X):
            return pd.DataFrame({"i": pd.array([], dtype="int64"),
                                 "j": pd.array([], dtype="int64"),
                                 "s": pd.array([], dtype="float64")})
        if X.shape[1] != dim:
            # triu_indices(dim) silently indexes a sub-block of a
            # WIDER M — fail loudly on a schema change (ADVICE r4)
            raise ValueError(
                f"embedding width {X.shape[1]} != configured dim {dim}")
        M = X.T @ X                       # dim x dim, one BLAS call
        sx = X.sum(axis=0)
        # (i, j) 1-based upper triangle; (i, 0) rows carry the column
        # sums; (0, 0) carries the row count — one uniform fold key
        return pd.DataFrame({
            "i": np.concatenate([iu + 1, np.arange(1, dim + 1),
                                 [0]]).astype("int64"),
            "j": np.concatenate([ju + 1, np.zeros(dim, dtype=int),
                                 [0]]).astype("int64"),
            "s": np.concatenate([M[iu, ju], sx,
                                 [float(len(X))]])})

    merged = coarse_agg(ds.map_batches(partial, batch_format="pandas"),
                        ["i", "j"], {"s": ("s", "sum")}).to_pandas()

    n = float(merged.loc[(merged["i"] == 0) & (merged["j"] == 0),
                         "s"].iloc[0])
    sx = (merged[(merged["j"] == 0) & (merged["i"] > 0)]
          .set_index("i")["s"])
    up = merged[merged["j"] > 0]
    cov = ((up["s"].to_numpy()
            - sx.loc[up["i"]].to_numpy() * sx.loc[up["j"]].to_numpy() / n)
           / n)
    out = pd.DataFrame({"i": up["i"].astype("int64").to_numpy(),
                        "j": up["j"].astype("int64").to_numpy(),
                        "cov": _round_sql(pd.Series(cov), 6)})
    return out.sort_values(["i", "j"]).reset_index(drop=True)


QUERIES.update({"q_embed_covariance": q_embed_covariance})


# ---------------------------------------------------------------------------
# Typo-variant vocabulary pairs (SymSpell deletion-neighborhood blocking)
# ---------------------------------------------------------------------------
def q_typo_pairs(sf_dir: str):
    """Vocabulary pairs at byte-Levenshtein distance EXACTLY 1 via
    :func:`stages.dedup.typo_variant_pairs` (FastSS / SymSpell
    deletion-neighborhood blocking) — the spelling-variant mining /
    vocabulary-cleaning step of a corpus pipeline.  The clean
    synthetic vocabulary has no distance-1 pairs, so typos are
    PLANTED (the q_pii_scrub pattern): every doc_id % 3 == 0 doc
    appends its first token with the second character dropped; both
    engines derive the same dirty text, and the planted variants
    clear the df >= 5 vocabulary gate.  The oracle verifies with
    DuckDB's own levenshtein() over the vocabulary cross join — a
    genuinely independent distance implementation (byte-based, which
    is why the engine's verify runs on UTF-8 bytes)."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.dedup import typo_variant_pairs

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def dirty(b: pd.DataFrame) -> pd.DataFrame:
        texts = []
        for d, t in zip(b["doc_id"], b["text"]):
            t = t or ""
            tk = ws_tokens(t)
            if int(d) % 3 == 0 and tk and len(tk[0]) >= 4:
                t = t + " " + tk[0][:1] + tk[0][2:]
            texts.append(t)
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "text": pd.array(texts, dtype="object")})

    dd = ds.map_batches(dirty, batch_format="pandas")

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": pd.array(list(c.keys()),
                                             dtype="object"),
                             "df": pd.array(list(c.values()),
                                            dtype="int64")})

    vocab = coarse_agg(dd.map_batches(df_partial, batch_format="pandas"),
                       ["tok"], {"df": ("df", "sum")}).map_batches(
        lambda b: b[(b["df"].astype("int64") >= 5)
                    & (b["tok"].str.len() >= 4)][["tok"]],
        batch_format="pandas").materialize()

    out = typo_variant_pairs(vocab).to_pandas()
    if not len(out):
        return pd.DataFrame({"tok_a": pd.array([], dtype="object"),
                             "tok_b": pd.array([], dtype="object")})
    return (out.sort_values(["tok_a", "tok_b"])
            .reset_index(drop=True))


QUERIES.update({"q_typo_pairs": q_typo_pairs})


# ---------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg link analysis)
# ---------------------------------------------------------------------------
def q_hits(sf_dir: str, iters: int = 5):
    """HITS over the q_pagerank link graph (same deterministic
    3-targets-mod-m generator — skewed in-degrees, dangling ids) via
    :func:`stages.graph.hits`: per half-round one neighbor-sum fold +
    one L2 normalization, update order a_i from h_{i-1} then h_i from
    the JUST-normalized a_i, mirrored exactly by the unrolled SQL
    oracle.  Scores round to 6 dp (normalization drift is ~1e-13,
    far under the grain)."""
    from bb_ocr_ray.stages.graph import hits

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    m = int(docs.max("doc_id")) + 1

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        return pd.DataFrame({"src": np.repeat(d, 3),
                             "dst": np.stack([(d * d + 1) % m,
                                              (d // 2 + 7) % m,
                                              (d * 3 + 11) % m],
                                             axis=1).reshape(-1)})

    out = hits(docs.map_batches(edges, batch_format="pandas"),
               iters=iters).to_pandas()
    out["authority"] = _round_sql(out["authority"], 6)
    out["hub"] = _round_sql(out["hub"], 6)
    return out.sort_values("node").reset_index(drop=True)


QUERIES.update({"q_hits": q_hits})


# ---------------------------------------------------------------------------
# Inverted index build (term -> ordered posting list)
# ---------------------------------------------------------------------------
def q_posting_lists(sf_dir: str, min_df: int = 5):
    """Build the df-banded inverted index over documents: one row per
    surviving term with its document frequency and the FULL ordered
    posting list (comma-joined doc ids — value-hash-checkable).  Terms
    keep ``df >= min_df`` (typo/hapax floor) and ``df*5 <= 3*n_docs``
    (stopword ceiling, exact integer arithmetic — the 60% bar also
    BOUNDS every posting row, so no term can produce a corpus-sized
    output row; real indexers shard hotter terms instead of inlining
    them).

    Terms are unigrams AND adjacent bigrams (``a_b``): the synthetic
    corpus's 31-token unigram vocabulary is all stopword-frequency
    (the ceiling cuts every one — proving it fires), while the ~900
    bigrams spread across the band and the hapax floor.

    Scale shape: per-doc DISTINCT terms explode in-task (a doc never
    splits across batches), ONE coarse shuffle on the term moves
    (term, doc_id) pairs, and each bucket folds its terms with a
    sort + boundary scan.  n_docs is a parquet-metadata count."""
    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import _bucket_ids
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    n_buckets = _auto_num_buckets()
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])
    n_docs = docs.count()

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        terms, ids = [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tk = ws_tokens(t or "")
            distinct = set(tk)
            distinct.update(f"{a}_{b2}" for a, b2 in zip(tk, tk[1:]))
            for tok in distinct:
                terms.append(tok)
                ids.append(d)
        out = pd.DataFrame({"term": pd.array(terms, dtype="object"),
                            "doc_id": pd.array(ids, dtype="int64")})
        out["__coarse"] = _bucket_ids(out, ["term"], n_buckets)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["term", "doc_id"], kind="mergesort")
        t = g["term"].to_numpy()
        d = g["doc_id"].to_numpy(np.int64)
        starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        ends = np.r_[starts[1:], len(t)]
        terms, dfs, posts = [], [], []
        for s, e in zip(starts, ends):
            df = int(e - s)
            if df >= min_df and df * 5 <= 3 * n_docs:
                terms.append(t[s])
                dfs.append(df)
                posts.append(",".join(map(str, d[s:e])))
        return pd.DataFrame({"term": pd.array(terms, dtype="object"),
                             "df": pd.array(dfs, dtype="int64"),
                             "postings": pd.array(posts, dtype="object")})

    out = (docs.map_batches(explode, batch_format="pandas")
           .groupby("__coarse").map_groups(
               lambda g: fold(g.drop(columns=["__coarse"])),
               batch_format="pandas").to_pandas())
    return out.sort_values("term").reset_index(drop=True)


QUERIES.update({"q_posting_lists": q_posting_lists})


# ---------------------------------------------------------------------------
# Table profiling + order-independent checksum (data QA / migration)
# ---------------------------------------------------------------------------
def q_profile(sf_dir: str):
    """Single-scan column profile of the documents table
    (:func:`stages.profile.profile_table`): row/null counts, n_chars
    min/max/sum, exact distinct counts of the low-cardinality lang and
    source columns (distincts travel as bounded per-batch sets — the
    declared-cardinality contract; unbounded distincts belong to
    q_count_distinct), and empty-text count.  One row out; partial
    traffic is one row per block."""
    from bb_ocr_ray.stages.profile import profile_table

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "text", "lang", "source",
                                "n_chars"])
    p = profile_table(ds, numeric=["n_chars"],
                      categorical=["lang", "source"], text=["text"])
    return pd.DataFrame(
        {"n_rows": pd.Series([p["n_rows"]], dtype="int64"),
         "null_lang": pd.Series([p["null_lang"]], dtype="int64"),
         "distinct_lang": pd.Series([p["distinct_lang"]], dtype="int64"),
         "distinct_source": pd.Series([p["distinct_source"]],
                                      dtype="int64"),
         "min_n_chars": pd.Series([p["min_n_chars"]], dtype="int64"),
         "max_n_chars": pd.Series([p["max_n_chars"]], dtype="int64"),
         "sum_n_chars": pd.Series([p["sum_n_chars"]], dtype="int64"),
         "empty_text": pd.Series([p["empty_text"]], dtype="int64")})


QUERIES.update({"q_profile": q_profile})


def q_table_checksum(sf_dir: str):
    """Order-independent content checksum of (doc_id, text)
    (:func:`stages.profile.table_checksum`): md5 per row, top 60 bits
    summed mod 2^63-1 — commutative, so block layout and parallelism
    cannot change the digest.  The migration validator: run on both
    sides of a copy, compare two integers instead of 100 TB."""
    from bb_ocr_ray.stages.profile import table_checksum

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "text"])
    c = table_checksum(ds, cols=["doc_id", "text"])
    return pd.DataFrame(
        {"n_rows": pd.Series([c["n_rows"]], dtype="int64"),
         "checksum": pd.Series([c["checksum"]], dtype="int64")})


QUERIES.update({"q_table_checksum": q_table_checksum})


# ---------------------------------------------------------------------------
# URL canonicalization dedup (crawl front-door identity)
# ---------------------------------------------------------------------------
def q_url_canonical(sf_dir: str):
    """Canonical-URL grouping over deterministically mangled URL
    spellings: each doc synthesizes one of five messy variants of its
    canonical URL (case-shifted scheme/host, shuffled param order,
    default port + fragment, utm_*/gclid tracking params, dot-segment
    path) and :func:`functions.urls.canonicalize_url` must reduce all
    five back to ``https://site{doc_id%3}.com/p/{doc_id//16}?a=1&b=2``.
    The oracle inverts the template arithmetically (the q_link_graph /
    q_registrable_domain philosophy), so every canonicalization rule is
    value-checked, not just smoke-tested.  One coarse shuffle; at web
    scale this is the seen-set key normalizer in front of
    state/hash_index (reference keys its seen-set on the raw location
    string — aggregator.py:61-69 — which double-crawls every
    tracking-param spelling)."""
    from bb_ocr_ray.functions.urls import canonicalize_url

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def mangled(b: pd.DataFrame) -> pd.DataFrame:
        urls = []
        for x in b["doc_id"].to_numpy("int64"):
            k, pid, v = int(x) % 3, int(x) // 16, int(x) % 5
            if v == 0:
                u = f"https://site{k}.com/p/{pid}?a=1&b=2"
            elif v == 1:
                u = f"HTTPS://SITE{k}.COM/p/{pid}?b=2&a=1"
            elif v == 2:
                u = f"https://site{k}.com:443/p/{pid}?a=1&b=2#frag"
            elif v == 3:
                u = (f"https://site{k}.com/p/{pid}"
                     f"?utm_source=feed&a=1&gclid=xyz&b=2")
            else:
                u = f"https://site{k}.com/p/../p/{pid}?a=1&b=2"
            urls.append(canonicalize_url(u))
        return pd.DataFrame({"canonical": pd.array(urls, dtype="object")})

    out = coarse_agg(
        ds.map_batches(mangled, batch_format="pandas"),
        ["canonical"], {"n_docs": ("canonical", "size")},
    ).to_pandas()
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("canonical").reset_index(drop=True)


QUERIES.update({"q_url_canonical": q_url_canonical})


# ---------------------------------------------------------------------------
# Anchor-text index (what OTHER pages call a URL — the ranking signal)
# ---------------------------------------------------------------------------
def q_anchor_terms(sf_dir: str):
    """Per-(target path, anchor term) counts from REAL (href, anchor
    text) pairing over the raw html bytes
    (:func:`kernel.links.extract_anchor_texts`: inner markup up to the
    first </a>, tags stripped, whitespace collapsed; fragment-only and
    non-http(s) anchors dropped — so the 3 share-widget anchors must
    NOT appear).  Terms are ASCII-lowercased whitespace tokens.  The
    synthetic chrome emits a fixed (path, term) multiset per page, so
    the oracle inverts the template arithmetically (the q_link_graph
    philosophy) and every pairing/strip/tokenize rule is value-checked.
    ONE coarse fold on the compound key; at web scale this is the
    anchor-text index build — the out-of-page labeling signal."""
    from urllib.parse import urlsplit

    from bb_ocr_ray.functions.textstats import _ASCII_LOWER
    from bb_ocr_ray.kernel.links import extract_anchor_texts
    from bb_ocr_ray.sources.pages import read_pages

    pages = read_pages(sf_dir)

    def terms(b: pd.DataFrame) -> pd.DataFrame:
        paths, toks = [], []
        for url, html in zip(b["url"], b["html"]):
            txt = bytes(html).decode("utf-8", errors="replace")
            for link, text in extract_anchor_texts(txt, url):
                p = urlsplit(link).path
                for w in text.translate(_ASCII_LOWER).split():
                    paths.append(p)
                    toks.append(w)
        return pd.DataFrame({"path": pd.array(paths, dtype="object"),
                             "term": pd.array(toks, dtype="object")})

    out = coarse_agg(
        pages.map_batches(terms, batch_format="pandas"),
        ["path", "term"], {"n": ("term", "size")},
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["path", "term"]).reset_index(drop=True)


QUERIES.update({"q_anchor_terms": q_anchor_terms})


# ---------------------------------------------------------------------------
# Dataset-level vocabulary overlap (corpus similarity / snapshot QA)
# ---------------------------------------------------------------------------
def q_source_overlap(sf_dir: str):
    """Exact vocabulary Jaccard between every SOURCE pair — the
    dataset-similarity probe (how much do two crawls / snapshots share
    a vocabulary?), computed without ever joining corpus-sized sets:
    distinct (source, token) pairs fold through ONE coarse shuffle on
    token; each bucket emits per-token source-SET membership collapsed
    to a '|'-joined mask, and masks have at most 2^|sources| values
    (sources are the declared low-cardinality column, q_profile
    contract), so the driver sees a bounded histogram and recovers
    every pairwise intersection/union by inclusion arithmetic — exact
    integers, zero float folds until the final ratio."""
    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import _bucket_ids
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    n_buckets = _auto_num_buckets()
    ds = _read_parquet(_t(sf_dir, "documents"), columns=["source", "text"])

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        seen = set()
        for s, t in zip(b["source"], b["text"]):
            for w in set(ws_tokens(t or "")):
                seen.add((s, w))
        out = pd.DataFrame(list(seen) or None, columns=["source", "tok"])
        out["__coarse"] = _bucket_ids(out, ["tok"], n_buckets)
        return out

    def masks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["source", "tok"])
        if not len(g):
            return pd.DataFrame({"mask": pd.array([], dtype="object"),
                                 "n": pd.array([], dtype="int64")})
        # vectorized membership fold: sorted-source bit codes OR-reduced
        # per token run (no per-token Python); bit order == sorted order
        # so the decoded mask string is identical across buckets
        srcs = np.sort(g["source"].unique())
        assert len(srcs) <= 63, "source is the declared low-cardinality column"
        bit = {s: np.int64(1) << i for i, s in enumerate(srcs)}
        gv = g.sort_values("tok", kind="mergesort")
        codes = gv["source"].map(bit).to_numpy("int64")
        toks = gv["tok"].to_numpy(dtype=object)
        starts = np.concatenate(
            [[0], np.flatnonzero(toks[1:] != toks[:-1]) + 1])
        m = np.bitwise_or.reduceat(codes, starts)
        vals, counts = np.unique(m, return_counts=True)
        names = ["|".join(srcs[j] for j in range(len(srcs))
                          if int(v) >> j & 1) for v in vals]
        return pd.DataFrame({"mask": pd.array(names, dtype="object"),
                             "n": counts.astype("int64")})

    hist = (ds.map_batches(pairs, batch_format="pandas")
            .groupby("__coarse").map_groups(
                lambda g: masks(g.drop(columns=["__coarse"])),
                batch_format="pandas")
            .to_pandas())
    hist = hist.groupby("mask", as_index=False)["n"].sum()

    sources = sorted({s for m in hist["mask"] for s in m.split("|")})
    sets = [frozenset(m.split("|")) for m in hist["mask"]]
    ns = hist["n"].to_numpy("int64")
    recs = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            inter = int(sum(n for st, n in zip(sets, ns)
                            if a in st and b in st))
            union = int(sum(n for st, n in zip(sets, ns)
                            if a in st or b in st))
            recs.append({
                "source_a": a, "source_b": b,
                "n_common": inter, "n_union": union,
                "jaccard": float(_round_sql(
                    float(inter) / float(union), 6)) if union else 0.0})
    out = pd.DataFrame(recs)
    out = out.astype({"n_common": "int64", "n_union": "int64"})
    return out.reset_index(drop=True)


QUERIES.update({"q_source_overlap": q_source_overlap})


# ---------------------------------------------------------------------------
# Distribution-drift QA: Kolmogorov–Smirnov per source vs the rest
# ---------------------------------------------------------------------------
def q_ks_test(sf_dir: str):
    """Per-source two-sample Kolmogorov–Smirnov statistic of the
    n_chars length distribution against the REST of the corpus — the
    standard drift detector for "did this crawl source's content shape
    change?" (run-over-run data QA).  One corpus pass folds the
    (source, n_chars) histogram through coarse_agg; the histogram is
    VALUE-bounded (≤ |sources| × max_doc_len rows — aggregate-sized at
    any corpus scale, never row-cardinality), so the cumulative fold
    runs on the driver.  D is EXACT: with per-source totals (n_s, n_r)
    constant, max_x |F_s − F_r| = max_x |cs·n_r − cr·n_s| / (n_s·n_r),
    so the max is taken over INTEGER cross-products (python ints — no
    overflow at any corpus size) and divided once, rounded 6 dp.  A
    NULL n_chars is not an observation: the fold drops it."""
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "n_chars"])
    hist = coarse_agg(docs, ["source", "n_chars"],
                      {"c": ("n_chars", "size")}).to_pandas()
    hist["c"] = hist["c"].astype("int64")
    pv = (hist.pivot_table(index="n_chars", columns="source", values="c",
                           aggfunc="sum", fill_value=0)
          .sort_index())
    cum = pv.cumsum(axis=0)
    n_s = pv.sum(axis=0)
    gn = int(n_s.sum())
    cum_all = cum.sum(axis=1)
    recs = []
    for s in sorted(pv.columns):
        ns = int(n_s[s])
        nr = gn - ns
        cs = cum[s].to_numpy("int64").astype(object)
        cr = cum_all.to_numpy("int64").astype(object) - cs
        d_num = max(abs(int(a) * nr - int(b) * ns)
                    for a, b in zip(cs, cr))
        ks = float(d_num) / (float(ns) * float(nr))
        recs.append({"source": s, "n_source": ns,
                     "ks_d": float(_round_sql(ks, 6))})
    out = pd.DataFrame(recs).sort_values("source").reset_index(drop=True)
    out["n_source"] = out["n_source"].astype("int64")
    return out


QUERIES.update({"q_ks_test": q_ks_test})


# ---------------------------------------------------------------------------
# Hashing-trick vectorizer (fixed-width sparse features, doc-local)
# ---------------------------------------------------------------------------
def q_feature_hash(sf_dir: str, n_buckets: int = 256, probe_mod: int = 41):
    """Feature-hashing vectorizer (the 'hashing trick': Weinberger et
    al., ICML'09 — public method) over a deterministic doc sample:
    token OCCURRENCE counts folded into a fixed 256-bucket space via
    stable_u64(token) % 256 (md5_number_upper in the oracle), the
    vocabulary-free featurizer that feeds linear quality classifiers at
    corpus scale.  Entirely doc-local — each row's features are
    computed inside its own map task with a per-batch distinct-token
    memo, ZERO shuffles; output bounded by |sample| × n_buckets.  The
    probe gate (doc_id % 41) bounds the demo output; production drops
    the gate and writes per-shard parquet."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import stable_u64, ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "text"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % probe_mod == 0]
        memo: dict = {}
        ids, buckets, counts = [], [], []
        for did, tx in zip(b["doc_id"], b["text"]):
            acc: Counter = Counter()
            for tok, c in Counter(ws_tokens(tx or "")).items():
                bk = memo.get(tok)
                if bk is None:
                    bk = memo[tok] = stable_u64(tok) % n_buckets
                acc[bk] += c
            for bk in sorted(acc):
                ids.append(did)
                buckets.append(bk)
                counts.append(acc[bk])
        return pd.DataFrame({
            "doc_id": pd.array(ids, dtype="int64"),
            "bucket": pd.array(buckets, dtype="int64"),
            "n": pd.array(counts, dtype="int64")})

    out = ds.map_batches(feats, batch_format="pandas").to_pandas()
    return (out.sort_values(["doc_id", "bucket"])
            .reset_index(drop=True))


QUERIES.update({"q_feature_hash": q_feature_hash})


# ---------------------------------------------------------------------------
# Per-source language-mix entropy (corpus composition QA)
# ---------------------------------------------------------------------------
def q_lang_entropy(sf_dir: str):
    """Per-source Shannon entropy (nats) of the language mix — the
    corpus-composition monitor a multilingual crawl ships next to
    q_ks_test's shape drift: a source whose lang entropy collapses
    started emitting one language (or lost its langid).  One corpus
    pass folds (source, lang) counts through coarse_agg — the table is
    |sources|x|langs|, aggregate-sized at any corpus scale — and the
    driver evaluates -sum(p ln p) per source over langs in ascending
    order from exact integer counts.  Cross-term float order differs
    from the oracle's unordered sum by <=1 ulp; 6 dp rounding absorbs
    it (the registry-wide convention for bounded float folds)."""
    import math

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "lang"])
    cnt = coarse_agg(docs, ["source", "lang"],
                     {"c": ("lang", "size")}).to_pandas()
    cnt["c"] = cnt["c"].astype("int64")
    recs = []
    for s, g in cnt.groupby("source", sort=True):
        g = g.sort_values("lang")
        n = int(g["c"].sum())
        h = sum(-(int(c) / n) * math.log(int(c) / n)
                for c in g["c"])
        recs.append({"source": s, "n_docs": n, "n_langs": len(g),
                     "entropy_nats": float(_round_sql(h, 6))})
    out = pd.DataFrame(recs)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_langs"] = out["n_langs"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


QUERIES.update({"q_lang_entropy": q_lang_entropy})


# ---------------------------------------------------------------------------
# Chi-squared contingency cells (lang x source independence audit)
# ---------------------------------------------------------------------------
def q_chi2_cells(sf_dir: str):
    """Chi-squared independence audit of the lang x source contingency
    table, emitted PER CELL (observed, expected, chi2 term) rather than
    as one scalar — per-cell rows keep every double a pure function of
    exact integer marginals (no cross-cell float summation whose order
    could differ between engines) and tell the operator WHICH cell
    drives the dependence.  One coarse fold produces the observed
    counts (|langs|x|sources| — aggregate-sized); the driver completes
    the grid with zero cells (a missing combination still contributes
    its full expectation) and evaluates e = rt*ct/n and (o-e)^2/e with
    the same association order as the SQL."""
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "source"])
    obs = coarse_agg(docs, ["lang", "source"],
                     {"o": ("lang", "size")}).to_pandas()
    obs["o"] = obs["o"].astype("int64")
    rt = obs.groupby("lang")["o"].sum()
    ct = obs.groupby("source")["o"].sum()
    n = float(int(obs["o"].sum()))
    seen = {(l, s): int(o) for l, s, o in
            zip(obs["lang"], obs["source"], obs["o"])}
    recs = []
    for l in sorted(rt.index):
        for s in sorted(ct.index):
            o = seen.get((l, s), 0)
            e = float(int(rt[l])) * int(ct[s]) / n
            recs.append({"lang": l, "source": s,
                         "n_obs": o,
                         "expected": float(_round_sql(e, 6)),
                         "chi2_term": float(_round_sql((o - e) ** 2 / e, 6))})
    out = pd.DataFrame(recs)
    out["n_obs"] = out["n_obs"].astype("int64")
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


QUERIES.update({"q_chi2_cells": q_chi2_cells})


# ---------------------------------------------------------------------------
# Robots-style disallow-prefix filter (crawl-policy gate)
# ---------------------------------------------------------------------------
def q_robots_filter(sf_dir: str):
    """Crawl-policy gate: apply a per-host robots.txt-style DISALLOW
    prefix list to every page URL — the filter every polite crawl runs
    before fetch/refetch scheduling (robots exclusion is a public
    protocol, RFC 9309).  URLs reconstruct from the q_url_canonical
    template (host site{doc_id%3}.com, path /p/{doc_id//16}) and are
    parsed with the REAL stdlib parser (urllib), then matched against
    a broadcast rule list with vectorized str.startswith — rules are
    tiny (a robots file per host), so this is a pure map: ZERO
    shuffles; per-batch (host, allowed) count partials fold through
    one aggregate-sized coarse_agg.  The oracle inverts the template
    arithmetically and applies the same prefixes via LIKE."""
    from urllib.parse import urlsplit

    rules = {"site0.com": ("/p/1",),
             "site1.com": ("/p/7",),
             "site2.com": ("/p/3",)}

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        urls = [f"https://site{int(x) % 3}.com/p/{int(x) // 16}"
                for x in d]
        parts = [urlsplit(u) for u in urls]
        host = pd.Series([p.hostname for p in parts], dtype="object")
        path = pd.Series([p.path for p in parts], dtype="object")
        blocked = np.zeros(len(b), dtype=bool)
        for h, prefixes in rules.items():
            on_host = (host == h).to_numpy()
            for pre in prefixes:
                blocked |= on_host & path.str.startswith(pre).to_numpy()
        return pd.DataFrame({
            "host": host,
            "allowed": (~blocked).astype("int64"),
            "blocked_": blocked.astype("int64")})

    out = coarse_agg(ds.map_batches(gate, batch_format="pandas"),
                     ["host"], {"n_allowed": ("allowed", "sum"),
                                "n_blocked": ("blocked_", "sum")}).to_pandas()
    out["n_allowed"] = out["n_allowed"].astype("int64")
    out["n_blocked"] = out["n_blocked"].astype("int64")
    return out.sort_values("host").reset_index(drop=True)


QUERIES.update({"q_robots_filter": q_robots_filter})


# ---------------------------------------------------------------------------
# Zipf slope of the token frequency spectrum (corpus-health scalar)
# ---------------------------------------------------------------------------
def q_zipf_slope(sf_dir: str):
    """OLS slope of ln(frequency) on ln(rank) over the corpus' top-200
    tokens — natural text sits near the Zipf -1 line, and a corpus
    whose slope drifts flat (boilerplate/templating) or steep
    (vocabulary collapse) fails ingest QA (Zipf 1949; public method).
    Per-batch token-count partials fold through one coarse shuffle
    (vocab-bounded table); the top-200 cut is a Dataset sort+limit
    with a total (n DESC, tok ASC) tiebreak so rank assignment is
    deterministic on both engines.  The slope is computed from
    centered sums in rank order; 200 same-magnitude float terms agree
    with the oracle's regr_slope within ulps — 6 dp absorbs it (the
    registry's bounded-float-fold convention)."""
    import math

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter
        cnt: Counter = Counter()
        for t in b["text"]:
            cnt.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": list(cnt.keys()),
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    vocab = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                       ["tok"], {"n": ("n", "sum")})
    top = (vocab.sort(["n", "tok"], descending=[True, False])
           .limit(200).to_pandas())
    top["n"] = top["n"].astype("int64")
    k = len(top)
    x = np.log(np.arange(1, k + 1, dtype="float64"))
    y = np.log(top["n"].to_numpy("float64"))
    mx, my = x.mean(), y.mean()
    slope = float(((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum())
    return pd.DataFrame({
        "k": pd.array([k], dtype="int64"),
        "n_top1": pd.array([int(top["n"].iloc[0])], dtype="int64"),
        "n_top_last": pd.array([int(top["n"].iloc[-1])], dtype="int64"),
        "zipf_slope": [float(_round_sql(slope, 6))]})


QUERIES.update({"q_zipf_slope": q_zipf_slope})


# ---------------------------------------------------------------------------
# Per-source exact-duplicate share (ingest-QA ratio on content hashes)
# ---------------------------------------------------------------------------
def q_dup_ratio(sf_dir: str):
    """Per-source exact-duplicate share: of each source's docs, how
    many belong to a content-hash group of size > 1 WITHIN that source
    — the scalar a crawl operator watches before paying for near-dup
    passes (a source at 40% exact dups gets fixed upstream, not
    MinHashed).  Two chained coarse folds: (source, md5) group sizes
    (doc-cardinality in, hash-cardinality out, on the driver only
    below its limit),
    then per-batch partials over the group-size table fold to one row
    per source.  Only the 16-byte hashes ever shuffle — never text
    (the q_dedup_exact posture)."""
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def hashed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "h": [md5_hex(t or "") for t in b["text"]]})

    groups = coarse_agg(docs.map_batches(hashed, batch_format="pandas"),
                        ["source", "h"], {"c": ("h", "size")})

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy("int64")
        g = pd.DataFrame({"source": b["source"], "n_docs": c,
                          "n_distinct": np.ones(len(b), dtype="int64"),
                          "n_dup_docs": np.where(c > 1, c, 0)})
        return g.groupby("source", as_index=False).sum()

    out = coarse_agg(groups.map_batches(partial, batch_format="pandas"),
                     ["source"], {"n_docs": ("n_docs", "sum"),
                                  "n_distinct": ("n_distinct", "sum"),
                                  "n_dup_docs": ("n_dup_docs", "sum")}
                     ).to_pandas()
    for c in ("n_docs", "n_distinct", "n_dup_docs"):
        out[c] = out[c].astype("int64")
    out["dup_ratio"] = [float(_round_sql(int(d) / int(n), 6))
                        for d, n in zip(out["n_dup_docs"], out["n_docs"])]
    return out.sort_values("source").reset_index(drop=True)


QUERIES.update({"q_dup_ratio": q_dup_ratio})


# ---------------------------------------------------------------------------
# Embedding L2-norm bands (vector-ingest QA)
# ---------------------------------------------------------------------------
def q_norm_bands(sf_dir: str):
    """L2-norm distribution of the embedding column in 0.1-wide bands
    — the vector-ingest QA histogram (un-normalized or zero vectors
    land in the wrong band and fail the gate before any ANN index is
    built).  Pure map + one aggregate-sized fold; the float32 values
    widen to float64 BEFORE squaring on both engines, and the norm is
    rounded to 4 dp before banding so the ulp-level difference between
    numpy's pairwise and SQL's sequential summation (~1e-12) can never
    flip a band edge (band width 0.1 >> 5e-5 grain).  Output per band:
    count and the rounded min/max norm (rounding is monotone, so
    min/max commute with it)."""
    emb = _read_parquet(_t(sf_dir, "embeddings"),
                        columns=["vec_id", "embedding"])

    def bands(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64") for e in
                        b["embedding"]])
        norm = _round_sql(np.sqrt((X * X).sum(axis=1)), 4)
        g = pd.DataFrame({
            "band": np.floor(norm * 10).astype("int64"),
            "n_vecs": np.ones(len(b), dtype="int64"),
            "min_norm": norm, "max_norm": norm})
        return g.groupby("band", as_index=False).agg(
            n_vecs=("n_vecs", "sum"), min_norm=("min_norm", "min"),
            max_norm=("max_norm", "max"))

    out = coarse_agg(emb.map_batches(bands, batch_format="pandas"),
                     ["band"], {"n_vecs": ("n_vecs", "sum"),
                                "min_norm": ("min_norm", "min"),
                                "max_norm": ("max_norm", "max")}).to_pandas()
    out["band"] = out["band"].astype("int64")
    out["n_vecs"] = out["n_vecs"].astype("int64")
    return out.sort_values("band").reset_index(drop=True)


QUERIES.update({"q_norm_bands": q_norm_bands})


# ---------------------------------------------------------------------------
# Brand-safety / blocklist term scan (broadcast patterns, zero shuffle)
# ---------------------------------------------------------------------------
_TERM_SCAN_PATTERNS = ("table", "hash", "merge batch", "zzz-absent-term")


def q_term_scan(sf_dir: str):
    """Literal multi-term scan over the corpus — the brand-safety /
    blocklist counter every content pipeline runs (a tiny pattern list
    against every document).  The pattern list broadcasts by closure
    (bytes-sized); each batch counts NON-OVERLAPPING occurrences with
    vectorized ``Series.str.count`` on regex-escaped patterns —
    identical semantics to Python ``str.count`` and to the oracle's
    (len(text) - len(replace(text, pat, ''))) / len(pat) identity.
    Zero shuffles: per-batch partials are <= |patterns| rows and fold
    through one aggregate-sized coarse_agg.  Terms absent from the
    corpus still emit a zero row (the driver completes the pattern
    grid), so a clean corpus yields an all-zero report, not an empty
    one."""
    import re

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def scan(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        recs = []
        for pat in _TERM_SCAN_PATTERNS:
            c = t.str.count(re.escape(pat)).to_numpy("int64")
            recs.append({"term": pat,
                         "n_docs": int((c > 0).sum()),
                         "n_occurrences": int(c.sum())})
        return pd.DataFrame(recs)

    out = coarse_agg(docs.map_batches(scan, batch_format="pandas"),
                     ["term"], {"n_docs": ("n_docs", "sum"),
                                "n_occurrences": ("n_occurrences", "sum")}
                     ).to_pandas()
    grid = pd.DataFrame({"term": list(_TERM_SCAN_PATTERNS)})
    out = grid.merge(out, on="term", how="left").fillna(0)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_occurrences"] = out["n_occurrences"].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


QUERIES.update({"q_term_scan": q_term_scan})


# ---------------------------------------------------------------------------
# Heaps-law vocabulary growth curve (corpus-health QA)
# ---------------------------------------------------------------------------
def q_vocab_growth(sf_dir: str):
    """Vocabulary size after each power-of-two doc_id prefix — the
    Heaps'-law growth curve (Heaps 1978, public method): natural
    corpora grow vocab ~ n^beta with beta<1, and a curve that goes
    flat (template spam) or linear (random noise/IDs) fails ingest QA.
    One pass: per-token FIRST doc_id folds through one coarse shuffle
    (vocab-bounded), collapses to a <=64-row histogram keyed by
    bit_length(first_doc_id) — token t is new in prefix 2^k exactly
    when k = bit_length(first) — and the driver cumsums.  Exact
    integers everywhere; doc_id 0 lands in bin 0 on both engines
    (oracle: floor(log2(fd))+1 is exact for all int64 because powers
    of two are exactly representable doubles)."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        first: dict = {}
        for did, t in zip(b["doc_id"].to_numpy("int64"), b["text"]):
            for tok in ws_tokens(t or ""):
                if tok not in first or did < first[tok]:
                    first[tok] = did
        return pd.DataFrame({"tok": list(first.keys()),
                             "fd": np.fromiter(first.values(),
                                               dtype="int64")})

    firsts = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                        ["tok"], {"fd": ("fd", "min")})

    def bins(b: pd.DataFrame) -> pd.DataFrame:
        k = np.array([int(x).bit_length() for x in b["fd"]], dtype="int64")
        return (pd.DataFrame({"k": k, "n": np.ones(len(b), dtype="int64")})
                .groupby("k", as_index=False).sum())

    hist = coarse_agg(firsts.map_batches(bins, batch_format="pandas"),
                      ["k"], {"n": ("n", "sum")}).to_pandas()
    hist = hist.astype({"k": "int64", "n": "int64"}).sort_values("k")
    ks = np.arange(int(hist["k"].max()) + 1, dtype="int64")
    new = np.zeros(len(ks), dtype="int64")
    new[hist["k"].to_numpy()] = hist["n"].to_numpy()
    return pd.DataFrame({"k": ks,
                         "new_tokens": new,
                         "vocab": new.cumsum().astype("int64")})


QUERIES.update({"q_vocab_growth": q_vocab_growth})


# ---------------------------------------------------------------------------
# Duplicate-cluster size histogram (dedup planning QA)
# ---------------------------------------------------------------------------
def q_dup_cluster_sizes(sf_dir: str):
    """Histogram of PREFIX-fingerprint cluster sizes — docs clustered
    by the md5 of their first 64 characters, the cheap template
    detector a crawl runs before committing to a full dedup pass
    (boilerplate-led pages share lead bytes long before they share
    bodies; a few million-member clusters mean the hot-key dedup path
    is needed).  Two chained hash-only folds: (md5 -> cluster size)
    is hash-cardinality and stays distributed; (size -> n_clusters)
    is value-bounded.  Only 16-byte hashes shuffle, never text
    (q_dedup_exact posture)."""
    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    clusters = coarse_agg(
        docs.map_batches(
            lambda b: pd.DataFrame({"h": [md5_hex((t or "")[:64])
                                          for t in b["text"]]}),
            batch_format="pandas"),
        ["h"], {"c": ("h", "size")})
    out = coarse_agg(clusters, ["c"],
                     {"n_clusters": ("c", "size")}).to_pandas()
    out = out.rename(columns={"c": "cluster_size"})
    out["cluster_size"] = out["cluster_size"].astype("int64")
    out["n_clusters"] = out["n_clusters"].astype("int64")
    out["n_docs"] = (out["cluster_size"] * out["n_clusters"]).astype("int64")
    return out.sort_values("cluster_size").reset_index(drop=True)


QUERIES.update({"q_dup_cluster_sizes": q_dup_cluster_sizes})


# ---------------------------------------------------------------------------
# BPE merge-candidate table (top adjacent char pairs inside tokens)
# ---------------------------------------------------------------------------
def q_bpe_pairs(sf_dir: str):
    """Top-20 adjacent character pairs inside tokens, weighted by token
    occurrence — the candidate table of the FIRST byte-pair-encoding
    merge step (Sennrich, Haddow & Birch, ACL 2016; public method).
    Per-batch partial: token occurrences are counted once (Counter),
    each DISTINCT token's pair multiset is derived once and scaled by
    its count (natural-text vocabularies are Zipfian, so the memo
    collapses almost all per-occurrence work); the shuffle then moves
    a pair-vocabulary-bounded (pair, n) table through one coarse
    fold.  Total (n desc, pair asc) tiebreak."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        occ: Counter = Counter()
        for t in b["text"]:
            occ.update(ws_tokens(t or ""))
        pairs: Counter = Counter()
        for tok, c in occ.items():
            for i in range(len(tok) - 1):
                pairs[tok[i:i + 2]] += c
        return pd.DataFrame({"pair": list(pairs.keys()),
                             "n": np.fromiter(pairs.values(),
                                              dtype="int64")})

    folded = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                        ["pair"], {"n": ("n", "sum")})
    out = (folded.sort(["n", "pair"], descending=[True, False])
           .limit(20).to_pandas())
    out["n"] = out["n"].astype("int64")
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# Per-source hapax legomena ratio (vocabulary-health ingest QA)
# ---------------------------------------------------------------------------
def q_hapax(sf_dir: str):
    """Per-source vocabulary size, hapax-legomena count (tokens seen
    exactly once in that source) and hapax ratio — the vocabulary-
    health QA metric: natural text runs ~40-60% hapax, templated or
    deduplicated-to-death corpora collapse toward 0 (Baayen's word
    frequency distributions; public method).  Two bounded folds: a
    (source, token)-keyed count fold (vocab x source bounded), then a
    source-bounded summary fold; raw token streams never shuffle."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for s, t in zip(b["source"], b["text"]):
            for tok in ws_tokens(t or ""):
                cnt[(s, tok)] += 1
        if not cnt:
            return pd.DataFrame({"source": pd.Series([], dtype="object"),
                                 "tok": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        ks = list(cnt.keys())
        return pd.DataFrame({"source": [k[0] for k in ks],
                             "tok": [k[1] for k in ks],
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    cnt = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                     ["source", "tok"], {"n": ("n", "sum")})

    def summ(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": b["source"],
            "vocab": np.ones(len(b), dtype="int64"),
            "hapax": (b["n"].astype("int64") == 1).astype("int64")})

    out = coarse_agg(cnt.map_batches(summ, batch_format="pandas"),
                     ["source"], {"vocab": ("vocab", "sum"),
                                  "hapax": ("hapax", "sum")}).to_pandas()
    out["vocab"] = out["vocab"].astype("int64")
    out["hapax"] = out["hapax"].astype("int64")
    out["hapax_ratio"] = [
        float(_round_sql(h / v, 6))
        for h, v in zip(out["hapax"], out["vocab"])]
    return out.sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Pairwise source-distribution Jensen-Shannon divergence (mixture drift QA)
# ---------------------------------------------------------------------------
def q_js_divergence(sf_dir: str):
    """Jensen-Shannon divergence (bits) between every pair of sources'
    unigram distributions — the standard corpus-mixture drift monitor
    (Lin 1991; public method).  Scale shape: ONE (source, token) count
    fold; per-source totals are a source-bounded table shipped as a
    closure constant; the pairwise term sums accumulate inside a
    token-keyed bucket fold (each token's full source row lands in one
    bucket, where all C(S,2) pair contributions for that token are
    computed from a local pivot) and fold to a pairs-bounded table.
    The corpus shuffles token COUNTS at most once; a vocabulary over
    the driver limit never touches the driver.  6 dp absorbs the
    summation-order ulps of the float term fold."""
    import math

    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import _bucket_ids
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    nb = _auto_num_buckets()
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for s, t in zip(b["source"], b["text"]):
            for tok in ws_tokens(t or ""):
                cnt[(s, tok)] += 1
        ks = list(cnt.keys())
        return pd.DataFrame({"source": [k[0] for k in ks],
                             "tok": [k[1] for k in ks],
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    cnt = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                     ["source", "tok"], {"n": ("n", "sum")}).materialize()

    totals = coarse_agg(cnt, ["source"], {"t": ("n", "sum")}).to_pandas()
    tot = {s: int(t) for s, t in zip(totals["source"], totals["t"])}
    srcs = sorted(tot)
    prs = [(a, b) for i, a in enumerate(srcs) for b in srcs[i + 1:]]

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__coarse"] = _bucket_ids(b, ["tok"], nb)
        return b

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        pv = g.pivot_table(index="tok", columns="source", values="n",
                           aggfunc="sum", fill_value=0)
        p = {s: (pv[s].to_numpy("float64") / tot[s]
                 if s in pv.columns
                 else np.zeros(len(pv))) for s in srcs}
        rows = []
        for sa, sb in prs:
            px, py = p[sa], p[sb]
            m = (px + py) / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                term = (np.where(px > 0, px * np.log(px / m), 0.0)
                        + np.where(py > 0, py * np.log(py / m), 0.0))
            rows.append((sa, sb, float(term.sum())))
        return pd.DataFrame(rows, columns=["src_a", "src_b", "part"])

    parts = (cnt.map_batches(stamp, batch_format="pandas")
             .groupby("__coarse").map_groups(bucket, batch_format="pandas"))
    out = coarse_agg(parts, ["src_a", "src_b"],
                     {"part": ("part", "sum")}).to_pandas()
    out["js"] = [float(_round_sql(x / 2.0 / math.log(2.0), 6))
                 for x in out["part"]]
    return (out[["src_a", "src_b", "js"]]
            .sort_values(["src_a", "src_b"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# Per-language char-trigram profile (the langid profile builder)
# ---------------------------------------------------------------------------
def q_char_trigrams(sf_dir: str):
    """Top-10 character trigrams per language over the lowercased,
    whitespace-collapsed text — the n-gram language-profile builder
    of Cavnar & Trenkle (1994; public method), the training half of
    q_langid's classifier.  Vectorized and unicode-exact: each doc's
    codepoints come from one utf-32 reinterpret (no per-char Python),
    trigram windows never cross documents, and windows pack into one
    int64 (3 x 21-bit codepoints) so the shuffle moves a
    trigram-vocabulary-bounded (lang, code, n) table through one
    coarse fold.  Ranking ties break on the decoded STRING (codepoint
    order == UTF-8 binary order, so both engines agree)."""
    import re

    _WS = re.compile(r"[ \t\n\r\f\v]+")
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        per_lang: dict = {}
        for lang, t in zip(b["lang"], b["text"]):
            s = _WS.sub(" ", (t or "").lower())
            if len(s) < 3:
                continue
            cp = np.frombuffer(s.encode("utf-32-le"),
                               dtype="<u4").astype("int64")
            code = (cp[:-2] << 42) | (cp[1:-1] << 21) | cp[2:]
            per_lang.setdefault(lang, []).append(code)
        rows = []
        for lang, chunks in per_lang.items():
            u, c = np.unique(np.concatenate(chunks), return_counts=True)
            rows.append(pd.DataFrame({"lang": lang, "code": u,
                                      "n": c.astype("int64")}))
        if not rows:
            return pd.DataFrame({"lang": pd.Series([], dtype="object"),
                                 "code": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        return pd.concat(rows, ignore_index=True)

    folded = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                        ["lang", "code"], {"n": ("n", "sum")}).to_pandas()
    folded["code"] = folded["code"].astype("int64")
    folded["n"] = folded["n"].astype("int64")

    def decode(code: int) -> str:
        return "".join(chr((code >> s) & ((1 << 21) - 1))
                       for s in (42, 21, 0))

    folded["tri"] = [decode(c) for c in folded["code"]]
    folded = folded.sort_values(["lang", "n", "tri"],
                                ascending=[True, False, True],
                                kind="mergesort")
    folded["rank"] = folded.groupby("lang").cumcount() + 1
    out = folded[folded["rank"] <= 10][["lang", "tri", "n", "rank"]]
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["lang", "rank"]).reset_index(drop=True)


QUERIES.update({
    "q_bpe_pairs": q_bpe_pairs,
    "q_hapax": q_hapax,
    "q_js_divergence": q_js_divergence,
    "q_char_trigrams": q_char_trigrams,
})


# ---------------------------------------------------------------------------
# Inverse-frequency class weights (imbalanced-label training prep)
# ---------------------------------------------------------------------------
def q_class_weights(sf_dir: str):
    """Per-label inverse-frequency weights n_total / (k * n_label) —
    the sklearn-style 'balanced' class weighting every skewed-label
    training run starts with (King & Zeng 2001; public method).  One
    label-bounded count fold; the weights derive from that bounded
    table."""
    emb = _read_parquet(_t(sf_dir, "embeddings"), columns=["label"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["label"].astype("int64").value_counts()
        return pd.DataFrame({"label": vc.index.to_numpy("int64"),
                             "n": vc.to_numpy("int64")})

    t = coarse_agg(emb.map_batches(partial, batch_format="pandas"),
                   ["label"], {"n": ("n", "sum")}).to_pandas()
    t["label"] = t["label"].astype("int64")
    t["n"] = t["n"].astype("int64")
    total = int(t["n"].sum())
    k = len(t)
    t["weight"] = [float(_round_sql(total / (k * n), 6)) for n in t["n"]]
    return t.sort_values("label").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Out-of-vocabulary rate per language (tokenizer-coverage QA)
# ---------------------------------------------------------------------------
def q_oov_rate(sf_dir: str):
    """Per-language out-of-vocabulary rate against the corpus' global
    top-20 token vocabulary — the tokenizer-coverage QA run before
    committing a vocab (the OOV column of every tokenizer paper;
    public method).  Pass 1 folds the global vocabulary and takes the
    top-20 cut (n desc, tok asc tiebreak, aggregate-sized); the cut
    broadcasts as a closure frozenset into pass 2, whose per-language
    (total, oov) occurrence counts fold through one lang-bounded
    shuffle.  Both passes are column-pruned reads; raw token streams
    never shuffle."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def vocab_partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in b["text"]:
            cnt.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": list(cnt.keys()),
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    vocab = coarse_agg(docs.map_batches(vocab_partial,
                                        batch_format="pandas"),
                       ["tok"], {"n": ("n", "sum")})
    top = (vocab.sort(["n", "tok"], descending=[True, False])
           .limit(20).to_pandas())
    known = frozenset(top["tok"])

    docs2 = _read_parquet(_t(sf_dir, "documents"),
                          columns=["lang", "text"])

    def oov_partial(b: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for lang, t in zip(b["lang"], b["text"]):
            tot, oov = rows.get(lang, (0, 0))
            for tok in ws_tokens(t or ""):
                tot += 1
                if tok not in known:
                    oov += 1
            rows[lang] = (tot, oov)
        return pd.DataFrame({
            "lang": list(rows.keys()),
            "n_tokens": np.array([v[0] for v in rows.values()],
                                 dtype="int64"),
            "n_oov": np.array([v[1] for v in rows.values()],
                              dtype="int64")})

    out = coarse_agg(docs2.map_batches(oov_partial, batch_format="pandas"),
                     ["lang"], {"n_tokens": ("n_tokens", "sum"),
                                "n_oov": ("n_oov", "sum")}).to_pandas()
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_oov"] = out["n_oov"].astype("int64")
    out["oov_rate"] = [
        float(_round_sql(o / t, 6)) if t else 0.0
        for o, t in zip(out["n_oov"], out["n_tokens"])]
    return out.sort_values("lang").reset_index(drop=True)


QUERIES.update({
    "q_class_weights": q_class_weights,
    "q_oov_rate": q_oov_rate,
})


# ---------------------------------------------------------------------------
# Token length histogram (tokenizer fertility QA)
# ---------------------------------------------------------------------------
def q_tok_len_dist(sf_dir: str):
    """Histogram of token lengths by occurrence — the tokenizer
    fertility/shape QA every vocab decision starts from (mean token
    length drives bytes-per-token).  Per-batch Counter over lengths
    (a length-bounded dict), one length-bounded fold.  Output:
    (len, n) ascending."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in b["text"]:
            for tok in ws_tokens(t or ""):
                cnt[len(tok)] += 1
        return pd.DataFrame({
            "tok_len": np.fromiter(cnt.keys(), dtype="int64"),
            "n": np.fromiter(cnt.values(), dtype="int64")})

    out = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                     ["tok_len"], {"n": ("n", "sum")}).to_pandas()
    out["tok_len"] = out["tok_len"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("tok_len").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Bigram conditional entropy (corpus predictability / LM-difficulty QA)
# ---------------------------------------------------------------------------
def q_ngram_entropy(sf_dir: str):
    """Joint and conditional entropy (bits) of the corpus' token-bigram
    distribution — H(joint) of bigram frequencies and
    H(next | prev) = H(joint) - H(prev margins), the corpus
    predictability statistic (Shannon 1951; public method).  One
    bigram count fold (doc-local pairs, vocab^2-bounded counts); the
    prev margins DERIVE from the bigram table inside a prev-keyed
    bucket fold (the q_lm_quality posture — no second corpus pass);
    per-bucket float partials (sum c*ln c over cells and over
    margins) fold to three scalars.  6 dp absorbs summation-order
    ulps."""
    import math

    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.coarse import _bucket_ids
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    nb = _auto_num_buckets()
    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in b["text"]:
            tk = ws_tokens(t or "")
            for i in range(len(tk) - 1):
                cnt[(tk[i], tk[i + 1])] += 1
        ks = list(cnt.keys())
        return pd.DataFrame({"prev": [k[0] for k in ks],
                             "nxt": [k[1] for k in ks],
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    bi = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                    ["prev", "nxt"], {"n": ("n", "sum")})

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__coarse"] = _bucket_ids(b, ["prev"], nb)
        return b

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        c = g["n"].to_numpy("int64").astype("float64")
        cu = (g.groupby("prev")["n"].sum()
              .to_numpy().astype("float64"))
        return pd.DataFrame({
            "n_bigrams": [int(c.sum())],
            "s_cell": [float((c * np.log(c)).sum())],
            "s_marg": [float((cu * np.log(cu)).sum())]})

    parts = (bi.map_batches(stamp, batch_format="pandas")
             .groupby("__coarse").map_groups(bucket,
                                             batch_format="pandas")
             .to_pandas())
    n_total = int(parts["n_bigrams"].sum())
    if n_total == 0:
        return pd.DataFrame({"n_bigrams": pd.array([0], dtype="int64"),
                             "h_joint": [float("nan")],
                             "h_cond": [float("nan")]})
    ln_n = math.log(n_total)
    h_joint = (ln_n - float(parts["s_cell"].sum()) / n_total) / math.log(2)
    h_prev = (ln_n - float(parts["s_marg"].sum()) / n_total) / math.log(2)
    return pd.DataFrame({
        "n_bigrams": pd.array([n_total], dtype="int64"),
        "h_joint": [float(_round_sql(h_joint, 6))],
        "h_cond": [float(_round_sql(h_joint - h_prev, 6))]})


QUERIES.update({
    "q_tok_len_dist": q_tok_len_dist,
    "q_ngram_entropy": q_ngram_entropy,
})


# ---------------------------------------------------------------------------
# Embedding int8 quantization-error QA (compression readiness)
# ---------------------------------------------------------------------------
def q_emb_quantize(sf_dir: str):
    """Reconstruction error of per-dimension min/max int8 (256-level)
    quantization over the embedding table — the compression-readiness
    QA run before shipping vectors to an ANN index (asymmetric scalar
    quantization per Jegou et al.'s PQ framing, TPAMI 2011; public
    method).  Pass 1 folds per-dimension min/max (a dim-bounded
    table); pass 2 broadcasts the 2xD bounds as closure constants and
    folds (count, sum of squared error, max abs error) partials.
    Both engines quantize with the identical double-precision
    floor(x + 0.5) ladder, so max_abs_err matches bit-for-bit
    (max is summation-order-free) and the mean squared error is
    reported x1e6 at 6 dp to keep resolution above the rounding
    grain."""
    emb = _read_parquet(_t(sf_dir, "embeddings"), columns=["embedding"])

    def minmax(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64")
                        for e in b["embedding"]])
        dims = np.arange(X.shape[1], dtype="int64")
        return pd.DataFrame({"d": dims,
                             "mn": X.min(axis=0),
                             "mx": X.max(axis=0)})

    mm = coarse_agg(emb.map_batches(minmax, batch_format="pandas"),
                    ["d"], {"mn": ("mn", "min"),
                            "mx": ("mx", "max")}).to_pandas()
    mm = mm.sort_values("d").reset_index(drop=True)
    mn = mm["mn"].to_numpy("float64")
    mx = mm["mx"].to_numpy("float64")
    dim = len(mm)
    sc = (mx - mn) / 255.0

    def err(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64")
                        for e in b["embedding"]])
        assert X.shape[1] == dim, "embedding width changed mid-table"
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.floor((X - mn) / sc + 0.5)
        q = np.clip(q, 0.0, 255.0)
        recon = np.where(sc == 0.0, mn, mn + q * sc)
        e = X - recon
        return pd.DataFrame({
            "n_vals": [int(e.size)],
            "sse": [float((e * e).sum())],
            "max_abs_err": [float(np.abs(e).max())]})

    p = emb.map_batches(err, batch_format="pandas").to_pandas()
    n_vals = int(p["n_vals"].sum())
    return pd.DataFrame({
        "n_vals": pd.array([n_vals], dtype="int64"),
        "max_abs_err": [float(_round_sql(float(p["max_abs_err"].max()),
                                         6))],
        "mse_e6": [float(_round_sql(
            float(p["sse"].sum()) / n_vals * 1e6, 6))]})


QUERIES.update({"q_emb_quantize": q_emb_quantize})


# ---------------------------------------------------------------------------
# Fill-in-the-middle training prep (PSM reorder per doc)
# ---------------------------------------------------------------------------
def q_fim_split(sf_dir: str):
    """Fill-in-the-middle training prep: each doc's token stream splits
    at the deterministic 1/3 and 2/3 cut points and reorders to PSM
    (prefix, suffix, middle) — the FIM transformation of Bavarian et
    al. (2022; public method), emitted as per-doc split sizes plus an
    md5 of the reordered text so the full transform is value-checked
    without shipping doc-sized strings through the compare.  NULL text
    splits as zero tokens and has a NULL fim_md5.  Pure doc-local map
    work: no shuffle at any scale."""
    from bb_ocr_ray.functions.hashing import md5_hex, ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    def fim(b: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": [], "n_tokens": [], "n_prefix": [],
               "n_middle": [], "n_suffix": [], "fim_md5": []}
        for did, t in zip(b["doc_id"], b["text"]):
            tk = ws_tokens(t or "")
            n = len(tk)
            a, c = n // 3, (2 * n) // 3
            pre, mid, suf = tk[:a], tk[a:c], tk[c:]
            psm = "\x01".join((" ".join(pre), " ".join(suf),
                               " ".join(mid)))
            out["doc_id"].append(int(did))
            out["n_tokens"].append(n)
            out["n_prefix"].append(len(pre))
            out["n_middle"].append(len(mid))
            out["n_suffix"].append(len(suf))
            out["fim_md5"].append(None if t is None else md5_hex(psm))
        return pd.DataFrame({
            "doc_id": pd.Series(out["doc_id"], dtype="int64"),
            "n_tokens": pd.Series(out["n_tokens"], dtype="int64"),
            "n_prefix": pd.Series(out["n_prefix"], dtype="int64"),
            "n_middle": pd.Series(out["n_middle"], dtype="int64"),
            "n_suffix": pd.Series(out["n_suffix"], dtype="int64"),
            "fim_md5": pd.Series(out["fim_md5"], dtype="object")})

    return docs.map_batches(fim, batch_format="pandas").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Hard-negative mining for contrastive training
# ---------------------------------------------------------------------------
def q_hard_negatives(sf_dir: str):
    """Hardest negative per query vector: the highest-cosine neighbor
    with a DIFFERENT label, for query vec_id < 10 — the mining step of
    every contrastive/triplet training loop (Schroff et al.'s
    semi-hard mining frame, CVPR 2015; public method).  The 10-query
    matrix broadcasts once via ray.put (the ann_topk posture); each
    batch emits a per-query partial best among its different-label
    rows; a query-bounded reduce picks the global argmax.  Ranking is
    at the fixed 4 dp grain on BOTH engines so near-ties cannot flip
    the winner (the q_hybrid_rrf convention)."""
    import ray

    from bb_ocr_ray.stages.ann import _normalize, _to_matrix

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding", "label"])

    import pyarrow.compute as pc

    # arrow-native filter: an empty pandas block with a list column
    # trips Ray's block size estimator (harmless but noisy); arrow
    # blocks size cleanly
    qrows = vecs.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 10)),
        batch_format="pyarrow").to_pandas()
    qrows = qrows.sort_values("vec_id")
    q_ref = ray.put((qrows["vec_id"].astype("int64").tolist(),
                     qrows["label"].astype("int64").tolist(),
                     _normalize(_to_matrix(qrows["embedding"]))))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        qids, qlabs, qmat = ray.get(q_ref)
        ids = b["vec_id"].astype("int64").to_numpy()
        labs = b["label"].astype("int64").to_numpy()
        mat = _normalize(_to_matrix(b["embedding"]))
        sims = np.round(qmat @ mat.T, 4)
        rows = {"query_id": [], "qlabel": [], "neighbor_id": [],
                "neg_label": [], "score": []}
        for qi, (qid, qlab) in enumerate(zip(qids, qlabs)):
            mask = labs != qlab
            if not mask.any():
                continue
            s = sims[qi][mask]
            cand_ids = ids[mask]
            order = np.lexsort((cand_ids, -s))[0]
            rows["query_id"].append(qid)
            rows["qlabel"].append(qlab)
            rows["neighbor_id"].append(int(cand_ids[order]))
            rows["neg_label"].append(int(labs[mask][order]))
            rows["score"].append(float(s[order]))
        return pd.DataFrame({
            "query_id": pd.Series(rows["query_id"], dtype="int64"),
            "qlabel": pd.Series(rows["qlabel"], dtype="int64"),
            "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
            "neg_label": pd.Series(rows["neg_label"], dtype="int64"),
            "score": pd.Series(rows["score"], dtype="float64")})

    parts = vecs.map_batches(partial, batch_format="pandas")

    def reduce_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "neighbor_id"],
                          ascending=[False, True],
                          kind="mergesort").head(1)
        return g.reset_index(drop=True)

    out = (parts.groupby("query_id")
           .map_groups(reduce_best, batch_format="pandas").to_pandas())
    for c in ("query_id", "qlabel", "neighbor_id", "neg_label"):
        out[c] = out[c].astype("int64")
    return out.sort_values("query_id").reset_index(drop=True)


QUERIES.update({
    "q_fim_split": q_fim_split,
    "q_hard_negatives": q_hard_negatives,
})


# ---------------------------------------------------------------------------
# Language-ID confusion matrix (classifier-eval view of q_langid)
# ---------------------------------------------------------------------------
def q_lang_confusion(sf_dir: str):
    """Full (true lang, predicted lang) confusion matrix of the n-gram
    language-ID heuristic — the eval table behind q_langid's per-lang
    accuracy scalar.  Same engine-side detect_lang and the same
    SQL-generated classifier mirror (oracles._langid_pred_cte), so
    the two operators cannot drift; one lang²-bounded count fold."""
    from bb_ocr_ray.stages.text_stats import add_lang_pred

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["lang", "text"])
    scored = ds.map_batches(add_lang_pred, batch_format="pandas")
    out = coarse_agg(
        scored.map_batches(
            lambda b: pd.DataFrame({
                "lang": b["lang"], "lang_pred": b["lang_pred"],
                "n": np.ones(len(b), dtype="int64")}),
            batch_format="pandas"),
        ["lang", "lang_pred"], {"n": ("n", "sum")}).to_pandas()
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["lang", "lang_pred"])
            .reset_index(drop=True))


# ---------------------------------------------------------------------------
# Vocabulary coverage curve (tokenizer sizing)
# ---------------------------------------------------------------------------
def q_vocab_coverage(sf_dir: str):
    """Share of all token OCCURRENCES covered by the top-k vocabulary
    for k in {1,2,4,...,128} — the coverage curve every tokenizer
    vocab-size decision is read off (the OOV complement of q_oov_rate
    as a function of k).  One vocab-bounded count fold; the top-128
    cut is a Dataset sort+limit with the (n desc, tok asc) total
    tiebreak; the cumulative arithmetic runs on those 128 rows plus
    the aggregate total."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in b["text"]:
            cnt.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": list(cnt.keys()),
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    vocab = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                       ["tok"], {"n": ("n", "sum")}).materialize()
    vocab_size = vocab.count()
    total = int(vocab.sum("n"))
    top = (vocab.sort(["n", "tok"], descending=[True, False])
           .limit(128).to_pandas())
    cum = np.cumsum(top["n"].to_numpy("int64"))
    rows = []
    for k in (1, 2, 4, 8, 16, 32, 64, 128):
        if k > vocab_size:
            break
        cov = int(cum[k - 1])
        rows.append((k, cov, float(_round_sql(cov / total, 6))))
    out = pd.DataFrame(rows, columns=["k", "n_covered", "coverage"])
    out["k"] = out["k"].astype("int64")
    out["n_covered"] = out["n_covered"].astype("int64")
    return out


QUERIES.update({
    "q_lang_confusion": q_lang_confusion,
    "q_vocab_coverage": q_vocab_coverage,
})


# ---------------------------------------------------------------------------
# Gopher-style rule filter report (quality-gate pass counts)
# ---------------------------------------------------------------------------
def q_gopher_rules(sf_dir: str):
    """Pass counts for four Gopher-style document quality rules plus
    the all-rules keep count — the filter REPORT view next to
    q_doc_quality's feature sums (Rae et al. 2021 'Gopher' rule
    family; public method).  Rules: word count >= 40; mean word
    length in [3, 10]; >= 2 stopword hits; >= 80% purely-alphabetic
    tokens.  Pure vectorized doc-local flags, one five-scalar fold;
    the report is what a RefinedWeb-style cleaning run logs per
    shard."""
    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.functions.textstats import STOPWORDS

    stop = frozenset(STOPWORDS)
    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        import re
        alpha = re.compile(r"^[a-zA-Z]+$")
        n = lenr = stopr = alphar = keep = docs_n = 0
        for t in b["text"]:
            tk = ws_tokens(t or "")
            wc = len(tk)
            r1 = wc >= 40
            r2 = (wc > 0
                  and 3.0 <= sum(len(x) for x in tk) / wc <= 10.0)
            r3 = sum(1 for x in tk if x in stop) >= 2
            r4 = wc > 0 and sum(
                1 for x in tk if alpha.match(x)) * 5 >= wc * 4
            docs_n += 1
            n += r1
            lenr += r2
            stopr += r3
            alphar += r4
            keep += (r1 and r2 and r3 and r4)
        return pd.DataFrame({
            "n_docs": [docs_n], "pass_wordcount": [n],
            "pass_wordlen": [lenr], "pass_stopwords": [stopr],
            "pass_alpha": [alphar], "n_keep": [keep]})

    p = docs.map_batches(flags, batch_format="pandas").to_pandas()
    out = pd.DataFrame({c: pd.array([int(p[c].sum())], dtype="int64")
                        for c in ("n_docs", "pass_wordcount",
                                  "pass_wordlen", "pass_stopwords",
                                  "pass_alpha", "n_keep")})
    return out


QUERIES.update({"q_gopher_rules": q_gopher_rules})


# ---------------------------------------------------------------------------
# Script-mix histogram per language (charset QA)
# ---------------------------------------------------------------------------
def q_script_mix(sf_dir: str):
    """Per-language codepoint class counts — latin letters, digits,
    whitespace, CJK, other — the charset-mix QA that catches mojibake
    and mislabeled languages before they poison a tokenizer.  One
    utf-32 reinterpret per doc vectorizes the classification (no
    per-char Python); a lang-bounded five-column fold."""
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for lang, t in zip(b["lang"], b["text"]):
            s = t or ""
            cp = np.frombuffer(s.encode("utf-32-le"), dtype="<u4")
            lat = int((((cp >= 65) & (cp <= 90))
                       | ((cp >= 97) & (cp <= 122))).sum())
            dig = int(((cp >= 48) & (cp <= 57)).sum())
            ws = int(np.isin(cp, (32, 9, 10, 13, 12, 11)).sum())
            cjk = int(((cp >= 0x4E00) & (cp <= 0x9FFF)).sum())
            oth = len(cp) - lat - dig - ws - cjk
            acc = rows.setdefault(lang, [0, 0, 0, 0, 0])
            for i, v in enumerate((lat, dig, ws, cjk, oth)):
                acc[i] += v
        ks = list(rows.keys())
        return pd.DataFrame({
            "lang": ks,
            "n_latin": np.array([rows[k][0] for k in ks], dtype="int64"),
            "n_digit": np.array([rows[k][1] for k in ks], dtype="int64"),
            "n_ws": np.array([rows[k][2] for k in ks], dtype="int64"),
            "n_cjk": np.array([rows[k][3] for k in ks], dtype="int64"),
            "n_other": np.array([rows[k][4] for k in ks], dtype="int64")})

    out = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                     ["lang"],
                     {c: (c, "sum") for c in
                      ("n_latin", "n_digit", "n_ws", "n_cjk",
                       "n_other")}).to_pandas()
    for c in out.columns:
        if c != "lang":
            out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Duplicate-provenance flow matrix (who published first)
# ---------------------------------------------------------------------------
def q_dup_flow(sf_dir: str):
    """(first source, duplicating source) counts over PREFIX-content
    clusters (md5 of the first 64 chars — the q_dup_cluster_sizes
    key, non-degenerate at every corpus scale): for each cluster, the
    min-doc_id owner is the 'first publisher' and every other member
    charges one count to its own source — the provenance matrix
    behind q_dup_ratio's per-source totals (the dedup-auditing view
    of first-wins).  ONE coarse shuffle on the prefix hash co-locates
    each cluster; the in-bucket fold picks the min owner and emits
    source-pair counts; a source²-bounded fold finishes.  Doc text
    never shuffles, only 16-byte hashes + source labels."""
    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.stages.coarse import _bucket_ids
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    nb = _auto_num_buckets()
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "source", "text"])

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"],
            "h": [md5_hex((t or "")[:64]) for t in b["text"]]})
        g["__coarse"] = _bucket_ids(g, ["h"], nb)
        return g

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        first = g.groupby("h").agg(keep=("doc_id", "min"),
                                   src_first=("source", "first"))
        m = g.merge(first, on="h")
        dups = m[m["doc_id"] != m["keep"]]
        if dups.empty:
            return pd.DataFrame({"src_first": pd.Series([], dtype="object"),
                                 "src_dup": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        out = (dups.groupby(["src_first", "source"], as_index=False)
               .size().rename(columns={"source": "src_dup",
                                       "size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out

    folded = (docs.map_batches(stamp, batch_format="pandas")
              .groupby("__coarse").map_groups(bucket,
                                              batch_format="pandas"))
    out = coarse_agg(folded, ["src_first", "src_dup"],
                     {"n": ("n", "sum")}).to_pandas()
    if out.empty:
        out = pd.DataFrame({"src_first": pd.Series([], dtype="object"),
                            "src_dup": pd.Series([], dtype="object"),
                            "n": pd.Series([], dtype="int64")})
    out["n"] = out["n"].astype("int64")
    return (out.sort_values(["src_first", "src_dup"])
            .reset_index(drop=True))


QUERIES.update({
    "q_script_mix": q_script_mix,
    "q_dup_flow": q_dup_flow,
})


# ---------------------------------------------------------------------------
# WAND per-term score upper bounds (top-k retrieval pruning table)
# ---------------------------------------------------------------------------
def q_wand_bounds(sf_dir: str):
    """Per-term tf-idf upper bounds — max over docs of tf(t,d)·idf(t),
    the pruning table WAND-style top-k retrieval evaluates before
    touching postings (Broder et al., CIKM'03; public method).  Since
    idf is constant per term, the bound factors to max_tf·idf, so ONE
    coarse fold carries both statistics: per-batch partials emit each
    term's in-batch max per-doc tf AND its distinct-doc count, folded
    with (max, sum).  Ranking is at the 6 dp grain with a term-asc
    tiebreak on both engines."""
    from collections import Counter

    import math

    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["text"])
    n_docs = ds.count()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        mx: dict = {}
        df: Counter = Counter()
        for t in b["text"]:
            c = Counter(ws_tokens(t or ""))
            df.update(c.keys())
            for tok, n in c.items():
                if n > mx.get(tok, 0):
                    mx[tok] = n
        ks = list(df.keys())
        return pd.DataFrame({
            "tok": ks,
            "max_tf": np.array([mx[k] for k in ks], dtype="int64"),
            "df": np.array([df[k] for k in ks], dtype="int64")})

    stats = coarse_agg(ds.map_batches(partial, batch_format="pandas"),
                       ["tok"], {"max_tf": ("max_tf", "max"),
                                 "df": ("df", "sum")}).to_pandas()
    stats["max_tf"] = stats["max_tf"].astype("int64")
    stats["df"] = stats["df"].astype("int64")
    stats["bound"] = [
        float(_round_sql(mt * math.log(n_docs / d), 6))
        for mt, d in zip(stats["max_tf"], stats["df"])]
    out = stats.sort_values(["bound", "tok"],
                            ascending=[False, True],
                            kind="mergesort").head(20)
    return out[["tok", "max_tf", "df", "bound"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# Rare-category collapse (tail-cardinality capping featurizer)
# ---------------------------------------------------------------------------
def q_rare_collapse(sf_dir: str):
    """Token histogram with every token under 1% of total occurrences
    collapsed to '__rare__' — the tail-capping every categorical
    featurizer applies before one-hot/hashing (cardinality control).
    Exact integer threshold (n·100 < total, no float compare); one
    vocab-bounded fold, then bounded recode arithmetic."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in b["text"]:
            cnt.update(ws_tokens(t or ""))
        return pd.DataFrame({"tok": list(cnt.keys()),
                             "n": np.fromiter(cnt.values(), dtype="int64")})

    vocab = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                       ["tok"], {"n": ("n", "sum")}).to_pandas()
    vocab["n"] = vocab["n"].astype("int64")
    total = int(vocab["n"].sum())
    rare = vocab["n"] * 100 < total
    kept = vocab[~rare][["tok", "n"]].rename(columns={"tok": "category"})
    if rare.any():
        kept = pd.concat([kept, pd.DataFrame(
            {"category": ["__rare__"],
             "n": [int(vocab.loc[rare, "n"].sum())]})],
            ignore_index=True)
    kept["n"] = kept["n"].astype("int64")
    return kept.sort_values("category").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Token casing profile per source (OCR/mojibake artifact QA)
# ---------------------------------------------------------------------------
def q_case_stats(sf_dir: str):
    """Per-source token casing mix — all-lower, Title-case, ALL-UPPER
    (2+ chars), other — the casing QA that flags OCR shout-case
    artifacts and broken sentence segmentation.  Classes are disjoint
    ASCII regex classes evaluated in a fixed priority (lower, upper,
    title, other) identically on both engines; per-batch Counter with
    a distinct-token memo; one source-bounded fold."""
    import re

    from collections import Counter

    from bb_ocr_ray.functions.hashing import ws_tokens

    _LOW = re.compile(r"^[a-z]+$")
    _UP = re.compile(r"^[A-Z]{2,}$")
    _TI = re.compile(r"^[A-Z][a-z]*$")
    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def cls(tok: str) -> int:
        if _LOW.match(tok):
            return 0
        if _UP.match(tok):
            return 1
        if _TI.match(tok):
            return 2
        return 3

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        memo: dict = {}
        rows: dict = {}
        for s, t in zip(b["source"], b["text"]):
            acc = rows.setdefault(s, [0, 0, 0, 0])
            for tok in ws_tokens(t or ""):
                k = memo.get(tok)
                if k is None:
                    k = memo[tok] = cls(tok)
                acc[k] += 1
        ks = list(rows.keys())
        return pd.DataFrame({
            "source": ks,
            "n_lower": np.array([rows[k][0] for k in ks], dtype="int64"),
            "n_upper": np.array([rows[k][1] for k in ks], dtype="int64"),
            "n_title": np.array([rows[k][2] for k in ks], dtype="int64"),
            "n_other": np.array([rows[k][3] for k in ks], dtype="int64")})

    out = coarse_agg(docs.map_batches(partial, batch_format="pandas"),
                     ["source"],
                     {c: (c, "sum") for c in
                      ("n_lower", "n_upper", "n_title", "n_other")}
                     ).to_pandas()
    for c in out.columns:
        if c != "source":
            out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


QUERIES.update({
    "q_wand_bounds": q_wand_bounds,
    "q_rare_collapse": q_rare_collapse,
    "q_case_stats": q_case_stats,
})


# ---------------------------------------------------------------------------
# Embedding outliers vs own-label centroid (mislabel QA)
# ---------------------------------------------------------------------------
def q_emb_outliers(sf_dir: str):
    """Per label: vectors whose squared distance to their OWN label's
    centroid exceeds 4x the label's mean squared distance — the
    cheap mislabel/contamination screen run before trusting a labeled
    embedding set.  Pass 1 folds per-label vector sums (a label x dim
    bounded table) into centroids; pass 2 broadcasts them as closure
    constants and folds (n, sum d², outlier count) per label.  The
    outlier compare runs on 6 dp-rounded doubles on BOTH engines (the
    registry's boundary-stability convention)."""
    emb = _read_parquet(_t(sf_dir, "embeddings"),
                        columns=["vec_id", "embedding", "label"])

    def sums(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64")
                        for e in b["embedding"]])
        lab = b["label"].astype("int64").to_numpy()
        rows = []
        for lv in np.unique(lab):
            m = lab == lv
            s = X[m].sum(axis=0)
            for d, v in enumerate(s):
                rows.append((int(lv), d, float(v), int(m.sum()) if d == 0
                             else 0))
        return pd.DataFrame(rows, columns=["label", "d", "s", "n"])

    cs = coarse_agg(emb.map_batches(sums, batch_format="pandas"),
                    ["label", "d"], {"s": ("s", "sum"),
                                     "n": ("n", "sum")}).to_pandas()
    n_per = (cs.groupby("label")["n"].sum()).to_dict()
    cent = {int(lv): (sub.sort_values("d")["s"].to_numpy("float64")
                      / n_per[lv])
            for lv, sub in cs.groupby("label")}

    def dists(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64")
                        for e in b["embedding"]])
        lab = b["label"].astype("int64").to_numpy()
        rows = []
        for lv in np.unique(lab):
            m = lab == lv
            d2 = ((X[m] - cent[int(lv)]) ** 2).sum(axis=1)
            rows.append((int(lv), int(m.sum()), float(d2.sum())))
        return pd.DataFrame(rows, columns=["label", "n", "sum_d2"])

    t = coarse_agg(emb.map_batches(dists, batch_format="pandas"),
                   ["label"], {"n": ("n", "sum"),
                               "sum_d2": ("sum_d2", "sum")}).to_pandas()
    mean_d2 = {int(lv): float(s) / int(n)
               for lv, s, n in zip(t["label"], t["sum_d2"], t["n"])}

    def outliers(b: pd.DataFrame) -> pd.DataFrame:
        X = np.asarray([np.asarray(e, dtype="float64")
                        for e in b["embedding"]])
        lab = b["label"].astype("int64").to_numpy()
        rows = []
        for lv in np.unique(lab):
            m = lab == lv
            d2 = ((X[m] - cent[int(lv)]) ** 2).sum(axis=1)
            d2r = np.array([float(_round_sql(x, 6)) for x in d2])
            thr = float(_round_sql(4.0 * mean_d2[int(lv)], 6))
            rows.append((int(lv), int((d2r > thr).sum())))
        return pd.DataFrame(rows, columns=["label", "n_out"])

    o = coarse_agg(emb.map_batches(outliers, batch_format="pandas"),
                   ["label"], {"n_out": ("n_out", "sum")}).to_pandas()
    out = t.merge(o, on="label")
    out["label"] = out["label"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["n_out"] = out["n_out"].astype("int64")
    out["mean_d2"] = [float(_round_sql(mean_d2[int(lv)], 6))
                      for lv in out["label"]]
    return (out[["label", "n", "mean_d2", "n_out"]]
            .sort_values("label").reset_index(drop=True))


QUERIES.update({"q_emb_outliers": q_emb_outliers})


# ---------------------------------------------------------------------------
# Corpus datasheet (one-row dataset card)
# ---------------------------------------------------------------------------
def q_dataset_card(sf_dir: str):
    """One-row corpus datasheet — docs, token occurrences, vocabulary,
    languages, sources, prefix-duplicate share, mean doc length — the
    'Datasheets for Datasets' summary (Gebru et al., CACM 2021;
    public method) every published training corpus ships with.  One
    doc-local scalar fold + one vocab-bounded fold + one
    prefix-hash-cardinality fold; each contributes aggregate-sized
    partials, so the card costs three bounded folds regardless of
    corpus size."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import md5_hex, ws_tokens

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["text", "lang", "source"])

    def scalars(b: pd.DataFrame) -> pd.DataFrame:
        toks = 0
        chars = 0
        langs = set()
        srcs = set()
        for t, lang, s in zip(b["text"], b["lang"], b["source"]):
            toks += len(ws_tokens(t or ""))
            chars += len(t or "")
            langs.add(lang)
            srcs.add(s)
        return pd.DataFrame({
            "n_docs": [len(b)], "n_tokens": [toks], "n_chars": [chars],
            "langs": ["|".join(sorted(langs))],
            "srcs": ["|".join(sorted(srcs))]})

    p = docs.map_batches(scalars, batch_format="pandas").to_pandas()
    n_docs = int(p["n_docs"].sum())
    n_tokens = int(p["n_tokens"].sum())
    n_chars = int(p["n_chars"].sum())
    langs = set()
    srcs = set()
    for ls, ss in zip(p["langs"], p["srcs"]):
        langs.update(x for x in ls.split("|") if x)
        srcs.update(x for x in ss.split("|") if x)

    def vocab_partial(b: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": list(c.keys()),
                             "one": np.ones(len(c), dtype="int64")})

    vocab = coarse_agg(
        docs.map_batches(vocab_partial, batch_format="pandas"),
        ["tok"], {"one": ("one", "sum")}).count()

    def prefix_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"h": [md5_hex((t or "")[:64])
                                   for t in b["text"]]})

    clusters = coarse_agg(
        docs.map_batches(prefix_partial, batch_format="pandas"),
        ["h"], {"c": ("h", "size")})
    n_clusters = clusters.count()

    return pd.DataFrame({
        "n_docs": pd.array([n_docs], dtype="int64"),
        "n_tokens": pd.array([n_tokens], dtype="int64"),
        "vocab": pd.array([int(vocab)], dtype="int64"),
        "n_langs": pd.array([len(langs)], dtype="int64"),
        "n_sources": pd.array([len(srcs)], dtype="int64"),
        "prefix_dup_share": [float(_round_sql(
            (n_docs - n_clusters) / n_docs, 6)) if n_docs else 0.0],
        "mean_doc_chars": [float(_round_sql(n_chars / n_docs, 6))
                           if n_docs else 0.0]})


QUERIES.update({"q_dataset_card": q_dataset_card})
