"""Query registry: one callable per implemented operator/pipeline.

Each function takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table.  Every aggregate column is explicitly named to match the
DuckDB oracle in ``bb_ocr_ray.pipelines.oracles`` (the driver's
correctness gate hashes values after sorting columns by name).

Grouped work has two shapes, both gated by ``sizing.fold_buckets``
(one driver-side pass when the side fits, else one coarse shuffle): a
grouped aggregate is a per-row map followed by one ``coarse_agg``,
whose per-batch combiner is the partial aggregate, and a per-key fold
is ``grouped_per_key``.  No query calls Ray's ``groupby()`` directly.

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

from bb_ocr_ray.stages import sizing
from bb_ocr_ray.stages.coarse import coarse_agg, grouped_per_key

from bb_ocr_ray.functions.hashing import md5_hex
from bb_ocr_ray.functions.textstats import n_tokens_series, quality_features


def _t(sf_dir: str, name: str) -> str:
    return f"{sf_dir}/{name}.parquet"


def _round_sql(x, decimals: int):
    """Round half AWAY from zero — SQL round() semantics.  pandas/numpy
    .round() is banker's (half to even), which diverges from the DuckDB
    oracles on exactly-representable midpoints (e.g. 817/32 at 4 dp)."""
    f = 10.0 ** decimals
    return np.sign(x) * np.floor(np.abs(x) * f + 0.5) / f


# ---------------------------------------------------------------------------
# Relational: aggregation with partial pre-agg (TPC-H Q1 shape)
# ---------------------------------------------------------------------------
def q1_pricing_summary(sf_dir: str):
    """Filter -> one coarse_agg, whose per-batch combiner collapses each
    batch to ≤ 6 rows (|returnflag|×|linestatus|), so a shuffle would
    move a few hundred partial rows instead of every lineitem row.

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

    def cents(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        ext_c = _round_sql(batch["l_extendedprice"] * 100.0,
                           0).astype("int64")
        disc_pct = _round_sql(batch["l_discount"] * 100.0,
                              0).astype("int64")
        return batch.assign(base_cents=ext_c,
                            disc_units=ext_c * (100 - disc_pct))

    out = sizing.to_frame(coarse_agg(
        ds.map_batches(cents, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "base_cents": ("base_cents", "sum"),
         "disc_units": ("disc_units", "sum"),
         "count_order": ("l_quantity", "size")},
    ))
    out["avg_qty"] = _round_sql(out["sum_qty"] / out["count_order"], 4)
    out["sum_qty"] = _round_sql(out["sum_qty"], 2)
    out["sum_base_price"] = _round_sql(out["base_cents"] / 100.0, 2)
    out["sum_disc_price"] = _round_sql(out["disc_units"] / 10000.0, 2)
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

    return grouped_per_key(ds.map_batches(local_topk, batch_format="pandas"),
                           "o_orderpriority", final_topk)


# ---------------------------------------------------------------------------
# Relational: distinct / count-distinct
# ---------------------------------------------------------------------------
def _segment_nations(sf_dir: str):
    """Customers per distinct (c_mktsegment, c_nationkey) pair, as
    column ``n``: one coarse_agg size count."""
    ds = _read_parquet(_t(sf_dir, "customer"),
                       columns=["c_mktsegment", "c_nationkey"])
    return coarse_agg(ds, ["c_mktsegment", "c_nationkey"],
                      {"n": ("c_nationkey", "size")})


def q_distinct(sf_dir: str):
    return _segment_nations(sf_dir).drop_columns(["n"])


def q_count_distinct(sf_dir: str):
    # two-level: the distinct pairs with their customer counts, then per
    # segment the number of pairs and the sum of their counts
    return coarse_agg(_segment_nations(sf_dir), ["c_mktsegment"],
                      {"n_nations": ("n", "size"),
                       "n_customers": ("n", "sum")}).to_pandas()


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
    out = sizing.to_frame(coarse_agg(joined, ["o_orderstatus"],
                                     {"revenue_u": ("revenue_u", "sum"),
                                      "n_lineitems": ("n", "sum")}))
    out["revenue"] = _round_sql(out["revenue_u"] / 10000.0, 2)
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
    out = sizing.to_frame(coarse_agg(joined, ["r_name"],
                                     {"n_customers": ("acct_c", "size"),
                                      "total_acctbal": ("acct_c", "sum")}))
    out["total_acctbal"] = _round_sql(out["total_acctbal"] / 100.0, 2)
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
    out = sizing.to_frame(coarse_agg(joined, ["n_name"],
                                     {"revenue_u": ("revenue_u", "sum"),
                                      "n_lineitems": ("revenue_u", "size")}))
    out["revenue"] = _round_sql(out["revenue_u"] / 10000.0, 2)
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

    def hours(batch: pd.DataFrame) -> pd.DataFrame:
        # hour as epoch seconds (int64): avoids ns-vs-us timestamp
        # precision drift between engines in the value-hash compare
        # (total_seconds is unit-independent; .astype(int64) is not)
        hour = (
            (batch["ts"].dt.floor("h") - pd.Timestamp("1970-01-01"))
            .dt.total_seconds()
            .astype("int64")
        )
        return batch.assign(hour_epoch=hour)

    # hour buckets grow with the corpus time span (x event types):
    # coarse_agg keeps the Ray group count bounded (per-group tax)
    out = sizing.to_frame(coarse_agg(
        ds.map_batches(hours, batch_format="pandas"),
        ["event_type", "hour_epoch"],
        {"n_events": ("value", "size"), "sum_value": ("value", "sum")},
    ))
    out["sum_value"] = _round_sql(out["sum_value"].fillna(0.0), 4)
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

    return grouped_per_key(ds, "user_id", sessions)


def q_json_extract(sf_dir: str):
    """Robust JSON field extraction from the events props column (M10
    analog: LLM-response JSON repair) — vectorized regex extract, sum
    per event_type; unparseable rows count as errors, never raised."""
    ds = _read_parquet(_t(sf_dir, "events"),
                         columns=["event_type", "props"])

    def parse(batch: pd.DataFrame) -> pd.DataFrame:
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
        )

    return coarse_agg(ds.map_batches(parse, batch_format="pandas"),
                      ["event_type"],
                      {"sum_k": ("k", "sum"), "n_parsed": ("parsed", "sum"),
                       "n_rows": ("parsed", "size")}).to_pandas()


# ---------------------------------------------------------------------------
# Documents: text analysis
# ---------------------------------------------------------------------------
def q_doc_stats(sf_dir: str):
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["lang", "text", "n_chars"])

    def tokens(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(
            n_tokens=n_tokens_series(batch["text"].fillna("")))

    out = coarse_agg(
        ds.map_batches(tokens, batch_format="pandas"), ["lang"],
        {"n_docs": ("n_chars", "size"), "sum_chars": ("n_chars", "sum"),
         "sum_tokens": ("n_tokens", "sum"), "max_chars": ("n_chars", "max"),
         "min_chars": ("n_chars", "min")},
    ).to_pandas()
    # a NULL n_chars makes the pandas fold's n_chars columns float64
    for c in ("sum_chars", "max_chars", "min_chars"):
        out[c] = out[c].astype("int64")
    return out


def q_doc_quality(sf_dir: str):
    """Quality features aggregated per source: integer numerators and
    denominators (no float ratios — exact cross-engine equality)."""
    ds = _read_parquet(_t(sf_dir, "documents"),
                         columns=["source", "text"])

    def features(batch: pd.DataFrame) -> pd.DataFrame:
        return quality_features(batch["text"].fillna("")).assign(
            source=batch["source"])

    return coarse_agg(
        ds.map_batches(features, batch_format="pandas"), ["source"],
        {"n_docs": ("n_tokens", "size"), "sum_tokens": ("n_tokens", "sum"),
         "sum_stop_tokens": ("n_stop_tokens", "sum"),
         "sum_punct": ("n_punct", "sum")}).to_pandas()


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
    agree = scored.map_batches(
        lambda b: pd.DataFrame(
            {"lang": b["lang"],
             "agree": (b["lang"] == b["lang_pred"]).astype("int64")}),
        batch_format="pandas")
    return coarse_agg(agree, ["lang"], {"n_agree": ("agree", "sum"),
                                        "n_docs": ("agree", "size")})


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
    import pyarrow as pa
    import pyarrow.compute as pc

    from bb_ocr_ray.stages.ann import embedding_near_dups

    vecs = _read_parquet(_t(sf_dir, "embeddings"),
                           columns=["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        # Arrow in and out: a batch with no vec_id < 25 row still
        # yields the input's list<float> type, not an untyped column
        t = t.filter(pc.less(t["vec_id"], 25))
        emb = t["embedding"].combine_chunks()
        vals = (pc.list_flatten(emb).to_numpy(zero_copy_only=False)
                .astype(np.float64) + 0.01).astype(np.float32)
        offsets = np.r_[0, np.cumsum(pc.list_value_length(emb))]
        return pa.table({
            "vec_id": pc.add(t["vec_id"], 1_000_000),
            "embedding": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), vals, type=emb.type)})

    twins = vecs.map_batches(plant, batch_format="pyarrow")
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
    """Per-url dedup over pages: the earliest-``warc_ts`` row per url
    (``dedup.dedup_exact``).  The synthetic corpus has unique urls, so
    output rows == input rows — the oracle checks the invariant holds."""
    from bb_ocr_ray.sources.pages import read_pages
    from bb_ocr_ray.stages.dedup import dedup_exact

    # project BEFORE the fold: the winner pick only needs (url,
    # warc_ts, lang), so the multi-KB html payload never enters it
    pages = read_pages(sf_dir).select_columns(["url", "warc_ts", "lang"])
    return dedup_exact(pages, key="url",
                       order_col="warc_ts").drop_columns(["warc_ts"])


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

    return grouped_per_key(ds.map_batches(score, batch_format="pandas"),
                           "p_brand", final)


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
        return pd.DataFrame({"genre": best})

    return coarse_agg(ds.map_batches(classify, batch_format="pandas"),
                      ["genre"], {"n_docs": ("genre", "size")}).to_pandas()


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

    return grouped_per_key(ds, "user_id", per_user)


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

    return sizing.to_frame(
        grouped_per_key(rd.from_pandas(hourly), "event_type", windows))


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

    parts = sizing.to_frame(ds.map_batches(partial, batch_format="pandas",
                                           batch_size=65536))
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

    from bb_ocr_ray.stages.joins import _auto_num_buckets

    n_buckets = _auto_num_buckets()

    # coarse-bucket fold + fully vectorized inner window: one python
    # call per BUCKET, with pandas groupby().cumsum() doing every
    # customer at once — no per-customer python (23.5 s -> ~3 s at sf0.1)
    def add_coarse(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__coarse"] = (
            batch["o_custkey"].astype("uint64") * 2654435761 % (1 << 32)
        ) % n_buckets
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

    return sizing.fold_buckets(ds, add_coarse, "__coarse", running_bucket)


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

    def bins(batch: pd.DataFrame) -> pd.DataFrame:
        # NULL values would NaN-poison the int cast — drop them here and
        # mirror with WHERE value IS NOT NULL in the oracle
        batch = batch[batch["value"].notna()]
        b = np.clip(((batch["value"] - lo) / (hi - lo) * nbins)
                    .astype("int64"), 0, nbins - 1)
        return pd.DataFrame({"event_type": batch["event_type"], "bin": b})

    return coarse_agg(ds.map_batches(bins, batch_format="pandas"),
                      ["event_type", "bin"],
                      {"n": ("bin", "size")}).to_pandas()


def q_rollup(sf_dir: str):
    """Multi-level aggregate (rollup): order counts + revenue at
    (status, priority), (status), and grand total, via partial agg +
    union of levels — mirrors SQL GROUP BY ROLLUP."""
    ds = _read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def cents(batch: pd.DataFrame) -> pd.DataFrame:
        # integer cents (see q1: float sums drift past round-2 at sf0.1)
        return batch.assign(rev_c=_round_sql(
            batch["o_totalprice"] * 100.0, 0).astype("int64"))

    fine = sizing.to_frame(coarse_agg(
        ds.map_batches(cents, batch_format="pandas"),
        ["o_orderstatus", "o_orderpriority"],
        {"n_orders": ("rev_c", "size"), "revenue": ("rev_c", "sum")}))
    mid = fine.groupby("o_orderstatus", as_index=False).agg(
        n_orders=("n_orders", "sum"), revenue=("revenue", "sum"))
    mid["o_orderpriority"] = None
    total = pd.DataFrame(
        {"o_orderstatus": [None], "o_orderpriority": [None],
         "n_orders": [fine["n_orders"].sum()],
         # SQL: the sum over no rows is NULL
         "revenue": [fine["revenue"].sum(min_count=1)]}
    )
    out = pd.concat([fine, mid, total], ignore_index=True)
    out["revenue"] = _round_sql(out["revenue"] / 100.0, 2)
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

    return grouped_per_key(ds, "event_type", median)


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

    return grouped_per_key(joined, "query_id", vote)


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

    def domains(batch: pd.DataFrame) -> pd.DataFrame:
        hosts = [_SHAPES[int(x) % 5].format(k=int(x) % 7)
                 for x in batch["doc_id"].to_numpy()]
        return pd.DataFrame({"domain": [registrable_domain(h)
                                        for h in hosts]})

    # registrable domains are unbounded at web scale: coarse_agg
    return coarse_agg(ds.map_batches(domains, batch_format="pandas"),
                      ["domain"], {"n_docs": ("domain", "size")}).to_pandas()


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

    def bins(batch: pd.DataFrame) -> pd.DataFrame:
        n = n_tokens_series(batch["text"].fillna("")).astype("int64")
        return pd.DataFrame(
            {"lang": batch["lang"],
             "bin": n.map(lambda x: int(x).bit_length()).astype("int64")})

    return coarse_agg(ds.map_batches(bins, batch_format="pandas"),
                      ["lang", "bin"], {"n_docs": ("bin", "size")}).to_pandas()


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
    return sizing.to_frame(pairs.map_batches(
        lambda b: pd.DataFrame(
            {"view_id": b["event_id"].astype("int64"),
             "purchase_id": b["event_id_r"].astype("int64")}),
        batch_format="pandas",
    ))


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

    def registers(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = [hll_bucket_rho(str(int(x)))
                 for x in batch["user_id"].dropna()]
        return pd.DataFrame(pairs, columns=["bucket", "rho"],
                            dtype="int64")

    return coarse_agg(ds.map_batches(registers, batch_format="pandas"),
                      ["bucket"], {"max_rho": ("rho", "max")}).to_pandas()


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

    def registers(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.dropna(subset=["user_id"])
        pairs = [hll_bucket_rho(str(int(x))) for x in b["user_id"]]
        df = pd.DataFrame(pairs, columns=["bucket", "rho"], dtype="int64")
        df["event_type"] = b["event_type"].to_numpy()
        return df

    return coarse_agg(ds.map_batches(registers, batch_format="pandas"),
                      ["event_type", "bucket"],
                      {"max_rho": ("rho", "max")}).to_pandas()


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
    # record keys scale with the catalog: coarse_agg (per-group tax)
    return coarse_agg(dedup_offers(offers), ["record_key"],
                      {"n_offers": ("listing_id", "size"),
                       "best_amount": ("amount", "min")}).to_pandas()


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
def q_decontaminate(sf_dir: str):
    """Decontamination: flag corpus docs sharing any 8-token shingle
    with the eval set (doc_id % 50 == 0) and count the DISTINCT
    overlapping shingles.  The eval side is a benchmark — inherently
    small — so its distinct-shingle set is built once and broadcast
    (``curate.eval_shingles``); the corpus streams through one
    map_batches (``curate.eval_hits``) with no shuffle (the standard
    scale shape for training-data decontam)."""
    import pyarrow as pa

    from bb_ocr_ray.stages.curate import eval_hits, eval_shingles, is_eval

    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    corpus = docs.map_batches(
        lambda t: t.filter(pa.array(~is_eval(t.column("doc_id").to_numpy()))),
        batch_format="pyarrow")

    def contaminated(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n_hit_shingles"] > 0]
        return pd.DataFrame({"doc_id": b["doc_id"].astype("int64"),
                             "n_hit_shingles": b["n_hit_shingles"]})

    out = (eval_hits(corpus, eval_shingles(docs))
           .map_batches(contaminated, batch_format="pandas").to_pandas())
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
# Training-data chunking: fixed token windows with stride (flat_map)
# ---------------------------------------------------------------------------
def q_chunk_docs(sf_dir: str):
    """Split each document into 32-token windows at 24-token spacing
    (overlap 8) — the standard LLM training-prep chunker, expressed as
    a 1->N batch expansion.  Chunk starts are every 24th token
    position, so every token lands in at least one chunk; empty docs
    produce none.  Doc-local: one map_batches, NO shuffle."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def chunk(b: pd.DataFrame) -> pd.DataFrame:
        ids, cids, texts, ntoks = [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tk = ws_tokens(t or "")
            for ci, s in enumerate(range(0, len(tk), 24), start=1):
                w = tk[s:s + 32]
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
                            the eval set (`stages.curate.eval_hits`,
                            shingle set broadcast once);
      4. chunking         — 32-token windows at stride 24 (counted,
                            not materialized);
      5. summary          — per-source surviving docs / chunks /
                            tokens (partial agg, tiny final groupby).

    Every stage streams; nothing corpus-sized touches the driver."""
    import pyarrow.compute as pc

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.curate import eval_hits, eval_shingles, is_eval
    from bb_ocr_ray.stages.dedup import dedup_exact

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text", "source"])

    def qual_and_hash(b: pd.DataFrame) -> pd.DataFrame:
        keep = ~is_eval(b["doc_id"]) & np.array(
            [len(ws_tokens(t or "")) >= 10 for t in b["text"]], dtype=bool)
        b = b[keep].copy()
        b["content_hash"] = [md5_hex(t or "") for t in b["text"]]
        return b

    qual = docs.map_batches(qual_and_hash, batch_format="pandas")
    survivors = dedup_exact(qual, key="content_hash",
                            order_col="doc_id")
    clean = eval_hits(survivors, eval_shingles(docs)).map_batches(
        lambda t: t.filter(pc.equal(t["n_hit_shingles"], 0)),
        batch_format="pyarrow")

    def chunk_stats(b: pd.DataFrame) -> pd.DataFrame:
        n = np.array([len(ws_tokens(t or "")) for t in b["text"]],
                     dtype="int64")
        # (n - 1) // 24 + 1 windows, 0 for an empty doc
        return pd.DataFrame({"source": b["source"].to_numpy(),
                             "n_chunks": (n + 23) // 24, "n_tokens": n})

    return coarse_agg(
        clean.map_batches(chunk_stats, batch_format="pandas"), ["source"],
        {"n_docs": ("n_tokens", "size"), "n_chunks": ("n_chunks", "sum"),
         "n_tokens": ("n_tokens", "sum")}).to_pandas()


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
    from bb_ocr_ray.stages.curate import doc_freq

    docs = _read_parquet(_t(sf_dir, "documents"),
                         columns=["doc_id", "text"])

    # Two corpus passes instead of one pinned (doc_id, tok) table: the
    # pair table is CORPUS-sized (every distinct token of every doc),
    # so materializing it to feed two consumers is the pin-vs-reread
    # trade paragraph_dedup's docstring argues against.  Pass 1 folds
    # to per-batch Counter partials (vocabulary-bounded shuffle);
    # pass 2 re-tokenizes and emits ONLY the 10 winners' pairs — the
    # second shuffle moves 10 posting lists, never the vocabulary.
    df_counts = doc_freq(docs)
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

    return grouped_per_key(
        docs.map_batches(winner_pairs, batch_format="pandas"), "tok", fold)


QUERIES.update({"q_inverted_index": q_inverted_index})


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
def q_tfidf(sf_dir: str):
    """Top-3 TF-IDF terms per document.  Two corpus passes, ZERO
    per-doc shuffle: pass 1 builds document frequencies
    (``curate.doc_freq``), the df map is broadcast once via ray.put,
    and pass 2 re-tokenizes each doc and ranks locally.  Tokenizing twice
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
    from bb_ocr_ray.stages.curate import doc_freq

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    n_docs = ds.count()
    df_pd = doc_freq(ds)
    df_ref = ray.put(dict(zip(df_pd["tok"], (int(x) for x in df_pd["df"]))))

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        ids, toks, tfs, dfs, scores = [], [], [], [], []
        for d, t in zip(b["doc_id"], b["text"]):
            tf = Counter(ws_tokens(t or ""))
            top = sorted(tf.items(),
                         key=lambda kv: (-kv[1], dfm[kv[0]], kv[0]))[:3]
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
    doc_id (``curate.split_of``: stable md5 bucket % 100), so it is
    reproducible across runs, machines, and engines — never random
    state.  Per-batch partial -> one-task final groupby (bounded:
    3 × |sources| keys)."""
    from bb_ocr_ray.stages.curate import split_of

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.assign(split=split_of(b["doc_id"]))
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
# Sequence packing (concat-and-split, GPT-style training prep)
# ---------------------------------------------------------------------------
def q_pack_sequences(sf_dir: str):
    """Concat-and-split sequence packing: within each source, token
    streams are concatenated in doc_id order and cut into fixed
    64-token sequences (documents straddle cuts — the GPT
    pre-training packing discipline, vs first-fit bin packing which is
    neither order-stable nor SQL-mirrorable).  Emits one row per
    (source, seq_id): how many docs contributed and the sequence's
    token count (= 64 except the tail).  Packing is inherently
    sequential per stream, so the unit of parallelism is the stream:
    ``grouped_per_key(source)`` gives each source one call that
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

    seq_len = 64

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

    return grouped_per_key(ds.map_batches(count_toks, batch_format="pandas"),
                           "source", pack)


# ---------------------------------------------------------------------------
# Per-source quota cap (deterministic hash-rank downsampling)
# ---------------------------------------------------------------------------
def q_domain_quota(sf_dir: str):
    """Cap each source at 50 documents chosen by ascending stable md5
    hash of doc_id (``curate.hash_rank``/``curate.top_quota``) — the
    per-domain downsampling step every crawl pipeline runs so no
    single site dominates the training mix.  Hash-rank selection is a
    reproducible "random" sample (pure function of doc_id, no RNG
    state).  Per-batch partial keeps only its local top-50 per source
    plus (count, char-sum) totals, so the merge task sees
    O(sources × quota) candidate rows, never the corpus — the
    bounded-aggregate shape of q_train_split with a top-k twist.
    Output per source: n_total, n_kept, sum_chars_kept."""
    from bb_ocr_ray.stages.curate import hash_rank, top_quota

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
        b["hv"] = hash_rank(b["doc_id"])
        b["n_sub"] = 1  # rows this candidate row stands for (count only)
        keep = top_quota(b)
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
        kept = top_quota(b[b["hv"].notna()])
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
def q_line_filter(sf_dir: str):
    """C4's line-level cleaning rules (``curate.line_filter`` with the
    terminal-punctuation rule and >= 3 words) as a doc-local batch
    transform.  Emits per doc: total lines, kept lines, and the char
    length of the newline-rejoined cleaned text.  One map_batches, NO
    shuffle — the ideal 100-TB operator shape."""
    from bb_ocr_ray.stages.curate import line_filter

    ds = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"].notna()]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "n_lines": b["n_lines"],
            "n_kept": b["n_kept"],
            "n_chars_kept": b["text"].str.len().astype("int64")})

    return line_filter(ds, 3, True).map_batches(counts,
                                                batch_format="pandas")


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


QUERIES.update({"q_pack_sequences": q_pack_sequences,
                "q_domain_quota": q_domain_quota,
                "q_line_filter": q_line_filter,
                "q_centroids": q_centroids})


# ---------------------------------------------------------------------------
# Percentile-bounds outlier filter (two-pass, exact global quantiles)
# ---------------------------------------------------------------------------
def q_outlier_filter(sf_dir: str):
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

    lo, hi = pick(0.01), pick(0.99)

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
def q_corpus_pipeline(sf_dir: str):
    """Five-stage web-corpus curation pipeline composed from the
    curation stages, one streaming lineage end-to-end:

      1. line-level clean (``curate.line_filter``, RefinedWeb-style
         short-line removal: keep lines with >= 15 words and no
         'javascript' — the C4 terminal-punct rule has zero signal on
         this corpus), drop docs with no surviving line;
      2. exact dedup on md5(cleaned text), keep-min-doc_id
         (``dedup.dedup_exact``) — payload never shuffled twice;
      3. per-source quota cap of 50 by stable hash rank
         (``curate.top_quota``, as q_domain_quota);
      4. deterministic 90/5/5 split (``curate.split_of``, as
         q_train_split);
      5. per-(split, source) doc/char summary.

    Stages 3-5 run on bounded data (partial top-quota per batch ->
    one merge task sees O(sources x quota)); stages 1-2 are the
    corpus-sized part and are shuffle-minimal.  The oracle is one CTE
    chain over the same five stages — integer/string-exact
    throughout, so the value-hash gate covers the whole composition,
    not just the stages in isolation."""
    from bb_ocr_ray.stages.curate import (hash_rank, line_filter, split_of,
                                          top_quota)
    from bb_ocr_ray.stages.dedup import dedup_exact

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "source", "text"])

    def hashed(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"].notna() & (b["n_kept"] > 0)]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype("int64"),
            "source": b["source"].fillna("").astype(object),
            "h": pd.array([md5_hex(t) for t in b["text"]], dtype="object"),
            "n": b["text"].str.len().astype("int64")})

    def quota_partial(b: pd.DataFrame) -> pd.DataFrame:
        return top_quota(b.assign(hv=hash_rank(b["doc_id"])))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        kept = top_quota(b)
        g = (kept.assign(split=split_of(kept["doc_id"]))
             .groupby(["split", "source"], as_index=False)
             .agg(n_docs=("doc_id", "size"), sum_chars=("n", "sum")))
        g["n_docs"] = g["n_docs"].astype("int64")
        g["sum_chars"] = g["sum_chars"].astype("int64")
        return g

    cleaned = line_filter(ds, 15, False).map_batches(hashed,
                                                     batch_format="pandas")
    out = (dedup_exact(cleaned, key="h", order_col="doc_id")
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
    batch; df is ``curate.doc_freq``), the 3 terms + constants
    broadcast in the task closure, then one scoring map with per-batch
    partial top-20 — nothing row-sized reaches the driver.  The float
    fold over terms is in FIXED term order on both sides; avglen is
    exact-integer-sum / count so the division is bit-identical to the
    oracle's CAST(sum() AS DOUBLE)/count(*)."""
    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.curate import doc_freq

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

    dft = doc_freq(ds)
    top = dft.sort_values(["df", "tok"], ascending=[False, True],
                          kind="mergesort").head(3)
    terms = list(top["tok"])
    idf = {t: float(np.log((n_docs - int(d) + 0.5) / (int(d) + 0.5) + 1.0))
           for t, d in zip(top["tok"], top["df"])}

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
def _link_edges(sf_dir: str):
    """The synthetic (src, dst) link graph q_pagerank and q_hits rank:
    each doc links to 3 arithmetic targets mod (max_id + 1).
    Quadratic + 2-to-1 + affine: a deliberately NON-regular graph
    (skewed in-degrees), so a wrong rank flow cannot hide behind a
    uniform stationary distribution."""
    docs = _read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    m = int(docs.max("doc_id")) + 1

    def edges(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy("int64")
        return pd.DataFrame({"src": np.repeat(d, 3),
                             "dst": np.stack([(d * d + 1) % m,
                                              (d // 2 + 7) % m,
                                              (d * 3 + 11) % m],
                                             axis=1).reshape(-1)})

    return docs.map_batches(edges, batch_format="pandas")


def q_pagerank(sf_dir: str):
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

    out = pagerank(_link_edges(sf_dir), iters=10).to_pandas()
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

    The model is bigram-sized, so counts attach to the scoring stream
    via DISTRIBUTED bucketed hash joins instead of a broadcast — the
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
    from bb_ocr_ray.stages.coarse import coarse_agg, grouped_per_key
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
    on text with PLANTED PII (the raw corpus carries none, so a
    value-hash gate over it would prove only that clean text passes
    through unchanged).  This query plants
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
# Hybrid retrieval: reciprocal-rank fusion of BM25 + dense cosine arms
# ---------------------------------------------------------------------------
def q_hybrid_rrf(sf_dir: str):
    """Reciprocal-rank fusion of a lexical and a dense retrieval arm —
    the hybrid-retrieval step of a RAG / retrieval stack (Cormack,
    Clarke & Buettcher SIGIR'09; public method).  The arms are the
    existing operators: q_bm25's top-20 (corpus-stat folds + partial
    top-k scoring map) and ann_topk's exact cosine top-20 for query
    vector 0 (query broadcast once, corpus streams, distributed
    partial top-k).  Both arm outputs are k-row aggregates, so the
    fusion itself is driver-side arithmetic BY CONSTRUCTION — the
    distributed work is inside the arms.  RRF contributions
    1/(60 + rank) are integer-ratio doubles, bit-identical across
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
                    1.0 / (60 + f["r_lex"].fillna(0)), 0.0)
    denc = np.where(f["r_dense"].notna(),
                    1.0 / (60 + f["r_dense"].fillna(0)), 0.0)
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
def q_ctfidf(sf_dir: str):
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
                .groupby("label", as_index=False).head(5))

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["w", "token"], ascending=[False, True],
                          kind="mergesort").head(5)
        return g.assign(rank=pd.Series(range(1, len(g) + 1),
                                       dtype="int64").values)

    out = grouped_per_key(
        scored.map_batches(score, batch_format="pandas")
        .map_batches(local_topk, batch_format="pandas"),
        "label", final_topk).to_pandas()
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
# HITS hubs & authorities (Kleinberg link analysis)
# ---------------------------------------------------------------------------
def q_hits(sf_dir: str):
    """HITS over the q_pagerank link graph (same deterministic
    3-targets-mod-m generator — skewed in-degrees, dangling ids) via
    :func:`stages.graph.hits`: per half-round one neighbor-sum fold +
    one L2 normalization, update order a_i from h_{i-1} then h_i from
    the JUST-normalized a_i, mirrored exactly by the unrolled SQL
    oracle.  Scores round to 6 dp (normalization drift is ~1e-13,
    far under the grain)."""
    from bb_ocr_ray.stages.graph import hits

    out = hits(_link_edges(sf_dir), iters=5).to_pandas()
    out["authority"] = _round_sql(out["authority"], 6)
    out["hub"] = _round_sql(out["hub"], 6)
    return out.sort_values("node").reset_index(drop=True)


QUERIES.update({"q_hits": q_hits})


# ---------------------------------------------------------------------------
# Inverted index build (term -> ordered posting list)
# ---------------------------------------------------------------------------
def q_posting_lists(sf_dir: str):
    """Build the df-banded inverted index over documents: one row per
    surviving term with its document frequency and the FULL ordered
    posting list (comma-joined doc ids — value-hash-checkable).  Terms
    keep ``df >= 5`` (typo/hapax floor) and ``df*5 <= 3*n_docs``
    (stopword ceiling, exact integer arithmetic — the 60% bar also
    BOUNDS every posting row, so no term can produce a corpus-sized
    output row; real indexers shard hotter terms instead of inlining
    them).

    Terms are unigrams AND adjacent bigrams (``a_b``): the synthetic
    corpus's 31-token unigram vocabulary is all stopword-frequency
    (the ceiling cuts every one — proving it fires), while the ~900
    bigrams spread across the band and the hapax floor.

    Scale shape: per-doc DISTINCT terms explode in-task (a doc never
    splits across batches), ONE coarse fold on the term
    (``sizing.fold_buckets``: on the driver when the (term, doc_id)
    pairs fit, else one shuffle), and each bucket folds its terms with
    a sort + boundary scan.  n_docs is a parquet-metadata count."""
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
            if df >= 5 and df * 5 <= 3 * n_docs:
                terms.append(t[s])
                dfs.append(df)
                posts.append(",".join(map(str, d[s:e])))
        return pd.DataFrame({"term": pd.array(terms, dtype="object"),
                             "df": pd.array(dfs, dtype="int64"),
                             "postings": pd.array(posts, dtype="object")})

    out = sizing.fold_buckets(docs, explode, "__coarse", fold).to_pandas()
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
# Hashing-trick vectorizer (fixed-width sparse features, doc-local)
# ---------------------------------------------------------------------------
def q_feature_hash(sf_dir: str):
    """Feature-hashing vectorizer (the 'hashing trick': Weinberger et
    al., ICML'09 — public method) over a deterministic doc sample:
    token OCCURRENCE counts folded into a fixed 256-bucket space via
    stable_u64(token) % 256 (md5_number_upper in the oracle), the
    vocabulary-free featurizer that feeds linear quality classifiers at
    corpus scale.  Entirely doc-local — each row's features are
    computed inside its own map task with a per-batch distinct-token
    memo, ZERO shuffles; output bounded by |sample| × 256.  The
    probe gate (doc_id % 41) bounds the demo output; production drops
    the gate and writes per-shard parquet."""
    from collections import Counter

    from bb_ocr_ray.functions.hashing import stable_u64, ws_tokens

    ds = _read_parquet(_t(sf_dir, "documents"),
                       columns=["doc_id", "text"])

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["doc_id"] % 41 == 0]
        memo: dict = {}
        ids, buckets, counts = [], [], []
        for did, tx in zip(b["doc_id"], b["text"]):
            acc: Counter = Counter()
            for tok, c in Counter(ws_tokens(tx or "")).items():
                bk = memo.get(tok)
                if bk is None:
                    bk = memo[tok] = stable_u64(tok) % 256
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

    out = grouped_per_key(parts, "query_id", reduce_best).to_pandas()
    return out.sort_values("query_id").reset_index(drop=True)


QUERIES.update({
    "q_fim_split": q_fim_split,
    "q_hard_negatives": q_hard_negatives,
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


QUERIES.update({
    "q_wand_bounds": q_wand_bounds,
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
