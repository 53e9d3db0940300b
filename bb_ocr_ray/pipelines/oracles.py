"""DuckDB oracle SQL for every SQL-expressible query in the registry.

Column names and value semantics are mirrored EXACTLY against
``bb_ocr_ray.pipelines.queries`` (the driver sorts columns by name and
hashes values).  Conventions:
  - float aggregates rounded to the same decimals as the Ray side;
  - ratios emitted as integer (numerator, denominator) pairs;
  - whitespace collapse uses the ASCII class ``[ \\t\\n\\r\\f\\v]+`` —
    the same class the kernel's ``collapse_ws`` compiles;
  - the q_extract_pages / q_domain_stats oracles invert the pages
    template from ``bb_ocr_ray.sources.pages`` (url layout, megadoc
    K=8 repeat with '\\n\\n' separators) — keep in sync with it.

Queries with NO entry here (q_ivf_topk, q_binary_features) are
approximate-by-construction or have no SQL-expressible kernel; the
driver records a rows-only check and unit tests cover their semantics
on fixtures.  Everything else — including the sketch family
(minhash LSH, simhash, near-dup dedup) and the heuristics (langid,
fingerprint) — is oracled with SQL GENERATED at import time from the
engine's own constants (see the bottom of this file), so the two
sides cannot drift.
"""

# Shared SQL fragments (template inversion — see sources/pages.py)
_URL = (
    "'https://' || CASE WHEN doc_id % 10 < 3 THEN 'hot.example.com' "
    "ELSE 'site' || CAST(doc_id % 10 AS VARCHAR) || '.example.com' END "
    "|| '/doc-' || CAST(doc_id AS VARCHAR)"
)
_DOMAIN = (
    "CASE WHEN doc_id % 10 < 3 THEN 'hot.example.com' "
    "ELSE 'site' || CAST(doc_id % 10 AS VARCHAR) || '.example.com' END"
)
_NORM = r"trim(regexp_replace(coalesce(text, ''), '[ \t\n\r\f\v]+', ' ', 'g'))"
_NTOK = ("(length(coalesce(text, '')) - "
         "length(replace(coalesce(text, ''), ' ', '')) + 1)")

ORACLES = {
    "q1_pricing_summary": """
        -- Integer-cent exact money sums (mirror of the engine's int64
        -- fold; a float sum's rounding stopped matching at sf0.1)
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 2)        AS sum_qty,
               round(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT))
                     / 100.0, 2)                AS sum_base_price,
               round(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100.0) AS BIGINT)))
                     / 10000.0, 2)              AS sum_disc_price,
               count(*)                         AS count_order,
               round(sum(l_quantity) / count(*), 4) AS avg_qty
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1998-09-02'
        GROUP BY 1, 2
    """,
    "q_filter_project": """
        SELECT o_orderkey, o_totalprice, o_orderpriority
        FROM orders WHERE o_totalprice > 400000.0
    """,
    "q_topk_per_group": """
        SELECT o_orderkey, o_totalprice, o_orderpriority, rank FROM (
            SELECT o_orderkey, o_totalprice, o_orderpriority,
                   row_number() OVER (PARTITION BY o_orderpriority
                                      ORDER BY o_totalprice DESC, o_orderkey) AS rank
            FROM orders) WHERE rank <= 3
    """,
    "q_distinct": """
        SELECT DISTINCT c_mktsegment, c_nationkey FROM customer
    """,
    "q_count_distinct": """
        SELECT c_mktsegment,
               count(DISTINCT c_nationkey) AS n_nations,
               count(*) AS n_customers
        FROM customer GROUP BY 1
    """,
    "q_hash_join": """
        SELECT o_orderstatus,
               round(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100.0) AS BIGINT)))
                     / 10000.0, 2) AS revenue,
               count(*) AS n_lineitems
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY 1
    """,
    "q_broadcast_join_nation": """
        SELECT r_name, count(*) AS n_customers,
               round(sum(CAST(round(c_acctbal * 100.0) AS BIGINT)) / 100.0, 2) AS total_acctbal
        FROM customer
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        GROUP BY 1
    """,
    "q5_revenue_by_nation": """
        SELECT n_name,
               round(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100.0) AS BIGINT)))
                     / 10000.0, 2) AS revenue,
               count(*) AS n_lineitems
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN orders   ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey AND c_nationkey = s_nationkey
        JOIN nation   ON s_nationkey = n_nationkey
        GROUP BY 1
    """,
    "q_anti_join": """
        SELECT c_custkey, c_name FROM customer c
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_totalprice > 300000.0)
    """,
    "q_semi_join": """
        SELECT s_suppkey, s_name FROM supplier
        WHERE s_suppkey IN (SELECT l_suppkey FROM lineitem)
    """,
    "q_union": """
        SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 450000.0
        UNION ALL
        SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice < 1000.0
    """,
    "q_events_hourly": """
        SELECT event_type,
               CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_epoch,
               count(*) AS n_events,
               coalesce(round(sum(value), 4), 0.0) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "q_sessionize": """
        WITH g AS (
            SELECT user_id,
                   epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) AS gap
            FROM events WHERE user_id IS NOT NULL)
        SELECT user_id,
               count(*) AS n_events,
               count(CASE WHEN gap > 1800 THEN 1 END) + 1 AS n_sessions
        FROM g GROUP BY user_id
    """,
    "q_json_extract": r"""
        WITH x AS (
            SELECT event_type,
                   TRY_CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1) AS BIGINT) AS k
            FROM events)
        SELECT event_type,
               CAST(sum(coalesce(k, 0)) AS BIGINT) AS sum_k,
               count(k) AS n_parsed,
               count(*) AS n_rows
        FROM x GROUP BY 1
    """,
    "q_doc_stats": f"""
        SELECT lang, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars,
               CAST(sum({_NTOK}) AS BIGINT) AS sum_tokens,
               max(n_chars) AS max_chars, min(n_chars) AS min_chars
        FROM documents GROUP BY 1
    """,
    "q_doc_quality": f"""
        SELECT source, count(*) AS n_docs,
               CAST(sum({_NTOK}) AS BIGINT) AS sum_tokens,
               CAST(sum(len(list_filter(string_split(coalesce(text, ''), ' '),
                   x -> x IN ('the','a','and','of','to','in','is')))) AS BIGINT) AS sum_stop_tokens,
               CAST(sum(length(regexp_replace(coalesce(text, ''), '[\\w\\s]', '', 'g'))) AS BIGINT) AS sum_punct
        FROM documents GROUP BY 1
    """,
    "q_dedup_exact": """
        SELECT md5(coalesce(text, '')) AS content_md5,
               min(doc_id) AS keep_doc_id,
               count(*) AS n_copies
        FROM documents GROUP BY 1
    """,
    "q_jaccard_pairs": """
        WITH s AS (SELECT doc_id, list_distinct(string_split(coalesce(text, ''), ' ')) AS toks
                   FROM documents)
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               len(list_intersect(a.toks, b.toks)) AS inter,
               len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)) AS uni
        FROM s a JOIN s b ON a.doc_id < b.doc_id
        WHERE 2 * len(list_intersect(a.toks, b.toks))
              >= len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks))
          AND len(a.toks) + len(b.toks) - len(list_intersect(a.toks, b.toks)) > 0
    """,
    "q_ann_topk": """
        WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                   FROM embeddings WHERE vec_id < 10),
             pairs AS (
                SELECT q.query_id, e.vec_id AS neighbor_id,
                       list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS score
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id <> q.query_id),
             ranked AS (
                SELECT query_id, neighbor_id,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY score DESC, neighbor_id) AS rank
                FROM pairs)
        SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= 5
    """,
    # IVF-with-exact-refinement: output provably equals brute force
    # (triangle-inequality pruning, stages/ann.ivf_topk_exact), so the
    # oracle is the same cross-join SQL over this query's id range
    "q_ivf_topk": """
        WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                   FROM embeddings WHERE vec_id >= 10 AND vec_id < 20),
             pairs AS (
                SELECT q.query_id, e.vec_id AS neighbor_id,
                       list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS score
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id <> q.query_id),
             ranked AS (
                SELECT query_id, neighbor_id,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY score DESC, neighbor_id) AS rank
                FROM pairs)
        SELECT query_id, rank, neighbor_id FROM ranked WHERE rank <= 5
    """,
    # planted-twin probe: brute-force cosine between the 25 planted
    # twins (vec_id + 1e6, every coordinate + 0.01) and everything —
    # the Ray side restricts its LSH output to twin-involving pairs,
    # so both sides enumerate the same O(|twins| x n) pair space
    "q_embedding_near_dups": """
        WITH base AS (
            SELECT CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(embedding AS DOUBLE[]) AS v
            FROM embeddings),
        twins AS (
            SELECT vec_id + 1000000 AS vec_id,
                   list_transform(v, x -> x + 0.01) AS v
            FROM base WHERE vec_id < 25),
        allv AS (SELECT * FROM base UNION ALL SELECT * FROM twins)
        SELECT DISTINCT least(t.vec_id, a.vec_id) AS id_a,
               greatest(t.vec_id, a.vec_id) AS id_b
        FROM twins t JOIN allv a ON a.vec_id <> t.vec_id
        WHERE list_cosine_similarity(t.v, a.v) >= 0.9
    """,
    "q_extract_pages": f"""
        WITH d AS (SELECT doc_id, {_NORM} AS norm FROM documents)
        SELECT {_URL} AS url,
               CASE WHEN length(norm) < 10 THEN ''
                    WHEN doc_id % 101 = 0
                    THEN norm || repeat(chr(10) || chr(10) || norm, 7)
                    ELSE norm END AS text,
               CASE WHEN length(norm) < 10 THEN 'empty' ELSE 'ok' END AS status,
               CAST(CASE WHEN length(norm) < 10 THEN 0
                         WHEN doc_id % 101 = 0 THEN 8
                         ELSE 1 END AS INTEGER) AS n_blocks_kept
        FROM d
    """,
    "q_domain_stats": f"""
        WITH d AS (SELECT doc_id, {_DOMAIN} AS domain,
                          length({_NORM}) AS L,
                          CASE WHEN doc_id % 101 = 0 THEN 8 ELSE 1 END AS K
                   FROM documents)
        SELECT domain, count(*) AS n_docs,
               CAST(sum(CASE WHEN L < 10 THEN 0
                             ELSE K * L + 2 * (K - 1) END) AS BIGINT)
                   AS extracted_chars,
               CAST(sum(CASE WHEN L < 10 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_errors
        FROM d GROUP BY 1
    """,
    "q_dedup_pages": f"""
        SELECT {_URL} AS url, lang FROM documents
    """,
}

ORACLES.update({
    "q_global_topk": """
        SELECT o_orderkey, o_totalprice, rank FROM (
            SELECT o_orderkey, o_totalprice,
                   row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rank
            FROM orders) WHERE rank <= 20
    """,
    "q_offer_ranking": """
        WITH scored AS (
            SELECT p_brand, p_partkey, p_retailprice,
                   3.0 * (CASE WHEN p_type LIKE '%BRASS%' THEN 1 ELSE 0 END)
                 + 1.5 * (CASE WHEN p_type LIKE 'ECONOMY%' THEN 1 ELSE 0 END)
                 + 1.0 * (CASE WHEN p_size BETWEEN 10 AND 20 THEN 1 ELSE 0 END)
                   AS score
            FROM part),
             ranked AS (
            SELECT p_brand, p_partkey, score, p_retailprice,
                   row_number() OVER (PARTITION BY p_brand
                                      ORDER BY score DESC, p_retailprice, p_partkey)
                   AS rank
            FROM scored)
        SELECT p_brand, p_partkey, score, p_retailprice, rank
        FROM ranked WHERE rank <= 2
    """,
    "q_keyword_genre": """
        WITH scored AS (
            SELECT doc_id,
                   len(list_filter(string_split(coalesce(text, ''), ' '),
                       x -> x IN ('data','table','column','row')))   AS s_data,
                   len(list_filter(string_split(coalesce(text, ''), ' '),
                       x -> x IN ('query','filter','join','sort')))  AS s_query,
                   len(list_filter(string_split(coalesce(text, ''), ' '),
                       x -> x IN ('stream','window','batch','event'))) AS s_stream
            FROM documents),
             labeled AS (
            SELECT CASE
                     WHEN s_data = 0 AND s_query = 0 AND s_stream = 0 THEN 'none'
                     WHEN s_data >= s_query AND s_data >= s_stream THEN 'data'
                     WHEN s_query >= s_stream THEN 'query'
                     ELSE 'stream' END AS genre
            FROM scored)
        SELECT genre, count(*) AS n_docs FROM labeled GROUP BY 1
    """,
    "q_asof_join": """
        SELECT e.event_id,
               coalesce(CAST(floor(epoch(max(c.ts))) AS BIGINT), -1) AS last_click_epoch
        FROM events e
        LEFT JOIN events c
          ON c.user_id = e.user_id AND c.event_type = 'click' AND c.ts <= e.ts
        WHERE e.event_type = 'error'
        GROUP BY e.event_id
    """,
    "q_events_sliding": """
        WITH hourly AS (
            SELECT event_type,
                   CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_epoch,
                   count(*) AS n
            FROM events GROUP BY 1, 2)
        SELECT a.event_type, a.hour_epoch,
               CAST(sum(b.n) AS BIGINT) AS n_events_6h
        FROM hourly a JOIN hourly b
          ON a.event_type = b.event_type
         AND b.hour_epoch > a.hour_epoch - 6 * 3600
         AND b.hour_epoch <= a.hour_epoch
        GROUP BY 1, 2
    """,
})

ORACLES.update({
    "q6_revenue_delta": """
        SELECT coalesce(round(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)
                              * CAST(round(l_discount * 100.0) AS BIGINT))
                          / 10000.0, 2), 0.0)
                   AS revenue,
               count(*) AS n_rows
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1995-01-01'
          AND l_shipdate <  TIMESTAMP '1997-01-01'
          AND l_discount BETWEEN 0.03 AND 0.07
          AND l_quantity < 25
    """,
    "q_running_total": """
        WITH c AS (SELECT o_custkey FROM orders GROUP BY 1 HAVING count(*) >= 8)
        SELECT o_custkey, o_orderkey,
               round(sum(o_totalprice) OVER (
                   PARTITION BY o_custkey
                   ORDER BY o_orderdate, o_orderkey
                   ROWS UNBOUNDED PRECEDING), 2) AS running_total
        FROM orders WHERE o_custkey IN (SELECT o_custkey FROM c)
    """,
})

ORACLES.update({
    "q_reading_order": """
        SELECT l_orderkey AS page, l_linenumber AS item_id,
               row_number() OVER (
                   PARTITION BY l_orderkey
                   ORDER BY (l_linenumber * 40) // 40,
                            (l_partkey % 7) * 140,
                            l_linenumber * 40,
                            l_linenumber) AS reading_rank
        FROM lineitem
    """,
})

ORACLES.update({
    "q_hash_sample": """
        SELECT doc_id FROM documents
        WHERE CAST('0x' || substr(md5(coalesce(text, '')), 1, 2) AS INTEGER) < 64
    """,
    "q_value_histogram": """
        SELECT event_type,
               CAST(least(greatest(CAST(floor((value - 0.0) / (100.0 - 0.0)
                    * 20) AS INTEGER), 0), 19) AS BIGINT) AS bin,
               count(*) AS n
        FROM events WHERE value IS NOT NULL GROUP BY 1, 2
    """,
    "q_rollup": """
        SELECT o_orderstatus, o_orderpriority,
               count(*) AS n_orders,
               round(sum(CAST(round(o_totalprice * 100.0) AS BIGINT)) / 100.0, 2) AS revenue
        FROM orders
        GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
    """,
})

ORACLES.update({
    "q_median": """
        SELECT event_type, quantile_disc(value, 0.5) AS median_value
        FROM events GROUP BY 1
    """,
    "q_knn_label": """
        WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                   FROM embeddings WHERE vec_id < 20),
             ranked AS (
                SELECT q.query_id, e.label,
                       row_number() OVER (PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qv,
                                    CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id) AS rank
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id <> q.query_id),
             votes AS (
                SELECT query_id, label, count(*) AS n
                FROM ranked WHERE rank <= 5 GROUP BY 1, 2),
             best AS (
                SELECT query_id, label AS pred_label,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY n DESC, label) AS r
                FROM votes)
        SELECT query_id, CAST(pred_label AS BIGINT) AS pred_label
        FROM best WHERE r = 1
    """,
})

ORACLES.update({
    "q_provider_fanout": """
        WITH exact AS (
            SELECT s_suppkey AS record_key, p_partkey AS listing_id,
                   p_retailprice AS amount, 'exact' AS provider
            FROM supplier JOIN part ON p_partkey = s_suppkey * 4),
             size_scan AS (
            SELECT s_suppkey AS record_key, p_partkey AS listing_id,
                   p_retailprice AS amount, 'size_scan' AS provider
            FROM supplier JOIN part ON p_size = s_suppkey % 50
            WHERE p_partkey % 25 = 0),
             merged AS (SELECT * FROM exact UNION ALL SELECT * FROM size_scan),
             deduped AS (
            SELECT record_key, listing_id, amount,
                   row_number() OVER (PARTITION BY record_key, provider,
                                      listing_id ORDER BY provider) AS rn
            FROM merged)
        SELECT CAST(record_key AS BIGINT) AS record_key,
               count(*) AS n_offers,
               min(amount) AS best_amount
        FROM deduped WHERE rn = 1 GROUP BY 1
    """,
})


# ---------------------------------------------------------------------------
# q_langid / q_fingerprint oracles — generated from the SAME constants
# the engine uses (bb_ocr_ray.functions.{textstats,hashing}) so the two
# sides cannot drift.  Every detect_lang step is SQL-mirrorable by
# construction: codepoint slice (substr), float CJK-share compare,
# ASCII-only lowering (translate), non-overlapping substring counts
# (length-difference // pattern length), earliest-wins argmax (CASE
# chain in _LANG_ORDER order).
# ---------------------------------------------------------------------------
def _langid_oracle_sql() -> str:
    """Every detect_lang step mirrored in SQL generated from the
    engine's own profile tables, then per-lang agreement counts."""
    from bb_ocr_ray.functions.textstats import _LANG_ORDER, _LANG_PROFILES

    def score_expr(lang: str) -> str:
        terms = [
            f"(length(low) - length(replace(low, '{tri}', ''))) // {len(tri)}"
            for tri in _LANG_PROFILES[lang]
        ]
        return "(" + " + ".join(terms) + ")"

    scores = ",\n               ".join(
        f"{score_expr(lang)} AS s_{lang}" for lang in _LANG_ORDER)
    branches = []
    for i, lang in enumerate(_LANG_ORDER):
        conds = [f"s_{lang} > 0"] + [
            f"s_{lang} >= s_{other}" for other in _LANG_ORDER if other != lang
        ]
        branches.append(f"WHEN {' AND '.join(conds)} THEN '{lang}'")
    case = "\n                    ".join(branches)
    return f"""
        WITH s AS (
            SELECT lang,
                   substr(coalesce(text, ''), 1, 2000) AS samp,
                   translate(substr(coalesce(text, ''), 1, 2000),
                             'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                             'abcdefghijklmnopqrstuvwxyz') AS low
            FROM documents),
        sc AS (
            SELECT lang, samp,
               {scores},
               len(regexp_extract_all(samp, '[\\x{{4E00}}-\\x{{9FFF}}]')) AS cjk
            FROM s),
        pred AS (
            SELECT lang,
               CASE WHEN CAST(cjk AS DOUBLE) / greatest(1, length(samp)) > 0.2
                    THEN 'zh'
                    {case}
                    ELSE 'und' END AS lang_pred
            FROM sc)
        SELECT lang,
               CAST(sum(CASE WHEN lang = lang_pred THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_agree,
               count(*) AS n_docs
        FROM pred GROUP BY 1
    """


def _fingerprint_oracle_sql() -> str:
    from bb_ocr_ray.functions.hashing import MERSENNE

    return f"""
        SELECT doc_id,
               CASE WHEN length(coalesce(text, '')) = 0 THEN 0
                    ELSE CAST(list_reduce(
                        list_prepend(CAST(0 AS HUGEINT), list_transform(
                            generate_series(1, length(coalesce(text, ''))),
                            i -> CAST(ord(substr(coalesce(text, ''), i, 1))
                                      AS HUGEINT))),
                        (acc, x) -> (acc * 257 + x) % {MERSENNE}
                    ) AS BIGINT) END AS fingerprint,
               md5(coalesce(text, '')) AS content_md5
        FROM documents
    """


ORACLES["q_sessionize_stream"] = ORACLES["q_sessionize"]

ORACLES.update({
    "q_langid": _langid_oracle_sql(),
    "q_fingerprint": _fingerprint_oracle_sql(),
})


# ---------------------------------------------------------------------------
# Sketch-family oracles (minhash LSH candidates, simhash near-dups, the
# full near-dup dedup pipeline) — generated from the engine's own seeded
# permutation constants.  Every arithmetic step is mirrored exactly:
#   - shingle hash = md5_number_upper == int.from_bytes(md5[:8],'little')
#     (bit-identical to functions.hashing.stable_u64, verified);
#   - the numpy uint64 WRAP in (x*a + b) % p is emulated in HUGEINT as
#     ((x*a) % 2^64 + b) % 2^64 % p;
#   - tokenization is the shared ASCII class [ \t\n\r\f\v]+ (ws_tokens);
#   - bucket cap 64 + consecutive-chain tail mirrored with row_number;
#   - the engine's md5-digest band surrogate is replaced by direct
#     band-value equality (identical grouping, no digest collisions on
#     fixed data);
#   - connected components as a recursive transitive closure with
#     min-label (equivalent to the engine's alternating-star result).
# ---------------------------------------------------------------------------
def _minhash_cte() -> str:
    from bb_ocr_ray.functions.hashing import _N_PERM, _PERM_A, _PERM_B

    perm_rows = ",".join(
        f"({p},{int(_PERM_A[p])},{int(_PERM_B[p])})" for p in range(_N_PERM))
    return f"""toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''),
                     '[ \t\n\r\f\v]+'), x -> x <> '') AS tk
  FROM documents),
sh AS (
  SELECT doc_id,
     CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
          WHEN len(tk) < 3 THEN [array_to_string(tk, ' ')]
          ELSE list_distinct(list_transform(generate_series(1, len(tk) - 2),
                 i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2]))
     END AS shs
  FROM toks),
hx AS (SELECT doc_id, md5_number_upper(unnest(shs)) AS x FROM sh),
perms(p, a, b) AS (VALUES {perm_rows}),
vals AS (
  SELECT doc_id, p,
         CAST(((CAST(x AS HUGEINT) * a) % 18446744073709551616 + b)
              % 18446744073709551616 % 2305843009213693951 AS UBIGINT) AS v
  FROM hx CROSS JOIN perms),
sig AS (SELECT doc_id, p, min(v) AS v FROM vals GROUP BY 1, 2),
sig2 AS (SELECT * FROM sig
         UNION ALL
         SELECT s.doc_id, r.range AS p,
                CAST(18446744073709551615 AS UBIGINT) AS v
         FROM sh s CROSS JOIN range(0, {_N_PERM}) r WHERE len(s.shs) = 0),
bands AS (
  SELECT doc_id, p // 4 AS band_id, list(v ORDER BY p) AS bv
  FROM sig2 GROUP BY 1, 2),
grp AS (
  SELECT band_id, bv, doc_id,
         row_number() OVER (PARTITION BY band_id, bv ORDER BY doc_id) AS rn
  FROM bands),
mh_pairs AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM grp a JOIN grp b
    ON a.band_id = b.band_id AND a.bv = b.bv AND a.rn < b.rn
  WHERE b.rn <= 64 OR b.rn = a.rn + 1)"""


_SIMHASH_SQL = """
WITH toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(coalesce(text, ''),
                     '[ \t\n\r\f\v]+'), x -> x <> '') AS tk
  FROM documents),
sh2 AS (
  SELECT doc_id,
     CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
          WHEN len(tk) < 2 THEN [array_to_string(tk, ' ')]
          ELSE list_distinct(list_transform(generate_series(1, len(tk) - 1),
                 i -> tk[i] || ' ' || tk[i+1]))
     END AS shs
  FROM toks),
hx2 AS (SELECT doc_id, md5_number_upper(unnest(shs)) AS x FROM sh2),
bits AS (
  SELECT doc_id, r.range AS bit,
         sum(CASE WHEN (x >> r.range) & 1 = 1 THEN 1 ELSE 0 END) AS cnt,
         count(*) AS n
  FROM hx2 CROSS JOIN range(0, 64) r GROUP BY 1, 2),
shv0 AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN cnt * 2 > n
                       THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT)
                       ELSE 0 END) AS UBIGINT) AS sh
  FROM bits GROUP BY 1),
shv AS (SELECT * FROM shv0
        UNION ALL
        SELECT doc_id, CAST(0 AS UBIGINT) FROM sh2 WHERE len(shs) = 0),
ex AS (
  SELECT doc_id, sh, t.range AS table_id,
         CAST((sh >> (16 * t.range)) & 65535 AS BIGINT) AS band
  FROM shv CROSS JOIN range(0, 4) t),
grp AS (
  SELECT table_id, band, doc_id, sh,
         row_number() OVER (PARTITION BY table_id, band ORDER BY doc_id) AS rn
  FROM ex),
cand AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         bit_count(xor(a.sh, b.sh)) AS hamming
  FROM grp a JOIN grp b
    ON a.table_id = b.table_id AND a.band = b.band AND a.rn < b.rn
  WHERE b.rn <= 64 OR b.rn = a.rn + 1)
SELECT id_a, id_b, CAST(min(hamming) AS BIGINT) AS hamming
FROM cand WHERE hamming <= 3 GROUP BY 1, 2
"""


def _near_dup_dedup_sql() -> str:
    return f"""
WITH RECURSIVE {_minhash_cte()},
tsets AS (SELECT doc_id, list_distinct(string_split(coalesce(text, ''), ' ')) AS ts
          FROM documents),
vp AS (
  SELECT p.id_a, p.id_b
  FROM mh_pairs p
  JOIN tsets ta ON ta.doc_id = p.id_a
  JOIN tsets tb ON tb.doc_id = p.id_b
  WHERE len(ta.ts) + len(tb.ts) - len(list_intersect(ta.ts, tb.ts)) > 0
    AND 2 * len(list_intersect(ta.ts, tb.ts))
        >= len(ta.ts) + len(tb.ts) - len(list_intersect(ta.ts, tb.ts))),
sym AS (SELECT id_a AS a, id_b AS b FROM vp
        UNION SELECT id_b, id_a FROM vp),
reach(a, b) AS (
  SELECT a, b FROM sym
  UNION
  SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a),
comp AS (
  SELECT a AS node, least(min(b), a) AS component FROM reach GROUP BY a)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT node FROM comp WHERE component < node)
"""


ORACLES.update({
    "q_minhash_candidates":
        f"WITH {_minhash_cte()} SELECT id_a, id_b FROM mh_pairs",
    "q_simhash_near_dups": _SIMHASH_SQL,
    "q_near_dup_dedup": _near_dup_dedup_sql(),
})


def _registrable_domain_sql() -> str:
    from bb_ocr_ray.functions.scalars import PSL_2LEVEL

    psl = ", ".join(f"'{s}'" for s in PSL_2LEVEL)
    return f"""
        WITH h AS (
            SELECT CASE doc_id % 5
                WHEN 0 THEN 'shop.site' || CAST(doc_id % 7 AS VARCHAR) || '.co.uk'
                WHEN 1 THEN 'news.site' || CAST(doc_id % 7 AS VARCHAR) || '.com.au'
                WHEN 2 THEN 'a.b.site' || CAST(doc_id % 7 AS VARCHAR) || '.com'
                WHEN 3 THEN 'site' || CAST(doc_id % 7 AS VARCHAR) || '.org'
                ELSE 'cdn.site' || CAST(doc_id % 7 AS VARCHAR) || '.co.jp'
            END AS host
            FROM documents),
        p AS (SELECT host, string_split(host, '.') AS parts FROM h),
        r AS (SELECT CASE
                WHEN len(parts) <= 2 THEN host
                WHEN parts[-2] || '.' || parts[-1] IN ({psl})
                    THEN parts[-3] || '.' || parts[-2] || '.' || parts[-1]
                ELSE parts[-2] || '.' || parts[-1]
              END AS domain
              FROM p)
        SELECT domain, count(*) AS n_docs FROM r GROUP BY 1
    """


ORACLES["q_registrable_domain"] = _registrable_domain_sql()


ORACLES.update({
    # md5-prefix stratified sampling: identical predicate per stratum
    "q_stratified_sample": """
        SELECT doc_id, lang FROM documents
        WHERE CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 2)
                   AS INTEGER)
              < CASE lang WHEN 'en' THEN 128 WHEN 'de' THEN 64 ELSE 32 END
    """,
    # bit_length(n) == floor(log2(n)) + 1 for n >= 1; n_tokens >= 1 by
    # the shared length-difference token formula
    "q_token_histogram": f"""
        WITH t AS (SELECT lang, {_NTOK} AS n FROM documents)
        SELECT lang,
               CAST(CASE WHEN n = 0 THEN 0
                         ELSE CAST(floor(log2(n)) AS BIGINT) + 1 END
                    AS BIGINT) AS bin,
               count(*) AS n_docs
        FROM t GROUP BY 1, 2
    """,
})


ORACLES["q_frame_sample"] = """
    WITH p AS (SELECT doc_id, hex(encode(coalesce(text, ''))) AS h
               FROM documents),
    f AS (SELECT doc_id AS item_id, h,
                 unnest(generate_series(0, length(h) // 512 - 1))
                     AS frame_idx
          FROM p)
    SELECT item_id, frame_idx,
           substr(h, 1 + CAST(frame_idx AS INTEGER) * 512, 512) AS frame_hex
    FROM f WHERE frame_idx % 4 = 0
"""


ORACLES["q_band_join"] = """
    SELECT a.event_id AS view_id, b.event_id AS purchase_id
    FROM events a JOIN events b
      ON a.event_type = 'view' AND b.event_type = 'purchase'
     AND abs(epoch_us(a.ts) - epoch_us(b.ts)) <= 30000000
"""


# Tokenization fragment shared with the sketch oracles: the engine's
# ws_tokens (ASCII whitespace class, empties dropped).  The \t\n\r\f\v
# below are REAL characters in the SQL string — RE2 char class.
_TOKS = ("list_filter(regexp_split_to_array(coalesce(text, ''), "
         "'[ \t\n\r\f\v]+'), x -> x <> '')")

ORACLES["q_repetition"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks),
    cnt AS (SELECT doc_id, tok, count(*) AS c FROM pc GROUP BY 1, 2),
    agg AS (SELECT doc_id,
                   CAST(sum(c) AS BIGINT) AS n_tokens,
                   count(*) AS n_distinct,
                   max(c) AS max_tok_count
            FROM cnt GROUP BY 1)
    SELECT t.doc_id,
           coalesce(a.n_tokens, 0) AS n_tokens,
           coalesce(a.n_distinct, 0) AS n_distinct,
           coalesce(a.max_tok_count, 0) AS max_tok_count
    FROM toks t LEFT JOIN agg a USING (doc_id)
"""

ORACLES["q_dup_spans"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    wins AS (SELECT doc_id,
                    CASE WHEN len(tk) < 8 THEN CAST([] AS VARCHAR[])
                         ELSE list_transform(generate_series(1, len(tk) - 7),
                                  i -> array_to_string(tk[i:i+7], ' '))
                    END AS ws
             FROM toks),
    occ AS (SELECT doc_id, unnest(ws) AS w FROM wins),
    tot AS (SELECT w, count(*) AS total FROM occ GROUP BY 1)
    SELECT o.doc_id,
           count(*) AS n_windows,
           CAST(sum(CASE WHEN t.total >= 2 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_dup_windows
    FROM occ o JOIN tot t USING (w)
    GROUP BY 1
"""


ORACLES["q_decontaminate"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    sh AS (SELECT doc_id,
                  CASE WHEN len(tk) < 8 THEN CAST([] AS VARCHAR[])
                       ELSE list_transform(generate_series(1, len(tk) - 7),
                                i -> array_to_string(tk[i:i+7], ' '))
                  END AS shs
           FROM toks),
    ev AS (SELECT DISTINCT unnest(shs) AS s FROM sh WHERE doc_id % 50 = 0),
    cand AS (SELECT doc_id, unnest(shs) AS s FROM sh WHERE doc_id % 50 <> 0)
    SELECT c.doc_id, count(DISTINCT c.s) AS n_hit_shingles
    FROM cand c JOIN ev e USING (s) GROUP BY 1
"""


ORACLES["q_hll_registers"] = """
    WITH h AS (SELECT md5_number_upper(CAST(user_id AS VARCHAR)) AS hv
               FROM events WHERE user_id IS NOT NULL),
    b AS (SELECT CAST(hv & 63 AS BIGINT) AS bucket, hv >> 6 AS suffix
          FROM h),
    r AS (SELECT bucket,
                 CASE WHEN suffix = 0 THEN 59
                      ELSE least(59, 1 + bit_count(
                               xor(suffix, suffix - 1) >> 1)) END AS rho
          FROM b)
    SELECT bucket, CAST(max(rho) AS BIGINT) AS max_rho FROM r GROUP BY 1
"""


ORACLES["q_training_prep"] = f"""
    WITH toks AS (SELECT doc_id, source, {_TOKS} AS tk,
                         coalesce(text, '') AS txt
                  FROM documents),
    qual AS (SELECT * FROM toks
             WHERE len(tk) >= 10 AND doc_id % 50 <> 0),
    keep AS (SELECT min(doc_id) AS doc_id FROM qual GROUP BY md5(txt)),
    surv AS (SELECT q.* FROM qual q JOIN keep k USING (doc_id)),
    esh AS (SELECT DISTINCT unnest(
                CASE WHEN len(tk) < 8 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(generate_series(1, len(tk) - 7),
                              i -> array_to_string(tk[i:i+7], ' '))
                END) AS s
            FROM toks WHERE doc_id % 50 = 0),
    ssh AS (SELECT doc_id, unnest(
                CASE WHEN len(tk) < 8 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(generate_series(1, len(tk) - 7),
                              i -> array_to_string(tk[i:i+7], ' '))
                END) AS s
            FROM surv),
    contaminated AS (SELECT DISTINCT doc_id FROM ssh JOIN esh USING (s)),
    clean AS (SELECT * FROM surv
              WHERE doc_id NOT IN (SELECT doc_id FROM contaminated))
    SELECT source,
           count(*) AS n_docs,
           CAST(sum((len(tk) - 1) // 24 + 1) AS BIGINT) AS n_chunks,
           CAST(sum(len(tk)) AS BIGINT) AS n_tokens
    FROM clean GROUP BY 1
"""


ORACLES["q_inverted_index"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    dt AS (SELECT DISTINCT doc_id, unnest(tk) AS tok FROM toks),
    top AS (SELECT tok, count(*) AS df FROM dt
            GROUP BY 1 ORDER BY df DESC, tok LIMIT 10)
    SELECT t.tok, t.df,
           string_agg(d.doc_id, '|' ORDER BY d.doc_id) AS postings
    FROM top t JOIN dt d USING (tok)
    GROUP BY 1, 2
"""


ORACLES["q_chunk_docs"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    starts AS (SELECT doc_id, tk,
                      unnest(generate_series(1, len(tk), 24)) AS s
               FROM toks WHERE len(tk) > 0)
    SELECT doc_id,
           CAST((s - 1) / 24 + 1 AS BIGINT) AS chunk_id,
           array_to_string(tk[s:s+31], ' ') AS chunk_text,
           CAST(least(32, len(tk) - s + 1) AS BIGINT) AS n_tok
    FROM starts
"""


# Paragraph-level exact dedup: first global (doc_id, idx) occurrence of
# each non-empty paragraph wins; docs keep surviving paragraphs joined
# in original order.  One row per doc with >= 1 non-empty paragraph.
ORACLES["q_paragraph_dedup"] = """
    WITH p AS (SELECT doc_id,
                      string_split(coalesce(text, ''),
                                   chr(10) || chr(10)) AS ps
               FROM documents),
    ex AS (SELECT doc_id, ps,
                  unnest(generate_series(1, len(ps))) AS i
           FROM p),
    occ AS (SELECT doc_id, i, ps[i] AS para FROM ex WHERE ps[i] <> ''),
    rk AS (SELECT doc_id, i, para,
                  row_number() OVER (PARTITION BY para
                                     ORDER BY doc_id, i) AS rn
           FROM occ),
    tot AS (SELECT doc_id, count(*) AS n_paras FROM occ GROUP BY 1),
    kept AS (SELECT doc_id, count(*) AS n_kept,
                    string_agg(para, chr(10) || chr(10) ORDER BY i)
                        AS new_text
             FROM rk WHERE rn = 1 GROUP BY doc_id)
    SELECT t.doc_id, t.n_paras,
           coalesce(k.n_kept, 0) AS n_kept,
           coalesce(k.new_text, '') AS new_text
    FROM tot t LEFT JOIN kept k USING (doc_id)
"""


# TF-IDF top-3 per doc: the rank key is the integer triple
# (tf DESC, df ASC, tok ASC); the float score is decoration (round 6).
ORACLES["q_tfidf"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks),
    tf AS (SELECT doc_id, tok, count(*) AS tf FROM pc GROUP BY 1, 2),
    df AS (SELECT tok, count(*) AS df FROM tf GROUP BY 1),
    n AS (SELECT count(*) AS n FROM documents),
    rk AS (SELECT t.doc_id, t.tok, t.tf, d.df,
                  row_number() OVER (PARTITION BY t.doc_id
                                     ORDER BY t.tf DESC, d.df ASC, t.tok)
                      AS rn
           FROM tf t JOIN df d USING (tok))
    SELECT doc_id, tok, tf, df,
           round(tf * ln((SELECT n FROM n) * 1.0 / df), 6) AS score
    FROM rk WHERE rn <= 3
"""


ORACLES["q_train_split"] = """
    WITH h AS (SELECT source, n_chars,
                      md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 AS b
               FROM documents),
    s AS (SELECT CASE WHEN b < 90 THEN 'train'
                      WHEN b < 95 THEN 'val'
                      ELSE 'test' END AS split,
                 source, n_chars
          FROM h)
    SELECT split, source, count(*) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS sum_chars
    FROM s GROUP BY 1, 2
"""


ORACLES["q_hll_grouped"] = """
    WITH h AS (SELECT event_type,
                      md5_number_upper(CAST(user_id AS VARCHAR)) AS hv
               FROM events WHERE user_id IS NOT NULL),
    b AS (SELECT event_type, CAST(hv & 63 AS BIGINT) AS bucket,
                 hv >> 6 AS suffix
          FROM h),
    r AS (SELECT event_type, bucket,
                 CASE WHEN suffix = 0 THEN 59
                      ELSE least(59, 1 + bit_count(
                               xor(suffix, suffix - 1) >> 1)) END AS rho
          FROM b)
    SELECT event_type, bucket, CAST(max(rho) AS BIGINT) AS max_rho
    FROM r GROUP BY 1, 2
"""


# Concat-and-split packing: per-source doc_id-ordered token cumsum,
# integer-exact; each doc spans seqs st//L .. (st+n-1)//L.
ORACLES["q_pack_sequences"] = f"""
    WITH toks AS (SELECT doc_id, coalesce(source, '') AS source,
                         CAST(len({_TOKS}) AS BIGINT) AS n
                  FROM documents),
    nz AS (SELECT * FROM toks WHERE n > 0),
    c AS (SELECT source, doc_id, n,
                 CAST(sum(n) OVER (PARTITION BY source ORDER BY doc_id
                                   ROWS UNBOUNDED PRECEDING) - n
                      AS BIGINT) AS st
          FROM nz),
    tot AS (SELECT source, CAST(sum(n) AS BIGINT) AS total
            FROM nz GROUP BY 1),
    spans AS (SELECT source,
                     unnest(generate_series(st // 64, (st + n - 1) // 64))
                         AS seq_id
              FROM c),
    g AS (SELECT source, CAST(seq_id AS BIGINT) AS seq_id,
                 count(*) AS n_docs
          FROM spans GROUP BY 1, 2)
    SELECT g.source, g.seq_id, g.n_docs,
           CAST(least(64, t.total - g.seq_id * 64) AS BIGINT) AS n_tok
    FROM g JOIN tot t ON g.source = t.source
"""


# Hash-rank quota: rank by (md5 hash, doc_id) inside each source,
# keep the first 50.  md5_number_upper == hashing.stable_u64.
ORACLES["q_domain_quota"] = """
    WITH h AS (SELECT coalesce(source, '') AS source, n_chars, doc_id,
                      md5_number_upper(CAST(doc_id AS VARCHAR)) AS hv
               FROM documents WHERE doc_id IS NOT NULL),
    r AS (SELECT *, row_number() OVER (PARTITION BY source
                                       ORDER BY hv, doc_id) AS rn
          FROM h)
    SELECT source, count(*) AS n_total,
           CAST(sum(CASE WHEN rn <= 50 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_kept,
           CAST(coalesce(sum(CASE WHEN rn <= 50 THEN n_chars END), 0)
                AS BIGINT) AS sum_chars_kept
    FROM r GROUP BY 1
"""


# C4 line filter: strip ' \t\r', require terminal [.!?"], >= 3 words
# ('[ \t\r\f\v]+' splitter, REAL chars below), no 'javascript' after
# an explicit A-Z -> a-z translate (never lower(): exotic case maps).
ORACLES["q_line_filter"] = """
    WITH lines AS (SELECT doc_id,
                          unnest(string_split(coalesce(text, ''),
                                              chr(10))) AS raw
                   FROM documents WHERE doc_id IS NOT NULL),
    s AS (SELECT doc_id, trim(raw, ' ' || chr(9) || chr(13)) AS line
          FROM lines),
    k AS (SELECT doc_id, line,
                 (line <> ''
                  AND regexp_matches(line, '[.!?"]$')
                  AND NOT contains(
                        translate(line, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                                  'abcdefghijklmnopqrstuvwxyz'),
                        'javascript')
                  AND len(list_filter(regexp_split_to_array(line,
                        '[ \t\r\f\v]+'), x -> x <> '')) >= 3) AS keep
          FROM s)
    SELECT doc_id, count(*) AS n_lines,
           CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT)
               AS n_kept,
           CAST(coalesce(sum(CASE WHEN keep THEN len(line) END), 0)
                + greatest(sum(CASE WHEN keep THEN 1 ELSE 0 END) - 1, 0)
                AS BIGINT) AS n_chars_kept
    FROM k GROUP BY 1
"""


# Per-label centroids in long form; dims 1-based, avg in DOUBLE.
ORACLES["q_centroids"] = """
    WITH e AS (SELECT label,
                      unnest(generate_series(1, len(embedding))) AS dim,
                      unnest(embedding) AS v
               FROM embeddings WHERE embedding IS NOT NULL)
    SELECT label, CAST(dim AS BIGINT) AS dim, count(*) AS n_vecs,
           round(avg(CAST(v AS DOUBLE)), 6) AS mean_val
    FROM e GROUP BY 1, 2
"""


# Outlier filter: exact quantile_disc bounds, per-source kept/dropped
# summary; NULL n_chars lands in no bucket (FILTER semantics).
ORACLES["q_outlier_filter"] = """
    WITH b AS (SELECT quantile_disc(n_chars, 0.01) AS lo,
                      quantile_disc(n_chars, 0.99) AS hi
               FROM documents)
    SELECT coalesce(source, '') AS source,
           CAST(coalesce(count(*) FILTER (n_chars >= lo
                                          AND n_chars <= hi), 0)
                AS BIGINT) AS n_kept,
           CAST(coalesce(count(*) FILTER (n_chars < lo), 0) AS BIGINT)
               AS n_low,
           CAST(coalesce(count(*) FILTER (n_chars > hi), 0) AS BIGINT)
               AS n_high,
           CAST(coalesce(sum(n_chars) FILTER (n_chars >= lo
                                              AND n_chars <= hi), 0)
                AS BIGINT) AS chars_kept,
           CAST(any_value(lo) AS BIGINT) AS lo,
           CAST(any_value(hi) AS BIGINT) AS hi
    FROM documents, b GROUP BY 1
"""


# Five-stage CTE mirror of q_corpus_pipeline: short-line clean ->
# keep-min exact dedup on md5 -> hash-rank quota 50 -> 90/5/5 split.
ORACLES["q_corpus_pipeline"] = """
    WITH sp AS (SELECT doc_id, coalesce(source, '') AS source,
                       string_split(coalesce(text, ''), chr(10)) AS ls
                FROM documents WHERE doc_id IS NOT NULL),
    lines AS (SELECT doc_id, source, unnest(ls) AS raw,
                     unnest(generate_series(1, len(ls))) AS ln
              FROM sp),
    st AS (SELECT doc_id, source, ln,
                  trim(raw, ' ' || chr(9) || chr(13)) AS line
           FROM lines),
    k AS (SELECT * FROM st
          WHERE line <> ''
            AND NOT contains(
                  translate(line, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                            'abcdefghijklmnopqrstuvwxyz'), 'javascript')
            AND len(list_filter(regexp_split_to_array(line,
                  '[ \t\r\f\v]+'), x -> x <> '')) >= 15),
    cl AS (SELECT doc_id, any_value(source) AS source,
                  string_agg(line, chr(10) ORDER BY ln) AS ctext
           FROM k GROUP BY doc_id),
    dd AS (SELECT *, row_number() OVER (PARTITION BY md5(ctext)
                                        ORDER BY doc_id) AS rn
           FROM cl),
    d1 AS (SELECT doc_id, source, len(ctext) AS n FROM dd WHERE rn = 1),
    q AS (SELECT *, row_number() OVER (
              PARTITION BY source
              ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)),
                       doc_id) AS qr
          FROM d1),
    q1 AS (SELECT source, n,
                  md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 AS b
           FROM q WHERE qr <= 50),
    sp2 AS (SELECT CASE WHEN b < 90 THEN 'train'
                        WHEN b < 95 THEN 'val'
                        ELSE 'test' END AS split,
                   source, n
            FROM q1)
    SELECT split, source, count(*) AS n_docs,
           CAST(sum(n) AS BIGINT) AS sum_chars
    FROM sp2 GROUP BY 1, 2
"""


ORACLES["q_pseudo_shuffle"] = """
    SELECT doc_id, md5('shuf1|' || CAST(doc_id AS VARCHAR)) AS h,
           CAST(row_number() OVER (ORDER BY
               md5('shuf1|' || CAST(doc_id AS VARCHAR))) AS BIGINT)
               AS rank
    FROM documents WHERE doc_id IS NOT NULL
    ORDER BY h LIMIT 100
"""


ORACLES["q_weighted_sample"] = """
    SELECT doc_id, n_chars,
           CAST(md5_number_upper('ws|' || CAST(doc_id AS VARCHAR))
                % 10000 AS BIGINT) AS draw
    FROM documents
    WHERE doc_id IS NOT NULL
      AND CAST(md5_number_upper('ws|' || CAST(doc_id AS VARCHAR))
               % 10000 AS BIGINT)
          < least(coalesce(n_chars, 0), 9999)
"""


ORACLES["q_bm25"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    lens AS (SELECT doc_id, len(tk) AS L FROM toks),
    stats AS (SELECT count(*) AS n_docs,
                     CAST(sum(L) AS DOUBLE) / count(*) AS avglen
              FROM lens),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks),
    df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM pc GROUP BY 1),
    terms AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 3),
    tf AS (SELECT p.doc_id, p.tok, count(*) AS tf
           FROM pc p JOIN terms t ON p.tok = t.tok GROUP BY 1, 2),
    contrib AS (
        SELECT f.doc_id,
               ln((s.n_docs - t.df + 0.5) / (t.df + 0.5) + 1.0)
                 * f.tf * (1.2 + 1)
                 / (f.tf + 1.2 * (1 - 0.75 + 0.75 * l.L / s.avglen))
                 AS c,
               t.tok
        FROM tf f
        JOIN terms t ON t.tok = f.tok
        JOIN lens l ON l.doc_id = f.doc_id
        CROSS JOIN stats s),
    scored AS (
        -- sum order over the <=3 term contributions is engine-chosen;
        -- round-4 absorbs the last-bit difference vs the engine's
        -- fixed-order fold
        SELECT l.doc_id, round(coalesce(sum(x.c), 0.0), 4) AS score
        FROM lens l LEFT JOIN contrib x ON x.doc_id = l.doc_id
        GROUP BY l.doc_id)
    SELECT doc_id, score FROM scored
    ORDER BY score DESC, doc_id LIMIT 20
"""


# q_binary_features: the fake decode is md5-derived (width/height from
# the digest's first two bytes) and the features are pure byte math
# over the utf-8 payload, so the whole stage mirrors in SQL: DuckDB
# md5(VARCHAR) hashes the same utf-8 bytes the engine encodes, and the
# high nibble of byte i is hex char 2i-1 of hex(encode(text)).  The
# 16-term entropy sum's float order differs between engines; the
# driver's round-6 canon absorbs it.
_HEXVAL = "(strpos('0123456789abcdef', lower({c})) - 1)"
ORACLES["q_binary_features"] = f"""
    WITH b AS (
        SELECT doc_id AS item_id,
               md5(coalesce(text, '')) AS d,
               hex(encode(coalesce(text, ''))) AS h
        FROM documents),
    nib AS (
        -- generate_series as a LIST function (lateral column args are
        -- unsupported as a table function — same trick as the
        -- fingerprint oracle)
        SELECT item_id,
               unnest(list_transform(
                   generate_series(1, CAST(length(h) // 2 AS BIGINT)),
                   i -> substr(h, 2 * i - 1, 1))) AS c
        FROM b),
    cnt AS (SELECT item_id, c, count(*) AS n FROM nib GROUP BY 1, 2),
    tot AS (SELECT item_id, sum(n) AS t FROM cnt GROUP BY 1),
    ent AS (
        SELECT c.item_id,
               -sum((c.n / t.t) * log2(c.n / t.t)) AS byte_entropy
        FROM cnt c JOIN tot t ON t.item_id = c.item_id
        GROUP BY 1)
    SELECT b.item_id,
           CAST(64 + ({_HEXVAL.format(c="substr(b.d, 1, 1)")} * 16
                      + {_HEXVAL.format(c="substr(b.d, 2, 1)")}) % 192
                AS INT) AS width,
           CAST(64 + ({_HEXVAL.format(c="substr(b.d, 3, 1)")} * 16
                      + {_HEXVAL.format(c="substr(b.d, 4, 1)")}) % 192
                AS INT) AS height,
           FALSE AS needs_resize,
           coalesce(e.byte_entropy, 0.0) AS byte_entropy
    FROM b LEFT JOIN ent e ON e.item_id = b.item_id
"""


def _pagerank_sql(iters: int = 10, damping: float = 0.85) -> str:
    """Unrolled power iteration (recursive CTEs cannot aggregate in the
    recursive term) — same leaky formulation as stages/graph.pagerank:
    teleport (1-d)/|V|, no dangling redistribution."""
    ctes = [f"""
    m AS (SELECT max(doc_id) + 1 AS mm FROM documents),
    edges AS (SELECT doc_id AS src,
                     unnest([(doc_id*doc_id+1)%mm, (doc_id//2+7)%mm,
                             (doc_id*3+11)%mm]) AS dst
              FROM documents, m),
    nodes AS (SELECT src AS node FROM edges
              UNION SELECT dst FROM edges),
    nv AS (SELECT count(*) AS n FROM nodes),
    deg AS (SELECT src, count(*) AS outdeg FROM edges GROUP BY 1),
    pr0 AS (SELECT node, 1.0/(SELECT n FROM nv) AS rank FROM nodes)"""]
    for i in range(iters):
        ctes.append(f"""
    pr{i+1} AS (
        SELECT nd.node,
               {1.0 - damping}/(SELECT n FROM nv)
                   + {damping}*coalesce(s.msum, 0.0) AS rank
        FROM nodes nd LEFT JOIN (
            SELECT e.dst AS node, sum(p.rank/d.outdeg) AS msum
            FROM edges e
            JOIN pr{i} p ON e.src = p.node
            JOIN deg  d ON e.src = d.src
            GROUP BY 1) s ON nd.node = s.node)""")
    return ("WITH" + ",".join(ctes)
            + f"""
    SELECT node, round(rank, 6) AS rank FROM pr{iters} ORDER BY node""")


ORACLES["q_pagerank"] = _pagerank_sql()


ORACLES["q_crawl_diff"] = """
    WITH a AS (SELECT 'u' || CAST(doc_id AS VARCHAR) AS url,
                      md5(coalesce(text, '')) AS h_a
               FROM documents),
    b AS (SELECT 'u' || CAST(doc_id AS VARCHAR) AS url,
                 CASE WHEN doc_id % 5 = 0
                      THEN md5(coalesce(text, '') || '!')
                      ELSE md5(coalesce(text, '')) END AS h_b
          FROM documents WHERE doc_id % 7 <> 0
          UNION ALL
          SELECT 'u' || CAST(doc_id AS VARCHAR) || '-new',
                 md5('new' || CAST(doc_id AS VARCHAR))
          FROM documents WHERE doc_id % 11 = 0)
    SELECT coalesce(a.url, b.url) AS url,
           CASE WHEN a.url IS NULL THEN 'added'
                WHEN b.url IS NULL THEN 'removed'
                WHEN a.h_a = b.h_b THEN 'same'
                ELSE 'changed' END AS status
    FROM a FULL OUTER JOIN b ON a.url = b.url
"""


ORACLES["q_link_graph"] = f"""
    WITH d AS (SELECT {_DOMAIN} AS domain FROM documents),
    pc AS (SELECT domain, count(*) AS pages FROM d GROUP BY 1),
    paths(path, mult) AS (VALUES ('/', 2), ('/archive', 1), ('/tags', 1),
                                 ('/about', 1), ('/privacy', 1),
                                 ('/terms', 1), ('/contact', 1))
    SELECT domain, path, CAST(pages * mult AS BIGINT) AS n
    FROM pc CROSS JOIN paths
"""


ORACLES["q_incremental_dedup"] = """
    WITH idx AS (SELECT DISTINCT md5(coalesce(text, '')) AS h
                 FROM documents WHERE doc_id % 2 = 0),
    firsts AS (SELECT md5(coalesce(text, '')) AS content_md5,
                      min(doc_id) AS keep_doc_id
               FROM documents GROUP BY 1)
    SELECT f.content_md5, f.keep_doc_id
    FROM firsts f LEFT JOIN idx ON f.content_md5 = idx.h
    WHERE idx.h IS NULL
    ORDER BY f.content_md5
"""


ORACLES["q_lm_quality"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    bgr AS (SELECT doc_id,
                   unnest(CASE WHEN len(tk) < 2 THEN CAST([] AS VARCHAR[])
                          ELSE list_transform(generate_series(1, len(tk)-1),
                                   i -> tk[i] || ' ' || tk[i+1]) END) AS bg,
                   unnest(CASE WHEN len(tk) < 2 THEN CAST([] AS VARCHAR[])
                          ELSE list_transform(generate_series(1, len(tk)-1),
                                   i -> tk[i]) END) AS w1
            FROM toks),
    cnt AS (SELECT bg, count(*) AS c FROM bgr GROUP BY 1),
    ctx AS (SELECT w1, count(*) AS cc FROM bgr GROUP BY 1)
    SELECT b.doc_id, count(*) AS n_bigrams,
           round(sum(ln(cnt.c::DOUBLE / ctx.cc)) / count(*), 6) AS avg_logp
    FROM bgr b JOIN cnt ON b.bg = cnt.bg JOIN ctx ON b.w1 = ctx.w1
    GROUP BY 1 ORDER BY 1
"""


def _pii_scrub_sql() -> str:
    """Three-stage RE2 cascade mirroring functions.pii.REDACTION_CASCADE
    — generated from the engine's own pattern constants so pattern
    edits cannot drift the oracle — over text dirtied by the same
    doc_id arithmetic as queries._plant_pii."""
    from bb_ocr_ray.functions.pii import EMAIL_PAT, IPV4_PAT, PHONE_PAT

    return f"""
    WITH t0 AS (
        SELECT doc_id,
               coalesce(text, '')
               || CASE WHEN doc_id % 5 = 0
                       THEN ' contact user' || doc_id || '@mail'
                            || (doc_id % 9) || '.example.com'
                       ELSE '' END
               || CASE WHEN doc_id % 3 = 0
                       THEN ' call +' || (1 + doc_id % 98) || ' '
                            || (100 + doc_id % 900) || ' '
                            || (100 + (doc_id * 7) % 900) || ' '
                            || (1000 + doc_id % 9000)
                       ELSE '' END
               || CASE WHEN doc_id % 7 = 0
                       THEN ' from 10.' || (doc_id % 256) || '.'
                            || ((doc_id * 3) % 256) || '.'
                            || (doc_id % 100)
                       ELSE '' END AS tx
        FROM documents),
    s1 AS (SELECT doc_id,
                  len(regexp_extract_all(tx, '{EMAIL_PAT}')) AS n_emails,
                  regexp_replace(tx, '{EMAIL_PAT}', '<EMAIL>', 'g') AS tx
           FROM t0),
    s2 AS (SELECT doc_id, n_emails,
                  len(regexp_extract_all(tx, '{PHONE_PAT}')) AS n_phones,
                  regexp_replace(tx, '{PHONE_PAT}', '<PHONE>', 'g') AS tx
           FROM s1),
    s3 AS (SELECT doc_id, n_emails, n_phones,
                  len(regexp_extract_all(tx, '{IPV4_PAT}')) AS n_ips,
                  regexp_replace(tx, '{IPV4_PAT}', '<IP>', 'g') AS tx
           FROM s2)
    SELECT doc_id, n_emails, n_phones, n_ips, md5(tx) AS clean_md5
    FROM s3 ORDER BY doc_id
    """


ORACLES["q_pii_scrub"] = _pii_scrub_sql()


ORACLES["q_mix_balance"] = """
    WITH keyed AS (SELECT doc_id, coalesce(lang, '<null>') AS lang
                   FROM documents),
    cnt AS (SELECT lang, count(*) AS n FROM keyed GROUP BY 1),
    rates AS (SELECT lang, (10000 * (SELECT min(n) FROM cnt)) // n AS p
              FROM cnt)
    SELECT k.doc_id, k.lang
    FROM keyed k JOIN rates r ON k.lang = r.lang
    WHERE CAST(md5_number_upper('mix|' || CAST(k.doc_id AS VARCHAR))
               % 10000 AS BIGINT) < r.p
    ORDER BY k.doc_id
"""


ORACLES["q_connected_components"] = """
    WITH n AS (SELECT doc_id AS d FROM documents),
    e AS (SELECT a.d AS u FROM n a JOIN n b ON b.d = a.d + 1
          WHERE ((a.d * a.d + 3 * a.d) % 11) >= 3),
    s AS (SELECT d, CASE WHEN (d - 1) IN (SELECT u FROM e)
                         THEN NULL ELSE d END AS st
          FROM n)
    SELECT d AS doc_id,
           max(st) OVER (ORDER BY d ROWS UNBOUNDED PRECEDING) AS component
    FROM s
    ORDER BY d
"""


ORACLES["q_boilerplate"] = """
    WITH dirty AS (
      SELECT doc_id, source,
             '(c) 2026 ' || source || ' all rights reserved' || chr(10) ||
             'home | about | contact ' || source || chr(10) ||
             CASE WHEN (doc_id // 20) % 2 = 0
                  THEN 'subscribe to ' || source || ' newsletter' || chr(10)
                  ELSE '' END ||
             CASE WHEN (doc_id // 20) % 4 < 3
                  THEN 'promo ' || source || ' deals' || chr(10)
                  ELSE '' END ||
             coalesce(text, '') || chr(10) ||
             'footnote ' || doc_id AS t
      FROM documents),
    ls AS (SELECT doc_id, source, string_split(t, chr(10)) AS ll
           FROM dirty),
    lines AS (SELECT doc_id, source,
                     unnest(list_transform(generate_series(1, len(ll)),
                                           i -> ll[i])) AS line,
                     unnest(generate_series(1, len(ll))) AS idx
              FROM ls),
    df AS (SELECT source, line, count(DISTINCT doc_id) AS df
           FROM lines GROUP BY 1, 2),
    nd AS (SELECT source, count(*) AS n_docs FROM documents GROUP BY 1),
    freq AS (SELECT df.source, df.line
             FROM df JOIN nd ON df.source = nd.source
             WHERE df.df >= 2 AND df.df * 100 > 60 * nd.n_docs),
    flagged AS (SELECT l.doc_id, l.idx, l.line,
                       f.line IS NOT NULL AS bp
                FROM lines l LEFT JOIN freq f
                  ON l.source = f.source AND l.line = f.line)
    SELECT doc_id,
           CAST(count(*) AS BIGINT) AS n_lines,
           CAST(count(*) FILTER (WHERE NOT bp) AS BIGINT) AS n_kept,
           md5(coalesce(string_agg(line, chr(10) ORDER BY idx)
                        FILTER (WHERE NOT bp), '')) AS clean_md5
    FROM flagged GROUP BY 1 ORDER BY 1
"""


ORACLES["q_hybrid_rrf"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    lens AS (SELECT doc_id, len(tk) AS L FROM toks),
    stats AS (SELECT count(*) AS n_docs,
                     CAST(sum(L) AS DOUBLE) / count(*) AS avglen
              FROM lens),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks),
    df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM pc GROUP BY 1),
    terms AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT 3),
    tf AS (SELECT p.doc_id, p.tok, count(*) AS tf
           FROM pc p JOIN terms t ON p.tok = t.tok GROUP BY 1, 2),
    contrib AS (
        SELECT f.doc_id,
               ln((s.n_docs - t.df + 0.5) / (t.df + 0.5) + 1.0)
                 * f.tf * (1.2 + 1)
                 / (f.tf + 1.2 * (1 - 0.75 + 0.75 * l.L / s.avglen))
                 AS c
        FROM tf f
        JOIN terms t ON t.tok = f.tok
        JOIN lens l ON l.doc_id = f.doc_id
        CROSS JOIN stats s),
    scored AS (
        SELECT l.doc_id, round(coalesce(sum(x.c), 0.0), 4) AS score
        FROM lens l LEFT JOIN contrib x ON x.doc_id = l.doc_id
        GROUP BY l.doc_id),
    lex AS (SELECT doc_id,
                   row_number() OVER (ORDER BY score DESC, doc_id) AS rl
            FROM scored ORDER BY score DESC, doc_id LIMIT 20),
    q AS (SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings
          WHERE vec_id = 0),
    dn0 AS (SELECT e.vec_id AS doc_id,
                   row_number() OVER (
                     ORDER BY round(list_cosine_similarity(
                       q.qv, CAST(e.embedding AS DOUBLE[])), 4) DESC,
                     e.vec_id) AS rd
            FROM embeddings e CROSS JOIN q WHERE e.vec_id <> 0),
    dn AS (SELECT doc_id, rd FROM dn0 WHERE rd <= 20)
    SELECT coalesce(l.doc_id, d.doc_id) AS doc_id,
           round(coalesce(1.0 / (60 + l.rl), 0), 6) AS lex_rrf,
           round(coalesce(1.0 / (60 + d.rd), 0), 6) AS dense_rrf,
           round(coalesce(1.0 / (60 + l.rl), 0)
                 + coalesce(1.0 / (60 + d.rd), 0), 6) AS rrf
    FROM lex l FULL OUTER JOIN dn d ON l.doc_id = d.doc_id
    ORDER BY 4 DESC, 1
"""


ORACLES["q_ctfidf"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    pc AS (SELECT t.doc_id, e.label, unnest(t.tk) AS token
           FROM toks t JOIN embeddings e ON e.vec_id = t.doc_id),
    ct AS (SELECT CAST(label AS BIGINT) AS label, token,
                  CAST(count(*) AS BIGINT) AS tf
           FROM pc GROUP BY 1, 2),
    ft AS (SELECT token, sum(tf) AS f FROM ct GROUP BY 1),
    a AS (SELECT CAST(sum(tf) AS DOUBLE)
                 / count(DISTINCT label) AS avg_per_class FROM ct),
    scored AS (
        SELECT ct.label, ct.token, ct.tf,
               round(ct.tf * ln(1.0 + a.avg_per_class / ft.f), 6) AS w
        FROM ct JOIN ft ON ct.token = ft.token CROSS JOIN a),
    ranked AS (
        SELECT label, token, tf, w,
               row_number() OVER (PARTITION BY label
                                  ORDER BY w DESC, token) AS rank
        FROM scored)
    SELECT label, CAST(rank AS BIGINT) AS rank, token, tf, w
    FROM ranked WHERE rank <= 5 ORDER BY 1, 2
"""


ORACLES["q_sorted_neighborhood"] = """
    WITH k AS (SELECT doc_id, substr(coalesce(text, ''), 1, 12) AS bk
               FROM documents),
    r AS (SELECT doc_id, bk,
                 row_number() OVER (ORDER BY bk, doc_id) AS rnk
          FROM k)
    SELECT a.doc_id AS id_a, b.doc_id AS id_b,
           CAST(b.rnk - a.rnk AS BIGINT) AS d,
           CAST(a.bk = b.bk AS BIGINT) AS key_match
    FROM r a JOIN r b ON b.rnk - a.rnk BETWEEN 1 AND 3
    ORDER BY 1, 2
"""


def _hits_sql(iters: int = 5) -> str:
    """Unrolled HITS sweep — same graph generator as _pagerank_sql,
    L2 normalization after each half-step, hub update reading the
    just-normalized authorities (the engine's exact order).  Every
    CTE is MATERIALIZED: DuckDB inlines plain CTEs per reference, so
    an unrolled iterative chain with norm subqueries re-evaluates its
    whole prefix exponentially (observed: fd exhaustion from
    re-scanning the parquet view ~4^iters times)."""
    ctes = ["""
    m AS MATERIALIZED (SELECT max(doc_id) + 1 AS mm FROM documents),
    edges AS MATERIALIZED (
        SELECT doc_id AS src,
               unnest([(doc_id*doc_id+1)%mm, (doc_id//2+7)%mm,
                       (doc_id*3+11)%mm]) AS dst
        FROM documents, m),
    nodes AS MATERIALIZED (SELECT src AS node FROM edges
                           UNION SELECT dst FROM edges),
    h0 AS MATERIALIZED (SELECT node, 1.0 AS v FROM nodes)"""]
    for i in range(1, iters + 1):
        ctes.append(f"""
    a{i}r AS MATERIALIZED (SELECT nd.node, coalesce(s.sm, 0.0) AS v
        FROM nodes nd LEFT JOIN (
            SELECT e.dst AS node, sum(h.v) AS sm
            FROM edges e JOIN h{i-1} h ON e.src = h.node
            GROUP BY 1) s ON nd.node = s.node),
    a{i}n AS MATERIALIZED (SELECT sqrt(sum(v*v)) AS nrm FROM a{i}r),
    a{i} AS MATERIALIZED (SELECT node,
        CASE WHEN n.nrm > 0 THEN v / n.nrm ELSE v END AS v
        FROM a{i}r, a{i}n n),
    h{i}r AS MATERIALIZED (SELECT nd.node, coalesce(s.sm, 0.0) AS v
        FROM nodes nd LEFT JOIN (
            SELECT e.src AS node, sum(a.v) AS sm
            FROM edges e JOIN a{i} a ON e.dst = a.node
            GROUP BY 1) s ON nd.node = s.node),
    h{i}n AS MATERIALIZED (SELECT sqrt(sum(v*v)) AS nrm FROM h{i}r),
    h{i} AS MATERIALIZED (SELECT node,
        CASE WHEN n.nrm > 0 THEN v / n.nrm ELSE v END AS v
        FROM h{i}r, h{i}n n)""")
    return ("WITH" + ",".join(ctes) + f"""
    SELECT a{iters}.node, round(a{iters}.v, 6) AS authority,
           round(h{iters}.v, 6) AS hub
    FROM a{iters} JOIN h{iters} ON a{iters}.node = h{iters}.node
    ORDER BY 1""")


ORACLES["q_hits"] = _hits_sql()


ORACLES["q_posting_lists"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    uni AS (SELECT doc_id, unnest(tk) AS term FROM toks),
    bi AS (SELECT doc_id,
                  unnest(list_transform(
                      generate_series(1, len(tk) - 1),
                      i -> tk[i] || '_' || tk[i + 1])) AS term
           FROM toks),
    pc AS (SELECT DISTINCT doc_id, term
           FROM (SELECT * FROM uni UNION ALL SELECT * FROM bi)),
    nd AS (SELECT count(*) AS n FROM documents),
    g AS (SELECT term, count(*) AS df,
                 string_agg(CAST(doc_id AS VARCHAR), ','
                            ORDER BY doc_id) AS postings
          FROM pc GROUP BY term)
    SELECT term, CAST(df AS BIGINT) AS df, postings
    FROM g CROSS JOIN nd
    WHERE df >= 5 AND df * 5 <= nd.n * 3
    ORDER BY term
"""


ORACLES["q_profile"] = """
    SELECT count(*) AS n_rows,
           count(*) - count(lang) AS null_lang,
           count(DISTINCT lang) AS distinct_lang,
           count(DISTINCT source) AS distinct_source,
           min(n_chars) AS min_n_chars,
           max(n_chars) AS max_n_chars,
           CAST(sum(n_chars) AS BIGINT) AS sum_n_chars,
           CAST(sum(CASE WHEN length(text) = 0 THEN 1 ELSE 0 END)
                AS BIGINT) AS empty_text
    FROM documents
"""


ORACLES["q_table_checksum"] = """
    SELECT count(*) AS n_rows,
           CAST(sum(CAST(concat('0x', substr(md5(
                        concat(CAST(doc_id AS VARCHAR), '|', text)
                    ), 1, 15)) AS BIGINT))
                % 9223372036854775807 AS BIGINT) AS checksum
    FROM documents
"""


ORACLES["q_url_canonical"] = """
    -- inverts q_url_canonical's deterministic mangling template: all
    -- five messy variants of a doc's URL canonicalize to this string
    SELECT 'https://site' || CAST(doc_id % 3 AS VARCHAR) ||
           '.com/p/' || CAST(doc_id // 16 AS VARCHAR) || '?a=1&b=2'
               AS canonical,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY 1 ORDER BY 1
"""


ORACLES["q_anchor_terms"] = """
    -- inverts the synthetic chrome template: fixed anchors per page
    -- ('/' carries Home + Synthetic Corpus; share-widget anchors are
    -- fragment-only and must be absent), one page per document
    WITH n AS (SELECT count(*) AS pages FROM documents),
    t(path, term, mult) AS (VALUES
        ('/', 'home', 1), ('/', 'synthetic', 1), ('/', 'corpus', 1),
        ('/archive', 'archive', 1), ('/tags', 'tags', 1),
        ('/about', 'about', 1), ('/about', 'us', 1),
        ('/privacy', 'privacy', 1), ('/privacy', 'policy', 1),
        ('/terms', 'terms', 1), ('/contact', 'contact', 1))
    SELECT path, term, CAST(pages * mult AS BIGINT) AS n
    FROM t CROSS JOIN n ORDER BY path, term
"""


ORACLES["q_feature_hash"] = f"""
    WITH probe AS (SELECT doc_id, text FROM documents
                   WHERE doc_id % 41 = 0),
    toks AS (SELECT doc_id, {_TOKS} AS tk FROM probe),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks)
    SELECT doc_id, CAST(md5_number_upper(tok) % 256 AS BIGINT) AS bucket,
           CAST(count(*) AS BIGINT) AS n
    FROM pc GROUP BY 1, 2 ORDER BY 1, 2
"""


ORACLES["q_robots_filter"] = """
    WITH d AS (SELECT 'site' || CAST(doc_id % 3 AS VARCHAR) || '.com' AS host,
                      '/p/' || CAST(doc_id // 16 AS VARCHAR) AS path
               FROM documents),
    f AS (SELECT host,
                 CASE WHEN host = 'site0.com' AND path LIKE '/p/1%' THEN 1
                      WHEN host = 'site1.com' AND path LIKE '/p/7%' THEN 1
                      WHEN host = 'site2.com' AND path LIKE '/p/3%' THEN 1
                      ELSE 0 END AS blocked
          FROM d)
    SELECT host,
           CAST(count(*) FILTER (WHERE blocked = 0) AS BIGINT) AS n_allowed,
           CAST(count(*) FILTER (WHERE blocked = 1) AS BIGINT) AS n_blocked
    FROM f GROUP BY 1 ORDER BY 1
"""


ORACLES["q_term_scan"] = """
    WITH t AS (SELECT coalesce(text, '') AS x FROM documents),
    terms(term) AS (VALUES ('table'), ('hash'), ('merge batch'),
                           ('zzz-absent-term'))
    SELECT terms.term,
           CAST(count(*) FILTER (WHERE contains(t.x, terms.term))
                AS BIGINT) AS n_docs,
           CAST(sum((length(t.x) - length(replace(t.x, terms.term, '')))
                    // length(terms.term)) AS BIGINT) AS n_occurrences
    FROM terms CROSS JOIN t GROUP BY 1 ORDER BY 1
"""


# array_to_string of an empty list is NULL, so the parts join with the
# NULL-skipping concat: an empty part hashes as ''; only NULL text
# gives a NULL fim_md5
ORACLES["q_fim_split"] = f"""
    WITH toks AS (SELECT doc_id, text, {_TOKS} AS tk FROM documents),
    s AS (SELECT doc_id, text, tk, len(tk) AS n,
                 len(tk) // 3 AS a, (2 * len(tk)) // 3 AS c
          FROM toks)
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(n AS BIGINT) AS n_tokens,
           CAST(a AS BIGINT) AS n_prefix,
           CAST(c - a AS BIGINT) AS n_middle,
           CAST(n - c AS BIGINT) AS n_suffix,
           md5(CASE WHEN text IS NOT NULL THEN
               concat(array_to_string(tk[1:a], ' '), chr(1),
                      array_to_string(tk[c+1:n], ' '), chr(1),
                      array_to_string(tk[a+1:c], ' ')) END) AS fim_md5
    FROM s ORDER BY doc_id
"""


ORACLES["q_hard_negatives"] = """
    WITH q AS (SELECT vec_id AS query_id,
                      CAST(embedding AS DOUBLE[]) AS qv,
                      CAST(label AS BIGINT) AS qlabel
               FROM embeddings WHERE vec_id < 10),
    p AS (SELECT q.query_id, q.qlabel,
                 CAST(e.vec_id AS BIGINT) AS neighbor_id,
                 CAST(e.label AS BIGINT) AS neg_label,
                 round(list_cosine_similarity(
                     q.qv, CAST(e.embedding AS DOUBLE[])), 4) AS score
          FROM q CROSS JOIN embeddings e
          WHERE CAST(e.label AS BIGINT) <> q.qlabel),
    r AS (SELECT *, row_number() OVER (PARTITION BY query_id
                                       ORDER BY score DESC,
                                                 neighbor_id) AS rk
          FROM p)
    SELECT CAST(query_id AS BIGINT) AS query_id, qlabel, neighbor_id,
           neg_label, score
    FROM r WHERE rk = 1 ORDER BY query_id
"""


ORACLES["q_wand_bounds"] = f"""
    WITH toks AS (SELECT doc_id, {_TOKS} AS tk FROM documents),
    pc AS (SELECT doc_id, unnest(tk) AS tok FROM toks),
    tf AS (SELECT doc_id, tok, count(*) AS tf FROM pc GROUP BY 1, 2),
    stats AS (SELECT tok, max(tf) AS max_tf, count(*) AS df
              FROM tf GROUP BY 1),
    n AS (SELECT count(*) AS c FROM documents)
    SELECT tok, CAST(max_tf AS BIGINT) AS max_tf,
           CAST(df AS BIGINT) AS df,
           round(max_tf * ln(CAST(c AS DOUBLE) / df), 6) AS bound
    FROM stats, n
    ORDER BY round(max_tf * ln(CAST(c AS DOUBLE) / df), 6) DESC, tok
    LIMIT 20
"""


ORACLES["q_emb_outliers"] = """
    WITH x AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
                      CAST(embedding[CAST(i AS INT)] AS DOUBLE) AS v,
                      CAST(i AS BIGINT) AS d
               FROM embeddings,
                    unnest(range(1, len(embedding) + 1)) AS t(i)),
    m AS (SELECT label, d, avg(v) AS c FROM x GROUP BY 1, 2),
    dist AS (SELECT x.vec_id, x.label,
                    sum((x.v - m.c) * (x.v - m.c)) AS d2
             FROM x JOIN m ON m.label = x.label AND m.d = x.d
             GROUP BY 1, 2),
    s AS (SELECT label, count(*) AS n,
                 avg(d2) AS mean_d2
          FROM dist GROUP BY 1)
    SELECT s.label, CAST(s.n AS BIGINT) AS n,
           round(s.mean_d2, 6) AS mean_d2,
           CAST(sum(CASE WHEN round(dist.d2, 6)
                              > round(4.0 * s.mean_d2, 6)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_out
    FROM s JOIN dist ON dist.label = s.label
    GROUP BY 1, 2, 3 ORDER BY 1
"""
