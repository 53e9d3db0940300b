"""Traced mode: per-layer metrics from spans, Ray Data stats and an
in-process single-thread baseline.

Spans wrap calls into each layer's public functions by temporarily
replacing the module attributes the engine looks them up through; the
engine's code is not changed.  Kernel spans are taken in the baseline
(the same read -> extract_batch -> write job in this process, no Ray),
because the kernel runs inside Ray worker processes in the Ray jobs.
Driver-side spans (runner, pipeline builders, shuffle stages, Parquet
writes) are taken around the Ray jobs themselves.
"""

from __future__ import annotations

import os
import statistics
import time

from perfbench import workloads as wl
from perfbench.trace import Tracer, patched, summarize

OP_KINDS = ("read", "map", "shuffle")
OP_FIELDS = {"tasks": "count", "rows_out": "count", "bytes_out": "bytes",
             "wall_s": "s", "cpu_s": "s", "udf_s": "s", "peak_heap_mb": "MB",
             "busy_share": "ratio"}

UNITS = {
    "kernel.normalize.ns_per_doc": "ns",
    "kernel.segment.ns_per_doc": "ns",
    "kernel.segment.blocks_per_doc": "count",
    "kernel.classify.ns_per_doc": "ns",
    "kernel.classify.keep_ratio": "ratio",
    "kernel.emit.ns_per_doc": "ns",
    "kernel.extract.ns_per_doc": "ns",
    "kernel.extract.self_ns_per_doc": "ns",
    "kernel.extract.accounted_share": "ratio",
    "kernel.extract.status_ok": "count",
    "kernel.extract.status_empty": "count",
    "kernel.extract.status_truncated": "count",
    "kernel.extract.status_parse_error": "count",
    "stages.extract_stage.arrow_ns_per_doc": "ns",
    "stages.extract_stage.arrow_bytes_per_doc": "bytes",
    "stages.extract_stage.blocks_bytes_share": "ratio",
    "sources.pages.ns_per_doc": "ns",
    "baseline.single_thread_docs_per_s": "docs/s",
    "baseline.parquet_read_ns_per_doc": "ns",
    "baseline.parquet_write_ns_per_doc": "ns",
    "pipelines.extract_pipeline.pipeline_eff": "ratio",
    "state.manifest.run_s": "s",
    "state.manifest.rerun_s": "s",
    "state.manifest.overhead_x": "ratio",
    "stages.domain_agg.domain_stats.s": "s",
    "stages.dedup.minhash_candidates.s": "s",
    "stages.dedup.candidate_pairs": "count",
    "stages.dedup.verify_keep_ratio": "ratio",
    "stages.dedup.near_dup_dedup.s": "s",
    "ray_data.write_parquet.s": "s",
    "docs_per_s": "docs/s",
    "html_mb_per_s": "MB/s",
    "scaling_eff": "ratio",
    "host.cpu_steal_frac": "ratio",
    "ray_data.warnings": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}
for _k in OP_KINDS:
    for _f, _u in OP_FIELDS.items():
        UNITS[f"ray_data.op.{_k}.{_f}"] = _u

KERNEL_SPANS = {"normalize": "kernel.normalize.decode_html",
                "segment": "kernel.segment.segment",
                "classify": "kernel.classify.classify",
                "emit": "kernel.emit.emit"}


def med(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------
def kernel_targets(tracer: Tracer, counts: dict) -> list:
    import bb_ocr_ray.kernel.extract as kx
    import bb_ocr_ray.stages.extract_stage as xs

    def count_blocks(blocks):
        counts["blocks"] = counts.get("blocks", 0) + len(blocks)
        return blocks

    def count_kept(blocks):
        counts["kept"] = counts.get("kept", 0) + sum(1 for b in blocks if b.is_content)
        return blocks

    return [
        (kx, "decode_html", tracer.wrap(KERNEL_SPANS["normalize"], kx.decode_html)),
        (kx, "segment", tracer.wrap(KERNEL_SPANS["segment"], kx.segment, count_blocks)),
        (kx, "classify", tracer.wrap(KERNEL_SPANS["classify"], kx.classify, count_kept)),
        (kx, "emit", tracer.wrap(KERNEL_SPANS["emit"], kx.emit)),
        (xs, "extract_page", tracer.wrap("kernel.extract.extract_page", xs.extract_page)),
    ]


def driver_targets(tracer: Tracer, counts: dict, captured: list) -> list:
    import ray.data as rd

    import bb_ocr_ray.pipelines.extract_pipeline as xp
    import bb_ocr_ray.stages.dedup as dd
    import bb_ocr_ray.stages.domain_agg as da
    import bb_ocr_ray.state.manifest as mf

    def capture(ds):
        captured.append(ds)
        return ds

    def materialized_count(key):
        # run the lazy Dataset inside the span (the engine materializes or
        # collects it right after the call anyway) and count its rows
        def after(ds):
            ds = ds.materialize()
            counts[key] = counts.get(key, 0) + ds.count()
            return ds
        return after

    return [
        (xp, "extract_pages", tracer.wrap("pipelines.extract_pipeline.extract_pages",
                                          xp.extract_pages, capture)),
        (mf, "run_resumable_extract", tracer.wrap("state.manifest.run_resumable_extract",
                                                  mf.run_resumable_extract)),
        (da, "domain_stats", tracer.wrap("stages.domain_agg.domain_stats", da.domain_stats)),
        (dd, "near_dup_dedup", tracer.wrap("stages.dedup.near_dup_dedup", dd.near_dup_dedup)),
        (dd, "minhash_candidates", tracer.wrap("stages.dedup.minhash_candidates",
                                               dd.minhash_candidates,
                                               materialized_count("candidate_pairs"))),
        (dd, "verify_candidates", tracer.wrap("stages.dedup.verify_candidates",
                                              dd.verify_candidates,
                                              materialized_count("verified_pairs"))),
        (rd.Dataset, "write_parquet", tracer.wrap("ray_data.write_parquet",
                                                  rd.Dataset.write_parquet)),
    ]


# ---------------------------------------------------------------------------
# Ray Data's own per-operator stats of the Datasets a job executed
# ---------------------------------------------------------------------------
def op_kind(name: str) -> str:
    """Physical operator -> kind.  Ray Data fuses reads, maps and writes
    into one operator where it can; a fused operator with a map in it
    counts as map."""
    n = name.lower()
    if any(k in n for k in ("sort", "repartition", "aggregate", "shuffle",
                            "join", "union", "zip")):
        return "shuffle"
    if "map" in n or "filter" in n or not n.startswith("read"):
        return "map"
    return "read"


def op_stats(datasets: list, level: int) -> dict:
    """Sum Ray Data operator stats by kind over the executed ``datasets``
    (the write Dataset of a written one); busy_share is the operator's
    summed task wall time over its wall-clock span times the CPU limit,
    DS2's useful-time share."""
    agg = {k: {f: 0.0 for f in OP_FIELDS} for k in OP_KINDS}
    span = {k: 0.0 for k in OP_KINDS}
    seen = set()

    def walk(summary):
        for op in summary.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if key in seen or not op.wall_time:
                continue
            seen.add(key)
            a = agg[op_kind(op.operator_name)]
            a["tasks"] += (op.task_rows or {}).get("count", 0)
            a["rows_out"] += (op.output_num_rows or {}).get("sum", 0)
            a["bytes_out"] += (op.output_size_bytes or {}).get("sum", 0)
            a["wall_s"] += op.time_total_s
            a["cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
            a["udf_s"] += (op.udf_time or {}).get("sum", 0.0)
            a["peak_heap_mb"] = max(a["peak_heap_mb"], (op.memory or {}).get("max", 0))
            a["busy_share"] += op.wall_time.get("sum", 0.0)    # summed busy time
            span[op_kind(op.operator_name)] += op.time_total_s * level
        for parent in summary.parents:
            walk(parent)

    for ds in datasets:
        target = getattr(ds, "_write_ds", None) or ds
        try:
            summary = target._get_stats_summary()
        except Exception:  # noqa: BLE001 — a Dataset that never executed
            continue
        walk(summary)
    for k in OP_KINDS:
        agg[k]["busy_share"] = agg[k]["busy_share"] / span[k] if span[k] else 0.0
    return agg


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------
def traced_run(name: str, inp: dict, seconds: float, out_root: str, run_loop):
    """Returns (per-layer metrics, job results)."""
    tracer = Tracer()
    m = {k: 0.0 for k in UNITS}
    results = []
    t_end = time.perf_counter() + seconds
    docs = inp["docs"]

    if name != "dedup-rollup":
        counts = {}
        untraced, traced = wl.baseline(name, inp, os.path.join(out_root, "baseline"),
                                       tracer, kernel_targets(tracer, counts))
        results += [(0, "baseline", untraced), (0, "baseline-traced", traced)]
        s = summarize(tracer.spans)

        def total(span_name, key="total_ns"):
            return s.get(span_name, {}).get(key, 0) / docs

        for layer, span_name in KERNEL_SPANS.items():
            m[f"kernel.{layer}.ns_per_doc"] = total(span_name)
        page_total = total("kernel.extract.extract_page")
        m["kernel.extract.ns_per_doc"] = page_total
        m["kernel.extract.self_ns_per_doc"] = total("kernel.extract.extract_page", "self_ns")
        m["kernel.extract.accounted_share"] = (
            sum(m[f"kernel.{layer}.ns_per_doc"] for layer in KERNEL_SPANS)
            + m["kernel.extract.self_ns_per_doc"]) / page_total if page_total else 0.0
        m["kernel.segment.blocks_per_doc"] = counts.get("blocks", 0) / docs
        m["kernel.classify.keep_ratio"] = (counts.get("kept", 0) / counts["blocks"]
                                           if counts.get("blocks") else 0.0)
        table = untraced.layers.pop("table")
        for status in ("ok", "empty", "truncated", "parse_error"):
            m[f"kernel.extract.status_{status}"] = sum(
                1 for v in table.column("status").to_pylist() if v == status)
        m["stages.extract_stage.arrow_ns_per_doc"] = total(
            "stages.extract_stage.extract_batch", "self_ns")
        m["stages.extract_stage.arrow_bytes_per_doc"] = table.nbytes / docs
        m["stages.extract_stage.blocks_bytes_share"] = table.column("blocks").nbytes / table.nbytes
        m["sources.pages.ns_per_doc"] = total("sources.pages.pages_batch")
        m["baseline.single_thread_docs_per_s"] = docs / untraced.elapsed_s
        m["baseline.parquet_read_ns_per_doc"] = untraced.layers["read"] * 1e9 / docs
        m["baseline.parquet_write_ns_per_doc"] = untraced.layers["write"] * 1e9 / docs
        m["trace.overhead_frac"] = traced.elapsed_s / untraced.elapsed_s - 1
        traced.layers.pop("table")

    # Ray jobs
    counts, captured, per_job = {}, [], []

    def traced_job(job):
        def run(inp_, out):
            with patched(driver_targets(tracer, counts, captured)):
                return job(inp_, out)
        return run

    # the workload's job, traced, at both levels; then the reference job
    # at 2 CPUs: extract_pages + write_parquet without the runner (for
    # the runner's overhead) or the same job untraced (tracing overhead)
    main = traced_job(wl.JOBS[name])
    cycle = [(main, 2, "job"), (main, 1, "job")]
    if name == "resumable-small-pages":
        cycle.append((traced_job(wl.plain_small_job), 2, "ref"))
    elif name == "dedup-rollup":
        cycle.append((wl.dedup_job, 2, "ref"))

    mark = {"spans": len(tracer.spans)}

    def on_job(level, tag, res):
        spans = tracer.spans[mark["spans"]:]
        mark["spans"] = len(tracer.spans)
        per_job.append({"level": level, "tag": tag, "res": res,
                        "spans": summarize(spans), "counts": dict(counts),
                        "ops": op_stats(res.datasets + captured, level)})
        counts.clear()
        captured.clear()

    results += run_loop(cycle, inp, max(0.0, t_end - time.perf_counter()), out_root, on_job)

    def jobs(level, tag):
        return [j for j in per_job if j["level"] == level and j["tag"] == tag]

    def span_s(job_list, span_name):
        return med([j["spans"].get(span_name, {}).get("total_ns", 0) / 1e9 for j in job_list])

    top = jobs(2, "job")
    for kind in OP_KINDS:
        for f in OP_FIELDS:
            m[f"ray_data.op.{kind}.{f}"] = med([j["ops"][kind][f] for j in top])
    m["ray_data.write_parquet.s"] = span_s(top, "ray_data.write_parquet")
    dps = {lvl: med([j["res"].docs / j["res"].elapsed_s for j in jobs(lvl, "job")])
           for lvl in (1, 2)}
    m["docs_per_s"] = dps[2]
    m["html_mb_per_s"] = med([j["res"].html_bytes / 1e6 / j["res"].elapsed_s for j in top])
    m["scaling_eff"] = dps[2] / (2 * dps[1])
    if name != "dedup-rollup":
        base = m["baseline.single_thread_docs_per_s"]
        m["pipelines.extract_pipeline.pipeline_eff"] = dps[1] / base
    if name == "resumable-small-pages":
        m["state.manifest.run_s"] = med([j["res"].layers["run_s"] for j in top])
        m["state.manifest.rerun_s"] = med([j["res"].layers["rerun_s"] for j in top])
        plain = med([j["res"].elapsed_s for j in jobs(2, "ref")])
        m["state.manifest.overhead_x"] = m["state.manifest.run_s"] / plain
    if name == "dedup-rollup":
        m["stages.domain_agg.domain_stats.s"] = med(
            [j["res"].layers["domain_stats_s"] for j in top])
        m["stages.dedup.near_dup_dedup.s"] = med(
            [j["res"].layers["near_dup_dedup_s"] for j in top])
        m["stages.dedup.minhash_candidates.s"] = span_s(top, "stages.dedup.minhash_candidates")
        m["stages.dedup.candidate_pairs"] = med(
            [j["counts"].get("candidate_pairs", 0) for j in top])
        m["stages.dedup.verify_keep_ratio"] = med(
            [j["counts"].get("verified_pairs", 0) / j["counts"]["candidate_pairs"]
             for j in top if j["counts"].get("candidate_pairs")])
        m["trace.overhead_frac"] = (med([j["res"].elapsed_s for j in top])
                                    / med([j["res"].elapsed_s for j in jobs(2, "ref")]) - 1)
    m["trace.spans"] = len(tracer.spans)

    trace_dir = os.path.join(os.path.dirname(os.path.dirname(out_root)), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, os.path.basename(out_root) + ".jsonl"))
    return m, results
