"""CLI entry point — runnable standalone or via ``ray job submit``.

    python -m bb_ocr_ray.cli extract --sf-dir /root/testdata/sf0.001 \
        --out /tmp/run1 --partitions 8
    python -m bb_ocr_ray.cli extract --resume ...   (same cmd: resume IS rerun)
    python -m bb_ocr_ray.cli domain-stats --sf-dir ... [--out csv path]
    ray job submit -- python -m bb_ocr_ray.cli extract --sf-dir ... --out ...

Replaces the reference's CLI batch processor
(``pipeline_demo/extractor/batch_processor_enhanced.py:272-318``:
argparse -> thread pool -> per-book JSON files) with a resumable
partitioned Ray Data run.  Owns its Ray session (guarded init, always
shuts down) — the only module allowed to besides bench.py and tests.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _run_resumable(name: str, runner, args, **kwargs) -> int:
    """Shared body of the two resumable commands: an out-of-range
    partition count or payload budget is reported and exits 2."""
    from bb_ocr_ray.config import PipelineConfig
    from bb_ocr_ray.state.manifest import check_run_args

    cfg = PipelineConfig(payload_block_budget_mb=args.payload_budget_mb)
    try:
        check_run_args(args.partitions, cfg)
    except ValueError as e:
        print(f"{name}: {e}", file=sys.stderr)
        return 2
    n_run, n_skipped = runner(args.sf_dir, args.out,
                              n_partitions=args.partitions,
                              pipeline_cfg=cfg, **kwargs)
    print(json.dumps({"cmd": name, "out": args.out,
                      "partitions_run": n_run,
                      "partitions_skipped": n_skipped}))
    return 0


def cmd_extract(args) -> int:
    from bb_ocr_ray.state.manifest import run_resumable_extract

    return _run_resumable("extract", run_resumable_extract, args)


def cmd_domain_stats(args) -> int:
    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir
    from bb_ocr_ray.stages.domain_agg import domain_stats

    stats = domain_stats(extract_from_sf_dir(args.sf_dir)).to_pandas()
    stats = stats.sort_values("domain")
    if args.out:
        stats.to_csv(args.out, index=False)
    print(stats.to_string(index=False))
    return 0


def cmd_query(args) -> int:
    """Run one registry query standalone; write parquet or print.
    ``main`` has already answered ``list`` and rejected unknown names."""
    import pandas as pd
    import ray.data

    from bb_ocr_ray.pipelines.queries import QUERIES
    from bb_ocr_ray.schema import PARQUET_COMPRESSION

    res = QUERIES[args.name](args.sf_dir)
    if args.out:
        if isinstance(res, ray.data.Dataset):
            # materialize once: write_parquet consumes the lazy plan,
            # and a following count() would re-run it from scratch
            res = res.materialize()
            res.write_parquet(args.out, compression=PARQUET_COMPRESSION)
            n = res.count()
        else:
            df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
            import os

            os.makedirs(args.out, exist_ok=True)
            df.to_parquet(f"{args.out}/part-0.parquet", index=False,
                          compression=PARQUET_COMPRESSION)
            n = len(df)
        print(json.dumps({"cmd": "query", "name": args.name,
                          "out": args.out, "rows": int(n)}))
    else:
        df = res.to_pandas() if isinstance(res, ray.data.Dataset) else res
        if not isinstance(df, pd.DataFrame):
            df = df.to_pandas()
        print(df.head(args.limit).to_string(index=False))
        print(f"[{len(df)} rows]")
    return 0


def cmd_lifecycle(args) -> int:
    """Resumable multi-sink lifecycle (accept/reject chain)."""
    from bb_ocr_ray.state.manifest import run_resumable_lifecycle

    return _run_resumable("lifecycle", run_resumable_lifecycle, args,
                          llm_backend=args.llm_backend)


def cmd_dedup_index(args) -> int:
    """Persisted cross-run seen-set: build the index, or apply it to a
    new batch (keep never-seen-before rows) and optionally append the
    survivors' keys as a delta."""
    import os

    import ray.data as rd

    from bb_ocr_ray.schema import PARQUET_COMPRESSION
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             incremental_dedup,
                                             update_hash_index)

    # enumerate *.parquet explicitly: a resumable run root also holds
    # manifest/*.json lineage records, which a bare dir read trips on.
    # Skip what pyarrow's dataset discovery skips, "_"/"." names: a
    # killed pass leaves never-published rows under _staging/
    inp = args.inp
    if os.path.isdir(inp):
        hidden = ("_", ".")
        inp = []
        for root, dirs, names in os.walk(args.inp):
            dirs[:] = [d for d in dirs if not d.startswith(hidden)]
            inp += [os.path.join(root, n) for n in names
                    if n.endswith(".parquet") and not n.startswith(hidden)]
        inp.sort()
        if not inp:
            print(f"no parquet files under {args.inp}", file=sys.stderr)
            return 2
    ds = rd.read_parquet(inp)
    if args.action == "build":
        build_hash_index(ds, args.index, key=args.key,
                         n_shards=args.shards)
        print(json.dumps({"cmd": "dedup-index", "action": "build",
                          "index": args.index}))
        return 0
    survivors = incremental_dedup(ds, args.index, key=args.key,
                                  order_col=args.order_col).materialize()
    n = survivors.count()
    if args.out:
        survivors.write_parquet(args.out, compression=PARQUET_COMPRESSION)
    delta = None
    if args.update:
        delta = update_hash_index(survivors, args.index, key=args.key,
                                  n_shards=args.shards)
    print(json.dumps({"cmd": "dedup-index", "action": "apply",
                      "survivors": int(n), "out": args.out,
                      "delta": delta}))
    return 0


def cmd_bench_entry(args) -> int:
    """Smoke the driver contract the way the driver does."""
    sys.path.insert(0, args.repo)
    import __ray_entry__ as e

    ds = e.entry()
    print(json.dumps({"cmd": "entry", "rows": ds.count(),
                      "columns": ds.schema().names}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bb_ocr_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="resumable extraction run")
    pe.add_argument("--sf-dir", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--partitions", type=int, default=8)
    pe.add_argument("--payload-budget-mb", type=int, default=None,
                    help="megadoc skew guard: bound per-block html bytes")
    pe.set_defaults(fn=cmd_extract)

    pdm = sub.add_parser("domain-stats", help="salted per-domain aggregate")
    pdm.add_argument("--sf-dir", required=True)
    pdm.add_argument("--out", default=None)
    pdm.set_defaults(fn=cmd_domain_stats)

    pq = sub.add_parser("query",
                        help="run a registry query ('list' to enumerate)")
    pq.add_argument("name")
    pq.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    pq.add_argument("--out", default=None,
                    help="parquet output dir (omit to print)")
    pq.add_argument("--limit", type=int, default=20)
    pq.set_defaults(fn=cmd_query)

    pl = sub.add_parser("lifecycle",
                        help="resumable accept/reject lifecycle run")
    pl.add_argument("--sf-dir", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--partitions", type=int, default=8)
    pl.add_argument("--llm-backend", default=None,
                    help="optional enrichment backend (e.g. 'fake')")
    pl.add_argument("--payload-budget-mb", type=int, default=None)
    pl.set_defaults(fn=cmd_lifecycle)

    pdx = sub.add_parser("dedup-index",
                         help="persisted cross-run seen-set (build/apply)")
    pdx.add_argument("action", choices=["build", "apply"])
    pdx.add_argument("--in", dest="inp", required=True,
                     help="input parquet file/dir")
    pdx.add_argument("--index", required=True, help="index directory")
    pdx.add_argument("--key", default="content_hash")
    pdx.add_argument("--order-col", default="url")
    pdx.add_argument("--shards", type=int, default=64)
    pdx.add_argument("--out", default=None,
                     help="survivors parquet dir (apply only)")
    pdx.add_argument("--update", action="store_true",
                     help="append survivors' keys as an index delta")
    pdx.set_defaults(fn=cmd_dedup_index)

    pb = sub.add_parser("entry-smoke", help="run the driver entry() contract")
    pb.add_argument("--repo", default="/root/repo")
    pb.set_defaults(fn=cmd_bench_entry)

    args = p.parse_args(argv)
    if args.cmd == "query":
        # metadata-only paths don't need a Ray cluster
        from bb_ocr_ray.pipelines.queries import QUERIES

        if args.name == "list":
            print("\n".join(sorted(QUERIES)))
            return 0
        if args.name not in QUERIES:
            print(f"unknown query {args.name!r}; available:\n"
                  + "\n".join(sorted(QUERIES)), file=sys.stderr)
            return 2
    _init_ray(args.num_cpus)
    try:
        return args.fn(args)
    finally:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
