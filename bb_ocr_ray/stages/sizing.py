"""Driver-size gate and size-aware repartition (north_rule skew
handling).

``collect_if_fits`` is the ONE answer to "does this side fit the
driver?": every broadcast-or-shuffle fork in the engine (auto_join,
auto_semi/auto_anti, remove_boilerplate, set_similarity_join,
verify_candidates, connected_components_ds, pagerank, hits,
q_lm_quality) collects its small side through it and takes the
shuffle path when it returns ``None``.  The probe is exact, not an
estimate: the side it measures is the side the broadcast path
collects anyway, so a computed input (a filtered key set, a folded
vocabulary) is measured in real Arrow bytes instead of reading as
"unknown".

``fold_buckets`` asks the same question of a coarse-bucket fold's
stamped side: when it fits, the fold runs once over the whole side on
the driver instead of one reducer task per bucket after a sort shuffle.
The gated folds are ``coarse.coarse_agg`` (every caller, domain_stats
among them), ``coarse.grouped_per_key``, ``dedup.dedup_pairs``,
``dedup.minhash_candidates``' band fold and ``dedup.simhash_near_dups``'
band fold; each in-bucket function is bucket-oblivious, so both paths
give the same rows.  A side whose plan still holds an unexecuted
all-to-all (a shuffle, sort, repartition, aggregate or join) is not
probed: reading its first batch would run that whole barrier and
everything above it, all of it thrown away when the side turns out
too big, so such a side goes straight to the shuffle.

Megadocs (multi-MB html payloads) make block sizes — and therefore task
times and worker heaps — wildly uneven if rows are bundled by count.
``split_by_bytes`` re-cuts every batch into sub-batches bounded by a
byte budget on a designated payload column; Ray turns each yielded
sub-batch into its own block, so downstream stages see bounded work
units regardless of row-size skew.  (The reference's analog is the
per-index OCR downscale cap, ``enhanced_extractor.py:487-512`` — bound
the worst-case work per unit.)
"""

from __future__ import annotations

import contextlib

import pyarrow as pa

# above this many bytes a driver collect + per-worker broadcast copy
# stops paying for itself: every worker holds the full table in heap,
# and the driver holds it first.  256 MiB is a comfortable slice of a
# worker heap; scale-proportional sides (customer/supplier at high sf)
# blow past it and route to the shuffle path instead (VERDICT r2 item
# 3).  Read at call time, so tests force the shuffle path by
# monkeypatching it (0, or -1 to push even an empty side over).
_BROADCAST_LIMIT_BYTES = 256 << 20


def estimate_size_bytes(ds) -> int:
    """Metadata-only size estimate for a (possibly lazy) Dataset.
    NEVER ``Dataset.size_bytes()`` — that executes the plan.  Returns
    0 when metadata can't tell (computed datasets with no parquet
    provenance).  Project ops (rename_columns / select_columns) report
    no size of their own but never grow the data, so the walk continues
    upstream through them — the upstream estimate is a safe UPPER
    bound."""
    try:
        op = ds._logical_plan.dag
        while op is not None:
            est = op.infer_metadata().size_bytes or 0
            if est:
                return est
            if type(op).__name__ != "Project" or not op.input_dependencies:
                return 0
            op = op.input_dependencies[0]
        return 0
    except Exception:  # noqa: BLE001 — unknown provenance
        return 0


def collect_if_fits(ds) -> pa.Table | None:
    """The whole of ``ds`` as ONE Arrow table on the driver, or ``None``
    when it does not fit ``_BROADCAST_LIMIT_BYTES``.

    Rejects at once when the metadata estimate is already over the
    limit; otherwise streams the blocks with ``iter_batches`` and gives
    up as soon as the Arrow bytes read pass the limit.  So the driver
    never holds more than the limit plus one block.  A side that is too
    big wastes the work that produced its first ``limit`` bytes, which
    the caller's shuffle path runs again; a side behind an unexecuted
    shuffle runs that whole shuffle before its first batch, so callers
    materialize a side first where re-running its lineage would be dear
    (``fold_buckets`` does not probe such a side at all).  An empty side
    fits, and comes back as an empty table with the Dataset's columns."""
    limit = _BROADCAST_LIMIT_BYTES
    if estimate_size_bytes(ds) > limit:
        return None
    parts, seen = [], 0
    for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        seen += batch.nbytes
        if seen > limit:
            return None
        parts.append(batch)
    if parts:
        # blocks of one side can disagree on a type (an int column
        # upcast to double by a null in one pandas block)
        return pa.concat_tables(parts, promote_options="permissive")
    schema = ds.schema()
    if schema is None:
        return pa.table({})
    return pa.schema(
        [pa.field(n, t if isinstance(t, pa.DataType) else pa.string())
         for n, t in zip(schema.names, schema.types)]).empty_table()


def _behind_all_to_all(ds) -> bool:
    """True when ``ds``'s logical plan still holds an all-to-all operator
    (sort, shuffle, repartition, aggregate) or a join, anywhere
    upstream.  A materialized Dataset's plan starts at its blocks, so
    a barrier that has already run does not count."""
    try:
        from ray.data._internal.logical.operators.all_to_all_operator \
            import AbstractAllToAll
        from ray.data._internal.logical.operators.join_operator import Join

        stack = [ds._logical_plan.dag]
    except Exception:  # noqa: BLE001 — no readable plan: probe as before
        return False
    while stack:
        op = stack.pop()
        if isinstance(op, (AbstractAllToAll, Join)):
            return True
        stack.extend(op.input_dependencies)
    return False


def fold_buckets(ds, bucket_col: str, fn):
    """``ds.groupby(bucket_col).map_groups(fn, batch_format="pandas")``,
    or, when ``collect_if_fits(ds)`` returns the side, ``fn`` run ONCE
    on the whole side in the driver process: no shuffle, no reducer
    tasks.

    Exact only for a bucket-oblivious ``fn``, one whose answer on any
    union of whole buckets is the union of its per-bucket answers (a
    per-key fold whose keys never straddle buckets, a drop_duplicates
    on the columns the bucket is derived from).  A 0-row side gives
    what the shuffle gives it, a 0-row Dataset with no schema, without
    calling ``fn`` on a shape ``map_groups`` never hands it.

    Cost of a side that does not fit: the probe stops once it has read
    the limit in Arrow bytes, and the shuffle then re-runs the side's
    lineage from the start, so the work thrown away is what produced
    the side's first ``_BROADCAST_LIMIT_BYTES`` (for a side that
    shrinks its input a lot, such as per-batch partial aggregates,
    that can be a large share of the upstream).  A side behind an
    unexecuted all-to-all is never probed (``_behind_all_to_all``), so
    an over-limit side never re-runs a whole shuffle.  The driver
    result is cut into about one block per ``target_min_block_size``
    of output, at most the cluster-sized bucket count, so the maps and
    writes downstream of a large folded side still run in parallel."""
    import ray.data as rd
    from ray.data import DataContext

    from bb_ocr_ray.stages.joins import _auto_num_buckets

    table = None if _behind_all_to_all(ds) else collect_if_fits(ds)
    if table is None:
        return ds.groupby(bucket_col).map_groups(fn, batch_format="pandas")
    if not table.num_rows:
        return rd.from_items([])
    out = fn(table.to_pandas())
    n = min(_auto_num_buckets(),
            int(out.memory_usage(index=False).sum())
            // DataContext.get_current().target_min_block_size)
    if n <= 1:
        return rd.from_pandas(out)
    step = -(-len(out) // n)
    return rd.from_pandas([out.iloc[i:i + step]
                           for i in range(0, len(out), step)])


def split_by_bytes(ds, payload_col: str = "html",
                   max_bytes: int = 8 * 1024 * 1024):
    """Yield sub-batches whose summed payload size ≤ max_bytes (a row
    bigger than the budget gets its own block)."""

    def splitter(batch: pa.Table):
        sizes = [len(v) if v is not None else 0
                 for v in batch.column(payload_col).to_pylist()]
        start = 0
        acc = 0
        for i, s in enumerate(sizes):
            if i > start and acc + s > max_bytes:
                yield batch.slice(start, i - start)
                start, acc = i, 0
            acc += s
        if start < batch.num_rows:
            yield batch.slice(start)

    return ds.map_batches(splitter, batch_format="pyarrow", batch_size=None)


@contextlib.contextmanager
def block_budget(max_bytes: int):
    """Temporarily set DataContext.target_max_block_size.

    The streaming executor rebuilds output blocks from generator yields
    up to ``target_max_block_size`` — so bounding per-yield payloads
    (split_by_bytes) only bounds BLOCKS when the context budget agrees.
    Use both together for megadoc stages — and note Ray snapshots the
    DataContext at *Dataset creation*, so the source read must also be
    inside the context:

        with block_budget(8 << 20):
            pages = ray.data.read_parquet(...)
            split_by_bytes(pages, "html", 8 << 20).write_parquet(out)
    """
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev_max = ctx.target_max_block_size
    prev_min = getattr(ctx, "target_min_block_size", None)
    ctx.target_max_block_size = max_bytes
    if prev_min is not None:
        # blocks below target_min_block_size are never split — lower it
        # too or small budgets are silently ignored
        ctx.target_min_block_size = min(prev_min, max_bytes // 2)
    try:
        yield
    finally:
        ctx.target_max_block_size = prev_max
        if prev_min is not None:
            ctx.target_min_block_size = prev_min
