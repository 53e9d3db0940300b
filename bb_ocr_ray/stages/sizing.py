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
    never holds more than the limit plus one block, and a side that is
    too big costs at most the limit in wasted work before the caller's
    shuffle path runs it again (callers materialize a side first where
    re-running its lineage would be dear).  An empty side fits, and
    comes back as an empty table with the Dataset's columns."""
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
