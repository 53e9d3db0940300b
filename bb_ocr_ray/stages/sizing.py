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

A side whose blocks already exist is HELD: a driver result
(``from_driver``, ``from_pandas``/``from_arrow``/``from_blocks``) or a
materialized Dataset, optionally under ``select_columns``.
``collect_if_fits`` reads a held side back with
``ray.get`` and no Ray execution, under the same limit and in the same
Arrow bytes as a lazy side, so a chain of driver steps (the salt strip
after the first ``domain_stats`` fold, the pair dedup after the band
fold, the edges, the drop set) never pushes a table the driver already
holds through a remote map just to read it back.  ``from_driver`` wraps
each driver result with block metadata computed locally.

``fold_buckets(ds, pre, bucket_col, fn)`` asks the same question of a
coarse-bucket fold's stamped side, the side the shuffle would move:
``pre`` is the per-batch stamp (combiner plus bucket column).  A held
input is stamped in this process block by block as it is read back,
and the stamped bytes are counted against the limit; any other input
(and a held corpus under a sketch stamp, which stays on the workers)
is probed as ``ds.map_batches(pre)``.  Both decide on the same bytes.
When the stamped side fits, the fold runs once over the whole side on
the driver instead of one reducer task per bucket after a sort
shuffle.  Every bucket-oblivious coarse fold in the package is gated
here: ``coarse.coarse_agg`` (every caller, domain_stats among them)
and ``coarse.grouped_per_key``; in ``dedup``, ``dedup_exact``,
``dedup_pairs``, the MinHash and SimHash band folds, both folds of
``set_similarity_join``, ``paragraph_dedup`` and ``dup_span_stats``;
``ann.embedding_near_dups``' band fold, ``lookup.dedup_offers``,
``graph._distinct_nodes``,
``layout_stage.reading_order_stage``, the distinct-key fold of
``state/hash_index`` and the ``q_posting_lists`` and
``q_running_total`` queries.  Each in-bucket function is
bucket-oblivious and each stamp a per-row map or a re-foldable
combiner, so both paths give the same rows.  A two-fold stage whose
first fold ran on the driver hands the second a held side, stamped
here with no Ray execution.  Every fold reads its bucket count from
``joins._auto_num_buckets()`` at call time, except the hash index
(its shard count) and a ``coarse_agg`` whose caller sizes the count
from its input (``pagerank``, ``hits``).  A side whose plan still holds an unexecuted all-to-all (a
shuffle, sort, repartition, aggregate or join) is not probed: reading
its first batch would run that whole barrier and everything above it,
all of it thrown away when the side turns out too big, so such a side
goes straight to the shuffle.

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


def _held_blocks(ds):
    """The blocks of a Dataset that already holds them, read back with
    ``ray.get`` (no execution) as Ray stores them (pandas or Arrow), or
    ``None`` for any other Dataset.  Held: a ``from_pandas``/
    ``from_arrow``/``from_blocks``/``from_items`` source or a
    materialized Dataset, optionally under ``select_columns``
    projections, which are applied here.  Returns a generator, so a
    caller that stops early never fetches the remaining blocks."""
    try:
        from ray.data._internal.logical.operators.from_operators import \
            AbstractFrom
        from ray.data._internal.logical.operators.input_data_operator \
            import InputData
        from ray.data._internal.logical.operators.map_operator import Project

        op = ds._logical_plan.dag
    except Exception:  # noqa: BLE001 — no readable plan: not held
        return None
    projects = []
    while isinstance(op, Project) and not (op.exprs or op.cols_rename):
        projects.append(op.cols)
        op = op.input_dependencies[0]
    if not isinstance(op, (AbstractFrom, InputData)):
        return None

    def blocks():
        import ray

        for bundle in op.output_data():
            for ref, _meta in bundle.blocks:
                block = ray.get(ref)
                for cols in reversed(projects):
                    block = (block.select(cols) if isinstance(block, pa.Table)
                             else block[cols])
                yield block

    return blocks()


def is_held(ds) -> bool:
    """True when ``ds`` already holds its blocks (see ``_held_blocks``):
    ``collect_if_fits`` reads such a side with no Ray execution."""
    return _held_blocks(ds) is not None


def held_table(ds) -> pa.Table | None:
    """All of a held ``ds`` as one Arrow table, read back with no
    execution and NO size check, or ``None`` when ``ds`` is not held.
    Only for a side derived on the driver from one that
    ``collect_if_fits`` already let in (the components of a gated pair
    set), so it is no larger than what the driver already held."""
    blocks = _held_blocks(ds)
    if blocks is None:
        return None
    return pa.concat_tables([_arrow(b) for b in blocks],
                            promote_options="permissive")


def _arrow(block) -> pa.Table:
    """A pandas or Arrow block as Arrow, the form the lazy probe reads.
    Ray types every column of an empty pandas block as null: keep its
    dtypes instead, objects read as string."""
    from ray.data.block import BlockAccessor

    if isinstance(block, pa.Table):
        return block
    if len(block):
        return BlockAccessor.for_block(block).to_arrow()
    return pa.schema(
        [pa.field(f.name, pa.string() if pa.types.is_null(f.type) else f.type)
         for f in pa.Schema.from_pandas(block, preserve_index=False)]
    ).empty_table()


def collect_if_fits(ds, pre=None, batch_format="pandas") -> pa.Table | None:
    """The whole of ``ds`` (or, given the per-batch map ``pre``, of
    ``ds.map_batches(pre, batch_format=batch_format)``) as ONE Arrow
    table on the driver, or ``None`` when it does not fit
    ``_BROADCAST_LIMIT_BYTES``.

    A held side (``is_held``: blocks that already exist, such as a
    driver result or a materialized Dataset) is read back block by
    block with ``ray.get``, with no execution, and each non-empty block
    put through ``pre`` here as it arrives.  Any other side is rejected
    at once when the metadata estimate is already over the limit, else
    streamed with ``iter_batches``.  Either way the bytes counted are
    the Arrow bytes of the side after ``pre``, and the read gives up as
    soon as they pass the limit, so the driver never holds more than
    the limit plus one block, and a held side answers exactly as the
    same rows behind a lazy map would.  A lazy side that is too big
    wastes the work that produced its first ``limit`` bytes, which the
    caller's shuffle path runs again; a side behind an unexecuted
    shuffle runs that whole shuffle before its first batch, so callers
    materialize a side first where re-running its lineage would be
    dear (``fold_buckets`` does not probe such a side at all).  An
    empty side fits (a negative limit pushes even that over), and comes
    back as an empty table with the Dataset's columns (no columns at
    all when a held side went through ``pre``)."""
    from ray.data.block import BlockAccessor

    limit = _BROADCAST_LIMIT_BYTES
    if limit < 0:
        return None
    blocks = _held_blocks(ds)
    if blocks is not None:
        if pre is not None:
            def as_batch(block):
                acc = BlockAccessor.for_block(block)
                return (acc.to_arrow() if batch_format == "pyarrow" else
                        acc.to_pandas() if batch_format == "pandas" else
                        block)

            blocks = (pre(as_batch(b)) for b in blocks
                      if BlockAccessor.for_block(b).num_rows())
        batches = map(_arrow, blocks)
    else:
        if pre is not None:
            ds = ds.map_batches(pre, batch_format=batch_format)
        if estimate_size_bytes(ds) > limit:
            return None
        batches = ds.iter_batches(batch_size=None, batch_format="pyarrow")
    parts, seen = [], 0
    for batch in batches:
        seen += batch.nbytes
        if seen > limit:
            return None
        parts.append(batch)
    if parts:
        # blocks of one side can disagree on a type (an int column
        # upcast to double by a null in one pandas block)
        return pa.concat_tables(parts, promote_options="permissive")
    schema = None if pre is not None else ds.schema()
    if schema is None:
        return pa.table({})
    return pa.schema(
        [pa.field(n, t if isinstance(t, pa.DataType) else pa.string())
         for n, t in zip(schema.names, schema.types)]).empty_table()


def typed_empty(ds) -> pa.Table | None:
    """A 0-row Arrow table with ``ds``'s columns and types, or ``None``
    when they cannot be told without rows.

    Ray never calls a map's function on an empty block, so a Dataset
    whose every block came out of a map empty reports no schema at all.
    Here the plan is walked up to the nearest operator whose schema is
    known without execution (a read, held blocks), and the plain-function
    ``map_batches``, filters, column selections and renames between it
    and ``ds`` are run in this process on a 0-row table of that schema.
    Any other operator on the way (a callable class, a row map, an
    all-to-all) gives ``None``, and so does a map that raises or yields
    nothing on 0 rows."""
    import inspect

    import ray
    from ray.data._internal.logical.operators.from_operators import \
        AbstractFrom
    from ray.data._internal.logical.operators.input_data_operator import \
        InputData
    from ray.data._internal.logical.operators.map_operator import (
        Filter, MapBatches, Project)
    from ray.data._internal.logical.operators.read_operator import Read

    op, chain = ds._logical_plan.dag, []
    while not isinstance(op, (AbstractFrom, InputData, Read)):
        if not (isinstance(op, Filter)
                or (isinstance(op, Project) and not op.exprs)
                or (isinstance(op, MapBatches)
                    and inspect.isfunction(op._fn)
                    and op._batch_format in ("pandas", "pyarrow", None))):
            return None
        chain.append(op)
        op = op.input_dependencies[0]
    if isinstance(op, Read):
        table = op.infer_schema()
        if not isinstance(table, pa.Schema):
            return None
        table = table.empty_table()
    else:
        refs = [ref for bundle in op.output_data() for ref, _ in bundle.blocks]
        if not refs:
            return None
        table = _arrow(ray.get(refs[0])).slice(0, 0)
    try:
        for op in reversed(chain):
            if isinstance(op, Project):
                if op.cols:
                    table = table.select(op.cols)
                if op.cols_rename:
                    table = table.rename_columns([op.cols_rename.get(c, c)
                                                  for c in table.column_names])
            elif isinstance(op, MapBatches):
                out = op._fn(table.to_pandas() if op._batch_format == "pandas"
                             else table, *(op._fn_args or ()),
                             **(op._fn_kwargs or {}))
                if inspect.isgenerator(out):
                    out = next(out, None)
                table = _arrow(out).slice(0, 0)
    except Exception:  # noqa: BLE001 — a map that cannot take 0 rows
        return None
    return table


def to_frame(ds):
    """``ds.to_pandas()`` that keeps ``ds``'s columns when it has no
    rows: Ray builds the frame from batches, and an empty block gives
    none, so its own answer then has no columns at all."""
    df = ds.to_pandas()
    if len(df) or len(df.columns):
        return df
    empty = typed_empty(ds)
    return df if empty is None else empty.to_pandas()


def from_driver(frame):
    """A Dataset holding ``frame`` (a pandas DataFrame or an Arrow table
    computed on the driver), with the blocks ``rd.from_pandas`` would
    build but their metadata computed here, where ``from_pandas``
    starts one remote task per block for it.  The frame is cut into
    about one block per ``target_min_block_size``, at most the
    cluster-sized bucket count, so the maps and writes downstream of a
    large driver result still run in parallel."""
    import ray.data as rd
    from ray.data import DataContext

    from bb_ocr_ray.stages.joins import _auto_num_buckets

    ctx = DataContext.get_current()
    if isinstance(frame, pa.Table):
        nbytes = frame.nbytes
    else:
        if ctx.enable_tensor_extension_casting:
            from ray.air.util.data_batch_conversion import \
                _cast_ndarray_columns_to_tensor_extension

            frame = _cast_ndarray_columns_to_tensor_extension(
                frame.copy(deep=False))
        nbytes = int(frame.memory_usage(index=False).sum())
    n = min(_auto_num_buckets(), nbytes // ctx.target_min_block_size)
    if n <= 1:
        return rd.from_blocks([frame])
    step = -(-len(frame) // n)
    rows = frame if isinstance(frame, pa.Table) else frame.iloc
    return rd.from_blocks([rows[i:i + step]
                           for i in range(0, len(frame), step)])


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


def fold_buckets(ds, pre, bucket_col: str, fn, batch_format="pandas",
                 stamp_here: bool = True, fn_format="pandas"):
    """``ds.map_batches(pre).groupby(bucket_col).map_groups(fn)``, or,
    when the stamped side fits the driver, ``fn`` run ONCE over the
    whole stamped side in the driver process: no shuffle, no reducer
    tasks.

    ``pre`` is the per-batch stamp that adds ``bucket_col`` (with any
    combiner), called with whole blocks as ``batch_format`` batches.
    The gate (``collect_if_fits``) always measures what the stamp
    makes, in Arrow bytes.  A held input (``is_held``) is read back
    block by block with no execution and each block stamped here as it
    arrives, so the driver holds at most the limit of stamped rows plus
    one block and decides exactly as the lazy probe would.  Any other
    input, and a held one when ``stamp_here`` is False (a stamp too
    dear to run serially on the driver, such as a corpus-wide sketch
    that also multiplies the rows), is probed as
    ``ds.map_batches(pre)`` on the workers.  ``fn`` takes its buckets
    as ``fn_format`` batches: pandas, or "pyarrow" for a fold that must
    carry nested list columns, which pandas cannot round-trip.

    Exact only for a bucket-oblivious ``fn``, one whose answer on any
    union of whole buckets is the union of its per-bucket answers (a
    per-key fold whose keys never straddle buckets, a drop_duplicates
    on the columns the bucket is derived from), and a ``pre`` whose
    per-batch outputs fold to the same answer however the side is cut
    into batches (a per-row map, a re-foldable combiner).  A 0-row
    stamped side that fits gives ``fn`` run once on the typed 0-row
    stamp (``_empty_fold``), so the result carries the fold's columns.

    Cost of a lazy side that does not fit: the probe stops once it has
    read the limit in Arrow bytes, and the shuffle then re-runs the
    side's lineage from the start, so the work thrown away is what
    produced the side's first ``_BROADCAST_LIMIT_BYTES`` (for a side
    that shrinks its input a lot, such as per-batch partial
    aggregates, that can be a large share of the upstream).  A side
    behind an unexecuted all-to-all is never probed
    (``_behind_all_to_all``), so an over-limit side never re-runs a
    whole shuffle.  The driver result is returned through
    ``from_driver``."""
    stamped = ds.map_batches(pre, batch_format=batch_format,
                             batch_size=None)
    if stamp_here and is_held(ds):
        table = collect_if_fits(ds, pre, batch_format)
    elif _behind_all_to_all(ds):
        table = None
    else:
        table = collect_if_fits(stamped)
    if table is None:
        return stamped.groupby(bucket_col).map_groups(fn,
                                                      batch_format=fn_format)
    if not table.num_rows:
        return _empty_fold(ds, pre, fn, table, batch_format, fn_format)
    return from_driver(fn(table if fn_format == "pyarrow"
                          else table.to_pandas()))


def _empty_fold(ds, pre, fn, stamped: pa.Table, batch_format, fn_format):
    """``fold_buckets``' answer for a 0-row stamped side: ``fn`` on the
    typed 0-row stamp.  When the probe saw no columns (Ray knows no
    schema for blocks a map left empty, and a held side's empty blocks
    never reach ``pre``), ``pre`` is first run on ``typed_empty(ds)``.
    When the columns cannot be told, or ``fn`` cannot take 0 rows, the
    answer is a 0-row Dataset with no columns, as the shuffle gives."""
    import ray.data as rd

    try:
        if not stamped.num_columns:
            empty = typed_empty(ds)
            if empty is None:
                return rd.from_items([])
            stamped = _arrow(pre(empty if batch_format != "pandas"
                                 else empty.to_pandas())).slice(0, 0)
        # as Arrow: Ray cannot size an empty pandas object column and
        # logs a warning for each
        return from_driver(_arrow(fn(stamped if fn_format == "pyarrow"
                                     else stamped.to_pandas())))
    except Exception:  # noqa: BLE001 — a fold that cannot take 0 rows
        return rd.from_items([])


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
