"""Coarse-bucket grouped execution.

Ray grouped ops (``groupby().aggregate`` AND ``groupby().map_groups``)
pay per-GROUP overhead — measured here at ~0.4 ms/group: a native
``aggregate`` over 200k string groups took 74.6 s where the coarse
re-expression below took 0.76 s on identical data (16 cpus).  Natural
keys (content hash, user id, url, token vocabulary, domain, hour
bucket) reach 1e6–1e9 groups at web scale, so no operator may hand Ray
a high-cardinality grouping key directly.

The re-expression: stamp ``hash(key) % B`` (B =
``joins._auto_num_buckets()``, sized to the cluster; every occurrence
of a key lands in exactly one bucket), shuffle ONCE on that bounded key, and do the per-key work
inside the task with vectorized pandas.  Exact same result, per-row
cost instead of per-group.  The in-bucket fold is bucket-oblivious, so
when the stamped side fits the driver (``sizing.fold_buckets``) it
runs once over the whole side there and the shuffle is skipped.

The stamp stage takes no batch size (unlike joins' tag stage, which
bounds its block count with ``_TAG_BATCH``): a large ``batch_size``
makes Ray fuse the stamp with whatever map feeds it, and when that
upstream is expensive (extraction, provider fan-out) one fused task
must pull 262k rows through the WHOLE chain (measured: domain_stats
37 s vs 13 s at 32 cpus).  The combiner already shrinks aggregate
shuffles to near-nothing, so one stamped block per upstream block is
right.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa_lib

from bb_ocr_ray.stages import sizing


def _bucket_ids(frame: pd.DataFrame, keys: list[str],
                coarse_buckets: int) -> np.ndarray:
    """Deterministic bucket id per row from the key columns.

    Numeric keys hash through float64 so a key seen as int64 in one
    block and float64 in another (nulls upcast whole columns) still
    lands in ONE bucket — exact for |key| < 2^53.  String/object keys
    hash as-is.  pd.util hashing is seed-stable across processes.
    """
    if len(keys) == 1:
        k = frame[keys[0]]
        if k.dtype.kind in "iuf":
            k = k.astype("float64")
        h = pd.util.hash_array(k.to_numpy(), categorize=False)
    else:
        kf = frame[keys].copy()
        for c in keys:
            if kf[c].dtype.kind in "iuf":
                kf[c] = kf[c].astype("float64")
        h = pd.util.hash_pandas_object(kf, index=False).to_numpy()
    return (h % coarse_buckets).astype("int64")


def coarse_agg(ds, keys, agg: dict, coarse_buckets: int | None = None,
               partial: bool = True):
    """``groupby(keys).agg(**agg)`` through ONE coarse shuffle, or one
    driver-side fold when the stamped side fits (``sizing.fold_buckets``).

    ``agg`` is pandas named-aggregation: ``{out_col: (in_col, how)}``
    with ``how`` in {"sum", "min", "max", "size", "first", ...} — any
    DISTRIBUTIVE pandas reduction (each key's rows are all present in
    its bucket, so the in-task result is exact, not an approximation).

    ``partial=True`` additionally pre-aggregates inside each map task
    before the shuffle (classic combiner) — valid only when the ``how``
    set is re-foldable (sum of sums, min of mins…).  ``size`` is
    rewritten to a sum-of-partial-counts automatically.  Pass
    ``partial=False`` for non-refoldable reductions (e.g. "first"
    without a defined order, "nunique").
    """
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    keys = list(keys)
    if coarse_buckets is None:
        coarse_buckets = _auto_num_buckets()

    refold = dict(agg)
    if partial:
        # combiner output columns are named like the final ones, so the
        # in-bucket fold re-aggregates them: sum<-sum, min<-min,
        # max<-max, size<-sum of partial sizes
        _REFOLD = {"sum": "sum", "min": "min", "max": "max",
                   "size": "sum", "count": "sum"}
        for out, (col, how) in agg.items():
            if how not in _REFOLD:
                raise ValueError(
                    f"{how!r} is not refoldable; call with partial=False")
            refold[out] = (out, _REFOLD[how])

    # pandas how -> arrow group_by function (the _REFOLD combiner set)
    _ARROW_HOW = {"sum": "sum", "min": "min", "max": "max",
                  "count": "count"}

    def _stamp_pd(b: pd.DataFrame) -> pd.DataFrame:
        if partial:
            b = (b.groupby(keys, as_index=False, dropna=False, sort=False)
                 .agg(**agg))
        else:
            # a value column that IS a key must not be selected twice
            # (pandas duplicates the column and groupby then fails)
            vals = sorted({c for c, _ in agg.values()} - set(keys))
            b = b[keys + vals].copy()
        b["__coarse"] = _bucket_ids(b, keys, coarse_buckets)
        return b

    def _stamp_arrow(t) -> pd.DataFrame:
        # Arrow fast path: the combiner runs as a pyarrow group_by on
        # the zero-copy block — the FULL batch is never converted to
        # pandas; only the shrunk (per-batch-grouped) result is, which
        # keeps the bucket hash (_bucket_ids on a pandas frame)
        # byte-identical to the pandas path so a mixed pandas/arrow
        # block stream can never split one key across buckets.
        # Measured: per-batch stamp CPU 7x cheaper than
        # to_pandas+groupby (0.12 s vs 0.81 s on 800k rows with a wide
        # string payload); end-to-end at sf0.1 the shuffle dominates
        # and wall time is parity — the win is CPU budget at scale,
        # where the stamp runs on every input byte.
        if partial:
            specs, renames, size_outs = [], {}, []
            for out, (col, how) in agg.items():
                if how == "size":
                    size_outs.append(out)
                else:
                    specs.append((col, _ARROW_HOW[how]))
                    renames[f"{col}_{_ARROW_HOW[how]}"] = out
            if size_outs:
                specs.append(([], "count_all"))
                renames["count_all"] = size_outs[0]
            g = t.group_by(keys, use_threads=False).aggregate(specs)
            g = g.rename_columns(
                [renames.get(c, c) for c in g.column_names])
            b = g.to_pandas()
            for out in size_outs[1:]:
                b[out] = b[size_outs[0]]
            # arrow count_all yields int64 like pandas "size"; column
            # ORDER differs (keys last in arrow) — normalize
            b = b[keys + [o for o in agg]]
        else:
            vals = sorted({c for c, _ in agg.values()} - set(keys))
            b = t.select(keys + vals).to_pandas()
        b["__coarse"] = _bucket_ids(b, keys, coarse_buckets)
        return b

    def stamp(b):
        if isinstance(b, pd.DataFrame):
            return _stamp_pd(b)
        try:
            return _stamp_arrow(b)
        except (pa_lib.ArrowNotImplementedError, pa_lib.ArrowInvalid,
                KeyError):
            # arrow kernel gap for this dtype/how (e.g. sum over a
            # grouping key, exotic extension types): identical
            # semantics through the pandas path
            return _stamp_pd(b.to_pandas())

    spec = refold if partial else agg

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return (g.drop(columns=["__coarse"])
                .groupby(keys, as_index=False, dropna=False, sort=True)
                .agg(**spec))

    return sizing.fold_buckets(ds, stamp, "__coarse", fold,
                               batch_format=None)


def grouped_per_key(ds, key: str, fn):
    """``groupby(key).map_groups(fn)`` through ONE coarse shuffle, or
    one driver-side pass when the stamped side fits
    (``sizing.fold_buckets``).

    The map_groups sibling of :func:`coarse_agg`: the shuffle key is
    ``hash(key) % joins._auto_num_buckets()`` and the per-key split happens
    IN-TASK with a pandas groupby — ``fn`` sees exactly the frames
    ``map_groups`` would have given it, one key per call.
    ``dropna=False`` mirrors Ray's null-key group.
    """
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    coarse_buckets = _auto_num_buckets()

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__coarse"] = _bucket_ids(b, [key], coarse_buckets)
        return b

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        all_parts = [fn(sub.drop(columns=["__coarse"]))
                     for _, sub in g.groupby(key, sort=True, dropna=False)]
        if not all_parts:
            # a 0-row side, folded on the driver: fn's columns come
            # from fn on the typed 0-row frame
            return fn(g.drop(columns=["__coarse"]))
        parts = [p for p in all_parts if len(p)]
        if not parts:
            # every key folded to nothing: return one of the empty
            # results — it carries fn's output schema, and unlike a
            # fn(empty_frame) call it never asks fn to handle an input
            # shape map_groups would not have given it
            return all_parts[0]
        return pd.concat(parts, ignore_index=True)

    return sizing.fold_buckets(ds, stamp, "__coarse", per_bucket)
