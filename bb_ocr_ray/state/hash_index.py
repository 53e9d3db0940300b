"""Cross-run seen-set: a persisted, shard-partitioned hash index.

The reference deduplicates within one process run via an in-memory
seen-set (``pipeline_demo/pricing_api/pricing_api/core/aggregator.py:61-69``)
and skips re-work by checking prior output files
(``i2j_ui/app/main.py:851-857``).  At crawl scale the seen-set is a
PERSISTED artifact that outlives any single run: every recrawl batch
must drop documents whose content hash was already ingested by ANY
prior run.  This module is that artifact for the Ray engine:

* the index is parquet, hash-partitioned into ``shard=K/`` directories
  (shard = md5 of the key text mod n_shards — derived from the key
  itself, so any run computes the same shard with no coordination;
  ``index_meta.json`` pins key + n_shards and drift is refused, since
  a delta written at a different shard count breaks shard pruning);
* ``build_hash_index`` publishes atomically (write to a temp dir, one
  ``os.replace``) — a killed build leaves no index, never half of one;
* ``update_hash_index`` appends a DELTA directory named by a digest of
  its distinct key set (and of nothing else: not of how the keys are
  cut into blocks), so re-running the same update is a no-op (skip if
  the delta exists) and concurrent updates of different batches never
  collide; readers treat duplicate hashes across deltas as harmless
  (anti-join semantics are idempotent in the key);
* ``incremental_dedup`` = global first-per-key within the new batch
  (dedup_exact: one coarse shuffle) then a distributed anti-join
  against the index (``hash_join(how="anti")``: one bucketed
  shuffle).  Only the key column is ever read from the index (column
  pruning); when the new batch is known to touch few shards, pass
  ``shards=`` to prune the index read to those partitions.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd

from bb_ocr_ray.schema import PARQUET_COMPRESSION


def shard_of(keys: pd.Series, n_shards: int) -> np.ndarray:
    """Deterministic shard per key — md5 of the KEY TEXT, never a
    process-dependent hash, so every run agrees.  md5 (not a hex
    prefix of the key itself) because index keys need not be hex:
    URL-keyed or token-keyed indexes share long prefixes, which a
    prefix rule would collapse into one hot shard."""
    md5 = hashlib.md5
    return np.fromiter(
        (int.from_bytes(md5(k.encode("utf-8")).digest()[:4], "little")
         % n_shards for k in keys),
        dtype=np.int64, count=len(keys))


def _distinct_keys(ds, key: str, n_shards: int):
    """(key, shard) rows, one per distinct ``key`` value of ``ds``: a
    per-batch distinct combiner, then one shard-keyed coarse fold
    (``sizing.fold_buckets``: on the driver when the keys fit, else one
    shuffle).  The writes partition on ``shard`` themselves, so the
    fold needs no co-location beyond the dedup."""
    from bb_ocr_ray.stages import sizing

    def local(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key: b[key].drop_duplicates()
                            .astype(str).to_numpy()})
        out["shard"] = shard_of(out[key], n_shards)
        return out

    return sizing.fold_buckets(ds, local, "shard",
                               lambda g: g.drop_duplicates(subset=[key]))


def build_hash_index(ds, index_dir: str, key: str = "content_hash",
                     n_shards: int = 64) -> str:
    """Distinct ``key`` values of ``ds`` -> ``index_dir/shard=K/``.

    One coarse fold (``_distinct_keys``); atomic publish.  Returns
    ``index_dir``."""
    distinct = _distinct_keys(ds, key, n_shards)
    tmp = f"{index_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    distinct.write_parquet(tmp, partition_cols=["shard"],
                           compression=PARQUET_COMPRESSION)
    os.makedirs(tmp, exist_ok=True)              # empty input: 0 files
    with open(os.path.join(tmp, "index_meta.json"), "w") as f:
        import json

        json.dump({"key": key, "n_shards": n_shards}, f)
    shutil.rmtree(index_dir, ignore_errors=True)
    os.replace(tmp, index_dir)
    return index_dir


def _check_meta(index_dir: str, key: str, n_shards: int | None) -> None:
    """Refuse key / shard-count drift: a delta written with a different
    n_shards lands keys in the WRONG shard dirs, which silently breaks
    ``shards=`` pruning (a pruned read would miss those keys)."""
    import json

    path = os.path.join(index_dir, "index_meta.json")
    if not os.path.exists(path):
        return                                   # pre-meta index: legacy
    with open(path) as f:
        meta = json.load(f)
    if meta["key"] != key or (n_shards is not None
                              and meta["n_shards"] != n_shards):
        raise RuntimeError(
            f"hash index at {index_dir} was built with key="
            f"{meta['key']!r}, n_shards={meta['n_shards']}; got key="
            f"{key!r}, n_shards={n_shards} — shard-count drift breaks "
            "shard pruning; use the index's own parameters")


def update_hash_index(ds, index_dir: str, key: str = "content_hash",
                      n_shards: int = 64) -> str | None:
    """Append a batch's distinct keys as a content-addressed delta.

    The delta directory is named by a digest of the batch's distinct
    key set alone: the count and the sum mod 2**64 of a 64-bit md5 of
    each key, folded on the driver from per-block partials
    (block-count rows), so the same keys give the same delta however
    they are cut into blocks, and re-running the same update is a skip,
    not a duplicate.  Returns the delta path (None if it already
    existed or the batch has no key).  The parquet write is
    distributed."""
    _check_meta(index_dir, key, n_shards)

    distinct = _distinct_keys(ds, key, n_shards).materialize()

    def block_sum(b: pd.DataFrame) -> pd.DataFrame:
        md5 = hashlib.md5
        h = np.fromiter(
            (int.from_bytes(md5(k.encode("utf-8")).digest()[:8], "little")
             for k in b[key]), dtype=np.uint64, count=len(b))
        return pd.DataFrame({"n": [np.int64(len(b))],
                             "s": [h.sum(dtype=np.uint64)]})

    parts = distinct.map_batches(block_sum,
                                 batch_format="pandas").to_pandas()
    n = int(parts["n"].sum()) if len(parts) else 0
    if n == 0:
        return None                               # nothing new: skip
    s = int(parts["s"].to_numpy(np.uint64).sum(dtype=np.uint64))
    digest = hashlib.sha256(f"{n}:{s}".encode()).hexdigest()[:16]
    delta_dir = os.path.join(index_dir, f"delta-{digest}")
    if os.path.isdir(delta_dir):
        return None                               # idempotent re-update
    tmp = f"{delta_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    distinct.write_parquet(tmp, partition_cols=["shard"],
                           compression=PARQUET_COMPRESSION)
    os.replace(tmp, delta_dir)
    return delta_dir


def read_hash_index(index_dir: str, key: str = "content_hash",
                    shards: list | None = None):
    """The index (base shards + all deltas) as a one-column Dataset.

    Files are enumerated explicitly (driver-side METADATA only — file
    paths, never rows) because base shards and deltas nest the
    ``shard=`` directory at different depths, which breaks hive
    partition inference.  ``shards`` prunes the read to the named
    shard ids — pass it when the new batch is known to touch few
    shards (the listing itself costs one walk either way).  The read
    drops the files' schema metadata (``read_parquet_clean``), which
    Ray otherwise fails to hash when it concatenates the blocks."""
    import ray.data as rd

    from bb_ocr_ray.sources.tables import read_parquet_clean

    _check_meta(index_dir, key, None)

    want = None if shards is None else {f"shard={s}" for s in shards}
    files = []
    for root, _dirs, names in os.walk(index_dir):
        parts = set(root.split(os.sep))
        if want is not None and not (want & parts):
            continue
        files.extend(os.path.join(root, n) for n in sorted(names)
                     if n.endswith(".parquet"))
    if not files:
        import pandas as _pd

        return rd.from_pandas(_pd.DataFrame(
            {key: _pd.array([], dtype="object")}))
    return read_parquet_clean(sorted(files), columns=[key])


def incremental_dedup(ds, index_dir: str, key: str = "content_hash",
                      order_col: str = "url", shards: list | None = None):
    """Rows of ``ds`` never seen before: global first-per-``key``
    within the batch (deterministic min-``order_col`` winner), minus
    every key present in the persisted index."""
    from bb_ocr_ray.stages.dedup import dedup_exact
    from bb_ocr_ray.stages.joins import hash_join

    firsts = dedup_exact(ds, key=key, order_col=order_col)
    return hash_join(firsts, read_hash_index(index_dir, key, shards),
                     on=key, how="anti")
