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
  its own content, so re-running the same update is a no-op (skip if
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


def build_hash_index(ds, index_dir: str, key: str = "content_hash",
                     n_shards: int = 64) -> str:
    """Distinct ``key`` values of ``ds`` -> ``index_dir/shard=K/``.

    One coarse shuffle (per-batch distinct partials, shard-keyed fold);
    atomic publish.  Returns ``index_dir``."""

    def local(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key: b[key].drop_duplicates()
                            .astype(str).to_numpy()})
        out["shard"] = shard_of(out[key], n_shards)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=[key])

    distinct = (ds.map_batches(local, batch_format="pandas")
                .groupby("shard").map_groups(fold, batch_format="pandas"))
    tmp = f"{index_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    distinct.write_parquet(tmp, partition_cols=["shard"])
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

    The delta directory is named by a digest of the batch's sorted
    distinct keys, so re-running the same update is a skip, not a
    duplicate.  Returns the delta path (None if it already existed).
    The key set must be small enough to digest on the driver relative
    to the batch (it is distinct-key-sized, the same order as the
    index write itself); the parquet write is still distributed."""
    _check_meta(index_dir, key, n_shards)

    def local(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: b[key].drop_duplicates()
                             .astype(str).to_numpy()})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=[key]).drop(columns=["_sh"])

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_sh"] = shard_of(b[key], n_shards)
        return b

    distinct = (ds.map_batches(local, batch_format="pandas")
                .map_batches(stamp, batch_format="pandas")
                .groupby("_sh").map_groups(fold, batch_format="pandas")
                .materialize())
    # content address: order-insensitive digest of the distinct keys
    # (per-block digests fold on the driver — block-count values)
    def block_digest(b: pd.DataFrame) -> pd.DataFrame:
        h = hashlib.sha256("\x1e".join(sorted(b[key])).encode()).hexdigest()
        return pd.DataFrame({"d": [h], "n": [len(b)]})

    parts = distinct.map_batches(block_digest,
                                 batch_format="pandas").to_pandas()
    if parts.empty or int(parts["n"].sum()) == 0:
        return None                               # nothing new: skip
    digest = hashlib.sha256(
        "\x1e".join(sorted(parts["d"])).encode()).hexdigest()[:16]
    delta_dir = os.path.join(index_dir, f"delta-{digest}")
    if os.path.isdir(delta_dir):
        return None                               # idempotent re-update
    def shard_col(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["shard"] = shard_of(b[key], n_shards)
        return b

    tmp = f"{delta_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    distinct.map_batches(shard_col, batch_format="pandas").write_parquet(
        tmp, partition_cols=["shard"])
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
    shards (the listing itself costs one walk either way)."""
    import ray.data as rd

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
    return rd.read_parquet(sorted(files), columns=[key])


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
