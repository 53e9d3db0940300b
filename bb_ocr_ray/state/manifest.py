"""Per-partition lineage + idempotent resume (north_rule checkpointing).

The reference has NO resume — re-running re-processes everything; the
only prior-art is the output-file existence check
(``pipeline_demo/i2j_ui/app/main.py:851-857``) and the design doc's
local-cache-before-API decision (SURVEY.md J6).  Here:

  - partition ``pid`` holds the rows with ``crc32(url) % n == pid``;
  - a run is ONE pass: the input is read once, the rows of pending
    partitions are routed by partition (one task per pending partition)
    and flow through the stage, and one :class:`LineageDatasink` stages
    each partition, one file per task, under ``_staging/`` and returns
    its lineage;
  - then each pending partition is atomically renamed to
    ``part-{pid:05d}`` and recorded in ``manifest/part-{pid:05d}.json``
    (write-temp-rename) with the FIXTURES.md §3 lineage fields;
  - a restart skips completed partitions (the anti-join of planned
    work against the manifest): no duplicate and no missing rows;
  - a partition's digest may never change on rewrite.

The recovery unit is the pass and the lineage unit is the partition: a
driver killed mid-pass publishes nothing of that pass, and the restart
redoes every pending partition in one pass (SCALE.md §5).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
from ray.data import Datasink
from ray.data.block import BlockAccessor

from bb_ocr_ray.functions.hashing import crc32
from bb_ocr_ray.schema import PARQUET_COMPRESSION

# the row field hashed into partitions; recorded so a manifest written
# under another bucket key is refused instead of silently mixed
BUCKET_KEY = "url"
_DIGEST_MOD = 1 << 256


@dataclass(frozen=True)
class PartitionPlan:
    partition_id: int
    fragment_ids: tuple     # input files the partition's rows come from
    hash_bucket: int | None  # crc32(url) % n_buckets of its rows
    n_buckets: int | None


def plan_partitions(fragments: list, n_partitions: int) -> list:
    """Deterministic plan: partition ``pid`` holds the rows of every
    fragment whose ``crc32(url) % n_partitions == pid``."""
    frags = tuple(sorted(fragments))
    return [PartitionPlan(pid, frags, pid, n_partitions)
            for pid in range(n_partitions)]


def output_digest(keys: list, texts: list) -> str:
    """The lineage digest: sum mod 2**256 of each row's sha256 over its
    length-prefixed (key, text).  A sum is order-insensitive, folds
    across write tasks (:func:`fold_digests`) and, unlike a set hash,
    still counts a duplicated row."""
    total = 0
    for k, t in zip(keys, texts):
        k, t = str(k), str(t)
        row = f"{len(k)}:{k}{len(t)}:{t}".encode("utf-8")
        total += int.from_bytes(hashlib.sha256(row).digest(), "big")
    return f"{total % _DIGEST_MOD:064x}"


def fold_digests(digests) -> str:
    """output_digest of a concatenation, from the parts' digests."""
    return f"{sum(int(d, 16) for d in digests) % _DIGEST_MOD:064x}"


class RunManifest:
    """Filesystem-backed manifest: one JSON file per completed partition,
    periodically COMPACTED into a snapshot (VERDICT r4 item 8).

    ``completed()`` reads ``_snapshot.json`` plus only the TAIL of
    per-partition files written since the last compaction, so resume
    costs O(new work), not O(total partitions); past
    ``compact_threshold`` tail files it folds them into a fresh snapshot
    (write-temp-rename, then tail deletion; a crash between the two
    leaves both, and the merge prefers the identical tail file).
    Recording stays one atomic idempotent file per partition."""

    def __init__(self, root: str, compact_threshold: int = 512):
        self.manifest_dir = os.path.join(root, "manifest")
        self.compact_threshold = compact_threshold
        self.snapshot_path = os.path.join(self.manifest_dir, "_snapshot.json")
        os.makedirs(self.manifest_dir, exist_ok=True)
        self._snapshot_cache: dict | None = None

    def _path(self, pid: int) -> str:
        return os.path.join(self.manifest_dir, f"part-{pid:05d}.json")

    def _load_snapshot(self) -> dict:
        if self._snapshot_cache is None:
            self._snapshot_cache = {}
            if os.path.exists(self.snapshot_path):
                with open(self.snapshot_path) as f:
                    self._snapshot_cache = {
                        int(k): v for k, v in json.load(f)["records"].items()}
        return self._snapshot_cache

    def _tail_names(self) -> list:
        return sorted(
            n for n in os.listdir(self.manifest_dir)
            if n.startswith("part-") and n.endswith(".json"))

    def completed(self, auto_compact: bool = True) -> dict:
        out = dict(self._load_snapshot())
        tail = self._tail_names()
        for name in tail:
            with open(os.path.join(self.manifest_dir, name)) as f:
                rec = json.load(f)
            out[rec["partition_id"]] = rec
        if auto_compact and len(tail) >= self.compact_threshold:
            self._write_snapshot(out, tail)
        return out

    def compact(self) -> int:
        """Fold every tail file into the snapshot; returns the number
        of records folded.  Safe to call any time (including never)."""
        tail = self._tail_names()
        self._write_snapshot(self.completed(auto_compact=False), tail)
        return len(tail)

    def _write_snapshot(self, records: dict, tail_names: list) -> None:
        _write_json_atomic(self.snapshot_path, {
            "records": {str(k): v for k, v in records.items()}})
        self._snapshot_cache = dict(records)
        # delete the folded tail AFTER the snapshot is durable; a
        # crash mid-delete leaves extra files whose content the
        # snapshot already holds (merge is idempotent)
        for name in tail_names:
            try:
                os.remove(os.path.join(self.manifest_dir, name))
            except FileNotFoundError:
                pass

    def record(self, plan: PartitionPlan, row_count: int, digest: str,
               metrics: dict | None = None) -> dict:
        rec = {
            "partition_id": plan.partition_id,
            "fragment_ids": list(plan.fragment_ids),
            "hash_bucket": plan.hash_bucket,
            "n_buckets": plan.n_buckets,
            "bucket_key": BUCKET_KEY,
            "row_count": row_count,
            "digest": digest,
            "completed_ts": datetime.now(timezone.utc).isoformat(),
            # per-partition run metrics (north_rule: lineage + metrics)
            "metrics": metrics or {},
        }
        prior_path = self._path(plan.partition_id)
        if os.path.exists(prior_path):          # O(1), not a full manifest scan
            with open(prior_path) as f:
                prior = json.load(f)
        else:   # possibly folded into the snapshot by a compaction
            prior = self._load_snapshot().get(plan.partition_id)
        if prior is not None and prior["digest"] != digest:
            raise RuntimeError(
                f"partition {plan.partition_id}: non-idempotent rerun, digest "
                f"{prior['digest'][:12]} != {digest[:12]}"
            )
        _write_json_atomic(self._path(plan.partition_id), rec)
        return rec


def _write_json_atomic(path: str, obj) -> None:
    # unique tmp name: a concurrent/stale second writer must never
    # truncate the file another process is about to os.replace
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)                         # atomic


def run_resumable_extract(sf_dir: str, out_root: str, n_partitions: int = 8,
                          pipeline_cfg=None):
    """Resumable flagship run: pages(sf_dir) -> extract -> partitioned parquet.

    Returns (n_run, n_skipped).  Kill it at any point and call again:
    completed partitions are skipped via the manifest anti-join.
    """
    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages

    return _run_pass(sf_dir, out_root, n_partitions, pipeline_cfg,
                     stage=extract_pages)


def _skip_completed(plan, prior, part_dir) -> bool:
    """True if ``plan`` is already durably complete; raises on a plan
    mismatch (restarting with a different n_partitions, fragment layout
    or bucket key would silently duplicate/drop rows)."""
    if prior is None or not os.path.isdir(part_dir):
        return False
    was = [prior.get(k) for k in
           ("fragment_ids", "hash_bucket", "n_buckets", "bucket_key")]
    now = [list(plan.fragment_ids), plan.hash_bucket, plan.n_buckets,
           BUCKET_KEY]
    if was != now:
        raise RuntimeError(
            f"partition {plan.partition_id}: manifest plan mismatch (was "
            f"{was}, now {now}) — rerun with the original n_partitions "
            "or a fresh out_root")
    return True


def _buckets(urls: list, n_buckets: int) -> list:
    return [crc32(u) % n_buckets for u in urls]


def _stamp_buckets(batch, n_buckets: int, keep: frozenset):
    """Document rows of the pending partitions only, each stamped with
    its partition as ``_bucket`` (the bucket of the url its page gets)."""
    from bb_ocr_ray.sources.pages import url_for

    buckets = _buckets([url_for(d) for d in batch.column("doc_id").to_pylist()],
                       n_buckets)
    mask = pa.array([b in keep for b in buckets], pa.bool_())
    return batch.append_column(
        "_bucket", pa.array(buckets, pa.int64())).filter(mask)


class LineageDatasink(Datasink):
    """Parquet sink that splits rows by partition and returns lineage.

    Each write task stages bucket ``b``'s rows, hive-split by ``split``
    when set, under ``staging/part-{b:05d}/`` in files named by the
    task index, so a retried task overwrites its own files.  The pass
    routes rows by partition before the stage, so a task normally holds
    one bucket and writes one file for it (one per ``split`` value);
    the split by bucket here keeps lineage right for any stage.  Per bucket
    it returns rows, text chars, the on-disk bytes of the files it
    wrote, row counts per ``split`` value and the content digest keyed
    by url (joined by ``\\x1f`` with the ``split`` value, so a row
    moved between sinks changes it)."""

    def __init__(self, staging: str, n_buckets: int, split: str | None):
        self.staging, self.n_buckets, self.split = staging, n_buckets, split
        self.returns: list = []

    def write(self, blocks, ctx) -> dict:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}
        tbl = pa.concat_tables(tables, promote_options="default")
        buckets = pa.array(_buckets(tbl.column("url").to_pylist(),
                                    self.n_buckets))
        options = pads.ParquetFileFormat().make_write_options(
            compression=PARQUET_COMPRESSION)
        out = {}
        for b in sorted(set(buckets.to_pylist())):
            part = tbl.filter(pc.equal(buckets, b))
            written = []
            pads.write_dataset(
                part, os.path.join(self.staging, f"part-{b:05d}"),
                format="parquet", file_options=options,
                partitioning=[self.split] if self.split else None,
                partitioning_flavor="hive",
                basename_template=f"{ctx.task_idx:05d}-{{i}}.parquet",
                existing_data_behavior="overwrite_or_ignore",
                file_visitor=lambda f: written.append(f.size))
            keys = part.column("url").to_pylist()
            values = []
            if self.split:
                values = [str(v) for v in part.column(self.split).to_pylist()]
                keys = [f"{k}\x1f{v}" for k, v in zip(keys, values)]
            texts = part.column("text").to_pylist()
            out[b] = {"rows": part.num_rows, "chars": sum(map(len, texts)),
                      "bytes": sum(written), "counts": Counter(values),
                      "digest": output_digest(keys, texts)}
        return out

    def on_write_complete(self, write_result) -> None:
        self.returns = write_result.write_returns


def check_run_args(n_partitions: int, cfg) -> None:
    """Raise ValueError for a partition count or payload budget below 1."""
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    budget_mb = cfg.payload_block_budget_mb
    if budget_mb is not None and budget_mb < 1:
        raise ValueError(
            f"payload block budget must be >= 1 MB, got {budget_mb}")


def _run_pass(sf_dir, out_root, n_partitions, cfg, stage, split=None):
    """The resumable pass shared by both runners.

    Reads the document rows once, keeps the rows of partitions not
    already complete and routes them by partition (one block per pending
    partition), then templates each block into pages, maps them through
    ``stage(pages, cfg)`` and writes them with one
    :class:`LineageDatasink`: one write task, and one file, per pending
    partition.  Then each pending partition is atomically renamed from
    the staging dir to ``part-{pid:05d}`` and recorded in the manifest.  ``split`` is ``(column, values)``: each
    partition is hive-split by ``column`` and its metrics count the
    rows of each value as ``n_{value}``.  Returns (n_run, n_skipped)."""
    from bb_ocr_ray.config import DEFAULT_PIPELINE
    from bb_ocr_ray.sources.pages import pages_batch, read_documents
    from bb_ocr_ray.stages.sizing import block_budget, split_by_bytes

    cfg = cfg or DEFAULT_PIPELINE
    check_run_args(n_partitions, cfg)
    budget_mb = cfg.payload_block_budget_mb
    split_col, split_values = split or (None, ())

    plans = plan_partitions([os.path.join(sf_dir, "documents.parquet")],
                            n_partitions)
    manifest = RunManifest(out_root)
    done = manifest.completed()
    staging = os.path.join(out_root, "_staging")
    shutil.rmtree(staging, ignore_errors=True)    # a killed pass's files

    def part_dir(pid):
        return os.path.join(out_root, f"part-{pid:05d}")

    pending = [p for p in plans if not _skip_completed(
        p, done.get(p.partition_id), part_dir(p.partition_id))]
    if not pending:
        return 0, len(plans)

    # honor the payload budget for the whole pass (the DataContext is
    # snapshotted at Dataset creation — see sizing.py)
    sink = LineageDatasink(staging, n_partitions, split_col)
    t0 = time.time()
    with (block_budget(budget_mb << 20) if budget_mb
          else contextlib.nullcontext()):
        ids = [p.partition_id for p in pending]
        docs = read_documents(sf_dir).map_batches(
            _stamp_buckets, batch_format="pyarrow", batch_size=None,
            fn_kwargs={"n_buckets": n_partitions, "keep": frozenset(ids)})
        # route by partition BEFORE templating, so the shuffle moves the
        # document rows and not the html: block k holds partition ids[k]
        docs = (docs.sort("_bucket", boundaries=ids[1:]) if len(ids) > 1
                else docs.repartition(1))
        pages = docs.map_batches(pages_batch, batch_format="pyarrow",
                                 batch_size=None)
        if budget_mb:
            pages = split_by_bytes(pages, "html", max_bytes=budget_mb << 20)
        stage(pages, cfg).write_datasink(sink)
    wall = time.time() - t0
    n_rows = sum(r["rows"] for ret in sink.returns for r in ret.values())

    for plan in pending:
        pid = plan.partition_id
        recs = [ret[pid] for ret in sink.returns if pid in ret]
        counts = sum((r["counts"] for r in recs), Counter())
        staged = os.path.join(staging, f"part-{pid:05d}")
        os.makedirs(staged, exist_ok=True)    # a bucket no row hashed to
        shutil.rmtree(part_dir(pid), ignore_errors=True)
        os.replace(staged, part_dir(pid))                 # atomic publish
        metrics = {"wall_s": round(wall, 3),     # of the pass that wrote it
                   "docs_per_sec": round(n_rows / wall, 1) if wall else 0,
                   "extracted_chars": sum(r["chars"] for r in recs),
                   "parquet_bytes": sum(r["bytes"] for r in recs),
                   **{f"n_{v}": counts[v] for v in split_values}}
        manifest.record(plan, sum(r["rows"] for r in recs),
                        fold_digests(r["digest"] for r in recs),
                        metrics=metrics)
    shutil.rmtree(staging, ignore_errors=True)
    return len(pending), len(plans) - len(pending)


def run_resumable_lifecycle(sf_dir: str, out_root: str,
                            n_partitions: int = 8,
                            llm_backend: str | None = None,
                            llm_model: str = "fake-model",
                            pipeline_cfg=None):
    """Resumable MULTI-SINK lifecycle (VERDICT r3 item 7): pages ->
    extract (-> enrich) -> metadata -> validation -> accept/reject.

    Both sinks, ``decision=accepted/`` and ``decision=rejected/``, live
    inside one atomically-published ``part-{pid:05d}`` dir, so a kill
    never leaves accepted rows without their sibling rejects.  The
    digest covers (url, decision, text), so a divergent rerun of either
    sink is refused.  Returns (n_run, n_skipped)."""
    from bb_ocr_ray.pipelines.lifecycle import lifecycle_decided

    return _run_pass(
        sf_dir, out_root, n_partitions, pipeline_cfg,
        stage=lambda pages, cfg: lifecycle_decided(pages, llm_backend,
                                                   llm_model, cfg=cfg),
        split=("decision", ("accepted", "rejected")))
