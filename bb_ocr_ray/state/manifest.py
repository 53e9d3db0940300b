"""Per-partition lineage + idempotent resume (north_rule checkpointing).

The reference has NO resume — re-running re-processes everything; the
only prior-art is the output-file existence check
(``pipeline_demo/i2j_ui/app/main.py:851-857``) and the design doc's
local-cache-before-API decision (SURVEY.md J6).  This module supplies
the real thing for a batch engine:

  - output is written in named partitions, each to a temp dir that is
    atomically renamed to ``part-{pid:05d}`` on success;
  - each completed partition writes ``manifest/part-{pid:05d}.json``
    (atomic write-temp-rename) holding FIXTURES.md §3 lineage fields:
    partition_id, fragment_ids, row_count, digest, completed_ts;
  - on restart, completed partitions are skipped (the anti-join of
    planned work against the manifest), so a killed run resumes with
    no duplicate and no missing rows;
  - manifest writes are idempotent per pid, so Ray task retries that
    re-run a partition converge to the same state (digest equality is
    asserted on rewrite).

Partition planning: with many input fragments (the real 10^12-doc
layout), partitions are contiguous chunks of the sorted fragment list —
each partition reads ONLY its own files.  With fewer fragments than
partitions (single-file test tables), planning falls back to url-hash
buckets: every partition scans the input but filters to its bucket —
correct, resumable, and documented as the small-input degenerate case.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from datetime import datetime, timezone


@dataclass(frozen=True)
class PartitionPlan:
    partition_id: int
    fragment_ids: tuple     # input files this partition covers
    hash_bucket: int | None  # set in hash-bucket fallback mode
    n_buckets: int | None


def plan_partitions(fragments: list, n_partitions: int) -> list:
    """Deterministic partition plan from the sorted input fragment list."""
    frags = sorted(fragments)
    if len(frags) >= n_partitions:
        chunks = [[] for _ in range(n_partitions)]
        for i, f in enumerate(frags):   # round-robin keeps sizes balanced
            chunks[i % n_partitions].append(f)
        return [
            PartitionPlan(pid, tuple(c), None, None)
            for pid, c in enumerate(chunks)
        ]
    return [
        PartitionPlan(pid, tuple(frags), pid, n_partitions)
        for pid in range(n_partitions)
    ]


def output_digest(urls: list, texts: list) -> str:
    """sha256 over sorted (url, text) pairs — the lineage digest.

    Each field is length-prefixed, so no url or text content can be
    confused with a field or pair boundary."""
    h = hashlib.sha256()
    for u, t in sorted(zip(urls, texts)):
        u, t = str(u), str(t)
        h.update(f"{len(u)}:{u}{len(t)}:{t}".encode("utf-8"))
    return h.hexdigest()


class RunManifest:
    """Filesystem-backed manifest: one JSON file per completed partition,
    periodically COMPACTED into a snapshot (VERDICT r4 item 8).

    A 10^5-partition run would otherwise pay 10^5 file opens + JSON
    parses on every resume.  ``completed()`` loads ``_snapshot.json``
    (one read holding every folded record) plus only the TAIL of
    per-partition files written since the last compaction — resume
    cost is O(new work), not O(total partitions).  When the tail
    exceeds ``compact_threshold``, ``completed()`` folds it into a
    fresh snapshot (atomic write-temp-rename, then tail deletion; a
    crash between the two leaves both, and the merge prefers the tail
    file, which compaction proved digest-identical).  Per-partition
    RECORDING is unchanged — still one atomic idempotent file per
    partition, so concurrent task retries never contend on the
    snapshot."""

    _SNAPSHOT = "_snapshot.json"

    def __init__(self, root: str, compact_threshold: int = 512):
        self.root = root
        self.manifest_dir = os.path.join(root, "manifest")
        self.compact_threshold = compact_threshold
        os.makedirs(self.manifest_dir, exist_ok=True)
        self._snapshot_cache: dict | None = None

    def _path(self, pid: int) -> str:
        return os.path.join(self.manifest_dir, f"part-{pid:05d}.json")

    def _snapshot_path(self) -> str:
        return os.path.join(self.manifest_dir, self._SNAPSHOT)

    def _load_snapshot(self) -> dict:
        if self._snapshot_cache is None:
            p = self._snapshot_path()
            if os.path.exists(p):
                with open(p) as f:
                    data = json.load(f)
                self._snapshot_cache = {
                    int(k): v for k, v in data["records"].items()}
            else:
                self._snapshot_cache = {}
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
        tmp = f"{self._snapshot_path()}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump({"records": {str(k): v for k, v in records.items()}},
                      f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._snapshot_path())       # atomic
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
            "row_count": row_count,
            "digest": digest,
            "completed_ts": datetime.now(timezone.utc).isoformat(),
            # per-partition run metrics (north_rule: lineage + metrics)
            "metrics": metrics or {},
        }
        prior_path = self._path(plan.partition_id)
        prior = None
        if os.path.exists(prior_path):          # O(1), not a full manifest scan
            with open(prior_path) as f:
                prior = json.load(f)
        if prior is None:
            # the partition's file may have been folded into the
            # snapshot (and deleted) by a compaction — the
            # non-idempotent-rerun guard must survive that
            prior = self._load_snapshot().get(plan.partition_id)
        if prior is not None and prior["digest"] != digest:
            raise RuntimeError(
                f"partition {plan.partition_id}: non-idempotent rerun, digest "
                f"{prior['digest'][:12]} != {digest[:12]}"
            )
        # unique tmp name: a concurrent/stale second writer must never
        # truncate the file another process is about to os.replace
        tmp = f"{self._path(plan.partition_id)}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(rec, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._path(plan.partition_id))   # atomic
        return rec


def run_resumable_extract(sf_dir: str, out_root: str, n_partitions: int = 8,
                          pipeline_cfg=None):
    """Resumable flagship run: pages(sf_dir) -> extract -> partitioned parquet.

    Returns (n_run, n_skipped).  Kill it at any point and call again:
    completed partitions are skipped via the manifest anti-join.
    """
    from bb_ocr_ray.config import DEFAULT_PIPELINE
    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages

    cfg = pipeline_cfg or DEFAULT_PIPELINE
    return _run_partitions(
        sf_dir, out_root, n_partitions, cfg,
        stage=lambda pages: extract_pages(pages, cfg))


def _skip_completed(plan, prior, part_dir) -> bool:
    """True if ``plan`` is already durably complete; raises on a plan
    mismatch (restarting with a different n_partitions or fragment
    layout would silently duplicate/drop rows)."""
    if prior is None or not os.path.isdir(part_dir):
        return False
    same_plan = (
        prior.get("fragment_ids") == list(plan.fragment_ids)
        and prior.get("hash_bucket", plan.hash_bucket) == plan.hash_bucket
        and prior.get("n_buckets", plan.n_buckets) == plan.n_buckets
    )
    if not same_plan:
        raise RuntimeError(
            f"partition {plan.partition_id}: manifest plan mismatch "
            f"(was fragments={prior.get('fragment_ids')} bucket="
            f"{prior.get('hash_bucket')}/{prior.get('n_buckets')}, "
            f"now {list(plan.fragment_ids)} bucket="
            f"{plan.hash_bucket}/{plan.n_buckets}) — rerun with the "
            "original n_partitions or a fresh out_root"
        )
    return True


def _pages_for_plan(plan, cfg):
    """The partition's page stream: read ONLY the plan's fragments,
    hash-bucket filter in fallback mode, synthesize pages, and honor
    the payload block budget."""
    from bb_ocr_ray.functions.hashing import crc32
    from bb_ocr_ray.sources.pages import pages_batch
    from bb_ocr_ray.sources.tables import read_parquet_clean

    docs = read_parquet_clean(list(plan.fragment_ids),
                              columns=["doc_id", "text", "lang"])
    if plan.hash_bucket is not None:
        bucket, nb = plan.hash_bucket, plan.n_buckets
        docs = docs.map_batches(
            lambda b, bucket=bucket, nb=nb: b[
                [crc32(str(d)) % nb == bucket for d in b["doc_id"]]
            ],
            batch_format="pandas",
        )
    pages = docs.map_batches(pages_batch, batch_format="pyarrow")
    if cfg.payload_block_budget_mb:
        from bb_ocr_ray.stages.sizing import split_by_bytes

        pages = split_by_bytes(
            pages, "html", max_bytes=cfg.payload_block_budget_mb << 20
        )
    return pages


def _read_back(part_tmp_dir: str, columns: list):
    """Read a just-written partition for the lineage digest; an EMPTY
    partition (hash-bucket fallback with more buckets than rows) has
    zero parquet files, which pq.read_table rejects — return a typed
    empty table instead so the manifest records 0 rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = [os.path.join(root, n)
             for root, _d, names in os.walk(part_tmp_dir)
             for n in names if n.endswith(".parquet")]
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pq.read_table(part_tmp_dir, columns=columns)


def _run_partitions(sf_dir, out_root, n_partitions, cfg, stage,
                    partition_cols=None, extra_metrics=None):
    """The resumable partition loop shared by both runners.

    For each planned partition not already complete: ``stage`` maps
    the partition's page stream to the Dataset to publish, which is
    written (hive-split by ``partition_cols``) to a temp dir, read
    back for the lineage digest, atomically renamed to
    ``part-{pid:05d}`` and recorded in the manifest.  The digest key
    is the url joined by ``\\x1f`` with the row's partition values, so
    a row moved between sinks changes it.  ``extra_metrics(table)``
    adds runner-specific counters to the record's metrics.  Returns
    (n_run, n_skipped)."""
    import contextlib

    from bb_ocr_ray.stages.sizing import block_budget

    # honor the payload budget for the whole per-partition pipeline (the
    # DataContext is snapshotted at Dataset creation — see sizing.py)
    budget_ctx = (
        block_budget(cfg.payload_block_budget_mb << 20)
        if cfg.payload_block_budget_mb else contextlib.nullcontext()
    )
    fragments = [os.path.join(sf_dir, "documents.parquet")]
    plans = plan_partitions(fragments, n_partitions)
    manifest = RunManifest(out_root)
    done = manifest.completed()

    key_cols = ["url", *(partition_cols or [])]
    n_run = n_skipped = 0
    with budget_ctx:
        for plan in plans:
            part_dir = os.path.join(out_root,
                                    f"part-{plan.partition_id:05d}")
            if _skip_completed(plan, done.get(plan.partition_id), part_dir):
                n_skipped += 1
                continue
            out_ds = stage(_pages_for_plan(plan, cfg))

            t0 = time.time()
            tmp_dir = f"{part_dir}.tmp.{os.getpid()}"
            shutil.rmtree(tmp_dir, ignore_errors=True)
            out_ds.write_parquet(tmp_dir, partition_cols=partition_cols)
            os.makedirs(tmp_dir, exist_ok=True)  # empty partition: 0 files
            out_tbl = _read_back(tmp_dir, [*key_cols, "text"])
            keys = ["\x1f".join(map(str, k)) for k in
                    zip(*(out_tbl.column(c).to_pylist() for c in key_cols))]
            texts = out_tbl.column("text").to_pylist()
            digest = output_digest(keys, texts)
            shutil.rmtree(part_dir, ignore_errors=True)
            os.replace(tmp_dir, part_dir)                # atomic publish
            wall = time.time() - t0
            metrics = {
                "wall_s": round(wall, 3),
                "docs_per_sec": round(out_tbl.num_rows / wall, 1) if wall else 0,
                "extracted_chars": sum(map(len, texts)),
            }
            if extra_metrics is not None:
                metrics.update(extra_metrics(out_tbl))
            manifest.record(plan, out_tbl.num_rows, digest, metrics=metrics)
            n_run += 1
    return n_run, n_skipped


def run_resumable_lifecycle(sf_dir: str, out_root: str,
                            n_partitions: int = 8,
                            llm_backend: str | None = None,
                            llm_model: str = "fake-model",
                            pipeline_cfg=None):
    """Resumable MULTI-SINK lifecycle (VERDICT r3 item 7): pages ->
    extract (-> enrich) -> metadata -> validation -> accept/reject
    partitioned sinks, checkpointed per resume partition.

    Layout: ``part-{pid:05d}/decision=accepted/`` and
    ``.../decision=rejected/`` — BOTH lifecycle sinks live inside one
    atomically-published partition dir, so a kill can never leave an
    accepted row without its sibling reject set: either the whole
    partition (both sinks) published, or neither did.  The lineage
    digest covers (url, decision, text) so a divergent rerun of
    either sink is refused.

    Returns (n_run, n_skipped)."""
    from bb_ocr_ray.config import DEFAULT_PIPELINE
    from bb_ocr_ray.pipelines.lifecycle import lifecycle_decided

    cfg = pipeline_cfg or DEFAULT_PIPELINE

    def decision_counts(tbl) -> dict:
        decisions = [str(d) for d in tbl.column("decision").to_pylist()]
        return {"n_accepted": decisions.count("accepted"),
                "n_rejected": decisions.count("rejected")}

    return _run_partitions(
        sf_dir, out_root, n_partitions, cfg,
        stage=lambda pages: lifecycle_decided(pages, llm_backend,
                                              llm_model, cfg=cfg),
        partition_cols=["decision"], extra_metrics=decision_counts)
