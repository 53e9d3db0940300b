"""Lineage manifest + kill/restart resume test (FIXTURES.md §3)."""

import glob
import json
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bb_ocr_ray.state.manifest import (
    PartitionPlan,
    RunManifest,
    fold_digests,
    output_digest,
    plan_partitions,
    run_resumable_extract,
    run_resumable_lifecycle,
)


def test_plan_partitions_hash_fallback():
    plans = plan_partitions(["/in/one.parquet"], 4)
    assert len(plans) == 4
    assert all(p.hash_bucket == p.partition_id for p in plans)
    assert all(p.n_buckets == 4 for p in plans)


def test_digest_order_insensitive():
    d1 = output_digest(["b", "a"], [2, 1])
    d2 = output_digest(["a", "b"], [1, 2])
    assert d1 == d2
    assert output_digest(["a"], [1]) != output_digest(["a"], [2])


def test_manifest_idempotent_rerun(tmp_path):
    m = RunManifest(str(tmp_path))
    plan = PartitionPlan(0, ("f1",), None, None)
    m.record(plan, 10, "abc")
    m.record(plan, 10, "abc")            # same digest: fine
    with pytest.raises(RuntimeError):
        m.record(plan, 10, "DIFFERENT")  # divergent rerun: refused
    assert m.completed()[0]["row_count"] == 10


def test_kill_restart_no_dupes_no_missing(ray_session, sf_tiny, tmp_path):
    out_root = str(tmp_path / "run")

    # phase 1: run only the first 3 partitions, then "crash"
    n_parts = 6
    from bb_ocr_ray.state import manifest as mod

    orig = mod.plan_partitions

    def truncated_plan(fragments, n):
        return orig(fragments, n)[:3]

    mod.plan_partitions = truncated_plan
    try:
        n_run, n_skipped = run_resumable_extract(sf_tiny, out_root, n_parts)
    finally:
        mod.plan_partitions = orig
    assert (n_run, n_skipped) == (3, 0)

    # phase 2: restart — completed partitions skipped, rest run
    n_run2, n_skipped2 = run_resumable_extract(sf_tiny, out_root, n_parts)
    assert (n_run2, n_skipped2) == (3, 3)

    # invariant: output urls are EXACTLY the input urls (no dupes/missing)
    part_dirs = [os.path.join(out_root, d) for d in sorted(os.listdir(out_root))
                 if d.startswith("part-") and not d.endswith(".tmp")]
    assert len(part_dirs) == n_parts
    urls = []
    for d in part_dirs:
        urls.extend(pq.read_table(d, columns=["url"]).column("url").to_pylist())
    n_docs = duckdb.sql(
        f"SELECT count(*) FROM '{sf_tiny}/documents.parquet'"
    ).fetchone()[0]
    assert len(urls) == n_docs
    assert len(set(urls)) == n_docs

    # manifest digests are stable across a full re-run of one partition
    man = RunManifest(out_root).completed()
    assert len(man) == n_parts
    first = man[0]
    assert set(first) == {"partition_id", "fragment_ids", "hash_bucket",
                          "n_buckets", "bucket_key", "row_count", "digest",
                          "completed_ts", "metrics"}
    assert first["metrics"]["docs_per_sec"] > 0

    # phase 3: delete one partition's output (keep manifest), re-run —
    # it is rebuilt with an identical digest (idempotency under retry)
    import shutil

    victim = part_dirs[0]
    shutil.rmtree(victim)
    n_run3, n_skipped3 = run_resumable_extract(sf_tiny, out_root, n_parts)
    assert (n_run3, n_skipped3) == (1, 5)
    man2 = RunManifest(out_root).completed()
    assert man2[0]["digest"] == man[0]["digest"]


def test_manifest_digest_covers_published_content(ray_session, sf_tiny,
                                                  tmp_path):
    """Each partition's manifest digest is output_digest over the
    (url, text) rows it published — a same-length content change must
    change the digest, so lengths alone do not count."""
    out_root = str(tmp_path / "content")
    run_resumable_extract(sf_tiny, out_root, 3)
    man = RunManifest(out_root).completed()
    assert len(man) == 3
    for pid, rec in man.items():
        t = pq.read_table(os.path.join(out_root, f"part-{pid:05d}"),
                          columns=["url", "text"])
        urls = t.column("url").to_pylist()
        texts = t.column("text").to_pylist()
        assert rec["digest"] == output_digest(urls, texts), pid
        assert rec["row_count"] == len(urls)
    assert output_digest(["a"], ["xy"]) != output_digest(["a"], ["yx"])

    # the lifecycle runner keys its digest by url and decision sink
    from bb_ocr_ray.state.manifest import run_resumable_lifecycle

    lc_root = str(tmp_path / "lc")
    run_resumable_lifecycle(sf_tiny, lc_root, 2)
    for pid, rec in RunManifest(lc_root).completed().items():
        t = pq.read_table(os.path.join(lc_root, f"part-{pid:05d}"),
                          columns=["url", "text", "decision"])
        keys = [f"{u}\x1f{d}" for u, d in
                zip(t.column("url").to_pylist(),
                    t.column("decision").to_pylist())]
        assert rec["digest"] == output_digest(
            keys, t.column("text").to_pylist()), pid


def test_lifecycle_kill_restart_both_sinks(ray_session, sf_tiny, tmp_path):
    """Kill mid-lifecycle, restart: 0 duplicates / 0 missing across
    BOTH the accepted and rejected sinks, and both sinks publish
    atomically per partition (VERDICT r3 item 7)."""
    import duckdb

    from bb_ocr_ray.config import ExtractConfig, PipelineConfig
    from bb_ocr_ray.state.manifest import (RunManifest,
                                           run_resumable_lifecycle)

    out_root = str(tmp_path / "lc")
    n_parts = 4
    # a small oversize gate marks the largest docs status=truncated ->
    # REJECTED rows, so both sinks carry data (the synthetic corpus
    # otherwise validates 100%)
    cfg = PipelineConfig(extract=ExtractConfig(max_html_bytes=3_000))

    # phase 1: "crash" after 2 of 4 partitions
    from bb_ocr_ray.state import manifest as mod

    orig = mod.plan_partitions
    mod.plan_partitions = lambda frags, n: orig(frags, n)[:2]
    try:
        n_run, n_skipped = run_resumable_lifecycle(sf_tiny, out_root,
                                                   n_parts,
                                                   pipeline_cfg=cfg)
    finally:
        mod.plan_partitions = orig
    assert (n_run, n_skipped) == (2, 0)

    # phase 2: restart — completed partitions skipped, rest run
    assert run_resumable_lifecycle(sf_tiny, out_root, n_parts,
                                   pipeline_cfg=cfg) == (2, 2)

    part_dirs = [os.path.join(out_root, d)
                 for d in sorted(os.listdir(out_root))
                 if d.startswith("part-") and ".tmp" not in d]
    assert len(part_dirs) == n_parts
    urls, decisions = [], []
    for d in part_dirs:
        # partitions publish atomically with their decision= subdirs
        assert all(s.startswith("decision=") for s in os.listdir(d)), d
        t = pq.read_table(d, columns=["url", "decision"])
        urls.extend(t.column("url").to_pylist())
        decisions.extend(
            str(x) for x in t.column("decision").to_pylist())
    n_docs = duckdb.sql(
        f"SELECT count(*) FROM '{sf_tiny}/documents.parquet'"
    ).fetchone()[0]
    assert len(urls) == n_docs          # 0 missing across BOTH sinks
    assert len(set(urls)) == n_docs     # 0 duplicates across BOTH sinks
    assert set(decisions) == {"accepted", "rejected"}

    # manifest carries per-sink counts and a decision-aware digest;
    # a retried partition converges to the identical digest
    man = RunManifest(out_root).completed()
    assert all(m["metrics"]["n_accepted"] + m["metrics"]["n_rejected"]
               == m["row_count"] for m in man.values())
    assert sum(m["metrics"]["n_rejected"] for m in man.values()) > 0
    import shutil as sh

    sh.rmtree(part_dirs[0])
    assert run_resumable_lifecycle(sf_tiny, out_root, n_parts,
                                   pipeline_cfg=cfg) == (1, 3)
    assert RunManifest(out_root).completed()[0]["digest"] == man[0]["digest"]


def test_resume_with_payload_budget(ray_session, sf_tiny, tmp_path):
    """The production runner honors payload_block_budget_mb and its
    digests match the unbudgeted run (sizing never changes content)."""
    from bb_ocr_ray.config import PipelineConfig
    from bb_ocr_ray.state.manifest import RunManifest, run_resumable_extract

    plain = str(tmp_path / "plain")
    budgeted = str(tmp_path / "budgeted")
    run_resumable_extract(sf_tiny, plain, 2)
    cfg = PipelineConfig(payload_block_budget_mb=1)
    run_resumable_extract(sf_tiny, budgeted, 2, pipeline_cfg=cfg)
    d_plain = {k: v["digest"] for k, v in RunManifest(plain).completed().items()}
    d_budg = {k: v["digest"] for k, v in RunManifest(budgeted).completed().items()}
    assert d_plain == d_budg


def test_resume_refuses_changed_partition_plan(ray_session, sf_tiny, tmp_path):
    """Review regression: resuming with a different n_partitions must
    refuse loudly instead of silently duplicating/dropping rows."""
    out = str(tmp_path / "plan")
    run_resumable_extract(sf_tiny, out, 4)
    with pytest.raises(RuntimeError, match="plan mismatch"):
        run_resumable_extract(sf_tiny, out, 8)


def test_manifest_compaction_resume_bounded(tmp_path):
    """VERDICT r4 item 8: 10^4 completed partitions resume through ONE
    snapshot read plus the post-compaction tail — O(new work), not
    O(total partitions) file opens — with every kill/restart invariant
    (idempotent rerun digest guard, merge-over-snapshot) intact."""
    import time

    m = RunManifest(str(tmp_path), compact_threshold=100_000)
    n = 10_000
    for pid in range(n):
        m.record(PartitionPlan(pid, (f"frag-{pid}",), None, None),
                 10, f"d{pid}")
    assert m.compact() == n
    assert m._tail_names() == []

    # a restarted driver: fresh manifest object, cold caches
    m2 = RunManifest(str(tmp_path), compact_threshold=100_000)
    t0 = time.time()
    done = m2.completed()
    dt = time.time() - t0
    assert len(done) == n
    assert done[1234]["digest"] == "d1234"
    assert done[1234]["fragment_ids"] == ["frag-1234"]
    assert dt < 5.0, f"snapshot resume took {dt:.2f}s"

    # new work after compaction lands in the tail and merges on top
    m2.record(PartitionPlan(n, ("frag-x",), None, None), 3, "dx")
    done2 = m2.completed(auto_compact=False)
    assert len(done2) == n + 1 and done2[n]["digest"] == "dx"

    # the non-idempotent-rerun guard survives compaction: the per-pid
    # file was folded + deleted, but the snapshot still holds its digest
    with pytest.raises(RuntimeError, match="non-idempotent"):
        m2.record(PartitionPlan(1234, ("frag-1234",), None, None),
                  10, "0" * 16)

    # crash between snapshot write and tail deletion: a leftover tail
    # file (same content) merges idempotently over the snapshot
    m2.record(PartitionPlan(77, ("frag-77",), None, None), 10, "d77")
    done3 = RunManifest(str(tmp_path)).completed(auto_compact=False)
    assert done3[77]["digest"] == "d77" and len(done3) == n + 1


def test_manifest_auto_compacts_past_threshold(tmp_path):
    """completed() folds the tail into the snapshot once it crosses
    compact_threshold; records are never lost or duplicated."""
    m = RunManifest(str(tmp_path), compact_threshold=5)
    for pid in range(12):
        m.record(PartitionPlan(pid, (f"f{pid}",), None, None), 1, f"g{pid}")
    done = m.completed()                  # tail 12 >= 5: compacts
    assert len(done) == 12
    assert m._tail_names() == []
    assert os.path.exists(os.path.join(str(tmp_path), "manifest",
                                       "_snapshot.json"))
    # post-compaction reads see the same world
    assert RunManifest(str(tmp_path)).completed() == done


def test_digest_folds_over_any_split_and_counts_duplicates():
    """A write task's digest covers only its rows: folding the parts'
    digests must give the digest of the whole, wherever it is cut, and
    a duplicated row must change it."""
    keys = [f"https://x/{i}" for i in range(6)]
    texts = [f"text {i}" for i in range(6)]
    whole = output_digest(keys, texts)
    for cut in range(len(keys) + 1):
        assert fold_digests([output_digest(keys[:cut], texts[:cut]),
                             output_digest(keys[cut:], texts[cut:])]) == whole
    assert fold_digests([output_digest(keys[i::3], texts[i::3])
                         for i in range(3)]) == whole
    assert output_digest(["a", "a"], ["t", "t"]) != output_digest(["a"], ["t"])


def test_resume_refuses_doc_id_bucket_manifest(ray_session, sf_tiny,
                                               tmp_path):
    """Partitions used to be crc32(doc_id) buckets; a run root
    completed that way must be refused, not topped up with url
    buckets (which would duplicate and drop rows)."""
    out = str(tmp_path / "old")
    frag = os.path.join(sf_tiny, "documents.parquet")
    os.makedirs(os.path.join(out, "manifest"))
    for pid in range(2):
        os.makedirs(os.path.join(out, f"part-{pid:05d}"))
        with open(os.path.join(out, "manifest",
                               f"part-{pid:05d}.json"), "w") as f:
            json.dump({"partition_id": pid, "fragment_ids": [frag],
                       "hash_bucket": pid, "n_buckets": 2,
                       "row_count": 250, "digest": "0" * 64,
                       "completed_ts": "2026-01-01T00:00:00+00:00",
                       "metrics": {}}, f)
    with pytest.raises(RuntimeError, match="plan mismatch"):
        run_resumable_extract(sf_tiny, out, 2)


def test_stale_staging_files_are_not_published(ray_session, sf_tiny,
                                               tmp_path):
    """Files a killed pass left under _staging/ never reach the output."""
    out = str(tmp_path / "stale")
    stale = os.path.join(out, "_staging", "part-00000")
    os.makedirs(stale)
    pq.write_table(pa.table({"url": ["https://stale.example.com/x"] * 3,
                             "text": ["stale"] * 3}),
                   os.path.join(stale, "x.parquet"))
    assert run_resumable_extract(sf_tiny, out, 2) == (2, 0)
    assert not os.path.exists(os.path.join(out, "_staging"))
    urls = []
    for pid in range(2):
        urls += pq.read_table(os.path.join(out, f"part-{pid:05d}"),
                              columns=["url"]).column("url").to_pylist()
    n_docs = pq.read_metadata(
        os.path.join(sf_tiny, "documents.parquet")).num_rows
    assert len(urls) == len(set(urls)) == n_docs
    assert "https://stale.example.com/x" not in urls


def test_one_runner_call_is_one_dataset_write(ray_session, sf_tiny,
                                              tmp_path, monkeypatch):
    """Four pending partitions are written by ONE Dataset write, not
    one write (and one input scan) per partition.  write_parquet goes
    through write_datasink, so counting the latter counts every write."""
    import ray.data as rd

    calls = []
    orig = rd.Dataset.write_datasink

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "write_datasink", counting)
    assert run_resumable_extract(sf_tiny, str(tmp_path / "one"), 4) == (4, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("cmd", ["extract", "lifecycle"])
@pytest.mark.parametrize("partitions,budget_mb",
                         [(0, None), (-2, None), (4, 0), (4, -1)])
def test_runner_rejects_out_of_range_input(ray_session, sf_tiny, tmp_path,
                                           capsys, cmd, partitions,
                                           budget_mb):
    """A partition count or payload budget below 1 is a ValueError from
    both runners, and exit status 2 with the message from the CLI."""
    import argparse

    from bb_ocr_ray import cli
    from bb_ocr_ray.config import PipelineConfig

    runner = {"extract": run_resumable_extract,
              "lifecycle": run_resumable_lifecycle}[cmd]
    cfg = (None if budget_mb is None
           else PipelineConfig(payload_block_budget_mb=budget_mb))
    out = str(tmp_path / "run")
    with pytest.raises(ValueError, match="must be >= 1"):
        runner(sf_tiny, out, partitions, pipeline_cfg=cfg)
    args = argparse.Namespace(sf_dir=sf_tiny, out=out,
                              partitions=partitions,
                              payload_budget_mb=budget_mb, llm_backend=None)
    assert getattr(cli, f"cmd_{cmd}")(args) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_extract_then_line_filter_through_runner(ray_session, sf_tiny,
                                                 tmp_path):
    """Extraction and curation meet in the resumable runner: pages ->
    extract_pages -> curate.line_filter through ``_run_pass``' stage
    seam publishes exactly the rows line_filter makes of the same
    extracted rows, and a rerun skips every partition with every
    manifest digest unchanged."""
    import ray.data as rd

    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages
    from bb_ocr_ray.sources.pages import read_pages
    from bb_ocr_ray.stages.curate import line_filter
    from bb_ocr_ray.state.manifest import _run_pass

    # the RefinedWeb rule of q_corpus_pipeline: extracted template
    # text carries no terminal punctuation, so C4's rule keeps nothing
    def stage(pages, cfg):
        return line_filter(extract_pages(pages, cfg), 15, False)

    out_root = str(tmp_path / "curated")
    assert _run_pass(sf_tiny, out_root, 4, None, stage) == (4, 0)
    man = RunManifest(out_root).completed()
    got = pa.concat_tables(
        pq.read_table(os.path.join(out_root, f"part-{pid:05d}"),
                      columns=["url", "text", "n_lines", "n_kept"])
        for pid in sorted(man)).to_pandas()
    assert sum(rec["row_count"] for rec in man.values()) == len(got)

    extracted = extract_pages(read_pages(sf_tiny)).to_pandas()
    want = line_filter(rd.from_pandas(extracted[["url", "text"]]),
                       15, False).to_pandas()
    assert len(got) == len(want) == len(extracted)
    got, want = (f.sort_values("url").reset_index(drop=True)
                 for f in (got, want))
    for c in ("url", "text", "n_lines", "n_kept"):
        assert got[c].tolist() == want[c].tolist(), c
    assert (want["n_kept"] < want["n_lines"]).any()
    assert (want["n_kept"] > 0).any()

    assert _run_pass(sf_tiny, out_root, 4, None, stage) == (0, 4)
    again = RunManifest(out_root).completed()
    assert {p: r["digest"] for p, r in again.items()} == {
        p: r["digest"] for p, r in man.items()}


@pytest.mark.parametrize("runner", [run_resumable_extract,
                                    run_resumable_lifecycle],
                         ids=["extract", "lifecycle"])
def test_manifest_parquet_bytes_match_files(ray_session, sf_tiny, tmp_path,
                                            runner):
    """Each partition's manifest metrics carry ``parquet_bytes``, the
    summed on-disk size of the Parquet files published for it."""
    out_root = str(tmp_path / "run")
    assert runner(sf_tiny, out_root, 4) == (4, 0)
    man = RunManifest(out_root).completed()
    assert sorted(man) == [0, 1, 2, 3]
    for pid, rec in man.items():
        files = glob.glob(os.path.join(out_root, f"part-{pid:05d}", "**",
                                       "*.parquet"), recursive=True)
        on_disk = sum(os.path.getsize(f) for f in files)
        assert rec["metrics"]["parquet_bytes"] == on_disk > 0


@pytest.mark.parametrize("runner", [run_resumable_extract,
                                    run_resumable_lifecycle],
                         ids=["extract", "lifecycle"])
def test_manifest_without_parquet_bytes_still_resumes(ray_session, sf_tiny,
                                                      tmp_path, runner):
    """A manifest written before ``parquet_bytes`` was recorded resumes:
    its partitions are skipped, and a lost partition reruns to the same
    digest, now with its ``parquet_bytes``."""
    out_root = str(tmp_path / "run")
    assert runner(sf_tiny, out_root, 4) == (4, 0)
    before = RunManifest(out_root).completed()
    for path in glob.glob(os.path.join(out_root, "manifest", "part-*.json")):
        with open(path) as f:
            rec = json.load(f)
        del rec["metrics"]["parquet_bytes"]
        with open(path, "w") as f:
            json.dump(rec, f)
    os.remove(os.path.join(out_root, "manifest", "part-00002.json"))
    assert runner(sf_tiny, out_root, 4) == (1, 3)
    after = RunManifest(out_root).completed()
    assert {p: r["digest"] for p, r in after.items()} == {
        p: r["digest"] for p, r in before.items()}
    assert [p for p, r in sorted(after.items())
            if "parquet_bytes" in r["metrics"]] == [2]
    files = glob.glob(os.path.join(out_root, "part-00002", "**",
                                   "*.parquet"), recursive=True)
    assert (after[2]["metrics"]["parquet_bytes"]
            == sum(os.path.getsize(f) for f in files) > 0)


def _part_files(out_root: str, pid: int) -> list:
    return sorted(glob.glob(os.path.join(out_root, f"part-{pid:05d}", "**",
                                         "*.parquet"), recursive=True))


@pytest.mark.parametrize("runner", [run_resumable_extract,
                                    run_resumable_lifecycle],
                         ids=["extract", "lifecycle"])
def test_one_file_per_partition(ray_session, sf_tiny, tmp_path, runner):
    """The pass routes rows by partition before the stage, so each
    partition is written by one task as one Parquet file (the lifecycle
    runner: one per decision=* dir), and holds exactly the rows with
    crc32(url) % n == pid."""
    from bb_ocr_ray.functions.hashing import crc32

    out_root, n = str(tmp_path / "run"), 4
    assert runner(sf_tiny, out_root, n) == (n, 0)
    for pid in range(n):
        files = _part_files(out_root, pid)
        dirs = [os.path.dirname(f) for f in files]
        assert len(set(dirs)) == len(dirs) >= 1, files
        if runner is run_resumable_lifecycle:
            assert all(os.path.basename(d).startswith("decision=")
                       for d in dirs), files
        else:
            assert dirs == [os.path.join(out_root, f"part-{pid:05d}")]
        urls = pq.read_table(os.path.join(out_root, f"part-{pid:05d}"),
                             columns=["url"]).column("url").to_pylist()
        assert urls and all(crc32(u) % n == pid for u in urls), pid


@pytest.mark.parametrize("runner", [run_resumable_extract,
                                    run_resumable_lifecycle],
                         ids=["extract", "lifecycle"])
def test_non_contiguous_pending_reruns_to_same_digests(ray_session, sf_tiny,
                                                       tmp_path, runner):
    """With only the manifests of partitions 1, 3 and 6 lost, the
    pending set is not a range: the rerun routes its rows to those three
    partitions alone, one file each, with the digests of the first run."""
    out_root, n = str(tmp_path / "run"), 8
    assert runner(sf_tiny, out_root, n) == (n, 0)
    before = RunManifest(out_root).completed()
    for pid in (1, 3, 6):
        os.remove(os.path.join(out_root, "manifest", f"part-{pid:05d}.json"))
    assert runner(sf_tiny, out_root, n) == (3, 5)
    after = RunManifest(out_root).completed()
    assert {p: (r["row_count"], r["digest"]) for p, r in after.items()} == {
        p: (r["row_count"], r["digest"]) for p, r in before.items()}
    for pid in (1, 3, 6):
        dirs = [os.path.dirname(f) for f in _part_files(out_root, pid)]
        assert len(set(dirs)) == len(dirs) >= 1, pid


@pytest.mark.parametrize("runner", [run_resumable_extract,
                                    run_resumable_lifecycle],
                         ids=["extract", "lifecycle"])
def test_zero_row_documents_records_empty_partitions(ray_session, sf_tiny,
                                                     tmp_path, runner):
    """A documents.parquet with no rows completes every partition empty,
    and the rerun skips them all."""
    sf = tmp_path / "sf_empty"
    sf.mkdir()
    docs = pq.read_table(os.path.join(sf_tiny, "documents.parquet"))
    pq.write_table(docs.slice(0, 0), str(sf / "documents.parquet"))
    out_root, n = str(tmp_path / "run"), 4
    assert runner(str(sf), out_root, n) == (n, 0)
    man = RunManifest(out_root).completed()
    assert sorted(man) == list(range(n))
    assert all(r["row_count"] == 0 for r in man.values())
    assert all(os.path.isdir(os.path.join(out_root, f"part-{pid:05d}"))
               for pid in range(n))
    assert runner(str(sf), out_root, n) == (0, n)
