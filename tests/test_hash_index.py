"""Cross-run persisted seen-set (state/hash_index): build, delta
update, shard pruning, and incremental dedup semantics."""

import os

import pandas as pd
import pytest


def _docs(rows):
    import ray.data as rd

    return rd.from_items(rows).repartition(3)


def test_build_update_dedup_roundtrip(ray_session, tmp_path):
    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             incremental_dedup,
                                             read_hash_index,
                                             update_hash_index)

    def row(i, text):
        return {"content_hash": md5_hex(text), "url": f"u{i:03d}",
                "text": text}

    run1 = [row(i, f"doc {i}") for i in range(10)]
    idx = str(tmp_path / "idx")
    build_hash_index(_docs(run1), idx, n_shards=8)
    assert sorted(read_hash_index(idx).to_pandas()["content_hash"]) == \
        sorted({r["content_hash"] for r in run1})

    # run 2: 5 previously-seen contents + 4 new (one duplicated twice
    # inside the batch -> first-per-hash winner is the min url)
    run2 = ([row(100 + i, f"doc {i}") for i in range(5)]
            + [row(200, "new A"), row(201, "new B"), row(202, "new C"),
               row(203, "new C"), row(199, "new C")])
    out = (incremental_dedup(_docs(run2), idx, order_col="url")
           .to_pandas().sort_values("content_hash").reset_index(drop=True))
    assert len(out) == 3                      # A, B, C — seen ones gone
    c_hash = run2[-1]["content_hash"]
    assert out.set_index("content_hash").loc[c_hash, "url"] == "u199"

    # persist run 2's survivors; a rerun of the same update is a no-op
    survivors = (incremental_dedup(_docs(run2), idx, order_col="url")
                 .materialize())
    delta = update_hash_index(survivors, idx, n_shards=8)
    assert delta is not None and os.path.isdir(delta)
    # the same batch again -> same content address -> skipped
    assert update_hash_index(survivors, idx, n_shards=8) is None
    # and a batch with nothing new (everything now ingested) is a skip
    assert update_hash_index(
        incremental_dedup(_docs(run2), idx, order_col="url"),
        idx, n_shards=8) is None

    # run 3 sees run-2 content as already ingested
    run3 = [row(300, "new A"), row(301, "brand new D")]
    out3 = incremental_dedup(_docs(run3), idx, order_col="url").to_pandas()
    assert list(out3["url"]) == ["u301"]


def test_incremental_dedup_carries_nested_columns(ray_session, tmp_path):
    """Rows with list<> payload columns (the lifecycle sink's
    categories/authors shapes) must survive first-per-key dedup AND
    the distributed anti-join intact: Ray's pandas block rebuild
    rejects nested columns, so both operators must keep such payloads
    on arrow blocks end-to-end."""
    import pyarrow as pa
    import ray.data as rd

    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             incremental_dedup)

    def tbl(rows):
        return pa.table({
            "content_hash": pa.array([md5_hex(r[0]) for r in rows]),
            "url": pa.array([r[1] for r in rows]),
            "tags": pa.array([r[2] for r in rows],
                             pa.list_(pa.string())),
        })

    prior = rd.from_arrow(tbl([("a", "u1", ["x"]), ("b", "u2", [])]))
    idx = str(tmp_path / "idx")
    build_hash_index(prior, idx, n_shards=4)

    new = rd.from_arrow(tbl([
        ("a", "u3", ["seen"]),              # already indexed: dropped
        ("c", "u5", ["k", "l"]),            # dup pair: u4 wins
        ("c", "u4", ["keep", "me"]),
        ("d", "u6", []),
    ])).repartition(2)
    out = (incremental_dedup(new, idx, order_col="url")
           .to_pandas().sort_values("url").reset_index(drop=True))
    assert list(out["url"]) == ["u4", "u6"]
    assert list(out.loc[0, "tags"]) == ["keep", "me"]
    assert list(out.loc[1, "tags"]) == []


def test_build_is_atomic_and_rerunnable(ray_session, tmp_path):
    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import build_hash_index, read_hash_index

    rows = [{"content_hash": md5_hex(f"x{i}"), "url": f"u{i}"}
            for i in range(20)]
    idx = str(tmp_path / "idx")
    build_hash_index(_docs(rows), idx, n_shards=4)
    first = sorted(read_hash_index(idx).to_pandas()["content_hash"])
    # rebuild over the same data converges to the same index, no
    # leftover temp dirs
    build_hash_index(_docs(rows), idx, n_shards=4)
    assert sorted(read_hash_index(idx).to_pandas()["content_hash"]) == first
    assert not [d for d in os.listdir(tmp_path) if ".tmp" in d]


def test_meta_refuses_shard_count_drift(ray_session, tmp_path):
    """An update or read with mismatched key / n_shards must refuse
    loudly: a delta at a different shard count lands keys in the wrong
    shard dirs and silently breaks pruned reads."""
    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             read_hash_index,
                                             update_hash_index)

    rows = [{"content_hash": md5_hex(f"m{i}"), "url": f"u{i}"}
            for i in range(8)]
    idx = str(tmp_path / "idx")
    build_hash_index(_docs(rows), idx, n_shards=8)
    with pytest.raises(RuntimeError, match="drift"):
        update_hash_index(_docs(rows), idx, n_shards=16)
    with pytest.raises(RuntimeError, match="drift"):
        read_hash_index(idx, key="url")
    # matching parameters still work
    assert read_hash_index(idx).count() == 8


def test_shard_pruning_reads_only_named_shards(ray_session, tmp_path):
    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             read_hash_index, shard_of)

    rows = [{"content_hash": md5_hex(f"k{i}"), "url": f"u{i}"}
            for i in range(64)]
    idx = str(tmp_path / "idx")
    build_hash_index(_docs(rows), idx, n_shards=4)
    hashes = pd.Series([r["content_hash"] for r in rows])
    shards = shard_of(hashes, 4)
    want = int(shards[0])
    got = read_hash_index(idx, shards=[want]).to_pandas()["content_hash"]
    expect = sorted(hashes[shards == want])
    assert sorted(got) == expect
    # pruning to a shard reads a strict subset
    assert len(got) < len(rows)


def test_update_delta_ignores_block_layout(ray_session, tmp_path,
                                           force_shuffle):
    """The delta's content address is a function of the distinct key
    set alone: the same keys in one block, in five, and through the
    forced shuffle name one delta, written once."""
    import ray.data as rd

    from bb_ocr_ray.functions.hashing import md5_hex
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             read_hash_index,
                                             update_hash_index)

    idx = str(tmp_path / "idx")
    build_hash_index(rd.from_items([{"content_hash": md5_hex("seed")}]),
                     idx, n_shards=8)
    keys = pd.DataFrame({"content_hash": [md5_hex(f"k{i % 200}")
                                          for i in range(260)]})
    one = rd.from_pandas(keys)
    five = rd.from_pandas([keys.iloc[i::5] for i in range(5)])
    delta = update_hash_index(one, idx, n_shards=8)
    assert delta is not None and os.path.isdir(delta)
    assert update_hash_index(five, idx, n_shards=8) is None
    force_shuffle()
    assert update_hash_index(five, idx, n_shards=8) is None
    assert [n for n in os.listdir(idx) if n.startswith("delta-")] == [
        os.path.basename(delta)]
    assert read_hash_index(idx).count() == 201


def test_index_read_keeps_one_hashable_schema(ray_session, sf_tiny,
                                              ray_data_log):
    """The index is read with its files' schema metadata dropped, so
    Ray never fails to hash the schemas of the blocks it concatenates
    (a ``pa.Schema`` hashes its metadata dict)."""
    from bb_ocr_ray.pipelines.queries import q_incremental_dedup

    assert len(q_incremental_dedup(sf_tiny))
    assert not [r for r in ray_data_log.records
                if "Failed to hash the schemas" in r.getMessage()]


def test_cli_index_skips_unpublished_staging_rows(ray_session, sf_tiny,
                                                   tmp_path):
    """``cli dedup-index --in RUN_ROOT`` reads only published partitions:
    a killed pass leaves rows under ``_staging/`` that were never
    published (the runner wipes them only on its next call), and the
    index must not count them as seen."""
    import argparse
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from bb_ocr_ray import cli
    from bb_ocr_ray.state.hash_index import read_hash_index
    from bb_ocr_ray.state.manifest import run_resumable_extract

    root = str(tmp_path / "run")
    assert run_resumable_extract(sf_tiny, root, 2) == (2, 0)
    # a published row, re-keyed to a url the run never wrote
    first = sorted(glob.glob(os.path.join(root, "part-00000", "*.parquet")))
    row = pq.read_table(first[0]).slice(0, 1)
    stale = "https://stale.example.com/never-published"
    row = row.set_column(row.schema.get_field_index("url"), "url",
                         pa.array([stale], pa.string()))
    staged = os.path.join(root, "_staging", "part-00000")
    os.makedirs(staged)
    pq.write_table(row, os.path.join(staged, "stale.parquet"))

    idx = str(tmp_path / "idx")
    assert cli.cmd_dedup_index(argparse.Namespace(
        action="build", inp=root, index=idx, key="url", order_col="url",
        shards=4, out=None, update=False)) == 0
    urls = set(read_hash_index(idx, key="url").to_pandas()["url"])
    assert stale not in urls
    assert len(urls) == 500            # every published row's url
