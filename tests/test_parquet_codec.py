"""Every Parquet file the engine writes is zstd-compressed
(``schema.PARQUET_COMPRESSION``): the resumable runners' sink (extract
and the lifecycle's accept/reject sinks), the hash index build and
update, and the cli query and dedup-index outputs."""

import argparse
import glob
import os

import pyarrow.parquet as pq
import pytest


def _files(root: str) -> list:
    return sorted(glob.glob(os.path.join(root, "**", "*.parquet"),
                            recursive=True))


def _codecs(files: list) -> set:
    """The codec of every column chunk of every file in ``files``."""
    assert files
    out = set()
    for f in files:
        md = pq.ParquetFile(f).metadata
        out |= {md.row_group(i).column(j).compression
                for i in range(md.num_row_groups)
                for j in range(md.num_columns)}
    return out


@pytest.fixture(scope="module")
def written(ray_session, sf_tiny, tmp_path_factory):
    """Write once through each engine site; {site: its Parquet files}."""
    import ray.data as rd

    from bb_ocr_ray import cli
    from bb_ocr_ray.pipelines.queries import QUERIES
    from bb_ocr_ray.state.hash_index import (build_hash_index,
                                             update_hash_index)
    from bb_ocr_ray.state.manifest import (run_resumable_extract,
                                           run_resumable_lifecycle)

    tmp = tmp_path_factory.mktemp("codec")

    def at(name: str) -> str:
        return str(tmp / name)

    assert run_resumable_extract(sf_tiny, at("extract"), 2) == (2, 0)
    assert run_resumable_lifecycle(sf_tiny, at("lifecycle_run"), 2) == (2, 0)

    keys = rd.from_items([{"url": f"https://seen.example.com/{i}"}
                          for i in range(20)])
    build_hash_index(keys, at("index"), key="url", n_shards=4)
    base = _files(at("index"))
    fresh = rd.from_items([{"url": f"https://new.example.com/{i}"}
                           for i in range(20)])
    delta = update_hash_index(fresh, at("index"), key="url", n_shards=4)
    assert delta

    # cmd_query writes a Dataset result with write_parquet and any
    # other result with to_parquet
    results = {name: QUERIES[name](sf_tiny)
               for name in ("q_union", "q1_pricing_summary")}
    assert type(results["q_union"]).__name__ == "Dataset"
    assert type(results["q1_pricing_summary"]).__name__ == "DataFrame"
    for name in results:
        assert cli.cmd_query(argparse.Namespace(
            name=name, sf_dir=sf_tiny, out=at(name), limit=20)) == 0
    assert cli.cmd_dedup_index(argparse.Namespace(
        action="apply", inp=at("extract"), index=at("index"), key="url",
        order_col="url", shards=4, out=at("survivors"), update=False)) == 0

    return {"resumable-extract": _files(at("extract")),
            "resumable-lifecycle": _files(at("lifecycle_run")),
            "hash-index-build": base,
            "hash-index-update": _files(delta),
            "cli-query-dataset": _files(at("q_union")),
            "cli-query-dataframe": _files(at("q1_pricing_summary")),
            "cli-dedup-index": _files(at("survivors"))}


@pytest.mark.parametrize("site", [
    "resumable-extract", "resumable-lifecycle",
    "hash-index-build", "hash-index-update", "cli-query-dataset",
    "cli-query-dataframe", "cli-dedup-index"])
def test_engine_parquet_write_is_zstd(written, site):
    assert _codecs(written[site]) == {"ZSTD"}


def test_duckdb_reads_the_runner_output(written):
    """zstd files need no reader setting: DuckDB reads the resumable
    runner's partitions to the same rows as pyarrow."""
    import duckdb

    files = written["resumable-extract"]
    want = pq.ParquetDataset(files).read(columns=["url", "text"])
    got = duckdb.sql(f"SELECT url, text FROM read_parquet({files!r})").df()
    assert len(got) == want.num_rows > 0
    assert (sorted(zip(got["url"], got["text"]))
            == sorted(zip(want.column("url").to_pylist(),
                          want.column("text").to_pylist())))
