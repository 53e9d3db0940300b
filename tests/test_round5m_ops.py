"""Round-5 seventh-session batch-F differentials: zone-map pruning on
clustered vs anti-clustered layouts, and on NULL n_chars."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ---------------------------------------------------------------- zone map
def test_zone_map_clustered_vs_shuffled(ray_session, tmp_path):
    n = 640                                  # 10 shards of 64
    # clustered layout: n_chars ascends with doc_id -> shards 0..5 are
    # entirely < 400 and prunable
    chars = np.arange(n, dtype="int64")      # 0..639
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                         "text": "x", "lang": "en", "source": "s",
                         "n_chars": chars})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_zone_map
    got = q_zone_map(sf)
    # shards 0..5 have max 63..383 < 400; shard 6 spans 384..447
    assert int(got["n_shards"].iloc[0]) == 10
    assert int(got["n_prunable"].iloc[0]) == 6
    assert int(got["rows_skipped"].iloc[0]) == 6 * 64
    assert abs(got["prune_ratio"].iloc[0] - 0.6) < 1e-9

    # anti-clustered: same values shuffled -> every shard spans the
    # range, nothing prunes
    rng = np.random.RandomState(0)
    docs2 = docs.assign(n_chars=rng.permutation(chars))
    (tmp_path / "b").mkdir()
    sf2 = _write(tmp_path / "b", documents=docs2)
    got2 = q_zone_map(sf2)
    assert int(got2["n_prunable"].iloc[0]) <= 1   # overwhelmingly unprunable
    assert got2["prune_ratio"].iloc[0] < 0.2


def test_zone_map_null_n_chars_matches_oracle(ray_session, tmp_path):
    # shard 0: one NULL among small values -> max skips it, prunable,
    # and the NULL row still counts as skipped; shard 1: every n_chars
    # NULL -> max is NULL, not prunable; shard 2: large -> not prunable
    import duckdb

    n_chars = pd.array([10] * 63 + [None] + [None] * 64 + [500] * 64,
                       dtype="Int64")
    docs = pd.DataFrame({"doc_id": np.arange(192, dtype="int64"),
                         "text": "x", "lang": "en", "source": "s",
                         "n_chars": n_chars})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import q_zone_map
    got = q_zone_map(sf)
    assert int(got["n_shards"].iloc[0]) == 3
    assert int(got["n_prunable"].iloc[0]) == 1
    assert int(got["rows_skipped"].iloc[0]) == 64

    con = duckdb.connect()
    con.register("documents", docs)
    want = con.sql(ORACLES["q_zone_map"]).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
