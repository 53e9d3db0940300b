"""Pipeline-level tests: stages composed on real Ray Datasets."""

from collections import Counter

import numpy as np
import pandas as pd
import pytest


def test_domain_stats_salting_invariant(ray_session, sf_tiny, gate_spy,
                                        force_shuffle):
    """Salted and unsalted per-domain aggregation must agree exactly
    (FIXTURES.md §4: the hot domain must produce identical results with
    and without salting), on the driver folds and on the shuffle."""
    from bb_ocr_ray.pipelines.extract_pipeline import (extract_from_sf_dir,
                                                       extract_pages)
    from bb_ocr_ray.sources.pages import read_pages
    from bb_ocr_ray.stages.domain_agg import domain_stats

    def unrepartitioned():
        # the read with no fan-out repartition: no barrier in the plan,
        # so the folds probe their sides
        return extract_pages(read_pages(sf_tiny, num_blocks=0))

    def salted_and_unsalted(ads, source):
        a = ads.to_pandas().sort_values("domain").reset_index(drop=True)
        b = (domain_stats(source(), salt_buckets=1)
             .to_pandas().sort_values("domain").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        # hot domain holds ~30% of rows
        hot = a.set_index("domain").loc["hot.example.com", "n_docs"]
        assert hot == a["n_docs"].sum() * 3 // 10
        return a

    # default: the partials and the salted table fit the driver, so
    # both folds run there (two gates per domain_stats call)
    driver = salted_and_unsalted(
        domain_stats(unrepartitioned(), salt_buckets=16), unrepartitioned)
    assert gate_spy == ["driver"] * 4
    # the flagship read repartitions for fan-out: the folds sit behind
    # that barrier and take the shuffle unprobed, with the same answer
    pd.testing.assert_frame_equal(driver, salted_and_unsalted(
        domain_stats(extract_from_sf_dir(sf_tiny), salt_buckets=16),
        lambda: extract_from_sf_dir(sf_tiny)))
    assert len(gate_spy) == 4
    force_shuffle()
    ads = domain_stats(unrepartitioned(), salt_buckets=16)
    # on the shuffle path every stage — including the final salt-strip
    # — runs in tasks: the plan chains two coarse shuffles back to the
    # source with no driver-side FromPandas re-entry (VERDICT r3 item 1)
    plan = repr(ads)
    assert "FromPandas" not in plan and plan.count("Sort") == 2
    pd.testing.assert_frame_equal(
        driver, salted_and_unsalted(ads, unrepartitioned))
    # one probe per call: the salt-strip fold reads the first fold's
    # unexecuted shuffle, so it goes to its own shuffle unprobed
    assert gate_spy[4:] == ["shuffle"] * 2


def test_ann_topk_matches_numpy_oracle(ray_session, sf_tiny):
    import duckdb
    import ray.data as rd

    from bb_ocr_ray.stages.ann import ann_topk

    vecs = rd.read_parquet(f"{sf_tiny}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    got = ann_topk(vecs, query_ids=[0, 1, 2], k=3).to_pandas()
    got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)

    df = duckdb.sql(
        f"SELECT vec_id, embedding FROM '{sf_tiny}/embeddings.parquet'"
    ).df()
    mat = np.asarray([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ids = df["vec_id"].to_numpy()
    for q in (0, 1, 2):
        qv = mat[ids == q][0]
        sims = mat @ qv
        order = sorted(zip(-sims, ids), key=lambda t: (t[0], t[1]))
        expect = [int(i) for s, i in order if i != q][:3]
        mine = got[got["query_id"] == q].sort_values("rank")["neighbor_id"].tolist()
        assert mine == expect


def test_extract_stage_preserves_row_count(ray_session, sf_tiny):
    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir

    ds = extract_from_sf_dir(sf_tiny)
    assert ds.count() == 500


def test_broadcast_join_matches_pandas(ray_session, sf_tiny):
    import ray.data as rd

    from bb_ocr_ray.stages.joins import broadcast_join

    nation = pd.read_parquet(f"{sf_tiny}/nation.parquet")[["n_nationkey", "n_name"]]
    nation = nation.rename(columns={"n_nationkey": "c_nationkey"})
    cust_ds = rd.read_parquet(f"{sf_tiny}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"])
    got = broadcast_join(cust_ds, nation, on="c_nationkey").to_pandas()
    exp = pd.read_parquet(f"{sf_tiny}/customer.parquet")[
        ["c_custkey", "c_nationkey"]].merge(nation, on="c_nationkey")
    assert len(got) == len(exp)
    g = got.sort_values("c_custkey").reset_index(drop=True)
    e = exp.sort_values("c_custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, e)


def test_multimodal_stub_plumbing(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.multimodal import (
        DecodeImageStub,
        byte_histogram_features,
        resize_stub,
    )

    rows = [{"item_id": i, "payload": bytes([i] * (100 + i))} for i in range(8)]
    ds = rd.from_items(rows)
    decoded = ds.map_batches(
        DecodeImageStub, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", batch_size=4, concurrency=1,
    )
    resized = decoded.map_batches(resize_stub, batch_format="pyarrow")
    feats = resized.map_batches(byte_histogram_features, batch_format="pandas")
    out = feats.to_pandas()
    assert {"width", "height", "mean_px", "needs_resize",
            "byte_hist", "byte_entropy"} <= set(out.columns)
    assert (out["byte_entropy"] == 0.0).all()     # constant-byte payloads
    # deterministic fake decode
    out2 = ds.map_batches(
        DecodeImageStub, fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow", concurrency=1,
    ).to_pandas()
    pd.testing.assert_series_equal(
        out.sort_values("item_id")["width"].reset_index(drop=True),
        out2.sort_values("item_id")["width"].reset_index(drop=True),
        check_names=False,
    )


def test_multimodal_stub_raises_without_fake(ray_session):
    from bb_ocr_ray.stages.multimodal import DecodeImageStub

    import pyarrow as pa

    stub = DecodeImageStub(fake=False)
    with pytest.raises(NotImplementedError):
        stub(pa.table({"payload": pa.array([b"x"], pa.binary())}))


def test_random_sample_seed_deterministic(ray_session, sf_tiny):
    """ds.random_sample with a fixed seed is reproducible within a
    fixed block layout (the O-gap sampling op, SURVEY.md §2.6)."""
    import ray.data as rd

    def sample_ids():
        ds = rd.read_parquet(f"{sf_tiny}/documents.parquet",
                             columns=["doc_id"])
        return sorted(ds.random_sample(0.2, seed=42).to_pandas()["doc_id"])

    a, b = sample_ids(), sample_ids()
    assert a == b
    assert 20 <= len(a) <= 180   # ~100 expected of 500


def _rows(df: pd.DataFrame, cols) -> Counter:
    """Row multiset of ``df[cols]``; NaN/None compare equal as -1."""
    return Counter(map(tuple, df[cols].astype(object)
                       .where(df[cols].notna(), -1).to_numpy().tolist()))


def test_hash_join_impls_agree(ray_session, sf_tiny):
    """The bucketed join (default and a fixed bucket count) returns
    exactly the row multiset of a pandas merge of the same rows."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    li = rd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"]).map_batches(
        lambda b: b.rename(columns={"l_orderkey": "o_orderkey"}),
        batch_format="pandas")
    orders = rd.read_parquet(f"{sf_tiny}/orders.parquet",
                             columns=["o_orderkey", "o_orderstatus"])
    want = li.to_pandas().merge(orders.to_pandas(), on="o_orderkey")
    nb = hash_join(li, orders, on="o_orderkey").to_pandas()
    n4 = hash_join(li, orders, on="o_orderkey", num_buckets=4).to_pandas()
    assert len(nb) == len(n4) == len(want) == 6000
    cols = ["o_orderkey", "l_quantity", "o_orderstatus"]
    assert _rows(nb, cols) == _rows(n4, cols) == _rows(want, cols)


def test_hash_join_skewed_key(ray_session):
    """VERDICT r1: a hot key must not break the bucketed join — all
    implementations agree on a fixture where one key holds 80% of the
    left side (the chunked per-bucket merge keeps the working set
    bounded; exercised by a sub-chunk-sized stand-in here, semantics
    checked exactly)."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    left = rd.from_items(
        [{"k": 7, "l": i} for i in range(4000)]
        + [{"k": i % 50, "l": 10_000 + i} for i in range(1000)])
    right = rd.from_items([{"k": i, "r": i * 11} for i in range(50)])
    b = hash_join(left, right, on="k").to_pandas()
    n = left.to_pandas().merge(right.to_pandas(), on="k")
    want = 4000 + 1000  # every left row matches exactly one right row
    assert len(b) == len(n) == want
    assert sorted(b["l"]) == sorted(n["l"])
    assert _rows(b, ["k", "l", "r"]) == _rows(n, ["k", "l", "r"])
    assert (b.loc[b["k"] == 7, "r"] == 77).all()


def test_hash_join_left_outer(ray_session, monkeypatch):
    """how="left": unmatched left rows survive exactly once with null
    right columns — independent of bucketing and of the chunked
    hot-key merge path."""
    import ray.data as rd

    import bb_ocr_ray.stages.joins as J

    # keys 0..9 on the left; right side only has 0..4, key 7 is hot
    left = rd.from_items(
        [{"k": 7, "l": i} for i in range(300)]
        + [{"k": i % 10, "l": 10_000 + i} for i in range(100)]).repartition(2)
    right = rd.from_items([{"k": i, "r": i * 11} for i in range(5)]
                          ).repartition(1)

    def check(df):
        assert len(df) == 400                      # every left row once
        unmatched = df[df["r"].isna()]
        assert set(unmatched["k"]) == {5, 6, 7, 8, 9}
        assert len(unmatched) == 300 + 50          # hot key + 5 cold keys
        matched = df[df["r"].notna()]
        assert (matched["r"] == matched["k"] * 11).all()

    # a pandas left merge of the same rows agrees on the row multiset
    # and on the null-extension count
    ref = left.to_pandas().merge(right.to_pandas(), on="k", how="left")
    assert len(ref) == 400 and ref["r"].isna().sum() == 350
    check(ref)

    def check_ref(df):
        check(df)
        assert df["r"].isna().sum() == ref["r"].isna().sum()
        assert _rows(df, ["k", "l", "r"]) == _rows(ref, ["k", "l", "r"])

    check_ref(J.hash_join(left, right, on="k", num_buckets=4,
                          how="left").to_pandas())
    monkeypatch.setattr(J, "_MERGE_CHUNK", 64)     # chunked probe path
    check_ref(J.hash_join(left, right, on="k", num_buckets=4,
                          how="left").to_pandas())


def test_hash_join_full_outer(ray_session, monkeypatch):
    """how="full": unmatched rows from BOTH sides survive exactly once
    — across one-sided buckets (Ray's pandas-rebuilt group blocks turn
    an absent side's columns into null-typed arrays) and across the
    chunked hot-key path (right-anti remainder appended once)."""
    import ray.data as rd

    import bb_ocr_ray.stages.joins as J

    # left keys: 300x key 7 (hot) + 0..9; right keys: 0..4 and 100..102
    left = rd.from_items(
        [{"k": 7, "l": i} for i in range(300)]
        + [{"k": i % 10, "l": 10_000 + i} for i in range(100)]).repartition(2)
    right = rd.from_items(
        [{"k": i, "r": i * 11} for i in range(5)]
        + [{"k": 100 + i, "r": 900 + i} for i in range(3)]).repartition(1)

    def check(df):
        assert len(df) == 400 + 3          # every left row + 3 right-only
        right_only = df[df["l"].isna()]
        assert sorted(right_only["k"]) == [100, 101, 102]
        assert sorted(right_only["r"]) == [900, 901, 902]
        left_only = df[df["r"].isna()]
        assert set(left_only["k"]) == {5, 6, 7, 8, 9}

    check(J.hash_join(left, right, on="k", num_buckets=4,
                      how="full").to_pandas())
    monkeypatch.setattr(J, "_MERGE_CHUNK", 64)     # chunked probe path
    check(J.hash_join(left, right, on="k", num_buckets=4,
                      how="full").to_pandas())


def test_hash_join_mixed_int_widths(ray_session):
    """int32 key on one side, int64 on the other: the union-schema
    cast routes equal logical keys to the same bucket and the same
    acero key type (a silent-match-drop class of bug)."""
    import pyarrow as pa
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    left = rd.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3, 4], pa.int32()),
         "l": pa.array([10, 20, 30, 40], pa.int64())}))
    # 5_000_000_000 does not fit int32: the union schema must promote
    # the key UP (int64), not safe-cast the right side down (which
    # raised ArrowInvalid instead of treating the row as unmatched)
    right = rd.from_arrow(pa.table(
        {"k": pa.array([2, 3, 5_000_000_000], pa.int64()),
         "r": ["b", "c", "e"]}))
    inner = hash_join(left, right, on="k", num_buckets=4).to_pandas()
    assert sorted(zip(inner["k"], inner["r"])) == [(2, "b"), (3, "c")]
    lo = hash_join(left, right, on="k", num_buckets=4,
                   how="left").to_pandas()
    assert len(lo) == 4 and int(lo["r"].isna().sum()) == 2


def test_hash_join_composite_key(ray_session):
    """Composite (int, string) key: only rows matching BOTH columns
    join; ordered-tuple hashing means (a,b) never collides with (b,a);
    left outer keeps unmatched pairs once."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    left = rd.from_items(
        [{"k1": i % 3, "k2": "xy"[i % 2], "l": i} for i in range(60)]
    ).repartition(3)
    right = rd.from_items(
        [{"k1": 0, "k2": "x", "r": 100}, {"k1": 1, "k2": "y", "r": 200},
         {"k1": 2, "k2": "z", "r": 300}]).repartition(1)
    inner = hash_join(left, right, on=["k1", "k2"],
                      num_buckets=4).to_pandas()
    # i%3==0 and i%2==0 -> i%6==0 (10 rows); i%3==1 and i%2==1 -> i%6==1
    assert len(inner) == 20
    assert set(zip(inner["k1"], inner["k2"])) == {(0, "x"), (1, "y")}
    assert (inner.loc[inner["k1"] == 0, "r"] == 100).all()
    lo = hash_join(left, right, on=["k1", "k2"], num_buckets=4,
                   how="left").to_pandas()
    assert len(lo) == 60 and int(lo["r"].isna().sum()) == 40


def test_hash_join_pandas_path_mixed_dtype_blocks(ray_session):
    """Pandas-path join (object payload) where ONE left block's int key
    column arrives as float64 (a null upcast): the bucket hash must
    stay on the schema-level int path for every block, or that block's
    matches silently land in the wrong buckets (review-confirmed: 44
    of 99 matches dropped before the fix).  A left-only int64 column
    above 2**53 comes back exact (a float64 pad or pre-cast would
    round it)."""
    import numpy as np
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    df1 = pd.DataFrame({"k": np.arange(1, 51, dtype=np.int64),
                        "payload": [[1]] * 50,
                        "h": (1 << 60) + np.arange(1, 51, dtype=np.int64)})
    df2 = pd.DataFrame({"k": np.append(
        np.arange(51, 100).astype(np.float64), np.nan),
        "payload": [[2]] * 50,
        "h": (1 << 60) + np.arange(51, 101, dtype=np.int64)})
    left = rd.from_pandas([df1, df2])
    right = rd.from_pandas(pd.DataFrame(
        {"k": np.arange(1, 101, dtype=np.int64),
         "r": np.arange(1, 101) * 3}))
    out = hash_join(left, right, on="k", num_buckets=8).to_pandas()
    assert len(out) == 99                      # NaN key matches nothing
    assert sorted(out["r"]) == [i * 3 for i in range(1, 100)]
    assert out["h"].dtype == np.int64
    assert (out["h"] - (1 << 60) == out["k"]).all()


def test_hash_semi_anti_mixed_dtype_blocks(ray_session):
    """hash_join(how="semi"/"anti") on the same two-block pandas input
    (one block's int key upcast to float64 by a NaN, list payload):
    membership must bucket from the schema-level int decision too,
    or the float block's keys land in the wrong buckets (the former
    per-batch-dtype membership shuffle kept 92 rows on anti and
    returned 8 on semi at 8 buckets).  Left-side dtypes survive the
    key-only right side's padding: bool stays bool, and an int64
    above 2**53 stays exact."""
    import numpy as np
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    df1 = pd.DataFrame({"k": np.arange(1, 51, dtype=np.int64),
                        "payload": [[1]] * 50, "flag": True,
                        "h": (1 << 60) + np.arange(1, 51, dtype=np.int64)})
    df2 = pd.DataFrame({"k": np.append(
        np.arange(51, 100).astype(np.float64), np.nan),
        "payload": [[2]] * 50, "flag": False,
        "h": (1 << 60) + np.arange(51, 101, dtype=np.int64)})

    def run(how):
        big = rd.from_pandas([df1, df2])
        keys = rd.from_pandas(pd.DataFrame(
            {"k": np.arange(1, 101, dtype=np.int64)}))
        return hash_join(big, keys, on="k", num_buckets=8,
                         how=how).to_pandas()

    anti = run("anti")
    assert len(anti) == 1 and anti["k"].isna().all()   # only the NaN row
    assert anti["k"].dtype.kind in "if"
    semi = run("semi")
    assert sorted(semi["k"]) == list(range(1, 100))
    assert semi["k"].dtype.kind in "if"
    assert list(semi.columns) == list(anti.columns) == [
        "k", "payload", "flag", "h"]
    assert semi["flag"].dtype == anti["flag"].dtype == bool
    semi = semi.sort_values("k")
    assert semi["flag"].tolist() == [True] * 50 + [False] * 49
    assert semi["h"].dtype == anti["h"].dtype == np.int64
    assert (semi["h"] - (1 << 60) == semi["k"]).all()
    assert anti["h"].tolist() == [(1 << 60) + 100]


def test_decontaminate_planted_overlap(ray_session, tmp_path):
    """q_decontaminate flags exactly the docs sharing an 8-token
    shingle with the eval set (doc_id % 50 == 0), counting DISTINCT
    overlapping shingles."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from bb_ocr_ray.pipelines.queries import q_decontaminate

    eval_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = pa.table({
        "doc_id": pa.array([0, 50, 1, 2, 3], type=pa.int64()),
        "text": [eval_text,                           # eval doc
                 "unrelated eval words entirely different corpus here",
                 # contains tokens 1..8 and 2..9 of eval_text -> 2 hits
                 "xx " + " ".join(eval_text.split()[:9]) + " yy",
                 # one 8-token shingle (tokens 1..8), repeated twice ->
                 # still 1 DISTINCT hit
                 " ".join(eval_text.split()[:8] * 2),
                 "no overlap at all with anything in the eval set ok"]})
    sf = str(tmp_path)
    pq.write_table(docs, f"{sf}/documents.parquet")

    out = q_decontaminate(sf).sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 2]
    assert list(out["n_hit_shingles"]) == [2, 1]


def test_full_lifecycle(ray_session, sf_tiny, tmp_path, monkeypatch):
    """SURVEY §3 lifecycle end-to-end through the resumable runner:
    extract -> heuristics -> validate -> accept/reject partitioned
    write.  A counting actor wrapped around the chain's INPUT (the
    runner's stage seam, ``lifecycle.lifecycle_decided``) asserts the
    sink executes the chain exactly once: no second execution and no
    full-corpus materialize (VERDICT r2 item 2)."""
    import os

    import pyarrow.parquet as pq
    import ray

    from bb_ocr_ray.pipelines import lifecycle
    from bb_ocr_ray.state.manifest import RunManifest, run_resumable_lifecycle

    @ray.remote
    class RowCounter:
        def __init__(self):
            self.n = 0

        def add(self, k: int):
            self.n += k

        def total(self) -> int:
            return self.n

    counter = RowCounter.remote()

    def count_rows(b):
        ray.get(counter.add.remote(len(b)))
        return b

    real = lifecycle.lifecycle_decided

    def counted(pages, *args, **kwargs):
        return real(pages.map_batches(count_rows, batch_format="pyarrow",
                                      batch_size=None), *args, **kwargs)

    monkeypatch.setattr(lifecycle, "lifecycle_decided", counted)
    out = str(tmp_path / "lifecycle")
    assert run_resumable_lifecycle(sf_tiny, out, 2) == (2, 0)
    n_rows = 0
    for pid, rec in RunManifest(out).completed().items():
        part = os.path.join(out, f"part-{pid:05d}")
        assert any(d.startswith("decision=") for d in os.listdir(part))
        back = pq.read_table(part)          # hive-read: decision=*/
        assert {"url", "title", "authors_csv", "publication_date",
                "decision"} <= set(back.column_names)
        assert set(back.column("decision").to_pylist()) <= {"accepted",
                                                            "rejected"}
        m = rec["metrics"]
        assert back.num_rows == rec["row_count"] == (m["n_accepted"]
                                                     + m["n_rejected"])
        n_rows += back.num_rows
    assert n_rows == 500                             # no dropped rows
    # executed ONCE: the sink consumed the 500 input rows exactly once
    assert ray.get(counter.total.remote()) == 500


def test_lifecycle_reject_path(ray_session):
    """Edge-case pages (empty/nav-only) flow to decision=rejected —
    the reject branch is real, not just theoretical."""
    import ray.data as rd
    from edge_pages import edge_case_pages

    from bb_ocr_ray.pipelines.lifecycle import lifecycle_decided

    out = lifecycle_decided(rd.from_arrow(edge_case_pages())).to_pandas()
    assert len(out) == edge_case_pages().num_rows     # no dropped rows
    counts = out["decision"].value_counts().to_dict()
    assert counts.get("rejected", 0) >= 4     # empty/ws/comment/pure-nav
    assert counts.get("accepted", 0) >= 5


def test_provider_fanout_time_budget(ray_session):
    """One slow provider must not stall the record batch: its rows come
    back status='timeout' within the budget while the fast providers'
    offers are intact (reference semantics: 8 s per provider,
    aggregator.py:27-28,48)."""
    import time

    import ray.data as rd

    from bb_ocr_ray.stages.lookup import provider_fanout

    def fast(records):
        return pd.DataFrame({"record_key": records["k"],
                             "listing_id": records["k"] * 10,
                             "amount": 1.0})

    def slow(records):
        time.sleep(8)
        return pd.DataFrame({"record_key": records["k"],
                             "listing_id": records["k"] * 100,
                             "amount": 2.0})

    ds = rd.from_items([{"k": i} for i in range(5)]).repartition(1)
    t0 = time.monotonic()
    out = provider_fanout(ds, {"fast": fast, "slow": slow}, key_col="k",
                          per_provider_timeout=1.0).to_pandas()
    assert time.monotonic() - t0 < 7, "slow provider stalled the batch"
    assert sorted(out.loc[out["provider"] == "fast", "listing_id"]) == \
        [0, 10, 20, 30, 40]
    slow_rows = out[out["provider"] == "slow"]
    assert (slow_rows["status"] == "timeout").all()
    assert len(slow_rows) == 5


def test_provider_fanout_merge_no_future_warning():
    """One batch's merge of offers, an empty provider (the stub) and a
    failing provider's error rows hands pandas no empty frame and no
    all-NA column, so it raises no FutureWarning (one sf0.01 oracle
    sweep logged 16).  The merge runs in-process: the fan-out's batch
    function is taken from a stand-in Dataset."""
    import warnings

    from bb_ocr_ray.stages.lookup import (OFFER_COLUMNS, make_stub_provider,
                                          provider_fanout)

    class Capture:
        def map_batches(self, fn, **_):
            self.fn = fn
            return self

    def offers(records):
        return pd.DataFrame({"record_key": records["k"],
                             "listing_id": records["k"] * 10,
                             "amount": 1.5})

    def broken(records):
        raise RuntimeError("down")

    def fan(providers):
        return provider_fanout(Capture(), providers, key_col="k").fn

    stub = make_stub_provider("stub")
    batch = pd.DataFrame({"k": [1, 2, 3]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        out = fan({"ok": offers, "stub": stub, "broken": broken})(batch)
        empty = fan({"stub": stub})(batch)
    assert list(out.columns) == list(empty.columns) == OFFER_COLUMNS
    assert len(empty) == 0
    assert out["record_key"].tolist() == [1, 2, 3] * 2
    assert out["provider"].tolist() == ["ok"] * 3 + ["broken"] * 3
    assert out["status"].tolist() == ["ok"] * 3 + ["error"] * 3
    assert out["listing_id"].tolist()[:3] == [10, 20, 30]
    assert out["amount"].isna().tolist() == [False] * 3 + [True] * 3
    assert out["error"].tolist()[3:] == ["RuntimeError: down"] * 3


def test_watermark_sessionizer_matches_batch(ray_session, sf_small):
    """In-order stream + any lateness == batch sessionization, 0 late."""
    import ray.data as rd

    from bb_ocr_ray.pipelines.queries import q_sessionize
    from bb_ocr_ray.stages.streaming import sessionize_watermark

    events = rd.read_parquet(f"{sf_small}/events.parquet",
                             columns=["user_id", "ts"])
    got, n_late = sessionize_watermark(events, allowed_lateness=300.0)
    assert n_late == 0
    batch = (q_sessionize(sf_small).to_pandas()
             .sort_values("user_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["user_id", "n_sessions", "n_events"]],
        batch[["user_id", "n_sessions", "n_events"]])


def test_watermark_sessionizer_late_data(ray_session):
    """Out-of-order arrival: events within the lateness horizon fold
    correctly (same result as the sorted stream); an event older than
    the watermark is counted late and dropped."""
    import ray.data as rd

    from bb_ocr_ray.stages.streaming import sessionize_watermark

    t0 = pd.Timestamp("2024-01-01")

    def ev(u, sec):
        return {"user_id": u, "ts": t0 + pd.Timedelta(seconds=sec)}

    # arrival order (carried by the explicit arrival stamp, replayed
    # through the distributed map_groups path — no driver loop):
    # u1 at 0s, 100s, then an out-of-order 50s (within lateness 200)
    # -> folds; then 10_000s advancing the watermark, then 60s (older
    # than 10_000-200) -> LATE, dropped
    rows = [dict(ev(1, sec), seq=i) for i, sec in
            enumerate([0, 100, 50, 10_000, 60])]
    ds = rd.from_items(rows).repartition(2)
    got, n_late = sessionize_watermark(
        ds, gap_seconds=1800.0, allowed_lateness=200.0, n_actors=1,
        arrival_col="seq")
    assert n_late == 1
    # folded events: 0,50,100 (one session) + 10_000 (gap > 1800: new)
    assert got.loc[0, "n_sessions"] == 2
    assert got.loc[0, "n_events"] == 4

    # multi-user, multi-actor: per-bucket arrival replay must equal a
    # global in-arrival-order feed (actors only see their own users)
    rows2 = ([dict(ev(1, sec), seq=i * 2) for i, sec in
              enumerate([0, 100, 50, 10_000, 60])]
             + [dict(ev(2, sec), seq=i * 2 + 1) for i, sec in
                enumerate([5, 9_000, 20, 9_100])])
    ds2 = rd.from_items(rows2).repartition(3)
    got2, n_late2 = sessionize_watermark(
        ds2, gap_seconds=1800.0, allowed_lateness=200.0, n_actors=3,
        arrival_col="seq")
    got2 = got2.set_index("user_id")
    assert n_late2 == 2         # u1's 60s AND u2's 20s arrive too late
    assert got2.loc[1, "n_sessions"] == 2 and got2.loc[1, "n_events"] == 4
    # u2 folded: 5 | 9000, 9100 (gap 1800: 5 -> new session at 9000)
    assert got2.loc[2, "n_sessions"] == 2 and got2.loc[2, "n_events"] == 3


def test_frame_sample_plumbing(ray_session):
    """Binary frame sampling: full frames only, every k-th, stable md5,
    flat_map shape (one row -> many frame rows) through Arrow."""
    import pyarrow as pa
    import ray.data as rd

    from bb_ocr_ray.stages.multimodal import frame_sample

    payload = bytes(range(256)) * 9 + b"tail"   # 9 full frames + partial
    ds = rd.from_items([{"item_id": 1, "payload": payload},
                        {"item_id": 2, "payload": b"short"}]).repartition(1)
    out = ds.map_batches(frame_sample, batch_format="pyarrow").to_pandas()
    # item 1: frames 0,4,8 sampled; item 2: no full frame
    assert out["item_id"].tolist() == [1, 1, 1]
    assert out["frame_idx"].tolist() == [0, 4, 8]
    assert all(len(f) == 256 for f in out["frame"])
    import hashlib
    assert out.loc[0, "frame_md5"] == hashlib.md5(bytes(range(256))).hexdigest()


def test_band_join_exact_boundary(ray_session):
    """Band join finds all pairs within the band including the exact
    boundary, across window edges, and nothing outside."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import band_join

    left = rd.from_items([
        {"event_id": 1, "t_us": 1_000_000},
        {"event_id": 2, "t_us": 59_000_000},     # near a window edge
        {"event_id": 3, "t_us": 200_000_000},
    ]).repartition(1)
    right = rd.from_items([
        {"event_id": 10, "t_us": 31_000_000},    # exactly 30s from id 1
        {"event_id": 11, "t_us": 61_000_000},    # 2s from id 2, next window
        {"event_id": 12, "t_us": 500_000_000},   # matches nothing
    ]).repartition(1)
    out = band_join(left, right, time_col="t_us",
                    band_us=30_000_000).to_pandas()
    got = sorted(zip(out["event_id"], out["event_id_r"]))
    assert got == [(1, 10), (2, 10), (2, 11)]


def test_hash_join_chunked_merge_path(ray_session, monkeypatch):
    """Force the hot-key chunked merge (probe > _MERGE_CHUNK) and
    assert it returns exactly the single-merge result."""
    import ray.data as rd

    import bb_ocr_ray.stages.joins as J

    left = rd.from_items(
        [{"k": 7, "l": i} for i in range(900)]
        + [{"k": i % 10, "l": 10_000 + i} for i in range(100)]).repartition(2)
    right = rd.from_items([{"k": i, "r": i * 11} for i in range(10)]
                          + [{"k": 7, "r": 777}]).repartition(1)
    want = J.hash_join(left, right, on="k", num_buckets=4).to_pandas()
    monkeypatch.setattr(J, "_MERGE_CHUNK", 64)
    got = J.hash_join(left, right, on="k", num_buckets=4).to_pandas()
    key = ["k", "l", "r"]
    pd.testing.assert_frame_equal(
        want.sort_values(key).reset_index(drop=True)[key],
        got.sort_values(key).reset_index(drop=True)[key])
    # key 7 (900 hot rows + 10 from the modulo series) matches two
    # right rows -> the cross product survives chunking
    assert (got["k"] == 7).sum() == 910 * 2


def test_llm_backend_registry_and_fake_determinism():
    """§2.10 plugin surface: factory resolves registered backends,
    rejects unknown ones with the known list, and the fake backend is
    byte-deterministic for a fixed prompt."""
    import pytest as _pytest

    from bb_ocr_ray.functions.jsonrepair import repair_json
    from bb_ocr_ray.functions.llm_client import (
        LLMClient, create_llm_client, register_backend)
    from bb_ocr_ray.functions.templates import assemble_prompt

    fake = create_llm_client("fake")
    prompt = assemble_prompt(["Some Title Line\nmore text", "ctx two"])
    a = fake.generate("m1", prompt)
    b = create_llm_client("fake").generate("m1", prompt)
    assert a == b                          # reproducible across instances
    obj, err = repair_json(a)              # fenced on purpose: repair path
    assert err is None and obj["title"] == "Some Title Line"
    assert obj["n_contexts"] == 2

    with _pytest.raises(ValueError, match="fake"):
        create_llm_client("nonexistent-backend")

    class EchoClient(LLMClient):
        def generate(self, model, prompt, images_b64=None,
                     timeout_seconds=None):
            return '{"title": "echo"}'

    register_backend("echo-test", EchoClient)
    assert repair_json(
        create_llm_client("echo-test").generate("m", "p"))[0] == {
            "title": "echo"}


def test_lifecycle_enrichment_slot(ray_session, recwarn):
    """Backend swap through the lifecycle chain: the fake enrichment
    stage adds deterministic columns that reach the decided rows the
    sink writes.  The one-block input starts one actor of the
    autoscaling pool, so Ray does not warn of a pool minimum above the
    operator's inputs."""
    import ray.data as rd
    from edge_pages import edge_case_pages

    from bb_ocr_ray.pipelines.lifecycle import lifecycle_decided

    def run():
        return lifecycle_decided(rd.from_arrow(edge_case_pages()),
                                 llm_backend="fake").to_pandas()

    back = run()
    assert {"enriched_title", "enrichment_digest",
            "enrich_error"} <= set(back.columns)
    assert len(back) == edge_case_pages().num_rows      # no dropped rows
    ok = back[back["status"] == "ok"]
    assert ok["enrichment_digest"].notna().all()
    # determinism: a second run produces identical digests per url
    back2 = run()
    # the edge fixture contains a duplicate url with different content,
    # so compare the sorted (url, digest) multiset, not a url merge
    key1 = sorted(zip(back["url"], back["enrichment_digest"].fillna("")))
    key2 = sorted(zip(back2["url"], back2["enrichment_digest"].fillna("")))
    assert key1 == key2
    # Ray raises this one as a Python warning, not a log record
    assert not [w for w in recwarn
                if "minimum number of concurrent actors" in str(w.message)]


def test_real_decode_when_codec_present(ray_session):
    """Auto-skipping real-decode test: runs only if PIL is importable
    (it is not in this container; the guard keeps the stage ready)."""
    from bb_ocr_ray.stages.multimodal import DecodeImageStub, pil_available

    if not pil_available():
        pytest.skip("PIL not available in this environment")
    import io

    from PIL import Image

    import pyarrow as pa

    buf = io.BytesIO()
    Image.new("L", (40, 30), color=128).save(buf, format="PNG")
    stage = DecodeImageStub(fake=False)
    out = stage(pa.table({"payload": pa.array([buf.getvalue(), b"junk"],
                                              pa.binary())}))
    assert out.column("width").to_pylist() == [40, -1]
    assert out.column("height").to_pylist() == [30, -1]
    assert abs(out.column("mean_px").to_pylist()[0] - 128.0) < 1e-9


def test_embedding_filters_keep_one_schema(ray_session, sf_tiny,
                                           ray_data_log):
    """The twin plant of q_embedding_near_dups and ivf_topk_exact's
    query filter keep rows of one block only (vec_id < 25 and 10..19),
    so most of their batches keep no row.  Those 0-row blocks carry the
    input's `embedding` type, so Ray logs no schema change of a block
    with that column and no failed sizing of it.  (The shuffle stages
    after them emit column-less empty partitions of Ray's own, whose
    schema-change lines name no `embedding`.)"""
    from bb_ocr_ray.pipelines.queries import q_embedding_near_dups, q_ivf_topk

    pairs = q_embedding_near_dups(sf_tiny).to_pandas()
    assert set(pairs["id_b"] - pairs["id_a"]) == {1_000_000}
    assert len(q_ivf_topk(sf_tiny).to_pandas()) == 50
    logged = [r.getMessage() for r in ray_data_log.records]
    assert not [m for m in logged
                if "different schema" in m and "'embedding'" in m]
    assert not [m for m in logged
                if "Error calculating size for column 'embedding'" in m]


def test_jaccard_pairs_keeps_one_schema(ray_session, sf_tiny, ray_data_log):
    """q_jaccard_pairs' coarse folds (the df fold, the prefix fold and
    the pair dedup) fit the driver on sf_tiny and run there, so no sort
    shuffle emits Ray's column-less 0-row partitions and Ray logs no
    schema change."""
    from bb_ocr_ray.pipelines.queries import q_jaccard_pairs

    assert len(q_jaccard_pairs(sf_tiny).to_pandas()) == 90_752
    assert not [r for r in ray_data_log.records
                if "different schema" in r.getMessage()]
