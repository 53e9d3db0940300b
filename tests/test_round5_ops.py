"""Round-5 second-session operator differentials: CDC changelog merge
(latest-wins + tombstones vs a pandas reference) and the fixed-round
k-core peel."""
import numpy as np
import pandas as pd
import pytest


def _cdc_reference(log: pd.DataFrame) -> pd.DataFrame:
    counts = log.groupby("k").size()
    w = (log.sort_values(["k", "rev"], kind="mergesort")
         .drop_duplicates(subset=["k"], keep="last"))
    w = w.assign(n_versions=w["k"].map(counts).astype("int64"))
    return (w[w["op"] != "D"].sort_values("k")
            .reset_index(drop=True))


@pytest.fixture(scope="module")
def changelog():
    rng = np.random.RandomState(11)
    rows = []
    for k in range(300):
        n_rev = rng.randint(1, 6)
        for rev in range(n_rev):
            # ~15% of final revisions are tombstones
            op = ("D" if rev == n_rev - 1 and rng.rand() < 0.15
                  else ("I" if rev == 0 else "U"))
            rows.append((f"key-{k}", rev, op, f"v{k}.{rev}"))
    rng.shuffle(rows)
    return pd.DataFrame(rows, columns=["k", "rev", "op", "payload"])


def test_merge_changelog_matches_pandas(ray_session, changelog):
    import ray.data as rd

    from bb_ocr_ray.stages.cdc import merge_changelog

    # many small blocks so combiner candidates genuinely meet in the
    # fold from different blocks, and several coarse buckets
    ds = rd.from_pandas(changelog).repartition(16)
    got = (merge_changelog(ds, key="k", order_col="rev",
                           coarse_buckets=5)
           .to_pandas().sort_values("k").reset_index(drop=True))
    want = _cdc_reference(changelog)
    pd.testing.assert_frame_equal(
        got[["k", "rev", "op", "payload", "n_versions"]],
        want[["k", "rev", "op", "payload", "n_versions"]])


def test_merge_changelog_tombstone_edge_cases(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.cdc import merge_changelog

    log = pd.DataFrame({
        "k": ["a", "a", "b", "c", "c", "c"],
        "rev": [0, 1, 0, 0, 1, 2],
        "op": ["I", "D", "I", "I", "D", "U"],  # c: delete then re-insert
        "payload": ["a0", None, "b0", "c0", None, "c2"],
    })
    got = (merge_changelog(rd.from_pandas(log).repartition(3),
                           key="k", order_col="rev", coarse_buckets=2)
           .to_pandas().sort_values("k").reset_index(drop=True))
    # a: tombstone wins -> gone; b: plain insert; c: update after the
    # delete resurrects the key with all 3 log rows counted
    assert list(got["k"]) == ["b", "c"]
    assert list(got["payload"]) == ["b0", "c2"]
    assert list(got["n_versions"]) == [1, 3]


def _kcore_reference(edges: pd.DataFrame, k: int) -> pd.DataFrame:
    e = edges.copy()
    while True:
        deg = pd.concat([e["src"], e["dst"]]).value_counts()
        surv = set(deg[deg >= k].index)
        e2 = e[e["src"].isin(surv) & e["dst"].isin(surv)]
        if len(e2) == len(e):
            break
        e = e2
    deg = pd.concat([e["src"], e["dst"]]).value_counts()
    core = deg[deg >= k].sort_index()
    return pd.DataFrame({"node": core.index.to_numpy("int64"),
                         "deg": core.to_numpy("int64")})


@pytest.fixture(scope="module")
def random_graph():
    rng = np.random.RandomState(7)
    e = pd.DataFrame({"src": rng.randint(0, 120, 600),
                      "dst": rng.randint(0, 120, 600)})
    e = e[e["src"] < e["dst"]].drop_duplicates()  # canonical, no loops
    return e.reset_index(drop=True).astype("int64")


def test_kcore_fixpoint_matches_pandas(ray_session, random_graph):
    import ray.data as rd

    from bb_ocr_ray.stages.graph import kcore

    got = (kcore(rd.from_pandas(random_graph).repartition(8),
                 k=3, rounds=None)
           .to_pandas().sort_values("node").reset_index(drop=True)
           .astype("int64"))
    want = _kcore_reference(random_graph, 3)
    pd.testing.assert_frame_equal(got, want)


def test_kcore_forced_hash_path_equal(ray_session, random_graph):
    import ray.data as rd

    from bb_ocr_ray.stages.graph import kcore

    ds = rd.from_pandas(random_graph).repartition(8)
    choices = []
    bcast = (kcore(ds, k=3, rounds=4, _on_choice=choices.append)
             .to_pandas().sort_values("node").reset_index(drop=True))
    hashp = (kcore(ds, k=3, rounds=4, broadcast_limit=0,
                   _on_choice=choices.append)
             .to_pandas().sort_values("node").reset_index(drop=True))
    assert choices == ["broadcast", "hash"]
    pd.testing.assert_frame_equal(bcast.astype("int64"),
                                  hashp.astype("int64"))


def test_kcore_empty_core(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.graph import kcore

    # a path graph has max degree 2: its 3-core is empty
    chain = pd.DataFrame({"src": np.arange(20, dtype="int64"),
                          "dst": np.arange(1, 21, dtype="int64")})
    got = kcore(rd.from_pandas(chain), k=3, rounds=None).to_pandas()
    assert len(got) == 0


# ---------------------------------------------------------------------------
# skyline
# ---------------------------------------------------------------------------
def _skyline_bruteforce(df: pd.DataFrame) -> pd.DataFrame:
    keep = []
    for i, (xi, yi) in enumerate(zip(df["x"], df["y"])):
        dominated = ((df["x"] >= xi) & (df["y"] >= yi)
                     & ((df["x"] > xi) | (df["y"] > yi))).any()
        if not dominated:
            keep.append(i)
    return df.iloc[keep]


def test_skyline_mask_matches_bruteforce():
    from bb_ocr_ray.stages.skyline import skyline_mask

    rng = np.random.RandomState(11)
    for n in (1, 2, 17, 300):
        # small value range: forces duplicate points and x/y ties
        df = pd.DataFrame({"x": rng.randint(0, 12, n).astype("int64"),
                           "y": rng.randint(0, 12, n).astype("int64")})
        got = df[skyline_mask(df["x"].to_numpy(), df["y"].to_numpy())]
        want = _skyline_bruteforce(df)
        pd.testing.assert_frame_equal(got, want)


def test_skyline_distributed_equals_local(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.skyline import skyline, skyline_mask

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"id": np.arange(5000, dtype="int64"),
                       "x": rng.randint(0, 4000, 5000).astype("int64"),
                       "y": rng.randint(0, 4000, 5000).astype("int64")})
    got = (skyline(rd.from_pandas(df).repartition(16), x="x", y="y")
           .to_pandas().sort_values("id").reset_index(drop=True))
    want = (df[skyline_mask(df["x"].to_numpy(), df["y"].to_numpy())]
            .sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    # duplicates of a frontier point all survive
    assert got.duplicated(["x", "y"]).any() or len(got) >= 1


def test_skyline_all_duplicates(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.skyline import skyline

    df = pd.DataFrame({"id": np.arange(6, dtype="int64"),
                       "x": np.int64(3), "y": np.int64(7)})
    got = skyline(rd.from_pandas(df).repartition(3), x="x", y="y").to_pandas()
    assert len(got) == 6  # no strict dominance among equals


# ---------------------------------------------------------------------------
# assortativity
# ---------------------------------------------------------------------------
def test_assortativity_paths_agree_and_match_numpy(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.graph import assortativity

    rng = np.random.RandomState(9)
    e = pd.DataFrame({"src": rng.randint(0, 80, 500).astype("int64"),
                      "dst": rng.randint(0, 80, 500).astype("int64")})
    ds = rd.from_pandas(e).repartition(8)
    choices = []
    b = assortativity(ds, _on_choice=choices.append)
    h = assortativity(ds, deg_broadcast_limit=0,
                      _on_choice=choices.append)
    assert choices == ["broadcast", "hash"]
    assert b["n_ends"] == h["n_ends"] == 1000
    assert abs(b["assortativity"] - h["assortativity"]) < 1e-12

    # numpy reference: Pearson corr over symmetrized endpoint degrees
    deg = pd.concat([e["src"], e["dst"]]).value_counts()
    x = np.concatenate([deg[e["src"]].to_numpy(np.float64),
                        deg[e["dst"]].to_numpy(np.float64)])
    y = np.concatenate([deg[e["dst"]].to_numpy(np.float64),
                        deg[e["src"]].to_numpy(np.float64)])
    want = np.corrcoef(x, y)[0, 1]
    assert abs(b["assortativity"] - want) < 1e-9


# ---------------------------------------------------------------------------
# profile + table checksum
# ---------------------------------------------------------------------------
def test_profile_matches_pandas(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.profile import profile_table

    df = pd.DataFrame({
        "id": np.arange(500, dtype="int64"),
        "n": np.where(np.arange(500) % 7 == 0, np.nan,
                      np.arange(500) * 3.0),
        "cat": pd.Series(["a", "b", "c", None, "a"] * 100),
        "txt": pd.Series(["", "x", "yy", "zzz", ""] * 100),
    })
    p = profile_table(rd.from_pandas(df).repartition(8),
                      numeric=["n"], categorical=["cat"], text=["txt"])
    assert p["n_rows"] == 500
    assert p["null_n"] == int(df["n"].isna().sum())
    assert p["null_cat"] == 100
    assert p["distinct_cat"] == 3
    assert p["min_n"] == int(df["n"].min())
    assert p["max_n"] == int(df["n"].max())
    assert p["sum_n"] == int(df["n"].sum())
    assert p["empty_txt"] == 200


def test_table_checksum_order_invariant(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.profile import table_checksum

    df = pd.DataFrame({"k": np.arange(2000, dtype="int64"),
                       "t": [f"doc {i} body" for i in range(2000)]})
    a = table_checksum(rd.from_pandas(df).repartition(3), cols=["k", "t"])
    shuffled = df.sample(frac=1.0, random_state=4).reset_index(drop=True)
    b = table_checksum(rd.from_pandas(shuffled).repartition(11),
                       cols=["k", "t"])
    assert a == b
    # a single-row edit changes the digest
    edited = df.copy()
    edited.loc[977, "t"] = "doc 977 bod"
    c = table_checksum(rd.from_pandas(edited).repartition(3),
                       cols=["k", "t"])
    assert c["checksum"] != a["checksum"]


def test_table_checksum_null_text_matches_oracle(ray_session, tmp_path):
    # NULL text hashes as '' like SQL concat, so it cannot collide with
    # a real text "None"
    import hashlib

    import duckdb

    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import q_table_checksum

    texts = ["alpha", None, "None", ""]
    docs = pd.DataFrame({"doc_id": np.arange(4, dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": np.arange(4, dtype="int64")})
    sf = tmp_path / "sf"
    sf.mkdir()
    docs.to_parquet(sf / "documents.parquet", index=False)

    want = sum(int(hashlib.md5(f"{i}|{t or ''}".encode()).hexdigest()[:15], 16)
               for i, t in enumerate(texts)) % (2**63 - 1)
    got = q_table_checksum(str(sf))
    assert int(got["n_rows"].iloc[0]) == 4
    assert int(got["checksum"].iloc[0]) == want

    con = duckdb.connect()
    con.register("documents", docs)
    oracle = con.sql(ORACLES["q_table_checksum"]).df()
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False)
