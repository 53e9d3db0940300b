"""Round-5 second-session operator differentials: the column profile
vs pandas, and the order-invariant table checksum (including NULL
text) vs its DuckDB oracle."""
import numpy as np
import pandas as pd


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
