"""Round-5 fifth-session operator differentials: the KS drift
statistic vs an explicit empirical-CDF reference and a hand-worked
case with a NULL length, and the hashing-trick
featurizer vs a plain python reference."""

import numpy as np
import pandas as pd

from bb_ocr_ray.functions.hashing import stable_u64, ws_tokens


def _write_docs(tmp_path, df):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    df.to_parquet(sf / "documents.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------ KS test
def test_ks_test_matches_ecdf_reference(ray_session, tmp_path):
    rng = np.random.RandomState(11)
    # three sources with deliberately different length distributions
    parts = []
    for s, (lo, hi, n) in {"a": (10, 200, 400), "b": (150, 400, 300),
                           "c": (10, 400, 250)}.items():
        parts.append(pd.DataFrame({
            "doc_id": np.arange(n), "text": "x", "lang": "en",
            "source": s,
            "n_chars": rng.randint(lo, hi, n).astype("int64")}))
    df = pd.concat(parts, ignore_index=True)
    df["doc_id"] = np.arange(len(df), dtype="int64")
    sf = _write_docs(tmp_path, df)

    from bb_ocr_ray.pipelines.queries import q_ks_test
    got = q_ks_test(sf)

    # reference: explicit two-sample ECDF max-gap on the value grid
    recs = []
    for s in sorted(df["source"].unique()):
        a = np.sort(df.loc[df["source"] == s, "n_chars"].to_numpy())
        b = np.sort(df.loc[df["source"] != s, "n_chars"].to_numpy())
        grid = np.unique(np.concatenate([a, b]))
        fa = np.searchsorted(a, grid, side="right") / len(a)
        fb = np.searchsorted(b, grid, side="right") / len(b)
        recs.append({"source": s, "n_source": len(a),
                     "ks_d": np.max(np.abs(fa - fb))})
    want = pd.DataFrame(recs)
    assert list(got["source"]) == list(want["source"])
    assert list(got["n_source"]) == list(want["n_source"])
    np.testing.assert_allclose(got["ks_d"], want["ks_d"], atol=1e-6)
    # the exact integer cross-product path must agree with float ECDF
    assert (got["ks_d"] > 0).all()


def test_ks_test_skips_null_n_chars(ray_session, tmp_path):
    # source a: lengths 1, 2, 3 plus one NULL; source b: lengths 2, 4.
    # ECDFs on the grid 1..4 (the NULL is no observation):
    #   F_a = 1/3, 2/3, 1, 1   F_b = 0, 1/2, 1/2, 1
    # |F_a - F_b| = 1/3, 1/6, 1/2, 0  ->  D = 1/2 for both sources
    import duckdb

    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import q_ks_test

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype="int64"), "text": "x", "lang": "en",
        "source": ["a", "a", "a", "a", "b", "b"],
        "n_chars": pd.array([1, 2, 3, None, 2, 4], dtype="Int64")})
    sf = _write_docs(tmp_path, df)
    want = pd.DataFrame({"source": ["a", "b"], "n_source": [3, 2],
                         "ks_d": [0.5, 0.5]})

    got = q_ks_test(sf)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    con = duckdb.connect()
    con.register("documents", df)
    oracle = con.sql(ORACLES["q_ks_test"]).df()
    pd.testing.assert_frame_equal(oracle, want, check_dtype=False)


# ----------------------------------------------------- feature hashing
def test_feature_hash_matches_python_reference(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(300)]
    n = 410
    texts = [" ".join(rng.choice(vocab, rng.randint(3, 40)))
             for _ in range(n)]
    texts[41] = ""          # empty doc inside the probe sample
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write_docs(tmp_path, df)

    from bb_ocr_ray.pipelines.queries import q_feature_hash
    got = q_feature_hash(sf)

    recs = []
    for did in range(0, n, 41):
        acc: dict = {}
        for tok in ws_tokens(texts[did]):
            bk = stable_u64(tok) % 256
            acc[bk] = acc.get(bk, 0) + 1
        for bk in sorted(acc):
            recs.append({"doc_id": did, "bucket": bk, "n": acc[bk]})
    want = pd.DataFrame(recs).astype("int64")
    pd.testing.assert_frame_equal(got, want)
    # empty probe doc contributes no rows
    assert 41 not in set(got["doc_id"])
