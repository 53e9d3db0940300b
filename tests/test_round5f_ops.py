"""Round-5 sixth-session batch-B differentials: norm bands vs
per-vector numpy norms, and the term scan vs Python str.count."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ----------------------------------------------------------- norm bands
def test_norm_bands_matches_numpy(ray_session, tmp_path):
    rng = np.random.RandomState(2)
    vecs = [rng.normal(0, 1, 64).astype("float32") for _ in range(300)]
    vecs += [np.zeros(64, dtype="float32")]              # zero vector
    vecs += [(rng.normal(0, 1, 64) * 5).astype("float32")]  # un-normalized
    emb = pd.DataFrame({"vec_id": np.arange(len(vecs), dtype="int64"),
                        "embedding": vecs,
                        "label": np.zeros(len(vecs), dtype="int32")})
    sf = _write(tmp_path, embeddings=emb)

    from bb_ocr_ray.pipelines.queries import q_norm_bands
    got = q_norm_bands(sf)

    norms = np.round([np.sqrt((v.astype("float64") ** 2).sum())
                      for v in vecs], 4)
    bands = np.floor(norms * 10).astype("int64")
    for _, r in got.iterrows():
        m = bands == r["band"]
        assert r["n_vecs"] == m.sum()
        assert abs(r["min_norm"] - norms[m].min()) < 1e-9
        assert abs(r["max_norm"] - norms[m].max()) < 1e-9
    assert int(got["n_vecs"].sum()) == len(vecs)
    assert 0 in set(got["band"])                 # the zero vector's band


# ------------------------------------------------------------ term scan
def test_term_scan_matches_str_count(ray_session, tmp_path):
    texts = ["the table has a hash table inside",
             "merge batch merge batch merge batch",
             "tabletable",                        # non-overlapping: 2
             "hashhashhash", "", None,
             "no match here"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t or "") for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import (_TERM_SCAN_PATTERNS,
                                              q_term_scan)
    got = q_term_scan(sf).set_index("term")

    for pat in _TERM_SCAN_PATTERNS:
        counts = [(t or "").count(pat) for t in texts]
        assert got.loc[pat, "n_occurrences"] == sum(counts)
        assert got.loc[pat, "n_docs"] == sum(1 for c in counts if c > 0)
    assert got.loc["zzz-absent-term", "n_occurrences"] == 0   # zero row
    assert got.loc["table", "n_occurrences"] == 4             # 2 + 2
    assert got.loc["merge batch", "n_occurrences"] == 3
