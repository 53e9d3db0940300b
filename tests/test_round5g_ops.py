"""Round-5 sixth-session batch-C differentials: Heaps vocab growth vs
set-prefix counting, and prefix cluster sizes vs Counter arithmetic."""
import numpy as np
import pandas as pd

from bb_ocr_ray.functions.hashing import ws_tokens


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ---------------------------------------------------------- vocab growth
def test_vocab_growth_matches_prefix_sets(ray_session, tmp_path):
    rng = np.random.RandomState(4)
    vocab = [f"w{i}" for i in range(500)]
    n = 600
    # later docs draw from a wider vocabulary slice: growth is real
    texts = [" ".join(rng.choice(vocab[: 20 + d], size=12))
             for d in range(n)]
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_vocab_growth
    got = q_vocab_growth(sf)

    for _, r in got.iterrows():
        prefix = set()
        for d in range(min(2 ** r["k"], n)):
            prefix.update(ws_tokens(texts[d]))
        assert r["vocab"] == len(prefix), r["k"]
    assert list(got["k"]) == list(range(len(got)))
    assert int(got["new_tokens"].sum()) == int(got["vocab"].iloc[-1])
    assert got["vocab"].is_monotonic_increasing
    assert got["vocab"].iloc[-1] > got["vocab"].iloc[0]   # real growth


# ----------------------------------------------------- prefix clusters
def test_dup_cluster_sizes_matches_counter(ray_session, tmp_path):
    texts = (["shared prefix " + "x" * 60] * 5          # one cluster of 5
             + ["another lead-in " + "y" * 60] * 3      # one of 3
             + [f"unique {i} " + "z" * 60 for i in range(10)])
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_dup_cluster_sizes
    got = q_dup_cluster_sizes(sf).set_index("cluster_size")

    from collections import Counter
    c = Counter(t[:64] for t in texts)
    sizes = Counter(c.values())
    assert set(got.index) == set(sizes)
    for sz, n_cl in sizes.items():
        assert got.loc[sz, "n_clusters"] == n_cl
        assert got.loc[sz, "n_docs"] == sz * n_cl
    assert int(got["n_docs"].sum()) == len(texts)
