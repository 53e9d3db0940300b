"""Round-5 seventh-session batch-D differentials: balanced class
weights vs direct ratios, and OOV rate vs explicit vocab sets."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------ class weights
def test_class_weights_direct(ray_session, tmp_path):
    labels = np.array([0] * 90 + [1] * 9 + [2] * 1, dtype="int32")
    emb = pd.DataFrame({
        "vec_id": np.arange(100, dtype="int64"),
        "embedding": [np.zeros(4, dtype="float32")] * 100,
        "label": labels})
    sf = _write(tmp_path, embeddings=emb)

    from bb_ocr_ray.pipelines.queries import q_class_weights
    got = q_class_weights(sf).set_index("label")

    for lab, n in {0: 90, 1: 9, 2: 1}.items():
        assert int(got.loc[lab, "n"]) == n
        assert abs(got.loc[lab, "weight"] - round(100 / (3 * n), 6)) < 1e-9
    # rare class dominates the weighting
    assert got.loc[2, "weight"] > 30 * got.loc[0, "weight"]


# ----------------------------------------------------------------- oov rate
def test_oov_rate_planted_vocab(ray_session, tmp_path):
    # 25 distinct words; the 20 most frequent are 'w00'..'w19'
    texts, langs = [], []
    for i in range(20):
        texts += [f"w{i:02d} " * (30 - i)]          # freq 30-i >= 11
        langs += ["en"]
    texts += ["rare1 rare2 rare3 w00", "rare4 rare5"]
    langs += ["fr", "fr"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts, "lang": langs, "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_oov_rate
    got = q_oov_rate(sf).set_index("lang")

    # en docs consist only of top-20 words
    assert int(got.loc["en", "n_oov"]) == 0
    # fr: 6 tokens, 5 rare (oov), 1 known
    assert int(got.loc["fr", "n_tokens"]) == 6
    assert int(got.loc["fr", "n_oov"]) == 5
    assert abs(got.loc["fr", "oov_rate"] - round(5 / 6, 6)) < 1e-9
