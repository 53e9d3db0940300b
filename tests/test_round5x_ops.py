"""Round-5 seventh-session batch-Q differential: embedding outliers vs
a direct centroid-distance computation with planted far vectors."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------- emb outliers
def test_emb_outliers_planted_far_vectors(ray_session, tmp_path):
    rng = np.random.RandomState(14)
    d = 8
    tight = rng.randn(200, d).astype("float32") * 0.1      # label 0
    far = (rng.randn(5, d).astype("float32") * 0.1
           + np.float32(10.0))                             # planted, label 0
    other = rng.randn(100, d).astype("float32")            # label 1
    X = np.vstack([tight, far, other])
    labels = np.array([0] * 205 + [1] * 100, dtype="int32")
    emb = pd.DataFrame({
        "vec_id": np.arange(len(X), dtype="int64"),
        "embedding": [X[i] for i in range(len(X))],
        "label": labels})
    sf = _write(tmp_path, embeddings=emb)

    from bb_ocr_ray.pipelines.queries import q_emb_outliers
    got = q_emb_outliers(sf).set_index("label")

    # independent computation
    for lv in (0, 1):
        Xl = X[labels == lv].astype("float64")
        c = Xl.mean(axis=0)
        d2 = ((Xl - c) ** 2).sum(axis=1)
        thr = round(4.0 * d2.mean(), 6)
        n_out = int((np.round(d2, 6) > thr).sum())
        assert int(got.loc[lv, "n"]) == len(Xl)
        assert int(got.loc[lv, "n_out"]) == n_out, lv
        assert abs(got.loc[lv, "mean_d2"] - round(d2.mean(), 6)) < 1e-5
    # the 5 planted far vectors ARE the label-0 outliers
    assert int(got.loc[0, "n_out"]) == 5
