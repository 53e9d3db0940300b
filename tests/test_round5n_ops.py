"""Round-5 seventh-session batch-G differentials: int8 quantization
error vs a direct numpy reconstruction (incl. a constant dimension with
zero range)."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# -------------------------------------------------------------- emb quantize
def test_emb_quantize_matches_numpy(ray_session, tmp_path):
    rng = np.random.RandomState(9)
    n, d = 300, 8
    X = rng.randn(n, d).astype("float32")
    X[:, 3] = 7.5                              # constant dim: sc == 0
    emb = pd.DataFrame({
        "vec_id": np.arange(n, dtype="int64"),
        "embedding": [X[i] for i in range(n)],
        "label": np.int32(0)})
    sf = _write(tmp_path, embeddings=emb)

    from bb_ocr_ray.pipelines.queries import q_emb_quantize
    got = q_emb_quantize(sf)

    Xd = X.astype("float64")
    mn, mx = Xd.min(axis=0), Xd.max(axis=0)
    sc = (mx - mn) / 255.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.clip(np.floor((Xd - mn) / sc + 0.5), 0, 255)
    recon = np.where(sc == 0.0, mn, mn + q * sc)
    e = Xd - recon
    assert int(got["n_vals"].iloc[0]) == n * d
    assert abs(got["max_abs_err"].iloc[0]
               - round(float(np.abs(e).max()), 6)) < 1e-9
    assert abs(got["mse_e6"].iloc[0]
               - round(float((e * e).mean()) * 1e6, 6)) < 1e-3
    # the constant dimension reconstructs exactly
    assert np.abs(e[:, 3]).max() == 0.0
    # 8-bit quantization of ~6-sigma range keeps error under half a step
    assert got["max_abs_err"].iloc[0] <= float((sc / 2).max()) + 1e-12
