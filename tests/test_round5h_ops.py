"""Round-5 seventh-session batch-A differentials: anomaly days vs direct
z-scores, and lag-1 autocorrelation vs numpy on a planted alternating
series."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


def _events(ts_us, user_id=None, event_type=None, value=None):
    n = len(ts_us)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype="int64"),
        "ts": pd.to_datetime(np.asarray(ts_us, dtype="int64"), unit="us"),
        "user_id": np.asarray(
            user_id if user_id is not None else np.zeros(n), dtype="int64"),
        "event_type": (event_type if event_type is not None
                       else ["click"] * n),
        "value": np.asarray(
            value if value is not None else np.ones(n), dtype="float64"),
        "props": ["{}"] * n})


_DAY = 86_400_000_000
_HOUR = 3_600_000_000


# ------------------------------------------------------------ anomaly days
def test_anomaly_days_matches_direct_z(ray_session, tmp_path):
    counts = [100] * 20 + [500]          # one planted spike day
    ts = []
    for d, c in enumerate(counts):
        ts += [d * _DAY + i * 1000 for i in range(c)]
    sf = _write(tmp_path, events=_events(np.array(ts, dtype="int64")))

    from bb_ocr_ray.pipelines.queries import q_anomaly_days
    got = q_anomaly_days(sf)

    n = np.array(counts, dtype="float64")
    z = (n - n.mean()) / n.std(ddof=0)
    want_days = [d for d, v in enumerate(z) if abs(round(v, 6)) >= 2]
    assert list(got["day"]) == want_days
    for _, r in got.iterrows():
        assert r["n_events"] == counts[int(r["day"])]
        assert abs(r["z"] - round(z[int(r["day"])], 6)) < 1e-9
    assert 20 in list(got["day"])        # the spike is flagged


# --------------------------------------------------------------- autocorr
def test_autocorr_matches_numpy_on_alternating_series(ray_session, tmp_path):
    counts = [10, 200] * 8               # strong negative lag-1
    ts = []
    for d, c in enumerate(counts):
        ts += [d * _DAY + i * 7919 for i in range(c)]
    sf = _write(tmp_path, events=_events(np.array(ts, dtype="int64")))

    from bb_ocr_ray.pipelines.queries import q_autocorr
    got = q_autocorr(sf)

    n = np.array(counts, dtype="float64")
    want = float(np.corrcoef(n[:-1], n[1:])[0, 1])
    assert int(got["n_pairs"].iloc[0]) == len(counts) - 1
    assert abs(got["autocorr"].iloc[0] - round(want, 6)) < 1e-9
    assert got["autocorr"].iloc[0] < -0.9
