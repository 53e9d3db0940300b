"""Round-5 seventh-session batch-R differentials: active-days
histogram vs a per-user set walk."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


_DAY = 86_400_000_000


# -------------------------------------------------------------- active days
def test_active_days_matches_set_walk(ray_session, tmp_path):
    rng = np.random.RandomState(19)
    rows = []
    for u in range(60):
        days = rng.choice(28, size=rng.randint(1, 20), replace=False)
        for d in days:
            for off in rng.randint(0, _DAY, size=rng.randint(1, 3)):
                rows.append((u, int(d) * _DAY + int(off)))
    ev = pd.DataFrame({
        "event_id": np.arange(len(rows), dtype="int64"),
        "ts": pd.to_datetime([r[1] for r in rows], unit="us"),
        "user_id": np.array([r[0] for r in rows], dtype="int64"),
        "event_type": "view", "value": 1.0, "props": "{}"})
    sf = _write(tmp_path, events=ev)

    from bb_ocr_ray.pipelines.queries import q_active_days
    got = q_active_days(sf)

    per_user: dict = {}
    for u, us in rows:
        per_user.setdefault(u, set()).add(us // _DAY)
    want = pd.Series([len(v) for v in per_user.values()]) \
        .value_counts().sort_index()
    assert list(got["days"]) == list(want.index)
    assert list(got["n_users"]) == list(want.values)
    assert int(got["n_users"].sum()) == 60
