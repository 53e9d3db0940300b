"""Round-5 seventh-session batch-H differentials: Lorenz deciles vs a
full per-user sort (incl. exact boundary cuts), and ship delay vs direct
date arithmetic."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


_MIN = 60_000_000


# ------------------------------------------------------------------ lorenz
def test_lorenz_matches_full_sort(ray_session, tmp_path):
    rng = np.random.RandomState(17)
    n_users = 230                       # NOT divisible by 10
    c = rng.zipf(1.7, size=n_users).astype("int64")
    rows = np.repeat(np.arange(n_users, dtype="int64"), c)
    ev = pd.DataFrame({
        "event_id": np.arange(len(rows), dtype="int64"),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": rows, "event_type": "view",
        "value": 1.0, "props": "{}"})
    sf = _write(tmp_path, events=ev)

    from bb_ocr_ray.pipelines.queries import q_lorenz
    got = q_lorenz(sf)

    s = np.sort(c)
    tot = int(s.sum())
    for _, r in got.iterrows():
        p = (int(r["decile"]) * n_users) // 10
        want = int(s[:p].sum())
        assert int(r["n_users_cum"]) == p
        assert int(r["n_events_cum"]) == want, int(r["decile"])
        assert abs(r["share"] - round(want / tot, 6)) < 1e-9
    assert int(got["n_events_cum"].iloc[-1]) == tot      # decile 10 = all
    # heavy tail: bottom half holds far less than half the events
    assert got.loc[got["decile"] == 5, "share"].iloc[0] < 0.35


def test_lorenz_exact_boundary_cut(ray_session, tmp_path):
    # 10 users, counts 1..10: every decile cut lands exactly on a
    # group boundary (the side='left' searchsorted regression case)
    c = np.arange(1, 11, dtype="int64")
    rows = np.repeat(np.arange(10, dtype="int64"), c)
    ev = pd.DataFrame({
        "event_id": np.arange(len(rows), dtype="int64"),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": rows, "event_type": "view",
        "value": 1.0, "props": "{}"})
    sf = _write(tmp_path, events=ev)

    from bb_ocr_ray.pipelines.queries import q_lorenz
    got = q_lorenz(sf)
    cum = np.cumsum(np.sort(c))
    assert list(got["n_events_cum"]) == [int(x) for x in cum]


# -------------------------------------------------------------- ship delay
def test_ship_delay_matches_date_arith(ray_session, tmp_path):
    orders = pd.DataFrame({
        "o_orderkey": np.arange(4, dtype="int64"),
        "o_custkey": np.int64(0), "o_orderstatus": "F",
        "o_totalprice": 1.0,
        "o_orderdate": pd.to_datetime(
            ["2024-01-01", "2024-01-10", "2024-02-01", "2024-02-15"]),
        "o_orderpriority": ["1-URGENT", "1-URGENT", "2-HIGH", "2-HIGH"]})
    li = pd.DataFrame({
        "l_orderkey": np.array([0, 0, 1, 2, 3], dtype="int64"),
        "l_partkey": np.int64(1), "l_suppkey": np.int64(1),
        "l_linenumber": np.int32(1), "l_quantity": 1.0,
        "l_extendedprice": 1.0, "l_discount": 0.0, "l_tax": 0.0,
        "l_returnflag": "A", "l_linestatus": "O",
        "l_shipdate": pd.to_datetime(
            ["2024-01-03", "2024-01-08", "2024-01-10",
             "2024-02-21", "2024-02-15"])})
    sf = _write(tmp_path, orders=orders, lineitem=li)

    from bb_ocr_ray.pipelines.queries import q_ship_delay
    got = q_ship_delay(sf).set_index("o_orderpriority")

    # URGENT: delays 2, 7, 0; HIGH: 20, 0
    assert int(got.loc["1-URGENT", "n"]) == 3
    assert int(got.loc["1-URGENT", "min_days"]) == 0
    assert int(got.loc["1-URGENT", "max_days"]) == 7
    assert abs(got.loc["1-URGENT", "avg_days"] - 3.0) < 1e-9
    assert int(got.loc["2-HIGH", "n"]) == 2
    assert abs(got.loc["2-HIGH", "avg_days"] - 10.0) < 1e-9
