"""Round-5 seventh-session batch-C differentials: 2-hop reach vs a
networkx-free BFS, and winsorized mean vs a direct clamp on a skewed
planted distribution."""
import math

import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


_DAY = 86_400_000_000
_WEEK = 7 * _DAY


# ----------------------------------------------------------------- two hop
def test_two_hop_matches_bfs(ray_session, tmp_path):
    n = 400
    docs = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                         "text": "x", "lang": "en", "source": "s",
                         "n_chars": np.int64(1)})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_two_hop
    got = q_two_hop(sf)

    # rebuild the same synthetic graph and BFS to depth 2
    adj: dict = {}
    d = np.arange(n, dtype="int64")
    for u, v in list(zip(d[((d * d + 3 * d) % 11) >= 3],
                         d[((d * d + 3 * d) % 11) >= 3] + 1)) + \
            list(zip(d[((7 * d + 5) % 13) >= 4],
                     d[((7 * d + 5) % 13) >= 4] + 2)):
        if v >= n or u == v:
            continue
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    deg = {k: len(vs) for k, vs in adj.items()}
    seeds = sorted(deg, key=lambda k: (-deg[k], k))[:5]
    assert sorted(got["seed"]) == sorted(seeds)
    for _, r in got.iterrows():
        s = int(r["seed"])
        reach = set(adj[s])
        for v in list(adj[s]):
            reach |= adj[v]
        reach.discard(s)
        assert int(r["n_within_2"]) == len(reach), s
        assert int(r["degree"]) == deg[s]


# --------------------------------------------------------------- winsorize
def test_winsorize_matches_direct_clamp(ray_session, tmp_path):
    rng = np.random.RandomState(5)
    # skewed: mostly 1..20 with planted extreme outliers
    q = np.concatenate([rng.randint(1, 21, size=900),
                        np.full(50, 500.0), np.full(50, -100.0)])
    li = pd.DataFrame({
        "l_orderkey": np.arange(len(q), dtype="int64"),
        "l_partkey": np.int64(1), "l_suppkey": np.int64(1),
        "l_linenumber": np.int32(1),
        "l_quantity": q.astype("float64"),
        "l_extendedprice": 1.0, "l_discount": 0.0, "l_tax": 0.0,
        "l_returnflag": ["A"] * 500 + ["R"] * 500,
        "l_linestatus": "O",
        "l_shipdate": pd.Timestamp("2024-01-01")})
    sf = _write(tmp_path, lineitem=li)

    from bb_ocr_ray.pipelines.queries import q_winsorize
    got = q_winsorize(sf).set_index("l_returnflag")

    for f in ("A", "R"):
        v = np.sort(q[(np.arange(len(q)) < 500) == (f == "A")])
        n = len(v)
        lo = v[math.ceil(0.1 * n) - 1]
        hi = v[math.ceil(0.9 * n) - 1]
        want = float(np.clip(v, lo, hi).mean())
        assert got.loc[f, "lo"] == lo
        assert got.loc[f, "hi"] == hi
        assert abs(got.loc[f, "wmean"] - round(want, 6)) < 1e-6
        assert int(got.loc[f, "n"]) == n
    # the planted outliers (all in flag R) moved the raw mean far from
    # the winsorized one
    raw = q[500:].mean()
    assert abs(raw - got.loc["R", "wmean"]) > 5
