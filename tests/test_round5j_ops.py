"""Round-5 seventh-session batch-C differentials: 2-hop reach vs a
networkx-free BFS."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


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
