"""Round-5 sixth-session operator differential: the robots gate vs a
per-row loop on hand-built inputs."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


def _docs(n):
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": "x", "n_chars": np.int64(1), "lang": "en", "source": "s0"})


# ----------------------------------------------------------- robots gate
def test_robots_filter_matches_per_row_loop(ray_session, tmp_path):
    n = 3000
    sf = _write(tmp_path, documents=_docs(n))

    from bb_ocr_ray.pipelines.queries import q_robots_filter
    got = q_robots_filter(sf)

    rules = {"site0.com": ("/p/1",), "site1.com": ("/p/7",),
             "site2.com": ("/p/3",)}
    ref: dict = {}
    for d in range(n):
        host = f"site{d % 3}.com"
        path = f"/p/{d // 16}"
        blocked = any(path.startswith(p) for p in rules[host])
        a, b = ref.get(host, (0, 0))
        ref[host] = (a + (not blocked), b + blocked)
    assert list(got["host"]) == sorted(ref)
    for _, r in got.iterrows():
        assert (r["n_allowed"], r["n_blocked"]) == ref[r["host"]]
    assert (got["n_blocked"] > 0).all()       # every host's rule fires
