"""Round-5 sixth-session operator differentials: each new registry
entry vs an independently-coded (usually brute-force) reference on
hand-built inputs — entropy / chi-squared vs closed forms and the
robots gate vs a per-row loop."""
import math

import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


def _docs(n, langs=("en",), sources=("s0",), seed=7):
    rng = np.random.RandomState(seed)
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": "x", "n_chars": np.int64(1),
        "lang": rng.choice(list(langs), n),
        "source": rng.choice(list(sources), n)})


# ------------------------------------------------- language-mix entropy
def test_lang_entropy_matches_closed_form(ray_session, tmp_path):
    df = _docs(3000, langs=("en", "de", "fr", "zz"),
               sources=("a", "b", "mono"))
    df.loc[df["source"] == "mono", "lang"] = "en"   # entropy exactly 0
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_lang_entropy
    got = q_lang_entropy(sf)

    for _, r in got.iterrows():
        g = df[df["source"] == r["source"]]["lang"].value_counts()
        n = int(g.sum())
        h = sum(-(c / n) * math.log(c / n) for c in g)
        assert r["n_docs"] == n and r["n_langs"] == len(g)
        assert abs(r["entropy_nats"] - h) < 1e-6
    assert got.set_index("source").loc["mono", "entropy_nats"] == 0.0


# --------------------------------------------------- chi-squared cells
def test_chi2_cells_completes_zero_cells(ray_session, tmp_path):
    df = _docs(2000, langs=("en", "de"), sources=("a", "b"))
    # make (de, b) a structurally absent cell
    df.loc[(df["lang"] == "de") & (df["source"] == "b"), "source"] = "a"
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_chi2_cells
    got = q_chi2_cells(sf)

    assert len(got) == 4                     # full grid incl. zero cell
    rt = df["lang"].value_counts()
    ct = df["source"].value_counts()
    n = len(df)
    obs = df.groupby(["lang", "source"]).size()
    for _, r in got.iterrows():
        o = int(obs.get((r["lang"], r["source"]), 0))
        e = rt[r["lang"]] * ct[r["source"]] / n
        assert r["n_obs"] == o
        assert abs(r["expected"] - e) < 1e-5
        assert abs(r["chi2_term"] - (o - e) ** 2 / e) < 1e-5
    zero = got[(got["lang"] == "de") & (got["source"] == "b")]
    assert len(zero) == 1 and zero["n_obs"].iloc[0] == 0
    assert zero["chi2_term"].iloc[0] > 0


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


