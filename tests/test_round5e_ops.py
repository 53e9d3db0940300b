"""Round-5 sixth-session batch-A differentials: Zipf slope vs numpy
polyfit on planted frequencies, and the per-source dup ratio vs Counter
arithmetic."""
import numpy as np
import pandas as pd

from bb_ocr_ray.functions.hashing import ws_tokens


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------ Zipf slope
def test_zipf_slope_matches_polyfit_on_planted_freqs(ray_session,
                                                     tmp_path):
    # token w{i} appears exactly round(5000 / (i+1)) times: slope ~ -1
    freqs = [max(1, round(5000 / (i + 1))) for i in range(250)]
    bag = []
    for i, f in enumerate(freqs):
        bag += [f"w{i:03d}"] * f
    rng = np.random.RandomState(7)
    rng.shuffle(bag)
    texts = [" ".join(bag[i::400]) for i in range(400)]
    df = pd.DataFrame({"doc_id": np.arange(400, dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_zipf_slope
    got = q_zipf_slope(sf)

    from collections import Counter
    cnt = Counter()
    for t in texts:
        cnt.update(ws_tokens(t))
    top = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:200]
    y = np.log([n for _, n in top])
    x = np.log(np.arange(1, len(top) + 1))
    slope = np.polyfit(x, y, 1)[0]
    assert int(got["k"].iloc[0]) == 200
    assert int(got["n_top1"].iloc[0]) == top[0][1]
    assert int(got["n_top_last"].iloc[0]) == top[-1][1]
    assert abs(got["zipf_slope"].iloc[0] - slope) < 1e-5
    assert -1.1 < got["zipf_slope"].iloc[0] < -0.9   # planted Zipf -1


# ------------------------------------------------------------ dup ratio
def test_dup_ratio_matches_counter_reference(ray_session, tmp_path):
    rng = np.random.RandomState(5)
    rows = []
    for s, (n_unique, n_dup_groups, copies) in {
            "clean": (200, 0, 0), "dirty": (100, 20, 4),
            "half": (50, 25, 2)}.items():
        for i in range(n_unique):
            rows.append((s, f"unique {s} {i}"))
        for g in range(n_dup_groups):
            rows += [(s, f"dup {s} {g}")] * copies
    rng.shuffle(rows)
    df = pd.DataFrame(rows, columns=["source", "text"])
    df["doc_id"] = np.arange(len(df), dtype="int64")
    df["lang"] = "en"
    df["n_chars"] = df["text"].str.len().astype("int64")
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import q_dup_ratio
    got = q_dup_ratio(sf).set_index("source")

    from collections import Counter
    for s in ("clean", "dirty", "half"):
        c = Counter(t for src, t in rows if src == s)
        n_docs = sum(c.values())
        n_dup = sum(v for v in c.values() if v > 1)
        r = got.loc[s]
        assert r["n_docs"] == n_docs
        assert r["n_distinct"] == len(c)
        assert r["n_dup_docs"] == n_dup
        assert abs(r["dup_ratio"] - n_dup / n_docs) < 1e-6
    assert got.loc["clean", "dup_ratio"] == 0.0
    assert got.loc["dirty", "n_dup_docs"] == 80
