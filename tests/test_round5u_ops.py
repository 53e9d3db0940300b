"""Round-5 seventh-session batch-N differential: WAND bounds vs a
direct per-term max-tf·idf computation."""
import math

import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


def _docs(texts):
    return pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t) for t in texts]})


# -------------------------------------------------------------- wand bounds
def test_wand_bounds_matches_direct(ray_session, tmp_path):
    rng = np.random.RandomState(8)
    vocab = [f"t{i}" for i in range(40)]
    texts = []
    for _ in range(120):
        toks = list(rng.choice(vocab, size=rng.randint(3, 25)))
        texts.append(" ".join(toks))
    # planted: a rare term with huge in-doc tf -> top bound
    texts.append(" ".join(["burst"] * 30))
    sf = _write(tmp_path, documents=_docs(texts))

    from bb_ocr_ray.pipelines.queries import q_wand_bounds
    got = q_wand_bounds(sf)

    from collections import Counter
    n_docs = len(texts)
    mx: dict = {}
    df: Counter = Counter()
    for t in texts:
        c = Counter(t.split())
        df.update(c.keys())
        for tok, n in c.items():
            mx[tok] = max(mx.get(tok, 0), n)
    want = sorted(
        ((tok, mx[tok], df[tok],
          round(mx[tok] * math.log(n_docs / df[tok]), 6))
         for tok in df),
        key=lambda r: (-r[3], r[0]))[:20]
    assert [tuple(r) for r in got.itertuples(index=False)] == want
    # the planted rare-high-tf term tops the table
    assert got["tok"].iloc[0] == "burst"
