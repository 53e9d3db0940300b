"""Round-5 seventh-session batch-E differentials: token length
histogram vs a Counter walk, and bigram entropies vs closed forms on a
planted deterministic/uniform corpus."""
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
    n = len(texts)
    return pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t) for t in texts]})


# ------------------------------------------------------------- tok len dist
def test_tok_len_dist_matches_counter(ray_session, tmp_path):
    texts = ["a bb ccc dddd a bb", "eeeee a", ""]
    sf = _write(tmp_path, documents=_docs(texts))

    from bb_ocr_ray.pipelines.queries import q_tok_len_dist
    got = q_tok_len_dist(sf)

    from collections import Counter
    want: Counter = Counter()
    for t in texts:
        for tok in t.split():
            want[len(tok)] += 1
    assert dict(zip(got["tok_len"], got["n"])) == dict(want)
    assert list(got["tok_len"]) == sorted(want)


# ------------------------------------------------------------ ngram entropy
def test_ngram_entropy_closed_forms(ray_session, tmp_path):
    # deterministic chain "a b a b ...": every bigram is 'a b' or
    # 'b a'; next token is FULLY determined by prev -> h_cond == 0
    det = ["a b " * 50] * 3
    sf1 = _write(tmp_path, documents=_docs(det))
    from bb_ocr_ray.pipelines.queries import q_ngram_entropy
    got1 = q_ngram_entropy(sf1)
    assert got1["h_cond"].iloc[0] == 0.0
    # joint has exactly two equiprobable-ish cells
    assert 0.99 < got1["h_joint"].iloc[0] <= 1.0

    # hand-computed small corpus
    texts = ["x x y", "x y"]          # bigrams: (x,x) (x,y) (x,y)
    (tmp_path / "b").mkdir()
    sf2 = _write(tmp_path / "b", documents=_docs(texts))
    got2 = q_ngram_entropy(sf2)
    n = 3
    cells = [1, 2]
    h_joint = math.log(n) - sum(c * math.log(c) for c in cells) / n
    marg = [3]                        # all bigrams share prev 'x'
    h_prev = math.log(n) - sum(c * math.log(c) for c in marg) / n
    assert int(got2["n_bigrams"].iloc[0]) == n
    assert abs(got2["h_joint"].iloc[0]
               - round(h_joint / math.log(2), 6)) < 1e-9
    assert abs(got2["h_cond"].iloc[0]
               - round((h_joint - h_prev) / math.log(2), 6)) < 1e-9
