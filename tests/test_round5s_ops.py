"""Round-5 seventh-session batch-L differentials: Gopher rule flags on
planted pass/fail docs."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# -------------------------------------------------------------- gopher rules
def test_gopher_rules_planted_docs(ray_session, tmp_path):
    good = ("the cat and the dog went to the market in town and " * 5
            ).strip()                      # 55 words, stopwordy, alpha
    short = "the cat and the dog"          # fails wordcount only
    longwords = " ".join(["pneumonoultramicroscopic"] * 50)  # mwl > 10
    nostop = " ".join(f"word{i}" for i in range(50))  # no stopwords...
    # ...and word4 etc are alphanumeric -> also fails alpha
    symbols = " ".join(["@@@"] * 50) + " the a"       # fails alpha+wordlen
    texts = [good, short, longwords, nostop, symbols]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_gopher_rules
    got = q_gopher_rules(sf).iloc[0]

    assert int(got["n_docs"]) == 5
    # wordcount >= 40: good, longwords, nostop, symbols
    assert int(got["pass_wordcount"]) == 4
    # mean word length in [3,10]: good, nostop, short(3.2)
    assert int(got["pass_wordlen"]) == 3
    # >= 2 stopword hits: good, short, symbols('the a')
    assert int(got["pass_stopwords"]) == 3
    # >= 80% alphabetic: good, short, longwords
    assert int(got["pass_alpha"]) == 3
    # all four: only the good doc
    assert int(got["n_keep"]) == 1


