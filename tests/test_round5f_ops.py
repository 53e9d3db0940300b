"""Round-5 sixth-session batch-B differential: the term scan vs
Python str.count."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------ term scan
def test_term_scan_matches_str_count(ray_session, tmp_path):
    texts = ["the table has a hash table inside",
             "merge batch merge batch merge batch",
             "tabletable",                        # non-overlapping: 2
             "hashhashhash", "", None,
             "no match here"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t or "") for t in texts]})
    sf = _write(tmp_path, documents=df)

    from bb_ocr_ray.pipelines.queries import (_TERM_SCAN_PATTERNS,
                                              q_term_scan)
    got = q_term_scan(sf).set_index("term")

    for pat in _TERM_SCAN_PATTERNS:
        counts = [(t or "").count(pat) for t in texts]
        assert got.loc[pat, "n_occurrences"] == sum(counts)
        assert got.loc[pat, "n_docs"] == sum(1 for c in counts if c > 0)
    assert got.loc["zzz-absent-term", "n_occurrences"] == 0   # zero row
    assert got.loc["table", "n_occurrences"] == 4             # 2 + 2
    assert got.loc["merge batch", "n_occurrences"] == 3
