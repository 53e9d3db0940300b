"""Round-5 seventh-session batch-K differentials: the langid confusion
matrix vs per-doc detect_lang calls, and vocabulary coverage vs a
sorted cumulative walk."""
import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ------------------------------------------------------------ lang confusion
def test_lang_confusion_matches_detect_lang(ray_session, tmp_path):
    texts = ["the quick brown fox and the lazy dog went to the market",
             "le chat et le chien sont dans la maison avec le pain",
             "der hund und die katze sind in dem haus mit der tür",
             "el perro y el gato están en la casa con el pan",
             "你好世界这是一个测试文档内容很多汉字",
             "zzz qqq xxx www"]
    langs = ["en", "fr", "de", "es", "zh", "en"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": langs, "source": "s",
                         "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_lang_confusion
    got = q_lang_confusion(sf)

    from collections import Counter
    from bb_ocr_ray.functions.textstats import detect_lang
    want: Counter = Counter()
    for t, lang in zip(texts, langs):
        want[(lang, detect_lang(t))] += 1
    assert {(r["lang"], r["lang_pred"]): r["n"]
            for _, r in got.iterrows()} == dict(want)
    # row sums reproduce the per-lang doc counts (accuracy view's margin)
    assert got.groupby("lang")["n"].sum().to_dict() == \
        pd.Series(langs).value_counts().to_dict()


# ------------------------------------------------------------ vocab coverage
def test_vocab_coverage_matches_cumulative_walk(ray_session, tmp_path):
    rng = np.random.RandomState(2)
    vocab = [f"w{i:03d}" for i in range(300)]
    # Zipfian draws so the curve is strictly informative
    probs = 1.0 / np.arange(1, 301)
    probs /= probs.sum()
    texts = [" ".join(rng.choice(vocab, p=probs, size=40))
             for _ in range(150)]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_vocab_coverage
    got = q_vocab_coverage(sf)

    from collections import Counter
    cnt: Counter = Counter()
    for t in texts:
        cnt.update(t.split())
    ordered = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(cnt.values())
    for _, r in got.iterrows():
        k = int(r["k"])
        want = sum(n for _, n in ordered[:k])
        assert int(r["n_covered"]) == want, k
        assert abs(r["coverage"] - round(want / total, 6)) < 1e-9
    assert list(got["k"]) == [k for k in (1, 2, 4, 8, 16, 32, 64, 128)
                              if k <= len(cnt)]
    assert got["coverage"].is_monotonic_increasing
