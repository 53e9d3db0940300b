"""Round-5 fifth-session operator differential: the hashing-trick
featurizer vs a plain python reference."""

import numpy as np
import pandas as pd

from bb_ocr_ray.functions.hashing import stable_u64, ws_tokens


def _write_docs(tmp_path, df):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    df.to_parquet(sf / "documents.parquet", index=False)
    return str(sf)


# ----------------------------------------------------- feature hashing
def test_feature_hash_matches_python_reference(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(300)]
    n = 410
    texts = [" ".join(rng.choice(vocab, rng.randint(3, 40)))
             for _ in range(n)]
    texts[41] = ""          # empty doc inside the probe sample
    df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                       "text": texts, "lang": "en", "source": "s",
                       "n_chars": [len(t) for t in texts]})
    sf = _write_docs(tmp_path, df)

    from bb_ocr_ray.pipelines.queries import q_feature_hash
    got = q_feature_hash(sf)

    recs = []
    for did in range(0, n, 41):
        acc: dict = {}
        for tok in ws_tokens(texts[did]):
            bk = stable_u64(tok) % 256
            acc[bk] = acc.get(bk, 0) + 1
        for bk in sorted(acc):
            recs.append({"doc_id": did, "bucket": bk, "n": acc[bk]})
    want = pd.DataFrame(recs).astype("int64")
    pd.testing.assert_frame_equal(got, want)
    # empty probe doc contributes no rows
    assert 41 not in set(got["doc_id"])
