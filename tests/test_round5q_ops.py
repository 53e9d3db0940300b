"""Round-5 seventh-session batch-J differentials: FIM splits vs direct
string arithmetic (incl. empty/short docs), and hard negatives vs a
brute-force different-label argmax with planted same-label decoys."""
import hashlib

import numpy as np
import pandas as pd


def _write(tmp_path, **tables):
    sf = tmp_path / "sf"
    sf.mkdir(exist_ok=True)
    for name, df in tables.items():
        df.to_parquet(sf / f"{name}.parquet", index=False)
    return str(sf)


# ---------------------------------------------------------------- fim split
def test_fim_split_matches_string_arith(ray_session, tmp_path):
    texts = ["one two three four five six seven eight nine",
             "a b", "a", "", "x  y\tz"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t) for t in texts]})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.queries import q_fim_split
    got = q_fim_split(sf).set_index("doc_id")

    for did, t in enumerate(texts):
        tk = t.split()
        n = len(tk)
        a, c = n // 3, (2 * n) // 3
        psm = "\x01".join((" ".join(tk[:a]), " ".join(tk[c:]),
                           " ".join(tk[a:c])))
        want = hashlib.md5(psm.encode()).hexdigest()
        r = got.loc[did]
        assert (int(r["n_prefix"]), int(r["n_middle"]),
                int(r["n_suffix"])) == (a, c - a, n - c), did
        assert r["fim_md5"] == want, did
    # 9 tokens -> 3/3/3; 2 tokens -> 0/1/1; 1 token -> 0/0/1
    assert tuple(got.loc[0, ["n_prefix", "n_middle", "n_suffix"]]) \
        == (3, 3, 3)
    assert tuple(got.loc[2, ["n_prefix", "n_middle", "n_suffix"]]) \
        == (0, 0, 1)


def test_fim_split_null_text_matches_oracle(ray_session, tmp_path):
    # NULL text splits as zero tokens with a NULL fim_md5; empty and
    # short texts still hash their (partly empty) PSM string
    import duckdb

    texts = ["one two three four", None, "", "a b"]
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                         "text": texts, "lang": "en", "source": "s",
                         "n_chars": [len(t or "") for t in texts]})
    sf = _write(tmp_path, documents=docs)

    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import q_fim_split
    got = q_fim_split(sf).set_index("doc_id")

    assert got.loc[1, "fim_md5"] is None
    assert tuple(got.loc[1, ["n_tokens", "n_prefix", "n_middle",
                             "n_suffix"]]) == (0, 0, 0, 0)
    assert got.loc[2, "fim_md5"] == hashlib.md5(b"\x01\x01").hexdigest()

    con = duckdb.connect()
    con.register("documents", docs)
    want = con.sql(ORACLES["q_fim_split"]).df().set_index("doc_id")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ------------------------------------------------------------ hard negatives
def test_hard_negatives_ignores_same_label_decoys(ray_session, tmp_path):
    rng = np.random.RandomState(31)
    d = 16
    # query 0 (label 0) at e0; a same-label decoy at cosine ~1 must be
    # ignored; the planted different-label vector at cosine ~0.95 wins
    q0 = np.zeros(d, dtype="float32"); q0[0] = 1.0
    decoy = q0 * 2.0                               # same label, cos=1
    hard = q0.copy(); hard[1] = 0.33               # diff label, cos~0.95
    others = rng.randn(40, d).astype("float32")    # random, label 2
    vecs = [q0, decoy, hard] + [others[i] for i in range(40)]
    labels = [0, 0, 1] + [2] * 40
    emb = pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype="int64"),
        "embedding": vecs,
        "label": np.array(labels, dtype="int32")})
    sf = _write(tmp_path, embeddings=emb)

    from bb_ocr_ray.pipelines.queries import q_hard_negatives
    got = q_hard_negatives(sf).set_index("query_id")

    assert int(got.loc[0, "neighbor_id"]) == 2     # the planted hard neg
    assert int(got.loc[0, "neg_label"]) == 1
    assert got.loc[0, "score"] > 0.9

    # every answer's label differs from its query label, and it IS the
    # different-label argmax under the 4dp grain
    X = np.stack([np.asarray(v, dtype="float64") for v in vecs])
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    labs = np.array(labels)
    for qid in got.index:
        s = np.round(Xn[qid] @ Xn.T, 4)
        mask = labs != labs[qid]
        best = np.lexsort((np.arange(len(vecs))[mask], -s[mask]))[0]
        assert int(got.loc[qid, "neighbor_id"]) == \
            int(np.arange(len(vecs))[mask][best])
        assert int(got.loc[qid, "neg_label"]) != labels[qid]
