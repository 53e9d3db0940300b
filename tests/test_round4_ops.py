"""Round-4 operator differentials: boilerplate removal (pandas
reference on a corpus with within-doc repeats, NULL text, per-domain
frequency structure), the size-gated LM assembly paths and
sorted-neighborhood blocking."""
import numpy as np
import pandas as pd
import pytest


def _pandas_reference(df, max_ratio_pct=60, min_docs=2):
    rows = []
    for _, r in df.iterrows():
        for i, ln in enumerate((r["text"] or "").split("\n")):
            rows.append((r["doc_id"], r["source"], i, ln))
    lines = pd.DataFrame(rows, columns=["doc_id", "source", "idx", "line"])
    dfq = (lines.drop_duplicates(["doc_id", "source", "line"])
           .groupby(["source", "line"], as_index=False).size()
           .rename(columns={"size": "df"}))
    nd = df.groupby("source", as_index=False).size().rename(
        columns={"size": "n_docs"})
    j = dfq.merge(nd, on="source")
    freq = j[(j["df"] >= min_docs)
             & (j["df"] * 100 > max_ratio_pct * j["n_docs"])]
    fset = set(zip(freq["source"], freq["line"]))
    out = []
    for d, g in lines.sort_values(["doc_id", "idx"]).groupby("doc_id"):
        keep = [ln for s, ln in zip(g["source"], g["line"])
                if (s, ln) not in fset]
        out.append((d, len(g), len(keep), "\n".join(keep)))
    return pd.DataFrame(out, columns=["doc_id", "n_lines", "n_kept",
                                      "clean_text"])


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.RandomState(3)
    rows = []
    for d in range(120):
        src = f"s{d % 4}"
        body = " ".join(rng.choice(["alpha", "beta", "gamma"], 5))
        parts = [f"banner {src}"]                     # df 100% -> drop
        if d % 8 < 4:
            # 50% per source (src = d%4, so d%2 would be 0 or 100%
            # within a source — d%8<4 alternates inside each source)
            parts.append(f"half {src}")               # ~50% -> keep
        if d % 5 < 4:
            parts.append(f"often {src}")              # 80% -> drop
        parts.append(body)
        if d % 7 == 0:
            # repeated WITHIN the doc: df must count it once
            parts.extend(["dup line", "dup line", "dup line"])
        parts.append(f"tail {d}")                     # unique -> keep
        rows.append((d, src, "\n".join(parts)))
    rows.append((900, "s0", None))                    # NULL text
    return pd.DataFrame(rows, columns=["doc_id", "source", "text"])


def test_remove_boilerplate_matches_pandas(ray_session, corpus):
    import ray.data as rd

    from bb_ocr_ray.stages.boilerplate import remove_boilerplate

    got = (remove_boilerplate(rd.from_pandas(corpus))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = (_pandas_reference(corpus)
            .sort_values("doc_id").reset_index(drop=True))
    got["doc_id"] = got["doc_id"].astype("int64")
    for c in ("doc_id", "n_lines", "n_kept", "clean_text"):
        assert got[c].tolist() == want[c].tolist(), c
    # the cascade actually fires: every planted doc lost its banner
    planted = got[got["doc_id"] != 900]
    assert (planted["n_kept"] < planted["n_lines"]).all()
    # the ~50% line survived where planted
    ev = planted[planted["doc_id"] % 8 < 4]
    assert all("half " in t for t in ev["clean_text"])


def test_remove_boilerplate_broadcast_vs_distributed(ray_session, corpus,
                                                     gate_spy, force_shuffle):
    """VERDICT r4 item 1: the frequent-set gate.  Default limit takes
    the zero-shuffle fused broadcast path; a 0-byte limit forces the
    explode + join + doc_id-bucket rebuild path.  Outputs must be
    row-identical, and each run's three gates (the df fold, domain
    counts, frequent set) must take the expected path."""
    import ray.data as rd

    from bb_ocr_ray.stages.boilerplate import remove_boilerplate

    fast = (remove_boilerplate(rd.from_pandas(corpus))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    force_shuffle()
    slow = (remove_boilerplate(rd.from_pandas(corpus))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert gate_spy == ["driver"] * 3 + ["shuffle"] * 3
    slow["doc_id"] = slow["doc_id"].astype("int64")
    fast["doc_id"] = fast["doc_id"].astype("int64")
    for c in ("doc_id", "n_lines", "n_kept", "clean_text"):
        assert fast[c].tolist() == slow[c].tolist(), c


def test_remove_boilerplate_shuffle_path_keeps_one_schema(
        ray_session, corpus, force_shuffle, ray_data_log):
    """The forced path's hash_joins pad a column only one side has
    (df / n_docs, then doc_id / idx / _bp) to one dtype on both sides,
    so Ray logs no RefBundle schema change and int ids stay int64."""
    import ray.data as rd

    from bb_ocr_ray.stages.boilerplate import remove_boilerplate

    force_shuffle()
    out = remove_boilerplate(rd.from_pandas(corpus)).to_pandas()
    changed = [r.getMessage() for r in ray_data_log.records
               if "different schema" in r.getMessage()]
    assert changed == []
    assert out["doc_id"].dtype == "int64" and len(out) == len(corpus)


def test_remove_boilerplate_dup_line_df_counts_docs(ray_session, corpus):
    """'dup line' appears 3x in each %7 doc (18 of 121 docs per the
    corpus, under every source's 60%), so within-doc repetition must
    NOT push it over the threshold — it stays."""
    import ray.data as rd

    from bb_ocr_ray.stages.boilerplate import remove_boilerplate

    got = remove_boilerplate(rd.from_pandas(corpus)).to_pandas()
    d0 = got[got["doc_id"] == 0]["clean_text"].iloc[0]
    assert d0.count("dup line") == 3


def test_lm_quality_assembly_paths_agree(ray_session, sf_tiny, gate_spy,
                                         force_shuffle):
    """The size-gated LM model assembly (driver pandas vs distributed
    fold+join) is a pure plan choice: forcing the distributed path
    with a 0-byte gate must yield identical scores."""
    from bb_ocr_ray.pipelines.queries import q_lm_quality

    a = q_lm_quality(sf_tiny)
    force_shuffle()
    b = q_lm_quality(sf_tiny)
    # each run: the bigram-count fold and the model gate; the
    # distributed assembly adds its context fold.  The per-doc log-prob
    # fold reads a hash_join's output, so it is never probed
    assert gate_spy == ["driver"] * 2 + ["shuffle"] * 3
    assert a.values.tolist() == b.values.tolist()


def test_sorted_neighborhood_matches_pandas(ray_session):
    """Operator pairs == a direct pandas rank derivation, on a corpus
    engineered so pairs CROSS bucket boundaries (keys spread over many
    2-char prefixes) and one prefix is heavily skewed."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import sorted_neighborhood_pairs

    rng = np.random.RandomState(9)
    texts = [f"{c}{c2} body {i}" for i, (c, c2) in
             enumerate(zip(rng.choice(list("abcd"), 200),
                           rng.choice(list("xy"), 200)))]
    texts += [f"zz skewed {i}" for i in range(60)]     # one hot bucket
    texts += ["", "", "éaccent unicode"]          # empties + unicode
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype="int64"),
                       "text": texts})

    got = (sorted_neighborhood_pairs(rd.from_pandas(df)).to_pandas()
           .sort_values(["id_a", "id_b", "d"]).reset_index(drop=True))

    ref = df.copy()
    ref["bk"] = ref["text"].str[:12].fillna("")
    ref = ref.sort_values(["bk", "doc_id"],
                          kind="mergesort").reset_index(drop=True)
    rows = []
    for i in range(len(ref)):
        for d in range(1, 4):
            if i + d < len(ref):
                rows.append((ref["doc_id"][i], ref["doc_id"][i + d], d,
                             int(ref["bk"][i] == ref["bk"][i + d])))
    want = (pd.DataFrame(rows, columns=["id_a", "id_b", "d", "key_match"])
            .sort_values(["id_a", "id_b", "d"]).reset_index(drop=True))
    assert got.values.tolist() == want.values.tolist()
    # boundary pairs exist: some pair spans two different buckets
    assert (got["key_match"] == 0).any() and (got["key_match"] == 1).any()
