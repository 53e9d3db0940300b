"""Property-based hardening (hypothesis) for the oracle-parity layer.

These run WITHOUT Ray: they fuzz the pure kernels against the very
DuckDB SQL the driver gate uses (`pipelines.oracles`), on arbitrary
unicode the fixed fixtures cannot cover.  A failure here means the
Ray-vs-oracle gate would diverge on some real-world input even though
it passes on the shipped testdata.
"""

import duckdb
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

# text with unicode whitespace, astral chars, CJK, punctuation — the
# classes that historically broke cross-engine parity
_texts = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "Z", "S"),
        include_characters=" \t\n\r\f\v  一鿿😀é",
    ),
    max_size=300,
)


def _oracle_over(df: pd.DataFrame, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", df)
    return con.sql(sql).df()


@settings(max_examples=30, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=5))
def test_fingerprint_oracle_parity_fuzz(texts):
    from bb_ocr_ray.functions.hashing import md5_hex, rolling_fingerprint
    from bb_ocr_ray.pipelines.oracles import ORACLES

    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = _oracle_over(df, ORACLES["q_fingerprint"]).sort_values("doc_id")
    for _, row in got.iterrows():
        t = texts[int(row["doc_id"])]
        assert int(row["fingerprint"]) == rolling_fingerprint(t or "")
        assert row["content_md5"] == md5_hex(t or "")


@settings(max_examples=30, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=5))
def test_langid_oracle_parity_fuzz(texts):
    from bb_ocr_ray.functions.textstats import detect_lang
    from bb_ocr_ray.pipelines.oracles import ORACLES

    df = pd.DataFrame(
        {"doc_id": range(len(texts)),
         "text": texts,
         # lang column only feeds the agreement aggregate; use the
         # prediction itself so n_agree == n_docs iff parity holds
         "lang": [detect_lang(t) for t in texts]})
    got = _oracle_over(df, ORACLES["q_langid"])
    assert int(got["n_agree"].sum()) == len(texts), (
        f"oracle lang_pred diverged from detect_lang on {texts!r}")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                min_size=1, max_size=40))
def test_connected_components_matches_union_find(pairs):
    """Driver CC (min-label + pointer jumping) vs a plain union-find
    reference on random small graphs."""
    from bb_ocr_ray.stages.dedup import connected_components

    pairs = [(a, b) for a, b in pairs if a != b]
    if not pairs:
        return
    df = pd.DataFrame(pairs, columns=["id_a", "id_b"])

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    got = connected_components(df)
    got_map = dict(zip(got["doc_id"], got["component"]))
    # union-find roots are not guaranteed minimal per component; build
    # min-per-root before comparing
    comp_min: dict = {}
    for n, r in want.items():
        comp_min[r] = min(comp_min.get(r, n), n)
    want_min = {n: comp_min[r] for n, r in want.items()}
    assert got_map == want_min


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=8),
    min_size=1, max_size=6))
def test_registrable_domain_properties(labels):
    from bb_ocr_ray.functions.scalars import registrable_domain

    host = ".".join(labels)
    out = registrable_domain(host)
    # idempotent, lowercase, and a dot-suffix of the lowered input
    assert registrable_domain(out) == out
    assert out == out.lower()
    low = host.lower().rstrip(".")
    assert low.endswith(out)
    assert out.count(".") <= 2


@settings(max_examples=50, deadline=None)
@given(_texts)
def test_ws_tokens_sql_parity_fuzz(text):
    """hashing.ws_tokens must agree with the RE2 split every sketch
    oracle uses, including on unicode whitespace Python's str.split()
    would treat differently."""
    from bb_ocr_ray.functions.hashing import ws_tokens

    got = duckdb.sql(
        "SELECT list_filter(regexp_split_to_array(?, "
        "'[ \t\n\r\f\v]+'), x -> x <> '') AS tk", params=[text]
    ).fetchone()[0]
    assert list(got) == ws_tokens(text)
