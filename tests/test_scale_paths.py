"""Tests for the at-scale variants: exact IVF ANN, Bloom semi-join,
size-aware repartition."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import SF_TINY


def test_bloom_semi_join_no_false_negatives(ray_session, sf_tiny):
    import ray.data as rd

    from bb_ocr_ray.stages.joins import build_bloom, semi_join_bloom

    li_keys = rd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                              columns=["l_suppkey"])
    bloom = build_bloom(li_keys, "l_suppkey")
    supp = rd.read_parquet(f"{sf_tiny}/supplier.parquet",
                           columns=["s_suppkey", "s_name"])
    supp = supp.map_batches(
        lambda b: b.rename(columns={"s_suppkey": "l_suppkey"}),
        batch_format="pandas",
    )
    got = set(semi_join_bloom(supp, bloom, "l_suppkey").to_pandas()["l_suppkey"])
    truth = set(pd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                                columns=["l_suppkey"])["l_suppkey"].unique())
    all_supp = set(pd.read_parquet(f"{sf_tiny}/supplier.parquet")["s_suppkey"])
    # no false negatives (every true match kept); fp bounded
    assert truth & all_supp <= got
    fp = got - truth
    assert len(fp) <= max(2, len(all_supp) // 20)


def test_bloom_filter_basics():
    from bb_ocr_ray.stages.joins import BloomFilter

    bf = BloomFilter(n_bits=1 << 14)
    for k in range(200):
        bf.add(f"key-{k}")
    assert all(f"key-{k}" in bf for k in range(200))
    fps = sum(1 for k in range(10_000, 11_000) if f"key-{k}" in bf)
    assert fps < 50   # ~sub-5% at this load factor


def test_split_by_bytes_bounds_blocks(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.sizing import block_budget, split_by_bytes

    import ray

    budget = 1_000_000
    with block_budget(budget):
        # NOTE: the dataset must be CREATED inside the budget context —
        # Ray snapshots DataContext at Dataset creation time
        rows = [{"url": f"u{i}", "html": b"x" * 100_000} for i in range(100)]
        ds = rd.from_arrow(pa.Table.from_pylist(rows))
        out = split_by_bytes(ds, "html", max_bytes=budget).materialize()
        # row-preserving
        assert out.count() == len(rows)
        # real block boundaries honor the byte budget
        sizes = [
            sum(len(v.as_py()) for v in ray.get(ref).column("html"))
            for ref in out.to_arrow_refs()
        ]
    assert len(sizes) >= 10, sizes
    assert all(s <= budget for s in sizes), sizes


def test_kmeans_deterministic(ray_session, sf_tiny):
    import ray.data as rd

    from bb_ocr_ray.stages.ann import kmeans_fit

    vecs = rd.read_parquet(f"{sf_tiny}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
    c1 = kmeans_fit(vecs, k=8, iters=3)
    c2 = kmeans_fit(vecs, k=8, iters=3)
    np.testing.assert_array_equal(c1, c2)


def test_embedding_near_dups_planted_pairs(ray_session):
    """Planted >=0.99-cosine twins MUST come back as pairs (VERDICT r1:
    this stage previously had zero positive evidence), and every
    returned pair must truly be above threshold (exact in-bucket
    verify => no false positives)."""
    import ray.data as rd

    from bb_ocr_ray.stages.ann import embedding_near_dups

    rng = np.random.RandomState(7)
    base = rng.standard_normal((300, 64))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = [{"vec_id": i, "embedding": base[i].astype(np.float32)}
            for i in range(300)]
    # twins: ids 1000+i are tiny perturbations of ids 0..19
    planted = set()
    for i in range(20):
        twin = base[i] + 0.02 * rng.standard_normal(64)
        rows.append({"vec_id": 1000 + i, "embedding": twin.astype(np.float32)})
        planted.add((i, 1000 + i))
    ds = rd.from_items(rows)

    pairs = embedding_near_dups(ds, threshold=0.95).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert planted <= got, f"missing planted pairs: {planted - got}"

    # exact-verify side: recompute every returned cosine
    lut = {r["vec_id"]: np.asarray(r["embedding"], dtype=np.float64)
           for r in rows}
    for a, b in got:
        va, vb = lut[int(a)], lut[int(b)]
        c = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert c >= 0.95, f"false positive pair ({a},{b}) cosine {c:.4f}"
    # pairs are deduped across tables and ordered id_a < id_b
    assert (pairs["id_a"] < pairs["id_b"]).all()
    assert not pairs.duplicated(["id_a", "id_b"]).any()


def test_embedding_near_dups_flood_cap_chains(ray_session):
    """A 150-copy identical-vector flood exceeds a tiny bucket_cap:
    the chained tail keeps every member connected."""
    import ray.data as rd

    from bb_ocr_ray.stages.ann import embedding_near_dups

    v = np.ones(64, dtype=np.float32) / 8.0
    ds = rd.from_items([{"vec_id": i, "embedding": v} for i in range(150)])
    pairs = embedding_near_dups(ds, threshold=0.99, bucket_cap=32).to_pandas()
    touched = set(pairs["id_a"]) | set(pairs["id_b"])
    assert touched == set(range(150))
    # O(cap^2 + B) not O(B^2): full 150-pairwise would be 11175 pairs
    assert len(pairs) <= 32 * 31 // 2 + (150 - 32)


def test_hll_estimate_accuracy(ray_session):
    """HLL registers from the distributed sketch estimate the true
    user cardinality within the m=64 error band (~13% stderr)."""
    from bb_ocr_ray.functions.hashing import hll_estimate
    from bb_ocr_ray.pipelines.queries import q_hll_registers

    sf = "/root/testdata/sf0.01"
    regs = q_hll_registers(sf)
    registers = dict(zip(regs["bucket"], regs["max_rho"]))
    import duckdb

    truth = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM '{sf}/events.parquet'"
    ).fetchone()[0]
    est = hll_estimate(registers)
    assert abs(est - truth) / truth < 0.35, (est, truth)


def test_hll_grouped_estimates(ray_session):
    """Per-group HLL registers estimate each event_type's distinct-user
    count within the m=64 error band."""
    import duckdb

    from bb_ocr_ray.functions.hashing import hll_estimate
    from bb_ocr_ray.pipelines.queries import q_hll_grouped

    sf = "/root/testdata/sf0.01"
    regs = q_hll_grouped(sf)
    truth = dict(duckdb.sql(
        f"SELECT event_type, count(DISTINCT user_id) "
        f"FROM '{sf}/events.parquet' GROUP BY 1").fetchall())
    for etype, g in regs.groupby("event_type"):
        registers = dict(zip(g["bucket"], g["max_rho"]))
        est = hll_estimate(registers)
        assert abs(est - truth[etype]) / truth[etype] < 0.35, (
            etype, est, truth[etype])


def test_hll_registers_mergeable():
    """Register-wise max of two halves == registers of the union (the
    property that makes the sketch a distributed aggregate)."""
    from bb_ocr_ray.functions.hashing import hll_bucket_rho

    def regs(keys):
        r = {}
        for k in keys:
            b, rho = hll_bucket_rho(k)
            r[b] = max(r.get(b, 0), rho)
        return r

    a = regs(str(i) for i in range(500))
    b = regs(str(i) for i in range(250, 900))
    merged = {k: max(a.get(k, 0), b.get(k, 0)) for k in set(a) | set(b)}
    assert merged == regs(str(i) for i in range(900))


def test_auto_join_size_gate(ray_session, sf_tiny, gate_spy, force_shuffle):
    """auto_join routes by the small side's real bytes: a dim under the
    limit broadcasts; forcing the limit to 0 bytes routes the SAME join
    through the hash path — results identical either way (VERDICT r2
    item 3)."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import auto_join

    li = rd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey"])
    supp = rd.read_parquet(f"{sf_tiny}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"]
                           ).rename_columns({"s_suppkey": "l_suppkey"})

    via_bcast = auto_join(li, supp, on="l_suppkey").to_pandas()
    force_shuffle()
    via_hash = auto_join(
        rd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                        columns=["l_orderkey", "l_suppkey"]),
        rd.read_parquet(f"{sf_tiny}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]
                        ).rename_columns({"s_suppkey": "l_suppkey"}),
        on="l_suppkey").to_pandas()
    assert gate_spy == ["driver", "shuffle"]

    key = ["l_orderkey", "l_suppkey", "s_nationkey"]
    a = via_bcast[key].sort_values(key).reset_index(drop=True)
    b = via_hash[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_auto_semi_anti_size_gate(ray_session, sf_tiny, gate_spy,
                                  force_shuffle):
    """auto_semi / auto_anti: broadcast vs hash paths agree exactly,
    and the 0-byte limit provably exercises the hash path."""
    import ray.data as rd

    from bb_ocr_ray.stages.joins import auto_anti, auto_semi, hash_join

    def supp():
        return rd.read_parquet(f"{sf_tiny}/supplier.parquet",
                               columns=["s_suppkey", "s_name"])

    def keys():
        return rd.read_parquet(f"{sf_tiny}/lineitem.parquet",
                               columns=["l_suppkey"]
                               ).rename_columns({"l_suppkey": "s_suppkey"})

    def vals(ds):
        df = ds.to_pandas()
        # an all-empty Dataset loses its schema through to_pandas
        # (repo-documented gotcha): an empty anti result is legitimate
        return set(df["s_suppkey"]) if "s_suppkey" in df.columns else set()

    semi_b = vals(auto_semi(supp(), keys(), "s_suppkey"))
    anti_b = vals(auto_anti(supp(), keys(), "s_suppkey"))
    force_shuffle()
    semi_h = vals(auto_semi(supp(), keys(), "s_suppkey"))
    anti_h = vals(auto_anti(supp(), keys(), "s_suppkey"))
    assert gate_spy == ["driver", "driver", "shuffle", "shuffle"]
    assert semi_b == semi_h
    assert anti_b == anti_h
    # the hash path IS hash_join(how="semi"/"anti"): called directly
    for how, want in (("semi", semi_b), ("anti", anti_b)):
        assert vals(hash_join(supp(), keys(), on="s_suppkey", how=how)) == want
    all_supp = set(supp().to_pandas()["s_suppkey"])
    assert semi_b | anti_b == all_supp and not (semi_b & anti_b)


def test_ivf_exact_equals_brute_any_probe(ray_session, sf_tiny):
    """ivf_topk_exact must equal brute force REGARDLESS of n_probe —
    the triangle-inequality rescan repairs whatever the probe misses
    (n_probe=1 forces maximal reliance on the pruning bound)."""
    import ray.data as rd

    from bb_ocr_ray.stages.ann import ann_topk, ivf_topk_exact

    def vecs():
        return rd.read_parquet(f"{sf_tiny}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    qs = list(range(8))
    exact = (ann_topk(vecs(), qs, k=5).to_pandas()
             .sort_values(["query_id", "rank"]).reset_index(drop=True))
    for n_probe in (1, 4):
        got = (ivf_topk_exact(vecs(), qs, k=5, n_probe=n_probe).to_pandas()
               .sort_values(["query_id", "rank"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["query_id", "rank", "neighbor_id"]],
            exact[["query_id", "rank", "neighbor_id"]])


def test_coarse_agg_matches_pandas(ray_session):
    """coarse_agg == pandas groupby on mixed dtypes, null keys, and
    every refoldable reduction, at several bucket counts."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.coarse import coarse_agg

    rng = np.random.RandomState(7)
    n = 5000
    df = pd.DataFrame({
        "k": rng.randint(0, 800, n).astype("float64"),
        "s": [f"dom{i % 37}.example" for i in rng.randint(0, 5000, n)],
        "v": rng.randint(-100, 100, n).astype("int64"),
    })
    # null keys in both a numeric and a string key column
    df.loc[df.index[:50], "k"] = np.nan
    df.loc[df.index[50:80], "s"] = None

    spec = {"total": ("v", "sum"), "lo": ("v", "min"),
            "hi": ("v", "max"), "n": ("v", "size")}
    ds = rd.from_pandas(df).repartition(8)

    def canon(out):
        out = out.sort_values(["k", "s"], na_position="last",
                              kind="mergesort").reset_index(drop=True)
        return out[["k", "s", "total", "lo", "hi", "n"]]

    expect = canon(df.groupby(["k", "s"], as_index=False,
                              dropna=False).agg(**spec))
    for buckets in (1, 3, 64):
        got = canon(coarse_agg(ds, ["k", "s"], spec,
                               coarse_buckets=buckets).to_pandas())
        pd.testing.assert_frame_equal(
            got.astype({"total": "int64", "lo": "int64",
                        "hi": "int64", "n": "int64"}),
            expect.astype({"total": "int64", "lo": "int64",
                           "hi": "int64", "n": "int64"}))

    # single numeric key seen as int64 in some blocks, float64 in
    # others (null-driven upcast) must still land in one bucket
    a = pd.DataFrame({"k": np.arange(20, dtype="int64"), "v": 1})
    b = pd.DataFrame({"k": np.arange(20).astype("float64"), "v": 1})
    ds2 = rd.from_pandas(a).union(rd.from_pandas(b)).repartition(4)
    got2 = (coarse_agg(ds2, ["k"], {"n": ("v", "sum")}, coarse_buckets=16)
            .to_pandas())
    assert len(got2) == 20 and set(got2["n"]) == {2}


def test_coarse_agg_arrow_blocks_match_pandas_blocks(ray_session):
    """The Arrow-block stamp fast path (pyarrow group_by combiner, no
    full-batch pandas conversion) must produce results identical to
    the pandas-block path on the same data — including null keys/
    values, string keys, every refoldable how, multiple size aggs,
    the partial=False path, and a MIXED arrow+pandas block stream
    (the bucket hash must agree across paths or one key's rows split
    across buckets)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from bb_ocr_ray.stages.coarse import coarse_agg

    rng = np.random.RandomState(13)
    n = 4000
    df = pd.DataFrame({
        "k": [f"key{i % 211}" for i in rng.randint(0, 4000, n)],
        "v": rng.randint(-50, 50, n).astype("int64"),
        "w": rng.randn(n),
    })
    df.loc[df.index[:40], "k"] = None
    df.loc[df.index[40:70], "v"] = pd.NA
    df["v"] = df["v"].astype("Int64")

    spec = {"total": ("v", "sum"), "lo": ("w", "min"),
            "hi": ("w", "max"), "n1": ("v", "size"),
            "n2": ("w", "size"), "nv": ("v", "count")}

    tbl = pa.Table.from_pandas(df, preserve_index=False)
    ds_arrow = rd.from_arrow(tbl).repartition(6)
    ds_pandas = rd.from_pandas(df).repartition(6)

    def canon(out):
        out = out.copy()
        out["total"] = out["total"].astype("float64")
        for c in ("n1", "n2", "nv"):
            out[c] = out[c].astype("int64")
        return (out.sort_values("k", na_position="last",
                                kind="mergesort")
                .reset_index(drop=True)
                [["k", "total", "lo", "hi", "n1", "n2", "nv"]])

    got_a = canon(coarse_agg(ds_arrow, ["k"], spec,
                             coarse_buckets=7).to_pandas())
    got_p = canon(coarse_agg(ds_pandas, ["k"], spec,
                             coarse_buckets=7).to_pandas())
    pd.testing.assert_frame_equal(got_a, got_p, check_dtype=False)

    # mixed block stream: same key must reach ONE bucket in both paths
    # (no repartition on the union — Ray's shuffle reduce itself cannot
    # merge arrow+pandas blocks; the stamp's uniform pandas output is
    # what makes the downstream groupby shuffle legal)
    half = n // 2
    mixed = (rd.from_arrow(pa.Table.from_pandas(df.iloc[:half],
                                                preserve_index=False))
             .union(rd.from_pandas(df.iloc[half:].reset_index(drop=True))))
    got_m = canon(coarse_agg(mixed, ["k"], spec,
                             coarse_buckets=7).to_pandas())
    pd.testing.assert_frame_equal(got_m, got_p, check_dtype=False)

    # partial=False path over arrow blocks ("first" is not refoldable;
    # the probe value is constant per key so shuffle order is moot)
    df2 = df.assign(kw=df["k"].fillna("<null>").str.len().astype("int64"))
    ds2 = rd.from_arrow(pa.Table.from_pandas(
        df2, preserve_index=False)).repartition(4)
    got_f = (coarse_agg(ds2, ["k"], {"f": ("kw", "first")},
                        coarse_buckets=4, partial=False)
             .to_pandas().sort_values("k", na_position="last")
             .reset_index(drop=True))
    exp_f = (df2.groupby("k", as_index=False, dropna=False)
             .agg(f=("kw", "first"))
             .sort_values("k", na_position="last").reset_index(drop=True))
    pd.testing.assert_frame_equal(got_f, exp_f, check_dtype=False)


def test_pagerank_matches_numpy(ray_session, monkeypatch):
    """Distributed PageRank == dense numpy power iteration on a random
    graph with parallel edges, skewed in-degrees, and dangling sinks.
    The node fold reads repartitioned edges, so it shuffles, here into
    5 buckets."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages import joins
    from bb_ocr_ray.stages.graph import pagerank

    monkeypatch.setattr(joins, "_auto_num_buckets", lambda: 5)

    rng = np.random.RandomState(11)
    n = 60
    src = rng.randint(0, 40, 300)            # nodes 40..59 are sinks
    dst = rng.randint(0, n, 300)
    edges = pd.DataFrame({"src": src.astype("int64"),
                          "dst": dst.astype("int64")})

    nodes = np.unique(np.concatenate([src, dst]))
    idx = {v: i for i, v in enumerate(nodes)}
    nv = len(nodes)
    outdeg = pd.Series(src).value_counts()
    r = np.full(nv, 1.0 / nv)
    for _ in range(10):
        m = np.zeros(nv)
        for s, d in zip(src, dst):
            m[idx[d]] += 0.85 * r[idx[s]] / outdeg[s]
        r = 0.15 / nv + m

    got = (pagerank(rd.from_pandas(edges).repartition(4), iters=10)
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert list(got["node"]) == list(nodes)
    np.testing.assert_allclose(got["rank"].to_numpy(),
                               np.array([r[idx[v]] for v in nodes]),
                               rtol=1e-12, atol=1e-15)


def test_pagerank_tol_early_exit(ray_session, monkeypatch):
    """tol-mode PageRank stops as soon as max |Δrank| <= tol (observed
    via the stats out-param) and the early result stays within the
    documented drift bound tol*d/(1-d) of the full fixed-iteration
    run.  Exact mode (tol=None) must NOT exit early here: the deltas
    at iteration 10 are far above float equality."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages import joins
    from bb_ocr_ray.stages.graph import pagerank

    monkeypatch.setattr(joins, "_auto_num_buckets", lambda: 5)

    rng = np.random.RandomState(7)
    edges = pd.DataFrame({
        "src": rng.randint(0, 50, 400).astype("int64"),
        "dst": rng.randint(0, 60, 400).astype("int64")})
    ds = rd.from_pandas(edges).repartition(4)

    full = (pagerank(ds, iters=40)
            .to_pandas().sort_values("node").reset_index(drop=True))

    tol = 1e-6
    st = {}
    early = (pagerank(ds, iters=40, tol=tol, stats=st)
             .to_pandas().sort_values("node").reset_index(drop=True))
    assert st["iters_run"] < 40, "tol exit never fired"
    assert st["max_delta"] <= tol
    bound = tol * 0.85 / 0.15 + 1e-12
    assert list(early["node"]) == list(full["node"])
    assert np.abs(early["rank"].to_numpy()
                  - full["rank"].to_numpy()).max() <= bound

    st2 = {}
    exact = (pagerank(ds, iters=10, stats=st2)
             .to_pandas().sort_values("node").reset_index(drop=True))
    assert st2["iters_run"] == 10, "exact mode exited before convergence"
    # repeat runs agree to float-sum-reorder noise (coarse partials
    # arrive in nondeterministic order; the query rounds to 6 dp)
    np.testing.assert_allclose(
        exact["rank"].to_numpy(),
        pagerank(ds, iters=10).to_pandas()
        .sort_values("node")["rank"].to_numpy(), rtol=1e-12, atol=1e-15)


def test_grouped_per_key_matches_map_groups_semantics(ray_session,
                                                      monkeypatch,
                                                      force_shuffle):
    """grouped_per_key(fn) == pandas per-key apply of fn, including
    null keys, int/float key upcast across blocks, and fns that fold
    some keys to zero rows, through a 5-bucket shuffle."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages import joins
    from bb_ocr_ray.stages.coarse import grouped_per_key

    monkeypatch.setattr(joins, "_auto_num_buckets", lambda: 5)
    force_shuffle()

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "u": rng.randint(0, 40, 400).astype("float64"),
        "v": rng.randint(0, 1000, 400).astype("int64")})
    df.loc[df.index[:17], "u"] = np.nan

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        # fold to one row per key; keys with an odd min fold to nothing
        # (fn is never handed an empty frame — map_groups semantics)
        lo = int(g["v"].min())
        if lo % 2 == 1:
            return g.head(0)[["v"]].assign(n=pd.array([], dtype="int64"))
        return pd.DataFrame({"v": [lo], "n": [len(g)]})

    got = (grouped_per_key(rd.from_pandas(df).repartition(6), "u", fn)
           .to_pandas().sort_values(["v", "n"]).reset_index(drop=True))

    parts = [fn(g) for _, g in df.groupby("u", dropna=False, sort=True)]
    exp = (pd.concat([p for p in parts if len(p)], ignore_index=True)
           .sort_values(["v", "n"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype({"v": "int64", "n": "int64"}),
        exp.astype({"v": "int64", "n": "int64"}))


def test_bucketed_join_pins_dtypes(ray_session):
    """VERDICT r4 item 3: int64 keys/payloads survive the bucketed
    join's emit boundary on BOTH block paths.  Ray's sort shuffle
    rebuilds group blocks through pandas, so a column that is null on
    one union side (padding) or in some rows (outer join) degrades to
    float64/object unless the emit re-casts — the q_boilerplate plan
    showed `doc_id: int64 -> object` in the driver bench tail."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.joins import hash_join

    n = 2000
    # pandas block path (object key column)
    left = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "k": [f"s{i % 7}\x1fh{i % 50}" for i in range(n)],
    })
    right = pd.DataFrame({
        "k": [f"s{i % 7}\x1fh{i}" for i in range(30)],
        "_bp": np.ones(30, dtype=np.int64),
    })
    out = hash_join(rd.from_pandas(left).repartition(8),
                    rd.from_pandas(right).repartition(2),
                    on="k", how="left").to_pandas()
    assert len(out) == n
    assert out["doc_id"].dtype == np.int64      # was object pre-pin
    # right-side int col with unmatched rows: pandas float64 convention
    assert out["_bp"].dtype == np.float64
    assert out.loc[out["_bp"].notna(), "_bp"].eq(1.0).all()

    # Arrow block path (all-int schemas): even an INNER join degrades
    # payload cols pre-fix, because the union pads each side's missing
    # columns with nulls and the shuffle rebuild upcasts them
    lint = pd.DataFrame({"a": np.arange(n, dtype=np.int64),
                         "v": np.arange(n, dtype=np.int64) * 2})
    rint = pd.DataFrame({"a": np.arange(30, dtype=np.int64),
                         "w": np.arange(30, dtype=np.int64)})
    ds = hash_join(rd.from_pandas(lint).repartition(8),
                   rd.from_pandas(rint).repartition(2),
                   on="a", how="inner")
    types = dict(zip(ds.schema().names,
                     [str(t) for t in ds.schema().types]))
    assert types["v"] == "int64", types
    assert types["w"] == "int64", types
    got = ds.to_pandas().sort_values("a").reset_index(drop=True)
    assert got["a"].tolist() == list(range(30))
    assert got["w"].tolist() == list(range(30))


def test_pagerank_rank_broadcast_gate_paths_agree(ray_session, gate_spy,
                                                  force_shuffle):
    """VERDICT r4 item 6: the per-iteration join shape is size-gated
    on the rank vector.  Forced-hash and default-broadcast paths must
    produce the same ranks (within float summation-order drift far
    below the 6dp oracle grain), each through its own gate path."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.graph import pagerank

    rng = np.random.RandomState(7)
    edges = pd.DataFrame({
        "src": rng.randint(0, 400, 3000).astype("int64"),
        "dst": rng.randint(0, 450, 3000).astype("int64")})

    fast = (pagerank(rd.from_pandas(edges).repartition(4), iters=6)
            .to_pandas().sort_values("node").reset_index(drop=True))
    force_shuffle()
    slow = (pagerank(rd.from_pandas(edges).repartition(4), iters=6)
            .to_pandas().sort_values("node").reset_index(drop=True))
    # the rank gate of each run; the coarse folds (out-degree over the
    # repartitioned edges, each forced iteration's contributions over
    # the hash_join output) sit behind an unexecuted shuffle, so they
    # are never probed and the forced run pays no per-iteration probe
    assert gate_spy == ["driver", "shuffle"]
    assert fast["node"].tolist() == slow["node"].tolist()
    np.testing.assert_allclose(fast["rank"].to_numpy(),
                               slow["rank"].to_numpy(),
                               rtol=0, atol=1e-12)


def test_hits_matches_numpy_and_gate_paths_agree(ray_session, gate_spy,
                                                 force_shuffle):
    """HITS == dense numpy reference (same sweep order: a from old h,
    normalize, h from NEW a, normalize); forced-hash path equals the
    default broadcast path; dangling/source-only nodes hold 0."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.graph import hits

    rng = np.random.RandomState(5)
    n = 120
    edges = pd.DataFrame({
        "src": rng.randint(0, n, 600).astype("int64"),
        "dst": rng.randint(0, n + 20, 600).astype("int64")})  # 20 sinks

    nodes = np.unique(np.concatenate([edges["src"], edges["dst"]]))
    idx = {v: i for i, v in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for s, d in zip(edges["src"], edges["dst"]):
        A[idx[s], idx[d]] += 1.0          # parallel edges carry weight
    h = np.ones(len(nodes))
    for _ in range(5):
        a = A.T @ h
        nrm = np.sqrt((a ** 2).sum())
        a = a / nrm if nrm > 0 else a
        h = A @ a
        nrm = np.sqrt((h ** 2).sum())
        h = h / nrm if nrm > 0 else h

    got = (hits(rd.from_pandas(edges).repartition(4), iters=5)
           .to_pandas().sort_values("node").reset_index(drop=True))
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["authority"].to_numpy(), a,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(got["hub"].to_numpy(), h,
                               rtol=0, atol=1e-9)
    # sinks never emit: hub == 0 exactly for ids >= n present as dst
    sinks = got[got["node"] >= n]
    assert len(sinks) and (sinks["hub"] == 0.0).all()

    force_shuffle()
    forced = (hits(rd.from_pandas(edges).repartition(4), iters=5)
              .to_pandas().sort_values("node").reset_index(drop=True))
    # the hub-vector gate of each run; the forced run's neighbour-sum
    # folds read the hash_join output, behind a shuffle, and are not
    # probed
    assert gate_spy == ["driver", "shuffle"]
    np.testing.assert_allclose(forced["authority"].to_numpy(),
                               got["authority"].to_numpy(),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(forced["hub"].to_numpy(),
                               got["hub"].to_numpy(), rtol=0, atol=1e-12)




# ---------------------------------------------------------------------------
# SQL NULL rule on every join/membership path, held to DuckDB on the
# probe L.k = [1, NULL, 3, 4], R.k = [1, NULL, 4] (int64)
# ---------------------------------------------------------------------------
_NULL_L = pa.table({"k": pa.array([1, None, 3, 4], pa.int64()),
                    "v": pa.array(["a", "b", "c", "d"])})
_NULL_R = pa.table({"k": pa.array([1, None, 4], pa.int64()),
                    "w": pa.array(["x", "y", "z"])})
_NULL_SQL = {
    "semi": "SELECT k, v FROM L WHERE k IN (SELECT k FROM R)",
    "anti": ("SELECT k, v FROM L WHERE NOT EXISTS "
             "(SELECT 1 FROM R WHERE R.k = L.k)"),
    "inner": "SELECT L.k, v, w FROM L JOIN R ON L.k = R.k",
}


def _null_rows(df: pd.DataFrame, cols) -> list:
    if not len(df):
        return []
    return sorted(
        (tuple(None if pd.isna(x) else (int(x) if c == "k" else x)
               for c, x in zip(cols, row))
         for row in df[list(cols)].itertuples(index=False)),
        key=repr)


def _arrow_side(t):
    import ray.data as rd

    return rd.from_arrow(t)


def _pandas_side(t):
    # pandas blocks with an object payload: hash_join tags them as
    # Arrow, typing the object column from one peeked row
    import ray.data as rd

    return rd.from_pandas(t.to_pandas())


@pytest.mark.parametrize("path", [
    "semi-broadcast", "anti-broadcast", "semi-forced", "anti-forced",
    "semi-arrow-body", "anti-arrow-body", "semi-pandas-body",
    "anti-pandas-body", "inner-broadcast", "inner-auto",
    "inner-hash-arrow", "inner-hash-pandas"])
def test_null_keys_match_duckdb(ray_session, gate_spy, force_shuffle, path):
    """A NULL key equals nothing on every path: inner/semi never keep
    it, anti always does (NOT EXISTS).  Each path's rows must equal
    DuckDB's on the same two tables."""
    import duckdb

    from bb_ocr_ray.stages import joins

    how, kind = path.split("-", 1)
    if how == "inner":
        if kind == "broadcast":
            got = joins.broadcast_join(_arrow_side(_NULL_L),
                                       _NULL_R.to_pandas(), on="k")
        elif kind == "auto":
            got = joins.auto_join(_arrow_side(_NULL_L),
                                  _arrow_side(_NULL_R), on="k")
            assert gate_spy == ["driver"]
        else:
            side = _arrow_side if kind == "hash-arrow" else _pandas_side
            got = joins.hash_join(side(_NULL_L), side(_NULL_R), on="k")
    elif kind in ("broadcast", "forced"):
        if kind == "forced":
            force_shuffle()
        # the key side is computed (a map_batches), as in q_anti_join
        keys = _arrow_side(_NULL_R).map_batches(
            lambda t: t.select(["k"]), batch_format="pyarrow")
        fn = joins.auto_semi if how == "semi" else joins.auto_anti
        got = fn(_arrow_side(_NULL_L), keys, "k")
        assert gate_spy == ["driver" if kind == "broadcast" else "shuffle"]
    else:
        side = _arrow_side if kind == "arrow-body" else _pandas_side
        got = joins.hash_join(side(_NULL_L), side(_NULL_R), on="k", how=how)

    L, R = _NULL_L, _NULL_R  # noqa: F841 — DuckDB scans them by name
    want_df = duckdb.sql(_NULL_SQL[how]).df()
    cols = list(want_df.columns)
    assert _null_rows(got.to_pandas(), cols) == _null_rows(want_df, cols)


# ---------------------------------------------------------------------------
# hash_join held to DuckDB on drawn tables: every how, on Arrow and on
# pandas blocks, and once through the chunked hot-key probe
# ---------------------------------------------------------------------------
_JOIN_SQL = {
    "inner": "SELECT L.k, v, w FROM L JOIN R ON L.k = R.k",
    "left": "SELECT L.k, v, w FROM L LEFT JOIN R ON L.k = R.k",
    "full": ("SELECT COALESCE(L.k, R.k), v, w FROM L "
             "FULL JOIN R ON L.k = R.k"),
    "semi": "SELECT k, v FROM L WHERE k IN (SELECT k FROM R)",
    "anti": ("SELECT k, v FROM L WHERE NOT EXISTS "
             "(SELECT 1 FROM R WHERE R.k = L.k)"),
}


def _join_tables(lk, rk, typ):
    """(L, R): Arrow tables (k, v) and (k, w) on the given keys.  ``v``
    sits above 2**53, where float64 would round it."""
    L = pa.table({"k": pa.array(lk, typ),
                  "v": pa.array([(1 << 60) + i for i in range(len(lk))],
                                pa.int64())})
    R = pa.table({"k": pa.array(rk, typ),
                  "w": pa.array([None if i % 3 == 2 else f"w{i}"
                                 for i in range(len(rk))], pa.string())})
    return L, R


@st.composite
def _join_sides(draw):
    """Int or string keys.  A non-empty side holds a NULL key, sorted
    last, so its first pandas block keeps an int key int64 and its
    second upcasts it to float64.  The left side may repeat one hot
    key."""
    ints = draw(st.booleans())
    key = st.integers(-3, 6) if ints else st.sampled_from(
        ["", "a", "b", "1", "\u00e4"])

    def keys(hot):
        ks = draw(st.lists(st.one_of(st.none(), key), max_size=6))
        ks += [draw(key)] * hot + [None] if ks else []
        return sorted(ks, key=lambda k: k is None)

    return _join_tables(keys(draw(st.integers(0, 6))), keys(0),
                        pa.int64() if ints else pa.string())


def _plain(x):
    # a float key (a pandas block's int key upcast by a NULL) compares
    # as the int it equals
    return int(x) if isinstance(x, float) and x.is_integer() else x


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sides=_join_sides())
@example(sides=_join_tables([1, 4, 4, 4, 4, 2, None], [4, 5, None],
                            pa.int64()))
@example(sides=_join_tables(["a", "", None], [], pa.string()))
def test_hash_join_matches_duckdb_fuzz(ray_session, sides):
    """Every ``how`` of hash_join returns DuckDB's rows on the same two
    tables, whether the sides arrive as Arrow or as two-block pandas
    Datasets, and again with the hot-key probe chunked every 2 rows."""
    import duckdb
    import ray.data as rd

    from bb_ocr_ray.stages import joins

    L, R = sides
    con = duckdb.connect()
    con.register("L", L)
    con.register("R", R)

    def side(t, fmt):
        parts = [t.slice(0, (len(t) + 1) // 2), t.slice((len(t) + 1) // 2)]
        if fmt == "arrow":
            return rd.from_arrow(parts)
        return rd.from_pandas([p.to_pandas() for p in parts])

    def rows(it):
        return sorted((tuple(map(_plain, r)) for r in it), key=repr)

    def run(how, fmt):
        out = joins.hash_join(side(L, fmt), side(R, fmt), on="k", how=how,
                              num_buckets=4)
        return rows(r.values() for r in out.take_all())

    want = {how: rows(con.sql(sql).fetchall())
            for how, sql in _JOIN_SQL.items()}
    for how in _JOIN_SQL:
        for fmt in ("arrow", "pandas"):
            assert run(how, fmt) == want[how], (how, fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(joins, "_MERGE_CHUNK", 2)
        assert run("full", "pandas") == want["full"]


def test_hash_join_rejects_keys_that_do_not_unify(ray_session, executions):
    """An int key joined to a string key is refused at plan time, naming
    the column, where a join by value would silently match nothing."""
    import ray.data as rd

    from bb_ocr_ray.stages import joins

    right = rd.from_arrow(pa.table({"k": ["1", "4"], "w": ["x", "z"]}))
    with pytest.raises(ValueError, match="'k'"):
        joins.hash_join(rd.from_arrow(_NULL_L), right, on="k")
    assert executions == []


# ---------------------------------------------------------------------------
# Path pins: which way each gated driver query goes at sf_tiny, and the
# empty side on each gated entry point
# ---------------------------------------------------------------------------
def test_driver_query_gate_paths(ray_session, sf_tiny, gate_spy):
    """Every gate of the driver-checked queries collects its side at
    sf0.001 — q_anti_join's too, although its key side is computed
    (filtered orders) and has no metadata size estimate."""
    from bb_ocr_ray.pipelines.queries import QUERIES

    want = {"q5_revenue_by_nation": 2, "q_anti_join": 1, "q_semi_join": 1,
            # minhash_candidates' band fold + pair dedup, verify's
            # pairs + mentioned texts, the edges, the drop set
            "q_near_dup_dedup": 6}
    for q, n in want.items():
        gate_spy.clear()
        QUERIES[q](sf_tiny)
        assert gate_spy == ["driver"] * n, (q, gate_spy)


def _rows(df: pd.DataFrame) -> list:
    return sorted(map(tuple, df.itertuples(index=False)), key=repr)


def test_empty_side_gates_match_forced_shuffle(ray_session, gate_spy,
                                               force_shuffle):
    """An empty side fits the driver like any other; each gated entry
    point must give its forced-shuffle answer (a -1 limit pushes even
    an empty side over).  An empty Dataset's to_pandas may drop its
    columns, so the comparison is by rows."""
    import ray.data as rd

    from bb_ocr_ray.stages.boilerplate import remove_boilerplate
    from bb_ocr_ray.stages.coarse import coarse_agg, grouped_per_key
    from bb_ocr_ray.stages.dedup import (connected_components_ds,
                                         dedup_pairs, minhash_candidates,
                                         simhash_near_dups)
    from bb_ocr_ray.stages.joins import auto_anti, auto_join, auto_semi

    big = pd.DataFrame({"k": np.arange(6, dtype="int64"),
                        "v": np.arange(6, dtype="int64") * 10})
    no_keys = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                            "w": pd.Series([], dtype="int64")})
    no_pairs = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    # every line unique: the frequent-line set is empty
    docs = pd.DataFrame({"doc_id": np.arange(4, dtype="int64"),
                         "source": ["s"] * 4,
                         "text": [f"line {i}\nother {i}" for i in range(4)]})

    def run():
        b = rd.from_pandas(big)
        return {
            "join_inner": _rows(auto_join(b, rd.from_pandas(no_keys),
                                          on="k").to_pandas()),
            "join_left": _rows(auto_join(
                b, rd.from_pandas(no_keys), on="k",
                how="left").to_pandas()[["k", "v"]]),
            "semi": _rows(auto_semi(b, rd.from_pandas(no_keys),
                                    "k").to_pandas()),
            "anti": _rows(auto_anti(b, rd.from_pandas(no_keys),
                                    "k").to_pandas()),
            "components": _rows(connected_components_ds(
                rd.from_pandas(no_pairs)).to_pandas()),
            "boilerplate": _rows(remove_boilerplate(
                rd.from_pandas(docs)).to_pandas().sort_values("doc_id")),
            "coarse_agg": _rows(coarse_agg(
                rd.from_pandas(no_keys), ["k"],
                {"n": ("w", "size")}).to_pandas()),
            "grouped_per_key": _rows(grouped_per_key(
                rd.from_pandas(no_keys), "k", lambda g: g.head(1)
            ).to_pandas()),
            "dedup_pairs": _rows(dedup_pairs(
                rd.from_pandas(no_pairs)).to_pandas()),
            "minhash": _rows(minhash_candidates(rd.from_arrow(
                pa.Table.from_pandas(docs.head(0)))).to_pandas()),
            "simhash": _rows(simhash_near_dups(rd.from_arrow(
                pa.Table.from_pandas(docs.head(0)))).to_pandas()),
        }

    driver = run()
    assert set(gate_spy) == {"driver"}
    n = len(gate_spy)
    force_shuffle(-1)
    shuffled = run()
    # forced, the pair dedup of minhash and of simhash reads its band
    # shuffle's output and is not probed: two fewer gates
    assert gate_spy[n:] == ["shuffle"] * (n - 2)
    assert driver == shuffled
    assert driver["join_inner"] == driver["semi"] == []
    assert driver["anti"] == _rows(big)
    assert len(driver["join_left"]) == 6 and driver["components"] == []
    assert len(driver["boilerplate"]) == 4
    assert all(driver[f] == [] for f in ("coarse_agg", "grouped_per_key",
                                         "dedup_pairs", "minhash",
                                         "simhash"))


# ---------------------------------------------------------------------------
# Coarse folds: the driver fold (sizing.fold_buckets) against the
# forced shuffle, rows compared as multisets
# ---------------------------------------------------------------------------
def _bag(df: pd.DataFrame):
    from collections import Counter

    return Counter(tuple(None if pd.isna(x) else x for x in row)
                   for row in df.itertuples(index=False))


def _blocks(df: pd.DataFrame, n: int):
    """``df`` as an n-block Dataset with no all-to-all in its plan (a
    ``repartition`` would keep every fold off its probe)."""
    import ray.data as rd

    return rd.from_pandas([df.iloc[i::n] for i in range(n)])


# each builder: (Dataset, gates on the default path, gates forced)
def _fold_coarse_agg():
    from bb_ocr_ray.stages.coarse import coarse_agg

    rng = np.random.RandomState(11)
    df = pd.DataFrame({
        "a": [None if i % 9 == 0 else f"d{i % 7}" for i in range(600)],
        "b": rng.randint(0, 5, 600).astype("int64"),
        "v": rng.randint(-50, 50, 600).astype("int64")})
    return coarse_agg(_blocks(df, 4), ["a", "b"],
                      {"n": ("v", "size"), "lo": ("v", "min")}), 1, 1


def _fold_grouped_per_key():
    from bb_ocr_ray.stages.coarse import grouped_per_key

    df = pd.DataFrame({"u": np.arange(300, dtype="int64") % 23,
                       "v": np.arange(300, dtype="int64")})

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": [g["u"].iloc[0]], "top": [g["v"].max()],
                             "n": [len(g)]})

    return grouped_per_key(_blocks(df, 3), "u", fn), 1, 1


def _fold_dedup_pairs():
    from bb_ocr_ray.stages.dedup import dedup_pairs

    rng = np.random.RandomState(5)
    pairs = pd.DataFrame({"id_a": rng.randint(0, 30, 500),
                          "id_b": rng.randint(30, 60, 500)}).astype("int64")
    return dedup_pairs(_blocks(pairs, 4)), 1, 1


def _flood_docs() -> pd.DataFrame:
    # a flood past the 64-member bucket cap (full pairs on the head,
    # the tail chained) plus unrelated docs
    text = "one mirrored page body copied onto many hosts with the same words"
    rows = [{"doc_id": i, "text": text} for i in range(90)]
    rows += [{"doc_id": 1000 + i,
              "text": f"distinct page {i} about topic {i * 13} and more {i}"}
             for i in range(25)]
    return pd.DataFrame(rows)


def _fold_minhash_candidates():
    from bb_ocr_ray.stages.dedup import minhash_candidates

    # the band fold, then dedup_pairs; forced, dedup_pairs reads the
    # band shuffle's output and is not probed
    return minhash_candidates(_blocks(_flood_docs(), 4)), 2, 1


def _fold_simhash_near_dups():
    from bb_ocr_ray.stages.dedup import simhash_near_dups

    return simhash_near_dups(_blocks(_flood_docs(), 4)), 2, 1


def _fold_dedup_offers():
    from bb_ocr_ray.stages.lookup import dedup_offers

    # repeats of one (record_key, provider, listing_id) carry different
    # amounts: the winner must not depend on arrival order, which a
    # shuffle does not keep
    rng = np.random.RandomState(9)
    n = 400
    r, p, lid = (rng.randint(0, 60, n), rng.randint(0, 3, n),
                 rng.randint(0, 8, n))
    offers = pd.DataFrame({
        "record_key": [f"r{i}" for i in r],
        "provider": [("a", "b", "c")[i] for i in p],
        "listing_id": [None if i == 0 else f"l{i}" for i in lid],
        "amount": rng.randint(0, 1000, n).astype("float64")})
    return dedup_offers(_blocks(offers, 4)), 1, 1


def _fold_distinct_nodes():
    from bb_ocr_ray.stages.graph import _distinct_nodes

    rng = np.random.RandomState(4)
    edges = pd.DataFrame({"src": rng.randint(0, 80, 500),
                          "dst": rng.randint(50, 200, 500)}).astype("int64")
    return _distinct_nodes(_blocks(edges, 4)), 1, 1


def _fold_hash_index():
    import tempfile

    import ray.data as rd

    from bb_ocr_ray.state.hash_index import build_hash_index, read_hash_index

    keys = pd.DataFrame({"content_hash": [f"h{i % 70}" for i in range(300)]})
    with tempfile.TemporaryDirectory() as tmp:
        idx = build_hash_index(_blocks(keys, 4), f"{tmp}/idx", n_shards=8)
        shards = sorted(n for n in os.listdir(idx) if n.startswith("shard="))
        out = read_hash_index(idx).to_pandas()
    assert len(shards) == 8 and len(out) == 70
    return rd.from_pandas(out), 1, 1


def _boxes() -> pd.DataFrame:
    return pd.DataFrame(
        [{"page": page, "item_id": item, "x": (item * 97 + page) % 280,
          "y": (item * 61) % 350, "w": 40, "h": 18}
         for page in range(30) for item in range(7)])


def _fold_reading_order_banded():
    from bb_ocr_ray.stages.layout_stage import reading_order_stage

    return reading_order_stage(_blocks(_boxes(), 3)), 1, 1


def _fold_reading_order_xy_cut():
    from bb_ocr_ray.stages.layout_stage import reading_order_stage

    return reading_order_stage(_blocks(_boxes(), 3), strategy="xy_cut"), 1, 1


def _para_docs() -> pd.DataFrame:
    paras = [f"paragraph {i} with words" for i in range(12)]
    return pd.DataFrame({
        "doc_id": np.arange(40, dtype="int64"),
        "text": ["\n\n".join(paras[(i * j) % 12] for j in range(1, 5))
                 for i in range(40)]})


def _fold_paragraph_dedup():
    from bb_ocr_ray.stages.dedup import paragraph_dedup

    # the winners fold, then the rebuild over the driver's held winners;
    # forced, the rebuild reads the winners' shuffle and is not probed
    return paragraph_dedup(_blocks(_para_docs(), 4)), 2, 1


def _fold_paragraph_dedup_empty():
    from bb_ocr_ray.stages.dedup import paragraph_dedup

    # no paragraph at all: the stamped side is 0 rows, the rebuild
    # reads the driver's 0-row result and the left join meets it
    docs = pd.DataFrame({"doc_id": np.arange(6, dtype="int64"),
                         "text": ["", "\n\n", None, "", "\n\n\n\n", ""]})
    return paragraph_dedup(_blocks(docs, 3)), 2, 1


def _fold_dup_span_stats():
    from bb_ocr_ray.stages.dedup import dup_span_stats

    return dup_span_stats(_blocks(_para_docs(), 4), k=3), 2, 1


def _fold_set_similarity_join():
    from bb_ocr_ray.stages.dedup import set_similarity_join

    rng = np.random.RandomState(77)
    pool = [f"t{i}" for i in range(30)]
    docs = pd.DataFrame({
        "doc_id": np.arange(60, dtype="int64"),
        "text": [" ".join(sorted(set(rng.choice(pool, rng.randint(3, 14)))))
                 for _ in range(60)]})
    # driver: the df fold, the vocabulary, the prefix fold and the pair
    # dedup; forced: the df fold and the vocabulary, the rest behind
    # the df-rank join
    return set_similarity_join(_blocks(docs, 4)), 4, 2


def _fold_embedding_near_dups():
    from bb_ocr_ray.stages.ann import embedding_near_dups

    rng = np.random.RandomState(7)
    base = rng.standard_normal((120, 64))
    twins = base[:15] + 0.02 * rng.standard_normal((15, 64))
    vecs = pd.DataFrame({
        "vec_id": np.r_[np.arange(120), 1000 + np.arange(15)].astype("int64"),
        "embedding": list(np.vstack([base, twins]).astype(np.float32))})
    # the band fold, then dedup_pairs over the driver's held pairs
    return embedding_near_dups(_blocks(vecs, 3), threshold=0.95), 2, 1


def _fold_posting_lists():
    import ray.data as rd

    from bb_ocr_ray.pipelines.queries import q_posting_lists

    return rd.from_pandas(q_posting_lists(SF_TINY)), 1, 1


def _fold_running_total():
    from bb_ocr_ray.pipelines.queries import q_running_total

    return q_running_total(SF_TINY), 1, 1


@pytest.mark.parametrize("build", [
    _fold_coarse_agg, _fold_grouped_per_key, _fold_dedup_pairs,
    _fold_minhash_candidates, _fold_simhash_near_dups, _fold_dedup_offers,
    _fold_distinct_nodes, _fold_hash_index, _fold_reading_order_banded,
    _fold_reading_order_xy_cut, _fold_paragraph_dedup,
    _fold_paragraph_dedup_empty, _fold_dup_span_stats,
    _fold_set_similarity_join, _fold_embedding_near_dups,
    _fold_posting_lists, _fold_running_total],
    ids=lambda f: f.__name__[len("_fold_"):])
def test_coarse_folds_driver_matches_shuffle(ray_session, gate_spy,
                                             force_shuffle, build):
    """Each bucket-oblivious fold gives the same rows whether its side
    is folded once on the driver or bucket by bucket in the shuffle
    (a -1 limit pushes even a 0-row side over)."""
    ds, on_driver, forced = build()
    driver = _bag(ds.to_pandas())
    assert gate_spy == ["driver"] * on_driver
    force_shuffle(-1)
    ds, _, _ = build()
    shuffled = _bag(ds.to_pandas())
    assert gate_spy[on_driver:] == ["shuffle"] * forced
    assert driver == shuffled
    assert len(driver) or build is _fold_paragraph_dedup_empty
    if build in (_fold_minhash_candidates, _fold_simhash_near_dups):
        flood = {row[:2] for row in driver if row[1] < 1000}
        # 64 * 63 / 2 head pairs plus the 26 chained tail links
        assert len(flood) == 64 * 63 // 2 + 26
        assert all(b < 1000 or a >= 1000 for a, b, *_ in driver)


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory):
    from test_edge_gate import _tool

    sf = str(tmp_path_factory.mktemp("edge") / "sf_edge")
    _tool("make_edge_sf").main(sf)
    return sf


@pytest.mark.parametrize("query, corpus, on_driver, forced", [
    # a plain sum
    ("q_json_extract", "tiny", 1, 1),
    # min/max over an input with a NULL (the edge corpus's doc 9107)
    ("q_doc_stats", "edge", 1, 1),
    # the rollup's finest level; the coarser levels fold on the driver
    ("q_rollup", "tiny", 1, 1),
    # a per-batch top-k combiner, then the per-key final top-k
    ("q_offer_ranking", "tiny", 1, 1),
    # distinct pairs, then a fold of those pairs: forced, the second
    # fold sits behind the first's shuffle and is not probed
    ("q_count_distinct", "tiny", 2, 1),
    # a per-key fold behind ann_topk's shuffle: never probed
    ("q_knn_label", "tiny", 0, 0),
])
def test_query_folds_driver_matches_shuffle(ray_session, gate_spy,
                                            force_shuffle, edge_sf, query,
                                            corpus, on_driver, forced):
    """The queries' grouped aggregates (coarse_agg) and per-key folds
    (grouped_per_key) give the same answer folded once on the driver
    and bucket by bucket in the shuffle."""
    from test_edge_gate import _tool

    from bb_ocr_ray.pipelines.queries import QUERIES

    canon, to_pandas = (getattr(_tool("check_oracles"), n)
                        for n in ("canon", "to_pandas"))
    sf = edge_sf if corpus == "edge" else SF_TINY
    driver = canon(to_pandas(QUERIES[query](sf)))
    assert gate_spy == ["driver"] * on_driver
    force_shuffle(-1)
    shuffled = canon(to_pandas(QUERIES[query](sf)))
    assert gate_spy[on_driver:] == ["shuffle"] * forced
    assert len(driver)
    pd.testing.assert_frame_equal(driver, shuffled)


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    """A copy of sf0.001 whose customer, lineitem, orders and events
    tables hold 0 rows."""
    import pyarrow.parquet as pq

    sf = tmp_path_factory.mktemp("empty") / "sf_empty"
    sf.mkdir()
    for name in os.listdir(SF_TINY):
        table = pq.read_table(os.path.join(SF_TINY, name))
        if name.split(".")[0] in ("customer", "lineitem", "orders",
                                  "events"):
            table = table.slice(0, 0)
        pq.write_table(table, str(sf / name))
    return str(sf)


@pytest.mark.parametrize("query", [
    "q1_pricing_summary", "q_rollup", "q_events_hourly", "q_events_sliding",
    "q_hash_join", "q_broadcast_join_nation", "q5_revenue_by_nation",
    "q6_revenue_delta", "q_band_join"])
def test_folds_over_empty_tables_match_oracles(ray_session, empty_sf, query):
    """A fold or join whose input holds no rows answers 0 rows with its
    columns: queries fed only by the emptied tables match their DuckDB
    oracles (the one row left is q_rollup's grand total and
    q6_revenue_delta's scalar, as in SQL)."""
    from test_edge_gate import _tool

    records = _tool("check_oracles").run_checks(empty_sf, {query})
    one_row = query in ("q_rollup", "q6_revenue_delta")
    assert ({n: (r["status"], r.get("rows")) for n, r in records.items()}
            == {query: ("pass", int(one_row))})


_T3 = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                "v": pa.array(["a", "b", "c"])})


def _worker_maps():
    """Maps that Ray workers run, defined in a function so that they are
    pickled by value (the workers cannot import this test module)."""
    def to_empty(t: pa.Table) -> pa.Table:
        return t.slice(0, 0)

    def add_w(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(w=b["k"] * 2.0)

    def stamp(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(bucket=b["k"] % 2)

    return to_empty, add_w, stamp


_to_empty, _add_w, _stamp = _worker_maps()


def _add_g(t: pa.Table):
    yield t.append_column("g", pa.array([1] * len(t), pa.int32()))


def _raise(b):
    raise ValueError("no rows expected")


class _Identity:
    def __call__(self, b):
        return b


def _typed_read():
    import ray.data as rd

    return rd.read_parquet(f"{SF_TINY}/orders.parquet",
                           columns=["o_orderkey", "o_orderstatus"])


# each builder: (Dataset, {column: type} typed_empty must tell, or None)
_TYPED_EMPTY = {
    "read": lambda rd: (_typed_read(),
                        {"o_orderkey": "int64", "o_orderstatus": "string"}),
    "held-arrow": lambda rd: (rd.from_arrow(_T3),
                              {"k": "int64", "v": "string"}),
    "held-pandas": lambda rd: (rd.from_pandas(_T3.to_pandas()),
                               {"k": "int64", "v": "string"}),
    "pandas-map": lambda rd: (
        rd.from_arrow(_T3).map_batches(_add_w, batch_format="pandas"),
        {"k": "int64", "v": "string", "w": "double"}),
    "generator-map": lambda rd: (
        rd.from_arrow(_T3).map_batches(_add_g, batch_format="pyarrow"),
        {"k": "int64", "v": "string", "g": "int32"}),
    "maps-left-empty": lambda rd: (
        rd.from_arrow(_T3).map_batches(_to_empty, batch_format="pyarrow")
        .map_batches(_add_w, batch_format="pandas"),
        {"k": "int64", "v": "string", "w": "double"}),
    "filter": lambda rd: (rd.from_arrow(_T3).filter(lambda r: r["k"] > 5),
                          {"k": "int64", "v": "string"}),
    "select": lambda rd: (rd.from_arrow(_T3).select_columns(["v"]),
                          {"v": "string"}),
    "rename": lambda rd: (rd.from_arrow(_T3).rename_columns({"v": "u"}),
                          {"k": "int64", "u": "string"}),
    "callable-class": lambda rd: (
        rd.from_arrow(_T3).map_batches(_Identity, batch_format="pandas",
                                       concurrency=1), None),
    "row-map": lambda rd: (rd.from_arrow(_T3).map(lambda r: r), None),
    "map-raises": lambda rd: (
        rd.from_arrow(_T3).map_batches(_raise, batch_format="pandas"), None),
    "all-to-all": lambda rd: (rd.from_arrow(_T3).sort("k"), None),
}


@pytest.mark.parametrize("plan", sorted(_TYPED_EMPTY))
def test_typed_empty_tells_columns_without_rows(ray_session, executions,
                                                plan):
    """``sizing.typed_empty`` types a plan's output from its nearest
    known schema and the plain maps after it, run here on 0 rows, and
    gives None for any operator it cannot run that way; it executes no
    Dataset."""
    import ray.data as rd

    from bb_ocr_ray.stages import sizing

    ds, want = _TYPED_EMPTY[plan](rd)
    got = sizing.typed_empty(ds)
    assert executions == []
    if want is None:
        assert got is None
    else:
        assert got.num_rows == 0
        assert {f.name: str(f.type) for f in got.schema} == want


def test_to_frame_keeps_columns_of_an_empty_result(ray_session):
    """``sizing.to_frame`` is ``to_pandas`` for rows, and keeps the
    columns (and dtypes) of a result whose blocks a map left empty,
    where Ray's own frame has none."""
    import ray.data as rd

    from bb_ocr_ray.stages import sizing

    full = rd.from_arrow(_T3).map_batches(_add_w, batch_format="pandas")
    pd.testing.assert_frame_equal(sizing.to_frame(full), full.to_pandas())
    empty = (rd.from_arrow(_T3).map_batches(_to_empty, batch_format="pyarrow")
             .map_batches(_add_w, batch_format="pandas"))
    assert list(empty.to_pandas().columns) == []
    got = sizing.to_frame(empty)
    assert len(got) == 0
    assert dict(got.dtypes.astype(str)) == {"k": "int64", "v": "object",
                                            "w": "float64"}


def _count_per_k(g: pd.DataFrame) -> pd.DataFrame:
    return g.groupby("k", as_index=False).agg(n=("v", "size"))


def _count_per_k_arrow(t: pa.Table) -> pa.Table:
    return t.group_by("k").aggregate([("v", "count")])


@pytest.mark.parametrize("side, fn, want", [
    # a held side with 0 rows: the stamp runs here on its typed frame
    ("held", _count_per_k, ["k", "n"]),
    ("held", _count_per_k_arrow, ["k", "v_count"]),
    # a lazy side whose blocks a map left empty: Ray reports no schema,
    # so the stamp runs on typed_empty's frame
    ("emptied", _count_per_k, ["k", "n"]),
    # a fold that cannot take 0 rows answers as the shuffle does
    ("held", _raise, []),
], ids=["held-pandas", "held-pyarrow", "emptied", "fold-raises"])
def test_fold_buckets_over_zero_rows_keeps_fold_columns(ray_session,
                                                        gate_spy, side, fn,
                                                        want):
    """``fold_buckets`` over a 0-row side runs ``fn`` once on the typed
    0-row stamp, so its 0-row answer carries the fold's columns."""
    import ray.data as rd

    from bb_ocr_ray.stages import sizing

    if side == "held":
        ds = rd.from_arrow(_T3.slice(0, 0))
    else:
        ds = rd.from_arrow(_T3).map_batches(_to_empty, batch_format="pyarrow")
    fn_format = "pyarrow" if fn is _count_per_k_arrow else "pandas"
    got = sizing.fold_buckets(ds, _stamp, "bucket", fn, fn_format=fn_format)
    assert gate_spy == ["driver"]
    assert got.count() == 0
    assert (got.schema().names if want else got.schema()) == (want or None)


def test_grouped_per_key_over_zero_rows_keeps_fn_columns(ray_session):
    """``grouped_per_key`` over a 0-row side answers with ``fn``'s
    columns: ``fn`` runs once on the typed 0-row frame."""
    import ray.data as rd

    from bb_ocr_ray.stages.coarse import grouped_per_key

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": g["k"].head(1),
                             "n_rows": pd.Series([len(g)] * min(len(g), 1),
                                                 dtype="int64")})

    got = grouped_per_key(rd.from_arrow(_T3.slice(0, 0)), "k", per_key)
    assert got.count() == 0
    assert got.schema().names == ["k", "n_rows"]


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_schemaless_empty_left_keeps_columns(ray_session, how):
    """hash_join with a schema-less empty left side (blocks a map left
    empty) answers DuckDB's 0 rows with the left's columns, plus the
    right's payload for an inner or left join."""
    import duckdb
    import ray.data as rd

    from bb_ocr_ray.stages import joins

    left = (rd.from_arrow(_NULL_L)
            .map_batches(_to_empty, batch_format="pyarrow"))
    got = joins.hash_join(left, rd.from_arrow(_NULL_R), on="k", how=how)
    L, R = _NULL_L.slice(0, 0), _NULL_R  # noqa: F841 — DuckDB scans them
    sql = _NULL_SQL.get(how, "SELECT L.k, v, w FROM L LEFT JOIN R "
                             "ON L.k = R.k")
    want = duckdb.sql(sql).df()
    assert got.count() == len(want) == 0
    assert got.schema().names == list(want.columns)


def test_driver_fold_keeps_downstream_parallelism(ray_session, gate_spy):
    """A driver-folded result of a few MiB comes back as several blocks
    (one per ``target_min_block_size``), not one, with the same rows."""
    from bb_ocr_ray.stages.coarse import coarse_agg

    n = 200_000
    df = pd.DataFrame({"k": np.arange(n, dtype="int64"),
                       "v": np.arange(n, dtype="int64") % 7})
    got = coarse_agg(_blocks(df, 4), ["k"], {"s": ("v", "sum")}).materialize()
    assert gate_spy == ["driver"]
    assert got.num_blocks() == 3       # 3.2 MB of (k, s) over 1 MiB
    out = got.to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, df.rename(columns={"v": "s"}),
                                  check_dtype=False)


def test_held_side_collects_without_execution(ray_session, executions,
                                              force_shuffle):
    """A side whose blocks already exist (from_pandas, under a column
    projection or not) is read back with no Ray execution, and decides
    at limits 0 and -1 exactly as the same rows behind a lazy map."""
    import ray.data as rd

    from bb_ocr_ray.stages import sizing

    df = pd.DataFrame({"k": np.arange(5, dtype="int64"), "s": list("abcde")})
    for frame in (df, df.iloc[:0]):
        got = sizing.collect_if_fits(rd.from_pandas(frame))
        pd.testing.assert_frame_equal(got.to_pandas(),
                                      frame.reset_index(drop=True))
        got = sizing.collect_if_fits(
            rd.from_pandas([frame, frame]).select_columns(["s"]))
        assert got.column_names == ["s"]
        assert got.column("s").to_pylist() == 2 * list(frame["s"])
    assert executions == []
    for limit in (0, -1):
        force_shuffle(limit)
        for frame in (df, df.iloc[:0]):
            held = sizing.collect_if_fits(rd.from_pandas(frame))
            assert executions == []
            lazy = sizing.collect_if_fits(rd.from_pandas(frame).map_batches(
                lambda b: b, batch_format="pandas"))
            executions.clear()
            assert (held is None) == (lazy is None), (limit, len(frame))
            assert (held is None) == (limit < 0 or len(frame) > 0)


def test_held_fold_input_gates_on_stamped_bytes(ray_session, gate_spy,
                                                executions, force_shuffle):
    """A held fold input is gated on what its stamp makes, not on its
    own bytes, and decides as the same rows behind a lazy map do, in
    both directions: grouped_per_key's stamp adds a bucket column to
    every row (16 -> 24 B/row), so under a limit between the two the
    held side shuffles; coarse_agg's per-batch combiner shrinks 4,000
    rows to two, so under half the raw bytes the held side still folds
    on the driver.  The held side's gate runs no Ray execution."""
    import ray.data as rd

    from bb_ocr_ray.stages.coarse import coarse_agg, grouped_per_key

    n = 4000
    df = pd.DataFrame({"k": np.arange(n, dtype="int64") % 2,
                       "v": np.arange(n, dtype="int64")})
    raw = pa.Table.from_pandas(df, preserve_index=False).nbytes

    def sides():
        return (("held", rd.from_pandas(df)),
                ("lazy", rd.from_pandas(df).map_batches(
                    lambda b: b, batch_format="pandas")))

    cases = (
        (raw + raw // 4, "shuffle",
         lambda ds: grouped_per_key(ds, "k", lambda g: g.nsmallest(2, "v"))),
        (raw // 2, "driver",
         lambda ds: coarse_agg(ds, ["k"], {"s": ("v", "sum"),
                                           "c": ("v", "size")})),
    )
    for limit, want, run in cases:
        force_shuffle(limit)
        got = {}
        for name, ds in sides():
            gate_spy.clear()
            executions.clear()
            out = run(ds)
            assert gate_spy == [want], (name, limit)
            assert (executions == []) == (name == "held"), (name, executions)
            got[name] = (out.to_pandas().sort_values(list(out.schema().names))
                         .reset_index(drop=True))
        pd.testing.assert_frame_equal(got["held"], got["lazy"],
                                      check_dtype=False)


# ---------------------------------------------------------------------------
# What an over-limit fold costs upstream: a counting map writes one file
# per batch holding its row count, so the test sees how many input rows
# were run, across the probe and the shuffle
# ---------------------------------------------------------------------------
def _counted(df: pd.DataFrame, n: int, tmp_path):
    import uuid

    def count(b: pd.DataFrame) -> pd.DataFrame:
        (tmp_path / uuid.uuid4().hex).write_text(str(len(b)))
        return b

    return _blocks(df, n).map_batches(count, batch_format="pandas")


def _rows_run(tmp_path) -> int:
    return sum(int(p.read_text()) for p in tmp_path.iterdir())


@pytest.mark.parametrize("behind_shuffle", [False, True])
def test_over_limit_fold_reruns_at_most_its_probe(ray_session, gate_spy,
                                                  force_shuffle, tmp_path,
                                                  behind_shuffle):
    """grouped_per_key with the limit one byte below its stamped side
    (int64 k, v plus the int64 bucket: 24 B a row).  A side fed by maps
    only is probed, found too big after reading all of it, and run again
    by the shuffle: 2N rows.  A side behind an unexecuted sort is not
    probed, so its upstream, sort included, runs once: N rows."""
    from bb_ocr_ray.stages.coarse import grouped_per_key

    n = 4000
    df = pd.DataFrame({"k": np.arange(n, dtype="int64") % 97,
                       "v": np.arange(n, dtype="int64")})
    side = _counted(df, 4, tmp_path)
    if behind_shuffle:
        side = side.sort("v")
    force_shuffle(24 * n - 1)
    got = grouped_per_key(side, "k", lambda g: g.nlargest(1, "v")
                          ).to_pandas()
    assert sorted(got["v"]) == list(range(n - 97, n))
    if behind_shuffle:
        assert gate_spy == [] and _rows_run(tmp_path) == n
    else:
        assert gate_spy == ["shuffle"] and _rows_run(tmp_path) == 2 * n


def test_domain_stats_over_limit_runs_its_input_at_most_twice(
        ray_session, gate_spy, force_shuffle, tmp_path):
    """domain_stats with partials over the limit: the first fold's probe
    and its shuffle each run the input once at most, and the salt-strip
    fold, behind that shuffle, adds no third run."""
    from bb_ocr_ray.stages.domain_agg import domain_stats

    n = 2000
    i = np.arange(n)
    df = pd.DataFrame({
        "url": [f"https://site{j % 7}.example.com/doc-{j}" for j in i],
        "domain": [f"site{j % 7}.example.com" for j in i],
        "html_bytes": (i * 3).astype("int64"),
        "text": ["x" * (j % 50) for j in i],
        "status": ["ok" if j % 13 else "empty" for j in i]})
    force_shuffle()
    got = (domain_stats(_counted(df, 4, tmp_path)).to_pandas()
           .set_index("domain").sort_index())
    assert gate_spy == ["shuffle"]
    assert n < _rows_run(tmp_path) <= 2 * n
    want = (df.assign(n_docs=1, extracted_chars=df["text"].str.len(),
                      n_errors=(df["status"] != "ok").astype("int64"))
            .groupby("domain")[["n_docs", "html_bytes", "extracted_chars",
                                "n_errors"]].sum())
    pd.testing.assert_frame_equal(got[want.columns], want,
                                  check_dtype=False)


# ---------------------------------------------------------------------------
# A schema-less empty side (Ray's schema() is None when every block of
# a Dataset came out of a map empty) joins like an empty table in SQL
# ---------------------------------------------------------------------------
def _schemaless_side():
    import ray.data as rd

    side = (rd.from_arrow(_NULL_R)
            .map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
            .materialize()
            .map_batches(lambda t: t.append_column(
                "x", pa.array([1] * len(t), pa.int64())),
                batch_format="pyarrow"))
    assert side.schema() is None
    return side


_EMPTY_SQL = {
    "inner": "SELECT L.k, v FROM L JOIN R ON L.k = R.k",
    "semi": "SELECT k, v FROM L WHERE k IN (SELECT k FROM R)",
    "anti": ("SELECT k, v FROM L WHERE NOT EXISTS "
             "(SELECT 1 FROM R WHERE R.k = L.k)"),
    "left": "SELECT L.k, v FROM L LEFT JOIN R ON L.k = R.k",
}


@pytest.mark.parametrize("path", [
    "hash-inner", "hash-semi", "hash-anti", "hash-left", "auto-inner",
    "auto-left"])
def test_schemaless_empty_side_joins_match_duckdb(ray_session, gate_spy,
                                                  path):
    """hash_join and auto_join against a schema-less empty right side:
    inner and semi keep no row, anti and left keep every left row —
    DuckDB's rows on an empty R.  Semi keeps the left columns; inner
    adds the right's payload columns, typed from its plan, as a join
    with rows would."""
    import duckdb

    from bb_ocr_ray.stages import joins

    kind, how = path.split("-")
    left = _arrow_side(_NULL_L)
    if kind == "hash":
        got = joins.hash_join(left, _schemaless_side(), on="k", how=how)
    else:
        got = joins.auto_join(left, _schemaless_side(), on="k", how=how)
        assert gate_spy == ["driver"]
    L, R = _NULL_L, _NULL_R.slice(0, 0)  # noqa: F841 — DuckDB scans them
    want_df = duckdb.sql(_EMPTY_SQL[how]).df()
    assert got.count() == len(want_df)
    if len(want_df):
        assert (_null_rows(got.to_pandas(), ["k", "v"])
                == _null_rows(want_df, ["k", "v"]))
    else:
        assert got.schema().names == (["k", "v", "w", "x"] if how == "inner"
                                      else ["k", "v"])
