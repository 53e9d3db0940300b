"""Dedup stage tests on hand-built fixtures with known duplicates."""

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def dup_docs(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog near the river bank today"
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},                               # exact dup of 0
        {"doc_id": 2, "text": base.replace("dog", "cat")},         # near dup of 0
        {"doc_id": 3, "text": "completely different content about query engines and shuffles"},
        {"doc_id": 4, "text": "another unrelated document mentioning vectors and embeddings"},
        {"doc_id": 5, "text": base},                               # exact dup of 0
    ]
    return rd.from_items(rows)


@pytest.mark.parametrize("path", ["driver", "shuffle"])
def test_exact_dedup_keeps_min(ray_session, dup_docs, gate_spy,
                               force_shuffle, path):
    """The winner pick is bucket-oblivious, so the driver fold (side
    fits) and the coarse shuffle give the same rows."""
    from bb_ocr_ray.stages.dedup import add_content_hash, dedup_exact

    if path == "shuffle":
        force_shuffle()
    hashed = dup_docs.map_batches(add_content_hash, batch_format="pyarrow")
    out = dedup_exact(hashed, key="content_hash", order_col="doc_id").to_pandas()
    assert gate_spy == [path]
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert list(out.columns) == ["doc_id", "text", "content_hash"]
    assert list(out["doc_id"]) == [0, 2, 3, 4]   # 1 and 5 deduped into 0
    docs = dup_docs.to_pandas().set_index("doc_id")
    assert list(out["text"]) == list(docs.loc[[0, 2, 3, 4], "text"])


def test_minhash_finds_near_dups(ray_session, dup_docs):
    from bb_ocr_ray.stages.dedup import minhash_candidates

    pairs = minhash_candidates(dup_docs).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    # exact dups always collide; the one-word-changed near-dup must too
    assert (0, 1) in found and (0, 5) in found and (1, 5) in found
    assert (0, 2) in found
    # unrelated docs must not pair with everything
    assert (3, 4) not in found


def test_simhash_finds_near_dups(ray_session, dup_docs):
    from bb_ocr_ray.stages.dedup import simhash_near_dups

    pairs = simhash_near_dups(dup_docs, max_hamming=8).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert (0, 1) in found and (0, 5) in found
    assert (3, 4) not in found


def test_pages_url_dedup(ray_session):
    """Duplicate-url pair from the edge fixtures -> exactly one survivor,
    deterministically the earliest warc_ts."""
    import ray.data as rd

    from edge_pages import edge_case_pages

    from bb_ocr_ray.stages.dedup import dedup_exact

    pages = rd.from_arrow(edge_case_pages())
    deduped = dedup_exact(pages, key="url", order_col="warc_ts").to_pandas()
    dup_rows = deduped[deduped["url"] == "https://edge.example.com/dup"]
    assert len(dup_rows) == 1
    assert dup_rows.iloc[0]["warc_ts"] == pd.Timestamp("2024-01-01 00:00:00")
    assert deduped["url"].is_unique


def test_near_dup_dedup_end_to_end(ray_session, dup_docs):
    """candidates -> verify -> components -> keep-min: only the lowest
    doc_id of each near-dup cluster survives."""
    from bb_ocr_ray.stages.dedup import near_dup_dedup

    kept = sorted(near_dup_dedup(dup_docs).to_pandas()["doc_id"])
    # docs 0,1,5 are exact dups and 2 is a near-dup of them -> one
    # cluster keeping 0; docs 3 and 4 are unrelated singletons
    assert kept == [0, 3, 4]


def test_connected_components_chain_and_islands():
    import pandas as pd

    from bb_ocr_ray.stages.dedup import connected_components

    pairs = pd.DataFrame({"id_a": [1, 2, 7, 10], "id_b": [2, 3, 8, 1]})
    comps = connected_components(pairs).set_index("doc_id")["component"]
    # chain 1-2-3 plus edge 10-1 -> all label 1; island 7-8 -> label 7
    assert comps[1] == comps[2] == comps[3] == comps[10] == 1
    assert comps[7] == comps[8] == 7


def test_verify_candidates_filters_low_jaccard(ray_session, dup_docs):
    from bb_ocr_ray.stages.dedup import minhash_candidates, verify_candidates

    cands = minhash_candidates(dup_docs)
    verified = verify_candidates(cands, dup_docs, min_jaccard=0.99).to_pandas()
    # at J>=0.99 only the exact-dup pairs survive (0,1),(0,5),(1,5)
    got = set(map(tuple, verified[["id_a", "id_b"]].itertuples(index=False)))
    assert got == {(0, 1), (0, 5), (1, 5)}


def test_connected_components_long_chain_pointer_jump():
    """Review regression: a 121-node chain converges (pointer jumping)
    instead of silently splitting at the round cap."""
    import pandas as pd

    from bb_ocr_ray.stages.dedup import connected_components

    pairs = pd.DataFrame({"id_a": range(120), "id_b": range(1, 121)})
    comps = connected_components(pairs)
    assert (comps["component"] == 0).all()


def test_duplicate_flood_chains_not_drops(ray_session):
    """A 200-doc identical-text flood overflows the 64-doc bucket cap;
    the over-cap tail must be CHAINED (O(B) pairs preserving
    connectivity), never silently dropped — near_dup_dedup keeps
    exactly one survivor and candidate count stays far below B^2."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import minhash_candidates, near_dup_dedup

    text = "identical duplicated web page content repeated across a flood of mirrors"
    flood = rd.from_items(
        [{"doc_id": i, "text": text} for i in range(200)]
        + [{"doc_id": 1000, "text": "one unrelated document about something else"}]
    ).repartition(4)
    cands = minhash_candidates(flood).to_pandas()
    # full pairwise on the flood would be 200*199/2 = 19900 pairs; the
    # cap+chain design emits 64*63/2 + 136 = 2152 per colliding bucket
    # at most (deduped across bands)
    assert len(cands) < 5000
    touched = set(cands["id_a"]) | set(cands["id_b"])
    assert set(range(200)) <= touched, "chain must reach every flood member"

    kept = near_dup_dedup(flood, min_jaccard=0.9).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 1000]


def test_simhash_flood_connectivity(ray_session):
    """Same flood through simhash: every member appears in a verified
    pair (chain keeps hamming-0 floods connected past the cap)."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import simhash_near_dups

    text = "identical duplicated web page content repeated across a flood of mirrors"
    flood = rd.from_items(
        [{"doc_id": i, "text": text} for i in range(100)]).repartition(4)
    pairs = simhash_near_dups(flood).to_pandas()
    touched = set(pairs["id_a"]) | set(pairs["id_b"])
    assert touched == set(range(100))
    assert (pairs["hamming"] == 0).all()


def _sql_cap_chain_pairs(frame, keys, id_col, cap=64):
    """Brute-force transcription of the LSH oracles' pair rule:
    ``row_number() OVER (PARTITION BY bucket ORDER BY id)`` over the
    distinct (bucket, id) rows, then every pair with
    ``rn_a < rn_b AND (rn_b <= cap OR rn_b = rn_a + 1)``."""
    members = {}
    for row in frame[keys + [id_col]].itertuples(index=False):
        members.setdefault(tuple(row[:-1]), set()).add(row[-1])
    out = set()
    for ids in members.values():
        ids = sorted(ids)
        for a in range(1, len(ids) + 1):
            for b in range(a + 1, len(ids) + 1):
                if b <= cap or b == a + 1:
                    out.add((ids[a - 1], ids[b - 1]))
    return out


def test_cap_chain_pairs_matches_sql_rule():
    """The vectorized emitter equals the SQL rule on unsorted input with
    bucket sizes at and around the cap, repeated (bucket, id) rows and
    buckets that differ in one key column only; it emits each pair once
    and keeps only colliding buckets."""
    import numpy as np

    from bb_ocr_ray.stages.dedup import cap_chain_pairs

    rng = np.random.default_rng(7)
    band_id, band_key, ids = [], [], []
    for n, size in enumerate((1, 2, 63, 64, 65, 130)):
        for band in (0, 1):   # same band_key, different band_id
            members = rng.choice(10_000, size, replace=False)
            band_id += [band] * size
            band_key += [np.uint64(2**63 + n)] * size
            ids += members.tolist()
    frame = pd.DataFrame({"band_id": np.array(band_id, dtype=np.int64),
                          "band_key": np.array(band_key, dtype=np.uint64),
                          "doc_id": np.array(ids, dtype=np.int64)})
    frame = pd.concat([frame, frame.sample(200, random_state=1)])   # repeats
    frame = frame.sample(frac=1.0, random_state=2).reset_index(drop=True)

    keys = ["band_id", "band_key"]
    rows, pos_a, pos_b = cap_chain_pairs(frame, keys, "doc_id", "test")
    got = list(zip(rows["doc_id"].to_numpy()[pos_a],
                   rows["doc_id"].to_numpy()[pos_b]))
    want = _sql_cap_chain_pairs(frame, keys, "doc_id")
    assert len(got) == len(set(got))
    assert set(got) == want
    assert not rows.duplicated(keys + ["doc_id"]).any()
    assert rows.groupby(keys).size().min() >= 2   # singletons dropped

    empty = frame.iloc[:0]
    rows, pos_a, pos_b = cap_chain_pairs(empty, keys, "doc_id", "test")
    assert len(rows) == len(pos_a) == len(pos_b) == 0


def test_popcount64_matches_bin_count():
    import numpy as np

    from bb_ocr_ray.stages.dedup import _popcount64

    rng = np.random.default_rng(3)
    x = np.concatenate([rng.integers(0, 2**63, 500, dtype=np.uint64) * 2 + 1,
                        np.array([0, 2**64 - 1, 2**63], dtype=np.uint64)])
    assert _popcount64(x).tolist() == [bin(int(v)).count("1") for v in x]


def test_verify_exact_jaccard_boundary(ray_session):
    """min_jaccard=0.55 keeps a pair at exactly 11/20 and drops 11/21,
    on both the driver verify and the distributed hash-join verify."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import (verify_candidates,
                                         verify_candidates_hash)

    shared = [f"s{i}" for i in range(11)]
    docs = rd.from_items([
        {"doc_id": 1, "text": " ".join(shared + [f"a{i}" for i in range(5)])},
        {"doc_id": 2, "text": " ".join(shared + [f"b{i}" for i in range(4)])},
        {"doc_id": 3, "text": " ".join(shared + [f"c{i}" for i in range(5)])},
        {"doc_id": 4, "text": " ".join(shared + [f"d{i}" for i in range(5)])},
    ])
    pairs = pd.DataFrame({"id_a": [1, 3], "id_b": [2, 4]})
    for verify in (verify_candidates, verify_candidates_hash):
        out = verify(rd.from_pandas(pairs), docs, min_jaccard=0.55).to_pandas()
        got = sorted(map(tuple, out[["id_a", "id_b", "inter", "uni"]]
                         .itertuples(index=False)))
        assert got == [(1, 2, 11, 20)], (verify.__name__, got)


def test_verify_hash_blocks_size_cleanly(ray_session, monkeypatch,
                                         ray_data_log):
    """verify_candidates_hash's two joins carry each doc's token set
    as one string column through hash_join: every block of theirs is
    Arrow, none a 0-row pandas frame with object columns, whose sizing
    makes Ray log "Error calculating size for column"."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.block import BlockAccessor

    from bb_ocr_ray.stages import joins
    from bb_ocr_ray.stages.dedup import verify_candidates_hash

    real, joined = joins.hash_join, []

    def spy(*args, **kwargs):
        joined.append(real(*args, **kwargs).materialize())
        return joined[-1]

    monkeypatch.setattr(joins, "hash_join", spy)
    docs = rd.from_items([{"doc_id": i, "text": f"shared words here x{i % 3}"}
                          for i in range(40)])
    pairs = pd.DataFrame({"id_a": [0, 10, 20, 5], "id_b": [3, 13, 21, 30]})
    got = verify_candidates_hash(rd.from_pandas(pairs), docs,
                                 min_jaccard=0.7).to_pandas()
    assert sorted(map(tuple, got.itertuples(index=False))) == [
        (0, 3, 4, 4), (10, 13, 4, 4)]
    assert len(joined) == 2
    for ds in joined:
        for bundle in ds.iter_internal_ref_bundles():
            for ref, _ in bundle.blocks:
                block = ray.get(ref)
                assert isinstance(block, pa.Table), type(block)
                BlockAccessor.for_block(block).size_bytes()
    assert not [r for r in ray_data_log.records
                if "Error calculating size" in r.getMessage()]


def test_connected_components_ds_matches_driver(ray_session):
    """Distributed alternating-star CC must agree with the driver-side
    min-label implementation on chains, islands, and random graphs."""
    import numpy as np
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import (
        connected_components,
        connected_components_ds,
    )

    cases = [
        pd.DataFrame({"id_a": range(120), "id_b": range(1, 121)}),  # long chain
        pd.DataFrame({"id_a": [1, 5, 9], "id_b": [2, 6, 10]}),      # islands
    ]
    rng = np.random.RandomState(3)
    a = rng.randint(0, 400, 600)
    b = rng.randint(0, 400, 600)
    mask = a != b
    cases.append(pd.DataFrame({"id_a": a[mask], "id_b": b[mask]}))

    for pairs in cases:
        want = connected_components(pairs).sort_values("doc_id")
        got = (connected_components_ds(rd.from_pandas(pairs))
               .to_pandas().sort_values("doc_id"))
        pd.testing.assert_frame_equal(want.reset_index(drop=True),
                                      got.reset_index(drop=True))


def test_near_dup_dedup_distributed_matches_driver(ray_session, dup_docs,
                                                   gate_spy, force_shuffle):
    """The distributed verify+cluster+anti-join path returns exactly
    the driver fast path's survivors, and never collects pairs on the
    driver: the driver run passes all six gates (the band fold and the
    pair dedup of minhash_candidates, verify's pairs and mentioned
    texts, the edges, the drop set); the forced run fails five (the
    band fold, verify's pairs, the edges, the star rounds' root pair
    dedup, the drop set: verify's mentioned texts drop out, and the
    pair dedup reads the band shuffle's output, so it is not probed)."""
    from bb_ocr_ray.stages.dedup import near_dup_dedup

    a = near_dup_dedup(dup_docs).to_pandas()
    assert gate_spy == ["driver"] * 6
    force_shuffle()
    b = near_dup_dedup(dup_docs).to_pandas()
    assert gate_spy[6:] == ["shuffle"] * 5
    assert sorted(a["doc_id"]) == sorted(b["doc_id"]) == [0, 3, 4]


def test_near_dup_dedup_distributed_flood(ray_session, gate_spy,
                                          force_shuffle):
    """10k-ish pair graph through the distributed path: a 120-doc
    identical flood plus uniques dedups to one survivor per cluster
    without driver-side clustering."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import near_dup_dedup

    text = "the same mirrored page body appearing on many hosts with tracking junk"
    rows = [{"doc_id": i, "text": text} for i in range(120)]
    rows += [{"doc_id": 500 + i,
              "text": f"unique document number {i} with its own words {i*7}"}
             for i in range(30)]
    ds = rd.from_items(rows).repartition(4)
    force_shuffle()
    kept = near_dup_dedup(ds, min_jaccard=0.9).to_pandas()
    # verify's pairs, edges, root pair dedup, drop set; the band fold
    # reads the repartitioned docs and the pair dedup the band shuffle,
    # so neither is probed
    assert gate_spy == ["shuffle"] * 4
    assert 0 in set(kept["doc_id"])                      # flood survivor
    assert set(kept["doc_id"]) >= {500 + i for i in range(30)}
    assert len(kept) == 31


def test_anti_join_hash_matches_broadcast(ray_session, gate_spy,
                                          force_shuffle):
    import ray.data as rd

    from bb_ocr_ray.stages.joins import auto_anti, hash_join

    big = rd.from_items(
        [{"k": i, "val": f"v{i}"} for i in range(500)]).repartition(4)
    drop = [i for i in range(500) if i % 3 == 0]
    keys = rd.from_items([{"k": i} for i in drop]).repartition(2)
    a = auto_anti(big, keys, "k").to_pandas()
    force_shuffle()
    forced = auto_anti(big, keys, "k").to_pandas()
    assert gate_spy == ["driver", "shuffle"]
    b = hash_join(big, keys, on="k", how="anti").to_pandas()
    assert sorted(a["k"]) == sorted(b["k"]) == sorted(forced["k"])
    assert sorted(a["k"]) == [i for i in range(500) if i % 3]
    assert set(b.columns) == {"k", "val"}
    # review regression: the keys-side None padding must not degrade
    # big-side dtypes to object
    assert b["k"].dtype == "int64", b.dtypes


def test_paragraph_dedup_first_wins_across_and_within_docs(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import paragraph_dedup

    A, B, C = "shared para alpha", "unique beta", "shared gamma"
    docs = rd.from_items([
        {"doc_id": 1, "text": f"{A}\n\n{B}\n\n{A}"},   # intra-doc repeat
        {"doc_id": 2, "text": f"{C}\n\n{A}\n\n\n\nlast"},  # empty segment
        {"doc_id": 3, "text": C},                      # fully deduplicated
        {"doc_id": 4, "text": ""},                     # no paragraphs: no row
        {"doc_id": 5, "text": None},                   # NULL: no row
    ]).repartition(2)
    out = (paragraph_dedup(docs).to_pandas()
           .set_index("doc_id").sort_index())

    assert list(out.index) == [1, 2, 3]
    assert out.loc[1, "new_text"] == f"{A}\n\n{B}"      # repeat dropped
    assert (out.loc[1, "n_paras"], out.loc[1, "n_kept"]) == (3, 2)
    assert out.loc[2, "new_text"] == f"{C}\n\nlast"     # A claimed by doc 1
    assert (out.loc[2, "n_paras"], out.loc[2, "n_kept"]) == (3, 2)
    assert out.loc[3, "new_text"] == ""                 # everything claimed
    assert (out.loc[3, "n_paras"], out.loc[3, "n_kept"]) == (1, 0)


def test_paragraph_dedup_idempotent(ray_session):
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import paragraph_dedup

    docs = rd.from_items([
        {"doc_id": i, "text": f"common intro\n\nbody {i}"} for i in range(6)
    ]).repartition(2)
    first = paragraph_dedup(docs).to_pandas()
    again_in = rd.from_items(
        [{"doc_id": int(r.doc_id), "text": r.new_text}
         for r in first.itertuples() if r.new_text]).repartition(2)
    again = paragraph_dedup(again_in).to_pandas()
    # a deduplicated corpus is a fixed point
    merged = first[first.new_text != ""].merge(
        again, on="doc_id", suffixes=("_1", "_2"))
    assert (merged["new_text_1"] == merged["new_text_2"]).all()
    assert (merged["n_kept_2"] == merged["n_kept_1"]).all()


def test_set_similarity_output_sensitive(ray_session):
    """The prefix-filtered exact Jaccard join must (a) equal local
    brute force on planted similar pairs among dissimilar docs, and
    (b) generate a candidate set near the OUTPUT size, not the n^2
    pair space — the property that retired the quadratic driver loop."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import set_similarity_join

    # 200 docs with disjoint vocabularies + 5 planted near-dup pairs
    docs = []
    for i in range(200):
        docs.append({"doc_id": i,
                     "text": " ".join(f"w{i}_{j}" for j in range(20))})
    for p in range(5):
        base = docs[p]["text"].split(" ")
        # 18/22 shared tokens -> J = 18/22 > 0.5
        twin = base[:18] + [f"twin{p}_a", f"twin{p}_b"]
        docs.append({"doc_id": 1000 + p, "text": " ".join(twin)})
    ds = rd.from_items(docs).repartition(4)

    got = set_similarity_join(ds, min_jaccard=0.5).to_pandas()
    got_pairs = set(zip(got["id_a"], got["id_b"]))
    assert got_pairs == {(p, 1000 + p) for p in range(5)}
    for _, r in got.iterrows():
        assert (int(r["inter"]), int(r["uni"])) == (18, 22)


def test_set_similarity_matches_brute_random(ray_session):
    """Seeded randomized differential: the prefix-filtered exact join
    must equal local brute force on a high-overlap corpus (many pairs
    sitting exactly at the threshold boundary — the prefix-length
    ceil arithmetic is off-by-one-prone) at two thresholds."""
    from fractions import Fraction
    from itertools import combinations

    import numpy as np
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import set_similarity_join

    rng = np.random.RandomState(20260818)
    pool = [f"t{i}" for i in range(40)]
    docs = []
    for i in range(80):
        k = rng.randint(3, 16)
        toks = sorted(set(rng.choice(pool, size=k)))
        docs.append({"doc_id": i, "text": " ".join(toks)})

    sets = {d["doc_id"]: frozenset(d["text"].split(" ")) for d in docs}

    for thr in (0.5, 0.6):
        frac = Fraction(str(thr))
        expect = set()
        for a, b in combinations(sorted(sets), 2):
            i = len(sets[a] & sets[b])
            u = len(sets[a] | sets[b])
            if u > 0 and i * frac.denominator >= frac.numerator * u:
                expect.add((a, b, i, u))
        got_df = set_similarity_join(
            rd.from_items(docs).repartition(4), min_jaccard=thr).to_pandas()
        got = set(zip(got_df["id_a"], got_df["id_b"],
                      got_df["inter"], got_df["uni"])) if len(got_df) else set()
        assert got == expect, f"threshold {thr}: {got ^ expect}"


def test_set_similarity_distributed_vocab_path(ray_session, gate_spy,
                                               force_shuffle):
    """A 0-byte driver limit forces the df-rank hash-join path (the
    web-scale branch: no driver-side vocabulary dict, prefix ranks
    attached by the bucketed join + a vectorized per-doc fold).  It
    must produce the exact broadcast-path result — pairs AND
    (inter, uni) — on a high-overlap corpus including empty docs and
    boundary-threshold pairs (VERDICT r3 item 2)."""
    import numpy as np
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import set_similarity_join

    rng = np.random.RandomState(77)
    pool = [f"t{i}" for i in range(30)]
    docs = []
    for i in range(60):
        k = rng.randint(3, 14)
        toks = sorted(set(rng.choice(pool, size=k)))
        docs.append({"doc_id": i, "text": " ".join(toks)})
    docs.append({"doc_id": 900, "text": ""})       # empty-token edge
    docs.append({"doc_id": 901, "text": ""})       # pairs with 900 at J=1

    def run():
        out = set_similarity_join(
            rd.from_items(docs).repartition(4), min_jaccard=0.5).to_pandas()
        return set(zip(out["id_a"], out["id_b"], out["inter"], out["uni"]))

    broadcast = run()
    force_shuffle()
    distributed = run()
    # each run's vocabulary gate; the df fold reads the repartitioned
    # docs and the pair dedup a shuffle, so neither is probed
    assert gate_spy == ["driver", "shuffle"]
    assert distributed == broadcast
    assert (900, 901, 1, 1) in distributed          # "" token round-trips


def test_dup_span_stats_planted(ray_session, monkeypatch, force_shuffle):
    """Planted window duplication: a shared 8-token sentence across two
    docs, a within-doc repeat, and a unique doc — exact counts, through
    a 7-bucket shuffle."""
    import ray.data as rd

    from bb_ocr_ray.stages import joins
    from bb_ocr_ray.stages.dedup import dup_span_stats

    monkeypatch.setattr(joins, "_auto_num_buckets", lambda: 7)
    force_shuffle()

    shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8 tokens
    docs = [
        # doc 0/1 share one exact window (plus their own unique tails)
        {"doc_id": 0, "text": shared + " tail0a tail0b"},
        {"doc_id": 1, "text": shared + " tail1a tail1b"},
        # doc 2 repeats its own 8-token run twice -> every window of the
        # repeated run is duplicated within the doc
        {"doc_id": 2, "text": ("one two three four five six seven eight "
                               "one two three four five six seven eight")},
        # doc 3 unique, doc 4 too short for any window
        {"doc_id": 3, "text": "u1 u2 u3 u4 u5 u6 u7 u8 u9"},
        {"doc_id": 4, "text": "too short"},
    ]
    out = (dup_span_stats(rd.from_items(docs).repartition(3), k=8)
           .to_pandas().set_index("doc_id").sort_index())

    # doc 4 has no window at all -> no row
    assert sorted(out.index) == [0, 1, 2, 3]
    # docs 0/1: 3 windows each (10 tokens), exactly 1 duplicated
    assert out.loc[0, "n_windows"] == 3 and out.loc[0, "n_dup_windows"] == 1
    assert out.loc[1, "n_windows"] == 3 and out.loc[1, "n_dup_windows"] == 1
    # doc 2: 9 windows over 16 tokens; window[0] == window[8] is the
    # only string occurring twice -> 2 duplicated positions
    assert out.loc[2, "n_windows"] == 9 and out.loc[2, "n_dup_windows"] == 2
    # doc 3: 2 windows, none duplicated
    assert out.loc[3, "n_windows"] == 2 and out.loc[3, "n_dup_windows"] == 0


def test_batched_sketch_kernels_match_per_doc():
    """The batched minhash/simhash kernels (numpy reduceat over the
    concatenated shingle stream) must equal the per-doc functions
    ELEMENTWISE — including empty docs, sub-k docs, whitespace-only
    docs, and duplicate docs (VERDICT r3 item 3: identical outputs is
    the vectorization contract, since the SQL oracles mirror the
    per-doc constants)."""
    import numpy as np

    from bb_ocr_ray.functions.hashing import (
        minhash_signature, minhash_signatures_batch, simhash, simhash_batch)

    rng = np.random.RandomState(4)
    pool = [f"w{i}" for i in range(50)]
    texts = ["", "   ", "one", "one two", "one two three",
             "a\tb\nc  d\r\ne f g h i j"]
    texts += [" ".join(rng.choice(pool, size=rng.randint(1, 60)))
              for _ in range(40)]
    texts.append(texts[-1])                      # exact duplicate

    batch = minhash_signatures_batch(texts)
    for i, t in enumerate(texts):
        np.testing.assert_array_equal(batch[i], minhash_signature(t))

    sb = simhash_batch(texts)
    for i, t in enumerate(texts):
        assert int(sb[i]) == simhash(t), f"simhash mismatch at {i}: {t!r}"


# Shingle byte lengths at the MD5 padding edges (one block holds up to
# 55 message bytes, two up to 119) and past the numpy kernel's four
# blocks: each length L appears as a 3-shingle ("p"*10 "q"*10 "r"*...)
# and a 2-shingle ("p"*10 "r"*...).
_EDGE_LENGTHS = (54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 247, 248, 300)
_EDGE_DOCS = ([f"{'p' * 10} {'q' * 10} {'r' * (n - 22)}" for n in _EDGE_LENGTHS]
              + [f"{'p' * 10}\r\n{'r' * (n - 11)}" for n in _EDGE_LENGTHS])
_SEPS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", " \v\f\t"]
_WORDS = ["a", "bb", "ccc", "\u00a0", "x\u00a0y", "\u2028", "z\u2028z",
          "\U0001F600", "\U0001D11Ex", "\u00e9t\u00e9", "1" * 17, "2" * 26,
          "3" * 40, "4" * 60, "5" * 130]


def _sketch_docs():
    from hypothesis import strategies as st

    # tokens never hold the six ASCII separators; NBSP, U+2028 and
    # astral characters stay inside them
    token = st.sampled_from(_WORDS) | st.text(
        alphabet=st.characters(codec="utf-8",
                               exclude_characters=" \t\n\r\f\v"),
        min_size=1, max_size=70)
    sep = st.sampled_from(_SEPS)
    body = st.builds(
        lambda lead, parts, tail: lead + "".join(t + s for t, s in parts) + tail,
        st.sampled_from(["", " ", "\v\f", "\r\n"]),
        st.lists(st.tuples(token, sep), max_size=12),
        st.sampled_from(["", " ", "\n\n"]))
    return st.lists(st.none() | st.just("") | body, max_size=8)


def test_sketch_kernels_match_per_doc_fuzz():
    """Differential fuzz of the numpy sketch kernels: batched MinHash
    and SimHash equal the per-doc functions, each doc's shingle slices
    decode to exactly its ``_shingles`` set, and the numpy MD5 equals
    hashlib — on None and empty texts, sub-k docs, duplicate docs,
    \\v/\\f/\\r\\n runs, NBSP and U+2028 inside tokens, astral
    characters, and shingle byte lengths at every MD5 block edge."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from bb_ocr_ray.functions.hashing import (
        _shingle_slices, _shingles, md5_slices, minhash_signature,
        minhash_signatures_batch, simhash, simhash_batch, ws_tokens)

    @settings(max_examples=60, deadline=None)
    @given(_sketch_docs(), st.integers(0, 3))
    def check(docs, n_dup):
        texts = docs + docs[:n_dup] + _EDGE_DOCS
        for k in (2, 3):
            norm, starts, lengths, offsets = _shingle_slices(texts, k)
            raw = norm.tobytes()
            for i, t in enumerate(texts):
                got = {raw[a:a + n].decode("utf-8") for a, n in zip(
                    starts[offsets[i]:offsets[i + 1]].tolist(),
                    lengths[offsets[i]:offsets[i + 1]].tolist())}
                assert got == _shingles(ws_tokens(t or ""), k), (k, t)
        mb = minhash_signatures_batch(texts)
        np.testing.assert_array_equal(
            mb, minhash_signatures_batch(pa.array(texts, pa.large_string())))
        sb = simhash_batch(pa.chunked_array([pa.array(texts, pa.string())]))
        for i, t in enumerate(texts):
            np.testing.assert_array_equal(mb[i], minhash_signature(t or ""))
            assert int(sb[i]) == simhash(t or ""), t

    check()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=300), max_size=12))
    def check_md5(msgs):
        msgs = msgs + [b"\x80" * n for n in (0, 1) + _EDGE_LENGTHS]
        lengths = np.array([len(m) for m in msgs], dtype=np.int64)
        lo, hi = md5_slices(np.frombuffer(b"".join(msgs), np.uint8),
                            np.cumsum(lengths) - lengths, lengths)
        for m, a, b in zip(msgs, lo.tolist(), hi.tolist()):
            d = hashlib.md5(m).digest()
            assert (a, b) == (int.from_bytes(d[:8], "little"),
                              int.from_bytes(d[8:], "little")), m

    check_md5()


def test_dup_span_explode_slicing_matches_joins():
    """dup_span_stats' window slicing must hash exactly the k-token
    join strings — pinned against an independent ' '.join re-derivation
    over multi-whitespace fixtures."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.functions.hashing import ws_tokens
    from bb_ocr_ray.stages.dedup import dup_span_stats

    texts = ["alpha  beta\tgamma delta epsilon zeta eta theta iota",
             "x " * 20, "short one", "",
             "one two three four five six seven eight one two three "
             "four five six seven eight"]
    docs = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    got = dup_span_stats(rd.from_items(docs).repartition(2), k=8
                         ).to_pandas().set_index("doc_id").sort_index()

    # independent local re-derivation
    from collections import Counter
    k = 8
    win = Counter()
    per_doc = {}
    for d in docs:
        tk = ws_tokens(d["text"])
        ws = [" ".join(tk[i:i + k]) for i in range(len(tk) - k + 1)]
        if ws:
            per_doc[d["doc_id"]] = ws
            win.update(hashlib.md5(w.encode()).digest()[:8].hex()
                       for w in ws)
    for did, ws in per_doc.items():
        n_dup = sum(1 for w in ws
                    if win[hashlib.md5(w.encode()).digest()[:8].hex()] >= 2)
        assert got.loc[did, "n_windows"] == len(ws)
        assert got.loc[did, "n_dup_windows"] == n_dup
    assert set(got.index) == set(per_doc)


def test_connected_components_query_matches_islands(ray_session, sf_tiny):
    """q_connected_components equals an independent pandas
    gaps-and-islands derivation (no shared code with the engine's
    star rounds OR the SQL oracle)."""
    from bb_ocr_ray.pipelines.queries import q_connected_components

    got = q_connected_components(sf_tiny)
    docs = pd.read_parquet(f"{sf_tiny}/documents.parquet",
                           columns=["doc_id"]).sort_values("doc_id")
    d = docs["doc_id"].to_numpy("int64")
    present = set(d.tolist())
    comp, want = {}, []
    for x in d.tolist():
        prev = x - 1
        linked = (prev in present
                  and ((prev * prev + 3 * prev) % 11) >= 3)
        comp[x] = comp[prev] if linked else x
        want.append(comp[x])
    assert got["doc_id"].tolist() == d.tolist()
    assert got["component"].tolist() == want
    # sanity: the graph is not degenerate (some real chains exist)
    n_islands = len(set(want))
    assert 1 < n_islands < len(d)


def test_connected_components_ds_gate_paths_agree(ray_session, gate_spy,
                                                  force_shuffle):
    """The edge-list size gate: driver min-label loop and distributed
    star rounds label identically (long chain + cliques + isolated
    pair), and the gate reports each path."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import connected_components_ds

    pairs = pd.DataFrame({
        "id_a": list(range(0, 40)) + [100, 101, 102] + [500],
        "id_b": list(range(1, 41)) + [101, 102, 100] + [501]})
    ds = rd.from_pandas(pairs).repartition(4)

    fast = (connected_components_ds(ds)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    force_shuffle()
    slow = (connected_components_ds(rd.from_pandas(pairs).repartition(4))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # the star rounds' root pair dedup is the forced run's second gate
    assert gate_spy == ["driver", "shuffle", "shuffle"]
    assert fast["doc_id"].tolist() == slow["doc_id"].tolist()
    assert fast["component"].tolist() == slow["component"].tolist()
    # chain collapses to min label 0; clique to 100; pair to 500
    comp = dict(zip(fast["doc_id"], fast["component"]))
    assert comp[40] == 0 and comp[102] == 100 and comp[501] == 500


def _planted_corpus(path, n_docs=300, n_files=4):
    """An extracted-shape Parquet directory (doc_id, url, domain, text,
    html_bytes, status) in which about 40% of docs sit in clusters of
    2-4 near or exact copies; every group draws private tokens.
    Returns (kept ids, per-domain doc counts)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    order = rng.permutation(n_docs)
    texts, kept, pos, group = [""] * n_docs, [], 0, 0
    while pos < n_docs:
        size = min(1 if rng.random() < 0.6 else int(rng.integers(2, 5)),
                   n_docs - pos)
        members = order[pos:pos + size]
        base = [f"g{group}t{k}" for k in range(int(rng.integers(40, 60)))]
        for m, doc in enumerate(members):
            toks = list(base)
            if m and rng.random() < 0.5:
                toks[int(rng.integers(len(toks)))] = f"g{group}v{m}"
            texts[int(doc)] = " ".join(toks)
        kept.append(int(members.min()))
        pos, group = pos + size, group + 1
    domains = [f"site{i % 5}.example.net" for i in range(n_docs)]
    table = pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "url": [f"https://{d}/d{i}" for i, d in enumerate(domains)],
        "domain": domains,
        "text": texts,
        "html_bytes": pa.array(np.full(n_docs, 1000), pa.int64()),
        "status": ["ok"] * n_docs})
    path.mkdir()
    step = -(-n_docs // n_files)
    for f in range(n_files):
        pq.write_table(table.slice(f * step, step), path / f"part-{f}.parquet")
    return sorted(kept), {d: domains.count(d) for d in set(domains)}


def test_dedup_rollup_execution_count(ray_session, executions, tmp_path):
    """domain_stats + near_dup_dedup, each written to Parquet, run five
    Ray Data executions: the partial-aggregate probe and the stats write,
    the MinHash probe, verify's mentioned-text read and the final anti
    filter with its write.  Every driver-held side in between (the salt
    strip, the pair dedup, the edges, the drop set) is read back with
    no execution."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import near_dup_dedup
    from bb_ocr_ray.stages.domain_agg import domain_stats

    kept, per_domain = _planted_corpus(tmp_path / "docs")
    src = str(tmp_path / "docs")
    domain_stats(rd.read_parquet(src)).write_parquet(str(tmp_path / "stats"))
    near_dup_dedup(rd.read_parquet(src)).write_parquet(str(tmp_path / "kept"))
    assert len(executions) <= 5, executions
    stats = pq.read_table(tmp_path / "stats").to_pandas()
    assert dict(zip(stats["domain"], stats["n_docs"])) == per_domain
    got = pq.read_table(tmp_path / "kept", columns=["doc_id"])
    assert sorted(got.column("doc_id").to_pylist()) == kept
