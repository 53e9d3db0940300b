"""Graph operators over edge Datasets.

PageRank is the classic web-graph workload for a Common-Crawl-scale
engine (host-level link analysis).  The implementation is the standard
power iteration (Page et al., 1999 — public algorithm) expressed as
Ray Data passes: each iteration is ONE bucketed hash join (rank vector
x edge list) plus ONE coarse aggregate, so the edge list never lands
on the driver and no stage ever sees a per-node group (per-group tax —
see stages/coarse.py).

Variant notes (both sides of the oracle agree): teleport mass is
``(1 - damping) / |V|``; dangling-node mass is NOT redistributed (the
leaky formulation), so ranks sum to < 1 when sinks exist — fine for
ranking, simpler to mirror exactly in SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _distinct_nodes(edges_ds):
    """Distinct node ids from (src, dst) — one coarse fold
    (``sizing.fold_buckets``) with a per-batch distinct combiner.
    No forced batch_size (fusion trap — see stages/coarse.py)."""
    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    coarse_buckets = _auto_num_buckets()

    def locals_(b: pd.DataFrame) -> pd.DataFrame:
        ids = pd.concat([b["src"], b["dst"]], ignore_index=True)
        out = pd.DataFrame({"node": ids.drop_duplicates()
                            .astype("int64").to_numpy()})
        out["_nb"] = (pd.util.hash_array(
            out["node"].to_numpy().astype("float64"), categorize=False)
            % coarse_buckets).astype("int64")
        return out

    return sizing.fold_buckets(
        edges_ds, locals_, "_nb",
        lambda g: g.drop_duplicates("node").drop(columns=["_nb"]))


def pagerank(edges_ds, iters: int = 10, damping: float = 0.85,
             tol: float | None = None, stats: dict | None = None,
             check_every: int | None = None):
    """Power-iteration PageRank over an edge Dataset (src, dst) —
    int64 node ids, parallel edges allowed (they carry multiplicity).

    Returns a Dataset of (node, rank), one row per distinct node.

    Scale shape: out-degrees and the node set are coarse aggregates;
    the per-iteration rank vector is materialized (bounded: |V| rows —
    the iterative-algorithm exception to no-mid-pipeline-materialize,
    same argument as connected_components_ds) so iteration N+1 does
    not re-execute 1..N through lazy lineage.

    Convergence early-exit: on probe iterations the old and new rank
    vectors (both materialized, |V| rows — never the edge list) pair
    through one small hash join and the per-block |Δ| maxima stream to
    the driver (block-count rows).  Carrying the old rank through the
    per-EDGE contribution shuffle instead was measured 2.5 s slower
    at sf0.1: it adds a column to |E| rows and doubles the combiner
    work every iteration, vs a |V|-row join only when probing.  With
    ``tol=None`` (the oracle contract) iteration stops early ONLY on
    exact convergence — max |Δrank| == 0.0, after which every further
    iteration is bitwise a no-op, so the result still equals the full
    ``iters`` unrolled-SQL oracle; exact convergence takes O(hundreds)
    of iterations, so the probe runs every ``check_every`` (default 8)
    rounds.  With a positive ``tol`` (real-use mode) it stops once
    max |Δrank| <= tol (probed every round by default); the remaining
    drift vs the fixed-iteration result is bounded by
    ``tol*damping/(1-damping)``.  The last iteration never probes —
    breaking there saves nothing.

    Per-iteration join shape is SIZE-GATED on the rank vector
    (VERDICT r4 item 6): the |V|-row (src, rank) vector is
    materialized after init and its Arrow bytes are measured once by
    ``sizing.collect_if_fits``, so when it fits the driver a
    round is ONE shuffle-free map over the static, materialized edge
    list — fresh ranks broadcast via ``ray.put``, each task emits
    per-batch PARTIAL (dst, m) sums, and the driver folds the
    partials (bounded by blocks × |V|, both gate-bounded; the vector
    was coming to the driver for the broadcast anyway).  No
    all-to-all at all per round — the vocabulary-shuffle finding
    applied to the rank vector.  The convergence probe is one aligned
    numpy subtract.  A web-scale |V| (10^10 nodes ≈ 160 GB of rank
    vector) fails the gate and takes the original hash-join +
    coarse-fold path, where both sides shuffle.
    """
    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.coarse import coarse_agg
    from bb_ocr_ray.stages.joins import (_auto_num_buckets,
                                         broadcast_join, hash_join)

    coarse_buckets = _auto_num_buckets()

    # no select_columns here: Project ops crash on pandas blocks, and
    # synthesized edge Datasets arrive as pandas — the contract is the
    # caller passes exactly (src, dst)
    nodes = _distinct_nodes(edges_ds).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        # guard FIRST: an empty Dataset has no schema and the join
        # below would raise before any division by zero
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            "node": pd.array([], dtype="int64"),
            "rank": pd.array([], dtype="float64")}))
    # size the one-time setup shuffles from the graph too (the node
    # count is already known here)
    setup_buckets = max(8, min(coarse_buckets, n_nodes // 100_000 + 8))
    deg = coarse_agg(edges_ds, ["src"], {"outdeg": ("dst", "size")},
                     coarse_buckets=setup_buckets)
    # (src, dst, outdeg): attach the degree once, reuse every iteration
    edges2 = hash_join(edges_ds, deg, on="src",
                       num_buckets=setup_buckets).materialize()
    n_edges = edges2.count()
    # (no edge-list coalesce here: hash_join already sized its output
    # by setup_buckets, which scales with the graph — re-blocking was
    # measured a wash at sf0.1, unlike `hits` whose edge list inherits
    # the 64-fragment read layout)
    # per-iteration shuffle width scales with the GRAPH, not the
    # cluster ceiling: 10 iterations x 64-bucket sorts on a 5k-row
    # rank vector is pure scheduling overhead (measured 7-16 s at
    # sf0.1); at web scale the data term dominates and this equals
    # the cluster-sized count
    iter_buckets = max(8, min(coarse_buckets,
                              (n_nodes + n_edges) // 250_000 + 8))
    teleport = (1.0 - damping) / n_nodes

    # bound the rank-vector block count: the setup's coarse shuffles
    # leave ~bucket-count tiny blocks, and every iteration would drag
    # them (plus as many zero blocks) through the join and the union —
    # measured ~1-1.5 s/iteration of pure per-block overhead at 5k
    # nodes.  One block per 500k nodes keeps blocks worker-sized at
    # web scale and single-digit at test scale.
    rank_blocks = max(1, -(-n_nodes // 500_000))
    nodes = nodes.repartition(rank_blocks).materialize()

    def init(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": b["node"].astype("int64"),
                             "rank": 1.0 / n_nodes})

    # the rank vector is keyed "src" so each iteration's join needs no
    # rename shuffle-side
    ranks = nodes.map_batches(init, batch_format="pandas").materialize()

    def zero_rows(b: pd.DataFrame) -> pd.DataFrame:
        # guarantees in-link-less nodes survive the contribution sum
        return pd.DataFrame({"dst": b["node"].astype("int64"),
                             "m": 0.0})

    zeros = nodes.map_batches(zero_rows, batch_format="pandas").materialize()

    if check_every is None:
        check_every = 1 if tol is not None else 8

    # the rank vector's size is FIXED across iterations (one row per
    # node), and `ranks` is materialized — gate once on real bytes
    ranks_tbl = sizing.collect_if_fits(ranks)
    use_bcast = ranks_tbl is not None
    ranks_pd = ranks_tbl.to_pandas() if use_bcast else None

    # broadcast path: the per-round all-to-all is pure fixed overhead
    # for a gate-bounded vector (the vocabulary-shuffle finding), so
    # the round becomes ONE map over the static edges emitting
    # per-batch PARTIAL (dst, m) sums, folded on the driver.  Partial
    # traffic is bounded by blocks x |V| — both gate-bounded — and
    # the vector was coming to the driver for the broadcast anyway.
    nodes_idx = None
    if use_bcast:
        nodes_idx = np.sort(ranks_pd["src"].to_numpy(np.int64))

    iters_run, last_delta = 0, float("inf")
    for it in range(iters):
        if use_bcast:
            joined = broadcast_join(edges2, ranks_pd, on="src")

            def contrib_partial(b: pd.DataFrame) -> pd.DataFrame:
                m = (damping * b["rank"].to_numpy()
                     / b["outdeg"].to_numpy())
                g = (pd.DataFrame({"dst": b["dst"].astype("int64"), "m": m})
                     .groupby("dst", as_index=False)["m"].sum())
                return g

            parts = joined.map_batches(contrib_partial,
                                       batch_format="pandas").to_pandas()
            m = parts.groupby("dst")["m"].sum()
            # every node gets teleport; in-link-less nodes get 0 mass
            mass = (m.reindex(nodes_idx).fillna(0.0)
                    .to_numpy(np.float64))
            prev_pd, ranks_pd = ranks_pd, pd.DataFrame(
                {"src": nodes_idx, "rank": teleport + mass})
            iters_run += 1
            if (it + 1) % check_every == 0 and it < iters - 1:
                # both vectors are already driver-sized by the gate
                # and share nodes_idx order: the probe is one subtract
                old = (prev_pd.set_index("src")["rank"]
                       .reindex(nodes_idx).to_numpy(np.float64))
                max_delta = float(np.abs(
                    ranks_pd["rank"].to_numpy(np.float64) - old).max()
                    ) if len(nodes_idx) else 0.0
                last_delta = max_delta
                if (max_delta == 0.0
                        or (tol is not None and max_delta <= tol)):
                    break
            continue

        joined = hash_join(edges2, ranks, on="src",
                           num_buckets=iter_buckets)

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "dst": b["dst"].astype("int64"),
                "m": damping * b["rank"].to_numpy()
                / b["outdeg"].to_numpy()})

        received = coarse_agg(
            joined.map_batches(contrib, batch_format="pandas").union(zeros),
            ["dst"], {"m": ("m", "sum")}, coarse_buckets=iter_buckets)

        def next_rank(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"src": b["dst"].astype("int64"),
                                 "rank": teleport + b["m"].to_numpy()})

        prev = ranks
        ranks = received.map_batches(
            next_rank, batch_format="pandas").materialize()
        iters_run += 1
        probe = (it + 1) % check_every == 0 and it < iters - 1
        if probe:
            # probe: pair old/new (|V|-row vectors) with one small
            # join, stream per-block |Δ| maxima to the driver
            old_r = prev.map_batches(
                lambda b: pd.DataFrame({"src": b["src"],
                                        "old": b["rank"]}),
                batch_format="pandas")
            paired = hash_join(ranks, old_r, on="src",
                               num_buckets=iter_buckets)
            max_delta = float(paired.map_batches(
                lambda b: pd.DataFrame({"d": [float(np.abs(
                    b["rank"].to_numpy() - b["old"].to_numpy()).max())]}
                    if len(b) else {"d": [0.0]}),
                batch_format="pandas").to_pandas()["d"].max())
            last_delta = max_delta
            if max_delta == 0.0 or (tol is not None and max_delta <= tol):
                break

    if stats is not None:
        stats.update({"iters_run": iters_run, "max_delta": last_delta})

    if use_bcast:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"node": ranks_pd["src"].astype("int64").to_numpy(),
             "rank": ranks_pd["rank"].astype("float64").to_numpy()}))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": b["src"].astype("int64"),
                             "rank": b["rank"].astype("float64")})

    return ranks.map_batches(finish, batch_format="pandas")


def hits(edges_ds, iters: int = 5):
    """HITS hubs & authorities (Kleinberg 1999, public algorithm) over
    an edge Dataset (src, dst) — int64 node ids, parallel edges carry
    multiplicity.  Returns a Dataset of (node, authority, hub).

    Update order is the classic sequential sweep, mirrored exactly by
    the unrolled SQL oracle: a_i = L2-normalize(Σ_{s→n} h_{i-1}(s)),
    then h_i = L2-normalize(Σ_{n→t} a_i(t)) — the hub update reads the
    JUST-normalized authorities.  Nodes with no in-edges (out-edges)
    hold authority (hub) 0 through every round.

    Scale shape (the pagerank posture): the |V|-row score vectors are
    re-materialized every half-round, so the initial (node, v) hub
    vector's Arrow bytes, measured once by ``sizing.collect_if_fits``,
    gate the join shape — when it fits the driver the static edge
    list never shuffles (fresh vector via ``ray.put``, zero-copy map
    attach, one coarse fold per half-round; the L2 norm is driver
    arithmetic on the gate-bounded vector; the driver then holds the
    hub and authority vectors, twice the measured bytes).  Above the
    gate both sides hash-join and the norm folds from per-block
    partial sums of squares (block-count rows to the driver).
    """
    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.coarse import coarse_agg
    from bb_ocr_ray.stages.joins import (_auto_num_buckets,
                                         broadcast_join, hash_join)

    coarse_buckets = _auto_num_buckets()

    nodes = _distinct_nodes(edges_ds).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            "node": pd.array([], dtype="int64"),
            "authority": pd.array([], dtype="float64"),
            "hub": pd.array([], dtype="float64")}))
    edges2 = edges_ds.map_batches(
        lambda b: pd.DataFrame({"src": b["src"].astype("int64"),
                                "dst": b["dst"].astype("int64")}),
        batch_format="pandas").materialize()
    n_edges = edges2.count()
    # the static edge list inherits the INPUT's block count (64 read
    # fragments at test scale for 15k edges), and every half-round maps
    # over it — coalesce to a size-appropriate count once so the
    # per-round task fan matches the data, not the read layout
    # (measured 0.46 s/half-round at 64 blocks vs ~0.1 s coalesced; at
    # web scale n_edges//250_000 dominates and this is a no-op)
    edge_blocks = max(1, min(edges2.num_blocks(), n_edges // 250_000 + 1))
    if edges2.num_blocks() > edge_blocks * 2:
        edges2 = edges2.repartition(edge_blocks).materialize()
    iter_buckets = max(8, min(coarse_buckets,
                              (n_nodes + n_edges) // 250_000 + 8))
    rank_blocks = max(1, -(-n_nodes // 500_000))
    nodes = nodes.repartition(rank_blocks).materialize()

    hvec = nodes.map_batches(
        lambda b: pd.DataFrame({"node": b["node"].astype("int64"),
                                "v": 1.0}),
        batch_format="pandas").materialize()
    h_tbl = sizing.collect_if_fits(hvec)
    use_bcast = h_tbl is not None
    if use_bcast:
        hvec = h_tbl.to_pandas()
        nodes_idx = np.sort(hvec["node"].to_numpy(np.int64))
    else:
        zeros = nodes.map_batches(
            lambda b: pd.DataFrame({"node": b["node"].astype("int64"),
                                    "v": 0.0}),
            batch_format="pandas").materialize()

    def _neighbor_sum(vec, key_from: str, key_to: str):
        """Σ over edges (key_from → key_to) of vec(key_from), as a
        normalized |V|-row vector (every node present).

        Broadcast path: ONE shuffle-free map over the static edges
        emitting per-batch PARTIAL (node, v) sums, folded and
        L2-normalized on the driver (the pagerank driver-fold shape —
        partial traffic bounded by blocks × |V|, both gate-bounded).
        Hash path: distributed join + coarse fold + per-block partial
        sums of squares for the norm."""
        if use_bcast:
            joined = broadcast_join(
                edges2, vec.rename(columns={"node": key_from}),
                on=key_from)

            def partial(b: pd.DataFrame) -> pd.DataFrame:
                return (pd.DataFrame(
                    {"node": b[key_to].astype("int64"),
                     "v": b["v"].astype("float64")})
                    .groupby("node", as_index=False)["v"].sum())

            parts = joined.map_batches(partial,
                                       batch_format="pandas").to_pandas()
            s = parts.groupby("node")["v"].sum()
            vals = s.reindex(nodes_idx).fillna(0.0).to_numpy(np.float64)
            nrm = float(np.sqrt((vals ** 2).sum()))
            if nrm > 0:
                vals = vals / nrm
            return pd.DataFrame({"node": nodes_idx, "v": vals})

        joined = hash_join(
            edges2,
            vec.map_batches(
                lambda b: pd.DataFrame(
                    {key_from: b["node"].astype("int64"),
                     "v": b["v"]}),
                batch_format="pandas"),
            on=key_from, num_buckets=iter_buckets)
        summed = coarse_agg(
            joined.map_batches(
                lambda b: pd.DataFrame(
                    {"node": b[key_to].astype("int64"),
                     "v": b["v"].astype("float64")}),
                batch_format="pandas").union(zeros),
            ["node"], {"v": ("v", "sum")}, coarse_buckets=iter_buckets)
        mat = summed.materialize()
        parts = mat.map_batches(
            lambda b: pd.DataFrame(
                {"ss": [float((b["v"].to_numpy(np.float64) ** 2).sum())]}),
            batch_format="pandas").to_pandas()
        nrm = float(np.sqrt(parts["ss"].sum()))
        if nrm == 0:
            return mat
        return mat.map_batches(
            lambda b, nrm=nrm: pd.DataFrame(
                {"node": b["node"].astype("int64"),
                 "v": b["v"].to_numpy(np.float64) / nrm}),
            batch_format="pandas").materialize()

    avec = None
    for _ in range(iters):
        avec = _neighbor_sum(hvec, "src", "dst")     # authorities
        hvec = _neighbor_sum(avec, "dst", "src")     # hubs (new a)

    apd = avec if isinstance(avec, pd.DataFrame) else avec.to_pandas()
    hpd = hvec if isinstance(hvec, pd.DataFrame) else hvec.to_pandas()
    out = (apd.rename(columns={"v": "authority"})
           .merge(hpd.rename(columns={"v": "hub"}), on="node"))
    out["node"] = out["node"].astype("int64")
    import ray.data as rd

    return rd.from_pandas(
        out[["node", "authority", "hub"]]
        .sort_values("node").reset_index(drop=True))
