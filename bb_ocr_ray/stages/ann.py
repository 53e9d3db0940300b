"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
via ``ray.put`` and every ``map_batches`` task streams its batch through
one numpy matmul against it (no shuffle; the big side never moves).

Scale path: LSH-bucketed variant — random-hyperplane signatures assign
each vector to a bucket; queries probe only their own bucket.  The
hyperplanes are seeded constants so bucketing is deterministic.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd


def _to_matrix(col) -> np.ndarray:
    m = np.asarray([np.asarray(v, dtype=np.float64) for v in col])
    if m.ndim == 1:                      # zero rows -> keep 2-D shape
        m = m.reshape(0, 0)
    return m


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class BruteForceTopK:
    """Actor-pool stage: per-batch partial top-k against broadcast queries.

    __init__ pulls the query matrix from the object store ONCE per actor
    (ray.put on the driver, ray.get here) — never re-shipped per batch.
    Emits per-(query, batch) partial top-k rows; a small final groupby
    reduces partials to global top-k (see ann_topk)."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str,
                 score_round: int | None = None):
        import ray

        qids, qmat = ray.get(queries_ref)
        self.qids = qids
        self.qmat = _normalize(qmat)          # (Q, d)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col
        # rounding grain applied BEFORE the partial cut: a consumer
        # that ranks at a fixed grain (q_hybrid_rrf, 4 dp — so a
        # near-tie at the k boundary cannot flip set membership
        # between engines) needs the grain inside the partial top-k
        # too, or a candidate the rounded order keeps could be cut by
        # the raw order here (ADVICE r4)
        self.score_round = score_round

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                 "neighbor_id": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        ids = batch[self.id_col].to_numpy()
        mat = _normalize(_to_matrix(batch[self.vec_col]))   # (B, d)
        sims = self.qmat @ mat.T                            # (Q, B)
        if self.score_round is not None:
            sims = np.round(sims, self.score_round)
        k = min(self.k + 1, sims.shape[1])                  # +1 to survive self-hit
        out = {"query_id": [], "neighbor_id": [], "score": []}
        for qi, qid in enumerate(self.qids):
            # tie-deterministic partial top-k: order by (-score, id) so
            # equal-score neighbors survive the cut the same way the
            # oracle's ORDER BY score DESC, neighbor_id ranks them
            # (argpartition keeps an arbitrary one of a tied pair)
            order = np.lexsort((ids, -sims[qi]))[:k]
            for j in order:
                nid = ids[j]
                if nid == qid:
                    continue                                 # exclude self
                out["query_id"].append(qid)
                out["neighbor_id"].append(nid)
                out["score"].append(sims[qi, j])
        return pd.DataFrame(
            {
                "query_id": pd.Series(out["query_id"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "score": pd.Series(out["score"], dtype="float64"),
            }
        )


def ann_topk(vectors_ds, query_ids, k: int = 5, id_col: str = "vec_id",
             vec_col: str = "embedding", score_round: int | None = None):
    """Exact cosine top-k of each query against the whole dataset.

    Returns Dataset (query_id, rank, neighbor_id): integer-only output so
    cross-engine float formatting can't drift; rank is 1-based by
    (-score, neighbor_id) — a total, deterministic order.  With
    ``score_round`` the cosine rounds to that many dp before ANY
    ranking (partial and final), so consumers that compare ranked
    sets across engines can pin the tie-break grain.
    """
    import ray

    qset = set(int(q) for q in query_ids)
    # arrow-native filter: a pandas row-subset flips the list column's
    # block representation (ndarray -> object), tripping Ray's schema
    # tracker; arrow blocks filter representation-stable
    import pyarrow as pa
    import pyarrow.compute as pc

    qvals = pa.array(sorted(qset), type=pa.int64())
    qrows = vectors_ds.map_batches(
        lambda t: t.filter(pc.is_in(t[id_col], value_set=qvals)),
        batch_format="pyarrow",
    ).to_pandas()
    qrows = qrows.sort_values(id_col)
    queries_ref = ray.put(
        (qrows[id_col].tolist(), _to_matrix(qrows[vec_col]))
    )

    # stateless tasks: ray.get(queries_ref) inside the task is served
    # zero-copy from the local object store after the first call per
    # worker — broadcast semantics without an actor-pool spawn per
    # dataset execution, and without baking the matrix into the task
    # closure (same finding as broadcast_join)
    def partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return BruteForceTopK(queries_ref, k, id_col, vec_col,
                              score_round)(batch)

    partials = vectors_ds.map_batches(partial_topk, batch_format="pandas")

    def reduce_topk(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nsmallest(
            k, group.itertuples(index=False),
            key=lambda r: (-r.score, r.neighbor_id),
        )
        return pd.DataFrame(
            {
                "query_id": pd.Series([t.query_id for t in top], dtype="int64"),
                "rank": pd.Series(range(1, len(top) + 1), dtype="int64"),
                "neighbor_id": pd.Series([t.neighbor_id for t in top], dtype="int64"),
            }
        )

    return partials.groupby("query_id").map_groups(reduce_topk, batch_format="pandas")


# ---------------------------------------------------------------------------
# LSH-bucketed variant (scale path)
# ---------------------------------------------------------------------------
_PLANES_SEED = 0xA11CE


def lsh_bucket_ids(mat: np.ndarray, n_planes: int = 8, dim: int = 64,
                   table: int = 0) -> np.ndarray:
    """Hyperplane-LSH bucket id per row; ``table`` selects one of the
    independent seeded plane sets (multi-table = band-OR recall)."""
    rng = np.random.RandomState(_PLANES_SEED + table)
    planes = rng.standard_normal((dim, n_planes))
    bits = (mat @ planes) > 0
    return (bits @ (1 << np.arange(n_planes))).astype(np.int64)


def embedding_near_dups(vectors_ds, threshold: float = 0.95,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        n_planes: int = 8, n_tables: int = 6,
                        bucket_cap: int = 2048):
    """Embedding-cosine near-dup pairs via multi-table hyperplane LSH.

    A pair is a candidate if it shares a bucket in ANY of ``n_tables``
    independent plane sets (band-OR: per-pair miss probability is
    (1-(1-theta/pi)^P)^T — for cosine >=0.99 and 8x6 it is ~1e-6);
    candidates are verified with the exact float64 cosine, so there are
    never false positives.  One coarse shuffle moves each (table,
    bucket, vector) row once (the perf rule: never groupby a
    high-cardinality bucket key directly); colliding buckets are found
    vectorized inside each task and verified with one matmul per
    bucket.

    Degenerate buckets (> ``bucket_cap`` members, e.g. a near-identical
    page flood) do full pairwise on the first cap members and CHAIN the
    rest (each member paired with its predecessor) instead of silently
    dropping them — connectivity for downstream clustering is
    preserved at O(B) cost, and a warning with the bucket size is
    logged.  At 10^12-vector scale, grow ``n_planes`` with log2(N) so
    expected bucket size stays bounded; the coarse bucket count grows
    with the cluster (``joins._auto_num_buckets``).
    """
    import logging
    import zlib

    from bb_ocr_ray.stages.joins import _auto_num_buckets

    coarse_buckets = _auto_num_buckets()

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return pd.DataFrame({"coarse": pd.Series([], dtype="int64"),
                                 "table": pd.Series([], dtype="int64"),
                                 "bucket": pd.Series([], dtype="int64"),
                                 id_col: pd.Series([], dtype="int64"),
                                 "vec": pd.Series([], dtype="object")})
        mat = _normalize(_to_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy()
        frames = []
        for t in range(n_tables):
            buckets = lsh_bucket_ids(mat, n_planes, mat.shape[1], table=t)
            coarse = np.fromiter(
                (zlib.crc32(b"%d:%d" % (t, b)) % coarse_buckets
                 for b in buckets), dtype=np.int64, count=len(buckets))
            frames.append(pd.DataFrame(
                {"coarse": coarse,
                 "table": np.full(len(ids), t, dtype=np.int64),
                 "bucket": buckets, id_col: ids, "vec": list(mat)}))
        return pd.concat(frames, ignore_index=True)

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        dup = group[group.duplicated(["table", "bucket"], keep=False)]
        for _, g in dup.groupby(["table", "bucket"], sort=True):
            order = np.argsort(g[id_col].to_numpy(), kind="stable")
            ids = g[id_col].to_numpy()[order]
            mat = np.asarray(list(g["vec"]))[order]
            head_n = min(len(ids), bucket_cap)
            if len(ids) > bucket_cap:
                logging.getLogger(__name__).warning(
                    "embedding_near_dups: bucket of %d members exceeds "
                    "cap %d; chaining the tail", len(ids), bucket_cap)
            sims = mat[:head_n] @ mat[:head_n].T
            ii, jj = np.where(np.triu(sims >= threshold, k=1))
            out_a.extend(ids[ii])
            out_b.extend(ids[jj])
            # chain the over-cap tail: consecutive pairs keep the
            # bucket connected without O(B^2) work
            for i in range(head_n, len(ids)):
                if float(mat[i - 1] @ mat[i]) >= threshold:
                    out_a.append(ids[i - 1])
                    out_b.append(ids[i])
        return pd.DataFrame(
            {"id_a": pd.Series(out_a, dtype="int64"),
             "id_b": pd.Series(out_b, dtype="int64")}
        )

    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.dedup import dedup_pairs

    # the explode multiplies the vectors by n_tables: it stays on the
    # workers
    pairs = sizing.fold_buckets(vectors_ds, explode, "coarse", verify,
                                stamp_here=False)

    return dedup_pairs(pairs)


# ---------------------------------------------------------------------------
# IVF variant (scale path #2): coarse quantizer + inverted lists
# ---------------------------------------------------------------------------
def kmeans_fit(vectors_ds, k: int = 16, iters: int = 5,
               id_col: str = "vec_id", vec_col: str = "embedding") -> np.ndarray:
    """Deterministic distributed Lloyd iterations on normalized vectors.

    Init: the k rows with the smallest ids (fixed, seedless).  Each
    iteration is ONE map_batches pass emitting per-batch partial sums
    (sum_vec, count per centroid) reduced on the driver — the classic
    mergeable-aggregate shape; no shuffle of the vectors themselves.
    """
    import ray

    init = vectors_ds.map_batches(
        lambda b: b.nsmallest(k, id_col), batch_format="pandas"
    ).to_pandas().nsmallest(k, id_col)
    centroids = _normalize(_to_matrix(init[vec_col]))

    for _ in range(iters):
        cref = ray.put(centroids)

        def partials(batch: pd.DataFrame) -> pd.DataFrame:
            if batch.empty:
                return pd.DataFrame(
                    {"centroid": pd.Series([], dtype="int64"),
                     "vec_sum": pd.Series([], dtype="object"),
                     "count": pd.Series([], dtype="int64")})
            c = ray.get(cref)                       # (k, d)
            mat = _normalize(_to_matrix(batch[vec_col]))
            assign = np.argmax(mat @ c.T, axis=1)
            rows = []
            for ci in range(c.shape[0]):
                mask = assign == ci
                if mask.any():
                    rows.append({"centroid": ci,
                                 "vec_sum": mat[mask].sum(axis=0),
                                 "count": int(mask.sum())})
            return pd.DataFrame(rows) if rows else pd.DataFrame(
                {"centroid": pd.Series([], dtype="int64"),
                 "vec_sum": pd.Series([], dtype="object"),
                 "count": pd.Series([], dtype="int64")})

        parts = vectors_ds.map_batches(partials, batch_format="pandas").to_pandas()
        new_c = centroids.copy()
        for ci, g in parts.groupby("centroid"):
            total = np.sum(np.stack(g["vec_sum"].to_numpy()), axis=0)
            n = g["count"].sum()
            if n > 0:
                new_c[int(ci)] = total / n
        centroids = _normalize(new_c)
    return centroids


def ivf_topk_exact(vectors_ds, query_ids, k: int = 5, n_lists: int = 16,
                   n_probe: int = 4, id_col: str = "vec_id",
                   vec_col: str = "embedding", eps: float = 1e-9):
    """EXACT top-k through IVF pruning (the oracle-able scale path).

    Standard IVF probing is approximate; this variant refines it to an
    exact result with the triangle inequality, so its output equals
    brute force and is checkable against the same SQL oracle as
    ann_topk:

    1. Pass A streams the corpus once, emitting BOTH per-cluster
       radii (max Euclidean distance of a member to its centroid, on
       normalized vectors) and the usual n_probe-list candidate top-k
       per query.  A small groupby reduces each to driver size.
    2. On the driver, each query's kth-best candidate score s_k lower-
       bounds the true kth best, so any cluster whose best POSSIBLE
       member cosine — cos_max = 1 - lb^2/2 with
       lb = max(0, ||q - c|| - r_c) — falls below s_k - eps provably
       contributes nothing and is pruned.  ``eps`` absorbs float64
       noise conservatively (less pruning, never a wrong prune).
    3. Pass B rescans ONLY the unpruned, unprobed lists (usually a
       small fraction: the probe candidates set a tight s_k) and the
       final reduce merges both candidate streams.

    Recall is 1 by construction; what the data controls is how much of
    pass B survives pruning.  Returns (query_id, rank, neighbor_id),
    integer-only like ann_topk."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    centroids = kmeans_fit(vectors_ds, k=n_lists)
    cref = ray.put(centroids)

    qset = sorted(set(int(q) for q in query_ids))
    # an Arrow filter keeps the input's column types in every block,
    # the many that hold no query row among them
    qrows = vectors_ds.map_batches(
        lambda t: t.filter(pc.is_in(t[id_col], pa.array(qset, t[id_col].type))),
        batch_format="pyarrow").to_pandas().sort_values(id_col)
    qids = [int(x) for x in qrows[id_col]]
    qmat = _normalize(_to_matrix(qrows[vec_col]))
    probe = np.argsort(-(qmat @ centroids.T), axis=1)[:, :n_probe]
    probe_sets = {qid: frozenset(int(x) for x in probe[i])
                  for i, qid in enumerate(qids)}
    qref = ray.put((qids, qmat, probe_sets))

    def pass_a(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"kind": [], "query_id": [], "neighbor_id": [], "score": []}
        if not batch.empty:
            c = ray.get(cref)
            qids_, qm, probes = ray.get(qref)
            mat = _normalize(_to_matrix(batch[vec_col]))
            ids = batch[id_col].to_numpy()
            sims_c = mat @ c.T
            assign = np.argmax(sims_c, axis=1)
            # kind=1: per-cluster radius partials (query_id carries the
            # centroid index) — fused into this pass so the corpus
            # streams once, not twice
            best = sims_c[np.arange(len(ids)), assign]
            dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * best))
            for ci in np.unique(assign):
                out["kind"].append(1)
                out["query_id"].append(int(ci))
                out["neighbor_id"].append(-1)
                out["score"].append(float(dist[assign == ci].max()))
            # kind=0: candidate partial top-k from the probed lists
            sims = qm @ mat.T
            for qi, qid in enumerate(qids_):
                mask = np.isin(assign, list(probes[qid])) & (ids != qid)
                if not mask.any():
                    continue
                cand = np.where(mask)[0]
                order = np.lexsort((ids[cand], -sims[qi, cand]))[:k]
                for j in cand[order]:
                    out["kind"].append(0)
                    out["query_id"].append(qid)
                    out["neighbor_id"].append(int(ids[j]))
                    out["score"].append(float(sims[qi, j]))
        return pd.DataFrame(
            {"kind": pd.Series(out["kind"], dtype="int8"),
             "query_id": pd.Series(out["query_id"], dtype="int64"),
             "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
             "score": pd.Series(out["score"], dtype="float64")})

    def reduce_a(group: pd.DataFrame) -> pd.DataFrame:
        if int(group["kind"].iloc[0]) == 1:       # radius: max over batches
            top = group.nlargest(1, "score")
            return top[["kind", "query_id", "neighbor_id", "score"]]
        rows = heapq.nsmallest(k, group.itertuples(index=False),
                               key=lambda r: (-r.score, r.neighbor_id))
        return pd.DataFrame(
            {"kind": pd.Series([0] * len(rows), dtype="int8"),
             "query_id": pd.Series([r.query_id for r in rows], dtype="int64"),
             "neighbor_id": pd.Series([r.neighbor_id for r in rows],
                                      dtype="int64"),
             "score": pd.Series([r.score for r in rows], dtype="float64")})

    a = (vectors_ds.map_batches(pass_a, batch_format="pandas")
         .groupby(["kind", "query_id"])
         .map_groups(reduce_a, batch_format="pandas")
         .to_pandas())                    # Q*k + n_lists rows: driver-sized

    radii = np.zeros(n_lists)
    rad_rows = a[a["kind"] == 1]
    radii[rad_rows["query_id"].to_numpy()] = rad_rows["score"].to_numpy()
    cand = a[a["kind"] == 0][["query_id", "neighbor_id", "score"]]

    # prune: clusters whose best possible cosine can't reach the kth
    # candidate score
    qc_dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * (qmat @ centroids.T)))
    rescan_sets = {}
    for qi, qid in enumerate(qids):
        scores = cand.loc[cand["query_id"] == qid, "score"]
        s_k = (float(scores.min())   # kth best = min of the k kept
               if len(scores) >= k else float("-inf"))
        lb = np.maximum(0.0, qc_dist[qi] - radii)
        cos_max = 1.0 - lb * lb / 2.0
        keep = {int(ci) for ci in range(n_lists)
                if cos_max[ci] >= s_k - eps} - probe_sets[qid]
        if keep:
            rescan_sets[qid] = frozenset(keep)

    def final_reduce(group: pd.DataFrame) -> pd.DataFrame:
        top = heapq.nsmallest(k, group.itertuples(index=False),
                              key=lambda r: (-r.score, r.neighbor_id))
        return pd.DataFrame(
            {"query_id": pd.Series([t.query_id for t in top], dtype="int64"),
             "rank": pd.Series(range(1, len(top) + 1), dtype="int64"),
             "neighbor_id": pd.Series([t.neighbor_id for t in top],
                                      dtype="int64")})

    cand_ds = rd.from_pandas(cand.reset_index(drop=True))
    if not rescan_sets:
        return cand_ds.groupby("query_id").map_groups(
            final_reduce, batch_format="pandas")

    rref = ray.put((qids, qmat, rescan_sets))

    def pass_b(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"query_id": [], "neighbor_id": [], "score": []}
        if not batch.empty:
            c = ray.get(cref)
            qids_, qm, rescan = ray.get(rref)
            mat = _normalize(_to_matrix(batch[vec_col]))
            ids = batch[id_col].to_numpy()
            assign = np.argmax(mat @ c.T, axis=1)
            sims = qm @ mat.T
            for qi, qid in enumerate(qids_):
                lists = rescan.get(qid)
                if not lists:
                    continue
                mask = np.isin(assign, list(lists)) & (ids != qid)
                if not mask.any():
                    continue
                cand_i = np.where(mask)[0]
                order = np.lexsort((ids[cand_i], -sims[qi, cand_i]))[:k]
                for j in cand_i[order]:
                    out["query_id"].append(qid)
                    out["neighbor_id"].append(int(ids[j]))
                    out["score"].append(float(sims[qi, j]))
        return pd.DataFrame(
            {"query_id": pd.Series(out["query_id"], dtype="int64"),
             "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
             "score": pd.Series(out["score"], dtype="float64")})

    b = vectors_ds.map_batches(pass_b, batch_format="pandas")
    # A probed and B rescanned DISJOINT list sets, so no (query,
    # neighbor) appears twice — the merge is a plain union
    return cand_ds.union(b).groupby("query_id").map_groups(
        final_reduce, batch_format="pandas")
