"""Streaming-shaped processing with incremental actor state.

Ray Data has no event-time windows/watermarks (SURVEY.md §2.9); batch
re-expressions (q_events_hourly / q_sessionize) cover the reference's
needs.  This module is the documented LAST-RESORT pattern from the
task brief — raw Ray actors holding mutable state — for semantics a
Dataset genuinely can't express: folding an event stream incrementally,
emitting results as windows close, without holding the stream in memory.

De-funneled design (round 3): the driver never iterates the stream.
``sessionize_watermark`` keeps arrival-order semantics (watermark +
allowed lateness: order genuinely matters), so each key-hash bucket
replays through ONE ``map_groups`` task that feeds its bucket actor
sequentially — per-actor FIFO per bucket, n_actors tasks in parallel,
no driver funnel (out-of-order simulations carry an explicit
``arrival_col`` sequence stamp through the same path).  The replay
task holds one bucket's (user_id, ts) pairs; bound that by growing
``n_actors`` with the cluster, while the ACTOR state stays O(open keys
+ lateness buffer).

NULL user_id rows are dropped at routing (repo convention for user
aggregates, same as q_sessionize).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

# Knuth multiplicative hash over the int64 user id — vectorized bucket
# routing (any deterministic spread works: state is per-user, the
# bucket only picks WHICH actor owns the user).
_KNUTH = np.uint64(2654435761)


def _clean(batch: pd.DataFrame):
    """batch -> (int64 users, int64 epoch-us), NULL users dropped."""
    b = batch.dropna(subset=["user_id"])
    users = b["user_id"].to_numpy()
    if users.dtype.kind != "i":  # float64 when any raw block held a NULL
        users = users.astype(np.int64)
    ts = b["ts"].astype("datetime64[us]").to_numpy().astype(np.int64)
    return users, ts


def _buckets_of(users: np.ndarray, n_actors: int) -> np.ndarray:
    return ((users.astype(np.uint64) * _KNUTH) % np.uint64(n_actors)).astype(
        np.int64)


@ray.remote
class WatermarkSessionActor:
    """Gap-sessionizer with event-time watermark + allowed lateness.

    Events may arrive OUT of order.  Watermark = max event ts seen -
    ``allowed_lateness``.  An arriving event older than the watermark
    is LATE: counted and dropped (Flink-style default), never folded —
    so results are deterministic for a given arrival order.  Events at
    or above the watermark buffer per user; once the watermark passes
    them they are folded in ts order, which is safe because nothing
    older can arrive anymore.  State: O(open keys + buffered in-flight
    events within the lateness horizon), never O(stream)."""

    def __init__(self, gap_seconds: float, allowed_lateness: float):
        self.gap = gap_seconds
        self.lateness = allowed_lateness
        self.max_ts = float("-inf")
        self.buf: dict = {}     # user -> list[ts] awaiting watermark
        self.state: dict = {}   # user -> [last_ts, n_sessions, n_events]
        self.n_late = 0

    def _fold(self, u, ts_sorted):
        rec = self.state.get(u)
        for t in ts_sorted:
            if rec is None:
                rec = self.state[u] = [t, 1, 1]
            else:
                if (t - rec[0]) > self.gap:
                    rec[1] += 1
                rec[0] = t
                rec[2] += 1

    def ingest(self, users, ts_values) -> int:
        for u, t in zip(users, ts_values):
            # per-EVENT watermark: lateness is judged against the max
            # ts seen so far, not a per-chunk snapshot (chunk-boundary
            # watermarks would make late-ness depend on batch size)
            if t < self.max_ts - self.lateness:
                self.n_late += 1
                continue
            self.buf.setdefault(u, []).append(t)
            if t > self.max_ts:
                self.max_ts = t
        # advance the watermark once per chunk and flush ripe events
        wm = self.max_ts - self.lateness
        for u, pend in list(self.buf.items()):
            ripe = sorted(x for x in pend if x <= wm)
            if ripe:
                self._fold(u, ripe)
                rest = [x for x in pend if x > wm]
                if rest:
                    self.buf[u] = rest
                else:
                    del self.buf[u]
        return self.n_late

    def finalize(self) -> pd.DataFrame:
        for u, pend in sorted(self.buf.items()):
            self._fold(u, sorted(pend))
        self.buf.clear()
        return pd.DataFrame(
            {"user_id": pd.Series(list(self.state), dtype="int64"),
             "n_sessions": pd.Series([v[1] for v in self.state.values()],
                                     dtype="int64"),
             "n_events": pd.Series([v[2] for v in self.state.values()],
                                   dtype="int64"),
             "n_late": pd.Series([self.n_late] * len(self.state),
                                 dtype="int64")}
        )


def sessionize_watermark(events_ds, gap_seconds: float = 1800.0,
                         allowed_lateness: float = 0.0, n_actors: int = 4,
                         arrival_col: str | None = None):
    """Watermark/late-data sessionization over a (possibly out-of-order)
    event stream.  Returns (per-user DataFrame, total late-dropped).

    Arrival order MATTERS here (that is the semantics under test), so
    each key-hash bucket replays through exactly one map_groups task
    that feeds the bucket's actor sequentially — per-actor FIFO per
    bucket with n_actors-way parallelism, driver out of the data path.
    The default mode replays each bucket in ts order, in which case the
    result equals the batch groupby sessionization for ANY lateness
    (asserted by the q_sessionize_stream oracle) and nothing is late.

    Out-of-order arrival simulations pass ``arrival_col``: an int64
    per-event arrival sequence (what a real stream carries — a Kafka
    offset, an ingest stamp).  Each bucket then replays sorted by that
    column through the SAME distributed map_groups path; the per-actor
    event sequences are exactly what a global in-arrival-order feed
    would deliver, because an actor only ever sees its own bucket's
    events and their relative arrival order is preserved.  (This
    replaced the r3 ``presorted=True`` driver loop — dataset row order
    across parallel tasks is not Ray-preservable, so the arrival
    stamp is the honest scale contract.)"""
    actors = [WatermarkSessionActor.remote(gap_seconds, allowed_lateness)
              for _ in range(n_actors)]

    order_col = arrival_col if arrival_col is not None else "ts_us"

    def stamp(batch: pd.DataFrame) -> pd.DataFrame:
        users, ts = _clean(batch)
        out = pd.DataFrame({
            "user_id": pd.Series(users, dtype="int64"),
            "ts_us": pd.Series(ts, dtype="int64"),
            "bucket": pd.Series(_buckets_of(users, n_actors),
                                dtype="int64")})
        if arrival_col is not None:
            seq = batch.dropna(subset=["user_id"])[arrival_col]
            out[arrival_col] = seq.astype("int64").to_numpy()
        return out

    def replay(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(order_col, kind="mergesort")
        a = actors[int(g["bucket"].iloc[0])]
        n = 0
        for lo in range(0, len(g), 4096):
            chunk = g.iloc[lo:lo + 4096]
            # sequential: the bucket's stream stays FIFO at the actor
            ray.get(a.ingest.remote(
                chunk["user_id"].tolist(),
                (chunk["ts_us"].to_numpy() / 1e6).tolist()))
            n += len(chunk)
        return pd.DataFrame({"n": pd.Series([n], dtype="int64")})

    (events_ds.map_batches(stamp, batch_format="pandas")
     .groupby("bucket")
     .map_groups(replay, batch_format="pandas")
     .sum("n"))

    parts = ray.get([a.finalize.remote() for a in actors])
    n_late = int(sum(p["n_late"].iloc[0] if len(p) else 0 for p in parts))
    out = pd.concat([p[["user_id", "n_sessions", "n_events"]] for p in parts],
                    ignore_index=True)
    return out.sort_values("user_id").reset_index(drop=True), n_late
