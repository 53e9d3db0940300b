"""Provider fan-out lookup — the reference's pricing aggregator shape.

Re-expresses ``pipeline_demo/pricing_api/pricing_api/core/aggregator.py``:
  - N providers queried per record, results merged (:46-59);
  - per-provider errors are DATA, not exceptions (:53-56);
  - offers deduplicated by a seen-key (:61-69), the least payload
    winning a repeat where the reference keeps the first seen;
  - provider plugin surface = any callable with the lookup signature
    (:10-15; stubs as templates amazon_stub.py:5-17).

Offline there is no network, so a provider here is a pure batch
function ``(records: DataFrame) -> offers DataFrame`` — typically a
lookup against a broadcast reference table (the Google-Books analog,
J2) or a scored fuzzy scan (the AbeBooks analog, J3).  The fan-out
itself is one map_batches: each task runs every provider on its batch,
tags provider/status, and unions results — bounded concurrency comes
from the task pool instead of asyncio timeouts.
"""

from __future__ import annotations

import pandas as pd

OFFER_COLUMNS = ["record_key", "provider", "listing_id", "amount", "status",
                 "error"]


def make_stub_provider(name: str):
    """Always returns no offers — the Amazon/Biblio stub template."""

    def provider(records: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({c: pd.Series([], dtype="object")
                             for c in ("record_key", "listing_id", "amount")})

    provider.__name__ = name
    return provider


def provider_fanout(records_ds, providers: dict, key_col: str,
                    per_provider_timeout: float | None = None):
    """Fan every record batch out to all providers; union tagged offers.

    Returns a Dataset with OFFER_COLUMNS; a provider that raises yields
    one error row per batch (error-as-data) instead of failing the task.

    ``per_provider_timeout`` mirrors the reference's 8-second
    per-provider budget (``aggregator.py:27-28,48``): providers run
    concurrently in a thread pool with one shared start, and each gets
    ``per_provider_timeout`` seconds from that start before its result
    is abandoned and replaced with timeout-as-data rows — one slow
    provider can never stall the record.  (Like the reference's
    asyncio cancel, an abandoned synchronous provider keeps running in
    the background thread until it finishes; its result is simply
    discarded.)  ``None`` keeps the serial in-task loop — correct
    offline where providers are pure pandas functions.
    """

    def _error_rows(batch, name, status, msg):
        return pd.DataFrame(
            {"record_key": batch[key_col],
             "provider": name, "status": status, "error": msg}
        )

    def fan(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        if per_provider_timeout is None:
            results = []
            for name, fn in providers.items():
                try:
                    results.append((name, fn(batch), None, "ok"))
                except Exception as exc:  # noqa: BLE001 — error-as-data
                    results.append(
                        (name, None, f"{type(exc).__name__}: {exc}", "error"))
        else:
            import concurrent.futures as cf
            import time

            pool = cf.ThreadPoolExecutor(max_workers=max(1, len(providers)))
            deadline = time.monotonic() + per_provider_timeout
            futs = {name: pool.submit(fn, batch)
                    for name, fn in providers.items()}
            results = []
            for name, fut in futs.items():
                try:
                    offers = fut.result(
                        timeout=max(0.0, deadline - time.monotonic()))
                    results.append((name, offers, None, "ok"))
                except cf.TimeoutError:
                    fut.cancel()
                    results.append(
                        (name, None,
                         f"timeout after {per_provider_timeout}s", "timeout"))
                except Exception as exc:  # noqa: BLE001 — error-as-data
                    results.append(
                        (name, None, f"{type(exc).__name__}: {exc}", "error"))
            # wait=False: blocking on shutdown would hand the slow
            # provider the very stall the budget exists to prevent
            pool.shutdown(wait=False)

        for name, offers, err, status in results:
            if err is None:
                outs.append(offers.assign(provider=name, status="ok"))
            else:
                outs.append(_error_rows(batch, name, status, err))
        # no empty frame and no all-NA column enters the concat (pandas
        # deprecates how those count toward a column's dtype): error
        # rows carry no offer columns, offers no error column, and a
        # column no part carries is added as None below
        merged = pd.concat([o for o in outs if len(o)] or outs[:1],
                           ignore_index=True)
        for c in OFFER_COLUMNS:
            if c not in merged.columns:
                merged[c] = None
        return merged[OFFER_COLUMNS]

    return records_ds.map_batches(fan, batch_format="pandas")


def dedup_offers(offers_ds):
    """Seen-key dedup per record: the key INCLUDES the provider
    ((provider, listing_id), aggregator.py:61-69) so intra-provider
    repeats collapse while distinct providers' offers — and their
    error rows (listing_id=None) — all survive.  Of a repeated key the
    least row wins, ordered on the payload after the key (``amount``,
    ``status``, ``error``): a shuffle does not keep arrival order, so
    "first seen" would let the driver and shuffle paths keep
    different rows."""

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        order = [c for c in OFFER_COLUMNS if c in batch.columns]
        return batch.sort_values(order, kind="mergesort").drop_duplicates(
            subset=["record_key", "provider", "listing_id"], keep="first")

    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    subset = ["record_key", "provider", "listing_id"]
    coarse_buckets = _auto_num_buckets()

    # record_key is row-cardinality: grouping on the composite key
    # directly pays Ray's per-group tax per offer.  Hash the composite
    # key into a bounded bucket count (one coarse fold: on the driver
    # when the offers fit, else one shuffle) and drop duplicates
    # in-task — same first-wins result, vectorized.
    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b = local(b)
        return b.assign(_kb=(pd.util.hash_pandas_object(
            b[subset].astype(str), index=False).to_numpy()
            % coarse_buckets).astype("int64"))

    def winners(g: pd.DataFrame) -> pd.DataFrame:
        return local(g).drop(columns=["_kb"])

    # no forced batch_size: the upstream is the provider fan-out
    # (expensive per row) — see stages/coarse.py on fusion
    return sizing.fold_buckets(offers_ds, pre, "_kb", winners)
