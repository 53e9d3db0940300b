"""Layout stage: reading-order sort of detected boxes, per page.

The Ray-side host for kernel/layout: pages arrive as grouped box rows
(one shuffle on page_id co-locates a page's regions), reading order is
computed inside the group, and downstream emission reuses the same
join-with-spans kernel as the HTML path — the two branches (DOM blocks
and layout boxes) converge on the same "ordered regions -> text"
contract, exactly the reference's structure (segmentation -> region
ordering -> OCR join).
"""

from __future__ import annotations

import pandas as pd

from bb_ocr_ray.kernel.layout import order_blocks


def reading_order_stage(boxes_ds, page_col: str = "page",
                        strategy: str = "banded", **strategy_kw):
    """Dataset of box rows (page, item_id, x, y, w, h) -> same rows +
    ``reading_rank`` (1-based within page).  One coarse fold on
    page_col (``sizing.fold_buckets``: on the driver when the boxes
    fit, else one shuffle); the per-page ordering is pure kernel
    code."""
    from bb_ocr_ray.stages import sizing
    from bb_ocr_ray.stages.joins import _auto_num_buckets

    # Coarse-bucket fold: grouping on raw page ids means one python
    # call per PAGE (Ray grouped ops pay per-group overhead); instead
    # shuffle once on hash(page) % buckets and iterate pages vectorized
    # inside each task.  Same output, ~5x faster at 150k pages.
    coarse_buckets = _auto_num_buckets()

    def add_coarse(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["__coarse"] = (
            batch[page_col].astype("uint64") * 2654435761 % (1 << 32)
        ) % coarse_buckets
        return batch

    def per_bucket_banded(group: pd.DataFrame) -> pd.DataFrame:
        # banded order is a pure sort key — rank every page in the
        # bucket with one vectorized sort + cumcount, no per-page python
        band_h = strategy_kw.get("band_h", 32)
        g = group.copy()
        g["__band"] = g["y"] // band_h
        g = g.sort_values([page_col, "__band", "x", "y", "item_id"],
                          kind="mergesort")
        g["reading_rank"] = (g.groupby(page_col).cumcount() + 1).astype("int64")
        return g.drop(columns=["__coarse", "__band"])

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in group.groupby(page_col, sort=True):
            g = g.sort_values("item_id", kind="mergesort").reset_index(drop=True)
            boxes = list(zip(g["x"], g["y"], g["w"], g["h"]))
            order = order_blocks(boxes, strategy=strategy, **strategy_kw)
            rank = [0] * len(order)
            for r, idx in enumerate(order):
                rank[idx] = r + 1
            g["reading_rank"] = pd.Series(rank, dtype="int64")
            out.append(g)
        return pd.concat(out, ignore_index=True).drop(columns=["__coarse"])

    bucket_fn = per_bucket_banded if strategy == "banded" else per_bucket
    return sizing.fold_buckets(boxes_ds, add_coarse, "__coarse", bucket_fn)
