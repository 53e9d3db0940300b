"""Layout branch: bounding-box region ordering (the PDF/scan path).

Re-expresses the north_star's "PDF/layout branch using reading-order
sort of detected blocks" over the reference's (x, y, w, h) contour
boxes (``enhanced_extractor.py:289-337``).  PDF *decoding* is
unavailable offline (like image codecs, SURVEY.md M9); the layout math
below is the real, tested component a decoder would feed.

Two reading-order strategies:

  - ``banded_order``: rows are bands of height ``band_h``; order =
    (page, band, x).  Simple, SQL-mirrorable (the oracle uses
    ``floor(y / band_h)``), right for single-column scans.
  - ``xy_cut_order``: recursive XY-cut (alternate horizontal/vertical
    whitespace-gap splits), the classic document-layout algorithm —
    handles multi-column pages where banding interleaves columns.
    Deterministic: splits at the largest gap, ties broken by position.
"""

from __future__ import annotations


def banded_order(boxes: list, band_h: int = 32) -> list:
    """Indices of boxes in banded reading order: (y // band_h, x, y, idx)."""
    keyed = [
        ((b[1] // band_h, b[0], b[1], i)) for i, b in enumerate(boxes)
    ]
    return [k[3] for k in sorted(keyed)]


def _gaps(intervals: list) -> list:
    """Maximal gaps between sorted (start, stop) coverage intervals:
    list of (gap_size, gap_mid)."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [list(intervals[0])]
    for s, e in intervals[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    out = []
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        out.append((s2 - e1, (e1 + s2) // 2))
    return out


def xy_cut_order(boxes: list, min_gap: int = 8) -> list:
    """Indices of boxes in recursive XY-cut reading order.

    At each level, find the largest whitespace gap ≥ min_gap — first
    trying horizontal cuts (gap in y coverage), then vertical (gap in x
    coverage) — split, and recurse top/left first.  Leaves are ordered
    (y, x, idx).  Fully deterministic.
    """
    idxs = list(range(len(boxes)))

    def rec(ids: list) -> list:
        if len(ids) <= 1:
            return ids
        # candidate cuts on BOTH axes; take the widest whitespace gap
        # (ties prefer a horizontal cut — reading order is top-down)
        candidates = []
        for axis_pref, axis in ((0, "y"), (1, "x")):
            if axis == "y":
                iv = [(boxes[i][1], boxes[i][1] + boxes[i][3]) for i in ids]
            else:
                iv = [(boxes[i][0], boxes[i][0] + boxes[i][2]) for i in ids]
            for gap, mid in _gaps(iv):
                if gap >= min_gap:
                    candidates.append((-gap, axis_pref, mid, axis))
        for _, _, cut, axis in sorted(candidates):
            if axis == "y":
                lo = [i for i in ids if boxes[i][1] + boxes[i][3] <= cut]
                hi = [i for i in ids if boxes[i][1] + boxes[i][3] > cut]
            else:
                lo = [i for i in ids if boxes[i][0] + boxes[i][2] <= cut]
                hi = [i for i in ids if boxes[i][0] + boxes[i][2] > cut]
            if lo and hi:
                return rec(lo) + rec(hi)
        return sorted(ids, key=lambda i: (boxes[i][1], boxes[i][0], i))

    return rec(idxs)


def order_blocks(boxes: list, strategy: str = "xy_cut", **kw) -> list:
    if strategy == "banded":
        return banded_order(boxes, **kw)
    if strategy == "xy_cut":
        return xy_cut_order(boxes, **kw)
    raise ValueError(f"unknown strategy {strategy!r}")
