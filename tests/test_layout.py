"""Layout-branch tests: the reading-order strategies."""

from bb_ocr_ray.kernel.layout import banded_order, xy_cut_order


def test_banded_order_rows_then_x():
    # two rows of two boxes, given out of order
    boxes = [(200, 10, 50, 20),   # row0 right
             (10, 50, 50, 20),    # row1 left
             (10, 12, 50, 20),    # row0 left
             (200, 52, 50, 20)]   # row1 right
    assert banded_order(boxes, band_h=32) == [2, 0, 1, 3]


def test_xy_cut_two_columns_not_interleaved():
    # classic 2-column page: banding would interleave the columns;
    # XY-cut must read all of column A (left) before column B (right)
    col_a = [(10, y, 100, 20) for y in range(0, 200, 30)]
    col_b = [(200, y, 100, 20) for y in range(0, 200, 30)]
    boxes = []
    for a, b in zip(col_a, col_b):    # interleave input order
        boxes.append(b)
        boxes.append(a)
    order = xy_cut_order(boxes, min_gap=8)
    xs = [boxes[i][0] for i in order]
    # all left-column boxes first, top-to-bottom, then right column
    split = xs.index(200)
    assert all(x == 10 for x in xs[:split])
    assert all(x == 200 for x in xs[split:])
    ys_left = [boxes[i][1] for i in order[:split]]
    assert ys_left == sorted(ys_left)


def test_xy_cut_header_spanning_columns():
    # full-width header above two columns: header first, then col A, col B
    header = (10, 0, 290, 20)
    col_a = [(10, 40 + y, 100, 20) for y in range(0, 90, 30)]
    col_b = [(200, 40 + y, 100, 20) for y in range(0, 90, 30)]
    boxes = [col_b[0], header, col_a[0], col_b[1], col_a[1], col_a[2], col_b[2]]
    order = xy_cut_order(boxes, min_gap=8)
    assert boxes[order[0]] == header
    xs = [boxes[i][0] for i in order[1:]]
    split = xs.index(200)
    assert all(x == 10 for x in xs[:split]) and all(x == 200 for x in xs[split:])


def test_xy_cut_deterministic():
    boxes = [(i * 37 % 300, i * 53 % 400, 40, 18) for i in range(40)]
    assert xy_cut_order(boxes) == xy_cut_order(boxes)


def test_reading_order_stage_matches_kernel(ray_session):
    import pandas as pd
    import ray.data as rd

    from bb_ocr_ray.stages.layout_stage import reading_order_stage

    rows = []
    for page in range(5):
        for item in range(6):
            rows.append({"page": page, "item_id": item,
                         "x": (item * 97) % 280, "y": (item * 61) % 350,
                         "w": 40, "h": 18})
    ds = rd.from_items(rows)
    out = reading_order_stage(ds, strategy="xy_cut").to_pandas()
    assert len(out) == len(rows)
    for page, g in out.groupby("page"):
        ranks = sorted(g["reading_rank"])
        assert ranks == list(range(1, len(g) + 1))
