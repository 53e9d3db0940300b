"""The extraction stage: a stateless map_batches over Arrow batches.

The reference loads its OCR model once per worker (T1,
``enhanced_extractor.py:97-98, 143-154``).  The HTML kernel has no such
state: everything it needs (compiled regexes in normalize/segment) is
built at module import, which Ray's prestarted workers share, so plain
tasks carry it for free and no actor pool is needed.

The per-row Python loop inside the batch is inherent — HTML parsing is
a per-document operation, not a columnar kernel — so the
vectorization axis here is *rows across tasks* (SURVEY.md §4).  Each
page's record is folded into flat per-batch column lists as soon as it
is extracted, so its span and block tuples die with the page instead of
living (and being walked by the cyclic GC) until the batch ends.
"""

from __future__ import annotations

import pyarrow as pa

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.extract import extract_page
from bb_ocr_ray.schema import BLOCK_STRUCT, EXTRACTED_SCHEMA, SPAN_STRUCT

_SCALARS = ("url", "domain", "text", "n_blocks_kept", "html_bytes", "status", "error")


def _list_array(offsets: list, children: list, struct: pa.StructType) -> pa.ListArray:
    values = pa.StructArray.from_arrays(
        [pa.array(c, f.type) for c, f in zip(children, struct)], fields=list(struct))
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values,
                                    type=pa.list_(struct))


def extract_batch(batch: pa.Table, cfg: ExtractConfig = DEFAULT_EXTRACT) -> pa.Table:
    """pages batch -> extracted batch: one output row per input row."""
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    scalars = tuple([] for _ in _SCALARS)
    span_cols = ([], [])                       # start, stop
    block_cols = tuple([] for _ in BLOCK_STRUCT)
    steps: list = []
    span_offsets, block_offsets, step_offsets = [0], [0], [0]
    for u, h in zip(urls, htmls):
        r = extract_page(u, h, cfg)
        for col, name in zip(scalars, _SCALARS):
            col.append(r[name])
        # zip(*rows) transposes a page's tuples; zip with the column lists
        # keeps the first len(cols) fields (a block's text is not stored)
        for col, vals in zip(span_cols, zip(*r["spans"])):
            col.extend(vals)
        for col, vals in zip(block_cols, zip(*r["blocks"])):
            col.extend(vals)
        steps.extend(r["steps_applied"])
        span_offsets.append(len(span_cols[0]))
        block_offsets.append(len(block_cols[0]))
        step_offsets.append(len(steps))
    arrays = {name: pa.array(col, EXTRACTED_SCHEMA.field(name).type)
              for name, col in zip(_SCALARS, scalars)}
    arrays["spans"] = _list_array(span_offsets, span_cols, SPAN_STRUCT)
    arrays["blocks"] = _list_array(block_offsets, block_cols, BLOCK_STRUCT)
    arrays["steps_applied"] = pa.ListArray.from_arrays(
        pa.array(step_offsets, pa.int32()), pa.array(steps, pa.string()))
    return pa.Table.from_arrays([arrays[f.name] for f in EXTRACTED_SCHEMA],
                                schema=EXTRACTED_SCHEMA)
