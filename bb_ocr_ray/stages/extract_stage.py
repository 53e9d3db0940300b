"""The extraction stage: a stateless map_batches over Arrow batches.

The reference loads its OCR model once per worker (T1,
``enhanced_extractor.py:97-98, 143-154``).  The HTML kernel has no such
state: everything it needs (compiled regexes in normalize/segment) is
built at module import, which Ray's prestarted workers share, so plain
tasks carry it for free and no actor pool is needed.

The per-row Python loop inside the batch is inherent — HTML parsing is
a per-document operation, not a columnar kernel — so the
vectorization axis here is *rows across tasks* (SURVEY.md §4).
"""

from __future__ import annotations

import pyarrow as pa

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.extract import extract_page
from bb_ocr_ray.schema import EXTRACTED_SCHEMA


def extract_batch(batch: pa.Table, cfg: ExtractConfig = DEFAULT_EXTRACT) -> pa.Table:
    """pages batch -> extracted batch: one output row per input row."""
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    records = [extract_page(u, h, cfg) for u, h in zip(urls, htmls)]
    return pa.Table.from_pylist(records, schema=EXTRACTED_SCHEMA)
