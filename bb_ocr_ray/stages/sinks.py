"""Sinks: the audit-row flattener.

The reference's Accept/Reject sinks
(``pipeline_demo/i2j_ui/app/main.py:1107-1153``: accepted JSON to
data/accepted/, rejects to data/rejected/) are ONE dataset with a
``decision`` column written via ``write_parquet(partition_cols=...)``
(``pipelines/lifecycle.run_lifecycle``) — the decision IS the directory
layout, no per-record file dance.  This module re-expresses the rest
of the reference's sink layer:
  - Google Sheets audit appender (``google_sheets.py:111-203``:
    struct -> 16-col flat row, authors list -> CSV string, year regex
    from date) -> a vectorized flattening map + any tabular sink.
"""

from __future__ import annotations

import pandas as pd

from bb_ocr_ray.functions.scalars import extract_year


# 16-column audit header, mirroring the reference's sheet row shape
# (google_sheets.py:80-97) with web-pipeline fields where book fields
# don't apply.
AUDIT_COLUMNS = [
    "url", "domain", "title", "authors_csv", "publisher",
    "publication_date", "year", "isbn_13", "isbn_10", "language",
    "n_chars", "n_blocks", "status", "error", "decision", "ts",
]


def flatten_metadata(batch: pd.DataFrame) -> pd.DataFrame:
    """Metadata struct -> flat audit row (S8/M13 analog).

    authors list -> comma-joined string (google_sheets.py:129-134);
    year extracted from publication_date by regex (:148-156)."""
    out = pd.DataFrame(index=batch.index)
    for col in AUDIT_COLUMNS:
        if col == "authors_csv":
            if "authors_csv" in batch.columns:  # pre-flattened (sink read-back)
                out[col] = batch["authors_csv"]
                continue
            src = batch.get("authors")
            out[col] = (
                src.map(lambda a: ", ".join(a)
                        if isinstance(a, (list, tuple)) and len(a) else "")
                if src is not None else ""
            )
        elif col == "year":
            src = batch.get("publication_date")
            out[col] = (
                src.map(lambda d: extract_year(d) if isinstance(d, str) else None)
                if src is not None else None
            )
        elif col == "n_chars":
            out[col] = batch["text"].str.len() if "text" in batch else 0
        elif col == "n_blocks":
            out[col] = batch.get("n_blocks_kept", 0)
        elif col in batch.columns:
            out[col] = batch[col]
        else:
            out[col] = None
    return out
