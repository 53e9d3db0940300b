"""Arrow schemas for every table the engine produces or consumes.

The reference declares its output shape as JSON Schema constants
(``pipeline_demo/extractor/enhanced_extractor.py:57-92``) and validates
records post-hoc; here the schema is an Arrow schema enforced by
construction in every ``map_batches`` stage (SURVEY.md §1.4).
"""

from __future__ import annotations

import pyarrow as pa

# Codec of every Parquet file the engine writes, at five sites: the
# resumable runners' sink, the hash index build and update, and the cli
# query and dedup-index outputs.
# Extracted text is most of each row's bytes, and zstd at pyarrow's
# default level stores it far smaller than the snappy default (perfbench
# resumable-small-pages, 4 cores: 181.3 -> 110.8 bytes/doc with
# cpu_ms_per_doc unchanged).  Readers need no setting: pyarrow and
# DuckDB read the codec from each column chunk.
PARQUET_COMPRESSION = "zstd"

# ---------------------------------------------------------------------------
# Input: Common-Crawl-style web pages (BASELINE.json input_hint).
# ---------------------------------------------------------------------------
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),   # crawl-provided text; never used as ground truth
        ("lang", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Per-block features — the analog of the reference's bbox region list
# (``enhanced_extractor.py:289-337``: (x, y, w, h) contour boxes).  For web
# pages a "region" is a DOM text block with position = (tag_path, depth)
# and geometry = (text_density, link_density).
# ---------------------------------------------------------------------------
BLOCK_STRUCT = pa.struct(
    [
        ("block_id", pa.int32()),
        ("tag_path", pa.string()),
        ("depth", pa.int32()),
        ("text_density", pa.float64()),
        ("link_density", pa.float64()),
        ("is_content", pa.bool_()),
    ]
)

SPAN_STRUCT = pa.struct([("start", pa.int64()), ("stop", pa.int64())])

# ---------------------------------------------------------------------------
# Output: extracted main content, reading order, with char spans.
# ``text`` is the byte-identity target (north_rule); error-as-data columns
# follow the reference's fallback-record pattern
# (``enhanced_extractor.py:953-1002`` — never drop rows, never raise).
# ---------------------------------------------------------------------------
EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("domain", pa.string()),
        ("text", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("blocks", pa.list_(BLOCK_STRUCT)),
        ("n_blocks_kept", pa.int32()),
        ("html_bytes", pa.int64()),
        ("status", pa.string()),          # ok | empty | truncated | parse_error
        ("error", pa.string()),           # nullable detail
        ("steps_applied", pa.list_(pa.string())),  # audit trail (M1 analog)
    ]
)

# ---------------------------------------------------------------------------
# Per-domain aggregate (salted groupby output) — FIXTURES.md §4.
# ---------------------------------------------------------------------------
DOMAIN_STATS_SCHEMA = pa.schema(
    [
        ("domain", pa.string()),
        ("n_docs", pa.int64()),
        ("html_bytes", pa.int64()),
        ("extracted_chars", pa.int64()),
        ("n_errors", pa.int64()),
    ]
)
