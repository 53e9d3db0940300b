"""Deterministic synthetic Common-Crawl-style pages (FIXTURES.md §1).

Input shape per BASELINE.json input_hint:
``(url:string, warc_ts:timestamp, html:binary, text:string, lang:string)``.

The generator wraps each row of the driver's ``documents`` table in a
templated HTML page: head noise (title/style/script), link-dense nav +
header boilerplate, ONE article with the document text as content
paragraphs, a share box and a link-dense footer.  Because the template
is fixed, the golden extraction is *derivable*: the kernel must emit
exactly the whitespace-collapsed document text (repeated K times with
the block separator for megadoc rows) and drop every boilerplate
block.  That invariant is what the DuckDB oracle in ``__ray_entry__``
checks end-to-end.

Determinism rules (mirrored in oracle SQL — keep in sync):
  - domain: ``hot.example.com`` when ``doc_id % 10 < 3`` (a Zipf-ish hot
    domain holding ~30% of rows, exercising salted groupby), else
    ``site{doc_id % 10}.example.com``;
  - url: ``https://{domain}/doc-{doc_id}``;
  - warc_ts: ``2024-01-01T00:00:00Z + doc_id seconds`` (never now());
  - megadoc: ``doc_id % 101 == 0`` repeats the content paragraph K=8
    times (skew / repartition-by-size test at bench scale).
"""

from __future__ import annotations

import html as _html
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa

from bb_ocr_ray.schema import PAGES_SCHEMA

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
MEGADOC_MOD = 101
MEGADOC_REPEAT = 8
HOT_DOMAIN = "hot.example.com"

_HEAD = (
    "<!doctype html><html><head><meta charset=\"utf-8\">"
    "<title>Synthetic page</title>"
    "<style>body{{margin:0;font:16px serif}}nav a{{color:#06c}}</style>"
    "<script>window.__page={doc_id};console.log('boot');</script>"
    "</head><body>"
)
_NAV = (
    "<nav><ul><li><a href=\"/\">Home</a></li><li><a href=\"/archive\">Archive</a></li>"
    "<li><a href=\"/tags\">Tags</a></li><li><a href=\"/about\">About us</a></li></ul></nav>"
    "<header><h1><a href=\"/\">Synthetic Corpus</a></h1></header>"
)
_SHARE = (
    "<div class=\"share\"><a href=\"#s\">Share</a> <a href=\"#t\">Tweet</a> "
    "<a href=\"#l\">Like</a></div>"
)
_FOOT = (
    "<footer><p><a href=\"/privacy\">Privacy policy</a> | <a href=\"/terms\">Terms"
    "</a> | <a href=\"/contact\">Contact</a> | (c) 2024 synthetic corpus</p>"
    "</footer></body></html>"
)


def domain_for(doc_id: int) -> str:
    if doc_id % 10 < 3:
        return HOT_DOMAIN
    return f"site{doc_id % 10}.example.com"


def url_for(doc_id: int) -> str:
    return f"https://{domain_for(doc_id)}/doc-{doc_id}"


def html_for(doc_id: int, text: str) -> bytes:
    """Template one page. Content paragraphs carry the document text."""
    k = MEGADOC_REPEAT if doc_id % MEGADOC_MOD == 0 else 1
    para = f"<p>{_html.escape(text)}</p>"
    body = f"<article>{para * k}</article>"
    page = _HEAD.format(doc_id=doc_id) + _NAV + body + _SHARE + _FOOT
    return page.encode("utf-8")


def pages_batch(batch: pa.Table) -> pa.Table:
    """documents batch (doc_id, text, lang, ...) -> pages batch.

    Used inside ``map_batches`` so page synthesis streams and scales
    with the input instead of materializing on the driver.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    urls = [url_for(d) for d in doc_ids]
    # us since the unix epoch: EPOCH + doc_id seconds
    ts = (np.asarray(doc_ids, dtype="int64") * 1_000_000
          + int(EPOCH.timestamp()) * 1_000_000)
    htmls = [html_for(d, t or "") for d, t in zip(doc_ids, texts)]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def read_documents(sf_dir: str):
    """The ``(doc_id, text, lang)`` rows of {sf_dir}/documents.parquet,
    as read: the blocks of the Parquet read, with no fan-out."""
    from bb_ocr_ray.sources.tables import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )


def read_pages(sf_dir: str, num_blocks: int | None = None):
    """Streaming pages Dataset synthesized from {sf_dir}/documents.parquet.

    ``num_blocks``: fan-out for the downstream parse stage.  A small
    single-file input arrives as ONE block and would serialize the whole
    extract pipeline (the extract stage gets one giant task); an explicit
    repartition before the parse stage restores parallelism.  At real
    scale the input is thousands of fragments and this is a no-op
    (pass num_blocks=None to skip).  Defaults to 2× available CPUs.
    """
    import ray

    docs = read_documents(sf_dir)
    if num_blocks is None:
        num_blocks = 2 * int(ray.cluster_resources().get("CPU", 4))
    if num_blocks > 0:
        docs = docs.repartition(num_blocks)
    # batch_size=None: one task per block (a positive batch_size would
    # re-bundle the fanned-out blocks into few big tasks)
    return docs.map_batches(pages_batch, batch_format="pyarrow",
                            batch_size=None)
