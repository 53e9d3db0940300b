"""The extraction stage's Arrow build against its reference.

``extract_batch`` folds each page's record straight into Arrow column
lists.  The reference below is the straightforward build it replaced:
one dict per row, per block and per span, then one
``pa.Table.from_pylist`` at the end of the batch.
"""

import pyarrow as pa
import pytest

import bb_ocr_ray.kernel.extract as kx
from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.extract import extract_page
from bb_ocr_ray.schema import BLOCK_STRUCT, EXTRACTED_SCHEMA
from bb_ocr_ray.stages.extract_stage import extract_batch

_BLOCK_FIELDS = [f.name for f in BLOCK_STRUCT]


def ref_extract_batch(batch: pa.Table, cfg: ExtractConfig = DEFAULT_EXTRACT) -> pa.Table:
    records = []
    for u, h in zip(batch.column("url").to_pylist(), batch.column("html").to_pylist()):
        r = dict(extract_page(u, h, cfg))
        r["spans"] = [{"start": s, "stop": e} for s, e in r["spans"]]
        r["blocks"] = [{k: getattr(b, k) for k in _BLOCK_FIELDS} for b in r["blocks"]]
        records.append(r)
    return pa.Table.from_pylist(records, schema=EXTRACTED_SCHEMA)


def _pages(rows) -> pa.Table:
    urls, htmls = zip(*rows) if rows else ((), ())
    return pa.table({"url": pa.array(urls, pa.string()),
                     "html": pa.array(htmls, pa.binary())})


def _fixture_batches():
    import duckdb

    from edge_pages import edge_case_pages

    from bb_ocr_ray.sources.pages import html_for

    docs = duckdb.sql(
        "SELECT doc_id, text FROM '/root/testdata/sf0.001/documents.parquet'"
    ).fetchall()
    return {"edge": edge_case_pages().select(["url", "html"]),
            "sf0.001": _pages([(f"https://site.example.com/doc-{d}", html_for(d, t))
                               for d, t in docs])}


@pytest.mark.parametrize("name", ["edge", "sf0.001"])
def test_extract_batch_equals_from_pylist_reference(name):
    batch = _fixture_batches()[name]
    got = extract_batch(batch)
    assert got.schema == EXTRACTED_SCHEMA
    assert got.num_rows == batch.num_rows
    assert got.equals(ref_extract_batch(batch))


def test_extract_batch_status_mix_equals_reference(monkeypatch):
    """empty bytes, NULL html, a truncated page and a parse error in one
    batch: every status and the nullable ``error`` column."""
    cfg = ExtractConfig(max_html_bytes=64)
    batch = _pages([
        ("https://a.example.com/empty", b""),
        ("https://a.example.com/null", None),
        ("https://a.example.com/ok", b"<p>a paragraph long enough to keep</p>"),
        ("https://a.example.com/trunc",
         b"<p>first paragraph is content</p><p>" + b"more words " * 40 + b"</p>"),
    ])
    got = extract_batch(batch, cfg)
    assert got.column("status").to_pylist() == ["empty", "empty", "ok", "truncated"]
    assert got.equals(ref_extract_batch(batch, cfg))

    def boom(text, cfg):
        raise ValueError("segment failed")

    monkeypatch.setattr(kx, "segment", boom)
    got = extract_batch(batch, cfg)
    assert got.column("status").to_pylist() == [
        "empty", "empty", "parse_error", "parse_error"]
    assert got.column("error").to_pylist()[2] == "ValueError: segment failed"
    assert got.equals(ref_extract_batch(batch, cfg))


def test_extract_batch_equals_concatenated_one_row_slices():
    batch = _fixture_batches()["edge"]
    whole = extract_batch(batch)
    parts = [extract_batch(batch.slice(i, 1)) for i in range(batch.num_rows)]
    assert whole.equals(pa.concat_tables(parts).combine_chunks())


def test_extract_batch_zero_rows():
    got = extract_batch(_pages([]))
    assert got.num_rows == 0
    assert got.schema == EXTRACTED_SCHEMA
    assert got.equals(EXTRACTED_SCHEMA.empty_table())
