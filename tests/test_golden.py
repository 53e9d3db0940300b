"""Golden byte-identity tests (the north_rule correctness gate).

Row-by-row byte identity of extracted ``text`` per ``url`` against:
  1. the committed golden fixture (edge-case pages, serial kernel);
  2. the template-inversion expectation derived independently from the
     documents table (full distributed pipeline at sf0.001).
"""

import os
import re

import duckdb
import pyarrow.parquet as pq
import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                      "golden_edge_cases.parquet")
WS = re.compile(r"[ \t\n\r\f\v]+")


def test_golden_edge_cases_byte_identical():
    from edge_pages import edge_case_pages

    from bb_ocr_ray.kernel.extract import extract_page

    golden = pq.read_table(GOLDEN).to_pylist()   # same row order as fixtures
    pages = edge_case_pages()
    assert len(golden) == pages.num_rows
    for u, h, exp in zip(pages.column("url").to_pylist(),
                         pages.column("html").to_pylist(), golden):
        assert exp["url"] == u
        got = extract_page(u, h)
        assert got["text"] == exp["text"], f"text drift for {u}"
        assert got["status"] == exp["status"]
        assert got["spans"] == [(s["start"], s["stop"]) for s in exp["spans"]]


@pytest.mark.usefixtures("ray_session")
def test_distributed_pipeline_byte_identity(sf_tiny):
    """Full Ray pipeline output == independently derived expectation."""
    import pyarrow as pa

    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir

    ds = extract_from_sf_dir(sf_tiny).materialize()
    out = ds.to_pandas().set_index("url")
    # ``blocks`` holds exactly the six FIXTURES.md §2 fields: a kept
    # block's text is already ``text[start:stop]``, so no block carries
    # its text again.
    assert ds.schema().base_schema.field("blocks").type == pa.list_(
        pa.struct([("block_id", pa.int32()), ("tag_path", pa.string()),
                   ("depth", pa.int32()), ("text_density", pa.float64()),
                   ("link_density", pa.float64()),
                   ("is_content", pa.bool_())]))
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf_tiny}/documents.parquet'"
    ).df()
    assert len(out) == len(docs)
    for _, row in docs.iterrows():
        did = int(row.doc_id)
        norm = WS.sub(" ", row.text).strip()
        k = 8 if did % 101 == 0 else 1
        expected = "\n\n".join([norm] * k)
        domain = ("hot.example.com" if did % 10 < 3
                  else f"site{did % 10}.example.com")
        url = f"https://{domain}/doc-{did}"
        got = out.loc[url]
        assert got["text"] == expected, f"byte mismatch for {url}"
        assert got["status"] == "ok"
        assert got["n_blocks_kept"] == k
        assert got["domain"] == domain
