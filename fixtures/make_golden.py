"""Freeze golden extraction outputs (run once; commit the parquet).

The analog of the reference's committed golden JSONs
(``pipeline_components/img_to_json/ollama+ocr_to_json/output/book_1_enhanced.json``):
the serial kernel's output on the edge-case fixture pages, frozen so
`python -m pytest -x -q` can assert byte-identity forever after
(tests/test_golden.py).  Regenerate ONLY on an intentional kernel
semantics change: python fixtures/make_golden.py
"""

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

from bb_ocr_ray.kernel.extract import extract_page
from bb_ocr_ray.schema import EXTRACTED_SCHEMA

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))
from edge_pages import edge_case_pages  # noqa: E402  (the test fixture)

OUT = os.path.join(HERE, "golden_edge_cases.parquet")


def main():
    pages = edge_case_pages()
    recs = [
        extract_page(u, h)
        for u, h in zip(pages.column("url").to_pylist(),
                        pages.column("html").to_pylist())
    ]
    tbl = pa.Table.from_pylist(recs, schema=EXTRACTED_SCHEMA)
    # blocks of the 50k-block megadoc would bloat the fixture; keep text +
    # spans (the byte-identity target) and summary fields only
    tbl = tbl.drop_columns(["blocks"])
    pq.write_table(tbl, OUT)
    print(f"wrote {OUT}: {tbl.num_rows} rows")


if __name__ == "__main__":
    main()
