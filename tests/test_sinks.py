"""Sink-layer tests: audit flattening and file-format sinks."""

import pandas as pd


def test_flatten_metadata_audit_row():
    from bb_ocr_ray.stages.sinks import AUDIT_COLUMNS, flatten_metadata

    batch = pd.DataFrame(
        {
            "url": ["https://a.com/1"],
            "domain": ["a.com"],
            "title": ["A Book"],
            "authors": [["Jane Doe", "John Roe"]],
            "publication_date": ["First published 1987 in Boston"],
            "text": ["some extracted text"],
            "n_blocks_kept": [3],
            "status": ["ok"],
            "error": [None],
        }
    )
    flat = flatten_metadata(batch)
    assert list(flat.columns) == AUDIT_COLUMNS
    assert flat.loc[0, "authors_csv"] == "Jane Doe, John Roe"
    assert flat.loc[0, "year"] == 1987
    assert flat.loc[0, "n_chars"] == len("some extracted text")
    assert flat.loc[0, "n_blocks"] == 3


def test_flatten_handles_missing_fields():
    from bb_ocr_ray.stages.sinks import flatten_metadata

    flat = flatten_metadata(pd.DataFrame({"text": ["abc"], "status": ["ok"]}))
    assert flat.loc[0, "title"] is None
    assert flat.loc[0, "n_chars"] == 3


def test_json_and_csv_sinks(ray_session, sf_tiny, tmp_path):
    """S4 breadth: the same extracted Dataset writes parquet, JSON and
    CSV; JSON round-trips through the JSONL source reader."""
    import glob
    import json

    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir

    ds = extract_from_sf_dir(sf_tiny).select_columns(
        ["url", "text", "status"]).limit(50)
    jdir, cdir = str(tmp_path / "j"), str(tmp_path / "c")
    ds.write_json(jdir)
    ds.write_csv(cdir)
    jrows = []
    for f in glob.glob(jdir + "/*"):
        with open(f) as fh:
            jrows += [json.loads(line) for line in fh if line.strip()]
    assert len(jrows) == 50
    assert {"url", "text", "status"} <= set(jrows[0])
    import pandas as pd

    crows = pd.concat([pd.read_csv(f) for f in glob.glob(cdir + "/*")])
    assert len(crows) == 50


def test_flatten_nan_authors_total():
    """Review regression: NaN in an object authors column (pandas
    missing-value representation) must not crash the flattener."""
    import numpy as np

    from bb_ocr_ray.stages.sinks import flatten_metadata

    flat = flatten_metadata(pd.DataFrame(
        {"text": ["abc", "def"], "status": ["ok", "ok"],
         "authors": [["Jane"], np.nan]}))
    assert flat["authors_csv"].tolist() == ["Jane", ""]


def test_cli_query_subcommand(ray_session, sf_tiny, tmp_path):
    """The query CLI runs a registry query in-process (reusing the
    session fixture's Ray) and writes parquet."""
    import pandas as pd

    from bb_ocr_ray.cli import cmd_query

    class A:
        name = "q_doc_stats"
        sf_dir = sf_tiny
        out = str(tmp_path / "q")
        limit = 20

    assert cmd_query(A) == 0
    df = pd.read_parquet(A.out)
    assert len(df) == 5 and "sum_tokens" in df.columns
