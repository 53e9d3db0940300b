"""Sink-layer tests: file-format sinks and the query CLI's parquet sink."""


def test_json_and_csv_sinks(ray_session, sf_tiny, tmp_path):
    """S4 breadth: the same extracted Dataset writes JSON and CSV, and
    both read back to its rows."""
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
