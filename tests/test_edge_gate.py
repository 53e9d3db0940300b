"""The edge sweep as a gate: every registered query must match its
DuckDB oracle on the adversarial corpus of ``tools/make_edge_sf.py``
(NULL / empty / whitespace-only texts, NULL lengths and users, malformed
JSON, sub-second timestamps), compared the way ``tools/check_oracles.py``
compares them."""

import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_oracle_matches_on_edge_corpus(ray_session, tmp_path):
    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import QUERIES

    sf = str(tmp_path / "sf_edge")
    _tool("make_edge_sf").main(sf)
    records = _tool("check_oracles").run_checks(sf)
    assert set(records) == set(QUERIES) == set(ORACLES)
    failed = {n: r for n, r in records.items() if r["status"] != "pass"}
    assert not failed
