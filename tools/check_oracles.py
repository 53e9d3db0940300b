"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at the given sf dir, runs the matching
``oracle_sql()`` in DuckDB over the same parquet tables, and compares
row count + order-insensitive values (columns sorted by name, rows
sorted by all columns).  Exit 1 on any mismatch.

Usage: python tools/check_oracles.py [--json OUT.json] [sf_dir] [query ...]

``--json`` additionally writes a machine-readable per-query record
(status, rows, seconds, oracle kind) — the per-round ORACLES_r{N}.json
artifact (VERDICT r3 item 9).
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype("float64").round(6)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main() -> int:
    args = sys.argv[1:]
    json_out = None
    if args and args[0] == "--json":
        json_out = args[1]
        args = args[2:]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    records = run_checks(sf_dir, set(args[1:]))
    failures = [n for n, r in records.items()
                if r["status"] not in ("pass", "rows_only")]
    print(f"\n{len(failures)} failures" + (f": {failures}" if failures else ""))
    if json_out:
        import json as _json

        summary = {
            "sf_dir": sf_dir,
            "n_queries": len(records),
            "n_pass": sum(1 for r in records.values()
                          if r["status"] == "pass"),
            "n_rows_only": sum(1 for r in records.values()
                               if r["status"] == "rows_only"),
            "n_fail": len(failures),
            "queries": records,
        }
        with open(json_out, "w") as f:
            _json.dump(summary, f, indent=1, sort_keys=True)
        print(f"wrote {json_out}")
    return 1 if failures else 0


def run_checks(sf_dir: str, only=()) -> dict:
    """Compare every registered query (or those named in ``only``) at
    ``sf_dir`` with its DuckDB oracle; returns {name: record}, where a
    record's ``status`` is "pass", "rows_only" (no oracle) or a failure
    kind.  Needs a running Ray session."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    records: dict = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            records[name] = {"status": "error",
                             "err": f"{type(exc).__name__}: {exc}"}
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            continue
        dt = round(time.time() - t0, 2)
        if name not in oracles:
            records[name] = {"status": "rows_only", "rows": len(got),
                             "sec": dt}
            print(f"ok?  {name:26s} rows={len(got):7d} ({dt:5.1f}s) [rows-only; no oracle]")
            continue
        try:
            exp = canon(con.sql(oracles[name]).df())
        except Exception as exc:  # noqa: BLE001
            records[name] = {"status": "oracle_error",
                             "err": f"{type(exc).__name__}: {exc}"}
            print(f"FAIL {name}: oracle raised {type(exc).__name__}: {exc}")
            continue
        if len(got) != len(exp):
            records[name] = {"status": "row_mismatch", "rows": len(got),
                             "oracle_rows": len(exp), "sec": dt}
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            continue
        if list(got.columns) != list(exp.columns):
            records[name] = {"status": "schema_mismatch", "sec": dt}
            print(f"FAIL {name}: cols {list(got.columns)} != {list(exp.columns)}")
            continue
        if not got.equals(exp):
            diff_cols = [c for c in got.columns if not got[c].equals(exp[c])]
            records[name] = {"status": "value_mismatch",
                             "cols": diff_cols, "sec": dt}
            print(f"FAIL {name}: value mismatch in {diff_cols}")
            for c in diff_cols[:2]:
                mask = got[c] != exp[c]
                print("  got:", got.loc[mask, c].head(3).tolist(),
                      " exp:", exp.loc[mask, c].head(3).tolist())
            continue
        records[name] = {"status": "pass", "rows": len(got), "sec": dt}
        print(f"PASS {name:26s} rows={len(got):7d} ({dt:5.1f}s)")
    return records


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
