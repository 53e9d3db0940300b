"""Single-pass table profiling and order-independent checksums — the
data-QA / migration-validation operators of a large-scale pipeline
(profile before training; checksum after copying 100 TB between
stores).  Public patterns: Deequ/Great-Expectations-style column
profiles, content-defined table digests.

Both operators are ONE streaming scan folding per-batch partial rows
on the driver (block-count × one-row traffic — the pagerank-probe
pattern).  Nothing row-sized ever lands on the driver: the profile's
distinct-value tracking is restricted to declared LOW-CARDINALITY
categorical columns (languages, sources, enum-ish fields — the caller
asserts the bound by listing them); high-cardinality distincts belong
to q_count_distinct / HLL, not a profile row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_CHECKSUM_MOD = (1 << 63) - 1


def profile_table(ds, numeric: list[str], categorical: list[str],
                  text: list[str] = ()):
    """One-row profile of a Dataset: row count, per-column null
    counts, numeric min/max/sum, exact distinct counts for the
    declared low-cardinality ``categorical`` columns, and zero-length
    counts for ``text`` columns.  Single scan; per-batch partials are
    one row each (categorical distincts travel as a sorted
    '\\x1f'-joined string per batch — bounded by the declared
    cardinality, NOT the row count).  Returns a plain dict.
    """

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        row: dict = {"n_rows": np.int64(len(b))}
        for c in numeric + list(categorical) + list(text):
            row[f"null_{c}"] = np.int64(b[c].isna().sum())
        for c in numeric:
            s = b[c].dropna()
            row[f"min_{c}"] = s.min() if len(s) else None
            row[f"max_{c}"] = s.max() if len(s) else None
            row[f"sum_{c}"] = np.int64(s.sum()) if len(s) else np.int64(0)
        for c in categorical:
            vals = b[c].dropna().unique()
            row[f"set_{c}"] = "\x1f".join(sorted(map(str, vals)))
        for c in text:
            s = b[c].dropna()
            row[f"empty_{c}"] = np.int64((s.str.len() == 0).sum())
        return pd.DataFrame([row])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out: dict = {"n_rows": int(parts["n_rows"].sum())}
    for c in numeric + list(categorical) + list(text):
        out[f"null_{c}"] = int(parts[f"null_{c}"].sum())
    for c in numeric:
        mins = parts[f"min_{c}"].dropna()
        maxs = parts[f"max_{c}"].dropna()
        out[f"min_{c}"] = int(mins.min()) if len(mins) else None
        out[f"max_{c}"] = int(maxs.max()) if len(maxs) else None
        out[f"sum_{c}"] = int(parts[f"sum_{c}"].sum())
    for c in categorical:
        seen: set = set()
        for joined in parts[f"set_{c}"]:
            if joined:
                seen.update(joined.split("\x1f"))
        out[f"distinct_{c}"] = len(seen)
    for c in text:
        out[f"empty_{c}"] = int(parts[f"empty_{c}"].sum())
    return out


def table_checksum(ds, cols: list[str], sep: str = "|"):
    """Order-independent content checksum of a Dataset: md5 each row's
    ``sep``-joined column repr, keep the top 60 bits (15 hex chars —
    BIGINT-safe on the SQL side), and fold the per-batch int sums
    modulo 2^63-1.  Addition is commutative, so the digest is
    invariant under row order, block layout and parallelism — the
    property that makes it a migration/copy validator.  Per-batch md5
    runs through the distinct-string memo (batch_md5_hex).  Returns
    ``{"n_rows": int, "checksum": int}``.
    """
    from bb_ocr_ray.functions.hashing import batch_md5_hex

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame({"n": pd.Series([0], dtype="int64"),
                                 "s": pd.Series([0], dtype="int64")})
        # NULL hashes as '' (SQL concat), never as the string "None"
        parts = [b[c].astype(str).mask(b[c].isna(), "") for c in cols]
        joined = parts[0].str.cat(parts[1:], sep=sep)
        hs = batch_md5_hex(joined.to_numpy())
        # exact Python-int sum, one mod at the end (2^60 x batch rows
        # never overflows an arbitrary-precision int)
        total = sum(int(h[:15], 16) for h in hs) % _CHECKSUM_MOD
        return pd.DataFrame({"n": pd.Series([len(b)], dtype="int64"),
                             "s": pd.Series([total], dtype="int64")})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    # Python-int fold: per-batch totals approach 2^63-1, so a numpy
    # int64 sum would silently wrap after two blocks
    return {"n_rows": int(parts["n"].sum()),
            "checksum": sum(int(v) for v in parts["s"]) % _CHECKSUM_MOD}
