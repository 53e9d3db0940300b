"""Curation stages: one implementation of each LLM-data mechanism that
more than one query runs.

Each stage works over a ``text`` column (plus ``doc_id``/``source``
where the mechanism is keyed by them) and keeps every other column, so
the standalone operators (``q_line_filter``, ``q_decontaminate``,
``q_domain_quota``, ``q_train_split``, the document-frequency family)
and the composites (``q_training_prep``, ``q_corpus_pipeline``) call
the same code, and a curation pass can run over ``extract_pages``'
output as well as over the ``documents`` table.  Exact and near dedup
live in ``stages/dedup.py``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from bb_ocr_ray.functions.hashing import shingle_set, stable_u64, ws_tokens
from bb_ocr_ray.functions.textstats import _ASCII_LOWER

# '[ \t\r\f\v]+' is an ASCII class on both engines (Python's \s is
# unicode-aware and would diverge from the DuckDB mirror)
_WORD_RE = re.compile("[ \t\r\f\v]+")


# ---------------------------------------------------------------------------
# C4 / RefinedWeb line rule
# ---------------------------------------------------------------------------
def line_filter(ds, min_words: int, terminal_punct: bool):
    """Line-level cleaning as a doc-local map: a line survives iff,
    after stripping ASCII space/tab/CR, it is non-empty, does not
    mention 'javascript' (C4 drops boilerplate JS warnings), has >=
    ``min_words`` words and, with ``terminal_punct``, ends in one of
    '.!?"' (C4's rule; RefinedWeb-style short-line removal runs
    without it).  ``text`` is rewritten to the newline-joined kept
    lines, and ``n_lines`` (lines in) and ``n_kept`` (lines kept) are
    added; every other column passes through.  One map_batches, no
    shuffle.  Cross-engine determinism: the case-fold is an explicit
    A-Z->a-z translate (Python .lower()/SQL lower() disagree on exotic
    unicode case maps), the strip set and word splitter are ASCII
    classes, and lengths are code points on both engines."""
    def keep(s: str) -> bool:
        return (bool(s) and (not terminal_punct or s[-1] in '.!?"')
                and "javascript" not in s.translate(_ASCII_LOWER)
                and len([w for w in _WORD_RE.split(s) if w]) >= min_words)

    def clean(t: pa.Table) -> pa.Table:
        texts, n_lines, n_kept = [], [], []
        for text in t.column("text").to_pylist():
            lines = (text or "").split("\n")
            kept = [s for s in (raw.strip(" \t\r") for raw in lines)
                    if keep(s)]
            texts.append("\n".join(kept))
            n_lines.append(len(lines))
            n_kept.append(len(kept))
        return (t.set_column(t.schema.get_field_index("text"), "text",
                             pa.array(texts, pa.string()))
                .append_column("n_lines", pa.array(n_lines, pa.int64()))
                .append_column("n_kept", pa.array(n_kept, pa.int64())))

    return ds.map_batches(clean, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Benchmark decontamination (train/eval n-gram overlap)
# ---------------------------------------------------------------------------
def is_eval(doc_ids) -> np.ndarray:
    """True for the eval set's rows, ``doc_id % 50 == 0``: the benchmark
    slice that decontamination holds out of the training corpus."""
    return np.asarray(doc_ids) % 50 == 0


def eval_shingles(docs):
    """The distinct 8-token shingles of the eval set (``is_eval``),
    built once and put in the object store for ``eval_hits``.
    The eval side is a benchmark, inherently small, so it is broadcast
    and the corpus streams past it with no shuffle."""
    import ray

    def eval_rows(t: pa.Table) -> pa.Table:
        # an Arrow filter: a batch with no eval row stays typed (a 0-row
        # pandas frame of object columns fails Ray's block sizing)
        return t.select(["text"]).filter(
            pa.array(is_eval(t.column("doc_id").to_numpy())))

    texts = docs.map_batches(eval_rows, batch_format="pyarrow").take_all()
    return ray.put(set().union(*(shingle_set(r["text"], 8) for r in texts)))


def eval_hits(ds, eval_ref):
    """Add ``n_hit_shingles``: how many distinct 8-token shingles each
    row's ``text`` shares with the eval set ``eval_ref``
    (``eval_shingles``).  Doc-local, one map_batches."""
    import ray

    def hits(t: pa.Table) -> pa.Table:
        es = ray.get(eval_ref)
        return t.append_column("n_hit_shingles", pa.array(
            [len(shingle_set(x, 8) & es) for x in t.column("text").to_pylist()],
            pa.int64()))

    return ds.map_batches(hits, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Hash rank: quota pick and train/val/test split
# ---------------------------------------------------------------------------
def hash_rank(ids: pd.Series) -> np.ndarray:
    """Stable md5 rank of each doc id, a reproducible "random" order
    (pure function of the id, no RNG state).  An object array: the
    ranks are full-width uint64, above int64's range."""
    return np.array([stable_u64(str(int(d))) for d in ids], dtype=object)


def top_quota(b: pd.DataFrame) -> pd.DataFrame:
    """The per-source quota: the 50 rows of lowest (``hv``, ``doc_id``)
    per ``source``, ``hv`` being ``hash_rank(doc_id)``.  Re-foldable:
    the pick over a union of per-batch picks equals the pick over the
    union."""
    return (b.sort_values(["source", "hv", "doc_id"], kind="mergesort")
            .groupby("source", as_index=False, sort=False).head(50))


def split_of(ids: pd.Series) -> np.ndarray:
    """Deterministic 90/5/5 train/val/test assignment: ``hash_rank``
    mod 100 below 90 is train, below 95 val, else test."""
    buck = (hash_rank(ids) % 100).astype(np.int64)
    return np.where(buck < 90, "train", np.where(buck < 95, "val", "test"))


# ---------------------------------------------------------------------------
# Document frequency
# ---------------------------------------------------------------------------
def doc_freq(ds) -> pd.DataFrame:
    """Document frequency of every whitespace token of ``text``, on the
    driver as (``tok``, ``df`` int64).  Per-batch distinct-per-doc
    Counter partial, then one coarse fold on the token (the vocabulary
    is unbounded, so never a direct Ray group per token)."""
    from collections import Counter

    from bb_ocr_ray.stages.coarse import coarse_agg

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = Counter()
        for t in b["text"]:
            c.update(set(ws_tokens(t or "")))
        return pd.DataFrame({"tok": list(c.keys()),
                             "df": pd.array(list(c.values()), dtype="int64")})

    out = coarse_agg(ds.map_batches(partial, batch_format="pandas"),
                     ["tok"], {"df": ("df", "sum")}).to_pandas()
    out["df"] = out["df"].astype("int64")
    return out
