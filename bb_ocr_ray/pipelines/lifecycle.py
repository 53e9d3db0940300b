"""The reference's full document lifecycle as one streaming chain.

Mirrors SURVEY.md §3.1/§3.2 (CLI batch + accept/reject flow): pages ->
extract -> metadata heuristics over the extracted text (the "Text
Structuring & Heuristics Engine", design doc component 6) -> business
validation (M12) -> accept/reject decision.  The resumable runner
(``state.manifest.run_resumable_lifecycle``, the ``cli lifecycle``
command) writes it as the partitioned accept/reject sinks (S6).  Every
stage is a map over the stream; nothing materializes; rejects are
data, not dropped rows.
"""

from __future__ import annotations

import pandas as pd

from bb_ocr_ray.functions.scalars import (
    extract_isbns,
    extract_price,
    extract_publisher,
    extract_title_author,
    extract_year,
)
from bb_ocr_ray.functions.validate import validate_record


def metadata_from_text(batch: pd.DataFrame) -> pd.DataFrame:
    """Extracted text -> reference-shape metadata columns (the regex
    heuristics layer applied to real pipeline output)."""
    rows = []
    for url, text in zip(batch["url"], batch["text"]):
        title, author = extract_title_author(text or "")
        isbn13, isbn10 = extract_isbns(text or "")
        year = extract_year(text or "")
        cur, amt = extract_price(text or "")
        rec = validate_record(
            {"title": title,
             "authors": [author] if author else [],
             "publisher": extract_publisher(text or ""),
             "publication_date": str(year) if year else None,
             "isbn_13": isbn13, "isbn_10": isbn10,
             "price_currency": cur, "price_amount": amt}
        )
        rec["url"] = url
        rows.append(rec)
    out = pd.DataFrame(rows)
    out["authors"] = out["authors"].map(lambda a: a or [])
    return out


def lifecycle_decided(pages_ds, llm_backend: str | None = None,
                      llm_model: str = "fake-model", cfg=None):
    """The lifecycle chain up to (but not including) the sink: pages ->
    extract (-> optional enrichment) -> metadata heuristics ->
    validation -> decision column.  Lazy; the resumable runner
    (``state.manifest.run_resumable_lifecycle``) writes it, hive-split
    by ``decision`` inside each partition.  ``llm_backend`` (optional)
    routes the extracted stream through the pluggable enrichment-model
    stage (stages/enrich, §2.10: any registered ``LLMClient`` backend;
    offline runs use "fake") before validation, the reference's
    OCR→prompt→LLM→repair slot."""
    from bb_ocr_ray.config import DEFAULT_PIPELINE
    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages

    extracted = extract_pages(pages_ds, cfg or DEFAULT_PIPELINE)
    if llm_backend is not None:
        from bb_ocr_ray.stages.enrich import enrich

        extracted = enrich(extracted, backend=llm_backend, model=llm_model)

    def attach_metadata(b: pd.DataFrame) -> pd.DataFrame:
        keep = ["url", "domain", "text", "n_blocks_kept", "status", "error"]
        keep += [c for c in ("enriched_title", "enrichment_digest",
                             "enrich_error") if c in b.columns]
        b = b[keep].reset_index(drop=True)
        if b.empty:
            return b.assign(title=None, valid=False,
                            validation_error=None, decision=None).head(0)
        # metadata_from_text is row-aligned with b — concat, don't merge
        # (a url self-merge cross-products duplicate urls)
        meta_cols = metadata_from_text(b).drop(columns=["url"])
        return pd.concat([b, meta_cols.reset_index(drop=True)], axis=1)

    meta = extracted.map_batches(attach_metadata, batch_format="pandas")

    def decide(batch: pd.DataFrame) -> pd.DataFrame:
        ok = (batch["status"] == "ok") & batch["valid"]
        batch = batch.copy()
        batch["decision"] = ok.map({True: "accepted", False: "rejected"})
        # flatten the one list column up front so the persisted sink is
        # audit-complete: audit rows are read from the written parquet
        # instead of re-running (or pinning) the corpus
        batch["authors_csv"] = batch["authors"].map(
            lambda a: ", ".join(a)
            if isinstance(a, (list, tuple)) and len(a) else "")
        return batch.drop(columns=["authors"])

    return meta.map_batches(decide, batch_format="pandas")
