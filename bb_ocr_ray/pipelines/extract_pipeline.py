"""Flagship pipeline: pages -> extracted main-content text.

The Ray-Data-native rebuild of the reference's extraction lifecycle
(``batch_processor_enhanced.py:120-231``: discover shards -> thread
pool -> per-book extract -> validate -> write), re-expressed as one
lazy streaming Dataset:

    read_parquet/synthesize -> (size-aware repartition) ->
    map_batches(extract_batch) -> write/aggregate

No driver-side loops, no materialization of the main input; the
streaming executor pipelines read, parse and write with backpressure.
"""

from __future__ import annotations

from bb_ocr_ray.config import DEFAULT_PIPELINE, PipelineConfig
from bb_ocr_ray.stages.extract_stage import extract_batch


def extract_pages(pages_ds, cfg: PipelineConfig = DEFAULT_PIPELINE):
    """pages Dataset -> extracted Dataset (EXTRACTED_SCHEMA).

    Stateless tasks, one batch per input block: Ray bundles input
    blocks into tasks of >= batch_size rows, so a positive batch size
    would serialize small-block inputs into few tasks.
    """
    return pages_ds.map_batches(extract_batch, fn_kwargs={"cfg": cfg.extract},
                                batch_format="pyarrow", batch_size=None)


def extract_from_sf_dir(sf_dir: str, cfg: PipelineConfig = DEFAULT_PIPELINE):
    """Synthesize pages from {sf_dir}/documents.parquet and extract."""
    from bb_ocr_ray.sources.pages import read_pages

    return extract_pages(read_pages(sf_dir), cfg)
