"""Text-analysis stages over a documents-shaped table: language ID and
fingerprints — vectorized map_batches wrappers around
bb_ocr_ray.functions.textstats and bb_ocr_ray.functions.hashing.
"""

from __future__ import annotations

import pandas as pd

from bb_ocr_ray.functions.hashing import md5_hex, rolling_fingerprint
from bb_ocr_ray.functions.textstats import detect_lang_series


def add_lang_pred(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    batch["lang_pred"] = detect_lang_series(batch[text_col])
    return batch


def add_fingerprints(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    batch["fingerprint"] = pd.Series(
        [rolling_fingerprint(t or "") for t in batch[text_col]],
        dtype="int64", index=batch.index)
    batch["content_md5"] = [md5_hex(t or "") for t in batch[text_col]]
    return batch
