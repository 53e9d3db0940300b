"""Multimodal columns: opaque binary payloads + typed metadata.

The reference's data path IS multimodal (page images -> preprocess ->
OCR); this module re-expresses the *plumbing* for Ray Data: binary
columns travel zero-copy through Arrow batches, decode/resize/feature
stages are actor-pool map_batches with small batch sizes.

The image/audio codec libraries are NOT in this container, so the
decode step is STUBBED: ``DecodeImageStub`` raises NotImplementedError
unless ``fake=True``, in which case it produces a deterministic fake
"decode" (dims + pixel stats derived from the bytes) so the Ray-side
plumbing — schema, batch size, actor signature, output layout — is
real and tested.  ``byte_histogram_features`` is NOT a stub: it is a
real vectorized feature extractor over arbitrary binary payloads.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pandas as pd
import pyarrow as pa

try:  # codecs are absent in this container; the stage self-activates
    from PIL import Image as _PILImage  # noqa: N813
except ImportError:  # pragma: no cover — environment-dependent
    _PILImage = None


def pil_available() -> bool:
    """True when a real image codec (PIL) is importable."""
    return _PILImage is not None


class DecodeImageStub:
    """Actor stage: binary -> (width, height, mean_px) metadata.

    Three modes, picked at construction (once per actor, T1 rule):
    ``fake=True`` derives deterministic pseudo-dimensions from a digest
    of the bytes (the offline test path); otherwise a REAL PIL decode
    runs when the codec imports (same output schema: width, height,
    mean grayscale pixel; undecodable payloads emit -1 dims rather than
    raising — error-as-data, M11); with no codec and no fake, the
    stage raises NotImplementedError, honestly."""

    def __init__(self, fake: bool = False):
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake and not pil_available():
            raise NotImplementedError(
                "image codecs unavailable in this environment; "
                "construct with fake=True for the deterministic stub"
            )
        payloads = batch.column("payload").to_pylist()
        widths, heights, means = [], [], []
        for p in payloads:
            p = p or b""
            if self.fake:
                d = hashlib.md5(p).digest()
                widths.append(64 + d[0] % 192)      # deterministic 64..255
                heights.append(64 + d[1] % 192)
                means.append(
                    float(np.frombuffer(p, dtype=np.uint8).mean())
                    if p else 0.0)
                continue
            try:
                img = _PILImage.open(io.BytesIO(p)).convert("L")
                arr = np.asarray(img, dtype=np.float64)
                widths.append(img.width)
                heights.append(img.height)
                means.append(float(arr.mean()) if arr.size else 0.0)
            except Exception:  # noqa: BLE001 — undecodable: data, not error
                widths.append(-1)
                heights.append(-1)
                means.append(0.0)
        out = batch.append_column("width", pa.array(widths, pa.int32()))
        out = out.append_column("height", pa.array(heights, pa.int32()))
        out = out.append_column("mean_px", pa.array(means, pa.float64()))
        return out


def resize_stub(batch: pa.Table, max_side: int = 1600) -> pa.Table:
    """Oversize gate analog of the reference's OCR downscale
    (``enhanced_extractor.py:487-512``): flags rows whose pseudo-dims
    exceed the cap; a real implementation would re-encode the payload."""
    w = batch.column("width").to_numpy()
    h = batch.column("height").to_numpy()
    return batch.append_column(
        "needs_resize", pa.array((np.maximum(w, h) > max_side), pa.bool_())
    )


def byte_histogram_features(batch: pd.DataFrame, payload_col: str = "payload") -> pd.DataFrame:
    """REAL binary feature extraction: 16-bin byte histogram + entropy per
    payload, vectorized with numpy (frombuffer + bincount)."""
    ent, hists = [], []
    for p in batch[payload_col]:
        arr = np.frombuffer(p or b"", dtype=np.uint8)
        if arr.size == 0:
            hists.append([0] * 16)
            ent.append(0.0)
            continue
        hist = np.bincount(arr >> 4, minlength=16)
        probs = hist / arr.size
        nz = probs[probs > 0]
        ent.append(float(-(nz * np.log2(nz)).sum()))
        hists.append(hist.astype("int64").tolist())
    batch["byte_hist"] = hists
    batch["byte_entropy"] = pd.Series(ent, dtype="float64")
    return batch


def frame_sample(batch: pa.Table, frame_bytes: int = 256, every_k: int = 4,
                 payload_col: str = "payload",
                 id_col: str = "item_id") -> pa.Table:
    """Deterministic frame sampling over an opaque binary payload
    treated as concatenated fixed-size frames (the raw-container
    analog of video frame extraction; a real demuxer would replace the
    slicing, the Ray plumbing — flat_map shape, one input row -> many
    frame rows, binary columns end-to-end — is identical; payload
    bytes DO materialize as Python objects in-task, so size
    frame-heavy batches small).

    Emits every ``every_k``-th full frame as
    (item_id, frame_idx, frame, frame_md5); the trailing partial frame
    is dropped.  md5 digests make the output SQL-mirrorable (DuckDB
    substring+md5 over the encoded payload)."""
    import hashlib

    ids_out, idx_out, frames, digests = [], [], [], []
    ids = batch.column(id_col).to_pylist()
    payloads = batch.column(payload_col).to_pylist()
    for i, buf in zip(ids, payloads):
        buf = buf or b""
        for fi in range(0, len(buf) // frame_bytes):
            if fi % every_k:
                continue
            frame = buf[fi * frame_bytes:(fi + 1) * frame_bytes]
            ids_out.append(i)
            idx_out.append(fi)
            frames.append(frame)
            digests.append(hashlib.md5(frame).hexdigest())
    return pa.table(
        {id_col: pa.array(ids_out, pa.int64()),
         "frame_idx": pa.array(idx_out, pa.int64()),
         "frame": pa.array(frames, pa.binary()),
         "frame_md5": pa.array(digests, pa.string())}
    )
