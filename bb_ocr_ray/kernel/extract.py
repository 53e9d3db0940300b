"""Kernel facade: extract_page(html_bytes) -> one output record (dict).

The record's ``spans`` are ``(start, stop)`` tuples and its ``blocks``
are ``classify.ClassifiedBlock`` tuples; ``stages.extract_stage``
folds them straight into Arrow columns.

Error-as-data everywhere: the reference never lets a document kill a
run — parse failures yield a full-shape fallback record with an error
string (``enhanced_extractor.py:953-1002``; SURVEY.md M11).  Same here:
every input row yields exactly one output row; ``status`` is one of
ok | empty | truncated | parse_error.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.classify import classify
from bb_ocr_ray.kernel.emit import emit
from bb_ocr_ray.kernel.normalize import decode_html
from bb_ocr_ray.kernel.segment import segment


def domain_of(url: str) -> str:
    """Registrable-domain stand-in: lowercased netloc without port.

    (A full public-suffix list is out of scope / unavailable offline;
    netloc is deterministic and mirrored by the DuckDB oracle regexp
    ``^[a-z]+://([^/:]+)``.)
    """
    try:
        netloc = urlsplit(url).netloc
    except ValueError:
        return ""
    return netloc.rsplit("@", 1)[-1].split(":", 1)[0].lower()


def _record(url: str, html_len: int, *, text: str = "", spans=(), blocks=(),
            status: str = "ok", error: str | None = None, steps=()) -> dict:
    return {
        "url": url,
        "domain": domain_of(url),
        "text": text,
        "spans": list(spans),
        "blocks": list(blocks),
        "n_blocks_kept": len(spans),   # one span per kept block
        "html_bytes": html_len,
        "status": status,
        "error": error,
        "steps_applied": list(steps),
    }


def extract_page(url: str, html: bytes | None,
                 cfg: ExtractConfig = DEFAULT_EXTRACT) -> dict:
    """Extract main-content text from one HTML page. Pure and total."""
    html_len = len(html) if html is not None else 0
    if not html:
        return _record(url, 0, status="empty", steps=["empty_input"])
    steps: list[str] = []
    status = "ok"
    if html_len > cfg.max_html_bytes:
        # Megadoc guard (M4 analog: oversize downscale gate,
        # enhanced_extractor.py:487-512): deterministic truncation + flag.
        html = html[: cfg.max_html_bytes]
        # Back the cut off to a UTF-8 boundary: a dangling multi-byte
        # sequence would fail strict utf-8 decode and silently flip the
        # WHOLE document to latin-1 mojibake.  Trim trailing
        # continuation bytes plus the lead byte that started them (at
        # most one whole char is lost — already-truncated content).
        drop = 0
        while drop < 3 and drop < len(html) and (html[-1 - drop] & 0xC0) == 0x80:
            drop += 1
        if drop < len(html) and (html[-1 - drop] & 0xC0) == 0xC0:
            drop += 1          # also covers a cut directly after a lead byte
        if drop:
            html = html[:-drop]
        # strip a dangling incomplete construct at the cut (a half tag
        # like '<div class="navigatio' would otherwise be emitted as
        # content text by the tokenizer)
        last_lt, last_gt = html.rfind(b"<"), html.rfind(b">")
        if last_lt > last_gt:
            html = html[:last_lt]
        steps.append(f"truncated:{cfg.max_html_bytes}")
        status = "truncated"
    try:
        # lenient decode for truncated docs: a multi-byte cut must cost
        # one replacement char, never a whole-document latin-1 flip
        text_html, decode_steps = decode_html(html, cfg,
                                              lenient=(status == "truncated"))
        steps.extend(decode_steps)
        raw_blocks = segment(text_html, cfg)
        steps.append(f"segment:{len(raw_blocks)}")
        blocks = classify(raw_blocks, cfg)
        text, spans = emit(blocks, cfg)
        steps.append("emit")
        if not text and status == "ok":
            status = "empty"
        return _record(url, html_len, text=text, spans=spans, blocks=blocks,
                       status=status, steps=steps)
    except Exception as exc:  # noqa: BLE001 — dead-letter, never raise per row
        return _record(url, html_len, status="parse_error",
                       error=f"{type(exc).__name__}: {exc}", steps=steps)
