"""Stage 1: bytes -> unicode text, deterministically.

The analog of the reference's deterministic preprocess chain
(``pipeline_demo/ocr_testing/preprocessing/image_preprocessor.py:147-160``
— grayscale/resize/denoise/contrast with a ``steps_applied`` audit
list).  For HTML the "preprocess" is charset sniff + decode; the audit
trail survives as the ``steps_applied`` output column.

Decode policy (fixed, documented, never locale-dependent):
  1. BOM (utf-8-sig / utf-16 le+be) wins.
  2. ``<meta charset=...>`` / ``<meta http-equiv Content-Type>`` /
     ``<?xml encoding=...>`` declaration within the first
     ``charset_sniff_bytes`` bytes.
  3. strict utf-8 attempt.
  4. latin-1 (never fails; maps bytes 1:1).
Unknown/bogus declared charsets fall through to steps 3-4.
"""

from __future__ import annotations

import codecs
import re

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig

_COMMENT_RE = re.compile(rb"<!--.*?(?:-->|\Z)", re.S)
_META_TAG_RE = re.compile(rb"<meta\b([^>]{0,512})>", re.I)
_ATTR_RE = re.compile(
    rb"""([a-zA-Z-]+)\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)""")
_CONTENT_CHARSET_RE = re.compile(rb"charset\s*=\s*([a-zA-Z0-9_\-]{2,32})", re.I)
_XML_DECL_RE = re.compile(
    rb"""<\?xml[^>]{0,256}?encoding\s*=\s*["']([a-zA-Z0-9_\-]{2,32})""", re.I
)


def _meta_charset(head: bytes):
    """HTML5-prescan-style meta scan: comments stripped; a ``charset``
    attribute wins; ``content="...charset=..."`` only counts alongside
    ``http-equiv=content-type`` — a charset= inside a description
    attribute must not hijack decoding."""
    head = _COMMENT_RE.sub(b"", head)
    for m in _META_TAG_RE.finditer(head):
        attrs = {}
        for k, v in _ATTR_RE.findall(m.group(1)):
            attrs[k.lower()] = v.strip(b"\"'")
        if b"charset" in attrs and attrs[b"charset"]:
            return attrs[b"charset"]
        if (attrs.get(b"http-equiv", b"").lower() == b"content-type"
                and b"content" in attrs):
            cm = _CONTENT_CHARSET_RE.search(attrs[b"content"])
            if cm:
                return cm.group(1)
    return None

_BOMS = (
    (codecs.BOM_UTF8, "utf-8-sig"),
    # "utf-16" (not -le/-be) so the decoder consumes the BOM instead of
    # leaking U+FEFF into the text stream
    (codecs.BOM_UTF16_LE, "utf-16"),
    (codecs.BOM_UTF16_BE, "utf-16"),
)


def sniff_charset(data: bytes, cfg: ExtractConfig = DEFAULT_EXTRACT) -> str | None:
    """Return a declared charset name from BOM or meta/xml declaration, or None."""
    for bom, enc in _BOMS:
        if data.startswith(bom):
            return enc
    head = data[: cfg.charset_sniff_bytes]
    declared = _meta_charset(head)
    if declared is None:
        m = _XML_DECL_RE.search(head)
        declared = m.group(1) if m else None
    if declared:
        return declared.decode("ascii", "replace").lower()
    return None


def decode_html(data: bytes, cfg: ExtractConfig = DEFAULT_EXTRACT,
                lenient: bool = False) -> tuple[str, list[str]]:
    """Decode HTML bytes to str; returns (text, steps_applied audit list).

    ``lenient=True`` (used for byte-truncated megadocs) decodes the
    declared/utf-8 charset with errors="replace" instead of falling
    through to latin-1: a truncated multi-byte tail must cost one
    replacement char, not flip the WHOLE document to mojibake (the
    UTF-8 boundary backoff can't help UTF-16/Shift-JIS/GBK cuts)."""
    steps: list[str] = []
    declared = sniff_charset(data, cfg)
    if declared is not None:
        try:
            errors = "replace" if lenient else "strict"
            text = data.decode(declared, errors)
            steps.append(f"decode:{declared}" + (":lenient" if lenient else ""))
            return text, steps
        except (LookupError, UnicodeDecodeError):
            steps.append(f"decode_failed:{declared}")
    try:
        errors = "replace" if lenient else "strict"
        text = data.decode("utf-8", errors)
        steps.append("decode:utf-8" + (":lenient" if lenient else ""))
        return text, steps
    except UnicodeDecodeError:
        text = data.decode("latin-1")
        steps.append("decode:latin-1")
        return text, steps


# ASCII whitespace only — intentionally NOT \s (which is unicode-aware in
# Python but engine-dependent elsewhere).  This exact class is mirrored by
# the DuckDB oracle regexp in __ray_entry__.oracle_sql(), so keep the two
# in sync.
_WS_RE = re.compile(r"[ \t\n\r\f\v]+")


# The non-ASCII code points str.isspace/str.split/str.strip treat as
# whitespace (Unicode 14; tests pin the set against the running Python).
_NON_ASCII_WS_RE = re.compile(
    "[\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


def collapse_ws(s: str) -> str:
    """Whitespace canonicalization: runs of ASCII whitespace -> one space, strip ends.

    Analog of the reference's normalizer ``re.sub(r"\\s+", " ", s).strip()``
    (``pipeline_demo/pricing_api/pricing_api/providers/abebooks_html.py:8-11``).
    Always equal to ``_WS_RE.sub(" ", s).strip()``; the two fast paths
    avoid the per-character regex:
      * ``isprintable()`` is False for every whitespace but " ", so a
        printable string without "  " has nothing to collapse;
      * without non-ASCII whitespace, ``str.split()`` splits exactly on
        ``_WS_RE`` runs (plus the ends ``strip()`` removes).
    """
    if s.isprintable() and "  " not in s:
        return s.strip()
    if _NON_ASCII_WS_RE.search(s) is None:
        return " ".join(s.split())
    return _WS_RE.sub(" ", s).strip()
