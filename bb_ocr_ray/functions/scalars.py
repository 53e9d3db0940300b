"""Metadata scalar extractors — re-expression of the reference's regex
heuristics layer (SURVEY.md §2.8).

Semantics rebuilt (not copied) from:
  - ISBN extract/normalize:
    ``pipeline_components/img_to_json/ocr_testing/hueristics/book_extractor.py:12-15, 79-85``
  - year extract (3 forms): ``book_extractor.py:16-20, 87-92``;
    1800s-tolerant variant ``abebooks_html.py:14-16``
  - publisher suffix patterns + gazetteer: ``book_extractor.py:21-24, 94-106``
  - price/currency parse with last-separator decimal disambiguation:
    ``abebooks_html.py:19-91, 187-223``
  - title/author line heuristics: ``book_extractor.py:115-134``
  - eTLD+1 of a hostname against an embedded public-suffix subset

All patterns are compiled once at import (per worker process) and
applied per batch via pandas ``str`` kernels or list comprehensions.
"""

from __future__ import annotations

import re

ISBN13_RE = re.compile(r"\b(97[89][- ]?(?:\d[- ]?){9}\d)\b")
ISBN10_RE = re.compile(r"\b((?:\d[- ]?){9}[\dXx])\b")
ISBN_LABELED_RE = re.compile(r"ISBN(?:-1[03])?:?\s*((?:\d[- ]?){9,12}[\dXx])", re.I)


def normalize_isbn(raw: str) -> str:
    return re.sub(r"[- ]", "", raw).upper()


def extract_isbns(text: str) -> tuple:
    """Return (isbn_13, isbn_10) — first match of each, normalized, or None."""
    isbn13 = isbn10 = None
    m = ISBN13_RE.search(text)
    if m:
        isbn13 = normalize_isbn(m.group(1))
    for m in ISBN_LABELED_RE.finditer(text):
        n = normalize_isbn(m.group(1))
        if len(n) == 13 and isbn13 is None:
            isbn13 = n
        elif len(n) == 10 and isbn10 is None:
            isbn10 = n
    if isbn10 is None:
        m = ISBN10_RE.search(text)
        if m:
            n = normalize_isbn(m.group(1))
            if len(n) == 10:
                isbn10 = n
    return isbn13, isbn10


YEAR_RES = (
    re.compile(r"©\s*((?:18|19|20)\d{2})"),
    re.compile(r"(?:published|copyright)\D{0,20}\b((?:18|19|20)\d{2})\b", re.I),
    re.compile(r"\b((?:18|19|20)\d{2})\b"),
)


def extract_year(text: str) -> int | None:
    """First year by priority: copyright mark, labeled, bare 18xx-20xx."""
    for pat in YEAR_RES:
        m = pat.search(text)
        if m:
            return int(m.group(1))
    return None


PUBLISHER_SUFFIX_RE = re.compile(
    r"\b([A-Z][\w&.,' -]{2,40}?\s(?:Press|Publishing|Publishers|Books|House|"
    r"Media|Editions|Verlag))\b"
)
KNOWN_PUBLISHERS = (
    "Penguin", "Random House", "HarperCollins", "Simon & Schuster", "Macmillan",
    "Hachette", "Scholastic", "Wiley", "Springer", "Elsevier", "Oxford University Press",
    "Cambridge University Press", "Dover", "Vintage", "Anchor", "Bantam", "Doubleday",
    "Knopf", "Norton", "Routledge", "Faber", "Bloomsbury", "Tor", "Orbit",
)


def extract_publisher(text: str) -> str | None:
    m = PUBLISHER_SUFFIX_RE.search(text)
    if m:
        return m.group(1).strip()
    for name in KNOWN_PUBLISHERS:   # fixed gazetteer order = deterministic
        if name.lower() in text.lower():
            return name
    return None


_CURRENCY_SYMBOLS = {"$": "USD", "£": "GBP", "€": "EUR", "¥": "JPY"}
_CURRENCY_WORDS = {"usd": "USD", "gbp": "GBP", "eur": "EUR", "dollars": "USD",
                   "pounds": "GBP", "euros": "EUR"}
PRICE_RE = re.compile(r"([$£€¥])\s*([\d.,]+\d)|\b([\d.,]+\d)\s*(usd|gbp|eur|dollars|pounds|euros)\b", re.I)


def parse_amount(num: str) -> float | None:
    """Decimal disambiguation by LAST separator: '1.234,56' -> 1234.56,
    '1,234.56' -> 1234.56 (the reference's last-separator rule)."""
    num = num.strip()
    last_dot, last_comma = num.rfind("."), num.rfind(",")
    try:
        if last_dot == -1 and last_comma == -1:
            return float(num)
        if last_comma > last_dot:
            return float(num.replace(".", "").replace(",", "."))
        return float(num.replace(",", ""))
    except ValueError:
        return None


def extract_price(text: str) -> tuple:
    """Return (currency, amount) or (None, None)."""
    m = PRICE_RE.search(text)
    if not m:
        return None, None
    if m.group(1):
        cur = _CURRENCY_SYMBOLS[m.group(1)]
        amt = parse_amount(m.group(2))
    else:
        cur = _CURRENCY_WORDS[m.group(4).lower()]
        amt = parse_amount(m.group(3))
    return (cur, amt) if amt is not None else (None, None)


AUTHOR_RE = re.compile(r"\bby\s+([A-Z][a-z]+(?:\s+[A-Z]\.?)?\s+[A-Z][a-z]+)")


def extract_title_author(text: str) -> tuple:
    """First non-empty line = title; 'by First Last' = author, else line 2."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    title = lines[0] if lines else None
    m = AUTHOR_RE.search(text)
    if m:
        return title, m.group(1)
    return title, (lines[1] if len(lines) > 1 else None)


# Multi-level public suffixes (a deterministic embedded SUBSET of the
# public suffix list — the full PSL is a runtime download the sandbox
# cannot make; this covers the common ccTLD second-level registries).
# VERDICT r1: bare netloc grouping files a.co.uk and b.co.uk under
# 'co.uk'; registrable_domain fixes that class.  Mirrored verbatim in
# the generated oracle SQL (oracles.py).
PSL_2LEVEL = (
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.au", "net.au", "org.au", "edu.au", "gov.au",
    "com.br", "net.br", "org.br", "gov.br",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "co.in", "net.in", "org.in", "gen.in",
    "co.kr", "or.kr", "ne.kr",
    "com.mx", "org.mx", "gob.mx",
    "com.ar", "com.tr", "com.sg", "com.hk", "com.tw",
    "co.za", "org.za", "co.nz", "net.nz", "org.nz",
)
_PSL_SET = frozenset(PSL_2LEVEL)


def registrable_domain(host: str) -> str:
    """eTLD+1: the registrable domain of a hostname.

    'shop.a.co.uk' -> 'a.co.uk' (co.uk is a public suffix),
    'a.b.site.com' -> 'site.com', 'site.org' -> 'site.org'.
    Hostnames at or below suffix depth return unchanged."""
    h = (host or "").lower().rstrip(".")
    parts = h.split(".")
    if len(parts) <= 2:
        return h
    if ".".join(parts[-2:]) in _PSL_SET:
        return ".".join(parts[-3:])
    return ".".join(parts[-2:])
