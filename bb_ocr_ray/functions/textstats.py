"""Text analysis functions: token counting, quality scoring, language ID,
fingerprinting — the training-data-pipeline layer over the ``documents``
table (task brief: lang-ID, quality scoring, token counting, document
fingerprinting).

All are vectorized per-batch (numpy / pandas str kernels) — no Python
row loops except where a true per-row fold is required (fingerprint).

Oracle-compatibility notes: ``n_tokens`` uses the exact formula
``len(text) - len(replace(text,' ','')) + 1`` so the DuckDB oracle can
mirror it character-for-character.
"""

from __future__ import annotations

import re

import pandas as pd

# Fixed stopword list (subset of the synthetic corpus vocabulary + common
# English function words) — deterministic, mirrored in oracle SQL.
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is")

# Character-trigram profiles for a tiny n-gram language-ID heuristic.
# Built from common function-word trigrams per language (public knowledge);
# deterministic and dependency-free. Scores = count of profile trigrams
# present; argmax with fixed tie order.
_LANG_PROFILES = {
    "en": ("the", "and", "ing", "ion", "ent", " th", "he ", "er ", " of", "of "),
    "de": ("der", "die", "und", "sch", "ein", "ich", "cht", " de", "en ", "ch "),
    "fr": ("les", "des", "ent", "que", " de", "de ", "ion", "ait", " le", "le "),
    "es": ("los", "las", " de", "de ", "ión", "que", " la", "la ", "ado", "nte"),
    "zh": (),  # non-latin scripts handled by the unicode-range rule below
}
_LANG_ORDER = ("en", "de", "fr", "es")


def n_tokens_series(texts: pd.Series) -> pd.Series:
    """Whitespace token count via the oracle-mirrorable formula."""
    return texts.str.len() - texts.str.replace(" ", "", regex=False).str.len() + 1


def stop_token_counts(texts: pd.Series, stopwords=STOPWORDS) -> pd.Series:
    """Count of tokens that are stopwords (single-space-tokenized)."""
    toks = texts.str.split(" ")
    stops = frozenset(stopwords)
    return toks.map(lambda ws: sum(1 for w in ws if w in stops))


def quality_features(texts: pd.Series) -> pd.DataFrame:
    """Per-doc quality features: chars, tokens, stop ratio, punct ratio,
    mean token length.  The web analog of the reference's per-page
    heuristics layer (``hueristics/book_extractor.py`` keyword scoring)."""
    n_chars = texts.str.len()
    n_tok = n_tokens_series(texts)
    n_stop = stop_token_counts(texts)
    # re.ASCII: RE2's \w/\s are ASCII-only; unicode-aware counting
    # would diverge from the DuckDB mirror on non-ASCII corpora
    n_punct = texts.str.count(r"[^\w\s]", flags=re.ASCII)
    return pd.DataFrame(
        {
            "n_chars": n_chars.astype("int64"),
            "n_tokens": n_tok.astype("int64"),
            "n_stop_tokens": n_stop.astype("int64"),
            "n_punct": n_punct.astype("int64"),
        }
    )


# A-Z -> a-z ONLY: Python str.lower() and SQL lower() disagree on
# exotic unicode case maps (U+0130, ß); an ASCII translate is
# byte-identical across engines, so the oracle can mirror it with
# translate(s, 'ABC...', 'abc...')
_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def detect_lang(text: str) -> str:
    """Tiny deterministic language-ID heuristic.

    Rules (ordered): CJK codepoint share > 0.2 -> "zh"; else best
    character-trigram profile hit count (ties broken by _LANG_ORDER);
    zero hits anywhere -> "und".  Every step is SQL-mirrorable (see
    oracles.py q_langid): codepoint slice, float share compare, ASCII
    lowering, non-overlapping substring counts.
    """
    if not isinstance(text, str) or not text:
        return "und"
    sample = text[:2000]
    cjk = sum(1 for ch in sample if "一" <= ch <= "鿿")
    if cjk / max(1, len(sample)) > 0.2:
        return "zh"
    low = sample.translate(_ASCII_LOWER)
    best_lang, best_score = "und", 0
    for lang in _LANG_ORDER:
        score = sum(low.count(tri) for tri in _LANG_PROFILES[lang])
        if score > best_score:
            best_lang, best_score = lang, score
    return best_lang


def detect_lang_series(texts: pd.Series) -> pd.Series:
    return texts.map(detect_lang)
