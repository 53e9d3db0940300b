"""Seeded input generators for the benchmark workloads.

Each generator takes the seed as an argument, writes the engine's input
files, and returns the expected answer it derives from what it inserted
(never by calling the extraction kernel).  The same seed gives the same
bytes.

Expected extraction text follows from the kernel's documented rules
(``bb_ocr_ray/kernel/classify.py``): a block is content unless it sits
under nav/header/footer/aside, more than half of its characters are
link text, or it is shorter than 10 characters; kept blocks are joined
with a blank line.  The generators keep every block far from those
thresholds (content link share < 0.15, boilerplate link share 1.0,
short labels < 6 characters), so no expected answer is borderline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
_SYLLABLES = [a + b for a in "bcdfghjklmnprstvwz" for b in "aeiou"]


def _vocabulary(rng: np.random.Generator, n: int) -> list:
    """n distinct lowercase pseudo-words of 2-4 syllables."""
    words: set = set()
    while len(words) < n:
        k = int(rng.integers(2, 5))
        words.add("".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), k)))
    return sorted(words)


def _sentence(rng: np.random.Generator, vocab: list, n_words: int) -> list:
    return [vocab[i] for i in rng.integers(0, len(vocab), n_words)]


def _write_fragments(table: pa.Table, out_dir: str, n_fragments: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    for f in range(n_fragments):
        lo, hi = f * n // n_fragments, (f + 1) * n // n_fragments
        pq.write_table(table.slice(lo, hi - lo),
                       os.path.join(out_dir, f"part-{f:03d}.parquet"))


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values, one near the middle of each of n equal strata of [lo, hi)
    (jittered by a fifth of a stratum), shuffled: the size profile, and
    so the work per input, is almost the same for every seed."""
    u = (np.arange(n) + 0.5 + 0.2 * (rng.random(n) - 0.5)) / n
    rng.shuffle(u)
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# resumable-small-pages: a documents.parquet the engine templates into
# ~1 KB pages (bb_ocr_ray.sources.pages.html_for)
# ---------------------------------------------------------------------------
MEGADOC_MOD = 101        # mirrors bb_ocr_ray.sources.pages (template rule)
MEGADOC_REPEAT = 8


def small_url(doc_id: int) -> str:
    """The template's url rule (bb_ocr_ray.sources.pages.url_for)."""
    dom = "hot.example.com" if doc_id % 10 < 3 else f"site{doc_id % 10}.example.com"
    return f"https://{dom}/doc-{doc_id}"


def make_documents(seed: int, out_dir: str, n_docs: int) -> dict:
    """Write ``out_dir/documents.parquet``; return {url: expected text}.

    The template wraps each text in one ``<p>`` (eight copies for megadoc
    rows) between a script/style head, a nav, a header, a link-only share
    box and a footer, so the extracted text is the text itself (repeated,
    blank-line joined, on megadoc rows)."""
    rng = np.random.default_rng([seed, 1])
    vocab = _vocabulary(rng, 3000)
    doc_ids = np.arange(n_docs, dtype=np.int64)
    lengths = _stratified(rng, n_docs, 12, 48).astype(int)
    texts = [" ".join(_sentence(rng, vocab, int(k))) for k in lengths]
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table({"doc_id": doc_ids,
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * n_docs, pa.string())}),
        os.path.join(out_dir, "documents.parquet"), row_group_size=200)
    return {
        small_url(int(d)): "\n\n".join([t] * (MEGADOC_REPEAT if d % MEGADOC_MOD == 0 else 1))
        for d, t in zip(doc_ids, texts)
    }


# ---------------------------------------------------------------------------
# heavy-pages: real-shape pages Parquet (url, warc_ts, html, text, lang)
# ---------------------------------------------------------------------------
HEAVY_MIN, HEAVY_MAX = 30_000, 100_000          # bytes, ordinary pages
MEGA_MIN, MEGA_MAX = 2_000_000, 4_000_000       # bytes, megadocs
MEGA_EVERY = 100                                # 1% of pages are megadocs
EMPTY_EVERY = 50                                # 2% carry no content at all


def _css(rng, n_bytes: int) -> str:
    n = n_bytes // 48 + 1
    a, b, m, c = (rng.integers(1_000_000, size=n), rng.integers(1_000_000, size=n),
                  rng.integers(40, size=n), rng.integers(0xFFFFFF, size=n))
    return "".join(f".c{a[i]} .x{b[i]}{{margin:{m[i]}px;color:#{c[i]:06x}}}"
                   for i in range(n))


def _js(rng, n_bytes: int) -> str:
    n = n_bytes // 100 + 1
    a, b, m, c = (rng.integers(1_000_000, size=n), rng.integers(1_000_000, size=n),
                  rng.integers(100, size=n), rng.integers(1_000_000, size=n))
    return "".join(f"var v{a[i]}=document.querySelector('.c{b[i]}');"
                   f"if(v&&v.length<{m[i]}){{track('<div>'+{c[i]});}}\n"
                   for i in range(n))


def _link_list(rng, vocab, n_links: int, depth: int) -> str:
    """A nested <ul> menu whose every text character is link text."""
    items = []
    for _ in range(n_links):
        words = " ".join(_sentence(rng, vocab, int(rng.integers(1, 4))))
        items.append(f"<li><a href=\"/{words.replace(' ', '-')}\">{words}</a></li>")
    html = "<ul>" + "".join(items) + "</ul>"
    for _ in range(depth):
        html = f"<ul><li><div class=\"menu\">{html}</div></li></ul>"
    return html


def _content_block(rng, vocab, tag: str, n_words: int) -> tuple:
    """One content block with inline markup; returns (html, text).

    A paragraph may carry one inline link of at most two words in at
    least 20 words, so its link share stays below 0.15."""
    words = _sentence(rng, vocab, n_words)
    parts = list(words)
    if tag == "p" and n_words >= 20:
        i = int(rng.integers(0, n_words - 6))
        parts[i] = f"<a href=\"/w/{words[i]}\">{words[i]}"
        parts[i + 1] = f"{words[i + 1]}</a>"
        j = i + 3
        parts[j] = f"<b>{words[j]}"
        parts[j + 1] = f"{words[j + 1]}</b>"
    return f"<{tag}>{' '.join(parts)}</{tag}>", " ".join(words)


def heavy_page(rng: np.random.Generator, vocab: list, size: int,
               has_content: bool = True) -> tuple:
    """One page of about ``size`` bytes; returns (html bytes, expected text)."""
    head = (f"<!doctype html><html><head><meta charset=\"utf-8\">"
            f"<title>{' '.join(_sentence(rng, vocab, 6))}</title>"
            f"<style>{_css(rng, int(size * 0.12))}</style>"
            f"<script>{_js(rng, int(size * 0.18))}</script></head><body>")
    nav = (f"<nav>{_link_list(rng, vocab, max(20, size // 1500), depth=8)}</nav>"
           f"<header><h1><a href=\"/\">{' '.join(_sentence(rng, vocab, 3))}</a></h1>"
           f"<div class=\"tools\">Menu</div></header>")
    aside = f"<aside>{_link_list(rng, vocab, max(10, size // 3000), depth=2)}</aside>"
    footer = (f"<footer><div>{_link_list(rng, vocab, max(15, size // 2500), depth=1)}</div>"
              f"<p>(c) 2024</p></footer>")
    tail = f"<script>{_js(rng, int(size * 0.08))}</script></body></html>"
    share = "<div class=\"share\"><a href=\"#s\">Share</a> <a href=\"#t\">Tweet</a></div>"
    budget = size - len(head) - len(nav) - len(aside) - len(footer) - len(tail)
    blocks, texts, used = [], [], 0
    if has_content:
        h, t = _content_block(rng, vocab, "h2", int(rng.integers(4, 9)))
        blocks.append(h)
        texts.append(t)
        used += len(h)
        while used < budget:
            h, t = _content_block(rng, vocab, "p", int(rng.integers(20, 120)))
            blocks.append(h)
            texts.append(t)
            used += len(h)
            if rng.random() < 0.1:
                blocks.append("<div class=\"more\">Next</div>")   # short: dropped
    else:
        blocks.append(share)
    body = ("<main><div class=\"wrap\"><div class=\"col\"><article>"
            + "".join(blocks) + "</article>" + share + "</div></div></main>")
    page = head + nav + body + aside + footer + tail
    return page.encode("utf-8"), "\n\n".join(texts)


def make_heavy_pages(seed: int, out_dir: str, n_pages: int,
                     n_fragments: int) -> dict:
    """Write a pages Parquet directory; return {url: expected text}."""
    rng = np.random.default_rng([seed, 2])
    vocab = _vocabulary(rng, 5000)
    sizes = _stratified(rng, n_pages, HEAVY_MIN, HEAVY_MAX).astype(int)
    n_mega = max(1, n_pages // MEGA_EVERY)
    mega_sizes = _stratified(rng, n_mega, MEGA_MIN, MEGA_MAX).astype(int)
    slots = rng.permutation(n_pages)
    mega_at = dict(zip(slots[:n_mega].tolist(), mega_sizes.tolist()))
    empty_at = set(slots[n_mega:n_mega + max(1, n_pages // EMPTY_EVERY)].tolist())
    urls, htmls, expected_texts = [], [], []
    for i in range(n_pages):
        url = f"https://news{i % 13}.example.org/{seed}/story-{i}"
        html, text = heavy_page(rng, vocab, mega_at.get(i, int(sizes[i])),
                                has_content=i not in empty_at)
        urls.append(url)
        htmls.append(html)
        expected_texts.append(text)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(np.full(n_pages, 1_704_067_200_000_000, dtype="int64")
                            + np.arange(n_pages, dtype="int64")).cast(pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array([""] * n_pages, pa.string()),
        "lang": pa.array(["en"] * n_pages, pa.string()),
    })
    _write_fragments(table, out_dir, n_fragments)
    return dict(zip(urls, expected_texts))


# ---------------------------------------------------------------------------
# dedup-rollup: extracted-shape table with planted duplicate clusters
# ---------------------------------------------------------------------------
HOT_DOMAIN = "hot.example.net"
HOT_SHARE = 0.30


@dataclass
class DedupAnswer:
    kept_ids: list          # sorted ids near_dup_dedup must keep
    domain_stats: dict      # domain -> (n_docs, html_bytes, extracted_chars, n_errors)


def make_dedup_corpus(seed: int, out_dir: str, n_docs: int,
                      n_fragments: int) -> DedupAnswer:
    """Write an extracted-shape Parquet directory
    (doc_id, url, domain, text, html_bytes, status) and its answer.

    About 40% of docs sit in planted clusters of 2-5 members: exact
    copies of the cluster's base text, or near-copies with 2 of 80-99
    distinct tokens swapped (token Jaccard >= 0.9 to the base and to
    each other).  Every cluster and every singleton draws its tokens
    from a private namespace, so unrelated docs share no token and no
    shingle.  The kept ids are each cluster's minimum id plus every
    singleton."""
    rng = np.random.default_rng([seed, 3])
    ids = rng.permutation(n_docs).astype(np.int64)   # id order != cluster order
    texts = [""] * n_docs
    kept = []
    pos, group = 0, 0
    while pos < n_docs:
        size = 1 if rng.random() < 0.6 else int(rng.integers(2, 6))
        size = min(size, n_docs - pos)
        members = ids[pos:pos + size]
        n_tok = int(rng.integers(80, 100))   # (n-4)/(n+4) >= 0.9 between near-dups
        base = [f"g{group}t{k}" for k in range(n_tok)]
        for m_i, doc_id in enumerate(members):
            toks = list(base)
            if m_i > 0 and rng.random() < 0.5:       # near-dup: swap 2 tokens
                for j in rng.choice(n_tok, 2, replace=False):
                    toks[int(j)] = f"g{group}v{m_i}x{int(j)}"
            texts[int(doc_id)] = " ".join(toks)
        kept.append(int(members.min()))
        pos += size
        group += 1
    doc_ids = np.arange(n_docs, dtype=np.int64)
    hot = rng.random(n_docs) < HOT_SHARE
    domains = [HOT_DOMAIN if h else f"site{int(rng.integers(0, 40))}.example.net"
               for h in hot]
    html_bytes = rng.integers(2_000, 120_000, n_docs).astype(np.int64)
    status = np.where(rng.random(n_docs) < 0.03, "empty", "ok")
    urls = [f"https://{d}/{seed}/d{i}" for d, i in zip(domains, doc_ids)]
    stats: dict = {}
    for d, hb, t, s in zip(domains, html_bytes.tolist(), texts, status.tolist()):
        n, b, c, e = stats.get(d, (0, 0, 0, 0))
        stats[d] = (n + 1, b + hb, c + len(t), e + (s != "ok"))
    table = pa.table({
        "doc_id": doc_ids,
        "url": pa.array(urls, pa.string()),
        "domain": pa.array(domains, pa.string()),
        "text": pa.array(texts, pa.string()),
        "html_bytes": pa.array(html_bytes, pa.int64()),
        "status": pa.array(status.tolist(), pa.string()),
    })
    _write_fragments(table, out_dir, n_fragments)
    return DedupAnswer(sorted(kept), stats)
