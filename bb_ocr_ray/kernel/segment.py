"""Stage 2: DOM block segmentation — the layout-segmentation core.

Re-expresses the reference's auto text-region crop
(``pipeline_demo/extractor/enhanced_extractor.py:239-372``: composite
text mask -> contours -> area-filtered boxes -> union bbox) for HTML:
a single streaming parse over the document yields candidate text
blocks in READING ORDER, each with position features (tag_path, depth)
and content features (raw/linked char counts, tag count) that feed the
boilerplate classifier.

One regex tokenizer drives one event loop (no external parser is
available in this environment), which is a plus for the byte-identity
invariant: traversal order is the token stream order, there is no
parser-version drift, and malformed markup degrades deterministically
(unmatched end tags are ignored; unclosed tags stay open until an
enclosing close or EOF).

The differential references live in ``tests/segment_oracle.py``: plain
event handlers driven by stdlib ``html.parser`` and by a token-at-a-time
``_TOKEN_RE`` loop.  The tokenizer intentionally diverges from
html.parser on one sloppy-markup shape where the stdlib behavior is
worse: ``</script foo>`` closes the script (html.parser stays in CDATA
mode and swallows the rest of the document).  Everything else is held
identical by differential tests.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left
from html import unescape
from typing import NamedTuple

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.normalize import collapse_ws

# Tags whose entire text content is never page content.
SKIP_TAGS = frozenset(
    {"script", "style", "noscript", "template", "svg", "title", "iframe",
     "object", "canvas", "audio", "video", "map", "datalist", "textarea"}
)

# Tags that open/close a text block (flush boundary).  Inline tags (a, b,
# i, span, em, strong, code, ...) do NOT flush — their text flows into the
# enclosing block, preserving reading order.
BLOCK_TAGS = frozenset(
    {"p", "div", "section", "article", "main", "li", "ul", "ol", "dl", "dd",
     "dt", "h1", "h2", "h3", "h4", "h5", "h6", "td", "th", "tr", "table",
     "thead", "tbody", "tfoot", "blockquote", "pre", "figure", "figcaption",
     "form", "fieldset", "hr", "nav", "header", "footer", "aside", "body",
     "address", "details", "summary"}
)

# Void elements (never pushed on the stack).
VOID_TAGS = frozenset(
    {"br", "hr", "img", "input", "meta", "link", "area", "base", "col",
     "source", "track", "wbr", "embed", "param"}
)

# Per-tag event bitmasks: ONE dict lookup per tag event instead of five
# frozenset membership tests (start/end handlers are ~2/3 of all
# tokenizer events; measured ~10% whole-kernel win).  The DROP bit
# depends on cfg.drop_ancestors, so masks are memoized per drop set.
_VOID, _SKIP, _LINK, _BLOCK, _DROP = 1, 2, 4, 8, 16
_BASE_MASK: dict = {}
for _t in VOID_TAGS:
    _BASE_MASK[_t] = _BASE_MASK.get(_t, 0) | _VOID
for _t in SKIP_TAGS:
    _BASE_MASK[_t] = _BASE_MASK.get(_t, 0) | _SKIP
for _t in BLOCK_TAGS:
    _BASE_MASK[_t] = _BASE_MASK.get(_t, 0) | _BLOCK
_BASE_MASK["a"] = _BASE_MASK.get("a", 0) | _LINK
_MASK_MEMO: dict = {}


def _mask_for(drop_ancestors) -> dict:
    key = frozenset(drop_ancestors)
    m = _MASK_MEMO.get(key)
    if m is None:
        m = dict(_BASE_MASK)
        for t in key:
            m[t] = m.get(t, 0) | _DROP
        _MASK_MEMO[key] = m
    return m


class RawBlock(NamedTuple):
    """A candidate text block — the web analog of one contour bbox."""

    block_id: int
    tag_path: str           # "/"-joined open-tag stack at block start
    depth: int              # stack depth at block start
    ancestor_dropped: bool  # True if inside nav/header/footer/aside
    raw: str                # the block's text runs, joined, not yet collapsed
    raw_chars: int          # collapsed chars across runs
    link_chars: int         # of those, chars inside <a>
    n_tags: int             # tags seen while the block was open


# The start-tag alternative.  Possessive attribute scan: a quote can only
# be consumed by its own quoted branch, so there is nothing to backtrack
# into, and a tag that cannot close fails without retrying shorter scans.
_START_TAG = r"<([a-zA-Z][a-zA-Z0-9:._-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"']++)*+)>"
_TOKEN_RE = re.compile(
    r"<!--.*?(?:-->|\Z)"                 # comment (unterminated: to EOF)
    r"|<!\[CDATA\[.*?(?:\]\]>|\Z)"   # CDATA
    r"|<![^>]*>?"                          # doctype / declaration
    r"|<\?[^>]*>?"                        # processing instruction
    r"|</\s*([a-zA-Z][a-zA-Z0-9:._-]*)[^>]*>"                    # end tag
    r"|" + _START_TAG +                 # start tag (disjoint alts: linear-time, no ReDoS)
    r"|</[^>]*>?"                          # bogus end tag (<//p> etc.): swallowed
    r"|([^<]+)"                            # text run
    r"|<",                                 # stray '<'
    re.S,
)
# A start tag that cannot close fails only after scanning to EOF, and the
# next '<' retries (quadratic on "<a<a<a...").  After the first such
# failure the rest of the page is tokenized without the start-tag
# alternative; its groups stay as never-matching placeholders so group
# numbers (and lastindex dispatch) are unchanged.  Start tags that do
# close are found in the table below and matched one at a time.
_TAIL_RE = re.compile(
    _TOKEN_RE.pattern.replace(_START_TAG, r"(?!)()()"),
    re.S,
)
_TAG_SCAN_RE = re.compile(r"[>\"']")
_NAME_START = frozenset(string.ascii_letters)


def _tag_closers(text: str, start: int) -> tuple:
    """Where a start tag whose attributes begin at x >= start closes.

    The start-tag alternative scans attributes deterministically: a quote
    jumps past its partner, the first '>' outside quotes closes the tag,
    and EOF or an unpartnered quote fails it.  So the answer depends only
    on the next '>', '"' or "'" at or after x: for i = bisect_left(stops, x)
    the tag closes at gts[i], or never when gts[i] is -1.  One pass from
    the right, linear in the number of stops."""
    stops = [m.start() for m in _TAG_SCAN_RE.finditer(text, start)]
    n = len(stops)
    gts = [-1] * (n + 1)
    partner = {'"': n, "'": n}   # index of the next stop holding that quote
    for i in range(n - 1, -1, -1):
        c = text[stops[i]]
        if c == ">":
            gts[i] = stops[i]
        else:
            j = partner[c]
            gts[i] = gts[j + 1] if j < n else -1
            partner[c] = i
    return stops, gts


# Raw-text elements: content is not markup.  All four are SKIP_TAGS
# (script/style/title content and form-control text are not page content).
_RAWTEXT_CLOSE = {
    # name boundary required: </styled> must NOT close <style>
    t: re.compile(rf"</\s*{t}(?=[\s/>])[^>]*>", re.I | re.S)
    for t in ("script", "style", "title", "textarea")
}


def segment(html_text: str, cfg: ExtractConfig = DEFAULT_EXTRACT) -> list:
    """Parse HTML text into an ordered list of RawBlock candidates.

    One ``finditer`` loop over ``_TOKEN_RE`` with the handler state, the
    open block's included, in locals.  The loop restarts only after a
    raw-text element jumps to its close tag, or around start tags once a
    start tag failed to close (see ``_TAIL_RE``), so the work stays
    linear in the page size.
    """
    text = html_text
    n = len(text)
    stops = gts = None   # _tag_closers table, built at the first failed start tag
    mask = _mask_for(cfg.drop_ancestors)
    max_depth = cfg.max_tag_depth
    stack: list = []
    open_counts: dict = {}   # tag -> open count (O(1) membership)
    blocks: list = []
    # the open block: its text runs (None = no block open) and features;
    # a flush appends a RawBlock and sets runs = None.  Blocks are built
    # with tuple.__new__, which skips the NamedTuple's Python __new__.
    new = tuple.__new__
    runs = None
    path = ""
    depth = raw_chars = link_chars = n_tags = 0
    dropped = False
    skip_depth = link_depth = drop_depth = 0
    token_re = _TOKEN_RE
    pos = 0
    end = n
    while True:
        for m in token_re.finditer(text, pos, end):
            # dispatch on lastindex (highest participating group): 4 = text
            # run, 3 = start tag (attrs may be empty but participate), 1 =
            # end tag, None = comment/doctype/CDATA/PI/bogus-end/stray '<'
            li = m.lastindex
            if li == 3:
                tag = m.group(2).lower()
                tm = mask.get(tag, 0)
                a = m.group(3)
                # self-closing only when the '/' is its own token: bare "/",
                # or preceded by whitespace/quote.  A '/' ending an unquoted
                # attr value (href=http://x.com/) is VALUE text (mirrors
                # html.parser, which parses the value first).  Only attrs
                # ending in "/" or whitespace can be: rstrip() keeps the rest.
                if a[-1:] == "/" or a[-1:].isspace():
                    a = a.rstrip()
                    if a.endswith("/") and (len(a) == 1 or a[-2] in " \t\n\r\"'"):
                        # <tag/>: like a void element; block tags still flush
                        if tm & _BLOCK:
                            if runs is not None:
                                blocks.append(new(RawBlock, (len(blocks), path, depth, dropped, "".join(runs),
                                                             raw_chars, link_chars, n_tags)))
                                runs = None
                        elif tag == "br" and runs is not None:
                            runs.append("\n")
                        continue
                if tm & _VOID:
                    if runs is not None and (tag == "br" or tag == "hr"):
                        runs.append("\n")
                        if tag == "hr":
                            blocks.append(new(RawBlock, (len(blocks), path, depth, dropped, "".join(runs),
                                                        raw_chars, link_chars, n_tags)))
                            runs = None
                    continue
                if tm:
                    if tm & _SKIP:
                        skip_depth += 1
                    if tm & _LINK:
                        link_depth += 1
                    if tm & _DROP:
                        drop_depth += 1
                    if tm & _BLOCK and runs is not None:
                        blocks.append(new(RawBlock, (len(blocks), path, depth, dropped, "".join(runs),
                                                    raw_chars, link_chars, n_tags)))
                        runs = None
                stack.append(tag)
                open_counts[tag] = open_counts.get(tag, 0) + 1
                n_tags += 1   # reset to 1 when a block opens
                closer = _RAWTEXT_CLOSE.get(tag) if tm & _SKIP else None
                if closer is None:
                    continue
                # raw-text content: no markup until the close tag, which is
                # handled as this tag's end tag below
                mc = closer.search(text, m.end())
                pos = n if mc is None else mc.end()
            elif li == 1:
                tag = m.group(1).lower()
            else:
                if li == 4:
                    data = m.group(4)
                    if "&" in data:
                        data = unescape(data)
                elif m.group(0) == "<":
                    q = m.start()
                    if text[q + 1:q + 2] in _NAME_START:
                        # a start tag that does not close here
                        if stops is None:
                            stops, gts = _tag_closers(text, q)
                            pos = q
                            token_re = _TAIL_RE
                            break
                        gt = gts[bisect_left(stops, q + 1)]
                        if gt >= 0:   # ... but does: match just this tag
                            pos = q
                            end = gt + 1
                            token_re = _TOKEN_RE
                            break
                    data = "<"   # stray '<' in prose ("1 < 2") is data
                else:
                    continue     # comment / doctype / CDATA / PI: no event
                if skip_depth:
                    continue
                # whitespace-only runs (inter-tag newlines, the most common
                # data event) collapse to "": zero chars, never open a block
                # (an invalid charref such as "&#1;" unescapes to "")
                if not data or data.isspace():
                    if runs is not None:
                        runs.append(data)
                    continue
                # >= 1: data has a non-space char (collapse_ws' first fast
                # path inlined: most runs are printable with no double space)
                if data.isprintable() and "  " not in data:
                    k = len(data.strip())
                else:
                    k = len(collapse_ws(data))
                if runs is None:
                    runs = [data]
                    path = "/".join(stack[:max_depth])
                    depth = len(stack)
                    dropped = drop_depth > 0
                    raw_chars = link_chars = 0
                    n_tags = 1
                else:
                    runs.append(data)
                raw_chars += k
                if link_depth:
                    link_chars += k
                continue
            # end tag: pop up to and including the matching open tag;
            # ignore strays and void tags (never pushed).  Most end tags
            # close the top of the stack, which needs no count lookup.
            if stack and (stack[-1] == tag or open_counts.get(tag, 0) > 0):
                while True:
                    popped = stack.pop()
                    open_counts[popped] -= 1
                    pm = mask.get(popped, 0)
                    if pm:
                        if pm & _SKIP:
                            skip_depth -= 1
                        if pm & _LINK:
                            link_depth -= 1
                        if pm & _DROP:
                            drop_depth -= 1
                        if pm & _BLOCK and runs is not None:
                            blocks.append(new(RawBlock, (len(blocks), path, depth, dropped, "".join(runs),
                                                        raw_chars, link_chars, n_tags)))
                            runs = None
                    if popped == tag:
                        break
            if li == 3:
                end = n   # resume after the raw-text close tag
                token_re = _TOKEN_RE if stops is None else _TAIL_RE
                break
        else:
            if end == n:
                break
            pos = end   # the one start tag that closes is done
            end = n
            token_re = _TAIL_RE
    if runs is not None:
        blocks.append(new(RawBlock, (len(blocks), path, depth, dropped, "".join(runs),
                                     raw_chars, link_chars, n_tags)))
    return blocks
