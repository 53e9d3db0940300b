"""Differential references for ``bb_ocr_ray.kernel.segment.segment``.

Straightforward event handlers (one method per parser event) spell out
the segmentation semantics the production tokenizer loop fuses into one
function.  Two front-ends drive them:

* ``oracle_segment``: stdlib ``html.parser.HTMLParser``.  Known
  divergence: ``</script foo>`` closes the script in production;
  html.parser stays in CDATA mode and swallows the rest of the document.
* ``regex_loop_segment``: ``REF_TOKEN_RE.match`` one token at a time,
  with no tail-mode switching (quadratic on start tags that cannot
  close), so it checks the production loop's linear-time tokenization
  exactly.  ``REF_TOKEN_RE`` is the tokenizer with its original
  backtracking start-tag attribute scan; production's is possessive.

Both build the same ``RawBlock`` tuples as production.  Whitespace is
counted with the defining regex (``_WS_RE.sub(" ", s).strip()``, here
``ref_collapse_ws``), not ``collapse_ws``'s fast paths, so the
references check both.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.normalize import _WS_RE
from bb_ocr_ray.kernel.segment import (_BLOCK, _DROP, _LINK, _RAWTEXT_CLOSE,
                                       _SKIP, _START_TAG, _TOKEN_RE, _VOID,
                                       BLOCK_TAGS, RawBlock, _mask_for)

# The start-tag alternative before its attribute scan became possessive.
REF_START_TAG = r"<([a-zA-Z][a-zA-Z0-9:._-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>"
REF_TOKEN_RE = re.compile(_TOKEN_RE.pattern.replace(_START_TAG, REF_START_TAG), re.S)
assert REF_TOKEN_RE.pattern != _TOKEN_RE.pattern


def ref_collapse_ws(s: str) -> str:
    return _WS_RE.sub(" ", s).strip()


class _OpenBlock:
    def __init__(self, block_id, tag_path, depth, ancestor_dropped):
        self.block_id = block_id
        self.tag_path = tag_path
        self.depth = depth
        self.ancestor_dropped = ancestor_dropped
        self.runs: list = []
        self.raw_chars = 0
        self.link_chars = 0
        self.n_tags = 1

    def freeze(self) -> RawBlock:
        return RawBlock(self.block_id, self.tag_path, self.depth,
                        self.ancestor_dropped, "".join(self.runs),
                        self.raw_chars, self.link_chars, self.n_tags)


class _Handlers:
    def __init__(self, cfg: ExtractConfig):
        self.cfg = cfg
        self.stack: list = []
        self._mask = _mask_for(cfg.drop_ancestors)
        self.skip_depth = 0
        self.link_depth = 0
        self.drop_depth = 0    # nesting inside drop_ancestors subtrees
        self.blocks: list = []
        self.current: _OpenBlock | None = None
        self._next_id = 0

    # -- block lifecycle ---------------------------------------------------
    def _flush(self) -> None:
        blk = self.current
        self.current = None
        if blk is not None and blk.raw_chars > 0:
            self.blocks.append(blk.freeze())

    def _open_block(self) -> None:
        self.current = _OpenBlock(
            block_id=self._next_id,
            tag_path="/".join(self.stack[: self.cfg.max_tag_depth]),
            depth=len(self.stack),
            ancestor_dropped=self.drop_depth > 0,
        )
        self._next_id += 1

    # -- parser events -----------------------------------------------------
    def handle_starttag(self, tag, attrs):
        m = self._mask.get(tag, 0)
        if m & _VOID:
            if self.current is not None and (tag == "br" or tag == "hr"):
                self.current.runs.append("\n")
            if tag == "hr":
                self._flush()
            return
        if m & _SKIP:
            self.skip_depth += 1
        if m & _LINK:
            self.link_depth += 1
        if m & _DROP:
            self.drop_depth += 1
        if m & _BLOCK:
            self._flush()
        self.stack.append(tag)
        if self.current is not None:
            self.current.n_tags += 1

    def handle_startendtag(self, tag, attrs):
        # <tag/> — treat like a void element; block tags still flush.
        if tag in BLOCK_TAGS:
            self._flush()
        elif tag in ("br", "hr") and self.current is not None:
            self.current.runs.append("\n")

    def handle_endtag(self, tag):
        mask = self._mask
        if mask.get(tag, 0) & _VOID or tag not in self.stack:
            return   # void tags are never open; stray end tags are ignored
        # pop up to and including the matching open tag
        while self.stack:
            popped = self.stack.pop()
            pm = mask.get(popped, 0)
            if pm & _SKIP and self.skip_depth > 0:
                self.skip_depth -= 1
            if pm & _LINK and self.link_depth > 0:
                self.link_depth -= 1
            if pm & _DROP and self.drop_depth > 0:
                self.drop_depth -= 1
            if pm & _BLOCK:
                self._flush()
            if popped == tag:
                break

    def handle_data(self, data):
        if self.skip_depth > 0:
            return
        stripped_len = len(ref_collapse_ws(data))
        if stripped_len == 0:
            if self.current is not None:
                self.current.runs.append(data)   # zero stripped chars
            return
        if self.current is None:
            self._open_block()
        self.current.runs.append(data)
        self.current.raw_chars += stripped_len
        if self.link_depth > 0:
            self.current.link_chars += stripped_len


class _Segmenter(_Handlers, HTMLParser):
    def __init__(self, cfg: ExtractConfig):
        HTMLParser.__init__(self, convert_charrefs=True)  # entity decode (M1)
        _Handlers.__init__(self, cfg)

    def close(self):
        # HTML5 tokenizer: an unterminated comment / CDATA /
        # declaration / processing instruction runs to EOF and never
        # becomes character data; html.parser instead flushes the
        # incomplete construct as raw data on close.  Drop such a tail
        # for parity with the spec (and the production tokenizer, whose
        # token regex swallows all four to \Z).
        if self.rawdata.startswith(("<!", "<?")):
            self.rawdata = ""
        HTMLParser.close(self)
        self._flush()


def oracle_segment(html_text: str, cfg: ExtractConfig = DEFAULT_EXTRACT) -> list:
    """Reference ``segment``: same blocks, built by html.parser events."""
    seg = _Segmenter(cfg)
    seg.feed(html_text)
    seg.close()
    return seg.blocks


class _RegexLoopSegmenter(_Handlers):
    def feed(self, text: str) -> None:
        pos = 0
        while pos < len(text):
            m = REF_TOKEN_RE.match(text, pos)
            pos = m.end()
            if m.group(4) is not None:
                self.handle_data(unescape(m.group(4)))
            elif m.group(2) is not None:
                tag, attrs = m.group(2).lower(), m.group(3).rstrip()
                if attrs.endswith("/") and (len(attrs) == 1 or attrs[-2] in " \t\n\r\"'"):
                    self.handle_startendtag(tag, ())
                    continue
                self.handle_starttag(tag, ())
                closer = _RAWTEXT_CLOSE.get(tag)
                if closer is not None:
                    mc = closer.search(text, pos)
                    pos = len(text) if mc is None else mc.end()
                    self.handle_endtag(tag)
            elif m.group(1) is not None:
                self.handle_endtag(m.group(1).lower())
            elif m.group(0) == "<":
                self.handle_data("<")

    def close(self):
        self._flush()


def regex_loop_segment(html_text: str, cfg: ExtractConfig = DEFAULT_EXTRACT) -> list:
    """Reference ``segment``: same blocks, one ``REF_TOKEN_RE.match`` per token."""
    seg = _RegexLoopSegmenter(cfg)
    seg.feed(html_text)
    seg.close()
    return seg.blocks
