"""Pure-kernel unit + property tests (no Ray).

Analog of the reference's validation-schema unit tests
(``pipeline_components/img_to_json/ollama+ocr_to_json/test_pipeline.py:70-120``)
applied to the extraction kernel: hand-built HTML fixtures + span
invariants (SURVEY.md §5).
"""

import json
import os
import subprocess
import sys
import unicodedata

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from segment_oracle import (REF_TOKEN_RE, oracle_segment, ref_collapse_ws,
                            regex_loop_segment)

from bb_ocr_ray.kernel.extract import domain_of, extract_page
from bb_ocr_ray.kernel.normalize import (_NON_ASCII_WS_RE, _WS_RE, collapse_ws,
                                         decode_html, sniff_charset)

FULL_PAGE = b"""<!doctype html><html><head><meta charset="utf-8"><title>T</title>
<style>body{color:red}</style><script>var x="<p>fake</p>";</script></head>
<body>
<nav><ul><li><a href="/">Home</a></li><li><a href="/a">About</a></li></ul></nav>
<header><h1>Site Title Here</h1></header>
<article><p>First main paragraph with plenty of content text.</p>
<p>Second &amp; paragraph <b>with bold</b> and <a href="x">a link</a> inline.</p></article>
<div class="share"><a href="c">Share</a> <a href="d">Tweet</a></div>
<footer><a href="/p">Privacy</a> | <a href="/t">Terms</a></footer>
</body></html>"""


def rep(blocks, collapse=collapse_ws):
    """Differential view of RawBlocks: every field, plus the collapsed
    text (production's ``collapse_ws``, or the oracle's regex)."""
    return [(*b, collapse(b.raw)) for b in blocks]


def test_full_page_extraction():
    r = extract_page("https://a.example.com/x", FULL_PAGE)
    assert r["status"] == "ok"
    assert r["n_blocks_kept"] == 2
    assert r["text"] == (
        "First main paragraph with plenty of content text.\n\n"
        "Second & paragraph with bold and a link inline."
    )
    # nav/header/footer/share never leak
    for bad in ("Home", "About", "Site Title", "Share", "Tweet", "Privacy", "Terms"):
        assert bad not in r["text"]
    # script/style content never leaks
    assert "fake" not in r["text"]
    assert "color:red" not in r["text"]


def test_span_invariants():
    from bb_ocr_ray.kernel.classify import classify
    from bb_ocr_ray.kernel.segment import segment

    r = extract_page("https://a.example.com/x", FULL_PAGE)
    text, spans = r["text"], r["spans"]
    # reference block texts: the kernel's own classify output
    blocks = classify(segment(decode_html(FULL_PAGE)[0]))
    assert [b.is_content for b in blocks] == [b.is_content for b in r["blocks"]]
    kept = [b for b in blocks if b.is_content]
    assert len(spans) == len(kept) == r["n_blocks_kept"]
    prev_stop = -1
    for (start, stop), blk in zip(spans, kept):
        assert start > prev_stop           # sorted, non-overlapping
        assert text[start:stop] == blk.text  # round-trip
        prev_stop = stop


def test_deterministic_and_idempotent():
    a = extract_page("https://a.example.com/x", FULL_PAGE)
    b = extract_page("https://a.example.com/x", FULL_PAGE)
    assert a == b
    # re-extracting the emitted text (wrapped as trivial html) is stable
    again = extract_page("u", ("<p>" + a["text"] + "</p>").encode())
    assert collapse_ws(again["text"]) == collapse_ws(a["text"].replace("\n\n", " "))


def test_error_as_data_never_raises():
    for html in (None, b"", b"\xff\xfe\x00garbage", b"<" * 1000,
                 b"<p>" + b"\x00" * 100 + b"</p>", b"</div></div>",
                 b"<!doctype html>"):
        r = extract_page("https://x.com/y", html)
        assert r["status"] in ("ok", "empty", "truncated", "parse_error")
        assert isinstance(r["text"], str)


def test_megadoc_truncation_flag():
    from bb_ocr_ray.config import ExtractConfig

    cfg = ExtractConfig(max_html_bytes=1024)
    big = b"<p>" + b"word " * 1000 + b"</p>"
    r = extract_page("https://x.com/mega", big, cfg)
    assert r["status"] == "truncated"
    assert any(s.startswith("truncated:") for s in r["steps_applied"])


def test_charset_declared_latin1():
    html = "<meta charset='latin-1'><p>café au lait près de la gare</p>".encode("latin-1")
    r = extract_page("https://x.com/l1", html)
    assert "café" in r["text"]
    assert sniff_charset(html) == "latin-1"


def test_charset_bom_utf16():
    import codecs

    html = codecs.BOM_UTF16_LE + "<p>utf sixteen content here totally</p>".encode("utf-16-le")
    text, steps = decode_html(html)
    assert "utf sixteen" in text
    assert steps == ["decode:utf-16"]
    assert not text.startswith("\ufeff")    # BOM consumed, not leaked


def test_entity_decode():
    r = extract_page("u", b"<p>Fish &amp; chips &#8212; &lt;tasty&gt; &quot;good&quot;</p>")
    assert r["text"] == 'Fish & chips — <tasty> "good"'


def test_link_density_drops_nav():
    r = extract_page("u", b'<ul><li><a href="/a">One two</a></li>'
                          b'<li><a href="/b">Three four</a></li></ul>')
    assert r["text"] == ""
    assert r["status"] == "empty"


def test_drop_ancestor_subtree():
    r = extract_page("u", b"<footer><p>this footer paragraph is long enough to pass "
                          b"the length rule but must still be dropped</p></footer>")
    assert r["text"] == ""


def test_domain_of():
    assert domain_of("https://Sub.Example.COM:8443/p?q=1") == "sub.example.com"
    assert domain_of("http://user:pw@host.net/x") == "host.net"
    assert domain_of("not a url") == ""


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=400))
def test_property_arbitrary_text_roundtrip(s):
    """Any text wrapped in <p> comes back whitespace-collapsed; spans
    always round-trip."""
    import html as h

    r = extract_page("u", ("<p>" + h.escape(s) + "</p>").encode("utf-8"))
    assert r["status"] in ("ok", "empty")
    if r["text"]:
        for start, stop in r["spans"]:
            assert r["text"][start:stop]
    expected = collapse_ws(s)
    if len(expected) >= 10:
        assert r["text"] == expected


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=2048))
def test_property_arbitrary_bytes_total(data):
    """extract_page is total: arbitrary bytes never raise."""
    r = extract_page("https://f.com/x", data)
    assert r["status"] in ("ok", "empty", "truncated", "parse_error")


def test_arrow_schema_roundtrip():
    from bb_ocr_ray.schema import EXTRACTED_SCHEMA
    from bb_ocr_ray.stages.extract_stage import extract_batch

    recs = [extract_page("https://a.com/1", FULL_PAGE),
            extract_page("https://a.com/2", b"")]
    tbl = extract_batch(pa.table({"url": ["https://a.com/1", "https://a.com/2"],
                                  "html": pa.array([FULL_PAGE, b""], pa.binary())}))
    assert tbl.schema == EXTRACTED_SCHEMA
    assert tbl.num_rows == 2
    back = tbl.to_pylist()
    assert back[0]["text"] == recs[0]["text"]


def _fixture_corpus():
    """Decoded fixture pages (template pages + edge cases), each also with
    every space turned into "\\n  ", or into "&nbsp;" between tags."""
    import re

    import duckdb

    from edge_pages import edge_case_pages

    from bb_ocr_ray.sources.pages import html_for

    docs = duckdb.sql(
        "SELECT doc_id, text FROM '/root/testdata/sf0.001/documents.parquet'"
    ).df()
    pages = [html_for(int(d), t) for d, t in zip(docs.doc_id, docs.text)]
    pages += edge_case_pages().column("html").to_pylist()
    for h in pages:
        nbsp = re.sub(rb">[^<]+", lambda m: m.group(0).replace(b" ", b"&nbsp;"), h)
        for variant in (h, h.replace(b" ", b"\n  "), nbsp):
            yield decode_html(variant)[0]


def _tokens(token_re, s):
    return [(m.span(), m.lastindex, m.groups()) for m in token_re.finditer(s)]


def test_fast_and_stdlib_segmenters_agree():
    """Differential: the production tokenizer loop and the html.parser
    reference (tests/segment_oracle.py) must give identical blocks on the
    whole fixture corpus, also with its whitespace variants (html.parser
    reads "<a&nbsp;href=...>" as another tag name), so the whitespace
    collapse leaves its clean-text fast path."""
    from bb_ocr_ray.kernel.segment import segment

    for t in _fixture_corpus():
        assert rep(segment(t)) == rep(oracle_segment(t), ref_collapse_ws)


def test_possessive_start_tag_same_tokens_on_corpus():
    """The possessive start-tag attribute scan tokenizes the fixture
    corpus exactly like the original backtracking one."""
    from bb_ocr_ray.kernel.segment import _TOKEN_RE

    for t in _fixture_corpus():
        assert _tokens(_TOKEN_RE, t) == _tokens(REF_TOKEN_RE, t)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="<>/ab c&;!-=\"'p", max_size=300))
def test_property_segmenters_never_crash_on_tag_soup(s):
    from bb_ocr_ray.kernel.segment import segment

    fast = segment(s)
    std = oracle_segment(s)
    # both engines are total; on pathological soup they may tokenize
    # differently, but emitted text is always a string and flags sane
    for b in fast + std:
        assert isinstance(collapse_ws(b.raw), str)
        assert b.raw_chars >= b.link_chars >= 0


_SOUP = st.lists(st.sampled_from(
    ["<a", "<b>", "<p>", "</p>", "</a>", "<div x=", '"', "'", ">", " x ", "y\n",
     "<script>", "</script>", "<!--", "-->", "<br/>", "&amp;", "&#1;", "<", "<nav>"]),
    max_size=60).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "<z'", '<z"']), _SOUP)
@example("<z'", '<a "x" >text</a><b \'y\'>more</b>')
def test_property_tokenizer_matches_token_at_a_time_loop(prefix, soup):
    """The production loop (tail mode after a start tag that cannot close,
    one start tag at a time where the closers table says it closes) gives
    exactly the blocks of a plain one-token-per-match loop.  A prefix with
    an unpartnered quote fails the first start tag, so the rest of the
    soup runs in tail mode."""
    from bb_ocr_ray.kernel.segment import segment

    s = prefix + soup
    assert rep(segment(s)) == rep(regex_loop_segment(s), ref_collapse_ws)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from(["", "<z'", '<z"']), _SOUP).map("".join),
                 st.text(alphabet="<>/ab c&;!-=\"'p", max_size=300)))
@example("<a \"x\" y='>' z>t")
def test_property_possessive_start_tag_same_tokens(s):
    """On tag soups the possessive start-tag attribute scan gives the same
    token spans, dispatch groups and captures as the backtracking one: a
    quote can only be consumed by its own quoted branch, so there is
    nothing to backtrack into."""
    from bb_ocr_ray.kernel.segment import _TOKEN_RE

    assert _tokens(_TOKEN_RE, s) == _tokens(REF_TOKEN_RE, s)


def test_collapse_ws_non_ascii_class_is_exact():
    """collapse_ws's split/join branch is exact only if _NON_ASCII_WS_RE
    holds every str.isspace code point outside _WS_RE's six; pin it
    against this Python's Unicode database."""
    all_ws = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    ascii_ws = set(" \t\n\r\f\v")
    assert ascii_ws <= all_ws
    matched = {c for c in all_ws if _NON_ASCII_WS_RE.fullmatch(c)}
    assert matched == all_ws - ascii_ws, unicodedata.unidata_version
    assert not any(_NON_ASCII_WS_RE.fullmatch(chr(c)) for c in range(0x10000)
                   if not chr(c).isspace())


_WS_ALPHABET = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + "ab\x00中文"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=_WS_ALPHABET, max_size=40),
                 st.text(alphabet=" \tab\x00中", max_size=40)))
@example("  a  b  ")
def test_property_collapse_ws_matches_regex(s):
    assert collapse_ws(s) == _WS_RE.sub(" ", s).strip()


# Adversarial 1 MB pages (a Python expression over N = 2**20 bytes each).
# Each must tokenize in linear time: within 40x the CPU of a benign page
# of the same size (worst measured: ~8x, unclosed_tags_then_quoted_gt).
_REDOS_SHAPES = {
    "unclosed_start_tags": 'b"<p>" + b"<a" * (N // 2)',
    "unclosed_quoted_tags": """b'<a "' * (N // 4)""",
    "unclosed_tags_then_quoted_gt": """b"<p>" + b"<a" * (N // 2) + b'">'""",
    "failing_and_closing_tags": """b'<a"<b>"' * (N // 7) + b'"'""",
    "stray_lt": 'b"<p>" + b"< " * (N // 2)',
    "deep_nesting": 'b"<div>" * (N // 5) + b"deep text here"',
    "unterminated_comment": 'b"<p>before the comment</p><!--" + b"x " * (N // 2)',
    "unterminated_script": 'b"<p>before the script</p><script>" + b"x<p>" * (N // 4)',
    "unterminated_textarea": 'b"<p>before the area</p><textarea>" + b"x<p>" * (N // 4)',
    "giant_attribute": """b'<p>a paragraph</p><div title="' + b"x" * N + b'">after</div>'""",
}

_REDOS_CHILD = """
import json, sys, time
from bb_ocr_ray.kernel.extract import extract_page
N = 1 << 20
benign = (b"<div><p>Some ordinary paragraph text, long enough to be kept as content "
          b"by the classifier, with a <a href='/x'>link</a> and <b>bold</b> words.</p>\\n"
          ) * (N // 150)
def run(html):
    t0 = time.process_time()
    status = extract_page("https://x.example.com/p", html)["status"]
    return time.process_time() - t0, status
benign_cpu = sorted(run(benign)[0] for _ in range(3))[1]
cpu, status = run(eval(sys.argv[1]))
print(json.dumps({"cpu": cpu, "benign_cpu": benign_cpu, "status": status}))
"""


@pytest.mark.parametrize("shape", sorted(_REDOS_SHAPES))
def test_fast_tokenizer_no_redos(shape):
    """Adversarial markup must tokenize in linear time and return a typed
    status (unclosed start tags were quadratic: each failed attempt
    scanned to EOF).  Runs in a subprocess with a hard timeout so a
    regression fails instead of hanging the suite."""
    out = subprocess.run([sys.executable, "-c", _REDOS_CHILD, _REDOS_SHAPES[shape]],
                         capture_output=True, text=True, timeout=120, check=True,
                         cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    r = json.loads(out.stdout.strip().splitlines()[-1])
    assert r["status"] in ("ok", "empty", "truncated", "parse_error")
    assert r["cpu"] <= 40 * r["benign_cpu"], r


def test_unquoted_attr_trailing_slash_not_selfclosing():
    """Review regression: href=http://x.com/ is a value, not a
    self-close; fast and stdlib engines must agree on link density."""
    from bb_ocr_ray.kernel.segment import segment

    s = '<p><a href=http://x.com/>some link text here</a> rest of text</p>'
    assert rep(segment(s)) == rep(oracle_segment(s), ref_collapse_ws)
    assert segment(s)[0].link_chars > 0


def test_truncation_never_mojibakes_utf8():
    """Review regression: byte truncation backs off to a UTF-8 boundary
    instead of flipping the document to latin-1."""
    from bb_ocr_ray.config import ExtractConfig

    body = ("<p>" + "café au lait " * 200 + "</p>").encode("utf-8")
    for cap in range(1000, 1016):
        r = extract_page("u", body, ExtractConfig(max_html_bytes=cap))
        assert "Ã" not in r["text"]
        assert "decode:latin-1" not in r["steps_applied"]


def test_kernel_review_regressions():
    """Fourth review wave: charset-sniff prescan, stray '<' preservation,
    rawtext boundaries, textarea suppression, truncation hygiene."""
    import codecs

    from bb_ocr_ray.config import ExtractConfig
    from bb_ocr_ray.kernel.segment import segment

    # stray '<' in prose is data, engines agree
    s = "<p>1 < 2 is definitely true here</p>"
    assert rep(segment(s)) == rep(oracle_segment(s), ref_collapse_ws)
    assert "1 < 2" in collapse_ws(segment(s)[0].raw)
    # </styled> must not close <style>
    s = "<body><style>.x{color:red}</styled><p>real paragraph</p></body>"
    assert rep(segment(s)) == rep(oracle_segment(s), ref_collapse_ws) == []
    # textarea content never leaks into page text
    s = ("<body><textarea><p>hello world example</p></textarea>"
         "<p>after text is here</p></body>")
    assert rep(segment(s)) == rep(oracle_segment(s), ref_collapse_ws)
    assert all("hello" not in r[-1] for r in rep(segment(s)))
    # charset in a comment or a description attr must not hijack decoding
    r = extract_page("u", ('<!-- <meta charset="koi8-r"> -->'
                           '<meta charset="utf-8">'
                           "<p>Привет мир дорогой длинный текст</p>").encode())
    assert "Привет" in r["text"]
    r = extract_page("u", b'<meta name="description" '
                          b'content="set charset=shift_jis in html">'
                          b"<p>plain ascii body long enough</p>")
    assert "decode:utf-8" in r["steps_applied"]
    # real http-equiv charset still honored
    r = extract_page("u", ('<meta http-equiv="Content-Type" '
                           'content="text/html; charset=latin-1">'
                           "<p>café latin page long enough</p>").encode("latin-1"))
    assert "café" in r["text"]
    # truncated utf-16 megadoc: lenient decode, never a latin-1 flip
    body = codecs.BOM_UTF16_LE + ("<p>" + "한글 내용 " * 4000 + "</p>").encode("utf-16-le")
    r = extract_page("u", body, ExtractConfig(max_html_bytes=20001))
    assert "decode:latin-1" not in r["steps_applied"]
    assert "한글" in r["text"]
    # dangling half-tag at the cut is trimmed, not emitted as text
    r = extract_page("u", b'<p>good text content here</p><div class="navi',
                     ExtractConfig(max_html_bytes=40))
    assert "class=" not in r["text"]


def test_extract_links_edge_cases():
    """href parsing: quotes/no-quotes, relative/absolute resolution,
    fragment handling, non-http schemes, broken markup never raises."""
    from bb_ocr_ray.kernel.links import extract_links

    html = (
        '<a href="/rel">a</a>'
        "<a href='also'>b</a>"
        '<a class="x" href=/noquote>c</a>'
        '<a href="https://other.org/abs#frag">d</a>'
        '<a href="#only-fragment">e</a>'
        '<a href="">empty</a>'
        '<a href="mailto:x@y.z">mail</a>'
        '<a href="javascript:void(0)">js</a>'
        '<A HREF="../up">case</A>'
        '<a href="//proto.example.com/p">protorel</a>'
        '<a href="/dup">dup</a><a href="/dup">dup</a>'
        '<a no-href>broken</a><a href=>degenerate'
    )
    base = "https://host.example.com/dir/page"
    got = extract_links(html, base)
    assert got == [
        "https://host.example.com/rel",
        "https://host.example.com/dir/also",
        "https://host.example.com/noquote",
        "https://other.org/abs",          # fragment stripped
        "https://host.example.com/up",    # ../ resolved
        "https://proto.example.com/p",    # protocol-relative
        "https://host.example.com/dup",   # duplicates kept (multiset)
        "https://host.example.com/dup",
    ]
