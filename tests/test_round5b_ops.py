"""Round-5 fourth-session operator differentials: URL canonicalization
rules and anchor-text extraction."""

import pytest

from bb_ocr_ray.functions.urls import canonicalize_url


# ---------------------------------------------------------------- urls
@pytest.mark.parametrize("raw,want", [
    # case + default port + fragment
    ("HTTPS://Example.COM:443/a/b?x=1#frag", "https://example.com/a/b?x=1"),
    ("http://example.com:80/", "http://example.com/"),
    # non-default port survives
    ("http://example.com:8080/a", "http://example.com:8080/a"),
    # dot-segment resolution
    ("https://e.com/a/../b/./c", "https://e.com/b/c"),
    ("https://e.com/a/b/..", "https://e.com/a/"),
    ("https://e.com/../../x", "https://e.com/x"),
    # tracking params stripped, rest sorted, blanks kept
    ("https://e.com/p?utm_source=x&b=2&a=1&gclid=g",
     "https://e.com/p?a=1&b=2"),
    ("https://e.com/p?b=&a=1", "https://e.com/p?a=1&b="),
    ("https://e.com/p?UTM_CAMPAIGN=x&z=9", "https://e.com/p?z=9"),
    # empty path becomes /
    ("https://e.com?a=1", "https://e.com/?a=1"),
    # duplicate keys kept, sorted by (key, value)
    ("https://e.com/p?a=2&a=1", "https://e.com/p?a=1&a=2"),
    # trailing slash and duplicate slashes untouched
    ("https://e.com/a/", "https://e.com/a/"),
    ("https://e.com//a//b", "https://e.com//a//b"),
])
def test_canonicalize_url(raw, want):
    assert canonicalize_url(raw) == want
    # idempotent
    assert canonicalize_url(want) == want


# ---------------------------------------------------------- anchor text
def test_extract_anchor_texts_rules():
    from bb_ocr_ray.kernel.links import extract_anchor_texts

    html = ('<a href="/x"><b>Bold</b>\n  link</a>'
            '<a href="#share">Share</a>'          # fragment-only: drop
            '<a href="mailto:a@b">mail</a>'        # scheme: drop
            '<a class=c href=/y>plain</a>'
            '<a href="/img"><img src="i.png"></a>'  # empty text kept
            '<a href="/z?q=1#frag">frag stripped</a>'
            '<a href="/open">never closed')         # unterminated: drop
    got = extract_anchor_texts(html, "https://e.com/base")
    assert got == [
        ("https://e.com/x", "Bold link"),
        ("https://e.com/y", "plain"),
        ("https://e.com/img", ""),
        ("https://e.com/z?q=1", "frag stripped"),
    ]
