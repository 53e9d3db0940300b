"""Edge-case fixture pages (FIXTURES.md §1 edge rows): tiny, test-only.

The golden byte-identity set (``fixtures/golden_edge_cases.parquet``,
frozen by ``fixtures/make_golden.py``), the kernel differential and the
pipeline tests all read these rows.  Import it as ``from edge_pages
import edge_case_pages``: pytest puts ``tests/`` on ``sys.path``.
"""

import pyarrow as pa

from bb_ocr_ray.schema import PAGES_SCHEMA
from bb_ocr_ray.sources.pages import EPOCH


def edge_case_pages() -> pa.Table:
    rows = []

    def add(slug: str, html: bytes, text: str = "", lang: str = "en"):
        rows.append(
            {
                "url": f"https://edge.example.com/{slug}",
                "warc_ts": EPOCH.replace(tzinfo=None),
                "html": html,
                "text": text,
                "lang": lang,
            }
        )

    add("empty", b"")
    add("whitespace-only", b"   \n\t  ")
    add("comment-only", b"<!-- nothing here --><!-- still nothing -->")
    add("no-body", b"<p>fragment without body wrapper but long enough</p>")
    add("megadoc", b"<article>" + b"<p>repeated paragraph content block here</p>" * 50_000 + b"</article>")
    add("deep-nest", b"<div>" * 200 + b"<p>deeply nested content paragraph text</p>" + b"</div>" * 200)
    add("pure-nav", b'<ul><li><a href="/a">One</a></li><li><a href="/b">Two</a></li><li><a href="/c">Three four five six</a></li></ul>')
    add("malformed", b"<div><p>unclosed <b>tags here with plenty of text</div><//p>")
    add("entities", b"<p>Fish &amp; chips &#8212; cost &lt;5&gt; &quot;euros&quot; total</p>")
    add("latin1-declared", "<meta charset=\"latin-1\"><p>café au lait près de la gare</p>".encode("latin-1"))
    # --- hand-written hostile pages (VERDICT r4 item 7): the golden
    # byte-identity set must cover real crawl pathologies, not only
    # template-synthesized HTML.  Each row is also in the
    # fast-vs-stdlib differential (test_kernel), so engine agreement
    # on these shapes is frozen too.
    add("misnested-inline", b"<p><b>bold <i>then italic</b> still italic?</i> tail text</p>")
    add("implicit-p-close", b"<p>first paragraph text here<p>second paragraph without close")
    add("cdata-section", b"<body><p>before cdata text</p><![CDATA[ raw <p>not markup</p> ]]><p>after cdata text</p></body>")
    add("conditional-comment", b"<!--[if IE 6]><p>ancient browser content</p><![endif]--><p>modern content paragraph here</p>")
    add("unclosed-comment", b"<p>visible lead paragraph</p><!-- unterminated comment <p>swallowed text</p>")
    add("script-escape", b'<body><script>var s = "</script>";</script><p>after script paragraph text</p></body>')
    add("attr-gt-quoted", b'<p data-x="a>b" title="5>4">attribute angle bracket text</p>')
    add("entity-hostile", "<p>&fake; &amp &#xD800; &#x1F600; A&#65;Z &;</p>".encode())
    # mixed charsets MID-document: utf-8 declared and valid up front,
    # then a raw latin-1 byte — decode must fall back whole-document
    add("mixed-charset-bytes", "<meta charset=\"utf-8\"><p>café correct</p>".encode("utf-8") + b"<p>caf\xe9 latin1 byte</p>")
    add("bogus-doctype-pi", b"<?php echo 'x'; ?><!DOCTYPE html PUBLIC bogus><p>after processing instruction</p>")
    add("nested-tables", b"<table><tr><td>cell one text<table><tr><td>inner cell text</td></tr></table></td></tr><caption>capt text</caption></table>")
    add("form-select", b"<body><select><option>opt one</option><option>opt two</option></select><p>after select text here</p></body>")
    # duplicate url pair (dedup test): same url, different warc_ts
    dup_html = b"<p>duplicate page first fetch content body</p>"
    rows.append({"url": "https://edge.example.com/dup", "warc_ts": EPOCH.replace(tzinfo=None),
                 "html": dup_html, "text": "", "lang": "en"})
    rows.append({"url": "https://edge.example.com/dup", "warc_ts": EPOCH.replace(tzinfo=None).replace(hour=1),
                 "html": b"<p>duplicate page second fetch content body</p>", "text": "", "lang": "en"})
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)
