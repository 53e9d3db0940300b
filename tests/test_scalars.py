"""Scalar-extractor + validation unit tests (operator parity with the
reference's regex heuristics layer and business rules, SURVEY.md §2.8/M12)."""

from bb_ocr_ray.functions.scalars import (
    extract_isbns,
    extract_price,
    extract_publisher,
    extract_title_author,
    extract_year,
    parse_amount,
)
from bb_ocr_ray.functions.validate import validate_record


def test_isbn13():
    i13, _ = extract_isbns("ISBN-13: 978-0-306-40615-7 listed")
    assert i13 == "9780306406157"


def test_isbn10():
    _, i10 = extract_isbns("ISBN: 0-306-40615-2")
    assert i10 == "0306406152"


def test_isbn10_x_checkdigit():
    _, i10 = extract_isbns("ISBN 043942089X hardback")
    assert i10 == "043942089X"


def test_year_priority_copyright():
    assert extract_year("first printed 1950, © 1987 Books Inc") == 1987


def test_year_labeled_and_bare():
    assert extract_year("Published in 1923 by someone") == 1923
    assert extract_year("the 1844 edition") == 1844
    assert extract_year("page 123 of 456") is None


def test_publisher_suffix_and_gazetteer():
    assert extract_publisher("printed by Acme Press in Boston") == "Acme Press"
    assert extract_publisher("a penguin classic") == "Penguin"
    assert extract_publisher("no publisher here") is None


def test_price_parse_separators():
    assert parse_amount("1.234,56") == 1234.56
    assert parse_amount("1,234.56") == 1234.56
    assert parse_amount("15") == 15.0
    assert parse_amount("not a number") is None


def test_price_currency_forms():
    assert extract_price("costs $12.50 new") == ("USD", 12.5)
    assert extract_price("price: 9,99 eur") == ("EUR", 9.99)
    assert extract_price("free!") == (None, None)


def test_title_author_lines():
    t, a = extract_title_author("The Great Book\nby John Smith\n1999")
    assert t == "The Great Book"
    assert a == "John Smith"


def test_validate_valid_record():
    r = validate_record({"title": "A Book", "authors": ["X"], "isbn_10": "0306406152",
                         "isbn_13": "9780306406157", "page_count": 200})
    assert r["valid"] is True
    assert r["validation_error"] is None


def test_validate_missing_title_fails():
    r = validate_record({"title": None})
    assert r["valid"] is False
    assert "title" in r["validation_error"]


def test_validate_bad_isbn_length_fails():
    r = validate_record({"title": "T", "isbn_10": "123"})
    assert r["valid"] is False
    assert "isbn_10" in r["validation_error"]


def test_validate_null_arrays_coerced():
    r = validate_record({"title": "T", "authors": None, "categories": None})
    assert r["authors"] == [] and r["categories"] == []
    assert r["valid"] is True


def test_assemble_prompt_numbering_and_cap():
    from bb_ocr_ray.functions.templates import assemble_prompt

    p = assemble_prompt(["short one", "x" * 400, "short two"],
                        max_chars_per_section=330)
    assert "[context 1]\nshort one" in p
    assert "[context 2]\nshort two" in p       # over-long section dropped
    assert "xxx" not in p
    assert p == assemble_prompt(["short one", "x" * 400, "short two"])


def test_json_repair_paths():
    from bb_ocr_ray.functions.jsonrepair import repair_json

    obj, err = repair_json('```json\n{"title": "A Book", "year": 1999}\n```')
    assert err is None and obj["title"] == "A Book"
    obj, err = repair_json('Sure! Here is the data: {"a": 1} Hope it helps.')
    assert err is None and obj == {"a": 1}
    obj, err = repair_json('{"title": "<string|null>", "n": <integer>}')
    assert err is None and obj == {"title": None, "n": None}
    obj, err = repair_json("no braces at all")
    assert obj is None and "no JSON" in err
    obj, err = repair_json('{"broken": ')
    assert obj is None and "JSON" in err
    obj, err = repair_json("")
    assert obj is None


def test_json_repair_reference_stubs():
    """The reference's own bracket-free template stubs repair to null/[]
    and markup inside legitimate values is untouched (review findings)."""
    from bb_ocr_ray.functions.jsonrepair import repair_json

    obj, err = repair_json(
        '{"title": "string | null", "year": "YYYY | null", '
        '"page_count": "integer | null", "authors": ["string", "..."] | []}')
    assert err is None
    assert obj == {"title": None, "year": None, "page_count": None,
                   "authors": []}
    obj, err = repair_json('{"description": "A tale of <i>great</i> renown"}')
    assert err is None
    assert obj["description"] == "A tale of <i>great</i> renown"


def test_registrable_domain():
    from bb_ocr_ray.functions.scalars import registrable_domain as rd

    assert rd("shop.a.co.uk") == "a.co.uk"      # 2-level public suffix
    assert rd("a.b.site.com") == "site.com"     # deep subdomain
    assert rd("site.org") == "site.org"         # already registrable
    assert rd("co.uk") == "co.uk"               # bare suffix: unchanged
    assert rd("CDN1.Site3.Co.JP") == "site3.co.jp"   # case-folded
    assert rd("host.example.com.") == "example.com"  # trailing dot
    assert rd("") == ""


# ---------------------------------------------------------------------------
# PII redaction cascade (functions/pii.py)
# ---------------------------------------------------------------------------
def test_pii_redact_cascade_counts_each_category_once():
    from bb_ocr_ray.functions.pii import redact_text

    clean, ne, np_, ni = redact_text(
        "contact bob.smith+spam@example.co.uk or call +1 555 123 4567 now")
    assert clean == "contact <EMAIL> or call <PHONE> now"
    assert (ne, np_, ni) == (1, 1, 0)


def test_pii_redact_phone_inside_email_counted_as_email_only():
    from bb_ocr_ray.functions.pii import redact_text

    clean, ne, np_, ni = redact_text("mail +15551234567@sms.gateway.net x")
    assert clean == "mail <EMAIL> x"
    assert (ne, np_, ni) == (1, 0, 0)


def test_pii_redact_ipv4_and_documented_version_false_positive():
    from bb_ocr_ray.functions.pii import redact_text

    clean, ne, np_, ni = redact_text("host 10.0.0.1 runs release 1.2.3.4")
    assert clean == "host <IP> runs release <IP>"
    assert (ne, np_, ni) == (0, 0, 2)


def test_pii_redact_null_and_clean_text_passthrough():
    from bb_ocr_ray.functions.pii import redact_text

    assert redact_text(None) == ("", 0, 0, 0)
    assert redact_text("no pii here at all") == ("no pii here at all", 0, 0, 0)


def test_pii_unicode_digit_not_matched():
    # RE2 classes are ASCII-only; the explicit [0-9] classes keep the
    # Python side identical (\\d would match Arabic-Indic digits).
    from bb_ocr_ray.functions.pii import redact_text

    text = "١٢٣.١.١.١ not an ip"
    assert redact_text(text)[0] == text


