"""Build an adversarial sf dir (default /tmp/sf_edge) for oracle-gate hardening.

Injects the edge conditions the clean driver testdata cannot exercise:
NULL / empty / sub-10-char / unicode-punct / whitespace-only document
texts (incl. a short megadoc at doc_id 9090 = 101*90), int64-overflow
and malformed JSON props, NULL event values, sub-second timestamps.
Usage:
    python tools/make_edge_sf.py [dst]
    python tools/check_oracles.py /tmp/sf_edge <queries...>

``tests/test_edge_gate.py`` builds it under a temp dir and runs every
oracle against it.
"""

import os
import shutil
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SRC = "/root/testdata/sf0.001"
DST = "/tmp/sf_edge"


def main(dst: str = DST):
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(dst)
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "embeddings"):
        shutil.copy(f"{SRC}/{t}.parquet", f"{dst}/{t}.parquet")

    docs = pd.read_parquet(f"{SRC}/documents.parquet").head(50)
    # 9101-9103: multi-paragraph docs sharing paragraphs (intra- and
    # inter-doc duplicates for paragraph-level dedup); 9104-9106: PII
    # (emails, +CC phones, IPv4 incl. the version-string false-positive
    # the pattern contract documents, and a phone-inside-email that the
    # sequential cascade must count once).
    para_a = "the shared boilerplate paragraph"
    para_b = "unique to nine one oh one"
    para_c = "another shared block of text"
    extra = pd.DataFrame(
        {"doc_id": [9001, 9002, 9003, 9004, 9005, 9090,
                    9101, 9102, 9103, 9104, 9105, 9106],
         "text": ["tiny", "", None, "café — ünïcode pünct!", "   \t  ",
                  "short!",
                  f"{para_a}\n\n{para_b}\n\n{para_a}",
                  f"{para_c}\n\n{para_a}\n\n\n\ntrailing empty para case",
                  f"{para_c}",
                  "contact bob.smith+spam@example.co.uk or call "
                  "+1 555 123 4567 now",
                  "server at 10.0.0.1 running release 1.2.3.4 — "
                  "café reachable via +44-207-946-0958",
                  "mail +15551234567@sms.gateway.net (phone inside "
                  "an email address)"],
         "lang": ["en"] * 12, "source": ["edge"] * 12})
    extra["n_chars"] = extra["text"].map(
        lambda t: len(t) if isinstance(t, str) else 0)
    docs = pd.concat([docs, extra], ignore_index=True)
    # 9107: NULL n_chars (distinct from 0) — pins the mask-before-cast
    # convention in weight/length consumers (q_weighted_sample et al.).
    docs = pd.concat([docs, pd.DataFrame(
        {"doc_id": [9107], "text": ["null n_chars row"], "lang": ["en"],
         "source": ["edge"], "n_chars": pd.array([None], dtype="Int64")})],
        ignore_index=True)
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   f"{dst}/documents.parquet")

    ev = pd.read_parquet(f"{SRC}/events.parquet").head(200)
    extra_ev = pd.DataFrame(
        {"event_id": [99001, 99002, 99003, 99004, 99005],
         "ts": pd.to_datetime(
             ["2024-01-01 00:10:00.700000", "2024-01-01 01:00:00.000000",
              "2024-01-01 02:00:00.000000",
              # a view/purchase pair EXACTLY 30 s apart: exercises the
              # band-join boundary (<=) and keeps q_band_join non-empty
              "2024-01-01 03:00:00.000000", "2024-01-01 03:00:30.000000"],
             format="ISO8601"),
         "user_id": [1, 1, 2, 3, 3],
         "event_type": ["click", "error", "view", "view", "purchase"],
         "value": [None, 5.0, None, 1.0, 2.0],
         "props": ['{"k": 99999999999999999999999}', "not json at all",
                   '{"k": 7}', "{}", "{}"]})
    extra_ev["ts"] = extra_ev["ts"].astype("datetime64[us]")
    ev = pd.concat([ev, extra_ev], ignore_index=True)
    # three NULL-user rows: pin the repo-wide "user aggregates drop
    # NULL user_id" convention (user oracles filter WHERE user_id IS
    # NOT NULL; pandas groupby drops NaN keys).
    null_users = pd.DataFrame(
        {"event_id": [99101, 99102, 99103],
         "ts": pd.to_datetime(
             ["2024-01-01 04:00:00", "2024-01-01 04:05:00",
              "2024-01-01 04:10:00"]),
         "user_id": pd.array([None, None, None], dtype="Int64"),
         "event_type": ["click", "purchase", "view"],
         "value": [1.0, 9.5, None],
         "props": ["{}", "{}", "{}"]})
    null_users["ts"] = null_users["ts"].astype("datetime64[us]")
    ev = pd.concat([ev, null_users], ignore_index=True)
    # frequency-threshold boundary: pad the non-null-user row count to
    # exactly 375 (a multiple of 125) with DISTINCT filler users
    # (count 1 each), plus one user with EXACTLY 375/125 = 3 events,
    # so a user's count * 125 == n holds with equality.
    n0 = int(ev["user_id"].notna().sum())
    target = 375
    while target < n0 + 3:
        target += 125
    n_fill = target - n0 - 3
    pad = pd.DataFrame(
        {"event_id": 98000 + np.arange(n_fill + 3),
         "ts": pd.to_datetime("2024-01-02 00:00:00")
         + pd.to_timedelta(np.arange(n_fill + 3), unit="min"),
         "user_id": [777001] * 3 + [800000 + i for i in range(n_fill)],
         "event_type": "view",
         "value": 1.0,
         "props": "{}"})
    pad["ts"] = pad["ts"].astype("datetime64[us]")
    ev = pd.concat([ev, pad], ignore_index=True)
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   f"{dst}/events.parquet")
    print(f"wrote {dst}: {len(docs)} docs, {len(ev)} events")


if __name__ == "__main__":
    main(*sys.argv[1:2])
