"""Self-tests of the benchmark.  Run from the repository root:

    python -m pytest perfbench -q -p no:cacheprovider

The smoke runs start Ray and take about a minute per workload and mode.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import gen
from perfbench.trace import Tracer, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------
def test_self_time_subtracts_children_union():
    # parent 0..100 with children 10..30, 20..50 (overlapping) and 90..120
    # (sticking out): covered = 10..50 (40) + 90..100 (10) -> self 50
    spans = [(0, -1, "p", 0, 100), (1, 0, "c", 10, 30), (2, 0, "c", 20, 50),
             (3, 0, "c", 90, 120), (4, 1, "g", 12, 18)]
    s = summarize(spans)
    assert s["p"] == {"count": 1, "total_ns": 100, "self_ns": 50}
    # c spans: 20 + 30 + 30 long; only the first has a child (6 ns)
    assert s["c"] == {"count": 3, "total_ns": 80, "self_ns": 74}
    assert s["g"] == {"count": 1, "total_ns": 6, "self_ns": 6}


def test_tracer_nests_and_self_times_add_up():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    tr.wrap("outer", lambda: [inner() for _ in range(3)])()
    s = summarize(tr.spans)
    parents = {sid: parent for sid, parent, *_ in tr.spans}
    outer_id = next(sid for sid, _p, name, *_ in tr.spans if name == "outer")
    assert [p for sid, p in parents.items() if sid != outer_id] == [outer_id] * 3
    # self times of the whole tree add up to the root's duration
    assert s["outer"]["self_ns"] + s["inner"]["self_ns"] == s["outer"]["total_ns"]


# ---------------------------------------------------------------------------
# generator determinism
# ---------------------------------------------------------------------------
def _digest_tree(root: str) -> str:
    h = hashlib.sha256()
    for d, _dirs, files in sorted(os.walk(root)):
        for f in sorted(files):
            h.update(f.encode())
            with open(os.path.join(d, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("make", [
    lambda seed, d: gen.make_documents(seed, d, 300),
    lambda seed, d: gen.make_heavy_pages(seed, d, 8, 2),
    lambda seed, d: gen.make_dedup_corpus(seed, d, 300, 2),
], ids=["documents", "heavy-pages", "dedup-corpus"])
def test_generators_are_deterministic(tmp_path, make):
    a = make(7, str(tmp_path / "a"))
    b = make(7, str(tmp_path / "b"))
    c = make(8, str(tmp_path / "c"))
    assert _digest_tree(str(tmp_path / "a")) == _digest_tree(str(tmp_path / "b"))
    assert _digest_tree(str(tmp_path / "a")) != _digest_tree(str(tmp_path / "c"))
    assert a == b


def test_dedup_answer_matches_planted_clusters(tmp_path):
    import pyarrow.parquet as pq

    ans = gen.make_dedup_corpus(3, str(tmp_path), 400, 2)
    t = pq.read_table(str(tmp_path))
    texts = dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))
    vocab = {i: set(x.split(" ")) for i, x in texts.items()}
    group = {i: re.match(r"g\d+", x).group() for i, x in texts.items()}
    # unrelated docs share no token; docs of one cluster stay >= 0.9 Jaccard
    for i in list(texts)[:60]:
        for j in texts:
            if i == j:
                continue
            inter = len(vocab[i] & vocab[j])
            if group[i] != group[j]:
                assert inter == 0
            else:
                assert inter / len(vocab[i] | vocab[j]) >= 0.9
    kept = {min(i for i in texts if group[i] == g) for g in set(group.values())}
    assert sorted(kept) == ans.kept_ids
    assert sum(v[0] for v in ans.domain_stats.values()) == 400


# ---------------------------------------------------------------------------
# smoke run: metric names and units match BENCHMARK.json
# ---------------------------------------------------------------------------
def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_smoke_run_reports_declared_metrics(workload, trace):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
