"""The three benchmark workloads: inputs, one closed-loop job, oracle.

Every job runs the engine's public entry points exactly as a user does;
the benchmark only times them, checks their output against the
generator's answer and, in traced mode, wraps them in spans.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import gen
from perfbench.procs import tree_cpu_s
from perfbench.trace import patched

# Input sizes.  Each keeps its workload's page-size profile; one job takes
# about 3-9 s at 2 CPUs on a 4-core x86 VM, so a run is a few jobs and
# 4 + 22 x 3 runs fit the harness's time budget.
SMALL_DOCS = 24000            # ~1 KB template pages, 238 of them megadocs
N_PARTITIONS = 8              # the production resumable partition count
HEAVY_PAGES = 160             # 30-100 KB pages; 1 is a 2-4 MB megadoc
HEAVY_FRAGMENTS = 16
DEDUP_DOCS = 4000
DEDUP_FRAGMENTS = 8


@dataclass
class JobResult:
    elapsed_s: float
    cpu_s: float                       # CPU time of the driver and its Ray workers
    docs: int
    html_bytes: int
    out_bytes: int
    attempted: int = 0                 # rows the oracle checked
    failed: int = 0                    # missing, duplicated or wrong rows
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)   # per-layer timings/counts
    datasets: list = field(default_factory=list)  # executed Ray Datasets
    window: tuple = (0.0, 0.0)         # monotonic start and end of the job call


def parquet_bytes(paths: list) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _parquet_files(root: str, pattern: str = "**/*.parquet") -> list:
    return sorted(glob.glob(os.path.join(root, pattern), recursive=True))


def _read_columns(files: list, columns: list) -> pa.Table:
    tables = [pq.read_table(f, columns=columns) for f in files]
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables(tables)


def check_text_per_url(table: pa.Table, expected: dict) -> tuple:
    """(attempted, failed, problems): byte-identical text per url, no
    missing, duplicate or unexpected url."""
    seen: dict = {}
    failed, problems = 0, []
    for url, text in zip(table.column("url").to_pylist(),
                         table.column("text").to_pylist()):
        if url in seen:
            failed += 1
            problems.append(f"duplicate url {url}")
            continue
        seen[url] = text
        want = expected.get(url)
        if want is None:
            failed += 1
            problems.append(f"unexpected url {url}")
        elif text != want:
            failed += 1
            problems.append(f"text differs for {url} ({len(text or '')} vs {len(want)} chars)")
    missing = [u for u in expected if u not in seen]
    failed += len(missing)
    problems += [f"missing url {u}" for u in missing[:5]]
    return max(len(expected), len(seen)), failed, problems


def content_digest(table: pa.Table) -> str:
    """sha256 over sorted (url, text) pairs: covers content, not lengths."""
    h = hashlib.sha256()
    for url, text in sorted(zip(table.column("url").to_pylist(),
                                table.column("text").to_pylist())):
        h.update(url.encode() + b"\x1f" + (text or "").encode() + b"\x1e")
    return h.hexdigest()


class Clock:
    """Wall time and process-tree CPU time of the ``with`` body."""

    def __enter__(self):
        self.wall, self.cpu = time.perf_counter(), tree_cpu_s()
        return self

    def __exit__(self, *_exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = tree_cpu_s() - self.cpu


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# inputs (cached per workload and seed)
# ---------------------------------------------------------------------------
def prepare(name: str, seed: int, cache_root: str) -> dict:
    """Generate (or reuse) the inputs of ``name`` for ``seed``."""
    size = {"resumable-small-pages": SMALL_DOCS, "heavy-pages": HEAVY_PAGES,
            "dedup-rollup": DEDUP_DOCS}[name]
    with open(gen.__file__, "rb") as f:        # a generator change is a new input
        version = hashlib.sha1(f.read()).hexdigest()[:8]
    d = os.path.join(cache_root, f"{name}-s{seed}-n{size}-{version}")
    meta_path = os.path.join(d, "meta.json")
    if not os.path.exists(meta_path):
        _fresh(d)
        if name == "resumable-small-pages":
            from bb_ocr_ray.sources.pages import pages_batch

            expected = gen.make_documents(seed, d, SMALL_DOCS)
            html = pages_batch(pq.read_table(os.path.join(d, "documents.parquet")))["html"]
            meta = {"input": ".", "docs": SMALL_DOCS, "html_bytes": _total_len(html)}
        elif name == "heavy-pages":
            expected = gen.make_heavy_pages(seed, os.path.join(d, "pages"),
                                            HEAVY_PAGES, HEAVY_FRAGMENTS)
            html = pq.read_table(os.path.join(d, "pages"), columns=["html"])["html"]
            meta = {"input": "pages", "docs": HEAVY_PAGES, "html_bytes": _total_len(html)}
        else:
            answer = gen.make_dedup_corpus(seed, os.path.join(d, "docs"),
                                           DEDUP_DOCS, DEDUP_FRAGMENTS)
            expected = None
            meta = {"input": "docs", "docs": DEDUP_DOCS,
                    "html_bytes": sum(v[1] for v in answer.domain_stats.values()),
                    "kept_ids": answer.kept_ids,
                    "domain_stats": answer.domain_stats}
        if expected is not None:
            pq.write_table(pa.table({"url": list(expected),
                                     "text": list(expected.values())}),
                           os.path.join(d, "expected.parquet"))
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)      # cache entry complete
    with open(meta_path) as f:
        meta = json.load(f)
    meta["input"] = os.path.normpath(os.path.join(d, meta["input"]))
    exp_path = os.path.join(d, "expected.parquet")
    if os.path.exists(exp_path):
        t = pq.read_table(exp_path)
        meta["expected"] = dict(zip(t.column("url").to_pylist(),
                                    t.column("text").to_pylist()))
    return meta


def _total_len(binary_column) -> int:
    return int(pa.compute.sum(pa.compute.binary_length(binary_column)).as_py())


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------
def heavy_job(inp: dict, out: str) -> JobResult:
    """read_parquet -> extract_pages -> write_parquet."""
    import ray.data as rd

    from bb_ocr_ray.pipelines.extract_pipeline import extract_pages

    _fresh(out)
    with Clock() as clock:
        ds = extract_pages(rd.read_parquet(inp["input"]))
        ds.write_parquet(out)
    files = _parquet_files(out)
    res = JobResult(clock.wall, clock.cpu, inp["docs"], inp["html_bytes"],
                    parquet_bytes(files), datasets=[ds])
    res.attempted, res.failed, res.problems = check_text_per_url(
        _read_columns(files, ["url", "text"]), inp["expected"])
    return res


def plain_small_job(inp: dict, out: str) -> JobResult:
    """The resumable workload's input through extract_pages +
    write_parquet without the runner (traced mode's overhead reference)."""
    from bb_ocr_ray.pipelines.extract_pipeline import extract_from_sf_dir

    _fresh(out)
    with Clock() as clock:
        ds = extract_from_sf_dir(inp["input"])
        ds.write_parquet(out)
    files = _parquet_files(out)
    res = JobResult(clock.wall, clock.cpu, inp["docs"], inp["html_bytes"],
                    parquet_bytes(files), datasets=[ds])
    res.attempted, res.failed, res.problems = check_text_per_url(
        _read_columns(files, ["url", "text"]), inp["expected"])
    return res


def resumable_job(inp: dict, out: str) -> JobResult:
    """run_resumable_extract into a fresh directory, then the same call
    again, which must skip every partition and change no content."""
    from bb_ocr_ray.state.manifest import run_resumable_extract

    _fresh(out)
    with Clock() as clock:
        first = run_resumable_extract(inp["input"], out, n_partitions=N_PARTITIONS)
    files = _parquet_files(out, "part-*/**/*.parquet")
    table = _read_columns(files, ["url", "text"])
    digest = content_digest(table)
    t1 = time.perf_counter()
    second = run_resumable_extract(inp["input"], out, n_partitions=N_PARTITIONS)
    rerun_s = time.perf_counter() - t1
    res = JobResult(clock.wall, clock.cpu, inp["docs"], inp["html_bytes"],
                    parquet_bytes(files),
                    layers={"run_s": clock.wall, "rerun_s": rerun_s})
    res.attempted, res.failed, res.problems = check_text_per_url(table, inp["expected"])
    after = _read_columns(_parquet_files(out, "part-*/**/*.parquet"), ["url", "text"])
    if first != (N_PARTITIONS, 0):
        res.problems.append(f"first call ran/skipped {first}")
        res.failed += 1
    if second != (0, N_PARTITIONS):
        res.problems.append(f"second call ran/skipped {second}, expected all skipped")
        res.failed += 1
    if content_digest(after) != digest:
        res.problems.append("second call changed the output content digest")
        res.failed += 1
    return res


def dedup_job(inp: dict, out: str) -> JobResult:
    """domain_stats and near_dup_dedup over the extracted-shape table,
    each written to Parquet."""
    import ray.data as rd

    from bb_ocr_ray.stages.dedup import near_dup_dedup
    from bb_ocr_ray.stages.domain_agg import domain_stats

    _fresh(out)
    with Clock() as clock:
        t0 = time.perf_counter()
        stats_ds = domain_stats(rd.read_parquet(inp["input"]))
        stats_ds.write_parquet(os.path.join(out, "domain_stats"))
        t1 = time.perf_counter()
        kept_ds = near_dup_dedup(rd.read_parquet(inp["input"]))
        kept_ds.write_parquet(os.path.join(out, "kept"))
        t2 = time.perf_counter()
    files = _parquet_files(out)
    res = JobResult(clock.wall, clock.cpu, inp["docs"], inp["html_bytes"],
                    parquet_bytes(files),
                    layers={"domain_stats_s": t1 - t0, "near_dup_dedup_s": t2 - t1},
                    datasets=[stats_ds, kept_ds])
    stats = _read_columns(_parquet_files(os.path.join(out, "domain_stats")),
                          ["domain", "n_docs", "html_bytes", "extracted_chars", "n_errors"])
    got = {r["domain"]: [r["n_docs"], r["html_bytes"], r["extracted_chars"], r["n_errors"]]
           for r in stats.to_pylist()}
    want = inp["domain_stats"]
    bad_domains = sorted(d for d in set(got) | set(want) if got.get(d) != want.get(d))
    if stats.num_rows != len(got):
        bad_domains.append("<duplicate domain rows>")
    kept = sorted(pq.read_table(os.path.join(out, "kept"), columns=["doc_id"])
                  .column("doc_id").to_pylist())
    want_kept = inp["kept_ids"]
    wrong_ids = len(set(kept) ^ set(want_kept)) + (len(kept) - len(set(kept)))
    res.attempted = inp["docs"] + len(want)
    res.failed = wrong_ids + len(bad_domains)
    res.problems = ([f"domain tallies differ: {bad_domains[:5]}"] if bad_domains else []) + (
        [f"{wrong_ids} kept ids differ from the planted clusters' minima"] if wrong_ids else [])
    return res


# ---------------------------------------------------------------------------
# in-process single-thread baseline (traced mode): read -> extract -> write
# ---------------------------------------------------------------------------
def baseline(name: str, inp: dict, out: str, tracer, kernel_targets: list) -> tuple:
    """The extraction job in this process with no Ray: per Parquet row
    group, read it, extract_batch it, write it.  Each row group runs
    twice, untraced and traced (the kernel functions replaced by
    ``kernel_targets``), in alternating order so neither side always
    runs first.  Returns (untraced, traced) results."""
    from bb_ocr_ray.sources.pages import pages_batch
    from bb_ocr_ray.stages.extract_stage import extract_batch

    _fresh(out)
    os.makedirs(out)
    if name == "heavy-pages":
        files = _parquet_files(inp["input"])
    else:
        files = [os.path.join(inp["input"], "documents.parquet")]
    units = [(f, g) for f in files for g in range(pq.ParquetFile(f).num_row_groups)]
    sides = {False: {"read": 0.0, "sources": 0.0, "extract": 0.0, "write": 0.0},
             True: {"read": 0.0, "sources": 0.0, "extract": 0.0, "write": 0.0}}
    outputs = {False: [], True: []}

    def one(i, unit, traced):
        step = tracer.wrap if traced else (lambda _name, fn: fn)
        t = sides[traced]
        with patched(kernel_targets if traced else []):
            c0 = time.perf_counter()
            batch = step("baseline.read", pq.ParquetFile(unit[0]).read_row_group)(unit[1])
            c1 = time.perf_counter()
            if name != "heavy-pages":
                batch = step("sources.pages.pages_batch", pages_batch)(batch)
            c2 = time.perf_counter()
            extracted = step("stages.extract_stage.extract_batch", extract_batch)(batch)
            c3 = time.perf_counter()
            step("baseline.write", pq.write_table)(
                extracted, os.path.join(out, f"part-{i:03d}-{int(traced)}.parquet"))
            c4 = time.perf_counter()
        for k, a, b in (("read", c0, c1), ("sources", c1, c2),
                        ("extract", c2, c3), ("write", c3, c4)):
            t[k] += b - a
        outputs[traced].append(extracted)

    # untimed: first calls load lazily imported modules and fill caches
    warm = pq.ParquetFile(files[0]).read_row_group(0).slice(0, 4)
    extract_batch(warm if name == "heavy-pages" else pages_batch(warm))
    for i, unit in enumerate(units):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            one(i, unit, traced)
    html_bytes = inp["html_bytes"]
    results = []
    for traced in (False, True):
        table = pa.concat_tables(outputs[traced])
        files = _parquet_files(out, f"part-*-{int(traced)}.parquet")
        t = sides[traced]
        wall = sum(t.values())      # single-threaded: CPU time is the wall time
        res = JobResult(wall, wall, inp["docs"], html_bytes, parquet_bytes(files),
                        layers=dict(t, table=table))
        res.attempted, res.failed, res.problems = check_text_per_url(table, inp["expected"])
        results.append(res)
    return tuple(results)


JOBS = {"resumable-small-pages": resumable_job, "heavy-pages": heavy_job,
        "dedup-rollup": dedup_job}
