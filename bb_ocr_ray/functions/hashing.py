"""Deterministic hashing primitives: content hash, rolling fingerprint,
minhash, simhash.  All seeds fixed; NEVER Python's builtin hash() (it is
salted per process and would break distributed determinism).

The reference's only hashing is the seen-set dedup keys
(``pipeline_demo/pricing_api/pricing_api/core/aggregator.py:61-69``);
the sketch family here is the scale path SURVEY.md §2.7 calls out as a
design slot (near-dup: simhash + banded minhash).
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np

MERSENNE = (1 << 61) - 1


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def crc32(s: str) -> int:
    """Deterministic 32-bit hash for salting / bucketing."""
    return zlib.crc32(s.encode("utf-8"))


def batch_md5_hex(strings) -> list:
    """md5_hex over a batch with a distinct-string memo: each DISTINCT
    string is hashed once per call (web corpora repeat boilerplate
    lines/paragraphs heavily, and the bench corpus replicates docs).
    Elementwise identical to ``[md5_hex(s) for s in strings]`` — the
    _batch_shingle_hashes precedent applied to whole-line hashing."""
    md5 = hashlib.md5
    memo: dict = {}
    out = []
    for s in strings:
        h = memo.get(s)
        if h is None:
            h = memo[s] = md5(s.encode("utf-8")).hexdigest()
        out.append(h)
    return out


def stable_u64(s: str) -> int:
    """64-bit stable hash from md5 (for shingle/minhash input)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")


def rolling_fingerprint(text: str, base: int = 257, mod: int = MERSENNE) -> int:
    """Polynomial rolling hash over the whole text (document fingerprint).

    Deterministic O(n) Karp-Rabin style fold over the text's
    CODEPOINTS — codepoints rather than utf-8 bytes so the DuckDB
    oracle can mirror the fold exactly with
    ``list_reduce(list_transform(..., i -> ord(substr(t, i, 1))), ...)``
    (encoding-independent content identity; fits int64 since
    mod = 2^61 - 1).
    """
    h = 0
    for ch in text:
        h = (h * base + ord(ch)) % mod
    return h


# ASCII whitespace class, shared with the oracle SQL: Python str.split()
# is unicode-aware (U+00A0 etc.) and would silently diverge from the
# RE2 '[ \t\n\r\f\v]+' the DuckDB mirror uses
_WS_RE = re.compile(r"[ \t\n\r\f\v]+")


def ws_tokens(text: str) -> list:
    return [t for t in _WS_RE.split(text) if t]


def shingle_set(text: str, k: int) -> set:
    """DISTINCT k-token shingles of the ws_tokens stream; docs shorter
    than k yield NONE (decontamination semantics — unlike _shingles
    below, which keeps a short doc's whole text as one shingle for
    minhash).  Shared by q_decontaminate and q_training_prep so their
    overlap semantics cannot drift."""
    tk = ws_tokens(text or "")
    return {" ".join(tk[i:i + k]) for i in range(len(tk) - k + 1)}


def _shingles(tokens: list, k: int) -> set:
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)}


# Fixed minhash permutation parameters (seeded once at import).
_RNG = np.random.RandomState(0xB0CC)
_N_PERM = 128
_PERM_A = _RNG.randint(1, MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _RNG.randint(0, MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)


def minhash_signature(text: str, k: int = 3, n_perm: int = _N_PERM) -> np.ndarray:
    """MinHash signature over word k-shingles (uint64[n_perm]).

    Vectorized: one (n_shingles, n_perm) universal-hash matrix min-reduce.
    """
    tokens = ws_tokens(text)
    sh = _shingles(tokens, k)
    if not sh:
        return np.full(n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = np.fromiter((stable_u64(s) for s in sh), dtype=np.uint64, count=len(sh))
    # (a*x + b) mod p, elementwise outer over permutations
    vals = (base[:, None] * _PERM_A[None, :n_perm] + _PERM_B[None, :n_perm]) % MERSENNE
    return vals.min(axis=0)


def _batch_shingle_hashes(texts, k: int):
    """Per-batch shingle stream: md5 each DISTINCT shingle string once
    (a dict memo — web corpora repeat boilerplate shingles heavily and
    the bench corpus replicates whole docs), return (hashes, offsets)
    where ``hashes[offsets[i]:offsets[i+1]]`` are doc i's shingle
    hashes.  The md5 stays per distinct shingle: the SQL oracles mirror
    stable_u64 exactly, so the hash function is load-bearing."""
    md5 = hashlib.md5
    from_bytes = int.from_bytes
    memo: dict = {}
    hashes: list = []
    offsets = [0]
    for t in texts:
        for s in _shingles(ws_tokens(t or ""), k):
            h = memo.get(s)
            if h is None:
                h = memo[s] = from_bytes(
                    md5(s.encode("utf-8")).digest()[:8], "little")
            hashes.append(h)
        offsets.append(len(hashes))
    return hashes, offsets


def minhash_signatures_batch(texts, k: int = 3,
                             n_perm: int = _N_PERM) -> np.ndarray:
    """MinHash signatures for a whole batch: (len(texts), n_perm) uint64,
    row i == ``minhash_signature(texts[i])`` exactly (pinned by a
    differential test).

    Batching helps exactly where work REPEATS across the batch, and
    only the md5 memo captures that STABLY — measured (2000 docs,
    40-400 tokens, 3 reps):

    * md5 memo per distinct shingle string: free on distinct data
      (~1.00x vs the per-doc function), ~2x on 8x-replicated docs
      (md5 is the per-shingle Python cost).
    * REJECTED — permute the batch's unique hashes once and gather
      per doc: up to 1.8x on replicated docs but 12x SLOWER on
      distinct shingles (the (n_unique x n_perm) matrix becomes
      occurrence-sized: hundreds of MB of DRAM-bound temporaries),
      and even on replicated docs its wall swung 0.7-3.3 s across
      identical reps (large-allocation sensitivity) where the
      per-doc shape held +-5%.
    * REJECTED — one (total_occurrences x n_perm) gather +
      ``np.minimum.reduceat`` at doc offsets: 31x slower on distinct
      shingles; the bench corpus's 8x replication had hidden it.

    So: hash with the memo, then permute+min per doc exactly like
    :func:`minhash_signature` — cache-resident temporaries, stable
    wall, and elementwise-identical output."""
    hashes, offsets = _batch_shingle_hashes(texts, k)
    sigs = np.full((len(texts), n_perm), np.iinfo(np.uint64).max,
                   dtype=np.uint64)
    if not hashes:
        return sigs
    base = np.array(hashes, dtype=np.uint64)
    a, b = _PERM_A[None, :n_perm], _PERM_B[None, :n_perm]
    for i in range(len(texts)):
        lo, hi = offsets[i], offsets[i + 1]
        if hi > lo:
            sigs[i] = ((base[lo:hi, None] * a + b) % MERSENNE).min(axis=0)
    return sigs


def simhash_batch(texts, k: int = 2) -> np.ndarray:
    """SimHash for a whole batch: uint64[len(texts)], elementwise equal
    to ``simhash`` (same measured rationale as
    :func:`minhash_signatures_batch`: md5 memo + per-doc bit fold; the
    unique-gather bit matrix was rejected for the same instability)."""
    hashes, offsets = _batch_shingle_hashes(texts, k)
    out = np.zeros(len(texts), dtype=np.uint64)
    if not hashes:
        return out
    h = np.array(hashes, dtype=np.uint64)
    shifts = np.arange(_SIMHASH_BITS, dtype=np.uint64)[None, :]
    weights = (np.uint64(1) << np.arange(_SIMHASH_BITS, dtype=np.uint64))
    for i in range(len(texts)):
        lo, hi = offsets[i], offsets[i + 1]
        if hi > lo:
            counts = ((h[lo:hi, None] >> shifts) & 1).astype(
                np.int64).sum(axis=0)
            out[i] = ((counts * 2 > (hi - lo))
                      * weights).sum(dtype=np.uint64)
    return out


def minhash_bands(sig: np.ndarray, n_bands: int = 16) -> list:
    """Split a signature into LSH band digests: list of (band_id, band_hash)."""
    rows = len(sig) // n_bands
    out = []
    for b in range(n_bands):
        chunk = sig[b * rows : (b + 1) * rows]
        digest = hashlib.md5(chunk.tobytes()).hexdigest()[:16]
        out.append((b, digest))
    return out


_SIMHASH_BITS = 64


def simhash(text: str, k: int = 2) -> int:
    """64-bit SimHash over word k-shingles (Charikar sketch)."""
    tokens = ws_tokens(text)
    sh = _shingles(tokens, k)
    if not sh:
        return 0
    hashes = np.fromiter((stable_u64(s) for s in sh), dtype=np.uint64, count=len(sh))
    bits = ((hashes[:, None] >> np.arange(_SIMHASH_BITS, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    counts = bits.sum(axis=0)
    vec = counts * 2 > len(sh)
    return int(np.packbits(vec[::-1]).view(">u8")[0])


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def jaccard_tokens(a: set, b: set) -> tuple:
    """Exact token-set Jaccard as an (intersection, union) integer pair —
    integers avoid cross-engine float-rounding drift in oracles."""
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter, union


# ---------------------------------------------------------------------------
# HyperLogLog registers (mergeable cardinality sketch, integer-exact)
# ---------------------------------------------------------------------------
_HLL_BUCKETS = 64          # 2^6 registers
_HLL_SUFFIX_BITS = 58      # hash bits after the bucket index


def hll_bucket_rho(key: str) -> tuple:
    """(bucket, rho) of one key for a 64-register HyperLogLog.

    bucket = low 6 bits of the stable 64-bit hash; rho = 1 + trailing
    zeros of the remaining 58 bits (the all-zero suffix maps to the
    max, 59).  Trailing zeros — not the classical leading zeros — so
    the oracle can mirror it EXACTLY with
    ``bit_count((suffix XOR (suffix - 1)) >> 1)`` for
    ``suffix = h >> 6`` in integer SQL
    (floor(log2()) float tricks misround near 2^58).  Any fixed
    first-one-bit convention yields a valid HLL estimator."""
    h = stable_u64(key)
    bucket = h & (_HLL_BUCKETS - 1)
    suffix = h >> 6
    if suffix == 0:
        return bucket, _HLL_SUFFIX_BITS + 1
    rho = 1 + (((suffix ^ (suffix - 1)) >> 1).bit_count())
    return bucket, min(rho, _HLL_SUFFIX_BITS + 1)


def hll_estimate(registers: dict) -> float:
    """Standard HLL estimate from {bucket: max_rho} (m=64, alpha_64),
    with the small-range linear-counting correction."""
    import math

    m = _HLL_BUCKETS
    alpha = 0.709          # alpha_64 (Flajolet et al. 2007)
    s = sum(2.0 ** -registers.get(b, 0) for b in range(m))
    est = alpha * m * m / s
    zeros = sum(1 for b in range(m) if registers.get(b, 0) == 0)
    if est <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return est

