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
import math
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
    Elementwise identical to ``[md5_hex(s) for s in strings]``."""
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
    minhash).  The decontamination shingles of ``stages.curate``."""
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


# The sketch kernels' whitespace class as a byte table: splitting UTF-8
# bytes on these six is exactly ws_tokens, since no multi-byte UTF-8
# sequence holds an ASCII byte (U+00A0, U+2028 and friends stay inside
# tokens, as in the oracle's RE2 class).
_WS_BYTE = np.zeros(256, dtype=bool)
_WS_BYTE[list(b" \t\n\r\f\v")] = True


def _utf8_column(texts):
    """(data, offsets) of a batch of texts: the UTF-8 bytes of all docs
    as one uint8 array, and int64 offsets (len n+1, from 0) with doc i
    at ``data[offsets[i]:offsets[i+1]]``.  Takes an Arrow string
    column (zero-copy) or any iterable of str; None and null are
    empty."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    arr = pc.fill_null(texts, "").cast(pa.large_string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not len(arr):
        return np.zeros(0, np.uint8), np.zeros(1, np.int64)
    _, off_buf, data_buf = arr.buffers()
    offsets = np.frombuffer(off_buf, np.int64)[arr.offset:arr.offset + len(arr) + 1]
    data = (np.frombuffer(data_buf, np.uint8) if data_buf
            else np.zeros(0, np.uint8))[offsets[0]:offsets[-1]]
    return data, offsets - offsets[0]


def _shingle_slices(texts, k: int):
    """Every doc's word k-shingles as slices of one whitespace-normalized
    UTF-8 buffer: ``(norm, starts, lengths, doc_offsets)``, where
    ``norm[starts[j]:starts[j] + lengths[j]]`` is the UTF-8 of a
    ``_shingles(ws_tokens(text), k)`` string and doc i owns slices
    ``doc_offsets[i]:doc_offsets[i+1]``.  ``norm`` is each doc's tokens
    joined by single spaces, so a shingle (k tokens and their k-1
    separators) is one contiguous slice.  A doc shorter than k tokens
    has its whole text as one shingle; a doc with no token has none.
    Repeated shingles of one doc are NOT collapsed (``_shingles``
    returns a set): MinHash's min does not care, SimHash dedups.
    All numpy, one bool per text byte and a few ints per token."""
    data, offsets = _utf8_column(texts)
    word = ~_WS_BYTE[data]
    edge = np.zeros(len(data) + 1, dtype=bool)     # doc boundaries
    edge[offsets] = True
    tok_start = np.flatnonzero(
        word & (np.concatenate(([True], ~word[:-1])) | edge[:-1]))
    tok_len = np.flatnonzero(
        word & (np.concatenate((~word[1:], [True])) | edge[1:])) + 1 - tok_start
    n_tok = np.diff(np.searchsorted(tok_start, offsets))
    first_tok = np.cumsum(n_tok) - n_tok
    last_tok = first_tok + n_tok - 1
    # a separator follows every token but its doc's last
    sep = np.ones(len(tok_start), dtype=bool)
    sep[last_tok[n_tok > 0]] = False
    keep = word
    keep[(tok_start + tok_len)[sep]] = True
    norm = data[keep]
    norm_start = np.cumsum(tok_len + sep) - (tok_len + sep)
    norm[(norm_start + tok_len)[sep]] = 0x20
    # every token but the last k-1 of its doc starts a shingle of k
    # tokens; a doc of fewer than k tokens is one shingle
    opens = np.ones(len(tok_start), dtype=bool)
    for i in range(1, k):
        opens[(first_tok + n_tok - i)[n_tok - i >= 1]] = False
    first = np.flatnonzero(opens)
    last = first + (k - 1)
    per_doc = np.where(n_tok >= k, n_tok - k + 1, np.minimum(n_tok, 1))
    doc_offsets = np.concatenate(([0], np.cumsum(per_doc)))
    short = (n_tok > 0) & (n_tok < k)
    last[doc_offsets[:-1][short]] = last_tok[short]
    starts = norm_start[first]
    return norm, starts, norm_start[last] + tok_len[last] - starts, doc_offsets


# MD5 (RFC 1321) round constants
_MD5_K = np.array([int(abs(math.sin(i + 1)) * 2 ** 32) & 0xFFFFFFFF
                   for i in range(64)], dtype=np.uint32)
_MD5_S = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + \
         [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
_MD5_G = (list(range(16)) + [(5 * i + 1) % 16 for i in range(16)]
          + [(3 * i + 5) % 16 for i in range(16)]
          + [(7 * i) % 16 for i in range(16)])
# messages of up to this many 64-byte blocks (247 bytes) hash in numpy;
# longer ones (rare: a shingle of very long tokens) go through hashlib,
# which keeps every numpy pass to a few short block loops
_MD5_MAX_BLOCKS = 4
_MD5_CHUNK = 1 << 14            # messages per numpy pass (<= 4 MiB)


def _md5_compress(words: np.ndarray, n_blocks: int) -> list:
    """MD5 state words (a, b, c, d) of each padded message: ``words``
    is (m, 16 * n_blocks) little-endian uint32, one message per row."""
    m = len(words)
    state = [np.full(m, v, dtype=np.uint32)
             for v in (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)]
    for blk in range(n_blocks):
        x = np.ascontiguousarray(words[:, 16 * blk:16 * blk + 16].T)
        a, b, c, d = state
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
            elif i < 32:
                f = (d & b) | (~d & c)
            elif i < 48:
                f = b ^ c ^ d
            else:
                f = c ^ (b | ~d)
            f += a
            f += _MD5_K[i]
            f += x[_MD5_G[i]]
            s = _MD5_S[i]
            a, d, c, b = d, c, b, b + ((f << s) | (f >> (32 - s)))
        state = [state[0] + a, state[1] + b, state[2] + c, state[3] + d]
    return state


def md5_slices(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """MD5 of each byte slice ``buf[starts[j]:starts[j] + lengths[j]]``
    as two uint64 arrays ``(lo, hi)``: the digest's bytes 0-7 and 8-15
    read little-endian, so ``lo[j]`` is :func:`stable_u64` of the
    slice's text.  Vectorized across slices: each message block is
    gathered as one row of a strided window over ``buf`` and padded in
    place, ``_MD5_CHUNK`` messages at a time."""
    from numpy.lib.stride_tricks import as_strided

    n = len(starts)
    lo = np.empty(n, dtype=np.uint64)
    hi = np.empty(n, dtype=np.uint64)
    n_blocks = (lengths + 8) // 64 + 1
    for j in np.flatnonzero(n_blocks > _MD5_MAX_BLOCKS).tolist():
        d = hashlib.md5(buf[starts[j]:starts[j] + lengths[j]].tobytes()).digest()
        lo[j] = int.from_bytes(d[:8], "little")
        hi[j] = int.from_bytes(d[8:], "little")
    padded = np.zeros(len(buf) + 64 * _MD5_MAX_BLOCKS, dtype=np.uint8)
    padded[:len(buf)] = buf
    for nb in range(1, _MD5_MAX_BLOCKS + 1):
        width = 64 * nb
        windows = as_strided(padded, shape=(len(padded) - width + 1, width),
                             strides=(1, 1), writeable=False)
        cols = np.arange(width)
        idx = np.flatnonzero(n_blocks == nb)
        for at in range(0, len(idx), _MD5_CHUNK):
            sel = idx[at:at + _MD5_CHUNK]
            ln = lengths[sel]
            msg = windows[starts[sel]]
            msg[cols >= ln[:, None]] = 0
            msg[np.arange(len(sel)), ln] = 0x80
            msg[:, width - 8:] = (ln.astype("<u8") * np.uint64(8)
                                  ).view(np.uint8).reshape(-1, 8)
            a, b, c, d = _md5_compress(msg.view("<u4"), nb)
            lo[sel] = a.astype(np.uint64) | (b.astype(np.uint64) << np.uint64(32))
            hi[sel] = c.astype(np.uint64) | (d.astype(np.uint64) << np.uint64(32))
    return lo, hi


def minhash_signatures_batch(texts, k: int = 3,
                             n_perm: int = _N_PERM) -> np.ndarray:
    """MinHash signatures for a whole batch: (len(texts), n_perm) uint64,
    row i == ``minhash_signature(texts[i])`` exactly (pinned by a
    differential test).  ``texts`` is an Arrow string column (read
    zero-copy) or any iterable of str.

    The shingles never become Python strings: :func:`_shingle_slices`
    cuts them from the batch's UTF-8 buffer and :func:`md5_slices`
    hashes them all in numpy (the SQL oracles mirror stable_u64, so the
    hash function is load-bearing).  Then permute+min per doc exactly
    like :func:`minhash_signature`; measured alternatives to that
    last step (2000 docs, 40-400 tokens, 3 reps):

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

    A shingle repeated within a doc is hashed and permuted again but
    cannot move the min."""
    norm, starts, lengths, offsets = _shingle_slices(texts, k)
    sigs = np.full((len(offsets) - 1, n_perm), np.iinfo(np.uint64).max,
                   dtype=np.uint64)
    if not len(starts):
        return sigs
    base, _ = md5_slices(norm, starts, lengths)
    a, b = _PERM_A[None, :n_perm], _PERM_B[None, :n_perm]
    bounds = offsets.tolist()
    for i in range(len(sigs)):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            sigs[i] = ((base[lo:hi, None] * a + b) % MERSENNE).min(axis=0)
    return sigs


def simhash_batch(texts, k: int = 2) -> np.ndarray:
    """SimHash for a whole batch: uint64[len(texts)], elementwise equal
    to ``simhash`` (same shingle kernel as
    :func:`minhash_signatures_batch`, then a per-doc bit fold; the
    unique-gather bit matrix was rejected for the same instability).
    SimHash counts each DISTINCT shingle once, so a doc's repeated
    shingles are dropped first, keyed on the full 128-bit digest."""
    norm, starts, lengths, offsets = _shingle_slices(texts, k)
    n_docs = len(offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if not len(starts):
        return out
    lo, hi = md5_slices(norm, starts, lengths)
    doc = np.repeat(np.arange(n_docs), np.diff(offsets))
    order = np.lexsort((hi, lo, doc))
    lo, hi, doc = lo[order], hi[order], doc[order]
    new = np.ones(len(lo), dtype=bool)
    new[1:] = (doc[1:] != doc[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    h, doc = lo[new], doc[new]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=n_docs)))
                            ).tolist()
    shifts = np.arange(_SIMHASH_BITS, dtype=np.uint64)[None, :]
    weights = (np.uint64(1) << np.arange(_SIMHASH_BITS, dtype=np.uint64))
    for i in range(n_docs):
        lo_i, hi_i = bounds[i], bounds[i + 1]
        if hi_i > lo_i:
            counts = ((h[lo_i:hi_i, None] >> shifts) & 1).astype(
                np.int64).sum(axis=0)
            out[i] = ((counts * 2 > (hi_i - lo_i))
                      * weights).sum(dtype=np.uint64)
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

