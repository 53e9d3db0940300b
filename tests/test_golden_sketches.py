"""Frozen golden values for the sketch primitives.

Closes the oracle-coupling gap (VERDICT r3 item 4): the sketch-family
SQL oracles are GENERATED from the engine's own constants, so a wrong
shared constant would pass both sides.  These literals were derived by
an INDEPENDENT from-first-principles script (own md5 calls, own
whitespace split, own permutation table regenerated from the
documented seed spec, min taken over SORTED shingle hashes to also
pin order-independence) and cross-checked against the engine at
freeze time.  This file references NO ``bb_ocr_ray.functions.hashing``
constants — only function calls compared to literals — so any drift
in a seed, permutation table, salt string, register width, or hash
convention fails here even though engine and generated oracle would
still agree with each other.
"""

import numpy as np

T_FOX = "the quick brown fox jumps over the lazy dog"
T_PACK = "pack my box with five dozen liquor jugs"
T_TWO = "one two"

U64_MAX = 18446744073709551615

STABLE_U64 = {
    "alpha": 13789793986099222316,
    "beta": 12870885432699288472,
    "https://site3.example.com/doc-42": 15506263043119111687,
    "cms": 5121817395590663511,
}

FINGERPRINT = {
    T_FOX: 842275882486364954,
    T_PACK: 327872916230182363,
    T_TWO: 32106953832863164,
    "": 0,
}

SIMHASH = {
    T_FOX: 18164004928909609,
    T_PACK: 2290797149754925088,
    T_TWO: 17497428003016401578,
    "": 0,
}

MINHASH_FIRST8 = {
    T_FOX: [702777424137578385, 192458507478763342, 369543685629866360,
            111651959020496089, 858602184866373767, 118476164243978564,
            683544547962448262, 17330618906487208],
    T_PACK: [469475596960406396, 18844269728122192, 76623933377769528,
             299762150857191724, 206869188667746177, 288186883717469612,
             36545282994824834, 728827333012766463],
    T_TWO: [138073523348663316, 1184399814947139446, 68151984729008774,
            1306569351831329614, 229682694522030731, 974724536480422997,
            505269692493433908, 1941287301007925582],
    "": [U64_MAX] * 8,
}

HLL = {
    "alpha": (44, 3),
    "beta": (24, 2),
    "https://site3.example.com/doc-42": (7, 4),
    "cms": (23, 1),
}

BLOOM = {
    "alpha": [300, 445, 78],
    "beta": [408, 435, 462],
    "https://site3.example.com/doc-42": [7, 28, 49],
    "cms": [343, 288, 233],
}

def test_stable_u64_golden():
    from bb_ocr_ray.functions.hashing import stable_u64

    for k, v in STABLE_U64.items():
        assert stable_u64(k) == v, k


def test_rolling_fingerprint_golden():
    from bb_ocr_ray.functions.hashing import rolling_fingerprint

    for t, v in FINGERPRINT.items():
        assert rolling_fingerprint(t) == v, t


def test_simhash_golden():
    from bb_ocr_ray.functions.hashing import simhash, simhash_batch

    for t, v in SIMHASH.items():
        assert simhash(t) == v, t
    np.testing.assert_array_equal(
        simhash_batch(list(SIMHASH)),
        np.array(list(SIMHASH.values()), dtype=np.uint64))


def test_minhash_golden():
    from bb_ocr_ray.functions.hashing import (minhash_signature,
                                              minhash_signatures_batch)

    for t, v in MINHASH_FIRST8.items():
        assert [int(x) for x in minhash_signature(t)[:8]] == v, t
    batch = minhash_signatures_batch(list(MINHASH_FIRST8))
    for i, v in enumerate(MINHASH_FIRST8.values()):
        assert [int(x) for x in batch[i, :8]] == v


def test_hll_bucket_rho_golden():
    from bb_ocr_ray.functions.hashing import hll_bucket_rho

    for k, v in HLL.items():
        assert hll_bucket_rho(k) == v, k
