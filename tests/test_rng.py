"""The SplitMix64 streams against a scalar oracle, and their four draws."""

import collections
import warnings

import numpy as np
import pytest

from featscan.rng import Stream, derive, derive_seed, outputs
from oracles import reference_splitmix64

KEYS = [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 2, 2**64 - 1]
STARTS = [0, 5, 2**32 - 3, 2**32 + 7, 2**64 - 4]


@pytest.mark.parametrize("key", KEYS)
def test_draws_match_scalar_splitmix64(key):
    for start in STARTS:
        want = reference_splitmix64(key, start, 40)
        assert outputs(key, start, 40).tolist() == want, start


def test_first_draw_of_key_zero_is_splitmix64s():
    # the first output of Vigna's splitmix64.c seeded with 0
    assert outputs(0, 0, 1).tolist() == [0xE220A8397B1DCDAF]


def test_split_calls_equal_one_call():
    stream, whole = Stream(3, 1, 4), Stream(3, 1, 4)
    parts = np.concatenate([stream.raw(n) for n in (1, 4, 0, 9, 2)])
    assert parts.tolist() == whole.raw(16).tolist()
    assert stream.at == whole.at == 16


def test_keys_fold_each_part_as_a_draw():
    # derive(k) is draw 0 of the stream keyed k, and each further part is
    # xored into the key so far and drawn again; a part past 64 bits is
    # folded word by word, low word first
    def first(k):
        return reference_splitmix64(k, 0, 1)[0]

    assert derive(12345) == first(12345)
    assert derive(12345, 3, 2**64 - 1) == first(first(first(12345) ^ 3) ^ (2**64 - 1))
    assert derive(2**64 + 5) == first(first(5) ^ 1)
    assert len({derive(*p) for p in [(0,), (0, 0), (1,), (0, 1), (1, 0)]}) == 5
    with pytest.raises(ValueError, match="got -1"):
        derive(3, -1)
    # a config's seed is the key's top half, exact in a double-parsed report
    assert derive_seed(12345, 3) == derive(12345, 3) >> 32 < 2**32


def test_key_derivation_stays_in_python_ints():
    # a wrapping product of numpy uint64 scalars warns, and CI and the
    # benchmark turn that warning into an error; array products wrap
    # silently, as the draws rely on
    with pytest.warns(RuntimeWarning):
        np.uint64(2**63) * np.uint64(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = (np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1))
        assert derive(*parts) == derive(2**64 - 1, 7, 2**32 - 1)
        stream = Stream(*parts)
        assert stream.raw(8).tolist() == reference_splitmix64(stream.key, 0, 8)


def test_coins_and_uniforms_are_fair():
    n = 100_000
    coins = Stream(7, 0).coins(n)
    assert coins.dtype == np.bool_
    assert abs(coins.mean() - 0.5) < 0.01
    u = Stream(7, 1).uniforms(n)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))   # 53-bit values
    ecdf = np.arange(1, n + 1) / n
    u.sort()
    assert max(np.abs(ecdf - u).max(), np.abs(ecdf - 1.0 / n - u).max()) < 0.01
    # each coin is its draw's top bit, and each uniform its top 53 bits,
    # across the slices uniforms draws in
    m = 2**15 + 3
    draws = Stream(7, 2).raw(m).tolist()
    assert Stream(7, 2).coins(m).tolist() == [d >> 63 == 1 for d in draws]
    assert Stream(7, 2).uniforms(m).tolist() == [(d >> 11) / 2**53 for d in draws]


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_permutations_and_samples(n):
    for key in range(20):
        perm = Stream(key, n).permutation(n)
        assert sorted(perm.tolist()) == list(range(n))
        for m in sorted({1, (n + 1) // 2, n}):
            sample = Stream(key, n).sample(n, m)
            assert len(sample) == m
            assert 0 <= sample[0] and sample[-1] < n
            assert (np.diff(sample) > 0).all()   # sorted and distinct
            # the positions of the m smallest draws: the permutation's first m
            assert sample.tolist() == sorted(perm[:m].tolist())


def test_permutations_of_three_are_uniform():
    counts = collections.Counter(tuple(Stream(key).permutation(3).tolist())
                                 for key in range(6_000))
    assert len(counts) == 6
    assert all(abs(c - 1_000) < 150 for c in counts.values())
