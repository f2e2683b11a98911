"""Counter-stream and Poisson sampler behavior.

The load-bearing property is bit-identity: the scalar python-int path and
the vectorized uint64 path must produce exactly the same words, and every
value must depend only on (master_seed, trial, tag, counter).
"""

import math

import numpy as np
import pytest

from rcmsim import streams
from oracles import pair_uniform, poisson_pmf_factorial, uniform_array, word_array


def test_mix64_scalar_matches_vector():
    rng = np.random.default_rng(1)
    zs = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    vec = streams._mix64_inplace(zs.copy())
    scalar = np.array([streams.mix64(int(z)) for z in zs[:2000]], dtype=np.uint64)
    assert np.array_equal(vec[:2000], scalar)


def test_mix64_is_a_bijection_on_samples():
    # injectivity evidence: no collisions over 1e6 distinct inputs
    out = streams._mix64_inplace(np.arange(1_000_000, dtype=np.uint64))
    assert len(np.unique(out)) == len(out)


def test_uniform_scalar_matches_array():
    key = streams.stream_key(123, 45, streams.TAG_EDGES)
    counters = np.arange(5000, dtype=np.uint64)
    arr = uniform_array(key, counters)
    sc = np.array([streams.uniform(key, c) for c in range(5000)])
    assert np.array_equal(arr, sc)


def test_stacked_words_match_each_stream():
    # streams of every length, empty ones included, each counted from 0
    keys = np.array([streams.stream_key(8, t, streams.TAG_POINT_COORDS) for t in range(5)],
                    dtype=np.uint64)
    lengths = np.array([3, 0, 1000, 1, 0])
    want = [word_array(k, np.arange(n)) for k, n in zip(keys, lengths)]
    assert np.array_equal(streams.stacked_words(keys, lengths), np.concatenate(want))
    got = streams.unit_array(streams.stacked_words(keys[2:3], lengths[2:3]))
    assert np.array_equal(got, [streams.uniform(int(keys[2]), c) for c in range(1000)])


def test_uniform_range_and_moments():
    key = streams.stream_key(7, 0, 8)
    u = uniform_array(key, np.arange(1_000_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean 1/2 sd 1/sqrt(12): allow 5 sigma
    assert abs(u.mean() - 0.5) < 5 * (1.0 / math.sqrt(12.0)) / 1000.0
    assert abs(u.var() - 1.0 / 12.0) < 5e-4


def test_streams_differ_across_tags_trials_seeds():
    base = streams.uniform(streams.stream_key(1, 0, 0), 0)
    assert streams.uniform(streams.stream_key(1, 0, 1), 0) != base
    assert streams.uniform(streams.stream_key(1, 1, 0), 0) != base
    assert streams.uniform(streams.stream_key(2, 0, 0), 0) != base


def _pair_words(key, i, j):
    # the composition the sampler runs: one word per point, then one per pair
    return streams.unit_array(word_array(word_array(key, i), j))


def test_pair_uniform_matches_array_and_is_order_canonical():
    key = streams.stream_key(99, 3, streams.TAG_EDGES)
    i = np.array([0, 5, 17, 123456], dtype=np.int64)
    j = np.array([1, 9, 18, 123457], dtype=np.int64)
    arr = _pair_words(key, i, j)
    for k in range(len(i)):
        assert arr[k] == pair_uniform(key, int(i[k]), int(j[k]))
    # value depends on the unordered pair only through canonical (i < j)
    assert pair_uniform(key, 3, 8) == pair_uniform(key, 3, 8)


def test_point_words_give_pair_uniform():
    # the first round of pair_uniform depends on i alone: computed once per
    # point and gathered per pair, it gives the same coins bit for bit
    key = streams.stream_key(99, 4, streams.TAG_EDGES)
    words = word_array(key, np.arange(3000))
    rng = np.random.default_rng(2)
    i = rng.integers(0, 2999, 2000)
    j = i + 1 + rng.integers(0, 2999 - i)
    arr = streams.unit_array(word_array(words[i], j))
    assert np.array_equal(arr, _pair_words(key, i, j))
    for k in range(len(i)):
        assert arr[k] == pair_uniform(key, int(i[k]), int(j[k]))


def test_pair_uniform_distinct_pairs_decorrelated():
    key = streams.stream_key(5, 5, streams.TAG_EDGES)
    n = 400
    ii, jj = np.triu_indices(n, k=1)
    u = _pair_words(key, ii.astype(np.int64), jj.astype(np.int64))
    assert abs(u.mean() - 0.5) < 5 * (1.0 / math.sqrt(12.0)) / math.sqrt(len(u))
    assert len(np.unique(u)) > 0.999 * len(u)


def test_poisson_inversion_moments():
    mu = 7.0
    xs = np.array([streams.poisson_sample(mu, streams.stream_key(6, t, 0))
                   for t in range(20_000)])
    se_mean = math.sqrt(mu / len(xs))
    assert abs(xs.mean() - mu) < 5 * se_mean
    assert abs(xs.var(ddof=1) / mu - 1.0) < 0.06


def test_poisson_inversion_pmf_small_mean():
    mu = 0.8
    n = 100_000
    xs = np.array([streams.poisson_sample(mu, streams.stream_key(8, t, 0))
                   for t in range(n)])
    pmf = poisson_pmf_factorial(mu, 6)
    for k in range(7):
        p_hat = (xs == k).mean()
        se = math.sqrt(pmf[k] * (1 - pmf[k]) / n)
        assert abs(p_hat - pmf[k]) < 5 * se + 1e-12, f"k={k}"


def test_poisson_ptrs_moments():
    mu = 1000.0
    xs = np.array([streams.poisson_sample(mu, streams.stream_key(5, t, 0))
                   for t in range(10_000)])
    se_mean = math.sqrt(mu / len(xs))
    assert abs(xs.mean() - mu) < 5 * se_mean
    assert abs(xs.var(ddof=1) / mu - 1.0) < 0.08


def test_poisson_ptrs_tail_mass():
    # P(|X - mu| > 4 sqrt(mu)) is ~6e-5; none of 10^4 draws should land
    # beyond 6 sigma
    mu = 400.0
    xs = np.array([streams.poisson_sample(mu, streams.stream_key(11, t, 2))
                   for t in range(10_000)])
    assert np.all(np.abs(xs - mu) < 6.0 * math.sqrt(mu))


def test_poisson_dispatch_continuous_at_threshold():
    lim = streams.POISSON_INVERSION_LIMIT
    for mu in (lim - 0.1, lim + 0.1):
        xs = np.array([streams.poisson_sample(mu, streams.stream_key(3, t, 0))
                       for t in range(20_000)])
        assert abs(xs.mean() - mu) < 5 * math.sqrt(mu / len(xs))


def test_poisson_zero_mean():
    assert streams.poisson_sample(0.0, streams.stream_key(1, 1, 1)) == 0


def test_poisson_rejects_negative_mean():
    with pytest.raises(ValueError):
        streams.poisson_sample(-1.0, streams.stream_key(1, 1, 1))


def test_determinism_repeated_calls():
    key = streams.stream_key(2**63 + 17, 41, 3)
    a = uniform_array(key, np.arange(100, dtype=np.uint64))
    b = uniform_array(key, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)
    assert streams.poisson_sample(50.0, key) == streams.poisson_sample(50.0, key)
