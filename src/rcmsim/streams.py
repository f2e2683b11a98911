"""Counter-based deterministic randomness.

Every random quantity in a trial is a pure function of
(master_seed, trial_index, stream_tag, counter...) pushed through a
SplitMix64-style avalanche.  Nothing is stateful, so the result of a
simulation does not depend on evaluation order, chunking, or the number
of worker processes.  The same mixing runs either on Python ints or on
numpy uint64 arrays; the two paths are bit-identical (tested).

A trial draws from three streams, tagged 0 (point count), 1 (point
coordinates) and 2 (edge coins); no other stream exists.

A uniform is u = (h >> 11) 2^-53 of a word h, exactly, so the sampler
decides an edge coin u < x on the integer, as h >> 11 < ceil(x 2^53).
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TAG_POINT_COUNT = 0
TAG_POINT_COORDS = 1
TAG_EDGES = 2

# Mean at or above which node counts switch from CDF inversion to the
# transformed-rejection sampler.  Pinned so golden outputs stay stable.
POISSON_INVERSION_LIMIT = 30.0


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """`mix64` on a uint64 array, in place; multiplication wraps mod 2**64.
    tmp is scratch of z's shape and dtype, allocated when not given."""
    if tmp is None:
        tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(_M1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(_M2)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def stream_key(master_seed: int, trial_index: int, stream_tag: int) -> int:
    """Fold the identifying words into one 64-bit stream key."""
    h = mix64(GOLDEN ^ (master_seed & MASK64))
    h = mix64(h ^ (trial_index & MASK64))
    h = mix64(h ^ (stream_tag & MASK64))
    return h


def uniform(key: int, counter: int) -> float:
    """Uniform [0, 1) at position `counter` of the stream `key`: the top
    53 bits of the word mix64(key + GOLDEN * counter)."""
    return (mix64((key + GOLDEN * counter) & MASK64) >> 11) * 2.0**-53


def stacked_words(keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The words of `uniform` at the counters 0 .. lengths[k] - 1 of the
    stream keys[k], for each k, concatenated: counter c hashes key + GOLDEN
    c.  Counter c of stream k sits at slot s = starts[k] + c of the stack,
    so its word hashes (keys[k] - GOLDEN starts[k]) + GOLDEN s: the words
    are built in their own array, with no counter array beside it."""
    starts = np.cumsum(lengths) - lengths
    with np.errstate(over="ignore"):
        z = np.repeat(np.asarray(keys, dtype=np.uint64)
                      - starts.astype(np.uint64) * np.uint64(GOLDEN), lengths)
        z += np.arange(z.size, dtype=np.uint64) * np.uint64(GOLDEN)
    return _mix64_inplace(z)


def unit_array(h: np.ndarray) -> np.ndarray:
    """Top 53 bits of uint64 words -> [0, 1), as `uniform` takes them."""
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def poisson_sample(mean: float, key: int) -> int:
    """Poisson draw from the counter stream `key`.

    CDF inversion below POISSON_INVERSION_LIMIT, transformed rejection
    (PTRS) at or above it.  Consumption of the stream is deterministic
    given (mean, key).
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0:
        return 0
    if mean < POISSON_INVERSION_LIMIT:
        return _poisson_inversion(mean, key)
    return _poisson_ptrs(mean, key)


def _poisson_inversion(mean: float, key: int) -> int:
    u = uniform(key, 0)
    p = math.exp(-mean)
    s = p
    k = 0
    # float tail guard: the partial sums cannot reach a u extremely close
    # to 1 once p underflows, so cap the walk well past the bulk
    cap = int(mean + 40.0 * math.sqrt(mean) + 25.0)
    while u > s and k < cap:
        k += 1
        p *= mean / k
        s += p
    return k


def _poisson_ptrs(mean: float, key: int) -> int:
    # Transformed rejection with squeeze, valid for mean >= 10.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    c = 0
    while True:
        u = uniform(key, c) - 0.5
        v = uniform(key, c + 1)
        c += 2
        us = 0.5 - abs(u)
        if us <= 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        lhs = math.log(v * inv_alpha / (a / (us * us) + b))
        if lhs <= k * log_mean - mean - math.lgamma(k + 1.0):
            return int(k)
