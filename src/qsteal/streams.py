"""Raw PCG64 words of many SeedSequence-keyed streams at once, in numpy
integer arithmetic: SeedSequence hashing (NEP 19), PCG64 seeding, output k
of its 128-bit LCG in closed form (Brown, "Random number generation with
arbitrary strides", 1994) and XSL-RR (O'Neill, PCG, 2014)."""

from __future__ import annotations

import functools
from itertools import accumulate

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (NEP 19) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U32, _U58, _U63, _U64, _LOW = (np.uint64(v) for v in (1, 32, 58, 63, 64, _MASK32))


def checked_seed(seed, role: str) -> int:
    """`seed` as an int: a stream's key words exist only for a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"a {role} seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def key_words(n: int) -> list[int]:
    """SeedSequence's words for a nonnegative int: little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError(f"stream keys are nonnegative integers, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of `count` successive SeedSequence hash
    steps, as (count, 1) columns: the running constant before and after each step."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32)[:, None], np.array(consts[1:], np.uint32)[:, None]


@functools.lru_cache(maxsize=None)
def _pool_rounds(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (4, 1) hash constants of each round of SeedSequence's pool mixing
    for `words` >= 4 entropy words: the pool's first hash, the four rounds
    that mix pool word i into the other three (row i a placeholder), and one
    round per word past the fourth."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * words)
    cross = [np.insert(np.arange(4 + 3 * i, 7 + 3 * i), i, 0) for i in range(4)]
    return [(xor[:4], mul[:4])] + [(xor[c], mul[c]) for c in cross] + [
        (xor[4 * i : 4 * i + 4], mul[4 * i : 4 * i + 4]) for i in range(4, words)]


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


@functools.lru_cache(maxsize=None)
def _factors(count: int) -> np.ndarray:
    """M^(k+2) and M^(k+1) + … + 1 mod 2¹²⁸ for k < count, as high and low 64
    bits and the low's 32-bit halves, (4, 2, 1, count): PCG64 seeded with s and
    increment c is at (c + s)·M^(k+2) + c·(M^(k+1) + … + 1) after output k."""
    powers = [pow(_PCG_MULT, k, 2**128) for k in range(count + 2)]
    sums = [v % 2**128 for v in accumulate(powers)]
    table = np.array([[[f >> 64, f % 2**64, f >> 32 & _MASK32, f & _MASK32] for f in (powers[k + 2], sums[k + 1])]
                      for k in range(count)], np.uint64).transpose(2, 1, 0)[:, :, None]
    table.flags.writeable = False
    return table


def _mul128(hi: np.ndarray, lo: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) · factor mod 2¹²⁸ per entry, in 64-bit limbs: the low limbs'
    full product from their 32-bit halves."""
    k_hi, k_lo, b1, b0 = factors
    a1, a0 = lo >> _U32, lo & _LOW
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    high = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return high + lo * k_hi + hi * k_lo, (mid << _U32) | (p00 & _LOW)


def raw_words(key: list, count: int) -> np.ndarray:
    """`PCG64(SeedSequence(row)).random_raw(count)` for each of N keys given
    word by word, as an (N, count) uint64 array: each entry of `key` is a
    32-bit word every row shares, or an (N,) array of each row's word.

    SeedSequence hashes the words into a pool of 4 (each word past the
    fourth mixes in one more round) and PCG64 seeds itself from the pool's
    first 4 uint64 words; output k is XSL-RR of the LCG state after k + 1
    steps, two 128-bit products per word against :func:`_factors`."""
    w, n = len(key), np.broadcast(*key).size
    rounds = _pool_rounds(max(w, 4))
    entropy = np.zeros((max(w, 4), n), np.uint32)  # SeedSequence hashes a missing pool word as 0
    for row, word in zip(entropy, key):
        row[:] = word
    pool = _hash(entropy[:4], *rounds[0])
    for src, consts in enumerate(rounds[1:5]):
        mixed = _mix(pool, _hash(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(entropy[4:], rounds[5:]):
        pool = _mix(pool, _hash(word, *consts))
    # generate_state(4, uint64): 8 words cycled from the pool, paired low word first
    state = _hash(np.concatenate([pool, pool]), *_STATE_CONSTS).astype(np.uint64)
    s_hi, s_lo, inc_hi, inc_lo = state[0::2] | (state[1::2] << _U32)
    c_hi, c_lo = (inc_hi << _U1) | (inc_lo >> _U63), (inc_lo << _U1) | _U1
    a_lo = c_lo + s_lo
    hi, lo = _mul128(np.array([c_hi + s_hi + (a_lo < c_lo), c_hi])[..., None],
                     np.array([a_lo, c_lo])[..., None], _factors(count))
    low = lo[0] + lo[1]
    high = hi[0] + hi[1] + (low < lo[0])
    rot, out = high >> _U58, high ^ low
    return (out >> rot) | (out << ((_U64 - rot) & _U63))
