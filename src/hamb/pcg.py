"""numpy's SeedSequence and PCG64: every seeded draw in hamb comes from here.

The seeding helpers follow SeedSequence's entropy pool
(numpy/random/bit_generator.pyx) and work on Python ints and on ``uint64``
arrays alike.  :class:`Stream` is one generator in plain Python, seeded as
``SeedSequence(seed)`` or, for trial ``t``, as ``SeedSequence(entropy=seed,
spawn_key=(t,))``; :func:`stream_words` gives the first raw words of many
trial streams at once, for the estimator's lockstep blocks.  So no module
loads ``numpy.random``; numpy is the oracle that the tests hold both to.
"""
from __future__ import annotations

from .graphs import check_integer

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO


def _words(value: int, least: int) -> list[int]:
    """The uint32 words of ``value``, low word first, at least ``least`` of them."""
    return [value >> 32 * i & _M32 for i in range(max(least, -(-value.bit_length() // 32)))]


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on ints or uint64 arrays; returns the next constant too."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _absorb(pool: list, hash_const: int, word) -> tuple[list, int]:
    """Mix one entropy word past the pool size into every pool word."""
    out = []
    for p in pool:
        h, hash_const = _hashmix(word, hash_const)
        out.append(_mix(p, h))
    return out, hash_const


def _seed_pool(seed: int, key: int | None = None) -> tuple[list[int], int]:
    """The pool of ``SeedSequence(entropy=seed, spawn_key=(key,))``, or with no key, and the hash constant.

    A spawn key pads the seed's words to the pool size, so the key's words
    (two from 2**32 on) are always absorbed after the seed's, by :func:`_absorb`.
    """
    words = _words(seed, _POOL_SIZE) + ([] if key is None else _words(key, 1))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_SIZE:]:
        pool, hash_const = _absorb(pool, hash_const, word)
    return pool, hash_const


def _pcg64_seed(pool: list):
    """PCG64's (initstate, inc) from a pool, as 64-bit halves (hi, lo, hi, lo).

    ``SeedSequence.generate_state(4, uint64)`` gives initstate and the stream
    selector seq, high word first; inc = 2 * seq + 1 mod 2**128.
    """
    hash_const = _INIT_B
    state = []  # generate_state(8) as uint32 words, little-endian pairs
    for i in range(8):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value)
    init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return init_hi, init_lo, (seq_hi << 1 | seq_lo >> 63) & _M64, (seq_lo << 1 | 1) & _M64


class Stream:
    """``Generator(PCG64(SeedSequence(seed)))``, or with ``spawn_key=(t,)``, call by call.

    ``random`` reads one word; ``integers`` reads uint32 halves of the words,
    low half first, and keeps an unread high half for the next ``integers``
    call, as the bit generator does, whatever ``random`` reads in between.
    PCG64 is the XSL-RR output of a 128-bit LCG; seeding steps it from state
    0, adds initstate and steps again.  A seed or ``t`` that is not an int >= 0 raises ValueError.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int, t: int | None = None):
        check_integer(seed, "seed")
        if t is not None:
            check_integer(t, "trial index")
        init_hi, init_lo, inc_hi, inc_lo = _pcg64_seed(_seed_pool(seed, t)[0])
        self._inc = inc_hi << 64 | inc_lo
        self._state = ((self._inc + (init_hi << 64 | init_lo)) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << 64 - rot) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            word = self._next64()
            half, self._half = word & _M32, word >> 32
        return half

    def _bounded(self, width: int) -> int:
        """A draw from range(width): Lemire's method on uint32s, as numpy's
        ``Generator.integers`` draws it (distributions.c); width 2**32 accepts every uint32."""
        if width == 1:
            return 0
        threshold = (1 << 32) % width
        while True:
            m = self._next32() * width
            if m & _M32 >= threshold:
                return m >> 32

    def random(self) -> float:
        """A float in [0, 1) from the word's top 53 bits."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, width: int, *, size: int | None = None) -> int | list[int]:
        """Ints in [0, width), for 1 <= width <= 2**32: one, or a list of ``size``."""
        if not 1 <= width <= 1 << 32:
            raise ValueError(f"integers needs 1 <= width <= 2**32, got {width}")
        if size is None:
            return self._bounded(width)
        return [self._bounded(width) for _ in range(size)]


def _mul_add128(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on uint64 halves."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo_out = lo * _PCG_MULT_LO + inc_lo
    hi_out = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi + (lo_out < inc_lo)
    return hi_out, lo_out


def stream_words(seed: int, trials, count: int):
    """The first ``count`` raw outputs of ``Stream(seed, t)``, one row per ``t``.

    ``trials`` is a ``uint64`` array.  Each row equals
    ``PCG64(SeedSequence(entropy=seed, spawn_key=(t,))).random_raw(count)``.
    """
    import numpy as np

    pool, hash_const = _seed_pool(seed)
    pool, next_const = _absorb(pool, hash_const, trials & _M32)
    wide = trials >> 32 != 0  # an index of 2**32 or more is a second spawn-key word
    if wide.any():
        wide_pool = _absorb(pool, next_const, trials >> 32)[0]
        pool = [np.where(wide, w, p) for p, w in zip(pool, wide_pool)]
    init_hi, init_lo, inc_hi, inc_lo = _pcg64_seed(pool)
    del pool  # a block's (trials,) temporaries set its peak memory
    # Seeding steps the LCG from state 0 (giving inc), adds initstate and steps again.
    lo = inc_lo + init_lo
    hi, lo = _mul_add128(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(trials), count), dtype=np.uint64)
    for j in range(count):
        hi, lo = _mul_add128(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = x >> rot | x << (64 - rot & 63)
    return out
