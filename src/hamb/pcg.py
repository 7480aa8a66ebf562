"""numpy's SeedSequence and PCG64, recomputed without ``numpy.random``.

The seeding helpers follow SeedSequence's entropy pool
(numpy/random/bit_generator.pyx) and work on Python ints and on ``uint64``
arrays alike: the estimator's lockstep kernel seeds a whole block of trial
streams with them.  :class:`Stream` is one seeded generator in plain Python,
``numpy.random.Generator(PCG64(SeedSequence(seed)))`` call by call, for the
few draws that ``gen_gnp`` and ``selftest`` make; numpy stays the oracle that
the tests hold it to.
"""
from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO


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


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence pool after the run entropy ``seed``, and the hash constant.

    This is ``SeedSequence(seed).pool``.  A spawn key pads the run entropy to
    the pool size, so its words are always absorbed after it, by
    :func:`_absorb`.
    """
    words = [seed >> 32 * i & _M32 for i in range(max(_POOL_SIZE, -(-seed.bit_length() // 32)))]
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
    """``numpy.random.Generator(PCG64(SeedSequence(seed)))``, call by call.

    PCG64 is the XSL-RR output of a 128-bit LCG.  Seeding steps the LCG from
    state 0, adds initstate and steps again.  ``random`` reads one word;
    ``integers`` reads uint32 halves of the words, low half first, and keeps
    an unread high half for the next ``integers`` call, as the bit generator
    does, whatever ``random`` reads in between.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        init_hi, init_lo, inc_hi, inc_lo = _pcg64_seed(_seed_pool(seed)[0])
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
        ``Generator.integers`` draws it (distributions.c)."""
        if width == 1:
            return 0
        if width == 1 << 32:
            return self._next32()
        threshold = (1 << 32) % width
        while True:
            m = self._next32() * width
            if m & _M32 >= threshold:
                return m >> 32

    def random(self) -> float:
        """A float in [0, 1) from the word's top 53 bits."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        lo = float(lo)
        return lo + (float(hi) - lo) * self.random()

    def integers(self, lo: int, hi: int, size: int | None = None) -> int | list[int]:
        """Ints in [lo, hi) for hi - lo <= 2**32: one, or a list of ``size``."""
        width = hi - lo
        if not 1 <= width <= 1 << 32:
            raise ValueError(f"integers needs 1 <= hi - lo <= 2**32, got {lo}, {hi}")
        if size is None:
            return lo + self._bounded(width)
        return [lo + self._bounded(width) for _ in range(size)]

