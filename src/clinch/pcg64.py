"""numpy's `default_rng(seed)` in the standard library, for the two draws
the property corpora take: `random()` and `integers(low, high)`.

    rng = PCG64(seed)  # draws what np.random.default_rng(seed) draws

A non-negative integer seed is split into 32-bit words, low word first,
and mixed by numpy's `SeedSequence` into four 64-bit words: the first two
are the 128-bit start, the last two the stream of a PCG64 generator (a
128-bit LCG with XSL-RR output), seeded the way numpy seeds it.
`random()` is (next64 >> 11) * 2**-53.  `integers` is numpy's 32-bit
Lemire bounded draw with its rejection loop: each 64-bit output serves
two 32-bit draws, low half first, and an unused high half is kept across
calls, as numpy's bit generator keeps it; `random()` leaves it alone.
A range of one value takes no draw.  Nothing else of numpy's `Generator`
is here: no normals, no arrays, no range wider than 2**32.
"""
from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(8, np.uint32)`."""
    if seed < 0:
        raise ValueError(f"the seed must be a non-negative integer, got {seed}")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        out.append(value ^ value >> 16)
    return out


class PCG64:
    """The `random()` and `integers()` stream of `np.random.default_rng(seed)`."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # the 64-bit words of generate_state(4, np.uint64), low half first
        u0, u1, u2, u3 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        start, stream = u0 << 64 | u1, u2 << 64 | u3
        self._inc = (stream << 1 | 1) & _M128
        # numpy's seeding: from state 0, step, add the start, step again
        self._state = ((self._inc + start) * _MULT + self._inc) & _M128
        self._half = None  # the high half of the last output, not yet drawn

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A double in [0, 1) on the 2**-53 grid."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high), for 1 <= high - low <= 2**32."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {span}")
        threshold = (1 << 32) % span  # a product whose low word is below it is redrawn
        while True:
            m = self._next32() * span
            if m & _M32 >= threshold:
                return low + (m >> 32)
