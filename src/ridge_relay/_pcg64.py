"""NumPy's ``default_rng(seed).permutation`` in plain integer arithmetic.

Fold dealing needs seeded permutations, and loading ``numpy.random`` for
them costs a process about 10 ms. ``Pcg64(seed).permutation(n)`` gives,
bit for bit, what ``np.random.default_rng(seed).permutation(n)`` gives,
and successive calls on one object give what successive calls on one
NumPy generator give:

* ``SeedSequence(seed)`` hashes the seed's 32-bit words, least
  significant first, into a pool of four words, and draws the 128-bit
  PCG64 state and increment from the pool;
* PCG64 steps a 128-bit linear congruential state and outputs 64 bits
  by XSL-RR; a 32-bit draw is the low half of a fresh 64-bit output, and
  the high half is kept for the next 32-bit draw;
* the shuffle is Fisher-Yates from the last position down, each swap
  index drawn in ``[0, i]`` by masked rejection (NumPy's
  ``random_interval``): 32-bit draws up to ``i = 2**32 - 1``, 64-bit
  draws above.

NumPy does not promise the same ``Generator`` stream across versions
(NEP 19); this copy keeps the folds fixed whatever NumPy is installed.
"""

from __future__ import annotations

__all__ = ["Pcg64"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and pool size.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    """The entropy pool of ``SeedSequence(seed)``."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[int], count: int) -> list[int]:
    """``SeedSequence.generate_state(count // 2, np.uint64)`` as 32-bit words,
    least significant half of each 64-bit word first."""
    hash_const = _INIT_B
    out = []
    for i in range(count):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


class Pcg64:
    """The bit generator of ``np.random.default_rng(seed)``, for permutations.

    ``seed`` is a non-negative integer of any size.
    """

    def __init__(self, seed: int) -> None:
        w = _generate_state(_seed_pool(int(seed)), 8)
        start = (w[1] << 32 | w[0]) << 64 | w[3] << 32 | w[2]
        stream = (w[5] << 32 | w[4]) << 64 | w[7] << 32 | w[6]
        self._inc = (stream << 1 | 1) & _MASK128
        self._state = ((self._inc + start) * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._spare: int | None = None  # high half of a 64-bit draw not yet used

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def permutation(self, n: int) -> list[int]:
        """A random order of ``0..n-1``, as ``Generator.permutation(n)`` draws it."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _MASK32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            out[i], out[j] = out[j], out[i]
        return out
