"""Pluggable randomness sources.

SeededRng is a splitmix64 stream used wherever reproducibility matters
(test vectors, --seed on the command line).  SystemRng draws from the
operating system and is the default for key generation; it subclasses
SeededRng and replaces only the entropy source, so anything accepting an
`rng` takes either.
"""

from __future__ import annotations

import os

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SeededRng:
    """Deterministic splitmix64 stream seeded from a byte string."""

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        state = 0
        data = bytes(seed) or b"\x00"
        for i in range(0, len(data), 8):
            chunk = data[i : i + 8].ljust(8, b"\x00")
            state = _mix64(state ^ int.from_bytes(chunk, "big"))
        self._state = state

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def bits(self, nbits: int) -> int:
        v = 0
        filled = 0
        while filled < nbits:
            v |= self.u64() << filled
            filled += 64
        return v & ((1 << nbits) - 1)

    def element(self, m: int) -> int:
        """Random field element of GF(2^m): ceil(m/64) words masked to m bits."""
        return self.bits(((m + 63) // 64) * 64) & ((1 << m) - 1)

    def nonzero_element(self, m: int) -> int:
        while True:
            v = self.element(m)
            if v:
                return v

    def bytes(self, n: int) -> bytes:
        return self.bits(8 * n).to_bytes(n, "little")

    def randrange(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.bits(bound.bit_length() + 64) % bound

    def sample(self, seq, count: int) -> list:
        """count distinct items drawn from seq, in draw order."""
        pool = list(seq)
        if count > len(pool):
            raise ValueError("sample larger than population")
        out = []
        for _ in range(count):
            out.append(pool.pop(self.randrange(len(pool))))
        return out


class SystemRng(SeededRng):
    """OS-entropy source: SeededRng with the splitmix64 stream replaced."""

    def __init__(self):
        """No stream state: every draw reads os.urandom."""

    def u64(self) -> int:
        return int.from_bytes(os.urandom(8), "big")

    def bits(self, nbits: int) -> int:
        nbytes = (nbits + 7) // 8
        return int.from_bytes(os.urandom(nbytes), "little") & ((1 << nbits) - 1)

    def bytes(self, n: int) -> bytes:
        return os.urandom(n)
