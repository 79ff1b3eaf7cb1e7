"""Deterministic pseudo-random generator used for all sampling.

The generator is splitmix64 (Steele, Lea, Flood 2014): the 64-bit state
advances by the golden-gamma constant and each output is a finalizing
mix of the state. It is tiny and precisely specified, so any
implementation that follows this module reproduces the same streams:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z      = state
    z      = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Bounded draws take bits little-endian from the concatenated 64-bit
outputs: randbelow(n) reads bit_length(n-1) bits and rejection-samples
until the value is below n, which is exact for arbitrary-precision n.
"""

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _check_seed(seed) -> int:
    """A user seed is an integer in [0, 2^64); every seeded stream checks it here."""
    if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


def mix64(z: int) -> int:
    """The splitmix64 output mix of a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derived_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit sub-seed from (seed, salt).

    Used to split one user-facing seed into separate streams (symbol
    draws vs codeword choices, or per-trial fuzz seeds) without the
    streams overlapping.
    """
    return mix64((seed & _MASK64) ^ mix64(salt & _MASK64))


class SplitMix64:
    """Streaming splitmix64 with a little-endian bit buffer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._buffer = 0
        self._buffered = 0

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def bits(self, k: int) -> int:
        """Return the next k bits of the stream as an integer."""
        while self._buffered < k:
            self._buffer |= self.next_u64() << self._buffered
            self._buffered += 64
        out = self._buffer & ((1 << k) - 1)
        self._buffer >>= k
        self._buffered -= k
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            x = self.bits(k)
            if x < n:
                return x

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        return lo + self.randbelow(hi - lo)

    def sample_distinct(self, population: int, k: int) -> list[int]:
        """k distinct integers from range(population), in ascending order."""
        if k > population:
            raise ValueError("sample larger than population")
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.randbelow(population))
        return sorted(chosen)
