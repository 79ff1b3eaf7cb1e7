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

Many draws below one bound from a fresh seed go through a block path that
makes the same stream faster. `_output_bytes` computes 256 consecutive outputs
at once: lane j of one big integer, 128 bits wide, holds state + (j+1)*gamma,
and the mix runs as a dozen whole-integer operations masked back to each
lane's low 64 bits (a lane's product fits its 128 bits, so lanes never carry
into each other). `_draw_chunks(seed, n, count)` reads those bytes as
consecutive k-bit windows, k = bit_length(n-1), one per attempt of
randbelow(n), and yields the first count below n 2^14 at a time, so a
simulation holds one chunk of its stream. Eight windows fill k bytes, a row;
`_cut_rows` cuts a batch of rows at once, at most 2^18 bytes but one row.
Window c of a row starts at byte kc // 8, bit kc % 8. Where each c fits 8
bytes from there (k <= 64 but 59 and 61-63), strided byte copies move window c
of every row into 64-bit lanes, shifted and masked as one integer; otherwise
each row is read as one integer and its 8 windows are shifted out of it.

`word_stream(seed)` yields the same outputs one 64-bit word at a time, for
a reader whose bound changes from draw to draw: a simulation's codeword
choices read their windows from it. The few draws of a fuzz trial or a
random instance stay on SplitMix64's one-output path, since one block costs
more than all of them.
"""

import struct
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: The block path: outputs per block; a 1, lane j's 64-bit mask and its start
#: offset (j+1)*gamma, each at bit 128*j (built from bytes, which imports in a
#: seventh of the time of summing shifted ints); the state step per block.
_LANES = 256
_LANE_ONES = int.from_bytes(bytes([1] + [0] * 15) * _LANES, "little")
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_LANE_STEPS = int.from_bytes(
    b"".join(((j + 1) * _GOLDEN & _MASK64).to_bytes(16, "little") for j in range(_LANES)), "little"
)
_BLOCK_STEP = _LANES * _GOLDEN & _MASK64
_BLOCK_WORDS = struct.Struct(f"<{_LANES}Q")

#: Most draws in one list from _draw_chunks: a simulation encodes its stream
#: a chunk of this many steps at a time, so its memory does not grow with t.
_CHUNK = 1 << 14
#: Most bytes of rows it cuts in one batch, so that a window as wide as a source
#: admits (MAX_DENOMINATOR_BITS) holds a few hundred KB of stream, not a chunk's.
_BATCH_BYTES = 1 << 18


def _check_seed(seed) -> int:
    """A user seed is an integer in [0, 2^64); every seeded stream checks it here."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MASK64:
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


def _output_bytes(state: int) -> bytes:
    """The 256 outputs that follow `state`: output j little-endian at bytes [8j, 8j+8).

    A right shift moves the low bits of lane j+1 into the top half of lane
    j; the mask after each XOR clears them before they reach a product.
    """
    z = (state * _LANE_ONES + _LANE_STEPS) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    z ^= z >> 31
    # the low 8 of each lane's 16 little-endian bytes, concatenated
    return memoryview(z.to_bytes(16 * _LANES, "little")).cast("Q")[::2].tobytes()


def _draw_chunks(seed: int, n: int, count: int) -> Iterator[list[int]]:
    """The values of count randbelow(n) calls on a new SplitMix64(seed), made
    through the block path, in lists of _CHUNK values, the last one shorter."""
    if n <= 0:
        raise ValueError("randbelow requires n >= 1")
    k = (n - 1).bit_length()
    state, data, out = seed & _MASK64, bytearray(), []
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        while len(out) < size:
            # enough rows at acceptance rate n/2^k, and a few, in at most _BATCH_BYTES
            # bytes but one row at least (n = 1, k = 0, reads no bytes)
            rows = max(1, min(((size - len(out)) << k) // n // 8 + 8, _BATCH_BYTES // max(k, 1)))
            while len(data) < rows * k:
                data += _output_bytes(state)
                state = (state + _BLOCK_STEP) & _MASK64
            out += _cut_rows(data, rows, k, n)
            del data[: rows * k]
        chunk, out = out[:size], out[size:]  # out keeps the windows a batch read past this chunk
        yield chunk


def _cut_rows(data: bytearray, rows: int, k: int, n: int) -> list[int]:
    """The windows below n in the first rows k-byte rows of data, in stream order."""
    used = rows * k
    # window c of each row of 8 windows: its first byte, bit offset and byte count
    classes = [(k * c >> 3, k * c & 7, (k * c % 8 + k + 7) >> 3) for c in range(8)]
    if max(m for _, _, m in classes) <= 8:
        lanes, windows = bytearray(8 * rows), [0] * (8 * rows)
        mask = int.from_bytes(((1 << k) - 1).to_bytes(8, "little") * rows, "little")
        for c, (b, o, m) in enumerate(classes):
            for t in range(m):  # byte b + t of every row to byte t of its lane
                lanes[t::8] = data[b + t : used : k]
            z = int.from_bytes(lanes, "little") >> o & mask
            windows[c::8] = struct.unpack(f"<{rows}Q", z.to_bytes(8 * rows, "little"))
        return [x for x in windows if x < n]
    window, shifts = (1 << k) - 1, range(0, 8 * k, k)
    whole_rows = [int.from_bytes(data[i : i + k], "little") for i in range(0, used, k)]
    return [x for row in whole_rows for s in shifts if (x := row >> s & window) < n]


def word_stream(seed: int):
    """The endless next_u64() stream of a new SplitMix64(seed), made a block at a time."""
    state = seed & _MASK64
    while True:
        yield from _BLOCK_WORDS.unpack(_output_bytes(state))
        state = (state + _BLOCK_STEP) & _MASK64


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
