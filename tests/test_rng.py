"""Generator identity: the streams must match the published algorithm
exactly, or recorded seeds stop reproducing old runs."""

import itertools

import pytest

from codecert.randgen import trial_rng
from codecert.rng import (
    _CHUNK,
    SplitMix64,
    _draw_chunks,
    _output_bytes,
    _outputs,
    derived_seed,
    mix64,
    word_stream,
)

# first outputs of the reference implementation for seed 0
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _reference_stream(seed, count):
    out, state = [], seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


def draws(seed, n, count):
    """The values of _draw_chunks(seed, n, count), joined into one list."""
    return list(itertools.chain.from_iterable(_draw_chunks(seed, n, count)))


def test_known_vector_seed_zero():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == SEED0_OUTPUTS


@pytest.mark.parametrize("seed", [0, 1, 42, 1234567, 2**64 - 1])
def test_matches_reference_transcription(seed):
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(20)] == _reference_stream(seed, 20)


def test_bits_are_little_endian_over_the_word_stream():
    g = SplitMix64(0)
    low16 = g.bits(16)
    assert low16 == SEED0_OUTPUTS[0] & 0xFFFF
    # next 48 bits finish the first word, then 16 bits start the second
    rest = g.bits(48)
    assert (rest << 16) | low16 == SEED0_OUTPUTS[0]
    assert g.bits(16) == SEED0_OUTPUTS[1] & 0xFFFF


def test_randbelow_range_and_determinism():
    g1, g2 = SplitMix64(99), SplitMix64(99)
    draws1 = [g1.randbelow(10) for _ in range(1000)]
    draws2 = [g2.randbelow(10) for _ in range(1000)]
    assert draws1 == draws2
    assert set(draws1) == set(range(10))
    assert g1.randbelow(1) == 0


def test_randbelow_is_roughly_uniform():
    g = SplitMix64(7)
    counts = [0] * 5
    for _ in range(50000):
        counts[g.randbelow(5)] += 1
    for c in counts:
        assert abs(c - 10000) < 500


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_randrange_excludes_upper_bound():
    g = SplitMix64(3)
    draws = {g.randrange(5, 8) for _ in range(200)}
    assert draws == {5, 6, 7}


def test_sample_distinct_sorted_and_exact():
    g = SplitMix64(11)
    picked = g.sample_distinct(10, 4)
    assert picked == sorted(set(picked))
    assert len(picked) == 4
    assert all(0 <= x < 10 for x in picked)
    assert g.sample_distinct(3, 3) == [0, 1, 2]
    with pytest.raises(ValueError):
        g.sample_distinct(3, 4)


def test_derived_seed_splits_streams():
    a = derived_seed(1, 0xAAAA)
    b = derived_seed(1, 0xBBBB)
    c = derived_seed(2, 0xAAAA)
    assert len({a, b, c}) == 3
    assert all(0 <= x < 2**64 for x in (a, b, c))
    assert derived_seed(1, 0xAAAA) == a


def test_trial_rng_checks_the_seed_range():
    # derived_seed masks to 64 bits, so 2^64 + 5 would otherwise replay seed 5
    assert trial_rng(2**64 - 1, 3).next_u64() == SplitMix64(derived_seed(2**64 - 1, 3)).next_u64()
    for bad in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            trial_rng(bad, 0)


def test_mix64_is_a_bijection_sample():
    seen = {mix64(x) for x in range(4096)}
    assert len(seen) == 4096


# --- the block path ---


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_block_outputs_are_the_next_256_outputs(seed):
    g = SplitMix64(seed)
    words = [g.next_u64() for _ in range(256)]
    assert _outputs(seed) == sum(w << 64 * j for j, w in enumerate(words))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_block_output_bytes_are_the_outputs_little_endian(seed):
    assert _outputs(seed) == int.from_bytes(_output_bytes(seed), "little")


@pytest.mark.parametrize("seed", [0, 2026, 2**64 - 1])
def test_word_stream_is_the_next_u64_stream(seed):
    # 600 words run into a third block
    g = SplitMix64(seed)
    assert list(itertools.islice(word_stream(seed), 600)) == [g.next_u64() for _ in range(600)]


# draws reads k = bit_length(n - 1) bits per attempt: k from 1 to past one
# 16,384-bit block, on both sides of powers of two and of 2^64
DRAW_BOUNDS = [2, 3, 2**8 - 1, 2**8, 2**8 + 1, 2**40 - 87, 3 * 2**38 + 7, 2**64, 2**64 + 1, 2**129 + 5]
WIDE_BOUNDS = [2**16384 + 3, 2**20000 + 1]


def _check_draws(n, count, seed):
    scalar = SplitMix64(seed)
    assert draws(seed, n, count) == [scalar.randbelow(n) for _ in range(count)]


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, "3 blocks"])
@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_draws_equal_repeated_randbelow(n, count):
    if count == "3 blocks":  # more windows than three blocks of 256 outputs hold
        count = 3 * 64 * 256 // (n - 1).bit_length() + 1
    _check_draws(n, count, 0x5EED + count)


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("n", WIDE_BOUNDS, ids=["2^16384+3", "2^20000+1"])
def test_draws_wider_than_a_block(n, count):
    _check_draws(n, count, 2014)


def test_draws_below_one_read_nothing():
    assert draws(5, 1, 50) == [0] * 50
    assert draws(5, 10, 0) == []
    with pytest.raises(ValueError, match="randbelow requires n >= 1"):
        draws(5, 0, 3)


# the row kernel cuts the k-bit windows that fit 8 bytes at every bit offset
# they take in a row (every k <= 64 but 59 and 61-63); the piece loop cuts the
# rest. Each k runs at its lowest and its highest acceptance rate.
@pytest.mark.parametrize("k", range(1, 67))
def test_draws_at_every_window_width(k):
    for n in sorted({2 ** (k - 1) + 1, 2**k}):
        _check_draws(n, 200, 1000 + k)


def test_kernel_carries_windows_past_a_chunk():
    # at k = 58 the cut for chunk one reads past it; chunk two is what it carried
    _check_draws(2**57 + 1, _CHUNK + 5, 58)
