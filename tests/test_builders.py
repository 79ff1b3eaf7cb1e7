"""The package's builders hand over valid tables without re-checking them
(Source._built, Code._built), so every builder is run here over seeded
inputs, and each table it makes must pass the full check it skipped."""

import itertools
import math
from fractions import Fraction as F

import pytest

from codecert import (
    Code,
    DigitOutOfRange,
    DuplicateSymbol,
    ProbabilitySumNotOne,
    Source,
    SplitMix64,
    ZeroOrNegativeProbability,
    certify,
    construct_instantaneous,
    extend_source,
    huffman,
    make_code,
    make_source,
    minimal_reduction,
    random_prefix_code,
    random_source,
    reversed_code,
)

RADICES = (2, 3, 10, 36)
SIZES = (1, 2, 7, 300, 4096)


def check_source(src: Source) -> None:
    assert type(src.symbols) is tuple and type(src.masses) is tuple and type(src.denominator) is int
    assert sum(src.masses) == src.denominator
    assert math.gcd(src.denominator, *src.masses) == 1
    assert Source(src.symbols, src.masses, src.denominator) == src  # the checked constructor agrees


def check_code(code: Code) -> None:
    assert type(code.radix) is int and code.radix >= 1
    assert type(code.mapping) is tuple
    assert Code(code.radix, code.mapping) == code


def random_sources():
    """Seeded sources of every size in SIZES, over small and 80-bit denominators."""
    for seed, n in enumerate(SIZES):
        yield random_source(SplitMix64(seed), n, max(64, 2 * n))
        yield random_source(SplitMix64(seed), n, 2**80)


def deep_source(n: int) -> Source:
    """Masses 2^(n-2), ..., 2, 1, 1 over 2^(n-1): its Huffman code is a comb n - 1 deep."""
    return make_source(range(n), [F(1, 2 ** (i + 1)) for i in range(n - 1)] + [F(1, 2 ** (n - 1))])


def multi_codeword_code(rng: SplitMix64, r: int, n: int) -> Code:
    """The 3n words of a random prefix code dealt out to n symbols, one to three each."""
    words = [w for _, (w,) in random_prefix_code(rng, r, 3 * n).mapping]
    mapping, k = [], 0
    for i in range(n):
        take = 1 + rng.randbelow(3)
        mapping.append((f"m{i}", words[k : k + take]))
        k += take
    return make_code(r, mapping)


def test_random_sources_and_their_extensions():
    for src in random_sources():
        check_source(src)
    base = random_source(SplitMix64(9), 10, 55)
    for p in range(1, 6):
        check_source(extend_source(base, p))
    for n, p in ((2, 5), (3, 5), (7, 4)):
        check_source(extend_source(random_source(SplitMix64(n), n, 2**40), p))


@pytest.mark.parametrize("r", RADICES)
def test_random_and_reversed_prefix_codes(r):
    for seed, n in enumerate(SIZES):
        code = random_prefix_code(SplitMix64(seed), r, n)
        check_code(code)
        check_code(reversed_code(code))


@pytest.mark.parametrize("r", RADICES)
def test_minimal_reductions_of_codes_with_several_codewords(r):
    rng = SplitMix64(r)
    for n in (1, 2, 5, 40, 700):
        code = multi_codeword_code(rng, r, n)
        check_code(code)
        check_code(reversed_code(code))
        check_code(minimal_reduction(code))
        check_code(minimal_reduction(reversed_code(code)))


@pytest.mark.parametrize("r", RADICES)
def test_huffman_and_kraft_codes(r):
    sources = [*random_sources(), extend_source(random_source(SplitMix64(5), 10, 55), 4)]
    for src in sources:
        code = huffman(src, r)
        check_code(code)
        check_code(construct_instantaneous([len(w) for _, (w,) in code.mapping], r))
    # 4,096 lengths of at least e + 1, where r^e >= 4096: their Kraft sum is at most 1/r
    e = next(e for e in itertools.count() if r**e >= 4096)
    rng = SplitMix64(r)
    check_code(construct_instantaneous([e + 1 + rng.randbelow(12) for _ in range(4096)], r))
    # the one-pass test says no to an empty table, which Code's entry walk admits
    assert construct_instantaneous([], r) == Code(r, ())


def test_deep_codes():
    # a comb over 1,200 levels: Huffman's code, the Kraft code of its
    # lengths, their reversals and the certificate's two codes
    src = deep_source(1201)
    code = huffman(src, 2)
    assert max(map(len, code.pooled())) == 1200
    check_code(code)
    check_code(reversed_code(code))
    check_code(construct_instantaneous(list(range(1, 1201)) + [1200], 2))
    cert = certify(src, reversed_code(code))
    check_code(cert.canonical_code)
    check_code(cert.certified_code)


@pytest.mark.parametrize("r", RADICES)
def test_certificate_codes(r):
    rng = SplitMix64(100 + r)
    for n in (1, 2, 9, 300, 4096):
        src = random_source(rng, n, 2**40)
        codes = [random_prefix_code(rng, r, n)]
        codes.append(reversed_code(codes[0]))
        codes.append(huffman(src, r))
        for code in codes:
            cert = certify(src, code)
            check_code(cert.canonical_code)
            check_code(cert.certified_code)
    src = make_source([f"m{i}" for i in range(40)], [F(1, 40)] * 40)
    cert = certify(src, multi_codeword_code(SplitMix64(r), r, 40))
    check_code(cert.canonical_code)
    check_code(cert.certified_code)


def test_the_checks_refuse_what_a_builder_never_makes():
    # the oracles of this file are no tautology: each bad table fails them
    with pytest.raises(DuplicateSymbol):
        Source(("a", "a"), (1, 1), 2)
    with pytest.raises(ZeroOrNegativeProbability):
        Source(("a", "b"), (0, 2), 2)
    for mapping, error in (
        ((("a", ((0,), (0,))),), ValueError),
        ((("a", ((2,),)),), DigitOutOfRange),
        ((("a", ()),), ValueError),
    ):
        with pytest.raises(error):
            Code(2, mapping)
    with pytest.raises(ProbabilitySumNotOne):
        Source(("a", "b"), (1, 1), 3)
    with pytest.raises(ValueError, match="lowest terms"):
        Source(("a", "b"), (2, 2), 4)
