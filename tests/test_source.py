"""Sources: exact probabilities, entropy, extensions, and sampling."""

import hashlib
import math
import random
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import (
    CodecertError,
    DuplicateSymbol,
    ExtensionTooLarge,
    InvalidRadix,
    ProbabilitySumNotOne,
    Source,
    SplitMix64,
    ZeroOrNegativeProbability,
    brute_force_ud,
    check_group_inequality,
    check_pp_inequalities,
    compact_standalone,
    empirical_acl,
    entropy,
    extend_source,
    find_sibling_group,
    make_code,
    make_policy,
    make_source,
    parse_rational,
    random_prefix_code,
    random_source,
    reduce_group,
    sample_stream,
    to_tree,
    tree_source,
)
from codecert.randgen import _grow_leaf_paths, _random_leaf_paths
from codecert.source import _log
from oracles import entropy_oracle


def dyadic_abc():
    return make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])


# --- parsing and validation ---


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2", F(1, 2)),
        (" 3/10 ", F(3, 10)),
        ("0.25", F(1, 4)),
        ("0.1", F(1, 10)),  # exact decimal, not the binary float
        ("1", F(1)),
        ("7/28", F(1, 4)),
        # plain 'a/b' and 'a' take a fast path; the other forms read as Fraction(text)
        ("007/010", F(7, 10)),
        ("0/5", F(0)),
        ("1099511627775/1099511627776", F(2**40 - 1, 2**40)),
        ("+1/2", F(1, 2)),
        ("-1/2", F(-1, 2)),
        ("1/2\n", F(1, 2)),
        ("\t3/4", F(3, 4)),
        (".5", F(1, 2)),
        ("1.5e2", F(150)),
    ],
)
def test_parse_rational(text, expected):
    value = parse_rational(text)
    assert type(value) is F and value == expected


# Fraction reads '_' separators and any script's decimal digits; the formats do not
@pytest.mark.parametrize(
    "text",
    ["", "abc", "1/0", "1/00", "0/0", "1/2/3", "1 /2", "1/ 2", "1/", "/2", "3/-4", "0x10", "nan", "inf"]
    + ["1_0/3", "10/3_0", "0.2_5", "١/٢", "1/٢", "²/3", "１/２"],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == f"not a rational number: {text!r}"


def test_make_source_accepts_strings_ints_fractions():
    src = make_source(["a", "b"], ["1/2", F(1, 2)])
    assert src.probs == (F(1, 2), F(1, 2))
    assert make_source(["x"], [1]).probs == (F(1),)


def test_make_source_rejects_floats():
    with pytest.raises(ZeroOrNegativeProbability, match="float"):
        make_source("ab", [0.5, 0.5])


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_source("a", [True]),
        lambda: make_policy({"a": [True]}),
        lambda: check_group_inequality([True, True], 2),
        lambda: check_pp_inequalities([True], 2),
    ],
    ids=["make_source", "make_policy", "group", "pp"],
)
def test_a_bool_is_refused_wherever_a_float_is(build):
    with pytest.raises(ZeroOrNegativeProbability, match=r"^bool probability True rejected"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda value: make_source("a", [value]),
        lambda value: make_policy({"a": [value]}),
        lambda value: check_group_inequality([value], 2),
    ],
    ids=["make_source", "make_policy", "group"],
)
@pytest.mark.parametrize(
    "value,shown",
    [
        (None, "None"),
        (1j, "1j"),
        (Decimal("NaN"), "Decimal('NaN')"),
        (Decimal("Infinity"), "Decimal('Infinity')"),
        (list(range(100)), "'[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1'... (390 characters)"),
    ],
    ids=["None", "complex", "nan", "infinity", "long"],
)
def test_a_value_fraction_cannot_read_is_refused(build, value, shown):
    # Fraction raises TypeError or OverflowError for these, which is neither a
    # CodecertError nor a ValueError
    with pytest.raises(ValueError, match=f"^{re.escape(f'not a rational number: {shown}')}$"):
        build(value)


def test_source_invariants():
    with pytest.raises(ProbabilitySumNotOne):
        make_source("ab", ["1/2", "1/3"])
    with pytest.raises(ZeroOrNegativeProbability):
        make_source("ab", ["0", "1"])
    with pytest.raises(ZeroOrNegativeProbability):
        make_source("ab", ["-1/2", "3/2"])
    with pytest.raises(DuplicateSymbol):
        make_source("aa", ["1/2", "1/2"])
    with pytest.raises(ValueError):
        make_source([], [])
    with pytest.raises(ValueError):
        make_source("ab", ["1"])


def test_source_masses_over_one_denominator():
    src = make_source("abc", [F(1, 6), F(1, 4), F(7, 12)])
    assert (src.denominator, src.masses) == (12, (2, 3, 7))
    assert all(F(m, src.denominator) == p for m, p in zip(src.masses, src.probs))
    assert make_source("x", [1]).masses == (1,)
    # coprime denominators: D is their product
    assert make_source("ab", [F(1, 3), F(2, 3)]).denominator == 3
    assert make_source("abc", [F(1, 2), F(1, 3), F(1, 6)]).masses == (3, 2, 1)
    with pytest.raises(ProbabilitySumNotOne, match="sum to 5/6, not 1"):
        make_source("ab", ["1/2", "1/3"])


def test_a_wrong_sum_over_a_long_denominator_is_not_printed():
    # D = 2 * 3**100 has 160 bits, past the 128 whose sums are printed exactly
    with pytest.raises(ProbabilitySumNotOne, match=r"^probabilities sum to less than 1 \(over a common denominator of 160 bits\)$"):
        make_source("ab", [F(1, 3**100), F(1, 2)])
    with pytest.raises(ProbabilitySumNotOne, match=r"^probabilities sum to more than 1 \(over a common denominator of 160 bits\)$"):
        make_source("abc", [F(1, 3**100), F(1, 2), F(1, 2)])
    # D = 4 * 3**75 has 121 bits
    with pytest.raises(ProbabilitySumNotOne, match=rf"^probabilities sum to {F(3, 4) + F(1, 3**75)}, not 1$"):
        make_source("ab", [F(1, 3**75), F(3, 4)])


def test_common_denominator_cap_boundary():
    # 2^299,999 has 300,000 bits and 2^300,000 one more
    assert make_source("ab", [F(1, 2**299_999), 1 - F(1, 2**299_999)]).denominator == 2**299_999
    with pytest.raises(ValueError, match=r"^the probabilities' common denominator has more than 300,000 bits$"):
        make_source("ab", [F(1, 2**300_000), 1 - F(1, 2**300_000)])


def test_source_rejects_inexact_probabilities():
    with pytest.raises(ZeroOrNegativeProbability, match=r"^p\('a'\) has mass 0\.5, not an integer$"):
        Source(("a", "b"), (0.5, 0.5), 1)


@pytest.mark.parametrize(
    "masses,denominator,error,message",
    [
        ((F(1, 2), F(1, 2)), 1, ZeroOrNegativeProbability, r"^p\('a'\) has mass Fraction\(1, 2\), not an integer$"),
        ((1, 0.5), 2, ZeroOrNegativeProbability, r"^p\('b'\) has mass 0\.5, not an integer$"),
        ((True,), 1, ZeroOrNegativeProbability, r"^p\('a'\) has mass True, not an integer$"),
        ((1, -1), 2, ZeroOrNegativeProbability, r"^p\('b'\) = -1/2 is not strictly positive$"),
        ((0, 1), 1, ZeroOrNegativeProbability, r"^p\('a'\) = 0 is not strictly positive$"),
        ((1, 1), 2.0, ValueError, r"^denominator 2\.0 is not a positive integer$"),
        ((1, 1), F(2), ValueError, r"^denominator Fraction\(2, 1\) is not a positive integer$"),
        ((1, 1), "2", ValueError, r"^denominator '2' is not a positive integer$"),
        ((1, 1), None, ValueError, r"^denominator None is not a positive integer$"),
        ((1,), True, ValueError, r"^denominator True is not a positive integer$"),
        ((1, 1), 0, ValueError, r"^denominator 0 is not a positive integer$"),
        ((1, 1), -2, ValueError, r"^denominator -2 is not a positive integer$"),
        ((2, 2), 4, ValueError, r"not in lowest terms$"),
        ((3,), 3, ValueError, r"not in lowest terms$"),
        ((2, 4), 6, ValueError, r"not in lowest terms$"),
        ((1, 2), 4, ProbabilitySumNotOne, r"^probabilities sum to 3/4, not 1$"),
        ((1, 1), 3, ProbabilitySumNotOne, r"^probabilities sum to 2/3, not 1$"),
        ((1,), 1 << 200, ProbabilitySumNotOne, r"^probabilities sum to less than 1 \(over a common denominator of 201 bits\)$"),
    ],
)
def test_source_refuses_malformed_masses_without_a_type_error(masses, denominator, error, message):
    # a TypeError is neither a CodecertError nor a ValueError, so it would escape this check
    with pytest.raises((CodecertError, ValueError)) as info:
        Source(("a", "b")[: len(masses)], masses, denominator)
    assert isinstance(info.value, error)
    assert re.search(message, str(info.value))


def test_log_reduces_masses_below_the_float_range():
    # 5/(5*2^1100) = 2^-1100 is 0.0 as a float; unreduced, the fallback's
    # log(5) - log(5*2^1100) is one unit in the last place off
    assert _log(1, 2**1100).hex() == "-0x1.7d3b1f7e6cc3cp+9"
    assert _log(5, 5 * 2**1100).hex() == _log(12, 12 * 2**1100).hex() == _log(1, 2**1100).hex()
    assert _log(3, 12) == math.log(0.25)


def test_duplicate_symbol_is_named():
    with pytest.raises(DuplicateSymbol, match="symbol 'b' listed twice"):
        make_source("abcb", ["1/4"] * 4)


def test_an_unhashable_symbol_is_met_by_the_entry_walk():
    # the walk over the entries raises the set's TypeError at the symbol
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        Source(("a", ["b"]), (1, 1), 2)


@pytest.mark.parametrize(
    "symbols, masses, denominator, error, message, entry",
    [
        ("ab", (1, 0), 1, ZeroOrNegativeProbability, "p('b') = 0 is not strictly positive", 1),
        ("ab", (1, True), 2, ZeroOrNegativeProbability, "p('b') has mass True, not an integer", 1),
        ("ab", (1.0, 1), 2, ZeroOrNegativeProbability, "p('a') has mass 1.0, not an integer", 0),
        ("aba", (1, 1, 1), 3, DuplicateSymbol, "symbol 'a' listed twice", None),
        ("abc", (1, -1, 0.5), 2, ZeroOrNegativeProbability, "p('b') = -1/2 is not strictly positive", 1),
        ("aba", (1, 0, 1), 2, ZeroOrNegativeProbability, "p('b') = 0 is not strictly positive", 1),
    ],
    ids=["zero", "bool", "float", "twice", "two-faults", "fault-before-twice"],
)
def test_a_faulty_source_table_is_refused_at_the_entry_at_fault(symbols, masses, denominator, error, message, entry):
    # the walk over the entries raises the error of the earliest fault, and names its entry
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        Source(tuple(symbols), masses, denominator)
    assert getattr(info.value, "entry", None) == entry


def test_source_lookup():
    src = dyadic_abc()
    assert len(src) == 3
    assert src.prob_of("b") == F(1, 4)
    with pytest.raises(ValueError):
        src.prob_of("z")


# --- entropy ---


def test_entropy_worked_values():
    assert entropy(dyadic_abc(), 2) == 1.5
    src = make_source("abc", [F(3, 5), F(1, 5), F(1, 5)])
    assert entropy(src, 2) == pytest.approx(1.370950594454668638998076, abs=1e-14)
    src4 = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    assert entropy(src4, 2) == pytest.approx(1.846439344671015493434198, abs=1e-14)


def test_entropy_singleton_is_zero():
    h = entropy(make_source("a", [1]), 2)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_entropy_uniform_is_log_r_n():
    src = make_source("abcd", [F(1, 4)] * 4)
    assert entropy(src, 2) == pytest.approx(2.0, abs=1e-12)
    assert entropy(src, 4) == pytest.approx(1.0, abs=1e-12)


def test_entropy_radix_validation():
    src = dyadic_abc()
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(InvalidRadix):
            entropy(src, bad)


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_entropy_bounds_and_oracle(numerators, r):
    total = sum(numerators)
    probs = [F(k, total) for k in numerators]
    src = make_source(range(len(probs)), probs)
    h = entropy(src, r)
    assert -1e-12 <= h <= math.log(len(probs), r) + 1e-12
    assert h == pytest.approx(entropy_oracle(probs, r), abs=1e-10)


# --- extensions ---


def test_extend_source_square():
    src = dyadic_abc()
    ext = extend_source(src, 2)
    assert len(ext) == 9
    assert ext.prob_of(("a", "b")) == F(1, 8)
    assert sum(ext.probs, F(0)) == 1
    assert entropy(ext, 2) == pytest.approx(2 * entropy(src, 2), abs=1e-9)


def test_extend_source_identity_and_errors():
    src = dyadic_abc()
    assert extend_source(src, 1).probs == src.probs
    with pytest.raises(ValueError):
        extend_source(src, 0)
    with pytest.raises(ExtensionTooLarge):
        extend_source(src, 2, max_symbols=8)


def test_extension_order_is_refused_before_the_power_is_built():
    # 2**(10**7) alone is a 1.25 MB integer
    src = make_source("ab", [F(1, 2), F(1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(ExtensionTooLarge, match=r"^2\^10000000 symbols exceeds the cap of 1000000$"):
            extend_source(src, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(ExtensionTooLarge, match=r"^2\^20 symbols exceeds the cap of 1000000$"):
        extend_source(src, 20)
    assert len(extend_source(src, 3, max_symbols=8)) == 8
    for p in (4, 5):  # 4 is the cap's bit length, 5 is past it
        with pytest.raises(ExtensionTooLarge):
            extend_source(src, p, max_symbols=8)
    # one symbol has one block of every order
    assert extend_source(make_source("a", [1]), 50, max_symbols=8).probs == (F(1),)


def test_extension_multiplies_integer_masses_not_fractions():
    # one symbol's blocks are never capped, so p = 2*10**6 is a product of 2*10**6 masses
    p = 2 * 10**6
    start = time.perf_counter()
    ext = extend_source(make_source("a", [1]), p)
    elapsed = time.perf_counter() - start
    assert (ext.symbols, ext.probs) == ((("a",) * p,), (F(1),))
    assert elapsed < 1.5, f"{elapsed:.2f} s"
    # a block's probability is the product of its symbols' probabilities, in lowest terms
    src = make_source("abc", ["1/3", "1/6", "1/2"])
    ext = extend_source(src, 3)
    for block, prob in zip(ext.symbols, ext.probs):
        assert prob == math.prod(map(src.prob_of, block))


# --- every builder hands over the least denominator ---


def as_triple(src):
    return src.symbols, src.masses, src.denominator


def fraction_source(seed):
    """A seeded source of one to four symbols over mixed, often coprime denominators."""
    rng = random.Random(seed)
    weights = [F(rng.randint(1, 40), rng.choice((1, 2, 3, 5, 7, 9, 11, 16, 25))) for _ in range(rng.randint(1, 4))]
    total = sum(weights)
    return make_source([f"x{i}" for i in range(len(weights))], [w / total for w in weights])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_extension_equals_make_source_of_its_fractions(p):
    sources = [fraction_source(seed) for seed in range(100)]
    sources += [make_source("abc", ["1/3", "1/5", "7/15"]), make_source("ab", ["1/4", "3/4"]), make_source("a", [1])]
    for src in sources:
        ext = extend_source(src, p)
        probs = [math.prod(map(src.prob_of, block)) for block in ext.symbols]
        assert as_triple(ext) == as_triple(make_source(ext.symbols, probs))


def fraction_random_source(rng, n, max_den):
    """random_source's draws as Fractions through make_source, with the drawn denominator."""
    if n == 1:
        return make_source(["s1"], [1]), 1
    denom = rng.randrange(n, max_den + 1)
    cuts = rng.sample_distinct(denom - 1, n - 1)
    bounds = [0] + [c + 1 for c in cuts] + [denom]
    parts = [F(b - a, denom) for a, b in zip(bounds, bounds[1:])]
    return make_source([f"s{i + 1}" for i in range(n)], parts), denom


def test_random_source_equals_make_source_of_its_fractions():
    shared = 0
    for seed in range(150):
        for n in range(1, 13):
            for max_den in (12, 64):
                src = random_source(SplitMix64(seed), n, max_den)
                expected, denom = fraction_random_source(SplitMix64(seed), n, max_den)
                assert as_triple(src) == as_triple(expected)
                shared += expected.denominator < denom
    assert shared > 100  # the parts shared a factor with the drawn denominator


def test_tree_source_equals_make_source_of_its_leaves():
    # a merge can shrink the least denominator: 1/6 + 1/3 = 1/2
    rng = SplitMix64(19)
    for _ in range(150):
        r, n = 2 + rng.randbelow(4), 1 + rng.randbelow(12)
        src, _ = fraction_random_source(rng, n, 36)
        tree = compact_standalone(to_tree(random_prefix_code(rng, r, n), src))
        while True:
            expected = make_source([leaf.symbol for leaf in tree.nodes], [leaf.prob for leaf in tree.nodes])
            assert as_triple(tree_source(tree)) == as_triple(expected)
            if len(tree.paths) == 1:
                break
            _, tree, _ = reduce_group(tree, find_sibling_group(tree))


def test_extension_entropy_additivity_dyadic_oracle():
    # the p = 2 extension of the dyadic source has entropy exactly 3.0
    ext = extend_source(dyadic_abc(), 2)
    assert entropy(ext, 2) == pytest.approx(3.0, abs=1e-12)


# --- sampling ---


def test_stream_seed_validation():
    for src in (dyadic_abc(), make_source("a", [1])):
        assert len(sample_stream(src, 3, 0)) == len(sample_stream(src, 3, 2**64 - 1)) == 3
        for bad in (-1, 2**64, 2**64 + 5, "7"):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                sample_stream(src, 3, bad)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda src, code: extend_source(src, 1.5), "extension order must be >= 1"),
        (lambda src, code: extend_source(src, True), "extension order must be >= 1"),
        (lambda src, code: extend_source(src, 2, max_symbols=4.5), "the extension's cap max_symbols must be >= 1"),
        (lambda src, code: extend_source(src, 2, max_symbols=None), "the extension's cap max_symbols must be >= 1"),
        (lambda src, code: extend_source(src, 2, max_symbols=True), "the extension's cap max_symbols must be >= 1"),
        (lambda src, code: sample_stream(src, 1.5, 1), "stream length must be >= 0"),
        (lambda src, code: sample_stream(src, True, 1), "stream length must be >= 0"),
        (lambda src, code: sample_stream(src, 3, True), "seed must be a 64-bit unsigned integer"),
        (lambda src, code: sample_stream(src, 3, 1.0), "seed must be a 64-bit unsigned integer"),
        (lambda src, code: empirical_acl(src, code, None, 2.5, 1), "simulation needs t >= 1"),
        (lambda src, code: empirical_acl(src, code, None, True, 1), "simulation needs t >= 1"),
        (lambda src, code: brute_force_ud(code, 2.5), "the witness search needs max_len >= 0"),
        (lambda src, code: brute_force_ud(code, False), "the witness search needs max_len >= 0"),
        (lambda src, code: random_source(SplitMix64(1), 2.5), "need at least one symbol (an int), got 2.5"),
        (lambda src, code: random_source(SplitMix64(1), True), "need at least one symbol (an int), got True"),
        (lambda src, code: random_source(SplitMix64(1), 1, 64.5), "max_den must be at least n = 1 (an int), got 64.5"),
        (lambda src, code: random_source(SplitMix64(1), 3, 64.5), "max_den must be at least n = 3 (an int), got 64.5"),
        (lambda src, code: random_source(SplitMix64(1), 3, 2), "max_den must be at least n = 3, got 2"),
        (lambda src, code: _grow_leaf_paths(SplitMix64(1), 2, 2.5), "need at least zero internal nodes (an int), got 2.5"),
        (lambda src, code: _random_leaf_paths(SplitMix64(1), 2, False), "need at least one codeword (an int), got False"),
    ],
    ids=[
        "order-float",
        "order-bool",
        "cap-float",
        "cap-none",
        "cap-bool",
        "t-float",
        "t-bool",
        "seed-bool",
        "seed-float",
        "simulate-t-float",
        "simulate-t-bool",
        "budget-float",
        "budget-bool",
        "random-n-float",
        "random-n-bool",
        "random-max_den-float-one-symbol",
        "random-max_den-float",
        "random-max_den-small",
        "grown-z-float",
        "random-codewords-bool",
    ],
)
def test_integer_parameters_refuse_a_non_int_or_a_bool(call, message):
    src = dyadic_abc()
    code = make_code(2, {"a": "0", "b": "10", "c": "11"})
    with pytest.raises(ValueError, match=re.escape(message)):
        call(src, code)


def test_sample_stream_deterministic():
    src = dyadic_abc()
    assert sample_stream(src, 50, 7) == sample_stream(src, 50, 7)
    assert sample_stream(src, 50, 7) != sample_stream(src, 50, 8)
    assert sample_stream(src, 0, 7) == []


def test_sample_stream_pinned_over_many_blocks():
    # recorded with one randbelow call per draw: 100,000 draws below a
    # 40-bit denominator read hundreds of 256-output blocks, with rejections
    d = 3 * 2**38 + 7
    masses = [d // 3, d // 5, d // 7, d // 11, d // 13]
    src = make_source("abcdef", [F(m, d) for m in masses + [d - sum(masses)]])
    assert src.denominator == d
    index = {s: i for i, s in enumerate(src.symbols)}
    stream = bytes(map(index.__getitem__, sample_stream(src, 100_000, 2014)))
    assert hashlib.sha256(stream).hexdigest() == "2271cdaa8b69e6cd01e402e1f669d9131e6c888647e3e1636a5817e5ca4e9414"


def test_sample_stream_prefix_property():
    src = dyadic_abc()
    long = sample_stream(src, 100, 3)
    assert sample_stream(src, 40, 3) == long[:40]


def test_sample_stream_singleton():
    src = make_source("a", [1])
    assert sample_stream(src, 5, 1) == ["a"] * 5


def test_sample_stream_law():
    src = make_source("ab", [F(9, 10), F(1, 10)])
    draws = sample_stream(src, 20000, 123)
    freq_b = draws.count("b") / 20000
    assert abs(freq_b - 0.1) < 0.01
