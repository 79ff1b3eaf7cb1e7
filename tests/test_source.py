"""Sources: exact probabilities, entropy, extensions, and sampling."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import (
    DuplicateSymbol,
    ExtensionTooLarge,
    InvalidRadix,
    ProbabilitySumNotOne,
    Source,
    ZeroOrNegativeProbability,
    entropy,
    extend_source,
    make_source,
    parse_rational,
    sample_stream,
)
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
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


# Fraction reads '_' separators and any script's decimal digits; the formats do not
@pytest.mark.parametrize("text", ["", "abc", "1/0", "1/2/3", "0x10", "nan", "inf", "1_0/3", "0.2_5", "١/٢", "１/２"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_make_source_accepts_strings_ints_fractions():
    src = make_source(["a", "b"], ["1/2", F(1, 2)])
    assert src.probs == (F(1, 2), F(1, 2))
    assert make_source(["x"], [1]).probs == (F(1),)


def test_make_source_rejects_floats():
    with pytest.raises(ZeroOrNegativeProbability, match="float"):
        make_source("ab", [0.5, 0.5])


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


def test_duplicate_symbol_is_named():
    with pytest.raises(DuplicateSymbol, match="symbol 'b' listed twice"):
        make_source("abcb", ["1/4"] * 4)


def test_source_lookup():
    src = dyadic_abc()
    assert len(src) == 3
    assert src.prob_of("b") == F(1, 4)
    assert src.index_of("c") == 2
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
    src = Source(tuple(range(len(probs))), tuple(probs))
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


def test_sample_stream_deterministic():
    src = dyadic_abc()
    assert sample_stream(src, 50, 7) == sample_stream(src, 50, 7)
    assert sample_stream(src, 50, 7) != sample_stream(src, 50, 8)
    assert sample_stream(src, 0, 7) == []


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
