"""Codes, codewords, Kraft sums, ACL in its three flavors."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import (
    Code,
    Codeword,
    DigitOutOfRange,
    InvalidRadix,
    MissingPolicy,
    MissingSymbol,
    acl,
    acl_exact,
    empirical_acl,
    is_non_singular,
    kraft_sum,
    make_code,
    make_policy,
    make_source,
    minimal_reduction,
)


def dyadic_abc():
    return make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])


def code_abc():
    return make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])


# --- codewords ---


def test_codeword_parse_and_str():
    assert Codeword.parse("010").digits == (0, 1, 0)
    assert Codeword.parse("-").digits == ()
    assert str(Codeword((1, 0))) == "10"
    assert str(Codeword(())) == "-"
    assert str(Codeword((3, 11))) == "3.11"
    for bad in ("", "12a", "1 0", "0,1", "١٠", "٣.١١", "１", "1_0.2"):
        with pytest.raises(ValueError):
            Codeword.parse(bad)


def test_codeword_text_round_trips_digits_up_to_35():
    rng = random.Random(35)
    words = [Codeword((d,)) for d in range(36)]
    words += [Codeword(tuple(rng.randrange(36) for _ in range(rng.randint(0, 5)))) for _ in range(500)]
    for w in words:
        assert Codeword.parse(str(w)) == w
    assert (str(Codeword((10,))), str(Codeword((1, 0)))) == ("10.", "10")
    assert Codeword.parse("10.") != Codeword.parse("10")


def test_codeword_prefix_relation():
    assert Codeword(()).is_prefix_of(Codeword((0,)))
    assert Codeword((1,)).is_prefix_of(Codeword((1, 0)))
    assert not Codeword((1, 0)).is_prefix_of(Codeword((1,)))
    assert Codeword((1,)).is_prefix_of(Codeword((1,)))
    assert Codeword((1, 0, 1)).drop_last() == Codeword((1, 0))


# --- code construction ---


def test_make_code_forms():
    by_dict = make_code(2, {"a": "0", "b": ["10", "11"]})
    assert by_dict.codewords("a") == (Codeword((0,)),)
    assert by_dict.codewords("b") == (Codeword((1, 0)), Codeword((1, 1)))
    assert not by_dict.is_singleton()
    assert code_abc().is_singleton()


def test_code_validation():
    with pytest.raises(DigitOutOfRange):
        make_code(2, {"a": "02"})
    with pytest.raises(InvalidRadix):
        make_code(0, {"a": "0"})
    with pytest.raises(InvalidRadix, match="got True"):
        make_code(True, {"a": "0"})
    with pytest.raises(ValueError):
        Code(2, (("a", ()),))
    with pytest.raises(ValueError):
        Code(2, (("a", (Codeword((0,)),)), ("a", (Codeword((1,)),))))
    with pytest.raises(ValueError):
        make_code(2, [("a", ["0", "0"])])


def test_code_lookup_and_lengths():
    code = code_abc()
    assert code.symbols == ("a", "b", "c")
    assert code.lengths() == [1, 2, 2]
    assert code.covers(dyadic_abc())
    with pytest.raises(MissingSymbol):
        code.codewords("z")


def test_is_non_singular():
    assert is_non_singular(code_abc())
    shared = make_code(2, [("a", "0"), ("b", "0")])
    assert not is_non_singular(shared)


# --- Kraft sum ---


def test_kraft_sum_exact():
    assert kraft_sum([1, 2, 2], 2) == 1
    assert kraft_sum([1, 2, 3], 2) == F(7, 8)
    assert kraft_sum([1, 1, 1], 3) == 1
    assert kraft_sum([], 2) == 0
    assert kraft_sum([0], 2) == 1  # the empty codeword counts in full
    with pytest.raises(InvalidRadix):
        kraft_sum([1], 1)
    with pytest.raises(ValueError):
        kraft_sum([-1], 2)


@given(
    st.lists(st.integers(min_value=0, max_value=12), max_size=10),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_kraft_sum_permutation_invariant(lengths, r):
    assert kraft_sum(lengths, r) == kraft_sum(sorted(lengths, reverse=True), r)
    assert kraft_sum(lengths, r) == sum((F(1, r**l) for l in lengths), F(0))


# --- ACL ---


def test_acl_exact_worked_instance():
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    code = make_code(2, {"a": "0", "b": "10", "c": "110", "d": "111"})
    assert acl_exact(src, code) == F(19, 10)
    assert acl(src, code) == 1.9


def test_acl_policy_weighted():
    src = make_source("ab", [F(1, 2), F(1, 2)])
    code = make_code(2, {"a": ["0", "11"], "b": "10"})
    policy = make_policy({"a": ["1/2", "1/2"]})
    assert acl_exact(src, code, policy) == F(1, 2) * F(3, 2) + F(1, 2) * 2
    with pytest.raises(MissingPolicy):
        acl_exact(src, code)
    with pytest.raises(MissingPolicy):
        acl_exact(src, code, make_policy({"a": ["1/3", "1/3", "1/3"]}))


def test_acl_missing_symbol():
    src = dyadic_abc()
    with pytest.raises(MissingSymbol):
        acl_exact(src, make_code(2, {"a": "0", "b": "1"}))


def test_policy_validation():
    with pytest.raises(ValueError):
        make_policy({"a": ["1/2", "1/3"]})
    with pytest.raises(ValueError):
        make_policy({"a": ["1", "0"]})
    with pytest.raises(ValueError):
        make_policy({"a": []})


# --- minimal reduction ---


def test_minimal_reduction_picks_shortest():
    code = make_code(2, {"a": ["010", "0", "11"], "b": ["10", "111"]})
    reduced = minimal_reduction(code)
    assert reduced.codewords("a") == (Codeword((0,)),)
    assert reduced.codewords("b") == (Codeword((1, 0)),)
    assert minimal_reduction(reduced).mapping == reduced.mapping


def test_minimal_reduction_tie_breaks_to_least_digits():
    code = make_code(2, {"a": ["11", "10"]})
    assert minimal_reduction(code).codewords("a") == (Codeword((1, 0)),)


def test_minimal_reduction_never_longer_under_any_policy():
    src = make_source("ab", [F(2, 3), F(1, 3)])
    code = make_code(2, {"a": ["0", "110"], "b": ["10", "111"]})
    reduced = minimal_reduction(code)
    for qa in (F(1, 4), F(1, 2), F(3, 4)):
        policy = make_policy({"a": [qa, 1 - qa], "b": [qa, 1 - qa]})
        assert acl_exact(src, reduced) <= acl_exact(src, code, policy)


# --- empirical ACL ---


def test_empirical_symbol_stream_independent_of_code():
    src = dyadic_abc()
    t1 = empirical_acl(src, code_abc(), None, 200, 5)
    other = make_code(2, {"a": "1", "b": "01", "c": "00"})
    t2 = empirical_acl(src, other, None, 200, 5)
    assert t1.symbol_indices == t2.symbol_indices


def test_empirical_acl_matches_running_average():
    src = dyadic_abc()
    trace = empirical_acl(src, code_abc(), None, 500, 9)
    lengths = trace.step_lengths()
    acc = 0
    for k, l in enumerate(lengths, start=1):
        acc += l
        assert trace.acl_values[k - 1] == acc / k
    assert trace.t == 500
    assert sum(trace.frequencies().values()) == 500


def test_empirical_acl_converges():
    src = dyadic_abc()
    trace = empirical_acl(src, code_abc(), None, 100000, 1)
    assert abs(trace.acl_values[-1] - 1.5) <= 0.05


def test_empirical_acl_policy_draws_converge():
    src = make_source("ab", [F(1, 2), F(1, 2)])
    code = make_code(2, {"a": ["0", "11"], "b": "10"})
    policy = make_policy({"a": ["1/2", "1/2"]})
    trace = empirical_acl(src, code, policy, 50000, 1)
    assert abs(trace.acl_values[-1] - 1.75) < 0.05


def test_empirical_acl_chooser_callable():
    src = make_source("a", ["1"])
    code = make_code(2, {"a": ["0", "11"]})
    with pytest.raises(MissingPolicy):
        empirical_acl(src, code, None, 10, 1)
    longest = empirical_acl(src, code, lambda sym, z, words: len(words) - 1, 100, 1)
    shortest = empirical_acl(src, code, lambda sym, z, words: 0, 100, 1)
    assert longest.symbol_indices == shortest.symbol_indices
    assert longest.acl_values[-1] == 2.0
    assert shortest.acl_values[-1] == 1.0
    with pytest.raises(ValueError):
        empirical_acl(src, code, lambda sym, z, words: 7, 10, 1)


def test_empirical_pathwise_floor():
    src = make_source("ab", [F(2, 3), F(1, 3)])
    code = make_code(2, {"a": ["0", "110"], "b": ["10", "111"]})
    policy = make_policy({"a": ["1/2", "1/2"], "b": ["1/2", "1/2"]})
    trace = empirical_acl(src, code, policy, 2000, 17)
    floor = empirical_acl(src, minimal_reduction(code), None, 2000, 17)
    assert trace.symbol_indices == floor.symbol_indices
    assert all(a >= b for a, b in zip(trace.acl_values, floor.acl_values))


def test_empirical_acl_policy_stream_pinned():
    # recorded values: the seeded symbol and codeword-choice streams are
    # part of the output contract
    src = make_source("abc", ["1/2", "1/3", "1/6"])
    code = make_code(3, {"a": ["0", "10", "11"], "b": ["2", "12"], "c": ["20", "21", "220", "221"]})
    policy = make_policy({"a": ["1/7", "2/7", "4/7"], "b": ["5/11", "6/11"], "c": ["1/10", "1/5", "3/10", "2/5"]})
    trace = empirical_acl(src, code, policy, 24, 2026)
    assert trace.symbol_indices == (1, 1, 1, 0, 0, 2, 1, 0, 0, 0, 1, 0, 1, 2, 0, 1, 1, 2, 2, 1, 0, 2, 0, 2)
    assert trace.codeword_indices == (0, 1, 1, 2, 2, 0, 1, 2, 1, 2, 1, 2, 0, 3, 2, 1, 0, 0, 3, 1, 2, 2, 2, 1)


def test_empirical_acl_seed_reproducibility():
    src = dyadic_abc()
    a = empirical_acl(src, code_abc(), None, 300, 42)
    b = empirical_acl(src, code_abc(), None, 300, 42)
    assert a.acl_values == b.acl_values
    assert a.codeword_indices == b.codeword_indices
