"""Codes, codewords, Kraft sums, ACL in its three flavors."""

import hashlib
import itertools
import math
import random
import re
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import (
    Code,
    DigitOutOfRange,
    DuplicateSymbol,
    EncodingPolicy,
    InvalidRadix,
    MissingPolicy,
    MissingSymbol,
    ZeroOrNegativeProbability,
    acl,
    acl_exact,
    construct_instantaneous,
    empirical_acl,
    format_codeword,
    kraft_sum,
    make_code,
    make_policy,
    make_source,
    minimal_reduction,
    parse_codeword,
)
from codecert import codes
from codecert.rng import _CHUNK, SplitMix64, derived_seed
from traces import encoded_trace


def dyadic_abc():
    return make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])


def code_abc():
    return make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])


# --- codewords ---


def test_codeword_parse_and_str():
    assert parse_codeword("010") == (0, 1, 0)
    assert parse_codeword("-") == ()
    assert format_codeword((1, 0)) == "10"
    assert format_codeword(()) == "-"
    assert format_codeword((3, 11)) == "3.11"
    for bad in ("", "12a", "1 0", "0,1", "١٠", "٣.١١", "１", "1_0.2"):
        with pytest.raises(ValueError):
            parse_codeword(bad)


def test_codeword_text_round_trips_digits_up_to_35():
    rng = random.Random(35)
    words = [(d,) for d in range(36)]
    words += [tuple(rng.randrange(36) for _ in range(rng.randint(0, 5))) for _ in range(500)]
    for w in words:
        assert parse_codeword(format_codeword(w)) == w
    assert (format_codeword((10,)), format_codeword((1, 0))) == ("10.", "10")
    assert parse_codeword("10.") != parse_codeword("10")


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 36).flatmap(lambda r: st.lists(st.integers(0, r - 1), max_size=12)))
def test_codeword_text_round_trips_at_every_radix(digits):
    # one digit per character below 10 (the translate tables), dotted from 10 on
    word = tuple(digits)
    text = format_codeword(word)
    assert parse_codeword(text) == word
    assert ("." in text) == any(d > 9 for d in word)


# --- code construction ---


def test_make_code_forms():
    by_dict = make_code(2, {"a": "0", "b": ["10", "11"]})
    assert by_dict.codewords("a") == ((0,),)
    assert by_dict.codewords("b") == ((1, 0), (1, 1))
    assert not by_dict.is_singleton()
    assert code_abc().is_singleton()


def test_code_validation():
    with pytest.raises(DigitOutOfRange):
        make_code(2, {"a": "02"})
    # the first digit out of range, in word order, is the one named
    with pytest.raises(DigitOutOfRange, match=r"^digit 3 >= radix 3$"):
        make_code(3, {"a": ["01", "1302"]})
    with pytest.raises(DigitOutOfRange, match=r"^negative digit -1$"):
        Code(2, (("a", ((1, -1, 5),)),))
    with pytest.raises(InvalidRadix):
        make_code(0, {"a": "0"})
    with pytest.raises(InvalidRadix, match="got True"):
        make_code(True, {"a": "0"})
    with pytest.raises(ValueError):
        Code(2, (("a", ()),))
    with pytest.raises(ValueError):
        Code(2, (("a", ((0,),)), ("a", ((1,),))))
    with pytest.raises(ValueError):
        make_code(2, [("a", ["0", "0"])])


@pytest.mark.parametrize("digit", [0.5, True, "0"], ids=["float", "bool", "str"])
def test_a_digit_that_is_not_an_int_is_refused(digit):
    # 0.5 and True passed the range check, and "0" escaped as a TypeError from min
    with pytest.raises(DigitOutOfRange, match=r" is not an int$") as info:
        make_code(2, {"a": [(0,)], "b": [(digit,)]})
    assert info.value.entry == 1


def test_a_code_reports_its_first_entry_at_fault():
    # all the digits are checked in one pass, yet an earlier entry's fault is the one reported
    with pytest.raises(ValueError, match="repeats a codeword") as info:
        make_code(2, [("a", "0"), ("b", ["1", "1"]), ("c", "12")])
    assert info.value.entry == 1


@pytest.mark.parametrize(
    "mapping, error, message, entry",
    [
        ((("a", ((0,),)), ("b", ())), ValueError, "symbol 'b' has an empty codeword set", 1),
        ((("a", ((0,), (1,))), ("b", ((1, 0), (1, 0)))), ValueError, "symbol 'b' repeats a codeword", 1),
        ((("a", ((0,),)), ("b", ((1,),)), ("a", ((1, 1),))), ValueError, "symbol 'a' listed twice", None),
        ((("a", ((0,),)), (["b"], ((1,),))), TypeError, "unhashable type: 'list'", None),
        ((("a", ((0,),), "extra"),), ValueError, "too many values to unpack", None),
    ],
    ids=["empty-set", "repeat", "twice", "unhashable", "triple"],
)
def test_a_faulty_code_table_is_refused_at_the_entry_at_fault(mapping, error, message, entry):
    # the walk over the entries raises, and names the entry at fault
    with pytest.raises(error, match=re.escape(message)) as info:
        Code(2, mapping)
    assert getattr(info.value, "entry", None) == entry


def test_a_codeword_that_is_not_a_digit_tuple_is_refused():
    for word in ([1], "01"):
        with pytest.raises(DigitOutOfRange, match="is not a tuple of digits") as info:
            Code(2, (("a", ((0,),)), ("b", (word,))))
        assert info.value.entry == 1


def test_a_codeword_set_or_word_that_is_an_int_is_refused():
    # both raised a raw TypeError ('int' object is not iterable)
    for build, message in (
        (lambda: make_code(2, {"a": "0", "b": [5]}), "codeword 5 of 'b' is not a tuple of digits"),
        (lambda: make_code(2, {"a": "0", "b": 5}), "codewords 5 of 'b' are not a tuple of codewords"),
        (lambda: Code(2, (("a", ((0,),)), ("b", 5))), "codewords 5 of 'b' are not a tuple of codewords"),
    ):
        with pytest.raises(DigitOutOfRange, match=f"^{message}$") as info:
            build()
        assert info.value.entry == 1


def test_code_lookup_and_lengths():
    code = code_abc()
    assert code.symbols == ("a", "b", "c")
    assert code.lengths() == [1, 2, 2]
    with pytest.raises(MissingSymbol):
        code.codewords("z")


# --- Kraft sum ---


def test_kraft_sum_exact():
    assert kraft_sum([1, 2, 2], 2) == 1
    assert kraft_sum([1, 2, 3], 2) == F(7, 8)
    assert kraft_sum([1, 1, 1], 3) == 1
    assert kraft_sum([], 2) == 0
    assert kraft_sum([0], 2) == 1  # the empty codeword counts in full
    assert kraft_sum([1], 1) == 1  # radix 1: every term is 1, so the sum counts the words
    assert kraft_sum([1, 2, 3], 1) == 3
    with pytest.raises(InvalidRadix):
        kraft_sum([1], 0)
    with pytest.raises(ValueError):
        kraft_sum([-1], 2)


@pytest.mark.parametrize("lengths", [[1.5], [2.0], [True, True], [1, True]])
def test_a_length_that_is_not_an_int_is_refused(lengths):
    # [1, True] counts True under the key 1, so the lengths are checked, not the counts
    with pytest.raises(ValueError, match=r"^codeword length .* is not an int$"):
        kraft_sum(lengths, 2)
    with pytest.raises(ValueError, match=r"^codeword length .* is not an int$"):
        construct_instantaneous(lengths, 2)


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


def test_acl_exact_equals_the_rational_definition():
    # coprime denominators in the source and in the policy weights
    rng = random.Random("acl")
    for _ in range(300):
        n = rng.randint(1, 8)
        weights = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        probs = [w / sum(weights) for w in weights]
        src = make_source([f"s{i}" for i in range(n)], probs)
        mapping, policy, expected = [], {}, F(0)
        for i, p in enumerate(probs):
            words = sorted({"".join(rng.choice("01") for _ in range(rng.randint(0, 6))) or "-" for _ in range(3)})
            words = words[: rng.randint(1, len(words))]
            qs = [F(rng.randint(1, 7), rng.randint(1, 7)) for _ in words]
            qs = [q / sum(qs) for q in qs] if len(words) > 1 else [F(1)]
            mapping.append((f"s{i}", words))
            policy[f"s{i}"] = qs
            expected += p * sum(q * (0 if w == "-" else len(w)) for q, w in zip(qs, words))
        assert acl_exact(src, make_code(2, mapping), make_policy(policy)) == expected


def test_acl_missing_symbol():
    src = dyadic_abc()
    with pytest.raises(MissingSymbol):
        acl_exact(src, make_code(2, {"a": "0", "b": "1"}))


def test_acl_names_missing_symbols_before_asking_for_a_policy():
    # 'a' has two codewords and no policy, but the code lacks 'c' as a whole
    code = make_code(2, {"a": ["0", "11"], "b": "10"})
    with pytest.raises(MissingSymbol, match=r"^code does not cover symbols \['c'\]$"):
        acl_exact(dyadic_abc(), code)
    with pytest.raises(MissingPolicy):
        acl_exact(make_source("ab", ["1/2", "1/2"]), code)


def test_missing_symbols_are_listed_in_source_order_up_to_a_bound():
    src = make_source([f"s{i}" for i in range(6)], ["1/6"] * 6)
    code = make_code(2, {"s5": "0", "s1": "1"})
    with pytest.raises(MissingSymbol, match=r"^code does not cover symbols \['s0', 's2', 's3', \.\.\.\] \(4 in all\)$"):
        acl_exact(src, code)
    with pytest.raises(MissingSymbol, match=r"^code does not cover symbols \['s0', 's2', 's3', \.\.\.\] \(4 in all\)$"):
        empirical_acl(src, code, None, 5, 1)


def test_policy_validation():
    with pytest.raises(ValueError):
        make_policy({"a": ["1/2", "1/3"]})
    with pytest.raises(ValueError):
        make_policy({"a": ["1", "0"]})
    with pytest.raises(ValueError):
        make_policy({"a": []})
    with pytest.raises(DuplicateSymbol, match="symbol 'a' listed twice"):
        make_policy([("a", ["1/2", "1/2"]), ("a", ["1/3", "2/3"])])


@pytest.mark.parametrize("weight", [0.5, True])
def test_policy_refuses_a_float_or_bool_weight_when_built(weight):
    # make_policy refused these already; built directly, acl_exact and
    # empirical_acl met them later as raw TypeError and AttributeError
    with pytest.raises(ZeroOrNegativeProbability, match=r"probability .* rejected: pass a Fraction") as info:
        EncodingPolicy((("a", (F(1),)), ("b", (weight, F(1, 2)))))
    assert info.value.entry == 1


@pytest.mark.parametrize("weight", ["1/2", None], ids=["str", "None"])
def test_policy_refuses_a_weight_that_is_not_rational_by_its_symbol(weight):
    # only make_policy parses text; built directly, these raised a raw TypeError
    with pytest.raises(ValueError, match=f"^weights for 'b' must be rationals, got {weight!r}$") as info:
        EncodingPolicy((("a", (F(1),)), ("b", (weight, F(1, 2)))))
    assert info.value.entry == 1


def test_tables_share_one_entry_validator():
    # a repeated symbol is one error type, still a ValueError, in every table
    for build in (
        lambda: make_source("aba", ["1/4", "1/4", "1/2"]),
        lambda: make_code(2, [("a", "0"), ("b", "10"), ("a", "11")]),
        lambda: make_policy([("a", ["1"]), ("b", ["1"]), ("a", ["1"])]),
    ):
        with pytest.raises(DuplicateSymbol, match=r"^symbol 'a' listed twice$") as info:
            build()
        assert isinstance(info.value, ValueError)
    # an entry's own error carries its position
    for build, error in (
        (lambda: make_source("abc", ["1/2", "0", "1/2"]), ZeroOrNegativeProbability),
        (lambda: make_code(2, [("a", "0"), ("b", "12"), ("c", "11")]), DigitOutOfRange),
        (lambda: make_policy([("a", ["1"]), ("b", ["1/2", "1/3"])]), ValueError),
    ):
        with pytest.raises(error) as info:
            build()
        assert info.value.entry == 1


# --- minimal reduction ---


def test_minimal_reduction_picks_shortest():
    code = make_code(2, {"a": ["010", "0", "11"], "b": ["10", "111"]})
    reduced = minimal_reduction(code)
    assert reduced.codewords("a") == ((0,),)
    assert reduced.codewords("b") == ((1, 0),)
    assert minimal_reduction(reduced) is reduced


def test_minimal_reduction_tie_breaks_to_least_digits():
    code = make_code(2, {"a": ["11", "10"]})
    assert minimal_reduction(code).codewords("a") == ((1, 0),)


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
    t1 = encoded_trace(src, code_abc(), None, 200, 5)
    other = make_code(2, {"a": "1", "b": "01", "c": "00"})
    t2 = encoded_trace(src, other, None, 200, 5)
    assert t1.symbol_indices == t2.symbol_indices


def test_empirical_acl_names_every_missing_symbol():
    with pytest.raises(MissingSymbol, match=r"does not cover symbols \['b', 'c'\]"):
        empirical_acl(dyadic_abc(), make_code(2, {"a": "0"}), None, 5, 1)


def test_empirical_acl_matches_running_average():
    src3 = make_source("abc", ["1/2", "1/3", "1/6"])
    multi = make_code(3, {"a": ["0", "10", "11"], "b": ["2", "12"], "c": ["20", "21", "220", "221"]})
    policy = make_policy({"a": ["1/7", "2/7", "4/7"], "b": ["5/11", "6/11"], "c": ["1/10", "1/5", "3/10", "2/5"]})
    for src, code, pol in ((dyadic_abc(), code_abc(), None), (src3, multi, policy)):
        trace = encoded_trace(src, code, pol, 500, 9)
        steps = list(zip(trace.symbol_indices, trace.codeword_indices))
        assert list(trace.lengths) == [len(code.codewords(src.symbols[i])[u]) for i, u in steps]
        assert len(trace.lengths) == len(trace.acl_values) == 500
        for k in range(1, 501):
            assert trace.acl_values[k - 1] == sum(trace.lengths[:k]) / k
            # the stream has the prefix property: the run of k steps reads ACL_k
            if k in (1, 7, 499, 500):
                run = empirical_acl(src, code, pol, k, 9)
                assert (run.t, run.digits, run.acl_t) == (k, sum(trace.lengths[:k]), trace.acl_values[k - 1])
    assert len(set(trace.lengths)) > 1 and max(trace.codeword_indices) > 0


def test_empirical_acl_converges():
    src = dyadic_abc()
    assert abs(empirical_acl(src, code_abc(), None, 100000, 1).acl_t - 1.5) <= 0.05


def test_empirical_acl_policy_draws_converge():
    src = make_source("ab", [F(1, 2), F(1, 2)])
    code = make_code(2, {"a": ["0", "11"], "b": "10"})
    policy = make_policy({"a": ["1/2", "1/2"]})
    assert abs(empirical_acl(src, code, policy, 50000, 1).acl_t - 1.75) < 0.05


def test_empirical_acl_needs_a_policy_for_several_codewords():
    src = make_source("ab", ["1/2", "1/2"])
    code = make_code(2, {"a": ["0", "11"], "b": "10"})
    with pytest.raises(MissingPolicy, match="symbol 'a' has 2 codewords but no policy was given"):
        empirical_acl(src, code, None, 10, 1)
    with pytest.raises(MissingPolicy, match="policy does not cover symbol 'a' with 2 weights"):
        empirical_acl(src, code, make_policy({"a": ["1"]}), 10, 1)
    # a code with one codeword per symbol needs no policy
    floor = encoded_trace(src, minimal_reduction(code), None, 10, 1)
    assert empirical_acl(src, minimal_reduction(code), None, 10, 1).digits == sum(floor.lengths)
    assert floor.lengths == tuple(2 if i else 1 for i in floor.symbol_indices)


def test_empirical_pathwise_floor():
    src = make_source("ab", [F(2, 3), F(1, 3)])
    code = make_code(2, {"a": ["0", "110"], "b": ["10", "111"]})
    policy = make_policy({"a": ["1/2", "1/2"], "b": ["1/2", "1/2"]})
    trace = encoded_trace(src, code, policy, 2000, 17)
    floor = encoded_trace(src, minimal_reduction(code), None, 2000, 17)
    assert trace.symbol_indices == floor.symbol_indices
    assert all(a >= b for a, b in zip(trace.acl_values, floor.acl_values))
    assert any(a > b for a, b in zip(trace.acl_values, floor.acl_values))


def test_empirical_acl_policy_stream_pinned():
    # recorded values: the seeded symbol and codeword-choice streams are
    # part of the output contract
    src = make_source("abc", ["1/2", "1/3", "1/6"])
    code = make_code(3, {"a": ["0", "10", "11"], "b": ["2", "12"], "c": ["20", "21", "220", "221"]})
    policy = make_policy({"a": ["1/7", "2/7", "4/7"], "b": ["5/11", "6/11"], "c": ["1/10", "1/5", "3/10", "2/5"]})
    trace = encoded_trace(src, code, policy, 24, 2026)
    assert trace.symbol_indices == (1, 1, 1, 0, 0, 2, 1, 0, 0, 0, 1, 0, 1, 2, 0, 1, 1, 2, 2, 1, 0, 2, 0, 2)
    assert trace.codeword_indices == (0, 1, 1, 2, 2, 0, 1, 2, 1, 2, 1, 2, 0, 3, 2, 1, 0, 0, 3, 1, 2, 2, 2, 1)


def test_empirical_acl_policy_trace_pinned_over_many_blocks():
    # recorded with one randbelow call per draw, over the whole trace of 50,000 steps
    src = make_source("abc", ["1/2", "1/3", "1/6"])
    code = make_code(3, {"a": ["0", "10", "11"], "b": ["2", "12"], "c": ["20", "21", "220", "221"]})
    policy = make_policy({"a": ["1/7", "2/7", "4/7"], "b": ["5/11", "6/11"], "c": ["1/10", "1/5", "3/10", "2/5"]})
    trace = encoded_trace(src, code, policy, 50_000, 2026)
    text = repr((trace.symbol_indices, trace.codeword_indices, trace.lengths, trace.acl_values))
    assert hashlib.sha256(text.encode()).hexdigest() == "1a7c9e443f7ac8e341cc2ba7d4350c6cbae7ff6722534bc410864827ddd5e3c5"
    run = empirical_acl(src, code, policy, 50_000, 2026)
    assert (run.digits, run.acl_t) == (sum(trace.lengths), trace.acl_values[-1])


def test_empirical_acl_choices_equal_a_scalar_replay():
    # one randbelow(D) call per step on the choice stream's SplitMix64, D the
    # step's symbol's weight denominator: 2, 3, 12, 2^70 + 1 (71-bit windows)
    # and 1 for the one-codeword symbol, which reads no bits
    weights = {
        "a": [F(1, 2), F(1, 2)],
        "b": [F(1, 3), F(1, 3), F(1, 3)],
        "c": [F(1, 12), F(5, 12), F(1, 2)],
        "d": [F(1, 2**70 + 1), F(2**70, 2**70 + 1)],
        "e": [F(1)],
    }
    src = make_source("abcde", ["1/5"] * 5)
    code = make_code(2, {"a": ["0", "10"], "b": ["110", "1110", "11110"], "c": ["1", "01", "001"], "d": ["00", "11"], "e": "0101"})
    trace = encoded_trace(src, code, make_policy(weights), 5000, 2014)
    scalar = SplitMix64(derived_seed(2014, codes._CHOICE_SALT))
    next_u64, outputs = scalar.next_u64, []

    def counted_next_u64():
        outputs.append(next_u64())
        return outputs[-1]

    scalar.next_u64 = counted_next_u64
    replay = []
    for i in trace.symbol_indices:
        qs = weights[src.symbols[i]]
        d = math.lcm(*(q.denominator for q in qs))
        cum = [q * d for q in itertools.accumulate(qs)]
        replay.append(bisect_right(cum, scalar.randbelow(d)))
    assert trace.codeword_indices == tuple(replay)
    assert len(outputs) > 3 * 256  # the choices read more than three blocks
    assert {len(weights[src.symbols[i]]) for i in trace.symbol_indices} == {1, 2, 3}
    assert set(trace.codeword_indices) == {0, 1, 2}


def _scalar_trace(src, code, weights, t, seed):
    """The steps of empirical_acl(src, code, make_policy(weights), t, seed),
    replayed with one randbelow call per symbol draw and per codeword choice."""
    symbols, choices = SplitMix64(seed), SplitMix64(derived_seed(seed, codes._CHOICE_SALT))
    bounds = list(itertools.accumulate(src.masses))
    choice_of = {}  # symbol: (D, cumulative masses over D) of its weights
    for s in src.symbols:
        qs = weights.get(s, [F(1)])
        d = math.lcm(*(q.denominator for q in qs))
        choice_of[s] = d, [q * d for q in itertools.accumulate(qs)]
    steps = []
    for _ in range(t):
        i = bisect_right(bounds, symbols.randbelow(src.denominator))
        d, cum = choice_of[src.symbols[i]]
        u = bisect_right(cum, choices.randbelow(d))
        steps.append((i, u, len(code.codewords(src.symbols[i])[u])))
    return steps


CHUNK_EDGE_CODES = {
    "one-codeword": ({"a": "0", "b": "10", "c": "110", "d": "1110", "e": "1111"}, {}),
    # weights over 2, 3, 12 and 2^8, whose 8-bit windows have the widest table that is listed
    "small-denominators": (
        {"a": ["0", "10"], "b": ["110", "1110", "11110"], "c": ["1", "01", "001"], "d": ["00", "11"], "e": "0101"},
        {"a": [F(1, 2), F(1, 2)], "b": [F(1, 3), F(1, 3), F(1, 3)], "c": [F(1, 12), F(5, 12), F(1, 2)], "d": [F(1, 2**8), 1 - F(1, 2**8)]},
    ),
    # windows of 9, 201 and 16 bits, past the widest table that is listed
    "bisected": (
        {"a": ["0", "10"], "b": ["110", "1110", "11110"], "c": "1", "d": ["00", "11"], "e": "0101"},
        {"a": [F(1, 2**8 + 1), F(2**8, 2**8 + 1)], "b": [F(1, 2**200 + 1), F(5, 2**200 + 1), 1 - F(6, 2**200 + 1)], "d": [F(1, 2**16), 1 - F(1, 2**16)]},
    ),
}


@pytest.mark.parametrize("kind", CHUNK_EDGE_CODES)
def test_empirical_acl_equals_a_scalar_replay_at_the_chunk_edges(kind):
    words, weights = CHUNK_EDGE_CODES[kind]
    src = make_source("abcde", ["7/97", "40/97", "20/97", "19/97", "11/97"])
    code = make_code(2, words)
    policy = make_policy(weights) if weights else None
    replay = _scalar_trace(src, code, weights, 3 * _CHUNK + 7, 1848)
    for t in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
        trace = encoded_trace(src, code, policy, t, 1848)
        assert list(zip(trace.symbol_indices, trace.codeword_indices, trace.lengths)) == replay[:t]
        chunks = codes._encode_chunks(src, codes._covering(src, code), policy, t, 1848)
        sizes = [len(symbol_indices) for symbol_indices, _ in chunks]
        assert sizes == [_CHUNK] * (t // _CHUNK) + [t % _CHUNK] * (t % _CHUNK > 0)
        assert empirical_acl(src, code, policy, t, 1848).digits == sum(length for _, _, length in replay[:t])
    assert set(trace.codeword_indices) == ({0, 1, 2} if weights else {0})


def test_empirical_acl_refuses_a_policy_gap_before_any_draw():
    # 'a' is drawn at t = 1; 'b' and 'c', which lack weights, never are
    src = make_source("abc", [1 - F(2, 2**40), F(1, 2**40), F(1, 2**40)])
    code = make_code(2, {"c": ["110", "111"], "a": "0", "b": ["10", "11"]})
    with pytest.raises(MissingPolicy, match="^symbol 'b' has 2 codewords but no policy was given$"):
        empirical_acl(src, code, None, 1, 5)
    with pytest.raises(MissingPolicy, match="^policy does not cover symbol 'b' with 2 weights$"):
        empirical_acl(src, code, make_policy({"c": [F(1, 2), F(1, 2)]}), 1, 5)


def test_empirical_acl_seed_reproducibility():
    src = dyadic_abc()
    assert empirical_acl(src, code_abc(), None, 300, 42) == empirical_acl(src, code_abc(), None, 300, 42)
    a = encoded_trace(src, code_abc(), None, 300, 42)
    b = encoded_trace(src, code_abc(), None, 300, 42)
    assert a.acl_values == b.acl_values
    assert a.codeword_indices == b.codeword_indices
