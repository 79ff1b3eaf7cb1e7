"""Prefix-freeness, the two decipherability deciders, Kraft's
construction, and Huffman coding."""

import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import (
    Codeword,
    InvalidRadix,
    KraftViolated,
    UnsupportedMultiCodeword,
    acl_exact,
    brute_force_ud,
    construct_instantaneous,
    entropy,
    huffman,
    is_prefix_free,
    is_uniquely_decipherable,
    kraft_sum,
    make_code,
    make_source,
    ud_counterexample,
)
from oracles import ud_witness_oracle


def singleton(words, r=2):
    return make_code(r, [(f"s{i + 1}", w) for i, w in enumerate(words)])


# --- prefix-freeness ---


@pytest.mark.parametrize(
    "words,expected",
    [
        (["0", "10", "11"], True),
        (["0", "01", "11"], False),
        (["-"], True),
        (["-", "0"], False),
        (["0", "0"], False),
        (["1", "10", "100"], False),
        (["00", "01", "10", "11"], True),
    ],
)
def test_is_prefix_free(words, expected):
    assert is_prefix_free(singleton(words)) is expected


def test_prefix_free_pools_across_symbols():
    code = make_code(2, {"a": ["00", "01"], "b": "0"})
    assert not is_prefix_free(code)


# --- Sardinas-Patterson ---


@pytest.mark.parametrize(
    "words,expected",
    [
        (["0", "10", "11"], True),
        (["0", "01", "11"], True),
        (["0", "01", "10"], False),
        (["0", "01"], True),
        (["1", "10", "100"], True),
        (["-"], True),
        (["-", "0"], False),
        (["0", "0"], False),
        (["1", "011", "01110", "1110", "10011"], False),
    ],
)
def test_is_uniquely_decipherable(words, expected):
    assert is_uniquely_decipherable(singleton(words)) is expected


def test_sp_rejects_multi_codeword():
    code = make_code(2, {"a": ["0", "10"], "b": "11"})
    with pytest.raises(UnsupportedMultiCodeword):
        is_uniquely_decipherable(code)


# --- brute force and witnesses ---


def test_witness_worked_instance():
    assert ud_counterexample(singleton(["0", "01", "10"])) == "010"
    assert not brute_force_ud(singleton(["0", "01", "10"]), 3)
    assert brute_force_ud(singleton(["0", "01", "10"]), 2)


def test_witness_conventions():
    assert ud_counterexample(singleton(["-"])) is None
    assert ud_counterexample(singleton(["-", "0"])) == "-"
    assert ud_counterexample(singleton(["0", "0"])) == "0"
    assert ud_counterexample(singleton(["0", "10", "11"])) is None


def test_witness_search_rejects_a_negative_budget():
    code = singleton(["0", "01", "10"])
    assert ud_counterexample(code, 0) is None
    for budget in (-1, -5):
        with pytest.raises(ValueError, match="max_len >= 0"):
            ud_counterexample(code, budget)
        with pytest.raises(ValueError, match="max_len >= 0"):
            brute_force_ud(code, budget)


def test_witness_search_memory_does_not_grow_with_the_budget():
    # only the levels the search can still write to are live; one dict per
    # budget digit, allocated up front, peaked at about 70 MB on this call
    code = singleton(["0", "01", "10"])
    tracemalloc.start()
    try:
        assert ud_counterexample(code, 10**6) == "010"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_witness_is_shortest_then_least():
    # 01 and 10 are both ambiguous at length 2; the witness is the least
    code = singleton(["0", "01", "10", "1"])
    assert ud_counterexample(code) == "01"


def test_multi_codeword_same_symbol_parses_are_one_decoding():
    # every codeword contains exactly one 0, so all parses of a string
    # use the same word count and decode to the same a^k; the code is
    # parse-ambiguous (0110 = 0.110 = 01.10) but not symbol-ambiguous
    code = make_code(2, {"a": ["0", "110", "01", "10"]})
    assert kraft_sum(code.lengths(), 2) > 1
    assert ud_counterexample(code, 12) is None
    assert brute_force_ud(code, 12)


def test_multi_codeword_cross_symbol_ambiguity():
    code = make_code(2, {"a": ["0", "10"], "b": ["01"]})
    # 010 = a(0).b? no; a(0).a(10) = "aa" vs b(01).a(0)? 01+0 = "ba"
    assert ud_counterexample(code, 12) == "010"


@pytest.mark.parametrize("r,max_len", [(2, 8), (3, 5), (4, 4), (12, 3)])
def test_witness_matches_naive_oracle_multi_codeword(r, max_len):
    rng = random.Random(f"ud-oracle:{r}")
    for k in range(60):
        # Odd cases draw words with exactly one 0 digit: every decoding of a
        # string then has as many symbols as the string has 0s, so two parses
        # often give one decoded sequence. Even cases share codewords
        # across symbols.
        one_zero = k % 2
        mapping, pool = [], []
        for i in range(rng.randint(1, 2 if one_zero else 3)):
            words = []
            for _ in range(rng.randint(1 + one_zero, 4)):
                if pool and not one_zero and rng.random() < 0.2:
                    w = rng.choice(pool)
                else:
                    w = [rng.randrange(one_zero, r) for _ in range(rng.randint(1, 3))]
                    if one_zero:
                        w[rng.randrange(len(w))] = 0
                    w = tuple(w)
                if w not in words:
                    words.append(w)
                    pool.append(w)
            mapping.append((f"s{i}", words))
        expected = ud_witness_oracle(mapping, r, max_len)
        if expected is not None:
            expected = str(Codeword(expected))
        assert ud_counterexample(make_code(r, mapping), max_len) == expected, mapping


def _all_binary_codes(max_words, max_len):
    universe = [""]
    for l in range(1, max_len + 1):
        universe += ["".join(bits) for bits in itertools.product("01", repeat=l)]
    for k in range(1, max_words + 1):
        for combo in itertools.combinations(universe, k):
            yield singleton(["-" if w == "" else w for w in combo])


def test_oracles_agree_exhaustively_small():
    checked = 0
    for code in _all_binary_codes(3, 2):
        assert is_uniquely_decipherable(code) == brute_force_ud(code, 12)
        checked += 1
    assert checked > 0


def test_ud_implies_kraft():
    for code in _all_binary_codes(3, 2):
        if is_uniquely_decipherable(code):
            assert kraft_sum(code.lengths(), 2) <= 1


# --- Kraft construction ---


def test_construct_worked_instances():
    code = construct_instantaneous([1, 2, 2], 2)
    assert [str(w) for w in code.pooled()] == ["0", "10", "11"]
    assert code.symbols == ("s1", "s2", "s3")
    code = construct_instantaneous([1, 1], 2)
    assert [str(w) for w in code.pooled()] == ["0", "1"]
    with pytest.raises(KraftViolated):
        construct_instantaneous([1, 1, 1], 2)
    with pytest.raises(InvalidRadix):
        construct_instantaneous([1], 1)


def test_construct_respects_input_order():
    code = construct_instantaneous([3, 1, 2], 2, symbols="abc")
    assert code.lengths() == [3, 1, 2]
    assert str(code.codewords("b")[0]) == "0"
    assert str(code.codewords("c")[0]) == "10"
    assert str(code.codewords("a")[0]) == "110"


def test_construct_stable_on_ties():
    code = construct_instantaneous([2, 2, 2], 2)
    assert [str(w) for w in code.pooled()] == ["00", "01", "10"]


def test_construct_zero_length():
    code = construct_instantaneous([0], 5)
    assert code.pooled()[0].length == 0
    with pytest.raises(KraftViolated):
        construct_instantaneous([0, 1], 2)


def test_construct_symbol_validation():
    with pytest.raises(ValueError):
        construct_instantaneous([1, 2], 2, symbols=["only"])


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=12),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_construct_any_kraft_feasible_multiset(r_lengths):
    r, lengths = r_lengths
    if kraft_sum(lengths, r) > 1:
        with pytest.raises(KraftViolated):
            construct_instantaneous(lengths, r)
        return
    code = construct_instantaneous(lengths, r)
    assert code.lengths() == lengths
    assert is_prefix_free(code)
    assert is_uniquely_decipherable(code)


# --- Huffman ---


def test_huffman_worked_instance():
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    code = huffman(src, 2)
    assert code.lengths() == [1, 2, 3, 3]
    assert acl_exact(src, code) == F(19, 10)
    assert is_prefix_free(code)


def test_huffman_dyadic_equality():
    src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
    code = huffman(src, 2)
    assert sorted(code.lengths()) == [1, 2, 2]
    assert float(acl_exact(src, code)) == entropy(src, 2) == 1.5


def test_huffman_uniform_ternary():
    src = make_source("xyz", [F(1, 3), F(1, 3), F(1, 3)])
    code = huffman(src, 3)
    assert code.lengths() == [1, 1, 1]
    assert acl_exact(src, code) == 1
    assert entropy(src, 3) == pytest.approx(1.0, abs=1e-12)


def test_huffman_ternary_padding():
    # n=4, r=3: pad to 5 leaves; placeholders absent from the output
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    code = huffman(src, 3)
    assert set(code.symbols) == set("abcd")
    assert is_prefix_free(code)
    assert max(code.lengths()) <= 2
    h = entropy(src, 3)
    assert h <= float(acl_exact(src, code)) < h + 1


def test_huffman_single_symbol():
    src = make_source("a", [F(1)])
    code = huffman(src, 2)
    assert code.codewords("a")[0].length == 0


def test_huffman_deterministic():
    src = make_source("abcd", [F(1, 4)] * 4)
    first = huffman(src, 2)
    second = huffman(src, 2)
    assert first.mapping == second.mapping
    with pytest.raises(InvalidRadix):
        huffman(src, 1)


def test_huffman_within_one_of_entropy():
    src = make_source("abcde", [F(1, 5), F(1, 5), F(1, 5), F(1, 5), F(1, 5)])
    for r in (2, 3, 4):
        code = huffman(src, r)
        h = entropy(src, r)
        assert h - 1e-12 <= float(acl_exact(src, code)) < h + 1
