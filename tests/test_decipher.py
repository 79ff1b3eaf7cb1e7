"""Prefix-freeness, the two decipherability deciders, Kraft's
construction, and Huffman coding."""

import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecert import decipher
from codecert.cli import main
from codecert import (
    InvalidRadix,
    KraftViolated,
    acl_exact,
    brute_force_ud,
    construct_instantaneous,
    entropy,
    extend_source,
    format_codeword,
    huffman,
    is_prefix_free,
    is_uniquely_decipherable,
    kraft_sum,
    make_code,
    make_source,
    ud_counterexample,
)
from oracles import entropy_oracle, heap_huffman_oracle, ud_witness_oracle


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


# --- exact decision ---


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


def test_prefix_and_suffix_free_codes_skip_the_engine(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(decipher, "_shortest_ambiguity", None)
    for code in (
        singleton(["0", "10", "11"]),
        singleton(["0", "01", "11"]),
        make_code(2, {"a": ["0", "10"], "b": "11"}),
        singleton(["-"]),
    ):
        assert is_uniquely_decipherable(code)
        assert ud_counterexample(code) is None
    suffix_free = tmp_path / "suffix.code"
    suffix_free.write_text("radix 2\na 0\nb 01\nc 11\n")
    assert main(["check-ud", str(suffix_free), "--machine"]) == 0
    assert capsys.readouterr().out == "ud=True\n"


@pytest.mark.parametrize(
    "mapping",
    [{"a": "0", "b": "0"}, {"a": ["0", "1"], "b": "1"}, {"a": "-", "b": "0"}],
)
def test_shared_words_and_the_empty_word_reach_the_engine(monkeypatch, mapping):
    calls = []
    engine = decipher._shortest_ambiguity
    monkeypatch.setattr(decipher, "_shortest_ambiguity", lambda *args: calls.append(args) or engine(*args))
    assert not is_uniquely_decipherable(make_code(2, mapping))
    assert len(calls) == 1


def test_sp_rejects_multi_codeword():
    # the decision is exact for several codewords per symbol too
    assert is_uniquely_decipherable(make_code(2, {"a": ["0", "10"], "b": "11"}))
    assert not is_uniquely_decipherable(make_code(2, {"a": ["0", "10"], "b": "01"}))


# --- brute force and witnesses ---


def test_witness_worked_instance():
    assert ud_counterexample(singleton(["0", "01", "10"])) == (0, 1, 0)
    assert not brute_force_ud(singleton(["0", "01", "10"]), 3)
    assert brute_force_ud(singleton(["0", "01", "10"]), 2)


def test_witness_conventions():
    assert ud_counterexample(singleton(["-"])) is None
    assert ud_counterexample(singleton(["-", "0"])) == ()
    assert ud_counterexample(singleton(["0", "0"])) == (0,)
    assert ud_counterexample(singleton(["0", "10", "11"])) is None


def test_witness_search_rejects_a_negative_budget():
    code = singleton(["0", "01", "10"])
    assert brute_force_ud(code, 0)
    for budget in (-1, -5):
        with pytest.raises(ValueError, match="max_len >= 0"):
            brute_force_ud(code, budget)


def test_witness_is_shortest_then_least():
    # 01 and 10 are both ambiguous at length 2; the witness is the least
    code = singleton(["0", "01", "10", "1"])
    assert ud_counterexample(code) == (0, 1)


def test_multi_codeword_same_symbol_parses_are_one_decoding():
    # every codeword contains exactly one 0, so all parses of a string
    # use the same word count and decode to the same a^k; the code is
    # parse-ambiguous (0110 = 0.110 = 01.10) but not symbol-ambiguous
    code = make_code(2, {"a": ["0", "110", "01", "10"]})
    assert kraft_sum(code.lengths(), 2) > 1
    assert ud_counterexample(code) is None
    assert brute_force_ud(code, 12)


def test_multi_codeword_cross_symbol_ambiguity():
    code = make_code(2, {"a": ["0", "10"], "b": ["01"]})
    # 010 = a(0).b? no; a(0).a(10) = "aa" vs b(01).a(0)? 01+0 = "ba"
    assert ud_counterexample(code) == (0, 1, 0)


@pytest.mark.parametrize("r,max_len", [(2, 8), (3, 5), (4, 4), (12, 3)])
def test_witness_matches_naive_oracle_multi_codeword(r, max_len):
    rng = random.Random(f"ud-oracle:{r}")
    for k in range(90):
        # Cases k = 1 mod 3 draw words with exactly one 0 digit: every decoding
        # of a string then has as many symbols as the string has 0s, so two
        # parses often give one decoded sequence. Cases k = 0 mod 3 share
        # codewords across symbols; cases k = 2 mod 3 have one word per symbol.
        one_zero, single = k % 3 == 1, k % 3 == 2
        mapping, pool = [], []
        for i in range(rng.randint(1, 2 if one_zero else 3 + single)):
            words = []
            for _ in range(1 if single else rng.randint(1 + one_zero, 4)):
                if pool and k % 3 == 0 and rng.random() < 0.2:
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
        code = make_code(r, mapping)
        expected = ud_witness_oracle(mapping, r, max_len)
        assert brute_force_ud(code, max_len) == (expected is None), mapping
        # the exact search agrees within the budget and past it
        exact = ud_counterexample(code)
        assert (exact if exact is not None and len(exact) <= max_len else None) == expected, mapping
        assert is_uniquely_decipherable(code) == (exact is None), mapping
        if exact is None:
            assert brute_force_ud(code, max_len + 2), mapping
        elif expected is None:
            n = len(exact)
            if n <= max_len + 2:
                assert brute_force_ud(code, n - 1) and not brute_force_ud(code, n), mapping


def test_witness_tie_between_states_of_one_string():
    # after "1" the parses are at (1, 1) and (root, 1); "11" is ambiguous from
    # the first, but "10" = s2(10) = s2(1).s1(0) from the second is less
    code = make_code(2, [("s0", ["1011", "11"]), ("s1", ["11", "0", "101"]), ("s2", ["10", "1"])])
    assert ud_counterexample(code) == (1, 0)


def test_exact_decision_ends_where_parses_never_meet_again():
    # 01.1010.1010... and 011.01.01.01... read the same digits forever
    # without ending together, at different symbol rates; only the
    # co-accessible pairs bound the delays the search carries
    for mapping in ({"a": ["01", "011", "1010"]}, {"a": ["0101", "10", "100"]}, {"a": "11", "b": ["01", "010", "1110"]}):
        code = make_code(2, mapping)
        assert is_uniquely_decipherable(code)
        assert brute_force_ud(code, 14)


def test_exact_witness_has_no_budget():
    # a^7 = a^6 on 0^42 is the shortest ambiguity, past the default budget
    code = make_code(2, {"a": ["0" * 7, "0" * 6]})
    assert brute_force_ud(code)
    assert ud_counterexample(code) == (0,) * 42
    assert not is_uniquely_decipherable(code)
    assert ud_counterexample(make_code(2, {"a": "0" * 7, "b": "0" * 6})) == (0,) * 13


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
    assert list(map(format_codeword, code.pooled())) == ["0", "10", "11"]
    assert code.symbols == ("s1", "s2", "s3")
    code = construct_instantaneous([1, 1], 2)
    assert list(map(format_codeword, code.pooled())) == ["0", "1"]
    with pytest.raises(KraftViolated):
        construct_instantaneous([1, 1, 1], 2)
    with pytest.raises(InvalidRadix):
        construct_instantaneous([1], 1)


def test_construct_respects_input_order():
    code = construct_instantaneous([3, 1, 2], 2)
    assert code.lengths() == [3, 1, 2]
    assert format_codeword(code.codewords("s2")[0]) == "0"
    assert format_codeword(code.codewords("s3")[0]) == "10"
    assert format_codeword(code.codewords("s1")[0]) == "110"


def test_construct_stable_on_ties():
    code = construct_instantaneous([2, 2, 2], 2)
    assert list(map(format_codeword, code.pooled())) == ["00", "01", "10"]


def test_construct_zero_length():
    code = construct_instantaneous([0], 5)
    assert code.pooled()[0] == ()
    with pytest.raises(KraftViolated):
        construct_instantaneous([0, 1], 2)


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


def test_huffman_cost_does_not_grow_with_the_radix():
    # the 999,998 zero-mass placeholders of r = 10^6 are never made
    src = make_source("ab", ["1/3", "2/3"])
    tracemalloc.start()
    try:
        code = huffman(src, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(map(format_codeword, code.pooled())) == ["999998.", "999999."]
    assert peak < 2**20


def test_huffman_single_symbol():
    src = make_source("a", [F(1)])
    code = huffman(src, 2)
    assert code.codewords("a")[0] == ()


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


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("probs", [(F(9, 10), F(1, 10)), (F(1, 2), F(1, 3), F(1, 6)), (F(2, 5), F(3, 10), F(1, 5), F(1, 10))])
def test_huffman_of_block_extensions_meets_the_noiseless_coding_theorem(probs, r):
    # H <= ACL(S^p)/p < H + 1/p: the exact ACL of the Huffman code of each
    # block extension against the entropy per symbol, taken with mpmath
    src = make_source(range(len(probs)), probs)
    h = entropy_oracle(probs, r)
    for p in range(1, 6):
        ext = extend_source(src, p)
        per_symbol = acl_exact(ext, huffman(ext, r)) / p
        assert h <= per_symbol < h + F(1, p), (p, per_symbol - F(h))


@pytest.mark.parametrize("r", [2, 3, 4, 16, 36])
def test_huffman_codewords_equal_heap_oracle(r):
    # few distinct masses force ties between leaves, between merged nodes,
    # and between a leaf and a merged node; n spans every padding count
    rng = random.Random(f"huffman:{r}")
    for k in range(120):
        n = 1 + rng.randrange(3 * r if k % 4 else 90)
        weights = [rng.choice([1, 1, 2, 3, 4, 8]) if k % 2 else rng.randint(1, 10**6) for _ in range(n)]
        total = sum(weights)
        probs = [F(w, total) for w in weights]
        src = make_source([f"s{i}" for i in range(n)], probs)
        code = huffman(src, r)
        assert [words[0] for _, words in code.mapping] == heap_huffman_oracle(probs, r), (r, k)


def test_huffman_equal_masses_and_padding_pinned():
    # uniform masses: every merge is a tie; 5 symbols at radix 4 need 2 placeholders
    src = make_source("abcde", [F(1, 5)] * 5)
    assert [format_codeword(w[0]) for _, w in huffman(src, 4).mapping] == ["32", "33", "0", "1", "2"]
    assert [format_codeword(w[0]) for _, w in huffman(src, 2).mapping] == ["110", "111", "00", "01", "10"]
