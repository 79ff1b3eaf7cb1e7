"""Tests of the benchmark's own reference computations and checks, on hand-worked cases.

    python3 -m pytest bench
"""

import itertools
import math
import random
from fractions import Fraction as F

import reference
import workloads


def exhaustive_cost(weights, r):
    """Least sum w_i l_i over all length vectors that meet the Kraft bound."""
    n = len(weights)
    best = None
    for lengths in itertools.product(range(n), repeat=n):
        if sum(F(1, r**l) for l in lengths) <= 1:
            cost = sum(w * l for w, l in zip(weights, lengths))
            best = cost if best is None else min(best, cost)
    return best


def test_huffman_cost_matches_exhaustive_search():
    rng = random.Random(7)
    for r in (2, 3, 4):
        for n in range(1, 6):
            for _ in range(4):
                weights = [rng.randrange(1, 20) for _ in range(n)]
                cost = reference.huffman_cost(weights, r)
                assert cost == exhaustive_cost(weights, r), (weights, r)
                lengths = reference.huffman_lengths(weights, r)
                assert sum(w * l for w, l in zip(weights, lengths)) == cost
                assert reference.kraft_holds(lengths, r)


def test_huffman_lengths_worked():
    assert reference.huffman_lengths([1, 1, 2], 2) == [2, 2, 1]
    assert reference.huffman_cost([1, 1, 2], 2) == 6
    # ternary, two symbols: one zero-weight pad makes a single full merge
    assert reference.huffman_lengths([5, 3], 3) == [1, 1]


def test_parse_counter_finds_the_ambiguity_of_0_01_10():
    code = {"a": ["0"], "b": ["01"], "c": ["10"]}
    assert reference.count_decodings("010", code) == 2  # a.c and b.a
    assert reference.count_decodings("01", code) == 1


def test_parse_counter_finds_none_in_a_suffix_code():
    code = {"a": ["0"], "b": ["01"], "c": ["11"]}
    for length in range(1, 9):
        for digits in itertools.product("01", repeat=length):
            assert reference.count_decodings("".join(digits), code) <= 1


def test_parse_counter_counts_symbol_sequences_not_parses():
    # 000 parses as 0.0.0, 0.00 and 00.0, but decodes only to xxx and xx
    assert reference.count_decodings("000", {"x": ["0", "00"]}, cap=3) == 2


def test_entropy_worked_values():
    assert math.isclose(reference.entropy([F(1, 2), F(1, 4), F(1, 4)], 2), 1.5, abs_tol=1e-15)
    assert math.isclose(reference.entropy([F(1, 3)] * 3, 3), 1.0, abs_tol=1e-15)
    assert math.isclose(reference.entropy([F(1, 2), F(1, 2)], 4), 0.5, abs_tol=1e-15)
    assert reference.entropy([F(1)], 2) == 0.0


def test_step_moments_worked_values():
    # symbol a: one word of length 1; symbol b: lengths 2 and 4 chosen 1/4 and 3/4
    mean, var = reference.step_moments([F(1, 2), F(1, 2)], [[1], [2, 4]], [[F(1)], [F(1, 4), F(3, 4)]])
    assert mean == F(9, 4)  # 1/2 * 1 + 1/2 * (2/4 + 12/4)
    assert var == 7 - F(81, 16)  # second moment 1/2 * 1 + 1/2 * (4/4 + 48/4)


def test_canonical_code_and_compaction():
    assert reference.canonical_code([2, 1, 2], 2) == [(1, 0), (0,), (1, 1)]
    assert reference.compacted_depths([(0,), (1, 0), (1, 1)]) == ([1, 2, 2], 2)
    # 00 and 01 hang under an only child of the root: both move up one level
    assert reference.compacted_depths(reference.canonical_code([2, 2], 2)) == ([1, 1], 1)
    # ternary 0 and 10: node 1 has one child
    assert reference.compacted_depths(reference.canonical_code([1, 2], 3)) == ([1, 1], 1)


def test_prefix_and_kraft():
    assert reference.is_prefix_free(["0", "10", "11"])
    assert not reference.is_prefix_free(["0", "01"])
    assert not reference.is_prefix_free(["01", "1", "010"])
    assert reference.is_prefix_free(["1", "01"])
    assert reference.kraft_holds([1, 2, 2], 2)
    assert not reference.kraft_holds([1, 1, 1], 2)


def test_certify_check_accepts_the_right_output_and_rejects_a_wrong_verdict():
    probs = [F(1, 2), F(1, 4), F(1, 4)]
    op = workloads._certify_op("dyadic", "src", "code", probs, [1, 2, 2], 2)
    out = "verdict=Equality\nH=1.5\nACL=1.5\nsum_delta=0.0\nsteps=2\nacl_drop=0/1\n"
    assert op.check(0, out) is None
    assert "verdict" in op.check(0, out.replace("Equality", "StrictInequality"))
    assert "steps" in op.check(0, out.replace("steps=2", "steps=3"))


def test_certify_check_expects_the_drop_of_a_compacted_code():
    # lengths 2, 2 compact to 1, 1: the certified ACL is lower by 1
    op = workloads._certify_op("chain", "src", "code", [F(1, 2), F(1, 2)], [2, 2], 2)
    out = "verdict=Equality\nH=1.0\nACL=1.0\nsum_delta=0.0\nsteps=1\nacl_drop=1/1\n"
    assert op.check(0, out) is None
    assert "acl_drop" in op.check(0, out.replace("acl_drop=1/1", "acl_drop=0/1"))


def test_huffman_check_rejects_a_suboptimal_code():
    op = workloads._huffman_op("h", "src", ["a", "b", "c"], [2, 1, 1], 4, 2)
    good = "radix=2\ncode.a=0\ncode.b=10\ncode.c=11\nACL=1.5\nACL_exact=3/2\nH=1.5\n"
    assert op.check(0, good) is None
    worse = "radix=2\ncode.a=10\ncode.b=0\ncode.c=11\nACL=1.75\nACL_exact=7/4\nH=1.5\n"
    assert "optimum" in op.check(0, worse)
    not_prefix = good.replace("code.b=10", "code.b=01")
    assert "prefix" in op.check(0, not_prefix)


def test_check_ud_check_demands_a_real_ambiguity():
    words = {"a": ["0"], "b": ["01"], "c": ["10"]}
    op = workloads._check_ud_op("planted", "code", words, "010")
    assert op.check(1, "ud=False\nwitness=010\n") is None
    assert "decodes at most one way" in op.check(1, "ud=False\nwitness=01\n")
    assert op.check(0, "ud=True\n") == "exit status 0"
