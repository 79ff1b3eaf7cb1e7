"""The one-pass merge chain of certify against the reference operations,
the sorted-neighbour prefix test, and deep codes."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

import codecert.proof as proof
import codecert.tree as tree_module
from codecert import (
    Codeword,
    ExactnessCheckFailed,
    Source,
    SplitMix64,
    certify,
    compact_standalone,
    dump_tree,
    find_sibling_group,
    format_certificate,
    from_tree,
    huffman,
    is_compact,
    is_prefix_free,
    kraft_sum,
    make_code,
    make_source,
    random_prefix_code,
    reduce_group,
    reversed_code,
    to_tree,
    tree_source,
    tree_stats,
)
from oracles import prefix_free_oracle


def reference_chain(src, code):
    """The chain certify's pass must equal, one find_sibling_group and
    reduce_group at a time on the tree certify builds."""
    tree = compact_standalone(to_tree(code, src))
    cur, steps = tree_source(tree), []
    while len(tree.leaves()) > 1:
        cur, tree, step = reduce_group(cur, tree, find_sibling_group(tree))
        steps.append(step)
    return steps


def fields(step):
    return (step.group, step.probs, step.p_red, step.l_red, step.delta.hex(), step.is_tight)


def random_case(rng, r, k):
    """A source and a decipherable code on it: prefix, suffix or two words per symbol."""
    n = 1 + rng.randrange(40)
    symbols = [f"s{i + 1}" for i in range(n)]
    if k % 2:
        weights = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in symbols]  # mixed denominators
        total = sum(weights)
        src = make_source(symbols, [w / total for w in weights])
    else:
        denom = rng.randint(n, 4 * n + 8)
        cuts = sorted(rng.sample(range(1, denom), n - 1))
        src = make_source(symbols, [F(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])])
    splitmix = SplitMix64(rng.getrandbits(64))
    kind = k % 3
    if kind == 2:  # two codewords per symbol: the chain runs on the minimal reduction
        words = [w for _, (w,) in random_prefix_code(splitmix, r, 2 * n).mapping]
        return src, make_code(r, [(s, words[2 * i : 2 * i + 2]) for i, s in enumerate(symbols)])
    code = random_prefix_code(splitmix, r, n)  # symbols s1..sn, as in src
    return src, reversed_code(code) if kind == 1 else code


@pytest.mark.parametrize("r", [2, 3, 4, 5, 16])
def test_one_pass_chain_equals_reference_chain(r):
    rng = random.Random(f"chain:{r}")
    for k in range(60):
        src, code = random_case(rng, r, k)
        cert = certify(src, code)
        ref = reference_chain(src, cert.canonical_code)
        assert [fields(s) for s in cert.steps] == [fields(s) for s in ref], (r, k)
        replayed = dataclasses.replace(cert, steps=tuple(ref))
        assert format_certificate(cert) == format_certificate(replayed)


def test_certify_builds_no_source_and_rebuilds_no_tree(monkeypatch):
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    code = make_code(2, {"a": "0", "b": "10", "c": "110", "d": "111"})
    built = []
    original = Source.__post_init__
    monkeypatch.setattr(Source, "__post_init__", lambda self: built.append(original(self)))
    recorded = []
    original_step = proof.reduction_step
    monkeypatch.setattr(proof, "reduction_step", lambda *args: recorded.append(original_step(*args)) or recorded[-1])

    def refuse(*args):
        raise AssertionError("certify must not rebuild the tree per merge")

    monkeypatch.setattr(tree_module, "replace_group_with_leaf", refuse)
    monkeypatch.setattr(proof, "replace_group_with_leaf", refuse)
    cert = certify(src, code)
    assert len(cert.steps) == 3
    assert built == []
    assert recorded == list(cert.steps)  # one reduction_step call per merge


def test_certify_raises_when_exact_checks_disagree(monkeypatch):
    src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
    code = make_code(2, {"a": "0", "b": "10", "c": "11"})
    monkeypatch.setattr(proof, "equality_condition", lambda src, code: (False, None))
    with pytest.raises(ExactnessCheckFailed):
        certify(src, code)


def test_delta_bits_pinned_for_masses_below_the_float_range():
    # the masses 5 and 10 share the factor 5 with D, and 5/D, 1/D, 10/D and
    # the merged 6/D and 16/D are all below 2^-1074; the bits were recorded
    # from the Fraction arithmetic that the integer masses replaced
    D = 5 * 2**1100
    src = make_source("abcd", [F(D - 16, D), F(5, D), F(1, D), F(10, D)])
    code = make_code(2, {"a": "0", "b": "100", "c": "101", "d": "11"})
    cert = certify(src, code)
    assert [s.delta.hex() for s in cert.steps] == ["-0x0.0p+0", "-0x0.0p+0", "-0x1.0000000000000p+0"]
    assert [s.p_red * D for s in cert.steps] == [6, 16, D]
    assert (cert.entropy.hex(), cert.sum_delta.hex()) == ("0x0.0p+0", "-0x1.0000000000000p+0")
    assert cert.acl_exact == 1 + F(22, D) and cert.verdict == "StrictInequality"
    # the reference chain reduces each group over its own denominator
    assert [fields(s) for s in cert.steps] == [fields(s) for s in reference_chain(src, cert.canonical_code)]


# --- sorted-neighbour prefix test ---


def test_is_prefix_free_matches_pairwise_oracle():
    rng = random.Random("prefix")
    for _ in range(2000):
        r = rng.choice([2, 3, 16])
        mapping = []
        for i in range(rng.randint(1, 6)):
            words = {tuple(rng.randrange(r) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(1, 2))}
            mapping.append((f"s{i}", [Codeword(w) for w in sorted(words)]))
        code = make_code(r, mapping)
        assert is_prefix_free(code) == prefix_free_oracle([w.digits for w in code.pooled()]), mapping


@pytest.mark.parametrize(
    "mapping,expected",
    [
        ({"a": "-"}, True),
        ({"a": "-", "b": "0"}, False),
        ({"a": "01", "b": "01"}, False),  # a word shared by two symbols
        ({"a": ["0", "10"], "b": "11"}, True),
        ({"a": "0", "b": "10", "c": "1"}, False),
    ],
)
def test_is_prefix_free_duplicates_and_empty_word(mapping, expected):
    code = make_code(2, mapping)
    assert is_prefix_free(code) is expected
    assert prefix_free_oracle([w.digits for w in code.pooled()]) is expected


# --- deep codes ---


def unary_dyadic(n):
    """p_i = 2^-i on the words 0, 10, 110, ..., with 1^(n-1) for the last symbol."""
    symbols = [f"s{i}" for i in range(n)]
    probs = [F(1, 2**i) for i in range(1, n)] + [F(1, 2 ** (n - 1))]
    words = [(1,) * (i - 1) + (0,) for i in range(1, n)] + [(1,) * (n - 1)]
    return make_source(symbols, probs), make_code(2, [(s, Codeword(w)) for s, w in zip(symbols, words)])


def test_certify_deep_unary_code():
    src, code = unary_dyadic(1100)
    cert = certify(src, code)
    assert cert.verdict == "Equality"
    assert len(cert.steps) == 1099
    assert cert.entropy == cert.acl == 2.0
    assert cert.witness.exponents == tuple(range(1, 1100)) + (1099,)
    assert [s.l_red for s in cert.steps] == list(range(1098, -1, -1))


def test_deep_tree_walks_and_huffman():
    src, code = unary_dyadic(1100)
    tree = to_tree(code, src)
    assert is_compact(tree)
    assert from_tree(compact_standalone(tree)).mapping == code.mapping
    assert tree_stats(tree) == tree_module.TreeStats(1100, 1099, True)
    assert len(dump_tree(tree).splitlines()) == 2199
    assert sorted(huffman(src, 2).lengths()) == sorted(code.lengths())


def test_kraft_sum_matches_term_by_term_sum():
    rng = random.Random("kraft")
    for _ in range(200):
        r = rng.randint(2, 17)
        lengths = [rng.randint(0, 30) for _ in range(rng.randint(0, 12))]
        assert kraft_sum(lengths, r) == sum((F(1, r**l) for l in lengths), F(0))
