"""The one-pass merge chain of certify against the reference operations,
the sorted-neighbour prefix test, and deep codes."""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

import codecert.decipher as decipher_module
import codecert.proof as proof
import codecert.tree as tree_module
from codecert import (
    Code,
    ExactnessCheckFailed,
    SiblingGroup,
    Source,
    SplitMix64,
    acl_exact,
    certify,
    compact_standalone,
    construct_instantaneous,
    entropy,
    equality_condition,
    find_sibling_group,
    format_certificate,
    format_codeword,
    from_tree,
    grow_full_tree,
    huffman,
    is_compact,
    is_prefix_free,
    kraft_sum,
    make_code,
    make_source,
    minimal_reduction,
    random_prefix_code,
    random_source,
    reduce_group,
    reduction_step,
    reversed_code,
    to_tree,
)
from oracles import compacted_paths_oracle, prefix_free_oracle, tree_nodes_oracle, tree_shape_oracle


def reference_chain(src, code):
    """The chain certify's pass must equal, one find_sibling_group and
    reduce_group at a time on the tree certify builds."""
    tree = compact_standalone(to_tree(code, src))
    steps = []
    while len(tree.paths) > 1:
        _, tree, step = reduce_group(tree, find_sibling_group(tree))
        steps.append(step)
    return steps


def fields(step):
    return (step.group, step.probs, step.p_red, step.delta.hex(), step.is_tight)


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


def test_chain_level_takes_leaves_and_merged_nodes_in_path_order():
    # compacted to 00, 01, 100, 101, 11: at depth 2 the node 10, merged from
    # depth 3, lies between the leaves 01 and 11
    src = make_source([f"s{i}" for i in range(1, 6)], [F(1, 5)] * 5)
    cert = certify(src, construct_instantaneous([2, 2, 3, 3, 4], 2))
    assert cert.certified_paths == ((0, 0), (0, 1), (1, 0, 0), (1, 0, 1), (1, 1))
    assert [(step.group.parent, step.group.members, step.masses) for step in cert.steps] == [
        ((1, 0), ((1, 0, 0), (1, 0, 1)), (1, 1)),
        ((0,), ((0, 0), (0, 1)), (1, 1)),
        ((1,), ((1, 0), (1, 1)), (2, 1)),
        ((), ((0,), (1,)), (2, 3)),
    ]


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
    monkeypatch.setattr(proof, "_equality_witness", lambda src, depths, r: None)
    with pytest.raises(ExactnessCheckFailed):
        certify(src, code)


# --- certify against the tree route ---


def walk_chain(tree, src):
    """The chain of a compact tree read off tree_nodes_oracle and the leaves'
    payloads: every internal node, deepest level first and each level in
    lexicographic order, its children's masses summed bottom-up. Only the
    step records come from the package (reduction_step). Linear in the
    tree, so it reaches deep codes that reference_chain, one tree rebuild
    per merge, cannot."""
    mass_of = dict(zip(src.symbols, src.masses))
    mass = {path: mass_of[leaf.symbol] for path, leaf in zip(tree.paths, tree.nodes)}
    nodes = tree_nodes_oracle(tree.paths)
    children = {node: [] for node, count in nodes if count}  # in lexicographic order
    steps = []
    for node, count in sorted(nodes, key=lambda entry: len(entry[0]), reverse=True):
        if count:  # every child is one level deeper, so it was met already
            masses = tuple(map(mass.get, children[node]))
            assert len(masses) == count
            mass[node] = sum(masses)
            group = SiblingGroup(node, tuple(children[node]))
            steps.append(reduction_step(group, masses, src.denominator, tree.radix))
        if node:
            children[node[:-1]].append(node)
    return steps


def assert_matches_tree_route(src, code, deep=False):
    """Every certificate field, the lazily built codes and the text, against
    construct_instantaneous, to_tree, compact_standalone, from_tree, the
    chain (walk_chain for deep codes), acl_exact and equality_condition."""
    r = code.radix
    reduced = minimal_reduction(code)
    kraft = construct_instantaneous(reduced.lengths(), r)
    canonical = Code(r, tuple((s, words) for s, (_, words) in zip(reduced.symbols, kraft.mapping)))
    tree = compact_standalone(to_tree(canonical, src))
    certified = from_tree(tree)
    steps = walk_chain(tree, src) if deep else reference_chain(src, canonical)
    acl = acl_exact(src, certified)
    equal, witness = equality_condition(src, certified)
    summary = {
        "acl_drop": acl_exact(src, canonical) - acl,
        "entropy": entropy(src, r),
        "acl": float(acl),
        "acl_exact": acl,
        "sum_delta": math.fsum(s.delta for s in steps),
        "verdict": "Equality" if equal else "StrictInequality",
        "witness": witness,
    }

    cert = certify(src, code)
    assert (cert.source, cert.code) == (src, code)
    assert {name: getattr(cert, name) for name in summary} == summary
    assert [fields(s) for s in cert.steps] == [fields(s) for s in steps]
    assert cert.canonical_code == canonical
    assert cert.certified_code == certified
    replayed = dataclasses.replace(cert, steps=tuple(steps), **summary)
    assert format_certificate(cert) == format_certificate(replayed)
    return cert


def comb(r, depth):
    """A dyadic-like code whose tree has one internal node per level: r - 1
    leaves at each depth below depth and r at depth, with p = r**-length."""
    top = (r - 1,) * (depth - 1)
    words = [(r - 1,) * (k - 1) + (d,) for k in range(1, depth) for d in range(r - 1)]
    words += [top + (d,) for d in range(r)]
    symbols = [f"s{i}" for i in range(len(words))]
    src = make_source(symbols, [F(1, r ** len(w)) for w in words])
    return src, make_code(r, [(s, [w]) for s, w in zip(symbols, words)])


def wide_case(r, n):
    """A source on n symbols and a code on it whose Kraft sum is below 1:
    about half its lengths are a random full tree's, one digit longer, and
    the rest a random prefix code's, each drawn 0 to 2 digits longer, below
    them all. The canonical words put the first half below 0 and the rest on
    a chain below 1, so compacting takes digits off every leaf of the second
    half, and a merge's compacted depth differs from its depth before."""
    splitmix = SplitMix64(n * 37 + r)
    src = random_source(splitmix, n, max_den=4 * n)
    full = [1 + len(path) for path in grow_full_tree(splitmix, r, (n // 2 - 1) // (r - 1)).paths]
    below = max(full) + 1
    rest = [below + len(w) + splitmix.randbelow(3) for w in random_prefix_code(splitmix, r, n - len(full)).pooled()]
    return src, construct_instantaneous(full + rest, r)


@pytest.mark.parametrize("r", [2, 3, 16, 36])
def test_certify_matches_tree_route_on_random_codes(r):
    rng = random.Random(f"route:{r}")
    cases = [(random_case(rng, r, k), False) for k in range(30)]
    cases += [(wide_case(r, n), True) for n in (1024, 4096) if r in (2, 36)]
    for (src, code), deep in cases:
        cert = assert_matches_tree_route(src, code, deep=deep)
        assert list(cert.certified_paths) == compacted_paths_oracle(list(cert.canonical_paths))


@pytest.mark.parametrize("r", [2, 3, 16, 36])
def test_certify_matches_tree_route_on_one_symbol(r):
    one = make_source("a", [F(1)])
    cert = assert_matches_tree_route(one, make_code(r, {"a": "-"}))
    assert (cert.verdict, cert.acl_drop, cert.steps) == ("Equality", 0, ())
    long_word = make_code(r, {"a": [(r - 1,) * 2100]})
    cert = assert_matches_tree_route(one, long_word, deep=True)
    assert (cert.verdict, cert.acl_drop, cert.certified_paths) == ("Equality", 2100, ((),))


@pytest.mark.parametrize("r", [2, 3, 16, 36])
def test_certify_matches_tree_route_on_deep_chains(r):
    # the canonical words 0, 10^2099 and 0, 10^2099, 10^2098 10 hang on chains
    two = make_source("ab", [F(1, 3), F(2, 3)])
    cert = assert_matches_tree_route(two, make_code(r, {"a": "0", "b": [(1,) * 2100]}), deep=True)
    assert cert.acl_drop == F(2, 3) * 2099
    words = {"a": [(0,)], "b": [(1,) * 2099 + (0,)], "c": [(1,) * 2101]}
    three = make_source("abc", [F(1, 2), F(1, 3), F(1, 6)])
    cert = assert_matches_tree_route(three, make_code(r, words), deep=True)
    assert cert.certified_paths == ((0,), (1, 0), (1, 1))


@pytest.mark.parametrize("r,depth", [(2, 2001), (3, 400)])
def test_certify_matches_tree_route_on_deep_combs(r, depth):
    src, code = comb(r, depth)
    cert = assert_matches_tree_route(src, code, deep=True)
    assert cert.verdict == "Equality" and len(cert.steps) == depth
    assert [len(s.group.parent) for s in cert.steps] == list(range(depth - 1, -1, -1))


def test_certify_matches_tree_route_on_a_deep_comb_of_unequal_masses():
    # siblings differ in mass at every level, so each step's masses are
    # checked in member order, which the dyadic combs cannot show
    src, code = comb(2, 1100)
    n = len(src)
    unequal = make_source(src.symbols, [F(2 * (i + 1), n * (n + 1)) for i in range(n)])
    cert = assert_matches_tree_route(unequal, code, deep=True)
    assert cert.verdict == "StrictInequality" and len(cert.steps) == 1100
    assert all(len(set(step.masses)) == 2 for step in cert.steps)


def test_certify_builds_no_code_and_no_tree(monkeypatch):
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    code = make_code(3, {"a": "0", "b": "10", "c": "11", "d": "1200"})
    built = []  # every Code made, checked or by a builder's Code._built
    original, unchecked = Code.__post_init__, Code._built
    monkeypatch.setattr(Code, "__post_init__", lambda self: built.append(original(self)))

    def counted(*fields):
        built.append(unchecked(*fields))
        return built[-1]

    monkeypatch.setattr(Code, "_built", counted)

    def refuse(*args, **kwargs):
        raise AssertionError("certify works on leaf paths")

    for module, name in (
        (decipher_module, "construct_instantaneous"),
        (tree_module, "to_tree"),
        (tree_module, "compact_standalone"),
        (tree_module, "from_tree"),
    ):
        monkeypatch.setattr(module, name, refuse)
        if hasattr(proof, name):
            monkeypatch.setattr(proof, name, refuse)
    cert = certify(src, code)
    assert built == []  # a one-codeword code is its own minimal reduction
    assert list(map(format_codeword, cert.certified_code.pooled())) == ["0", "10", "11", "12"]
    assert list(map(format_codeword, cert.canonical_code.pooled())) == ["0", "10", "11", "1200"]
    assert len(built) == 2


def test_certify_raises_when_the_lengths_outrun_the_canonical_words(monkeypatch):
    # a wrong decipherability verdict would leave lengths past the Kraft bound
    src = make_source("abc", [F(1, 3)] * 3)
    code = make_code(2, {"a": "0", "b": "1", "c": "01"})
    monkeypatch.setattr(proof, "ud_counterexample", lambda code: None)
    with pytest.raises(ExactnessCheckFailed, match="Kraft"):
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
            mapping.append((f"s{i}", sorted(words)))
        code = make_code(r, mapping)
        assert is_prefix_free(code) == prefix_free_oracle(code.pooled()), mapping


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
    assert prefix_free_oracle(code.pooled()) is expected


# --- deep codes ---


def unary_dyadic(n):
    """p_i = 2^-i on the words 0, 10, 110, ..., with 1^(n-1) for the last symbol."""
    symbols = [f"s{i}" for i in range(n)]
    probs = [F(1, 2**i) for i in range(1, n)] + [F(1, 2 ** (n - 1))]
    words = [(1,) * (i - 1) + (0,) for i in range(1, n)] + [(1,) * (n - 1)]
    return make_source(symbols, probs), make_code(2, [(s, [w]) for s, w in zip(symbols, words)])


def test_certify_deep_unary_code():
    src, code = unary_dyadic(1100)
    cert = certify(src, code)
    assert cert.verdict == "Equality"
    assert len(cert.steps) == 1099
    assert cert.entropy == cert.acl == 2.0
    assert cert.witness.exponents == tuple(range(1, 1100)) + (1099,)
    assert [len(s.group.parent) for s in cert.steps] == list(range(1098, -1, -1))


def test_deep_tree_walks_and_huffman():
    src, code = unary_dyadic(1100)
    tree = to_tree(code, src)
    assert is_compact(tree)
    assert from_tree(compact_standalone(tree)).mapping == code.mapping
    nodes = tree_nodes_oracle(tree.paths)
    assert [path for path, count in nodes if not count] == [path for path, _ in tree.leaves()]
    assert len(nodes) == 2199 and tree_shape_oracle(tree.paths, 2) == (1100, 1099, True)
    assert sorted(huffman(src, 2).lengths()) == sorted(code.lengths())


def test_kraft_sum_matches_term_by_term_sum():
    rng = random.Random("kraft")
    for _ in range(200):
        r = rng.randint(2, 17)
        lengths = [rng.randint(0, 30) for _ in range(rng.randint(0, 12))]
        assert kraft_sum(lengths, r) == sum((F(1, r**l) for l in lengths), F(0))
