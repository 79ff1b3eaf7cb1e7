"""Tree view of prefix-free codes: round trips, compacting, sibling
groups, merges."""

import random
from fractions import Fraction as F

import pytest

from codecert import (
    Code,
    CodeTree,
    Codeword,
    InvalidGroup,
    NotCompact,
    NotPrefixFree,
    SiblingGroup,
    TreeNode,
    TreeTooSmall,
    compact_standalone,
    find_sibling_group,
    from_tree,
    grow_full_tree,
    is_compact,
    make_code,
    make_source,
    reduce_group,
    replace_group_with_leaf,
    trial_rng,
    to_tree,
    tree_source,
)
from oracles import compacted_paths_oracle, tree_nodes_oracle, tree_shape_oracle


def abc_tree(with_src=True):
    code = make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])
    src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)]) if with_src else None
    return to_tree(code, src)


# --- construction and round trips ---


def test_round_trip_code():
    code = make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])
    assert from_tree(to_tree(code)).mapping == code.mapping


def test_round_trip_source():
    tree = abc_tree()
    src = tree_source(tree)
    assert src.symbols == ("a", "b", "c")
    assert src.probs == (F(1, 2), F(1, 4), F(1, 4))


def test_to_tree_rejects_bad_codes():
    with pytest.raises(NotPrefixFree):
        to_tree(make_code(2, {"a": ["0", "10"], "b": "11"}))
    with pytest.raises(NotPrefixFree):
        to_tree(make_code(2, {"a": "0", "b": "01"}))


def test_to_tree_rejects_a_code_without_codewords():
    with pytest.raises(ValueError, match="at least one codeword"):
        to_tree(Code(2, ()))


def test_single_empty_codeword_tree():
    tree = to_tree(make_code(2, {"a": "-"}))
    assert tree.paths == ((),)
    assert tree.nodes[0].symbol == "a"
    assert tree_nodes_oracle(tree.paths) == [((), 0)]


def test_leaves_depth_first_digit_order():
    code = make_code(2, [("c", "11"), ("a", "0"), ("b", "10")])
    tree = to_tree(code)
    assert [(path, leaf.symbol) for path, leaf in tree.leaves()] == [
        ((0,), "a"),
        ((1, 0), "b"),
        ((1, 1), "c"),
    ]


def test_from_tree_names_unnamed_leaves():
    code = make_code(2, {"x": "0", "y": "1"})
    tree = to_tree(code)  # no source: symbols kept, probs absent
    named = from_tree(tree)
    assert named.symbols == ("x", "y")
    with pytest.raises(ValueError):
        tree_source(tree)


# --- compacting ---


def test_compact_splices_chains():
    tree = to_tree(make_code(2, {"a": "0", "b": "10"}))
    assert not is_compact(tree)
    compacted = compact_standalone(tree)
    assert is_compact(compacted)
    assert [(p, l.symbol) for p, l in compacted.leaves()] == [((0,), "a"), ((1,), "b")]


def test_compact_collapses_bare_chain_to_empty_word():
    tree = to_tree(make_code(2, {"a": "000"}))
    compacted = compact_standalone(tree)
    assert compacted.paths == ((),)
    assert compacted.nodes[0].symbol == "a"


def test_compact_idempotent_and_preserves_payload():
    src = make_source("ab", [F(2, 3), F(1, 3)])
    tree = to_tree(make_code(2, {"a": "0", "b": "100"}), src)
    once = compact_standalone(tree)
    assert compact_standalone(once) == once
    assert tree_source(once).prob_of("b") == F(1, 3)


def test_compact_never_deepens_a_leaf():
    tree = to_tree(make_code(2, {"a": "0", "b": "100", "c": "1010", "d": "1011"}))
    before = {l.symbol: len(p) for p, l in tree.leaves()}
    after = {l.symbol: len(p) for p, l in compact_standalone(tree).leaves()}
    assert all(after[s] <= before[s] for s in before)


def test_compact_matches_the_splicing_oracle():
    # random digits put only-children at every digit, not just at 0
    rng = random.Random("compact")
    for _ in range(300):
        r = rng.choice([2, 3, 16])
        words = set()
        for _ in range(rng.randint(1, 8)):
            w = tuple(rng.randrange(r) for _ in range(rng.randint(1, 7)))
            if not any(w[: len(u)] == u or u[: len(w)] == w for u in words):
                words.add(w)
        paths = sorted(words)
        code = make_code(r, [(f"s{i}", Codeword(p)) for i, p in enumerate(paths)])
        compacted = compact_standalone(to_tree(code))
        assert is_compact(compacted)
        expected = list(zip(compacted_paths_oracle(paths), code.symbols))
        assert [(p, leaf.symbol) for p, leaf in compacted.leaves()] == expected, paths


def test_is_compact_cases():
    assert is_compact(abc_tree())
    assert is_compact(to_tree(make_code(2, {"a": "-"})))
    assert not is_compact(to_tree(make_code(2, {"a": "00", "b": "01"})))


# --- sibling groups ---


def test_find_sibling_group_worked():
    group = find_sibling_group(abc_tree())
    assert group.parent == (1,)
    assert group.members == ((1, 0), (1, 1))
    assert group.s == 2


def test_find_sibling_group_deterministic_choice():
    code = make_code(2, {"a": "00", "b": "01", "c": "10", "d": "11"})
    group = find_sibling_group(to_tree(code))
    assert group.parent == (0,)

    deeper = make_code(2, {"a": "0", "b": "100", "c": "101", "d": "110", "e": "111"})
    group = find_sibling_group(to_tree(deeper))
    assert group.parent == (1, 0)


def test_find_sibling_group_errors():
    with pytest.raises(TreeTooSmall):
        find_sibling_group(to_tree(make_code(2, {"a": "-"})))
    with pytest.raises(NotCompact):
        find_sibling_group(to_tree(make_code(2, {"a": "0", "b": "10"})))


def test_group_members_can_be_fewer_than_radix():
    code = make_code(3, {"a": "0", "b": "10", "c": "11"})
    group = find_sibling_group(to_tree(code))
    assert group.parent == (1,)
    assert group.s == 2


# --- shape and merges ---


def test_tree_stats_full_identity():
    n, z, full = tree_shape_oracle(abc_tree().paths, 2)
    assert (n, z, full) == (3, 2, True)
    assert n == z * (2 - 1) + 1

    partial = compact_standalone(to_tree(make_code(3, {"a": "0", "b": "1"})))
    assert tree_shape_oracle(partial.paths, 3) == (2, 1, False)


def test_replace_group_with_leaf():
    tree = abc_tree()
    group = find_sibling_group(tree)
    merged = replace_group_with_leaf(tree, group, "(b+c)", F(1, 2))
    assert [(p, l.symbol, l.prob) for p, l in merged.leaves()] == [
        ((0,), "a", F(1, 2)),
        ((1,), "(b+c)", F(1, 2)),
    ]
    # siblings elsewhere untouched
    assert merged.leaves()[0] == ((0,), tree.nodes[0])


def test_replace_group_at_root():
    tree = to_tree(make_code(2, {"a": "0", "b": "1"}))
    group = find_sibling_group(tree)
    assert group.parent == ()
    merged = replace_group_with_leaf(tree, group, "(a+b)", F(1))
    assert merged.paths == ((),)
    assert merged.nodes[0].symbol == "(a+b)"


def test_replace_group_at_absent_path_raises():
    tree = abc_tree()
    for parent in [(2,), (0, 1), (1, 0, 0)]:  # no digit 2; below a leaf; below a deepest leaf
        with pytest.raises(InvalidGroup):
            replace_group_with_leaf(tree, SiblingGroup(parent, (parent + (0,),)), "x", F(1, 2))


def test_leaf_list_operations_build_no_nested_view():
    src = make_source("abcde", [F(1, 5)] * 5)
    tree = compact_standalone(to_tree(make_code(3, {"a": "0", "b": "10", "c": "12", "d": "200", "e": "201"}), src))
    assert is_compact(tree)
    while len(tree.leaves()) > 1:
        cur, tree, _ = reduce_group(tree, find_sibling_group(tree))
        assert from_tree(tree).symbols == cur.symbols
    assert tree.paths == ((),)
    grown = grow_full_tree(trial_rng(7, 0), 3, 4)
    assert len(grown.leaves()) == 9 and is_compact(grown)


# --- the readers of the leaf list against the tree's nodes ---


def assert_readers_match_nodes_oracle(tree):
    """leaves, is_compact and find_sibling_group against the nodes the
    leaf paths imply."""
    nodes = tree_nodes_oracle(tree.paths)
    assert [path for path, count in nodes if not count] == [path for path, _ in tree.leaves()]
    compact = 1 not in [count for _, count in nodes]  # no node is an only child
    assert is_compact(tree) == compact
    if compact and len(tree.paths) > 1:
        # the deepest internal nodes' children are leaves; the least one is picked
        deepest = max(len(path) for path, count in nodes if count)
        parent = next(path for path, count in nodes if count and len(path) == deepest)
        members = tuple(path for path, _ in nodes if path[:-1] == parent and len(path) == deepest + 1)
        assert find_sibling_group(tree) == SiblingGroup(parent, members)


def random_paths(rng, r):
    """Prefix-free digit paths with only-child nodes at every digit."""
    words = set()
    for _ in range(rng.randint(1, 12)):
        w = tuple(rng.randrange(r) for _ in range(rng.randint(0, 6)))
        if not any(w[: len(u)] == u or u[: len(w)] == w for u in words):
            words.add(w)
    return sorted(words)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 11, 36])
def test_flat_readers_match_the_nodes_oracle(r):
    rng = random.Random(f"flat:{r}")
    for k in range(60):
        paths = random_paths(rng, r)
        symbols = [f"s{i}" for i in range(len(paths))]
        src = make_source(symbols, [F(1, len(paths))] * len(paths)) if k % 2 else None
        tree = to_tree(make_code(r, [(s, Codeword(p)) for s, p in zip(symbols, paths)]), src)
        assert_readers_match_nodes_oracle(tree)
        assert_readers_match_nodes_oracle(compact_standalone(tree))
        assert_readers_match_nodes_oracle(grow_full_tree(trial_rng(k, r), r, k % 7))


def test_flat_readers_on_a_deep_comb():
    # one internal node per level, the last with r leaves
    r, depth = 2, 2000
    paths = [(r - 1,) * (k - 1) + (d,) for k in range(1, depth) for d in range(r - 1)]
    paths += [(r - 1,) * (depth - 1) + (d,) for d in range(r)]
    tree = CodeTree(r, tuple(sorted(paths)), (TreeNode(),) * len(paths))
    assert_readers_match_nodes_oracle(tree)
    assert tree_shape_oracle(tree.paths, r) == (len(paths), depth, True)
