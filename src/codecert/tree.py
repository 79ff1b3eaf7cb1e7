"""The r-ary tree view of prefix-free codes.

Leaves correspond one-to-one to codewords (the digit path from the root
is the codeword) and may carry a symbol and its probability. Internal
nodes carry nothing. Trees are immutable; every operation returns a new
tree.

A tree is *compact* when no node except the root is its parent's only
child. Compacting splices such a child into its parent, which shortens
the codewords below it; repeated splicing of a bare chain collapses it
to the single-leaf tree whose codeword is the empty word. Compact trees
with at least two leaves always contain a deepest group of sibling
leaves, which is the unit the proof engine merges.

A CodeTree stores its leaves' paths in digit order and their leaf nodes.
Digits are below the radix, so the leaves at or below path p are the
range [p, p + (radix,)), found by two bisects; a merge replaces that
range by one leaf. Compacting is one stack pass (_compact_paths). The
internal nodes are the leaves' proper prefixes and are never stored.

certify takes only SiblingGroup and _compact_paths from here. The rest
is the reference tree route, which the tests replay against certify's
one-pass chain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .codes import Code, Codeword
from .decipher import is_prefix_free
from .errors import InvalidGroup, NotCompact, NotPrefixFree, TreeTooSmall
from .source import Source


@dataclass(frozen=True)
class TreeNode:
    """A leaf's payload: its symbol and its probability, either may be absent."""

    symbol: Any = None
    prob: Fraction | None = None


@dataclass(frozen=True)
class CodeTree:
    """A tree stored as its leaves: their paths in digit order and their
    leaf nodes, which carry the payloads."""

    radix: int
    paths: tuple[tuple[int, ...], ...]
    nodes: tuple[TreeNode, ...]

    def leaves(self) -> list[tuple[tuple[int, ...], TreeNode]]:
        """(path, leaf) pairs in depth-first digit order."""
        return list(zip(self.paths, self.nodes))


@dataclass(frozen=True)
class SiblingGroup:
    """Sibling leaves differing only in their last digit, with their parent path."""

    parent: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.members)


def to_tree(code: Code, src: Source | None = None) -> CodeTree:
    """Build the tree of a prefix-free one-codeword-per-symbol code.

    Leaves carry the symbol, and its probability when a source is given.
    """
    if not code.mapping:
        raise ValueError("tree view needs at least one codeword")
    if not code.is_singleton():
        raise NotPrefixFree("tree view needs one codeword per symbol")
    if not is_prefix_free(code):
        raise NotPrefixFree("code is not prefix-free")

    order = sorted(code.mapping, key=lambda entry: entry[1][0].digits)  # digit order
    paths = tuple(words[0].digits for _, words in order)
    leaves = tuple(TreeNode(symbol, src.prob_of(symbol) if src is not None else None) for symbol, _ in order)
    return CodeTree(code.radix, paths, leaves)


def from_tree(tree: CodeTree) -> Code:
    """The code of a tree's leaves, symbols in depth-first digit order.

    Leaves without a symbol get positional names leaf0, leaf1, ...
    """
    words = [(Codeword(path),) for path, _ in tree.leaves()]
    return Code(tree.radix, tuple(zip(_symbols(tree), words)))


def tree_source(tree: CodeTree) -> Source:
    """The source carried on a tree's leaves (requires probabilities)."""
    for path, leaf in tree.leaves():
        if leaf.prob is None:
            raise ValueError(f"leaf at {path} carries no probability")
    return Source(_symbols(tree), tuple(leaf.prob for leaf in tree.nodes))


def _symbols(tree: CodeTree) -> tuple:
    """The leaves' symbols in digit order; leaf k without one is named leaf<k>."""
    return tuple(f"leaf{k}" if leaf.symbol is None else leaf.symbol for k, leaf in enumerate(tree.nodes))


def compact_standalone(tree: CodeTree) -> CodeTree:
    """Splice away every only-child node, to fixpoint.

    Payloads are preserved; no leaf gets deeper. A chain collapses to the
    single-leaf tree. Average codeword length never increases, and
    strictly decreases when a spliced edge sits above a leaf with
    positive probability.
    """
    return CodeTree(tree.radix, tuple(_compact_paths(tree.paths, _parts(tree.paths))), tree.nodes)


def _parts(paths: list[tuple[int, ...]]) -> list[int]:
    """The depth at which each two neighbouring paths part: their common prefix's length."""
    out = []
    for p, q in zip(paths, paths[1:]):
        n = min(len(p), len(q))
        k = 0
        while k < n and p[k] == q[k]:
            k += 1
        out.append(k)
    return out


def _compact_paths(paths: list[tuple[int, ...]], parts: list[int]) -> list[tuple[int, ...]]:
    """The leaf paths, in digit order, once every only-child node is spliced.

    The paths are prefix-free and in digit order, and leaves k and k+1
    part at depth parts[k], where their common ancestor branches. A leaf
    keeps the digit below each ancestor with two or more children. For
    leaf k, the branching ancestors above depth parts[k-1] are those of
    leaf k-1, the one at that depth branches, and below it the ancestor
    at depth d branches exactly when d is a running minimum of parts[k],
    parts[k+1], ...; one monotone stack pass from the right lists those
    minima.
    """
    right: list[tuple[int, ...]] = []  # right[k]: the running minima from parts[k] on, ascending
    stack: list[int] = []
    for part in reversed(parts):
        while stack and stack[-1] >= part:
            stack.pop()
        stack.append(part)
        right.append(tuple(stack))
    right.reverse()
    right.append(())

    kept = right[0]  # the depths of the branching ancestors of the current leaf
    out = [tuple(map(paths[0].__getitem__, kept))]
    for path, part, minima in zip(paths[1:], parts, right[1:]):
        kept = kept[: bisect_left(kept, part)] + (part,) + minima[bisect_right(minima, part) :]
        out.append(tuple(map(path.__getitem__, kept)))
    return out


def _below(tree: CodeTree, path: tuple[int, ...]) -> slice:
    """The positions of the leaves at or below path. Digits are below the
    radix, so their paths are those in [path, path + (radix,))."""
    return slice(bisect_left(tree.paths, path), bisect_left(tree.paths, path + (tree.radix,)))


def is_compact(tree: CodeTree) -> bool:
    """True iff compacting changes nothing: no node has an only child."""
    return compact_standalone(tree) == tree


def find_sibling_group(tree: CodeTree) -> SiblingGroup:
    """A deepest all-leaf sibling group of a compact tree.

    Deterministic: the deepest level, then the lexicographically least
    parent path. Existence is guaranteed for compact trees with at least
    two leaves, which is exactly what the induction needs.
    """
    if len(tree.paths) < 2:
        raise TreeTooSmall("a sibling group needs at least two leaves")
    if not is_compact(tree):
        raise NotCompact("tree has an only-child node; compact it first")

    deepest = max(map(len, tree.paths))
    parent = next(path for path in tree.paths if len(path) == deepest)[:-1]
    # all children of a deepest leaf's parent are themselves deepest leaves
    return SiblingGroup(parent, tree.paths[_below(tree, parent)])


def replace_group_with_leaf(
    tree: CodeTree, group: SiblingGroup, symbol, prob: Fraction | None
) -> CodeTree:
    """The tree with the node at the group's parent turned into a leaf
    (used by reductions): the leaves below it give way to the one leaf."""
    span = _below(tree, group.parent)
    if span.start == span.stop:
        raise InvalidGroup(f"no node at path {group.parent}")
    paths = tree.paths[: span.start] + (group.parent,) + tree.paths[span.stop :]
    nodes = tree.nodes[: span.start] + (TreeNode(symbol, prob),) + tree.nodes[span.stop :]
    return CodeTree(tree.radix, paths, nodes)
