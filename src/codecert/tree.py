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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .codes import Code, Codeword
from .decipher import is_prefix_free
from .errors import InvalidGroup, NotCompact, NotPrefixFree, TreeTooSmall
from .source import Source


@dataclass(frozen=True)
class TreeNode:
    """children is a digit-sorted tuple of (digit, node); leaves may hold a payload."""

    children: tuple[tuple[int, "TreeNode"], ...] = ()
    symbol: Any = None
    prob: Fraction | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class CodeTree:
    radix: int
    root: TreeNode

    def leaves(self) -> list[tuple[tuple[int, ...], TreeNode]]:
        """(path, leaf) pairs in depth-first digit order."""
        return [(path, node) for path, node in self.walk() if node.is_leaf]

    def walk(self) -> list[tuple[tuple[int, ...], TreeNode]]:
        """(path, node) pairs of every node in preorder, children in digit order.

        Preorder lists the nodes of each depth in lexicographic path order.
        """
        out = []
        stack = [((), self.root)]
        while stack:
            path, node = stack.pop()
            out.append((path, node))
            stack.extend((path + (d,), c) for d, c in reversed(node.children))
        return out

    def node_at(self, path: tuple[int, ...]) -> TreeNode:
        node = self.root
        for digit in path:
            for d, child in node.children:
                if d == digit:
                    node = child
                    break
            else:
                raise KeyError(f"no node at path {path}")
        return node


@dataclass(frozen=True)
class SiblingGroup:
    """Sibling leaves differing only in their last digit, with their parent path."""

    parent: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TreeStats:
    n: int
    z: int
    is_full: bool


def to_tree(code: Code, src: Source | None = None) -> CodeTree:
    """Build the tree of a prefix-free one-codeword-per-symbol code.

    Leaves carry the symbol, and its probability when a source is given.
    """
    if not code.is_singleton():
        raise NotPrefixFree("tree view needs one codeword per symbol")
    if not is_prefix_free(code):
        raise NotPrefixFree("code is not prefix-free")

    # a trie of digit -> subtrie dicts first, frozen on the way out; a
    # prefix-free code ends each word at its own empty dict
    trie: dict = {}
    leaves: dict[int, TreeNode] = {}
    for symbol, words in code.mapping:
        node = trie
        for digit in words[0].digits:
            node = node.setdefault(digit, {})
        prob = src.prob_of(symbol) if src is not None else None
        leaves[id(node)] = TreeNode((), symbol, prob)

    # every trie node is frozen after its children: reversed preorder
    order, stack = [], [trie]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.values())
    frozen: dict[int, TreeNode] = {}
    for node in reversed(order):
        if id(node) in leaves:
            frozen[id(node)] = leaves[id(node)]
        else:
            children = tuple((d, frozen[id(c)]) for d, c in sorted(node.items()))
            frozen[id(node)] = TreeNode(children)
    return CodeTree(code.radix, frozen[id(trie)])


def from_tree(tree: CodeTree) -> Code:
    """The code of a tree's leaves, symbols in depth-first digit order.

    Leaves without a symbol get positional names leaf0, leaf1, ...
    """
    mapping = []
    for k, (path, leaf) in enumerate(tree.leaves()):
        symbol = leaf.symbol if leaf.symbol is not None else f"leaf{k}"
        mapping.append((symbol, (Codeword(path),)))
    return Code(tree.radix, tuple(mapping))


def tree_source(tree: CodeTree) -> Source:
    """The source carried on a tree's leaves (requires probabilities)."""
    symbols, probs = [], []
    for k, (path, leaf) in enumerate(tree.leaves()):
        if leaf.prob is None:
            raise ValueError(f"leaf at {path} carries no probability")
        symbols.append(leaf.symbol if leaf.symbol is not None else f"leaf{k}")
        probs.append(leaf.prob)
    return Source(tuple(symbols), tuple(probs))


def compact_standalone(tree: CodeTree) -> CodeTree:
    """Splice away every only-child node, to fixpoint.

    Payloads are preserved; no leaf gets deeper. A chain collapses to the
    single-leaf tree. Average codeword length never increases, and
    strictly decreases when a spliced edge sits above a leaf with
    positive probability.
    """
    compacted: dict[int, TreeNode] = {}
    for _, node in reversed(tree.walk()):  # every node after its descendants
        compacted[id(node)] = node if node.is_leaf else _compact_node(node, compacted)
    return CodeTree(tree.radix, compacted[id(tree.root)])


def _compact_node(node: TreeNode, compacted: dict[int, TreeNode]) -> TreeNode:
    """node with its compacted children, spliced while it has only one."""
    children = tuple((d, compacted[id(c)]) for d, c in node.children)
    while len(children) == 1:
        only = children[0][1]
        if only.is_leaf:
            return TreeNode((), only.symbol, only.prob)
        children = only.children
    return TreeNode(children)


def is_compact(tree: CodeTree) -> bool:
    return all(len(node.children) != 1 for _, node in tree.walk())


def find_sibling_group(tree: CodeTree) -> SiblingGroup:
    """A deepest all-leaf sibling group of a compact tree.

    Deterministic: the deepest level, then the lexicographically least
    parent path. Existence is guaranteed for compact trees with at least
    two leaves, which is exactly what the induction needs.
    """
    leaves = tree.leaves()
    if len(leaves) < 2:
        raise TreeTooSmall("a sibling group needs at least two leaves")
    if not is_compact(tree):
        raise NotCompact("tree has an only-child node; compact it first")

    deepest = max(len(path) for path, _ in leaves)
    parents = sorted({path[:-1] for path, _ in leaves if len(path) == deepest})
    parent = parents[0]
    node = tree.node_at(parent)
    members = tuple(parent + (digit,) for digit, _ in node.children)
    # all children of a deepest leaf's parent are themselves deepest leaves
    return SiblingGroup(parent, members)


def tree_stats(tree: CodeTree) -> TreeStats:
    nodes = [node for _, node in tree.walk()]
    internal = [node for node in nodes if not node.is_leaf]
    full = all(len(node.children) == tree.radix for node in internal)
    return TreeStats(len(nodes) - len(internal), len(internal), full)


def replace_group_with_leaf(
    tree: CodeTree, group: SiblingGroup, symbol, prob: Fraction | None
) -> CodeTree:
    """The tree with the group's parent turned into a leaf (used by reductions)."""
    return _replace_at(tree, group.parent, TreeNode((), symbol, prob))


def _replace_at(tree: CodeTree, path: tuple[int, ...], node: TreeNode) -> CodeTree:
    """The tree with node in place of the node at path; only the path's ancestors are rebuilt."""
    above = [tree.root]  # the nodes on the path, root first
    for depth, digit in enumerate(path):
        children = dict(above[-1].children)
        if digit not in children:
            raise InvalidGroup(f"no node at path {path[: depth + 1]}")
        above.append(children[digit])
    for digit, old in zip(reversed(path), reversed(above[:-1])):
        children = tuple((d, node if d == digit else c) for d, c in old.children)
        node = TreeNode(children, old.symbol, old.prob)
    return CodeTree(tree.radix, node)


def dump_tree(tree: CodeTree) -> str:
    """Indented text dump, one node per line: '<digit-path> [symbol p=a/b]'."""
    lines = []
    for path, node in tree.walk():
        label = str(Codeword(path))
        if node.is_leaf and node.symbol is not None:
            label += f" {node.symbol}"
            if node.prob is not None:
                label += f" p={node.prob}"
        lines.append("  " * len(path) + label)
    return "\n".join(lines)
