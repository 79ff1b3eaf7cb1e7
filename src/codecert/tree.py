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

Building and compacting run on the leaves' paths in digit order: one
compaction (_compact_paths) and one bottom-up fold (_leaf_fold), which
the proof engine also uses directly, with no tree built.
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

    order = sorted(code.mapping, key=lambda entry: entry[1][0].digits)  # digit order
    paths = [words[0].digits for _, words in order]
    leaves = [TreeNode((), symbol, src.prob_of(symbol) if src is not None else None) for symbol, _ in order]
    return CodeTree(code.radix, _tree_of(paths, _parts(paths), leaves))


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
    leaves = tree.leaves()
    paths = [path for path, _ in leaves]
    paths, parts = _compact_paths(paths, _parts(paths))
    return CodeTree(tree.radix, _tree_of(paths, parts, [leaf for _, leaf in leaves]))


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


def _compact_paths(paths: list[tuple[int, ...]], parts: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """The leaf paths, in digit order, once every only-child node is
    spliced, and the parts of the new paths.

    The paths are prefix-free and in digit order, and leaves k and k+1
    part at depth parts[k], where their common ancestor branches. A leaf
    keeps the digit below each ancestor with two or more children. For
    leaf k, the branching ancestors above depth parts[k-1] are those of
    leaf k-1, the one at that depth branches, and below it the ancestor
    at depth d branches exactly when d is a running minimum of parts[k],
    parts[k+1], ...; one monotone stack pass from the right lists those
    minima. Two new paths part at the count of kept depths above their
    old part.
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
    out, out_parts = [tuple(map(paths[0].__getitem__, kept))], []
    for path, part, minima in zip(paths[1:], parts, right[1:]):
        above = bisect_left(kept, part)
        kept = kept[:above] + (part,) + minima[bisect_right(minima, part) :]
        out.append(tuple(map(path.__getitem__, kept)))
        out_parts.append(above)
    return out, out_parts


def _leaf_fold(paths, parts: list[int], leaves: list, close):
    """Fold the tree whose leaves lie at these paths, bottom-up.

    The paths are prefix-free and in digit order, parts[k] is the depth
    at which paths k and k+1 part, and leaves[k] is the value of leaf k.
    close(path, children) gets each internal node's path and its
    children's (digit, value) pairs in digit order, and returns the
    node's value. Nodes close in postorder, so the nodes of each depth
    close in lexicographic path order. Returns the root's value.
    """
    if len(paths) == 1 and not paths[0]:
        return leaves[0]  # the root is the only leaf
    open_children: list[list] = [[]]  # open_children[k]: the finished children of the open node at depth k
    prev: tuple[int, ...] = ()

    def close_below(depth: int) -> None:
        while len(open_children) > depth + 1:
            children = open_children.pop()
            k = len(open_children)
            open_children[-1].append((prev[k - 1], close(prev[:k], children)))

    for path, part, leaf in zip(paths, [0, *parts], leaves):
        close_below(part)
        open_children.extend([] for _ in range(len(path) - len(open_children)))
        open_children[-1].append((path[-1], leaf))
        prev = path
    close_below(0)
    return close((), open_children[0])


def _tree_of(paths, parts: list[int], leaves: list[TreeNode]) -> TreeNode:
    """The tree whose leaves, in digit order, lie at these paths."""
    return _leaf_fold(paths, parts, leaves, lambda _, children: TreeNode(tuple(children)))


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
