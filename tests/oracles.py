"""Independent reference implementations used to pin expected values.

Everything here recomputes quantities from their definitions with
mpmath at 50 significant digits or exact Fractions, sharing no code
with the package under test.
"""

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement, product

import mpmath

mpmath.mp.dps = 50


def entropy_oracle(probs, r) -> float:
    total = mpmath.mpf(0)
    for p in probs:
        x = mpmath.mpf(p.numerator) / p.denominator
        total -= x * mpmath.log(x)
    return float(total / mpmath.log(r))


def delta_oracle(probs, r) -> float:
    red = sum(probs, Fraction(0))
    x_red = mpmath.mpf(red.numerator) / red.denominator
    log_r = mpmath.log(r)
    value = x_red * mpmath.log(x_red) / log_r - x_red
    for p in probs:
        x = mpmath.mpf(p.numerator) / p.denominator
        value -= x * mpmath.log(x) / log_r
    return float(value)


def group_value_oracle(probs, r) -> float:
    total = sum(probs, Fraction(0))
    t = mpmath.mpf(total.numerator) / total.denominator
    log_value = mpmath.mpf(0)
    for p in probs:
        x = mpmath.mpf(p.numerator) / p.denominator
        log_value += x * (mpmath.log(r) + mpmath.log(x) - mpmath.log(t))
    return float(mpmath.e**log_value)


def optimal_acl_oracle(probs, r, max_len=None) -> Fraction:
    """Least ACL over all feasible prefix-code length multisets.

    Enumerates nondecreasing length tuples within the Kraft bound and
    pairs larger probabilities with shorter lengths (rearrangement).
    Lengths never need to exceed n - 1 for n >= 2.
    """
    n = len(probs)
    if n == 1:
        return Fraction(0)
    cap = max_len if max_len is not None else max(n - 1, 1)
    ordered = sorted(probs, reverse=True)
    best = None
    for lengths in combinations_with_replacement(range(1, cap + 1), n):
        if sum(Fraction(1, r**l) for l in lengths) > 1:
            continue
        cost = sum((p * l for p, l in zip(ordered, lengths)), Fraction(0))
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def prefix_free_oracle(words) -> bool:
    """No word is a prefix of the word at any other position (digit tuples)."""
    return not any(
        i != j and v[: len(u)] == u
        for i, u in enumerate(words)
        for j, v in enumerate(words)
    )


def ud_witness_oracle(mapping, r, max_len):
    """Shortest, then least, digit string of length <= max_len with two
    distinct decoded symbol sequences, as a digit tuple, or None.

    `mapping` lists (symbol, [digit tuple, ...]) with nonempty words.
    Strings are tried by length and then lexicographically; each one's
    decodings are counted by recursion over its first codeword.
    """
    words = [(w, s) for s, ws in mapping for w in ws]

    def decodings(string):
        if not string:
            return {()}
        out = set()
        for w, s in words:
            if string[: len(w)] == w:
                out |= {(s,) + rest for rest in decodings(string[len(w):])}
        return out

    for length in range(max_len + 1):
        for string in product(range(r), repeat=length):
            if len(decodings(string)) >= 2:
                return string
    return None


def heap_huffman_oracle(probs, r):
    """Huffman codewords as digit tuples, in symbol order, from a heap of
    (Fraction weight, creation order, children) entries.

    Pads with zero-weight placeholders to 1 mod (r-1) leaves; ties pop the
    earliest-created node, and a merged group takes digits 0..r-1 in pop
    order. This is the heap construction the integer engine must match.
    """
    n = len(probs)
    heap = [(Fraction(p), i, ()) for i, p in enumerate(probs)]
    pad = 0
    if r > 2:
        while (n + pad) % (r - 1) != 1:
            pad += 1
    heap.extend((Fraction(0), n + k, ()) for k in range(pad))
    heapq.heapify(heap)
    order = n + pad
    while len(heap) > 1:
        group = tuple(heapq.heappop(heap) for _ in range(min(r, len(heap))))
        heapq.heappush(heap, (sum((g[0] for g in group), Fraction(0)), order, group))
        order += 1
    words = [None] * n
    stack = [(heap[0], ())]
    while stack:
        (_, i, children), path = stack.pop()
        if children:
            stack.extend((child, path + (digit,)) for digit, child in enumerate(children))
        elif i < n:
            words[i] = path
    return words


def grow_leaf_paths_oracle(randbelow, r, z):
    """Leaf paths, depth first in digit order, of a full r-ary tree grown
    node by node: each step lists every leaf afresh and turns the one
    `randbelow(leaf count)` picks into a node with r leaf children."""
    root = []  # a node is the list of its children; a leaf is an empty list

    def leaves(node, path):
        if not node:
            return [(path, node)]
        return [found for d, child in enumerate(node) for found in leaves(child, path + (d,))]

    for _ in range(z):
        found = leaves(root, ())
        _, leaf = found[randbelow(len(found))]
        leaf.extend([] for _ in range(r))
    return [path for path, _ in leaves(root, ())]


def compacted_paths_oracle(paths):
    """Each leaf path with the digits below its only-child ancestors left out:
    a node keeps the digit below it when tree_nodes_oracle counts two or more
    children for it. Nodes come in lexicographic order, so a node's parent
    is met before it, and the cost is tree_nodes_oracle's."""
    nodes = tree_nodes_oracle(paths)
    count = dict(nodes)
    kept = {(): ()}
    for node, _ in nodes[1:]:
        parent = node[:-1]
        kept[node] = kept[parent] + node[-1:] if count[parent] > 1 else kept[parent]
    return [kept[p] for p in paths]


def tree_nodes_oracle(paths):
    """Every node of the tree with these leaf paths, in lexicographic order,
    with its number of children: the nodes are the paths' distinct
    prefixes. A path's prefixes are added from the longest down and stop at
    one already present, whose own prefixes are then present too, so a
    deep comb costs its paths' total length rather than its square."""
    nodes = set()
    for p in paths:
        for k in range(len(p), -1, -1):
            if p[:k] in nodes:
                break
            nodes.add(p[:k])
    children = dict.fromkeys(nodes, 0)
    for node in nodes:
        if node:
            children[node[:-1]] += 1
    return [(node, children[node]) for node in sorted(nodes)]


def tree_shape_oracle(paths, r):
    """(leaves, internal nodes, whether every internal node has r children)
    of the tree with these leaf paths, read off tree_nodes_oracle."""
    internal = [count for _, count in tree_nodes_oracle(paths) if count]
    return len(paths), len(internal), all(count == r for count in internal)
