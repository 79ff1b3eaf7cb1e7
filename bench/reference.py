"""Reference computations that the benchmark checks codecert's outputs against.

Nothing here imports codecert. Every expected value is derived from the
workload inputs by separate code, mostly in integer arithmetic where the
program uses Fraction, so a fault in the program cannot hide in its own
check.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


def entropy(probs: list[Fraction], r: int) -> float:
    """Base-r entropy -sum p log_r p, with logs taken of numerator and denominator."""
    total = math.fsum(
        (p.numerator / p.denominator) * (math.log(p.denominator) - math.log(p.numerator))
        for p in probs
    )
    return total / math.log(r)


def _padding(n: int, r: int) -> int:
    """Zero weights needed so that every Huffman merge takes exactly r nodes."""
    if r == 2 or n <= 1:
        return 0
    return (1 - n) % (r - 1)


def huffman_cost(weights: list[int], r: int) -> int:
    """Least sum w_i * l_i over r-ary prefix codes: the cost of a Huffman code."""
    return sum(w * l for w, l in zip(weights, huffman_lengths(weights, r)))


def huffman_lengths(weights: list[int], r: int) -> list[int]:
    """Codeword lengths of an r-ary Huffman code for the weights, in input order.

    The alphabet is padded with zero weights so that n + pad = 1 mod (r - 1)
    and every merge takes exactly r nodes.
    """
    n = len(weights)
    if n == 1:
        return [0]
    parent: list[int] = []
    heap = []
    for i, w in enumerate(list(weights) + [0] * _padding(n, r)):
        heap.append((w, i))
        parent.append(-1)
    heapq.heapify(heap)
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(min(r, len(heap)))]
        node = len(parent)
        parent.append(-1)
        for _, child in group:
            parent[child] = node
        heapq.heappush(heap, (sum(w for w, _ in group), node))
    depth = [0] * len(parent)
    for node in range(len(parent) - 2, -1, -1):  # parents are created after children
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


def canonical_code(lengths: list[int], r: int) -> list[tuple[int, ...]]:
    """The lexicographically first prefix-free code with these lengths, in input order.

    Words are handed out in order of length (stable over the input order),
    each one the successor of the previous word extended to its length.
    """
    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    words: list[tuple[int, ...]] = [()] * len(lengths)
    value, prev = 0, None
    for i in order:
        length = lengths[i]
        value = 0 if prev is None else (value + 1) * r ** (length - prev)
        if value >= r**length:
            raise ValueError("lengths exceed the Kraft bound")
        digits = []
        v = value
        for _ in range(length):
            v, d = divmod(v, r)
            digits.append(d)
        words[i] = tuple(reversed(digits))
        prev = length
    return words


def compacted_depths(words: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """Leaf depths after splicing out every only-child node, and the internal-node count.

    A node with a single child disappears when the tree is compacted, so a
    leaf's compacted depth is the number of its proper ancestors that have
    two or more children, and those ancestors are the compacted tree's
    internal nodes.
    """
    children: dict[tuple[int, ...], set[int]] = {}
    for w in words:
        for k in range(len(w)):
            children.setdefault(w[:k], set()).add(w[k])
    branching = {node for node, kids in children.items() if len(kids) >= 2}
    depths = [sum(1 for k in range(len(w)) if w[:k] in branching) for w in words]
    return depths, len(branching)


def is_prefix_free(words: list[str]) -> bool:
    """True iff no word is a prefix of another (sorted-neighbour test).

    After sorting, a word that is a prefix of some later word is also a
    prefix of its immediate successor.
    """
    ordered = sorted(words)
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def kraft_holds(lengths: list[int], r: int) -> bool:
    """sum r^-l <= 1, in integers scaled by r^max(l)."""
    top = max(lengths)
    return sum(r ** (top - l) for l in lengths) <= r**top


def count_decodings(text: str, code: dict[str, list[str]], cap: int = 2) -> int:
    """Distinct symbol sequences that a digit string decodes to, counted up to cap.

    Dynamic programming over the string's prefixes; each prefix keeps at
    most `cap` of its decodings, which is enough to tell 0, 1 and "cap or more".
    """
    words = [(w, s) for s, ws in code.items() for w in ws]
    decodings: list[set[tuple[str, ...]]] = [set() for _ in range(len(text) + 1)]
    decodings[0].add(())
    for i in range(len(text)):
        if not decodings[i]:
            continue
        for w, s in words:
            j = i + len(w)
            if j <= len(text) and text.startswith(w, i):
                bucket = decodings[j]
                for seq in decodings[i]:
                    if len(bucket) >= cap:
                        break
                    bucket.add(seq + (s,))
    return len(decodings[-1])


def step_moments(
    probs: list[Fraction], lengths: list[list[int]], weights: list[list[Fraction]]
) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the digits emitted per step of a simulated stream.

    Symbol i is drawn with probs[i], then its codeword k with weights[i][k].
    """
    mean = Fraction(0)
    square = Fraction(0)
    for p, ls, qs in zip(probs, lengths, weights):
        for l, q in zip(ls, qs):
            mean += p * q * l
            square += p * q * l * l
    return mean, square - mean * mean
