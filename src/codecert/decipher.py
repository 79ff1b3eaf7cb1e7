"""Decidability of the code classes: prefix-freeness, unique
decipherability, a brute-force oracle, the Kraft construction, and
Huffman coding.

Unique decipherability is decided two independent ways:

  * is_uniquely_decipherable: the Sardinas-Patterson dangling-suffix
    iteration over the pooled codeword set (one codeword per symbol);
  * ud_counterexample / brute_force_ud: one search over every digit
    string up to a length budget for two distinct decoded *symbol*
    sequences, which also handles several codewords per symbol.

Convention for the empty codeword: a code whose only codeword is the
empty word is treated as uniquely decipherable (it is the degenerate
one-symbol base case, and it is prefix-free); the empty word next to
any other codeword makes a code undecipherable, since it can be
inserted into a parse any number of times. Both deciders implement the
same convention.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Any, Sequence

from .codes import Code, Codeword, kraft_sum
from .errors import KraftViolated, UnsupportedMultiCodeword
from .source import Source, _check_radix

DEFAULT_UD_BUDGET = 12


def is_prefix_free(code: Code) -> bool:
    """True iff no pooled codeword is a prefix of a distinct pooled codeword.

    Duplicated codewords count as mutual prefixes, and the empty word is
    a prefix of everything, so either of those makes the code not
    prefix-free (unless the empty word is the only codeword).

    In sorted order every word between u and a word that u prefixes also
    starts with u, so checking each word against its successor suffices.
    """
    words = sorted(w.digits for w in code.pooled())
    return not any(v[: len(u)] == u for u, v in zip(words, words[1:]))


def _sardinas_patterson(codewords: set[tuple[int, ...]]) -> bool:
    """Run the dangling-suffix iteration; True iff no suffix is a codeword."""
    dangling: set[tuple[int, ...]] = set()
    for u in codewords:
        for v in codewords:
            if u != v and v[: len(u)] == u:
                dangling.add(v[len(u):])
    visited: set[tuple[int, ...]] = set()
    frontier = dangling
    while frontier:
        if frontier & codewords:
            return False
        visited |= frontier
        nxt: set[tuple[int, ...]] = set()
        for d in frontier:
            for c in codewords:
                if len(c) > len(d) and c[: len(d)] == d:
                    nxt.add(c[len(d):])
                elif len(d) > len(c) and d[: len(c)] == c:
                    nxt.add(d[len(c):])
        frontier = nxt - visited
    return True


def is_uniquely_decipherable(code: Code) -> bool:
    """Sardinas-Patterson decision for codes with one codeword per symbol."""
    if not code.is_singleton():
        raise UnsupportedMultiCodeword(
            "Sardinas-Patterson runs on pooled singleton codes; use brute_force_ud "
            "for codes with several codewords per symbol"
        )
    pooled = [w.digits for w in code.pooled()]
    if len(set(pooled)) != len(pooled):
        return False  # shared codeword: two symbols decode identically
    if () in pooled:
        return len(pooled) == 1
    return _sardinas_patterson(set(pooled))


def ud_counterexample(code: Code, max_len: int = DEFAULT_UD_BUDGET) -> str | None:
    """Shortest digit string with two distinct decodings, or None.

    Dynamic programming over digit strings of length <= max_len, one level
    per length: each string maps to the id of its one decoded symbol
    sequence, or to an ambiguous mark once a second, different sequence
    reaches it. Ids are interned from (parent id, symbol), so two parses
    that pick different codewords of the same symbols are one decoding.
    Ties at the witness length break to the least digit string.
    """
    if max_len < 0:
        raise ValueError(f"the witness search needs max_len >= 0, got {max_len}")
    pooled = code.pooled()
    if any(w.length == 0 for w in pooled):
        if len(pooled) == 1:
            return None
        # The empty string already decodes as "" and as the empty-word symbol.
        return "-"

    # A string is keyed by chr() of its digits: same-length keys then
    # compare in digit order, so min() picks the least digit string.
    transitions = [
        ("".join(map(chr, w.digits)), w.length, symbol)
        for symbol, words in code.mapping
        for w in words
    ]
    AMBIGUOUS = -1  # a string reached by two different symbol sequences
    seq_ids: dict[tuple[int, Any], int] = {}
    # Every transition is nonempty, so a level is final once all shorter
    # levels were extended. A level is made when first a target and dropped
    # once extended: at most the longest codeword's length of them live.
    levels: dict[int, dict[str, int]] = {0: {"": 0}}  # "" decodes as the empty sequence
    for length in range(max_len + 1):
        current = levels.pop(length, {})
        ambiguous = [s for s, q in current.items() if q == AMBIGUOUS]
        if ambiguous:
            return str(Codeword(tuple(map(ord, min(ambiguous)))))
        moves = [
            (w, symbol, levels.setdefault(length + size, {}))
            for w, size, symbol in transitions
            if length + size <= max_len
        ]
        for prefix, q in current.items():
            for w, symbol, bucket in moves:
                seq = seq_ids.setdefault((q, symbol), len(seq_ids) + 1)
                s = prefix + w
                if bucket.setdefault(s, seq) != seq:
                    bucket[s] = AMBIGUOUS
    return None


def brute_force_ud(code: Code, max_len: int = DEFAULT_UD_BUDGET) -> bool:
    """True iff every digit string of length <= max_len decodes at most one way."""
    return ud_counterexample(code, max_len) is None


def construct_instantaneous(lengths: Sequence[int], r: int, symbols: Sequence | None = None) -> Code:
    """Kraft's constructive direction: a canonical prefix-free code with
    exactly the requested lengths.

    Lengths are processed in ascending order (stable over the input
    order) and codewords are assigned in lexicographic order, skipping
    descendants of already-assigned words. The i-th output codeword has
    exactly the i-th input length.
    """
    _check_radix(r)
    lengths = list(lengths)
    total = kraft_sum(lengths, r)
    if total > 1:
        raise KraftViolated(f"sum of r^-l is {total} > 1; no prefix-free code exists")
    if symbols is None:
        symbols = [f"s{i + 1}" for i in range(len(lengths))]
    if len(symbols) != len(lengths):
        raise ValueError("symbols and lengths must have equal length")

    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    words: dict[int, Codeword] = {}
    digits: list[int] = []  # the previous word; the first word is all zeros
    for k, i in enumerate(order):
        if k:
            # successor of the previous word: the Kraft bound keeps the
            # carry inside it
            j = len(digits) - 1
            while digits[j] == r - 1:
                digits[j] = 0
                j -= 1
            digits[j] += 1
        digits.extend([0] * (lengths[i] - len(digits)))
        words[i] = Codeword(tuple(digits))
    return Code(r, tuple((symbols[i], (words[i],)) for i in range(len(lengths))))


def huffman(src: Source, r: int) -> Code:
    """Huffman's minimum-redundancy instantaneous code for the source.

    For r > 2 the alphabet is padded with zero-weight placeholders so
    that the leaf count is 1 mod (r-1); placeholders never appear in the
    output. Ties merge the earliest-created nodes first (leaves are
    created in symbol order), and the merged group takes digits 0..r-1
    in that same order, so the output is deterministic.
    """
    _check_radix(r)
    n = len(src)
    # heap entries are (weight, order, children); order is unique, so ties
    # never compare further, and a childless entry with order < n is a symbol
    heap: list[tuple[Fraction, int, tuple]] = [(p, i, ()) for i, p in enumerate(src.probs)]
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

    words: list[Codeword | None] = [None] * n
    stack = [(heap[0], ())]
    while stack:
        (_, i, children), path = stack.pop()
        if children:
            stack.extend((child, path + (digit,)) for digit, child in enumerate(children))
        elif i < n:
            words[i] = Codeword(path)
    return Code(r, tuple((s, (w,)) for s, w in zip(src.symbols, words)))
