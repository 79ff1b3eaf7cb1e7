"""Decidability of the code classes: prefix-freeness, unique
decipherability, a brute-force oracle, the Kraft construction, and
Huffman coding.

Unique decipherability means that no digit string has two distinct
decoded *symbol* sequences; with several codewords per symbol, parses
that pick different codewords of the same symbols are one decoding.

  * One engine decides it exactly and finds the shortest, then least,
    ambiguous digit string (the witness): a search over the states of a
    pair of parses on the codeword trie, in the manner of Sardinas and
    Patterson (1953) and Even (1963); its work is set by the code, not by
    a digit budget. Its one entry, ud_counterexample, returns the witness's
    digits, uncapped; it decides a prefix-free or suffix-free code by
    sorting its words and runs the engine on every other code.
  * brute_force_ud is the independent oracle: dynamic programming over
    every digit string up to a length budget.

Convention for the empty codeword: a code whose only codeword is the
empty word is treated as uniquely decipherable (it is the degenerate
one-symbol base case, and it is prefix-free); the empty word next to
any other codeword makes a code undecipherable, since it can be
inserted into a parse any number of times. Both deciders implement the
same convention.
"""

from __future__ import annotations

from typing import Any, Sequence

from .codes import Code, kraft_sum
from .errors import ExactnessCheckFailed, KraftViolated
from .source import Source, _check_count, _check_radix

DEFAULT_UD_BUDGET = 12


def is_prefix_free(code: Code) -> bool:
    """True iff no pooled codeword is a prefix of a distinct pooled codeword.

    Duplicated codewords count as mutual prefixes, and the empty word is
    a prefix of everything, so either of those makes the code not
    prefix-free (unless the empty word is the only codeword).

    In sorted order every word between u and a word that u prefixes also
    starts with u, so checking each word against its successor suffices.
    """
    return _prefix_free(code.pooled())


def _prefix_free(words: list[tuple[int, ...]]) -> bool:
    words.sort()
    return not any(v[: len(u)] == u for u, v in zip(words, words[1:]))


def _check_budget(max_len) -> None:
    _check_count(max_len, 0, "the witness search needs max_len >= 0")


def _trie(code: Code) -> tuple[list[dict[int, int]], list[tuple[int, ...]]]:
    """The codeword trie: node 0 is the root, children[u] maps each digit to
    the next node in ascending digit order (words are inserted sorted), and
    ends[u] lists 1 + the index of every symbol with a codeword ending at u.
    """
    children: list[dict[int, int]] = [{}]
    ends: list[tuple[int, ...]] = [()]
    entries = sorted((w, symbol_id) for symbol_id, (_, words) in enumerate(code.mapping, start=1) for w in words)
    for digits, symbol_id in entries:
        u = 0
        for digit in digits:
            nxt = children[u].get(digit)
            if nxt is None:
                nxt = children[u][digit] = len(children)
                children.append({})
                ends.append(())
            u = nxt
        ends[u] += (symbol_id,)
    return children, ends


def _emit(delay: tuple[int, ...] | None, x: int) -> tuple[int, ...] | None:
    """The delay after one parse emits symbol id |x|: x > 0 for parse 1, x < 0
    for parse 2. A delay holds the ahead parse's pending symbols, signed by
    that parse; None means the decoded sequences have diverged."""
    if delay is None:
        return None
    if not delay or (delay[0] > 0) == (x > 0):
        return delay + (x,)
    return delay[1:] if delay[0] == -x else None


def _shortest_ambiguity(code: Code) -> tuple[int, ...] | None:
    """The shortest, then least, digit string with two distinct decoded symbol
    sequences, as digits, or None when the code is uniquely decipherable.

    Two parses read the same digits on the codeword trie. A state is a node
    pair and a delay: the pair packed as u1 * size + u2 with u1 <= u2, since
    swapping the parses negates the delay and changes nothing else, and the
    delay as an index into the delays met so far. A state accepts when both
    parses end a codeword on the same digit with a nonempty or diverged
    delay.

    The search runs level by level, each state kept once with a parent link
    for the witness. A level is a list of groups of states first reached by
    one string, in string order, and a group's successors are taken digit by
    digit, so the first arrival at a state is its least string and the first
    accepting arrival is the least witness of the least accepting length.

    Only pairs from which both parses can end together (co-accessible) are
    searched. Such a pair reached with two different delays, or a diverged
    one, completes to an ambiguous string (Beal, Carton, Prieur and
    Sakarovitch 2003, squaring of transducers), so on a uniquely decipherable
    code each carries one delay and the search ends. With one codeword per
    symbol, parses that come apart decode differently whatever follows, so
    every nonempty delay is diverged, and the co-accessibility pass, which
    bounds the delays, is skipped.
    """
    pooled = code.pooled()
    if () in pooled:
        # The empty string already decodes as "" and as the empty-word symbol.
        return None if len(pooled) == 1 else ()

    children, ends = _trie(code)
    size = len(children)
    pairs = size * size
    stay = (0,)  # the symbol ids a parse that goes on inside a codeword emits

    def moves(pair: int) -> list:
        """[(digit, [(next pair, swapped, symbol ids parse 1 may emit, the
        same for parse 2), ...]), ...], digits ascending."""
        u1, u2 = divmod(pair, size)
        other = children[u2]
        out = []
        for digit, c1 in children[u1].items():
            c2 = other.get(digit)
            if c2 is None:
                continue
            go1, end1, go2, end2 = children[c1], ends[c1], children[c2], ends[c2]
            succ = []
            if go1 and go2:
                succ.append((c1 * size + c2, False, stay, stay) if c1 <= c2 else (c2 * size + c1, True, stay, stay))
            if end1 and go2:
                succ.append((c2, False, end1, stay))
            if go1 and end2 and c1 != c2:  # at one node this is the move above, swapped
                succ.append((c1, True, stay, end2))
            if end1 and end2:
                succ.append((0, False, end1, end2))
            out.append((digit, succ))
        return out

    singleton = code.is_singleton()
    live = None
    if not singleton:
        # every pair reachable together, then those with a path back to the root pair
        preds: dict[int, list[int]] = {0: []}
        todo = [0]
        while todo:
            pair = todo.pop()
            for _, succ in moves(pair):
                for nxt, _, _, _ in succ:
                    if nxt not in preds:
                        preds[nxt] = []
                        todo.append(nxt)
                    preds[nxt].append(pair)
        live = set()
        todo = [0]
        while todo:
            for pair in preds[todo.pop()]:
                if pair not in live:
                    live.add(pair)
                    todo.append(pair)

    # a state is delay index * pairs + pair; delay 0 is the empty one, 1 diverged
    delays: list[tuple[int, ...] | None] = [(), None]
    delay_index: dict = {(): 0, None: 1}
    parent: dict[int, tuple[int, int] | None] = {0: None}
    level = [[0]]
    while level:
        reached = []
        for group in level:
            by_digit: dict[int, list] = {}
            for state in group:
                for digit, succ in moves(state % pairs):
                    by_digit.setdefault(digit, []).append((state, succ))
            for digit, sources in sorted(by_digit.items()):
                states = []
                for state, succ in sources:
                    index = state // pairs
                    for nxt, swapped, xs, ys in succ:
                        if live is not None and nxt not in live:
                            continue
                        for x in xs:
                            for y in ys:
                                if singleton:
                                    new_index = index if x == y else 1
                                else:
                                    delay = _emit(delays[index], x) if x else delays[index]
                                    delay = _emit(delay, -y) if y else delay
                                    if swapped and delay:
                                        delay = tuple(-z for z in delay)
                                    new_index = delay_index.setdefault(delay, len(delays))
                                    if new_index == len(delays):
                                        delays.append(delay)
                                new = new_index * pairs + nxt
                                if new in parent:
                                    continue
                                parent[new] = (state, digit)
                                if nxt == 0:  # both parses ended; the start state is seen
                                    digits = []
                                    while new:
                                        new, digit = parent[new]
                                        digits.append(digit)
                                    return tuple(reversed(digits))
                                states.append(new)
                if states:
                    reached.append(states)
        level = reached
    return None


def is_uniquely_decipherable(code: Code) -> bool:
    """True iff no digit string has two distinct decoded symbol sequences."""
    return ud_counterexample(code) is None


def ud_counterexample(code: Code) -> tuple[int, ...] | None:
    """The shortest, then least, digit string with two distinct decodings, as
    digits, or None iff the code is uniquely decipherable. A prefix-free or
    suffix-free word list splits a digit string into words one way at most,
    read left to right or right to left, so such a code skips the engine."""
    words = code.pooled()
    if _prefix_free(words) or _prefix_free([w[::-1] for w in words]):
        return None
    return _shortest_ambiguity(code)


def brute_force_ud(code: Code, max_len: int = DEFAULT_UD_BUDGET) -> bool:
    """True iff every digit string of length <= max_len decodes at most one way.

    The independent oracle: dynamic programming over digit strings, one
    level per length, sharing nothing with the automaton but the empty-word
    convention. Each string maps to the id of its one decoded symbol
    sequence, or to an ambiguous mark once a second, different sequence
    reaches it. Ids are interned from (parent id, symbol), so two parses
    that pick different codewords of the same symbols are one decoding.
    """
    _check_budget(max_len)
    pooled = code.pooled()
    if () in pooled:
        return len(pooled) == 1

    transitions = [
        ("".join(map(chr, w)), len(w), symbol)
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
        if AMBIGUOUS in current.values():
            return False
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
    return True


def construct_instantaneous(lengths: Sequence[int], r: int) -> Code:
    """Kraft's constructive direction: a canonical prefix-free code with
    exactly the requested lengths, on the symbols s1..sn.

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

    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    words = dict(zip(order, _canonical_paths(sorted(lengths), r)[0]))
    return Code._built(r, tuple((f"s{i + 1}", (words[i],)) for i in range(len(lengths))))


def _canonical_paths(lengths: Sequence[int], r: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The canonical words of ascending lengths, which come out in digit
    order, and the depth at which each two neighbouring words part.

    The first word is all zeros and each next one is the successor of the
    one before, padded with zeros; the two part at the digit the successor
    raises. Lengths within the Kraft bound keep every carry inside the
    word; a carry out of it raises ExactnessCheckFailed, since callers
    have checked the bound or know it from decipherability.
    """
    paths: list[tuple[int, ...]] = []
    parts: list[int] = []
    digits: list[int] = []  # the previous word
    for length in lengths:
        if paths:
            j = len(digits) - 1
            while j >= 0 and digits[j] == r - 1:
                digits[j] = 0
                j -= 1
            if j < 0:
                raise ExactnessCheckFailed("canonical words ran out: the lengths exceed the Kraft bound")
            digits[j] += 1
            parts.append(j)
        digits.extend([0] * (length - len(digits)))
        paths.append(tuple(digits))
    return paths, parts


def huffman(src: Source, r: int) -> Code:
    """Huffman's minimum-redundancy instantaneous code for the source.

    For r > 2, pad = (1 - n) mod (r-1) zero-weight placeholders would fill
    digits 0..pad-1 of the first merge, so it takes r - pad nodes from digit
    pad instead and the cost does not grow with r. Ties merge the earliest-
    created nodes first (leaves in symbol order), and a merged group takes
    its digits in that same order, so the output is deterministic.

    Integer masses are merged with the two queues of van Leeuwen (1976):
    leaves sorted once by (mass, order), and merged nodes in creation
    order, whose masses never decrease. Taking the lower (mass, order)
    head is the order a heap would pop, in linear time after the sort.
    """
    _check_radix(r)
    n = len(src)
    pad = (1 - n) % (r - 1)  # n + pad = 1 mod (r-1)
    # node k is symbol k for k < n, else merged node k - n; orders are creation orders
    mass = list(src.masses)
    leaves = sorted(range(n), key=mass.__getitem__)
    groups: list[list[int]] = []
    i = j = 0  # heads of the leaf queue and of the merged queue
    size = r - pad  # real nodes in the first merge
    for _ in range((n + pad - 1) // (r - 1)):
        group = []
        for _ in range(size):
            # on equal masses the leaf is older, so the leaf queue wins ties
            if j < len(groups) and (i == len(leaves) or mass[n + j] < mass[leaves[i]]):
                group.append(n + j)
                j += 1
            else:
                group.append(leaves[i])
                i += 1
        mass.append(sum(map(mass.__getitem__, group)))
        groups.append(group)
        size = r

    # a merged node is made before its parent: from the root down, parents first
    words: list[tuple[int, ...]] = [()] * len(mass)
    for k in reversed(range(n, len(mass))):
        for digit, child in enumerate(groups[k - n], pad if k == n else 0):
            words[child] = words[k] + (digit,)
    return Code._built(r, tuple((s, (w,)) for s, w in zip(src.symbols, words)))
