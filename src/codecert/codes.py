"""r-ary codes, with possibly several codewords per symbol.

A code maps each source symbol to a nonempty set of codewords over the
digit alphabet {0..r-1}. A codeword is the tuple of its int digits, the
form every layer builds and reads; parse_codeword and format_codeword
are the one place that knows its text (`0110`, `3.11`, `-`). The usual
one-codeword-per-symbol case is the special case card f(s) = 1; the
general case needs an encoding policy (exact rational choice
probabilities per symbol), and then average codeword length comes in
three flavors:

  * acl(src, code)            - expectation sum p_i * l_i (singleton codes)
  * acl(src, code, policy)    - expectation over policy choices too
  * empirical_acl(...)        - ACL_t after t sampled symbols

empirical_acl is the one stream reduction, the one simulate prints: it
sums the digits of each chunk of _encode_chunks before it encodes the next
chunk, so it keeps no step.
_encode_chunks encodes the stream 2^14 steps at a time and gives each step
a codeword id, one number per codeword of the code. A symbol
with one codeword reads no choice bits, so its steps take their id in one
map over the chunk. The other steps run one loop that reads rejection
windows from rng.word_stream and looks each up in its symbol's window
table: each step's choice is the value a randbelow call on the choice
stream's SplitMix64 would give, with no method call per step.

Exact ACL is computed on the source's integer masses m_i over its
denominator D and returned as a Fraction, the API view.

A Code walks its entries with the entry validator that Source uses, unless
a package builder made it valid (`Code._built`): the symbols are distinct,
and each codeword set is a nonempty tuple of distinct digit tuples, the
digits ints below the radix. The walk names the first entry at fault. An
EncodingPolicy runs the same walk over each symbol's weights.

The empty codeword (written '-') is representable; it is only ever
useful as the sole codeword of a one-symbol code, and the
decipherability and tree layers reject it in any other position.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from numbers import Rational
from typing import Any, Iterable, Iterator, Mapping

from .errors import DigitOutOfRange, MissingPolicy, MissingSymbol
from .rng import _check_seed, derived_seed, word_stream
from .source import MAX_DENOMINATOR_BITS, Source, _index_chunks
from .source import _as_fraction, _check_entries, _check_numeral, _check_radix, _check_stream_length, _fraction_masses, _quote, _quote_list

#: Salt separating the codeword-choice stream from the symbol stream, so
#: the symbol sequence of a simulation depends only on (source, t, seed).
_CHOICE_SALT = 0xC0DE00C4015E


#: bytes.translate tables from the ASCII digit characters to the digits 0..9, and back
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def parse_codeword(text: str) -> tuple[int, ...]:
    """The digits of a codeword's text: '-' is the empty word, '0110' one
    digit per character, and '3.11' or '10.' dot-separated digits."""
    if text.isascii() and text.isdigit():  # each character is one digit
        return tuple(text.encode().translate(_DIGIT_VALUES))
    if text == "-":
        return ()
    parts = text.removesuffix(".").split(".")
    if "." not in text or not text.isascii() or not all(map(str.isdigit, parts)):
        raise ValueError(f"not a codeword: {_quote(text)}")
    for part in parts:  # each dotted digit is a numeral
        _check_numeral(part)
    return tuple(map(int, parts))


def format_codeword(digits: tuple[int, ...]) -> str:
    """The text parse_codeword reads back as these digits."""
    if not digits:
        return "-"
    if max(digits) <= 9:
        return bytes(digits).translate(_DIGIT_CHARS).decode()
    # a trailing dot keeps the one-digit word (10,) apart from '10' = (1, 0)
    return ".".join(map(str, digits)) + ("." if len(digits) == 1 else "")


def _check_codewords(radix: int, symbol, words) -> None:
    """The invariants of one symbol's codeword set: a nonempty tuple of
    tuples of int digits in 0..radix-1, with no repeat."""
    if type(words) is not tuple:
        raise DigitOutOfRange(f"codewords {_quote(words)} of {_quote(symbol)} are not a tuple of codewords")
    for w in words:
        if type(w) is not tuple:
            raise DigitOutOfRange(f"codeword {_quote(w)} of {_quote(symbol)} is not a tuple of digits")
        for d in w:
            if type(d) is not int:
                raise DigitOutOfRange(f"digit {_quote(d)} is not an int")
            if not 0 <= d < radix:
                raise DigitOutOfRange(f"digit {d} >= radix {radix}" if d >= 0 else f"negative digit {d}")
    if not words:
        raise ValueError(f"symbol {_quote(symbol)} has an empty codeword set")
    if len(words) > 1 and len(set(words)) != len(words):
        raise ValueError(f"symbol {_quote(symbol)} repeats a codeword")


@dataclass(frozen=True)
class Code:
    """Radix plus an ordered map from each symbol to its codeword set."""

    radix: int
    mapping: tuple[tuple[Any, tuple[tuple[int, ...], ...]], ...]

    def __post_init__(self):
        _check_radix(self.radix, 1)
        _check_entries(self.mapping, partial(_check_codewords, self.radix))

    @classmethod
    def _built(cls, radix: int, mapping: tuple) -> Code:
        """A Code whose fields a package builder made valid, set with no check."""
        code = object.__new__(cls)
        vars(code).update(radix=radix, mapping=mapping)
        return code

    @cached_property
    def _index(self) -> dict:
        return dict(self.mapping)

    @property
    def symbols(self) -> tuple:
        return tuple(s for s, _ in self.mapping)

    def codewords(self, symbol) -> tuple[tuple[int, ...], ...]:
        try:
            return self._index[symbol]
        except KeyError:
            raise MissingSymbol(f"code does not cover symbol {_quote(symbol)}") from None

    def pooled(self) -> list[tuple[int, ...]]:
        """All codewords across all symbols, in mapping order (may repeat)."""
        return [w for _, words in self.mapping for w in words]

    def is_singleton(self) -> bool:
        return all(len(words) == 1 for _, words in self.mapping)

    def lengths(self) -> list[int]:
        """Length multiset of the pooled codewords, in mapping order."""
        return list(map(len, self.pooled()))


def make_code(radix: int, mapping: Mapping | Iterable) -> Code:
    """Build a Code from {symbol: codeword-or-list-of-codewords}.

    A str is one codeword, in the text parse_codeword reads ('10', '-'
    for the empty word); any other value is a list of codewords, each
    such a text or a sequence of digits. Anything else is left for Code
    to refuse.
    """
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    out = []
    for symbol, words in items:
        if isinstance(words, str):
            words = [words]
        out.append((symbol, tuple(map(_as_word, words)) if isinstance(words, Iterable) else words))
    return Code(radix, tuple(out))


def _as_word(w):
    """A codeword given as its text or as a sequence of digits, as a digit tuple."""
    return parse_codeword(w) if isinstance(w, str) else tuple(w) if isinstance(w, Iterable) else w


def _check_weights(symbol, qs: tuple[Fraction, ...]) -> None:
    """The invariants of one symbol's choice weights in an EncodingPolicy."""
    if not qs:
        raise ValueError(f"empty weight list for {_quote(symbol)}")
    for q in qs:
        if isinstance(q, (float, bool)):  # refused as make_source refuses it
            _as_fraction(q)
        if not isinstance(q, Rational):
            raise ValueError(f"weights for {_quote(symbol)} must be rationals, got {_quote(q)}")
    if any(q <= 0 for q in qs):
        raise ValueError(f"weights for {_quote(symbol)} must be strictly positive")
    if sum(qs, Fraction(0)) != 1:
        raise ValueError(f"weights for {_quote(symbol)} must sum to exactly 1")


@dataclass(frozen=True)
class EncodingPolicy:
    """Exact rational choice weights q over each symbol's codeword set."""

    weights: tuple[tuple[Any, tuple[Fraction, ...]], ...]

    def __post_init__(self):
        _check_entries(self.weights, _check_weights)

    @cached_property
    def _index(self) -> dict:
        return dict(self.weights)

    def weights_for(self, symbol) -> tuple[Fraction, ...] | None:
        return self._index.get(symbol)


def make_policy(weights: Mapping | Iterable) -> EncodingPolicy:
    items = weights.items() if isinstance(weights, Mapping) else weights
    return EncodingPolicy(tuple((s, tuple(_as_fraction(q) for q in qs)) for s, qs in items))


def kraft_sum(lengths: Iterable[int], r: int) -> Fraction:
    """The exact rational sum of r^(-l) over the length multiset.

    Radix 1 is admitted: every term is 1, so the sum counts the lengths.
    A common denominator r^max(length) above 2^MAX_DENOMINATOR_BITS is refused
    before it is built.
    """
    _check_radix(r, 1)
    lengths = list(lengths)
    if not set(map(type, lengths)) <= {int}:
        bad = next(l for l in lengths if type(l) is not int)
        raise ValueError(f"codeword length {_quote(bad)} is not an int")
    counts = Counter(lengths)
    if any(l < 0 for l in counts):
        raise ValueError("codeword lengths are non-negative")
    if not counts:
        return Fraction(0)
    # one integer sum over the common denominator r^top
    top = max(counts)
    # r^top has about top*log2(r) bits; top > MAX_DENOMINATOR_BITS decides first
    # for a length too large to multiply as a float
    if r > 1 and (top > MAX_DENOMINATOR_BITS or top * math.log2(r) > MAX_DENOMINATOR_BITS):
        raise ValueError(f"the Kraft sum's denominator r^max(length) would exceed 2^{MAX_DENOMINATOR_BITS:,}")
    return Fraction(sum(k * r ** (top - l) for l, k in counts.items()), r**top)


def _policy_weights(policy: EncodingPolicy | None, symbol, words: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """The policy's weights over a symbol with several codewords."""
    if policy is None:
        raise MissingPolicy(f"symbol {_quote(symbol)} has {len(words)} codewords but no policy was given")
    qs = policy.weights_for(symbol)
    if qs is None or len(qs) != len(words):
        raise MissingPolicy(f"policy does not cover symbol {_quote(symbol)} with {len(words)} weights")
    return qs


def _covering(src: Source, code: Code) -> list[tuple[tuple[int, ...], ...]]:
    """Each source symbol's codeword set, in source order; a code that lacks
    source symbols raises one MissingSymbol naming them (a bounded list)."""
    words_of = list(map(code._index.get, src.symbols))
    if None in words_of:
        missing = [s for s, words in zip(src.symbols, words_of) if words is None]
        raise MissingSymbol(f"code does not cover symbols {_quote_list(missing)}")
    return words_of


def acl_exact(src: Source, code: Code, policy: EncodingPolicy | None = None) -> Fraction:
    """Average codeword length as an exact rational: sum m_i * l_i / D."""
    total = 0  # an int until a symbol with several codewords adds a Fraction
    for symbol, m, words in zip(src.symbols, src.masses, _covering(src, code)):
        if len(words) == 1:
            total += m * len(words[0])
        else:
            qs = _policy_weights(policy, symbol, words)
            total += m * sum(q * len(w) for q, w in zip(qs, words))
    return Fraction(total, src.denominator)


def acl(src: Source, code: Code, policy: EncodingPolicy | None = None) -> float:
    """Average codeword length sum p_i l_i (or its policy-weighted form)."""
    return float(acl_exact(src, code, policy))


def minimal_reduction(code: Code) -> Code:
    """Keep one shortest codeword per symbol (ties: least digit sequence).

    The result never has a larger average codeword length than the
    input under any policy, and is idempotent: a code that already has
    one codeword per symbol is returned as it is.
    """
    if code.is_singleton():
        return code
    shortest = partial(min, key=lambda w: (len(w), w))
    return Code._built(code.radix, tuple((symbol, (shortest(words),)) for symbol, words in code.mapping))


@dataclass(frozen=True)
class SimulationSummary:
    """One encoding run of t steps reduced to the digits it emitted."""

    t: int
    digits: int

    @property
    def acl_t(self) -> float:
        """ACL_t = (digits of the t steps) / t."""
        return self.digits / self.t


def empirical_acl(
    src: Source,
    code: Code,
    policy: EncodingPolicy | None,
    t: int,
    seed: int,
) -> SimulationSummary:
    """Encode t sampled symbols and reduce the run to its SimulationSummary,
    a chunk of _encode_chunks at a time, so memory does not grow with t.

    A symbol with several codewords is encoded by drawing one per the
    policy's weights, from a choice stream derived from the seed; None is
    allowed for codes with one codeword per symbol, and otherwise raises
    MissingPolicy, before any draw, at the first such symbol in source order,
    as acl_exact does.

    The symbol stream depends only on (src, t, seed) -- codeword choices
    consume a separate derived stream -- so runs of different codes or
    policies on the same seed see the identical symbol sequence, and the run
    of t steps is the first t steps of any longer run.
    """
    words_of = _covering(src, code)
    length_of = [len(w) for words in words_of for w in words]  # per codeword id
    digits = 0
    for _, ids in _encode_chunks(src, words_of, policy, t, seed):
        digits += sum(map(length_of.__getitem__, ids))
    return SimulationSummary(t, digits)


def _encode_chunks(
    src: Source, words_of: list[tuple[tuple[int, ...], ...]], policy: EncodingPolicy | None, t: int, seed: int
) -> Iterator[tuple[list[int], list[int]]]:
    """The steps of empirical_acl(src, code, policy, t, seed), in chunks of up
    to rng._CHUNK: each chunk's symbol indices and each step's codeword id.

    Codeword ids number the codewords of words_of = _covering(src, code) in
    one flat sequence: symbol i's u-th codeword has id first[i] + u. A step
    whose symbol has one codeword takes first[i], in one map over the chunk;
    the steps of the others run the one loop that reads choice windows. Each
    such symbol's window table, built in source order before the first draw,
    maps a window below D to its codeword's id and one at or above D to None,
    which takes the next.
    """
    _check_stream_length(t, 1, "simulation needs t >= 1")
    _check_seed(seed)
    first = list(itertools.accumulate(map(len, words_of), initial=0))
    # (k, k-bit mask, window table) of each symbol with several codewords, None of the others
    windows = [
        _window_table(_policy_weights(policy, symbol, words), start) if len(words) > 1 else None
        for symbol, words, start in zip(src.symbols, words_of, first)
    ]
    stream = word_stream(derived_seed(seed, _CHOICE_SALT))
    buffer = buffered = 0  # the stream's unread bits, little-endian
    for symbol_indices in _index_chunks(src, t, seed):
        ids = list(map(first.__getitem__, symbol_indices))
        for step in itertools.compress(itertools.count(), map(windows.__getitem__, symbol_indices)):
            k, mask, table = windows[symbol_indices[step]]
            while True:  # randbelow(D): k-bit attempts until one is below D
                while buffered < k:
                    buffer |= next(stream) << buffered
                    buffered += 64
                chosen = table[buffer & mask]
                buffer >>= k
                buffered -= k
                if chosen is not None:
                    break
            ids[step] = chosen
        yield symbol_indices, ids


#: Widest window whose table _window_table lists, in at most 2^8 slots; a wider one bisects.
_LISTED_WINDOW_BITS = 8


def _window_table(qs: tuple[Fraction, ...], first: int) -> tuple[int, int, list[int | None] | _BisectedWindows]:
    """(k, k-bit mask, window table) of a choice over weights qs whose codeword
    ids start at first: window x < D picks the codeword whose cumulative mass
    run over D holds x, and x >= D none."""
    masses, denom = _fraction_masses(qs)
    k = (denom - 1).bit_length()
    if k > _LISTED_WINDOW_BITS:
        return k, (1 << k) - 1, _BisectedWindows(list(itertools.accumulate(masses)), first)
    runs = itertools.chain.from_iterable([first + u] * m for u, m in enumerate(masses))
    return k, (1 << k) - 1, [*runs, *[None] * ((1 << k) - denom)]


class _BisectedWindows:
    """A window table too long to list: the id of window x's codeword, found
    by bisecting the cumulative masses, or None at and above D."""

    __slots__ = ("cumulative", "first")

    def __init__(self, cumulative: list[int], first: int):
        self.cumulative, self.first = cumulative, first

    def __getitem__(self, x: int) -> int | None:
        return self.first + bisect_right(self.cumulative, x) if x < self.cumulative[-1] else None
