"""r-ary codes, with possibly several codewords per symbol.

A code maps each source symbol to a nonempty set of codewords over the
digit alphabet {0..r-1}. The usual one-codeword-per-symbol case is the
special case card f(s) = 1; the general case needs an encoding policy
(exact rational choice probabilities per symbol), and then average
codeword length comes in three flavors:

  * acl(src, code)            - expectation sum p_i * l_i (singleton codes)
  * acl(src, code, policy)    - expectation over policy choices too
  * empirical_acl(...)        - the pathwise sequence ACL_t after t symbols

Exact ACL is computed on the source's integer masses m_i over its
denominator D and returned as a Fraction, the API view.

A Code checks each symbol's codeword set, and an EncodingPolicy each
symbol's weights, once, through the entry validator that Source uses.

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
from operator import truediv
from typing import Any, Iterable, Mapping

from .errors import DigitOutOfRange, MissingPolicy, MissingSymbol
from .rng import SplitMix64, _check_seed, derived_seed
from .source import MAX_DENOMINATOR_BITS, Source, sample_stream
from .source import _as_fraction, _check_entries, _check_numeral, _check_radix, _integer_masses, _quote, _quote_list

#: Salt separating the codeword-choice stream from the symbol stream, so
#: the symbol sequence of a simulation depends only on (source, t, seed).
_CHOICE_SALT = 0xC0DE00C4015E


@dataclass(frozen=True, order=True)
class Codeword:
    """A finite digit string over {0..r-1}; the empty word has length 0."""

    digits: tuple[int, ...]

    @staticmethod
    def parse(text: str) -> "Codeword":
        """Parse the text `str` writes: '-' is the empty word, '0110' one
        digit per character, and '3.11' or '10.' dot-separated digits."""
        if text == "-":
            return Codeword(())
        # without a dot, each character is one digit
        parts = text.removesuffix(".").split(".") if "." in text else text
        if not parts or not text.isascii() or not all(map(str.isdigit, parts)):
            raise ValueError(f"not a codeword: {_quote(text)}")
        if "." in text:  # each dotted digit is a numeral
            for part in parts:
                _check_numeral(part)
        return Codeword(tuple(map(int, parts)))

    @property
    def length(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if not self.digits:
            return "-"
        if max(self.digits) <= 9:
            return "".join(str(d) for d in self.digits)
        # a trailing dot keeps the one-digit word (10,) apart from '10' = (1, 0)
        text = ".".join(str(d) for d in self.digits)
        return text + "." if len(self.digits) == 1 else text


def _as_codeword(value) -> Codeword:
    if isinstance(value, Codeword):
        return value
    if isinstance(value, str):
        return Codeword.parse(value)
    return Codeword(tuple(value))


def _check_codewords(radix: int, symbol, words: tuple[Codeword, ...]) -> None:
    """The invariants of one symbol's codeword set in a radix-`radix` code."""
    if not words:
        raise ValueError(f"symbol {_quote(symbol)} has an empty codeword set")
    for w in words:
        if w.digits and not (0 <= min(w.digits) and max(w.digits) < radix):
            d = next(d for d in w.digits if not 0 <= d < radix)
            raise DigitOutOfRange(f"digit {d} >= radix {radix}" if d >= 0 else f"negative digit {d}")
    if len(words) > 1 and len(set(words)) != len(words):
        raise ValueError(f"symbol {_quote(symbol)} repeats a codeword")


@dataclass(frozen=True)
class Code:
    """Radix plus an ordered map from each symbol to its codeword set."""

    radix: int
    mapping: tuple[tuple[Any, tuple[Codeword, ...]], ...]

    def __post_init__(self):
        _check_radix(self.radix, 1)
        _check_entries(self.mapping, partial(_check_codewords, self.radix))

    @cached_property
    def _index(self) -> dict:
        return dict(self.mapping)

    @property
    def symbols(self) -> tuple:
        return tuple(s for s, _ in self.mapping)

    def codewords(self, symbol) -> tuple[Codeword, ...]:
        try:
            return self._index[symbol]
        except KeyError:
            raise MissingSymbol(f"code does not cover symbol {_quote(symbol)}") from None

    def pooled(self) -> list[Codeword]:
        """All codewords across all symbols, in mapping order (may repeat)."""
        return [w for _, words in self.mapping for w in words]

    def is_singleton(self) -> bool:
        return all(len(words) == 1 for _, words in self.mapping)

    def lengths(self) -> list[int]:
        """Length multiset of the pooled codewords, in mapping order."""
        return [w.length for w in self.pooled()]


def make_code(radix: int, mapping: Mapping | Iterable) -> Code:
    """Build a Code from {symbol: codeword-or-list-of-codewords}.

    Codewords may be given as digit strings ('10', '-' for the empty
    word), digit tuples, or Codeword values.
    """
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    out = []
    for symbol, words in items:
        if isinstance(words, (str, Codeword)):
            words = [words]
        out.append((symbol, tuple(_as_codeword(w) for w in words)))
    return Code(radix, tuple(out))


def _check_weights(symbol, qs: tuple[Fraction, ...]) -> None:
    """The invariants of one symbol's choice weights in an EncodingPolicy."""
    if not qs:
        raise ValueError(f"empty weight list for {_quote(symbol)}")
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


def is_non_singular(code: Code) -> bool:
    """True iff the image sets f(s_i) are pairwise disjoint.

    A symbol never repeats a codeword, so the sets are disjoint exactly
    when no codeword occurs twice in the pooled list.
    """
    pooled = code.pooled()
    return len(set(pooled)) == len(pooled)


def kraft_sum(lengths: Iterable[int], r: int) -> Fraction:
    """The exact rational sum of r^(-l) over the length multiset.

    Radix 1 is admitted: every term is 1, so the sum counts the lengths.
    A common denominator r^max(length) above 2^MAX_DENOMINATOR_BITS is refused
    before it is built.
    """
    _check_radix(r, 1)
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


def _policy_weights(policy: EncodingPolicy | None, symbol, words: tuple[Codeword, ...]) -> tuple[Fraction, ...]:
    """The policy's weights over a symbol with several codewords."""
    if policy is None:
        raise MissingPolicy(f"symbol {_quote(symbol)} has {len(words)} codewords but no policy was given")
    qs = policy.weights_for(symbol)
    if qs is None or len(qs) != len(words):
        raise MissingPolicy(f"policy does not cover symbol {_quote(symbol)} with {len(words)} weights")
    return qs


def _covering(src: Source, code: Code) -> list[tuple[Codeword, ...]]:
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
            total += m * words[0].length
        else:
            qs = _policy_weights(policy, symbol, words)
            total += m * sum(q * w.length for q, w in zip(qs, words))
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
    reduced = []
    for symbol, words in code.mapping:
        best = min(words, key=lambda w: (w.length, w.digits))
        reduced.append((symbol, (best,)))
    return Code(code.radix, tuple(reduced))


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one encoding run: the symbol drawn, the codeword
    emitted, its digits, and the running ACL sequence."""

    symbol_indices: tuple[int, ...]
    codeword_indices: tuple[int, ...]
    lengths: tuple[int, ...]
    acl_values: tuple[float, ...]


def empirical_acl(
    src: Source,
    code: Code,
    policy: EncodingPolicy | None,
    t: int,
    seed: int,
) -> SimulationTrace:
    """Encode t sampled symbols, recording the running ACL_t = digits/t.

    A symbol with several codewords is encoded by drawing one per the
    policy's weights, from a choice stream derived from the seed; None is
    allowed for codes with one codeword per symbol, and otherwise raises
    MissingPolicy at the first such symbol drawn.

    The symbol stream depends only on (src, t, seed) -- codeword choices
    consume a separate derived stream -- so traces of different codes or
    policies on the same seed see the identical symbol sequence.
    """
    if t < 1:
        raise ValueError("simulation needs t >= 1")
    _check_seed(seed)
    words_of = _covering(src, code)
    sym_idx = list(map(src._index.__getitem__, sample_stream(src, t, seed)))
    # (D, cumulative masses) of each symbol with several codewords, built in
    # first-draw order so that the first such symbol drawn raises MissingPolicy
    thresholds: list[tuple[int, list[int]] | None] = [None] * len(words_of)
    for i in dict.fromkeys(sym_idx):
        if len(words_of[i]) > 1:
            denom, masses = _integer_masses(_policy_weights(policy, src.symbols[i], words_of[i]))
            thresholds[i] = denom, list(itertools.accumulate(masses))
    randbelow = SplitMix64(derived_seed(seed, _CHOICE_SALT)).randbelow
    cw_idx = [bisect_right(th[1], randbelow(th[0])) if (th := thresholds[i]) else 0 for i in sym_idx]
    word_lengths = [[w.length for w in words] for words in words_of]
    lengths = [word_lengths[i][u] for i, u in zip(sym_idx, cw_idx)]
    acl_values = map(truediv, itertools.accumulate(lengths), range(1, t + 1))

    return SimulationTrace(tuple(sym_idx), tuple(cw_idx), tuple(lengths), tuple(acl_values))
