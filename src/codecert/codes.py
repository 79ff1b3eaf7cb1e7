"""r-ary codes, with possibly several codewords per symbol.

A code maps each source symbol to a nonempty set of codewords over the
digit alphabet {0..r-1}. The usual one-codeword-per-symbol case is the
special case card f(s) = 1; the general case needs either an encoding
policy (exact rational choice probabilities per symbol) or an arbitrary
per-step chooser, and then average codeword length comes in three
flavors:

  * acl(src, code)            - expectation sum p_i * l_i (singleton codes)
  * acl(src, code, policy)    - expectation over policy choices too
  * empirical_acl(...)        - the pathwise sequence ACL_t after t symbols

The empty codeword (written '-') is representable; it is only ever
useful as the sole codeword of a one-symbol code, and the
decipherability and tree layers reject it in any other position.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    DigitOutOfRange,
    InvalidRadix,
    MissingPolicy,
    MissingSymbol,
)
from .rng import SplitMix64, _check_seed, derived_seed
from .source import Source, _as_fraction, _check_radix, _cumulative_thresholds, sample_stream

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
            raise ValueError(f"not a codeword: {text!r}")
        return Codeword(tuple(map(int, parts)))

    @property
    def length(self) -> int:
        return len(self.digits)

    def is_prefix_of(self, other: "Codeword") -> bool:
        return other.digits[: len(self.digits)] == self.digits

    def drop_last(self) -> "Codeword":
        return Codeword(self.digits[:-1])

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


def _check_code_radix(radix) -> None:
    if not isinstance(radix, int) or isinstance(radix, bool) or radix < 1:
        raise InvalidRadix(f"radix must be an integer >= 1, got {radix!r}")


def _check_codewords(radix: int, symbol, words: tuple[Codeword, ...]) -> None:
    """The invariants of one symbol's codeword set in a radix-`radix` code."""
    if not words:
        raise ValueError(f"symbol {symbol!r} has an empty codeword set")
    for w in words:
        for d in w.digits:
            if not 0 <= d < radix:
                raise DigitOutOfRange(f"digit {d} >= radix {radix}" if d >= 0 else f"negative digit {d}")
    if len(set(words)) != len(words):
        raise ValueError(f"symbol {symbol!r} repeats a codeword")


@dataclass(frozen=True)
class Code:
    """Radix plus an ordered map from each symbol to its codeword set."""

    radix: int
    mapping: tuple[tuple[Any, tuple[Codeword, ...]], ...]

    def __post_init__(self):
        _check_code_radix(self.radix)
        seen = set()
        for symbol, words in self.mapping:
            if symbol in seen:
                raise ValueError(f"symbol {symbol!r} listed twice")
            seen.add(symbol)
            _check_codewords(self.radix, symbol, words)

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
            raise MissingSymbol(f"code does not cover symbol {symbol!r}") from None

    def covers(self, src: Source) -> bool:
        have = set(self.symbols)
        return all(s in have for s in src.symbols)

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
        raise ValueError(f"empty weight list for {symbol!r}")
    if any(q <= 0 for q in qs):
        raise ValueError(f"weights for {symbol!r} must be strictly positive")
    if sum(qs, Fraction(0)) != 1:
        raise ValueError(f"weights for {symbol!r} must sum to exactly 1")


@dataclass(frozen=True)
class EncodingPolicy:
    """Exact rational choice weights q over each symbol's codeword set."""

    weights: tuple[tuple[Any, tuple[Fraction, ...]], ...]

    def __post_init__(self):
        for symbol, qs in self.weights:
            _check_weights(symbol, qs)

    @cached_property
    def _index(self) -> dict:
        # reversed, so a symbol listed twice keeps its first weights
        return dict(reversed(self.weights))

    def weights_for(self, symbol) -> tuple[Fraction, ...] | None:
        return self._index.get(symbol)


def make_policy(weights: Mapping | Iterable) -> EncodingPolicy:
    items = weights.items() if isinstance(weights, Mapping) else weights
    return EncodingPolicy(tuple((s, tuple(_as_fraction(q) for q in qs)) for s, qs in items))


def is_non_singular(code: Code) -> bool:
    """True iff the image sets f(s_i) are pairwise disjoint."""
    sets = [set(words) for _, words in code.mapping]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
    return True


def kraft_sum(lengths: Iterable[int], r: int) -> Fraction:
    """The exact rational sum of r^(-l) over the length multiset."""
    _check_radix(r)
    counts = Counter(lengths)
    if any(l < 0 for l in counts):
        raise ValueError("codeword lengths are non-negative")
    if not counts:
        return Fraction(0)
    # one integer sum over the common denominator r^top
    top = max(counts)
    return Fraction(sum(k * r ** (top - l) for l, k in counts.items()), r**top)


def _policy_weights(code: Code, policy: EncodingPolicy | None, symbol) -> tuple[Fraction, ...]:
    words = code.codewords(symbol)
    if len(words) == 1:
        return (Fraction(1),)
    if policy is None:
        raise MissingPolicy(f"symbol {symbol!r} has {len(words)} codewords but no policy was given")
    qs = policy.weights_for(symbol)
    if qs is None or len(qs) != len(words):
        raise MissingPolicy(f"policy does not cover symbol {symbol!r} with {len(words)} weights")
    return qs


def acl_exact(src: Source, code: Code, policy: EncodingPolicy | None = None) -> Fraction:
    """Average codeword length as an exact rational."""
    total = Fraction(0)
    for symbol, p in zip(src.symbols, src.probs):
        words = code.codewords(symbol)
        qs = _policy_weights(code, policy, symbol)
        total += p * sum((q * w.length for q, w in zip(qs, words)), Fraction(0))
    return total


def acl(src: Source, code: Code, policy: EncodingPolicy | None = None) -> float:
    """Average codeword length sum p_i l_i (or its policy-weighted form)."""
    return float(acl_exact(src, code, policy))


def minimal_reduction(code: Code) -> Code:
    """Keep one shortest codeword per symbol (ties: least digit sequence).

    The result never has a larger average codeword length than the
    input under any policy, and is idempotent.
    """
    reduced = []
    for symbol, words in code.mapping:
        best = min(words, key=lambda w: (w.length, w.digits))
        reduced.append((symbol, (best,)))
    return Code(code.radix, tuple(reduced))


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one encoding run and its running ACL sequence."""

    source: Source
    code: Code
    symbol_indices: tuple[int, ...]
    codeword_indices: tuple[int, ...]
    acl_values: tuple[float, ...]

    @property
    def t(self) -> int:
        return len(self.symbol_indices)

    def step_lengths(self) -> list[int]:
        """Digits emitted at each step."""
        out = []
        for i, u in zip(self.symbol_indices, self.codeword_indices):
            out.append(self.code.codewords(self.source.symbols[i])[u].length)
        return out

    def frequencies(self, upto: int | None = None) -> dict:
        """Symbol frequency counts f_{i,t} after the first `upto` steps."""
        upto = self.t if upto is None else upto
        counts = {s: 0 for s in self.source.symbols}
        for i in self.symbol_indices[:upto]:
            counts[self.source.symbols[i]] += 1
        return counts


Chooser = Callable[[Any, int, tuple[Codeword, ...]], int]


def empirical_acl(
    src: Source,
    code: Code,
    chooser: EncodingPolicy | Chooser | None,
    t: int,
    seed: int,
) -> SimulationTrace:
    """Encode t sampled symbols, recording the running ACL_t = digits/t.

    `chooser` selects among a symbol's codewords: an EncodingPolicy
    draws per its weights from a choice stream derived from the seed, a
    callable gets (symbol, step-number, codewords) and returns an index,
    and None is allowed for codes with one codeword per symbol.

    The symbol stream depends only on (src, t, seed) -- codeword choices
    consume a separate derived stream -- so traces of different codes or
    choosers on the same seed see the identical symbol sequence.
    """
    if t < 1:
        raise ValueError("simulation needs t >= 1")
    _check_seed(seed)
    if not code.covers(src):
        missing = [s for s in src.symbols if s not in set(code.symbols)]
        raise MissingSymbol(f"code does not cover symbols {missing!r}")

    stream = sample_stream(src, t, seed)
    choice_rng = SplitMix64(derived_seed(seed, _CHOICE_SALT))
    thresholds: dict[Any, tuple[int, list[int]]] = {}  # policy symbol -> (D, bounds)

    sym_idx: list[int] = []
    cw_idx: list[int] = []
    acl_values: list[float] = []
    digits = 0
    for z, symbol in enumerate(stream, start=1):
        words = code.codewords(symbol)
        if len(words) == 1:
            u = 0
        elif isinstance(chooser, EncodingPolicy):
            if symbol not in thresholds:
                thresholds[symbol] = _cumulative_thresholds(_policy_weights(code, chooser, symbol))
            denom, bounds = thresholds[symbol]
            u = bisect_right(bounds, choice_rng.randbelow(denom))
        elif callable(chooser):
            u = chooser(symbol, z, words)
            if not 0 <= u < len(words):
                raise ValueError(f"chooser returned invalid index {u} at step {z}")
        else:
            raise MissingPolicy(
                f"symbol {symbol!r} has {len(words)} codewords; pass a policy or chooser"
            )
        sym_idx.append(src.index_of(symbol))
        cw_idx.append(u)
        digits += words[u].length
        acl_values.append(digits / z)

    return SimulationTrace(src, code, tuple(sym_idx), tuple(cw_idx), tuple(acl_values))
