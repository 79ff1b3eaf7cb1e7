"""Finite stationary memoryless sources.

A source is an ordered alphabet together with an exact rational
probability for each symbol. Validation derives the one internal form
of probability mass: a common denominator D = lcm of the denominators
and integer masses m_i = p_i*D, which sum to exactly D. Every exact
computation (ACL, Huffman merges, merge-chain masses, the equality
test, sampling) runs on these integers; `probs` is the Fraction view of
the same values for the API. Only entropy and the per-merge defects are
floating-point surfaces, and they read m/D, which rounds exactly as
float(Fraction) does. Exactness is what lets the proof engine decide
the equality case p_i = r^(-l_i) with no tolerance at all.

Every symbol table (Source, Code, EncodingPolicy) checks each entry once,
through `_check_entries`, which also rejects a symbol listed twice.

Sampling is deterministic: a seed is an integer in [0, 2^64) that keys
a splitmix64 stream (see codecert.rng), so a stream is reproducible from
the seed alone.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Any, Callable, Iterable, Sequence

from .errors import (
    CodecertError,
    DuplicateSymbol,
    ExtensionTooLarge,
    InvalidRadix,
    ProbabilitySumNotOne,
    ZeroOrNegativeProbability,
)
from .rng import SplitMix64, _check_seed

#: Seed used by reproducibility-sensitive tests and documentation.
REFERENCE_SEED = 1

#: Default cap on the alphabet size a source extension may produce.
DEFAULT_EXTENSION_CAP = 10**6

#: Most digits a numeral may have: Python's default limit on int/str
#: conversion, which `cli.main` lifts so that long exact results print.
MAX_NUMERAL_DIGITS = 4300


def _check_numeral(text: str) -> None:
    """Reject, before it is converted, a numeral (or either side of 'a/b')
    written with more than MAX_NUMERAL_DIGITS digits, an exponent counting
    as that many zeros.

    Converting such text takes time quadratic in its length; the error
    gives the count, not the digits.
    """
    if len(text) <= MAX_NUMERAL_DIGITS and "e" not in text and "E" not in text:
        return
    for numeral in text.split("/"):
        mantissa, e, exponent = numeral.lower().partition("e")
        digits = sum(map(str.isdigit, mantissa))
        if e and exponent.lstrip("+-").isdigit():
            exponent = exponent.lstrip("+-").lstrip("0")
            if len(exponent) > 9:
                raise ValueError(
                    f"numeral with a {len(exponent):,}-digit exponent exceeds the limit of {MAX_NUMERAL_DIGITS:,} digits"
                )
            digits += int(exponent or 0)
        if digits > MAX_NUMERAL_DIGITS:
            raise ValueError(f"numeral of {digits:,} digits exceeds the limit of {MAX_NUMERAL_DIGITS:,}")


#: Longest text an error message quotes in full; longer text is shown as
#: its first MAX_QUOTED_CHARS characters and its length.
MAX_QUOTED_CHARS = 40


def _quote(text: str) -> str:
    """repr(text) for an error message about text from outside the program,
    cut to a prefix and the length when it is long, so an error stays one
    short line whatever the input."""
    if len(text) <= MAX_QUOTED_CHARS:
        return repr(text)
    return f"{text[:MAX_QUOTED_CHARS]!r}... ({len(text):,} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b', an integer, or a finite decimal into an exact Fraction.

    Decimal text is converted exactly ('0.25' -> 1/4), never through a
    binary float. Digits are ASCII, without '_' (Fraction accepts both),
    and each numeral has at most MAX_NUMERAL_DIGITS of them.
    """
    if text.isascii():
        # 'a/b' and 'a' in plain digits skip Fraction's regular expression
        num, slash, den = text.partition("/")
        if num.isdigit() and (not slash or den.isdigit() and den.strip("0")):
            if len(text) > MAX_NUMERAL_DIGITS:
                _check_numeral(text)
            return Fraction(int(num), int(den) if slash else 1)
        if "_" not in text:
            _check_numeral(text)
            try:
                return Fraction(text.strip())
            except (ValueError, ZeroDivisionError):
                pass
    raise ValueError(f"not a rational number: {_quote(text)}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise ZeroOrNegativeProbability(
            f"float probability {value!r} rejected: pass a Fraction or a string "
            f"like '3/10' so the value stays exact"
        )
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def _check_entries(entries: Iterable[tuple[Any, Any]], check: Callable[[Any, Any], None]) -> None:
    """Validate a symbol table's (symbol, value) entries in order: a repeated
    symbol raises DuplicateSymbol, and an error of the table's own
    `check(symbol, value)` carries the entry's position as `.entry`."""
    seen = set()
    for symbol, value in entries:
        if symbol in seen:
            raise DuplicateSymbol(f"symbol {symbol!r} listed twice")
        seen.add(symbol)
        try:
            check(symbol, value)
        except (CodecertError, ValueError) as e:
            e.entry = len(seen) - 1  # the symbols so far are distinct
            raise


def _check_probability(symbol, p: Fraction) -> None:
    """The invariant of one symbol's probability in a Source."""
    if not isinstance(p, Rational):
        raise ZeroOrNegativeProbability(f"p({symbol!r}) = {p!r} is not an exact rational")
    if p.numerator <= 0:  # the denominator of a Rational is positive
        raise ZeroOrNegativeProbability(f"p({symbol!r}) = {p} is not strictly positive")


def _integer_masses(probs: Sequence[Rational]) -> tuple[int, tuple[int, ...]]:
    """The common denominator D = lcm of the denominators and the integer
    masses m_i = probs[i]*D, so probs[i] == Fraction(m_i, D) exactly."""
    denom = math.lcm(*(p.denominator for p in probs))
    return denom, tuple(p.numerator * (denom // p.denominator) for p in probs)


@dataclass(frozen=True)
class Source:
    """An ordered alphabet with exact, strictly positive probabilities summing to 1.

    Validation derives the integer masses[i] = probs[i] * denominator.
    """

    symbols: tuple[Any, ...]
    probs: tuple[Fraction, ...]
    denominator: int = field(init=False, repr=False, compare=False)
    masses: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("a source needs at least one symbol")
        if len(self.symbols) != len(self.probs):
            raise ValueError("symbols and probs must have equal length")
        _check_entries(zip(self.symbols, self.probs), _check_probability)
        denom, masses = _integer_masses(self.probs)
        total = sum(masses)
        if total != denom:
            raise ProbabilitySumNotOne(f"probabilities sum to {Fraction(total, denom)}, not 1")
        object.__setattr__(self, "denominator", denom)
        object.__setattr__(self, "masses", masses)

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def prob_of(self, symbol) -> Fraction:
        try:
            return self.probs[self._index[symbol]]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in source") from None


def make_source(symbols: Sequence, probs: Sequence) -> Source:
    """Validate and build a Source; probabilities are stored exactly."""
    return Source(tuple(symbols), tuple(_as_fraction(p) for p in probs))


def _check_radix(r) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise InvalidRadix(f"radix must be an integer >= 2, got {r!r}")
    return r


def _log(m: int, d: int) -> float:
    """math.log(m / d) for positive integers, also when m / d is too small
    to be a float; the fallback reduces the pair first, so its bits do not
    depend on a common factor of m and d."""
    try:
        return math.log(m / d)
    except ValueError:
        g = math.gcd(m, d)
        return math.log(m // g) - math.log(d // g)


def entropy(src: Source, r: int) -> float:
    """The base-r entropy -sum p_i log_r p_i, as a 64-bit float.

    Lies in [0, log_r n] up to rounding; exactly 0 for a singleton source.
    """
    _check_radix(r)
    log_r = math.log(r)
    d = src.denominator
    # + 0.0 normalizes the -0.0 of a singleton source
    return -math.fsum(m / d * _log(m, d) for m in src.masses) / log_r + 0.0


def extend_source(src: Source, p: int, max_symbols: int = DEFAULT_EXTENSION_CAP) -> Source:
    """The product source of p-symbol blocks, with product probabilities.

    Symbols of the extension are p-tuples of the original symbols, and a
    block's probability is its integer masses' product over D**p.
    """
    if p < 1:
        raise ValueError("extension order must be >= 1")
    n = len(src)
    # n**p has about p bits, so for n >= 2 refuse p past the cap's bit length first
    if (n >= 2 and p > max_symbols.bit_length()) or n**p > max_symbols:
        raise ExtensionTooLarge(f"{n}^{p} symbols exceeds the cap of {max_symbols}")
    blocks = list(itertools.product(range(n), repeat=p))
    symbols = tuple(tuple(src.symbols[i] for i in block) for block in blocks)
    denominator = src.denominator**p
    probs = tuple(Fraction(math.prod(src.masses[i] for i in block), denominator) for block in blocks)
    return Source(symbols, probs)


def sample_stream(src: Source, t: int, seed: int) -> list:
    """t i.i.d. draws from the source, deterministic given the seed.

    Each draw picks a uniform integer below the common denominator of
    the probabilities and maps it through exact cumulative thresholds,
    so the sampled law is exactly P, not a float approximation.
    """
    if t < 0:
        raise ValueError("stream length must be >= 0")
    _check_seed(seed)
    if len(src) == 1:
        return [src.symbols[0]] * t
    # bisect_right(bounds, u) for u uniform below D picks i with probability m_i/D
    draws = SplitMix64(seed).draws(src.denominator, t)
    picks = map(bisect_right, itertools.repeat(list(itertools.accumulate(src.masses))), draws)
    return list(map(src.symbols.__getitem__, picks))
