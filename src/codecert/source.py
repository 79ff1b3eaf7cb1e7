"""Finite stationary memoryless sources.

A source is an ordered alphabet with an exact rational probability for
each symbol, held as positive integer masses m_i over their least common
denominator D (p_i = m_i/D, sum m_i = D). `make_source` derives them from
rationals, and a source file (UTF-8, a byte order mark at its start
skipped) from its columns of numerators and denominators (`_ratios`: plain
`a/b` with no Fraction between, any other numeral through parse_rational's
one reader, `_ratio`), both through `_integer_masses`, which caps the lcm.
Every exact computation (ACL, Huffman merges, merge-chain masses, the
equality test, sampling) runs on these integers; `probs` is their
Fraction view, built when read. Only entropy and the per-merge defects
are floating-point surfaces, and they read m/D, which rounds exactly as
float(Fraction) does. Exactness lets the proof engine decide the equality
case p_i = r^(-l_i) with no tolerance at all.

A Source, a Code and an EncodingPolicy check their tables by one walk
over the entries in order (`_check_entries`), which raises the error of
the first entry at fault, or of a symbol listed twice. Only a table that a
package builder made valid skips it (`Source._built`, `Code._built`).

Sampling is deterministic: a seed in [0, 2^64) keys a splitmix64 stream
(see codecert.rng) of draws below the least D, so a stream is
reproducible from the seed alone. The draws are mapped to symbols a chunk
at a time (`_index_chunks`); sample_stream still returns the whole stream,
and every stream's length is capped at MAX_STREAM_LENGTH.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import floordiv, mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    CodecertError,
    DuplicateSymbol,
    ExtensionTooLarge,
    InvalidRadix,
    ProbabilitySumNotOne,
    ZeroOrNegativeProbability,
)
from .rng import _check_seed, _draw_chunks

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


def _quote(value) -> str:
    """repr(value) for an error message about a token, a symbol or a path from
    outside the program, cut to a prefix of its text and the length when that
    is long, so an error stays one short line whatever the input."""
    return repr(value) if len(str(value)) <= MAX_QUOTED_CHARS else _cut(value)


def _cut(value) -> str:
    """str(value), or its first MAX_QUOTED_CHARS characters and its length when longer."""
    text = str(value)
    if len(text) <= MAX_QUOTED_CHARS:
        return text
    return f"{text[:MAX_QUOTED_CHARS]!r}... ({len(text):,} characters)"


#: Most items an error message lists in full; a longer list is shown as its
#: first MAX_QUOTED_ITEMS items and its count.
MAX_QUOTED_ITEMS = 3


def _quote_list(values: Sequence) -> str:
    """The values' _quote as a list, cut to MAX_QUOTED_ITEMS and the count."""
    shown = ", ".join(map(_quote, values[:MAX_QUOTED_ITEMS]))
    if len(values) <= MAX_QUOTED_ITEMS:
        return f"[{shown}]"
    return f"[{shown}, ...] ({len(values):,} in all)"


def _ratio(text: str) -> tuple[int, int]:
    """The numerator and denominator, in lowest terms, of the rational that
    parse_rational reads, through Fraction; _ratios reads a column of plain
    'a/b' numerals without it; spaces around the numeral are dropped."""
    text = text.strip()
    if text.isascii() and "_" not in text:
        _check_numeral(text)
        try:
            return Fraction(text).as_integer_ratio()
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {_quote(text)}")


#: A column of 'a/b' numerals in ASCII digits, joined by single spaces
_PLAIN_RATIOS = re.compile(r"[0-9]+/[0-9]+(?: [0-9]+/[0-9]+)*")


def _ratios(numerals: Sequence[str]) -> tuple[list[int], list[int]]:
    """The numerators and denominators of _ratio of each numeral, as two
    columns. When every numeral is 'a/b' in ASCII digits, of at most
    MAX_NUMERAL_DIGITS characters and with b above 0, the column is read with
    one int map per side and one gcd map; otherwise numeral by numeral."""
    joined = " ".join(numerals)
    if max(map(len, numerals)) <= MAX_NUMERAL_DIGITS and _PLAIN_RATIOS.fullmatch(joined):
        parts = joined.replace(" ", "/").split("/")
        nums, dens = list(map(int, parts[0::2])), list(map(int, parts[1::2]))
        if 0 not in dens:
            gs = list(map(math.gcd, nums, dens))
            return list(map(floordiv, nums, gs)), list(map(floordiv, dens, gs))
    nums, dens = zip(*map(_ratio, numerals))
    return list(nums), list(dens)


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b', an integer, or a finite decimal into an exact Fraction.

    Decimal text is converted exactly ('0.25' -> 1/4), never through a
    binary float. Digits are ASCII, without '_' (Fraction accepts both),
    and each numeral has at most MAX_NUMERAL_DIGITS of them. A source file
    is read through the same reader (`_ratio`, or `_ratios` on a column of
    plain 'a/b') straight into integer pairs.
    """
    return Fraction(*_ratio(text))


def _as_fraction(value) -> Fraction:
    if isinstance(value, (float, bool)):
        raise ZeroOrNegativeProbability(
            f"{type(value).__name__} probability {value!r} rejected: pass a Fraction or a string "
            f"like '3/10' so the value stays exact"
        )
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return value if type(value) is Fraction else Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"not a rational number: {_quote(value)}") from None


def _check_count(value, least: int, message: str) -> None:
    """Refuse with ValueError(message) anything but an int >= least; a bool is no int here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{message} (an int), got {_quote(value)}")
    if value < least:
        raise ValueError(f"{message}, got {_quote(value)}")


#: Longest stream that sample_stream, empirical_acl and simulate draw;
#: sample_stream holds every draw at once, empirical_acl one chunk of them.
MAX_STREAM_LENGTH = 10**9


def _check_stream_length(t, least: int, message: str) -> None:
    """_check_count of a stream length t, which also refuses t above MAX_STREAM_LENGTH."""
    _check_count(t, least, message)
    if t > MAX_STREAM_LENGTH:
        raise ValueError(f"stream length must be at most {MAX_STREAM_LENGTH:,}")


def _check_entries(entries: Iterable[tuple[Any, Any]], check: Callable[[Any, Any], None]) -> None:
    """Validate a symbol table's (symbol, value) entries in order: a repeated
    symbol raises DuplicateSymbol, and an error of the table's own
    `check(symbol, value)` carries the entry's position as `.entry`."""
    seen = set()
    for symbol, value in entries:
        if symbol in seen:
            raise DuplicateSymbol(f"symbol {_quote(symbol)} listed twice")
        seen.add(symbol)
        try:
            check(symbol, value)
        except (CodecertError, ValueError) as e:
            e.entry = len(seen) - 1  # the symbols so far are distinct
            raise


def _check_probability(d: int, symbol, m) -> None:
    """The invariant of one symbol's probability m/d in a Source: a positive int mass m."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ZeroOrNegativeProbability(f"p({_quote(symbol)}) has mass {_quote(m)}, not an integer")
    if m <= 0:
        raise ZeroOrNegativeProbability(f"p({_quote(symbol)}) = {_cut(Fraction(m, d))} is not strictly positive")


#: Most bits of the lcm of a source's denominators; the Kraft sum's common
#: denominator r^max(length) is capped at 2^MAX_DENOMINATOR_BITS. The work
#: on such a number grows with its size, and printing it with the square.
MAX_DENOMINATOR_BITS = 300_000


def _integer_masses(nums: Sequence[int], dens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The integer masses n*D/d of the fractions n/d, given as columns of
    numerators and denominators in lowest terms, over their least common
    denominator D, and D: n/d == mass/D exactly. The lcm is refused as soon
    as it has more than MAX_DENOMINATOR_BITS bits."""
    denom = 1
    for d in set(dens):
        denom = math.lcm(denom, d)
        if denom.bit_length() > MAX_DENOMINATOR_BITS:
            raise ValueError(f"the probabilities' common denominator has more than {MAX_DENOMINATOR_BITS:,} bits")
    return tuple(map(mul, nums, map(floordiv, itertools.repeat(denom), dens))), denom


def _fraction_masses(qs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """_integer_masses of Fractions."""
    return _integer_masses([q.numerator for q in qs], [q.denominator for q in qs])


#: Most bits of a common denominator whose wrong sum an error prints exactly;
#: reducing and printing a longer sum can take longer than the lcm that found it.
MAX_SHOWN_SUM_BITS = 128


@dataclass(frozen=True)
class Source:
    """An ordered alphabet with exact, strictly positive probabilities summing to 1.

    They are int masses over their least common denominator: probs[i] == masses[i] / denominator.
    """

    symbols: tuple[Any, ...]
    masses: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        d = self.denominator
        if len(self.symbols) == 0:
            raise ValueError("a source needs at least one symbol")
        if len(self.symbols) != len(self.masses):
            raise ValueError("symbols and masses must have equal length")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError(f"denominator {_quote(d)} is not a positive integer")
        _check_entries(zip(self.symbols, self.masses), partial(_check_probability, d))
        total = sum(self.masses)
        if total != d:
            bits = d.bit_length()
            if bits <= MAX_SHOWN_SUM_BITS:
                raise ProbabilitySumNotOne(f"probabilities sum to {Fraction(total, d)}, not 1")
            side = "more" if total > d else "less"
            raise ProbabilitySumNotOne(f"probabilities sum to {side} than 1 (over a common denominator of {bits:,} bits)")
        if math.gcd(d, *self.masses) != 1:  # a draw is below D, so a seeded stream needs the least D
            raise ValueError("the masses and the denominator share a factor: they are not in lowest terms")

    @classmethod
    def _built(cls, symbols: tuple, masses: tuple[int, ...], denominator: int) -> Source:
        """A Source whose fields a package builder made valid, set with no check."""
        src = object.__new__(cls)
        vars(src).update(symbols=symbols, masses=masses, denominator=denominator)
        return src

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """The probabilities, masses[i] / denominator."""
        return tuple(Fraction(m, self.denominator) for m in self.masses)

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def prob_of(self, symbol) -> Fraction:
        try:
            return Fraction(self.masses[self._index[symbol]], self.denominator)
        except KeyError:
            raise ValueError(f"symbol {_quote(symbol)} not in source") from None


def make_source(symbols: Sequence, probs: Sequence) -> Source:
    """The Source of exact rationals (a float is refused): masses over the lcm of their denominators."""
    return Source(tuple(symbols), *_fraction_masses(list(map(_as_fraction, probs))))


def _check_radix(r, least: int = 2) -> int:
    """A radix is an integer of at least 2, or 1 where a code admits the unit radix."""
    if not isinstance(r, int) or isinstance(r, bool) or r < least:
        raise InvalidRadix(f"radix must be an integer >= {least}, got {r!r}")
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
    block's mass is the product of its symbols' masses, over D**p.
    """
    _check_count(p, 1, "extension order must be >= 1")
    _check_count(max_symbols, 1, "the extension's cap max_symbols must be >= 1")
    n = len(src)
    # n**p has about p bits, so for n >= 2 refuse p past the cap's bit length first
    if (n >= 2 and p > max_symbols.bit_length()) or n**p > max_symbols:
        raise ExtensionTooLarge(f"{n}^{p} symbols exceeds the cap of {max_symbols}")
    symbols = tuple(itertools.product(src.symbols, repeat=p))
    masses = tuple(map(math.prod, itertools.product(src.masses, repeat=p)))
    # D**p is least: each prime of D misses some m_j, so it misses m_j**p
    return Source._built(symbols, masses, src.denominator**p)


def sample_stream(src: Source, t: int, seed: int) -> list:
    """t i.i.d. draws from the source, deterministic given the seed.

    Each draw picks a uniform integer below the common denominator of
    the probabilities and maps it through exact cumulative thresholds,
    so the sampled law is exactly P, not a float approximation.
    """
    _check_stream_length(t, 0, "stream length must be >= 0")
    _check_seed(seed)
    return list(map(src.symbols.__getitem__, itertools.chain.from_iterable(_index_chunks(src, t, seed))))


def _index_chunks(src: Source, t: int, seed: int) -> Iterator[list[int]]:
    """The symbol indices of sample_stream(src, t, seed), its arguments
    unchecked, in lists of up to rng._CHUNK; each list of draws is let go
    once it is mapped."""
    # bisect_right(bounds, u) for u uniform below D picks i with probability m_i/D (D = 1: only u = 0)
    bounds = list(itertools.accumulate(src.masses))
    for us in _draw_chunks(seed, src.denominator, t):
        indices = list(map(bisect_right, itertools.repeat(bounds), us))
        del us
        yield indices
