"""Finite stationary memoryless sources.

A source is an ordered alphabet together with an exact rational
probability for each symbol. Probabilities are kept as
fractions.Fraction throughout; only entropy is a floating-point
surface. Exactness is what lets the proof engine decide the equality
case p_i = r^(-l_i) with no tolerance at all.

Sampling is deterministic: a StreamSeed names both the 64-bit seed and
the generator algorithm (splitmix64, see codecert.rng), so a stream is
reproducible from the seed alone.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

from .errors import (
    DuplicateSymbol,
    ExtensionTooLarge,
    InvalidRadix,
    ProbabilitySumNotOne,
    ZeroOrNegativeProbability,
)
from .rng import GENERATOR_ID, SplitMix64

#: Seed used by reproducibility-sensitive tests and documentation.
REFERENCE_SEED = 1

#: Default cap on the alphabet size a source extension may produce.
DEFAULT_EXTENSION_CAP = 10**6


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b', an integer, or a finite decimal into an exact Fraction.

    Decimal text is converted exactly ('0.25' -> 1/4), never through a
    binary float.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise ZeroOrNegativeProbability(
            f"float probability {value!r} rejected: pass a Fraction or a string "
            f"like '3/10' so the value stays exact"
        )
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


@dataclass(frozen=True)
class StreamSeed:
    """Seed for deterministic sampling: same seed, same source => same stream."""

    seed: int
    generator: str = GENERATOR_ID

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.generator != GENERATOR_ID:
            raise ValueError(f"unknown generator {self.generator!r}; this build provides {GENERATOR_ID!r}")


def _check_probability(symbol, p: Fraction) -> None:
    """The invariant of one symbol's probability in a Source."""
    if p <= 0:
        raise ZeroOrNegativeProbability(f"p({symbol!r}) = {p} is not strictly positive")


@dataclass(frozen=True)
class Source:
    """An ordered alphabet with exact, strictly positive probabilities summing to 1."""

    symbols: tuple[Any, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("a source needs at least one symbol")
        if len(self.symbols) != len(self.probs):
            raise ValueError("symbols and probs must have equal length")
        seen = set()
        for sym, p in zip(self.symbols, self.probs):
            if sym in seen:
                raise DuplicateSymbol(f"symbol {sym!r} listed twice")
            seen.add(sym)
            _check_probability(sym, p)
        total = sum(self.probs, Fraction(0))
        if total != 1:
            raise ProbabilitySumNotOne(f"probabilities sum to {total}, not 1")

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

    def index_of(self, symbol) -> int:
        return self._index[symbol]


def make_source(symbols: Sequence, probs: Sequence) -> Source:
    """Validate and build a Source; probabilities are stored exactly."""
    return Source(tuple(symbols), tuple(_as_fraction(p) for p in probs))


def _check_radix(r) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise InvalidRadix(f"radix must be an integer >= 2, got {r!r}")
    return r


def _log(p: Fraction) -> float:
    """math.log(p), also for a positive p too small to be a float."""
    try:
        return math.log(p)
    except ValueError:
        return math.log(p.numerator) - math.log(p.denominator)


def entropy(src: Source, r: int) -> float:
    """The base-r entropy -sum p_i log_r p_i, as a 64-bit float.

    Lies in [0, log_r n] up to rounding; exactly 0 for a singleton source.
    """
    _check_radix(r)
    log_r = math.log(r)
    # + 0.0 normalizes the -0.0 of a singleton source
    return -math.fsum(float(p) * _log(p) for p in src.probs) / log_r + 0.0


def extend_source(src: Source, p: int, max_symbols: int = DEFAULT_EXTENSION_CAP) -> Source:
    """The product source of p-symbol blocks, with product probabilities.

    Symbols of the extension are p-tuples of the original symbols.
    """
    if p < 1:
        raise ValueError("extension order must be >= 1")
    n = len(src)
    if n**p > max_symbols:
        raise ExtensionTooLarge(f"{n}^{p} symbols exceeds the cap of {max_symbols}")
    symbols = []
    probs = []
    for combo in itertools.product(range(n), repeat=p):
        symbols.append(tuple(src.symbols[i] for i in combo))
        probs.append(math.prod((src.probs[i] for i in combo), start=Fraction(1)))
    return Source(tuple(symbols), tuple(probs))


def _cumulative_thresholds(probs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator D and cumulative integer thresholds: bisect_right(bounds, u)
    for u uniform below D picks index i with probability exactly probs[i]."""
    denom = math.lcm(*(p.denominator for p in probs))
    bounds = []
    acc = 0
    for p in probs:
        acc += p.numerator * (denom // p.denominator)
        bounds.append(acc)
    return denom, bounds


def sample_stream(src: Source, t: int, seed: StreamSeed | int) -> list:
    """t i.i.d. draws from the source, deterministic given the seed.

    Each draw picks a uniform integer below the common denominator of
    the probabilities and maps it through exact cumulative thresholds,
    so the sampled law is exactly P, not a float approximation.
    """
    if t < 0:
        raise ValueError("stream length must be >= 0")
    if isinstance(seed, int):
        seed = StreamSeed(seed)
    if len(src) == 1:
        return [src.symbols[0]] * t
    denom, bounds = _cumulative_thresholds(src.probs)
    rng = SplitMix64(seed.seed)
    out = []
    for _ in range(t):
        u = rng.randbelow(denom)
        out.append(src.symbols[bisect.bisect_right(bounds, u)])
    return out
