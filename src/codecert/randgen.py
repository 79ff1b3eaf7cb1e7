"""Random instances for fuzzing: sources, full trees, and codes.

Everything draws from an explicit SplitMix64 stream, so a master seed
reproduces the exact instance sequence. Trial k of a batch uses
derived_seed(master, k), which keeps trials independent and lets a
failing trial be replayed in isolation.

A random full tree is grown as the list of its leaf paths in digit
order, one draw per internal node, which is the form a CodeTree stores.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .codes import Code
from .rng import SplitMix64, _check_seed, derived_seed
from .source import Source, _check_count, _check_radix
from .tree import CodeTree, TreeNode

#: A random code's tree grows 0..EXTRA_NODES more internal nodes than the
#: fewest that give it n leaves, so some leaves are left unused.
EXTRA_NODES = 3


def trial_rng(master_seed: int, k: int) -> SplitMix64:
    """Independent generator for trial k of a batch keyed by master_seed."""
    return SplitMix64(derived_seed(_check_seed(master_seed), k))


def random_source(rng: SplitMix64, n: int, max_den: int = 64) -> Source:
    """A source with n symbols s1..sn and denominators at most max_den.

    Picks a denominator D and splits it at n-1 distinct interior cut
    points, so every probability is a positive multiple of 1/D.
    """
    _check_count(n, 1, "need at least one symbol")
    _check_count(max_den, n, f"max_den must be at least n = {n}")
    if n == 1:
        return Source._built(("s1",), (1,), 1)
    denom = rng.randrange(n, max_den + 1)
    cuts = rng.sample_distinct(denom - 1, n - 1)
    bounds = [0] + [c + 1 for c in cuts] + [denom]
    parts = [b - a for a, b in zip(bounds, bounds[1:])]
    g = math.gcd(denom, *parts)  # a Source holds its masses in lowest terms
    symbols = tuple(f"s{i + 1}" for i in range(n))
    return Source._built(symbols, tuple(m // g for m in parts), denom // g)


def grow_full_tree(rng: SplitMix64, r: int, z: int) -> CodeTree:
    """A full r-ary tree with exactly z internal nodes (z >= 0), unlabelled."""
    _check_radix(r)
    paths = _grow_leaf_paths(rng, r, z)
    return CodeTree(r, tuple(paths), (TreeNode(),) * len(paths))


def _grow_leaf_paths(rng: SplitMix64, r: int, z: int) -> list[tuple[int, ...]]:
    """The leaf paths, in digit order, of a full r-ary tree grown from one
    leaf by z times turning a uniformly drawn leaf into an internal node."""
    _check_count(z, 0, "need at least zero internal nodes")
    paths: list[tuple[int, ...]] = [()]
    for _ in range(z):
        i = rng.randbelow(len(paths))
        path = paths[i]
        # the leaf at path becomes an internal node bearing r fresh leaves
        paths[i : i + 1] = [path + (d,) for d in range(r)]
    return paths


def _random_leaf_paths(rng: SplitMix64, r: int, n: int) -> list[tuple[int, ...]]:
    _check_count(n, 1, "need at least one codeword")
    _check_radix(r)
    if n == 1:
        # half the time the whole tree, half a single deeper leaf
        if rng.randbelow(2) == 0:
            return [()]
        paths = _grow_leaf_paths(rng, r, 1 + rng.randbelow(3))
    else:
        z = -(-(n - 1) // (r - 1)) + rng.randbelow(EXTRA_NODES + 1)
        paths = _grow_leaf_paths(rng, r, z)
    picked = rng.sample_distinct(len(paths), min(n, len(paths)))
    return [paths[i] for i in picked]


def random_prefix_code(rng: SplitMix64, r: int, n: int) -> Code:
    """A prefix-free code with n codewords for symbols s1..sn."""
    paths = _random_leaf_paths(rng, r, n)
    return Code._built(r, tuple((f"s{i + 1}", (path,)) for i, path in enumerate(paths)))


def reversed_code(code: Code) -> Code:
    """Each codeword reversed; a prefix-free input becomes suffix-free.

    Suffix-free codes decode uniquely right to left, so the result is
    decipherable but usually not prefix-free.
    """
    return Code._built(code.radix, tuple((symbol, tuple(w[::-1] for w in words)) for symbol, words in code.mapping))


def random_group(rng: SplitMix64, r: int) -> tuple[list[Fraction], list[int]]:
    """1..r positive rationals over one common denominator, plus frequencies.

    The rationals are k_i/D for a shared D <= 32 (sum unconstrained).
    The returned frequencies are the raw numerators, which scale the
    group to integers exactly as the big-integer inequality oracle
    expects: r*p_k/sum_p == r*f_k/sum_f.
    """
    _check_radix(r)
    s = 1 + rng.randbelow(r)
    den = rng.randrange(2, 33)
    freqs = [1 + rng.randbelow(den) for _ in range(s)]
    probs = [Fraction(f, den) for f in freqs]
    return probs, freqs
