"""Reduction certificates for the bound H_r(S) <= ACL_r(S, C).

The engine works on the tree view of a prefix-free code. One step picks
a deepest group of sibling leaves, merges them into their parent, and
records the defect

    delta = p_red*log_r(p_red) - sum_k p_k*log_r(p_k) - p_red

where p_red is the group's total probability. Each step changes H by
delta + p_red and ACL by p_red, so the defects telescope: summed over a
full chain of merges down to the one-leaf tree they equal H - ACL.
Every defect is <= 0, which proves the bound, and a step's defect is 0
exactly when the group has r members of equal probability.

The chain merges, deepest level first, every internal node of the
compacted tree, and within a level the nodes in lexicographic path
order; this is the order the reference operations find_sibling_group
and reduce_group(tree, group) pick one merge at a time, rebuilding the
tree and its source after each. certify never builds that tree. It
works on the leaves' digit paths in digit order, the canonical words of
the code's lengths, and on the depths at which neighbouring words part;
one stack pass over those depths (tree._compact_tree) gives the
compacted tree's nodes, their paths and the chain order. A merged node's
mass is its children's summed integer masses over the source's
denominator D. certify calls reduction_step once per merge, so a chain
costs one sort of the merges by depth plus the integer arithmetic of
its steps; a step's probs and p_red are Fraction views of its masses
over D.

Defects are reported as floats but verdicts are decided exactly: a step
is tight iff s = r and the probabilities match as rationals, and the
whole chain is tight iff p_i = r**(-l_i) for every symbol. Floats never
decide equality.

Unit radix is degenerate: only a one-symbol source can be usefully
encoded, the chain has zero steps, and the certificate just reports
H = 0 against the given length (equal only for the empty codeword).
The telescoping identity is vacuous there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

from .codes import Code, _covering, format_codeword, minimal_reduction
from .decipher import _canonical_paths, ud_counterexample
from .errors import (
    ExactnessCheckFailed,
    GroupLargerThanRadix,
    InvalidGroup,
    MissingSymbol,
    NotUniquelyDecipherable,
    RadixOneUnsupported,
    ZeroOrNegativeProbability,
)
from .source import Source, _as_fraction, _check_radix, _cut, _fraction_masses, _log, _quote_list, entropy
from .tree import (
    CodeTree,
    SiblingGroup,
    _below,
    _compact_tree,
    replace_group_with_leaf,
    tree_source,
)

LOG_SLACK = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MergedSymbol:
    """Placeholder symbol standing for a merged group of leaves."""

    members: tuple[Any, ...]


@dataclass(frozen=True)
class ReductionStep:
    """One sibling merge: the group, its integer masses over a denominator,
    and the defect."""

    group: SiblingGroup
    masses: tuple[int, ...]
    denominator: int
    delta: float
    is_tight: bool

    @property
    def s(self) -> int:
        return self.group.s

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """The members' probabilities, masses[k] / denominator."""
        return tuple(Fraction(m, self.denominator) for m in self.masses)

    @cached_property
    def p_red(self) -> Fraction:
        """The group's total probability."""
        return Fraction(sum(self.masses), self.denominator)


@dataclass(frozen=True)
class EqualityWitness:
    """Internal node count z and the exponents l_i with p_i = r**(-l_i)."""

    z: int
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class ReductionCertificate:
    source: Source
    code: Code
    # the leaves in digit order: their symbols, their canonical words (the
    # minimal reduction's lengths, so the chain is byte-reproducible) and
    # those words with chain nodes spliced out, which the chain runs on
    leaf_symbols: tuple[Any, ...]
    canonical_paths: tuple[tuple[int, ...], ...]
    certified_paths: tuple[tuple[int, ...], ...]
    acl_drop: Fraction
    steps: tuple[ReductionStep, ...]
    entropy: float
    acl: float
    acl_exact: Fraction
    sum_delta: float
    verdict: str
    witness: EqualityWitness | None

    @cached_property
    def canonical_code(self) -> Code:
        """The canonical words on the code's symbols, in the code's order."""
        word_of = dict(zip(self.leaf_symbols, self.canonical_paths))
        return Code._built(self.code.radix, tuple((s, (word_of[s],)) for s in self.code.symbols))

    @cached_property
    def certified_code(self) -> Code:
        """The code the chain runs on, symbols in digit order."""
        return Code._built(self.code.radix, tuple((s, (w,)) for s, w in zip(self.leaf_symbols, self.certified_paths)))


@dataclass(frozen=True)
class GroupInequalityResult:
    value: float
    holds: bool
    tight: bool


@dataclass(frozen=True)
class GhmResult:
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class PpResult:
    ineq_a: bool
    ineq_b: bool | None


def _delta(masses: tuple[int, ...], d: int, r: int) -> float:
    # m / d rounds as float(Fraction(m, d)) does: the bits of the rationals
    log_r, m_red = math.log(r), sum(masses)
    red = m_red / d
    terms = math.fsum(m / d * _log(m, d) / log_r for m in masses)
    return red * _log(m_red, d) / log_r - terms - red


def reduction_step(group: SiblingGroup, masses: tuple[int, ...], denominator: int, r: int) -> ReductionStep:
    """The record of one merge: a sibling-leaf group whose members have
    probabilities masses[k] / denominator.

    certify calls this once per merge of its chain; each call costs the
    group's size, never the tree's.
    """
    _check_radix(r)
    s = len(group.members)
    if s < 2 or s > r:
        raise InvalidGroup(f"group size {s} outside 2..{r}")
    if len(masses) != s:
        raise InvalidGroup(f"group of {s} members given {len(masses)} masses")
    tight = s == r and masses.count(masses[0]) == s
    return ReductionStep(group, masses, denominator, _delta(masses, denominator, r), tight)


def reduce_group(tree: CodeTree, group: SiblingGroup) -> tuple[Source, CodeTree, ReductionStep]:
    """Merge a sibling-leaf group into its parent.

    The reference form of one merge; certify's one-pass chain never calls
    it. The group's probabilities are read off the tree's leaves, so the
    tree is the whole input. Returns the reduced source, which lists the
    reduced tree's leaves in digit order, the reduced tree, and the step
    record; repeated steps take the returned tree.
    """
    span = _below(tree, group.parent)
    if tree.paths[span] != group.members or any(len(p) != len(group.parent) + 1 for p in group.members):
        raise InvalidGroup(f"group members are not exactly the leaf children of a node at {group.parent}")
    leaves = tree.nodes[span]
    probs = tuple(leaf.prob for leaf in leaves)
    if None in probs:
        raise InvalidGroup("group leaf carries no probability")
    masses, denominator = _fraction_masses(probs)
    step = reduction_step(group, masses, denominator, tree.radix)
    merged = MergedSymbol(tuple(leaf.symbol for leaf in leaves))
    reduced_tree = replace_group_with_leaf(tree, group, merged, step.p_red)
    return tree_source(reduced_tree), reduced_tree, step


def certify(src: Source, code: Code) -> ReductionCertificate:
    """Build the full merge chain from code down to the empty-word code.

    The input may map several codewords per symbol; the chain runs on
    its minimal reduction. Its lengths are given canonical words, which
    are prefix-free even when the code is only decipherable, and every
    only-child node of their tree is spliced, recording the exact ACL
    decrease; the bound for the original code follows a fortiori. Both
    steps work on the leaves' digit paths, and neither builds a Code or
    a tree; canonical_code and certified_code are built when read.

    Decipherability is decided for the minimal reduction only: when it
    is not uniquely decipherable, NotUniquelyDecipherable is raised with
    the digits of its shortest ambiguous string. A code whose further
    codewords make it ambiguous (a: 0 or 1, b: 10, c: 11) is certified
    all the same, as its bound follows from its reduction's.
    """
    _covering(src, code)
    # every source symbol has one entry, so any further entry is outside the source
    if len(code.mapping) > len(src):
        outside = [s for s in code.symbols if s not in src._index]
        raise MissingSymbol(f"code maps symbols outside the source: {_quote_list(outside)}")
    reduced = minimal_reduction(code)
    r = code.radix

    if r == 1:
        if len(src) > 1:
            raise RadixOneUnsupported(
                "unit radix admits no decipherable code for two or more symbols"
            )
        (word,) = reduced.codewords(src.symbols[0])
        equal = not word
        return ReductionCertificate(
            source=src,
            code=code,
            leaf_symbols=src.symbols,
            canonical_paths=(word,),
            certified_paths=(word,),
            acl_drop=Fraction(0),
            steps=(),
            entropy=0.0,
            acl=float(len(word)),
            acl_exact=Fraction(len(word)),
            sum_delta=0.0,
            verdict="Equality" if equal else "StrictInequality",
            witness=EqualityWitness(0, (0,)) if equal else None,
        )

    ambiguity = ud_counterexample(reduced)
    if ambiguity is not None:
        raise NotUniquelyDecipherable("no decoder can invert this code", ambiguity)

    d = src.denominator
    length_of = {s: len(words[0]) for s, words in reduced.mapping}
    symbols = sorted(reduced.symbols, key=length_of.__getitem__)  # the canonical words' order
    mass_of = dict(zip(src.symbols, src.masses))
    masses = [mass_of[s] for s in symbols]
    canonical, parts = _canonical_paths([length_of[s] for s in symbols], r)
    compact, chain = _compact_tree(canonical, parts)
    certified = compact[: len(canonical)]

    mass = masses + [0] * len(chain)  # each node's mass, by its number in compact
    steps = []
    for node, kids in chain:  # a node's children are merged before it
        run = tuple(map(mass.__getitem__, kids))
        mass[node] = sum(run)
        group = SiblingGroup(compact[node], tuple(map(compact.__getitem__, kids)))
        steps.append(reduction_step(group, run, d, r))
    # each leaf's mass is merged once per node above it, so the merged
    # masses sum to sum m_i * l_i over the certified lengths
    merged = sum(sum(step.masses) for step in steps)
    acl_fraction = Fraction(merged, d)
    drop = Fraction(sum(m * len(path) for m, path in zip(masses, canonical)) - merged, d)

    depth_of = dict(zip(symbols, map(len, certified)))
    witness = _equality_witness(src, [depth_of[s] for s in src.symbols], r)
    all_tight = all(s.is_tight for s in steps)
    if (witness is not None) != all_tight:
        raise ExactnessCheckFailed("exact tightness disagrees with the length condition")

    return ReductionCertificate(
        source=src,
        code=code,
        leaf_symbols=tuple(symbols),
        canonical_paths=tuple(canonical),
        certified_paths=tuple(certified),
        acl_drop=drop,
        steps=tuple(steps),
        entropy=entropy(src, r),
        acl=float(acl_fraction),
        acl_exact=acl_fraction,
        sum_delta=math.fsum(s.delta for s in steps),
        verdict="Equality" if all_tight else "StrictInequality",
        witness=witness,
    )


def equality_condition(src: Source, code: Code) -> tuple[bool, EqualityWitness | None]:
    """Exact test for H = ACL: p_i = r**(-l_i) for every symbol.

    Uses each symbol's shortest codeword, and tests m_i * r**l_i == D on
    the source's integer masses. When the condition holds the leaf count
    satisfies n = z*(r-1) + 1 and the witness carries z and the
    exponents in source order. No floating point is involved.
    """
    r = code.radix
    lengths = [min(map(len, words)) for words in _covering(src, code)]

    if r == 1:
        if len(src) == 1 and lengths[0] == 0:
            return True, EqualityWitness(0, (0,))
        return False, None

    witness = _equality_witness(src, lengths, r)
    return witness is not None, witness


def _equality_witness(src: Source, lengths: list[int], r: int) -> EqualityWitness | None:
    """The witness of p_i = r**(-l_i) for lengths in source order and r >= 2,
    tested as m_i * r**l_i == D; None when it fails."""
    d = src.denominator
    if any(m * r**length != d for m, length in zip(src.masses, lengths)):
        return None
    # sum r**(-l_i) = 1 and r = 1 mod (r - 1) give n = 1 mod (r - 1)
    return EqualityWitness((len(src) - 1) // (r - 1), tuple(lengths))


def _group_masses(probs, r: int, *, within_radix: bool = True) -> tuple[tuple[int, ...], int]:
    """Check the radix and the probabilities of a closing-inequality check,
    read as make_source reads them (a float or a bool is rejected), and
    with within_radix that there are at most r of them; returns their
    integer masses over their least common denominator D, and D. Their total
    P is capped at 2**512, where the float sums of P*log(P) and P*log(r) stay
    finite."""
    _check_radix(r)
    probs = tuple(map(_as_fraction, probs))
    if not probs:
        raise ValueError("need at least one probability")
    masses, d = _fraction_masses(probs)
    for m in masses:
        if m <= 0:
            raise ZeroOrNegativeProbability(f"group probabilities must be positive, got {_cut(Fraction(m, d))}")
    if sum(masses) > d << 512:
        raise ValueError("group probabilities sum to more than 2**512, beyond floating-point evaluation")
    if within_radix and len(masses) > r:
        raise GroupLargerThanRadix(f"group of {len(masses)} exceeds radix {r}")
    return masses, d


def check_group_inequality(probs, r: int) -> GroupInequalityResult:
    """The per-merge inequality prod_k (r*p_k / sum_p)**p_k >= 1 for s <= r.

    Evaluated in log space, and a product beyond the float range is inf;
    `tight` is the exact rational test s = r with all p_k equal, which
    the value check cross-validates.
    """
    return _group_inequality(*_group_masses(probs, r), r)


def _group_inequality(masses: tuple[int, ...], d: int, r: int) -> GroupInequalityResult:
    """check_group_inequality's core on probabilities masses[k] / d that _group_masses passed."""
    log_r, log_total = math.log(r), _log(sum(masses), d)
    log_value = math.fsum(m / d * (log_r + _log(m, d) - log_total) for m in masses)
    value = math.exp(log_value) if log_value <= _LOG_FLOAT_MAX else math.inf
    tight = len(masses) == r and masses.count(masses[0]) == r
    return GroupInequalityResult(value=value, holds=value >= 1.0 - LOG_SLACK, tight=tight)


#: Most bits check_rational_ghm lets its integers have: they are below (r*M)**M
#: for the group's total integer mass M, and its work grows about as M**2.4.
MAX_GHM_BITS = 13_000


def check_rational_ghm(probs, r: int) -> GhmResult:
    """Exact integer form of the per-merge inequality for s <= r.

    For the probabilities' integer masses m_k over their least common
    denominator, with M = sum m_k, verifies

        prod_k (r*m_k / M)**m_k  >=  (r/s)**M  >=  1

    entirely in big-integer arithmetic. This grounds the log-space
    checker: means of the M-term sequence holding m_k copies of r*m_k/M
    compare geometric against harmonic, and the harmonic mean is r/s. Past
    MAX_GHM_BITS it raises ValueError before any power is taken.
    """
    masses = _group_masses(probs, r)[0]
    holds = _rational_ghm(masses, r)
    s, total = len(masses), sum(masses)
    lhs = Fraction(math.prod((r * m) ** m for m in masses), total**total)
    return GhmResult(lhs=lhs, rhs=Fraction(r**total, s**total), holds=holds)


def _rational_ghm(masses: Sequence[int], r: int) -> bool:
    """check_rational_ghm's verdict on integer masses that _group_masses passed;
    it keeps the bits bound. lhs >= rhs >= 1 is decided with no Fraction, as
    r >= s and prod_k (r*m_k)**m_k * s**M >= (r*M)**M."""
    s, total = len(masses), sum(masses)
    bits = total * (r * total).bit_length()
    if bits > MAX_GHM_BITS:
        raise ValueError(f"the exact form's integers would have about {bits:,} bits, past {MAX_GHM_BITS:,}")
    return r >= s and math.prod((r * m) ** m for m in masses) * s**total >= (r * total) ** total


def check_pp_inequalities(probs, r: int) -> PpResult:
    """Two corollaries of the per-merge inequality, checked in log space.

    ineq_a: (sum_p / r)**sum_p <= prod_k p_k**p_k, meaningful for s <= r
    (reported honestly either way). ineq_b: prod_k p_k**p_k >= 1/s,
    evaluated only when the probabilities sum to exactly 1.
    """
    return _pp_inequalities(*_group_masses(probs, r, within_radix=False), r)


def _pp_inequalities(masses: tuple[int, ...], d: int, r: int) -> PpResult:
    """check_pp_inequalities's core on probabilities masses[k] / d that _group_masses passed."""
    total = sum(masses)
    power_sum = math.fsum(m / d * _log(m, d) for m in masses)
    lhs_a = total / d * (_log(total, d) - math.log(r))
    ineq_b = power_sum >= -math.log(len(masses)) - LOG_SLACK if total == d else None
    return PpResult(ineq_a=lhs_a <= power_sum + LOG_SLACK, ineq_b=ineq_b)


def format_certificate(cert: ReductionCertificate) -> str:
    """Serialize a certificate, one line per step plus a summary line."""
    lines = []
    for k, step in enumerate(cert.steps, start=1):
        lines.append(
            f"step {k}: merge parent={format_codeword(step.group.parent)}"
            f" s={step.s}"
            f" p_red={step.p_red.numerator}/{step.p_red.denominator}"
            f" delta={step.delta!r}"
            f" tight={step.is_tight}"
        )
    lines.append(
        f"H={cert.entropy!r} ACL={cert.acl!r}"
        f" sum_delta={cert.sum_delta!r} verdict={cert.verdict}"
    )
    return "\n".join(lines)
