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
works on the leaves' digit paths in digit order: the canonical words of
the code's lengths, then one stack pass that drops the digits of
only-child nodes.
Then it merges one level at a time, from the deepest up: that level's
leaves and the nodes merged one level below, in path order, fall into
runs of siblings, and each run is one merge whose parent joins the next
level with the run's summed integer mass over the source's denominator
D. It calls reduction_step once per merge, so a chain costs about a sort
of each level plus the integer arithmetic of its steps; a step's probs
and p_red are Fraction views of its masses over D.

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
from itertools import groupby
from typing import Any

from .codes import Code, Codeword, minimal_reduction
from .decipher import _canonical_paths, is_uniquely_decipherable
from .errors import (
    ExactnessCheckFailed,
    GroupLargerThanRadix,
    InvalidGroup,
    MissingSymbol,
    NotUniquelyDecipherable,
    RadixOneUnsupported,
    ZeroOrNegativeProbability,
)
from .source import Source, _as_fraction, _check_radix, _integer_masses, _log, entropy
from .tree import (
    CodeTree,
    SiblingGroup,
    _below,
    _compact_paths,
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
    l_red: int
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
        word_of = dict(zip(self.leaf_symbols, map(Codeword, self.canonical_paths)))
        return Code(self.code.radix, tuple((s, (word_of[s],)) for s in self.code.symbols))

    @cached_property
    def certified_code(self) -> Code:
        """The code the chain runs on, symbols in digit order."""
        words = map(Codeword, self.certified_paths)
        return Code(self.code.radix, tuple((s, (w,)) for s, w in zip(self.leaf_symbols, words)))


@dataclass(frozen=True)
class GroupInequalityResult:
    value: float
    holds: bool
    tight: bool


@dataclass(frozen=True)
class RationalWeights:
    """A probability group scaled to integer frequencies f_k over F = sum."""

    frequencies: tuple[int, ...]
    radix: int

    def __post_init__(self):
        if not self.frequencies:
            raise ValueError("need at least one frequency")
        for f in self.frequencies:
            if not isinstance(f, int) or isinstance(f, bool) or f <= 0:
                raise ValueError(f"frequencies must be positive integers, got {f!r}")
        _check_radix(self.radix)
        if len(self.frequencies) > self.radix:
            raise GroupLargerThanRadix(
                f"group of {len(self.frequencies)} exceeds radix {self.radix}"
            )

    @property
    def s(self) -> int:
        return len(self.frequencies)

    @property
    def F(self) -> int:
        return sum(self.frequencies)


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
    log_r = math.log(r)
    m_red = sum(masses)
    red = m_red / d
    group = math.fsum(m / d * _log(m, d) / log_r for m in masses)
    return red * _log(m_red, d) / log_r - group - red


def reduction_step(group: SiblingGroup, masses: tuple[int, ...], denominator: int, r: int) -> ReductionStep:
    """The record of one merge: a sibling-leaf group whose members have
    probabilities masses[k] / denominator.

    certify calls this once per merge of its chain; each call costs the
    group's size, never the tree's.
    """
    _check_radix(r)
    if group.s < 2 or group.s > r:
        raise InvalidGroup(f"group size {group.s} outside 2..{r}")
    if len(masses) != group.s:
        raise InvalidGroup(f"group of {group.s} members given {len(masses)} masses")
    return ReductionStep(
        group=group,
        masses=masses,
        denominator=denominator,
        l_red=len(group.parent),
        delta=_delta(masses, denominator, r),
        is_tight=(group.s == r and len(set(masses)) == 1),
    )


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
    denominator, masses = _integer_masses(probs)
    step = reduction_step(group, masses, denominator, tree.radix)
    merged = MergedSymbol(tuple(leaf.symbol for leaf in leaves))
    reduced_tree = replace_group_with_leaf(tree, group, merged, step.p_red)
    return tree_source(reduced_tree), reduced_tree, step


def _check_alignment(src: Source, code: Code) -> None:
    have = set(code.symbols)
    want = set(src.symbols)
    if want - have:
        missing = sorted(str(s) for s in want - have)
        raise MissingSymbol(f"code has no codeword for {', '.join(missing)}")
    if have - want:
        extra = sorted(str(s) for s in have - want)
        raise MissingSymbol(f"code maps symbols outside the source: {', '.join(extra)}")


def certify(src: Source, code: Code) -> ReductionCertificate:
    """Build the full merge chain from code down to the empty-word code.

    The input may map several codewords per symbol; the chain runs on
    its minimal reduction. Its lengths are given canonical words, which
    are prefix-free even when the code is only decipherable, and every
    only-child node of their tree is spliced, recording the exact ACL
    decrease; the bound for the original code follows a fortiori. Both
    steps work on the leaves' digit paths, and neither builds a Code or
    a tree; canonical_code and certified_code are built when read.
    """
    _check_alignment(src, code)
    reduced = minimal_reduction(code)
    r = code.radix

    if r == 1:
        if len(src) > 1:
            raise RadixOneUnsupported(
                "unit radix admits no decipherable code for two or more symbols"
            )
        symbol = src.symbols[0]
        (word,) = reduced.codewords(symbol)
        equal = word.length == 0
        return ReductionCertificate(
            source=src,
            code=code,
            leaf_symbols=(symbol,),
            canonical_paths=(word.digits,),
            certified_paths=(word.digits,),
            acl_drop=Fraction(0),
            steps=(),
            entropy=0.0,
            acl=float(word.length),
            acl_exact=Fraction(word.length),
            sum_delta=0.0,
            verdict="Equality" if equal else "StrictInequality",
            witness=EqualityWitness(0, (0,)) if equal else None,
        )

    if not is_uniquely_decipherable(reduced):
        raise NotUniquelyDecipherable("no decoder can invert this code")

    d = src.denominator
    length_of = {s: words[0].length for s, words in reduced.mapping}
    symbols = sorted(reduced.symbols, key=length_of.__getitem__)  # the canonical words' order
    mass_of = dict(zip(src.symbols, src.masses))
    masses = [mass_of[s] for s in symbols]
    canonical, parts = _canonical_paths([length_of[s] for s in symbols], r)
    certified = _compact_paths(canonical, parts)

    steps = _merge_chain(certified, masses, d, r)
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


def _merge_chain(paths: list[tuple[int, ...]], masses: list[int], d: int, r: int) -> list[ReductionStep]:
    """Every merge of the compact tree with these leaf paths (in digit
    order) and integer masses over d, in chain order.

    Each internal node is merged once, deepest level first and each
    level in lexicographic path order, so by its turn all of its
    children are leaves. A level's nodes are its leaves and the nodes
    merged one level below, in path order; each run of them that shares
    a parent is that parent's merge, and the parent goes up a level with
    the run's summed mass.
    """
    levels: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(max(map(len, paths)) + 1)]
    for path, mass in zip(paths, masses):
        levels[len(path)].append((path, mass))
    steps, merged = [], []
    for level in reversed(levels[1:]):
        nodes, merged = sorted(level + merged), []  # two runs in path order
        for parent, run in groupby(nodes, key=lambda node: node[0][:-1]):
            members, run_masses = zip(*run)
            steps.append(reduction_step(SiblingGroup(parent, members), run_masses, d, r))
            merged.append((parent, sum(run_masses)))
    return steps


def equality_condition(src: Source, code: Code) -> tuple[bool, EqualityWitness | None]:
    """Exact test for H = ACL: p_i = r**(-l_i) for every symbol.

    Uses each symbol's shortest codeword, and tests m_i * r**l_i == D on
    the source's integer masses. When the condition holds the leaf count
    satisfies n = z*(r-1) + 1 and the witness carries z and the
    exponents in source order. No floating point is involved.
    """
    reduced = minimal_reduction(code)
    r = code.radix
    lengths = [reduced.codewords(s)[0].length for s in src.symbols]

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
    n = len(src)
    if (n - 1) % (r - 1) != 0:
        raise ExactnessCheckFailed("power-of-r probabilities must force a full tree")
    return EqualityWitness((n - 1) // (r - 1), tuple(lengths))


def _group_masses(probs, r: int) -> tuple[int, tuple[int, ...]]:
    """Check the radix and the probabilities of a closing-inequality check,
    read as make_source reads them (a float is rejected); returns them as
    integer masses over their common denominator. Their total P is capped
    at 2**512, where the float sums of P*log(P) and P*log(r) stay finite."""
    _check_radix(r)
    probs = tuple(map(_as_fraction, probs))
    if not probs:
        raise ValueError("need at least one probability")
    for p in probs:
        if p <= 0:
            raise ZeroOrNegativeProbability(f"group probabilities must be positive, got {p}")
    d, masses = _integer_masses(probs)
    if sum(masses) > d << 512:
        raise ValueError("group probabilities sum to more than 2**512, beyond floating-point evaluation")
    return d, masses


def check_group_inequality(probs, r: int) -> GroupInequalityResult:
    """The per-merge inequality prod_k (r*p_k / sum_p)**p_k >= 1 for s <= r.

    Evaluated in log space, and a product beyond the float range is inf;
    `tight` is the exact rational test s = r with all p_k equal, which
    the value check cross-validates.
    """
    d, masses = _group_masses(probs, r)
    s = len(masses)
    if s > r:
        raise GroupLargerThanRadix(f"group of {s} exceeds radix {r}")

    log_r, log_total = math.log(r), _log(sum(masses), d)
    log_value = math.fsum(m / d * (log_r + _log(m, d) - log_total) for m in masses)
    value = math.exp(log_value) if log_value <= _LOG_FLOAT_MAX else math.inf
    return GroupInequalityResult(
        value=value,
        holds=value >= 1.0 - LOG_SLACK,
        tight=(s == r and len(set(masses)) == 1),
    )


def check_rational_ghm(w: RationalWeights) -> GhmResult:
    """Exact integer form of the per-merge inequality.

    For frequencies f_k over F = sum f_k verifies

        prod_k (r*f_k / F)**f_k  >=  (r/s)**F  >=  1

    entirely in big-integer arithmetic. This grounds the log-space
    checker: means of the F-term sequence holding f_k copies of r*f_k/F
    compare geometric against harmonic, and the harmonic mean is r/s.
    """
    r, F, s = w.radix, w.F, w.s
    lhs_num = 1
    for f in w.frequencies:
        lhs_num *= (r * f) ** f
    lhs = Fraction(lhs_num, F**F)
    rhs = Fraction(r**F, s**F)
    return GhmResult(lhs=lhs, rhs=rhs, holds=lhs >= rhs >= 1)


def check_pp_inequalities(probs, r: int) -> PpResult:
    """Two corollaries of the per-merge inequality, checked in log space.

    ineq_a: (sum_p / r)**sum_p <= prod_k p_k**p_k, meaningful for s <= r
    (reported honestly either way). ineq_b: prod_k p_k**p_k >= 1/s,
    evaluated only when the probabilities sum to exactly 1.
    """
    d, masses = _group_masses(probs, r)
    s = len(masses)
    total = sum(masses)

    power_sum = math.fsum(m / d * _log(m, d) for m in masses)
    lhs_a = total / d * (_log(total, d) - math.log(r))
    ineq_a = lhs_a <= power_sum + LOG_SLACK
    ineq_b = power_sum >= -math.log(s) - LOG_SLACK if total == d else None
    return PpResult(ineq_a=ineq_a, ineq_b=ineq_b)


def format_certificate(cert: ReductionCertificate) -> str:
    """Serialize a certificate, one line per step plus a summary line."""
    lines = []
    for k, step in enumerate(cert.steps, start=1):
        lines.append(
            f"step {k}: merge parent={Codeword(step.group.parent)}"
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
