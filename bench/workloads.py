"""The four workloads: seeded inputs, the CLI calls made on them, and their checks.

Inputs come from `random.Random`, seeded with the workload name and the
benchmark seed, never from codecert's own generators, so a change to the
program cannot change what is measured. Each workload function writes its input
files into a directory and returns the operations of one round; every
round repeats the same operations. A check returns None when the output
is right and a one-line reason when it is not; expected values are
computed from `reference` on the first call, outside the set-up timing.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference

#: Fuzz trials per `fuzz` call, and calls per round.
FUZZ_TRIALS = 200
FUZZ_CALLS = 10

#: Bits of the common denominator of the certify-large, simulate-stream and suffix-code sources.
DENOMINATOR_BITS = 40


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (without the program name) and how to judge its output."""

    kind: str
    label: str
    argv: tuple[str, ...]
    units: int
    check: Callable[[int, str], str | None]


@dataclass(frozen=True)
class Workload:
    """The operations of one round, and the subcommand whose units `units_per_s` counts."""

    ops: tuple[Op, ...]
    primary: str


def fields(out: str) -> dict[str, str]:
    """The key=value lines of a --machine report."""
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def _first_problem(*pairs: tuple[bool, str]) -> str | None:
    for ok, reason in pairs:
        if not ok:
            return reason
    return None


# --- input generators ---


def _weights(rng: random.Random, n: int, bits: int) -> tuple[list[int], int]:
    """n positive integers summing to W, from n - 1 distinct cut points of [1, W).

    W lies just above 3/4 of 2^bits, so exact sampling over it accepts about
    three draws in four, whatever the seed.
    """
    total = (3 << (bits - 2)) + rng.randrange(1 << (bits - 8))
    cuts = sorted(rng.sample(range(1, total), n - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])], total


def _split_tree(rng: random.Random, leaves: int, r: int) -> list[tuple[int, ...]]:
    """Leaf paths of a full r-ary tree grown by splitting random leaves."""
    paths = [()]
    while len(paths) + r - 1 <= leaves:
        path = paths.pop(rng.randrange(len(paths)))
        paths.extend(path + (d,) for d in range(r))
    return paths


def _word(digits: tuple[int, ...]) -> str:
    return "".join(str(d) for d in digits) or "-"


def _write_source(path: Path, symbols: list[str], probs: list[Fraction]) -> str:
    path.write_text("".join(f"{s} {p.numerator}/{p.denominator}\n" for s, p in zip(symbols, probs)))
    return str(path)


def _write_code(
    path: Path,
    r: int,
    symbols: list[str],
    words: list[list[tuple[int, ...]]],
    weights: list[list[Fraction]] | None = None,
) -> str:
    lines = [f"radix {r}"]
    for k, (s, ws) in enumerate(zip(symbols, words)):
        line = f"{s} {','.join(_word(w) for w in ws)}"
        if weights is not None and len(ws) > 1:
            line += " @ " + ",".join(f"{q.numerator}/{q.denominator}" for q in weights[k])
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _symbols(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


# --- checks ---


def _certify_op(label: str, src: str, code: str, probs: list[Fraction], lengths: list[int], r: int) -> Op:
    """`certify`; lengths are each symbol's shortest codeword, in code-file order."""

    @functools.cache
    def expected():
        depths, internal = reference.compacted_depths(reference.canonical_code(lengths, r))
        acl = sum((p * l for p, l in zip(probs, lengths)), Fraction(0))
        certified = sum((p * d for p, d in zip(probs, depths)), Fraction(0))
        equality = all(p == Fraction(1, r**d) for p, d in zip(probs, depths))
        return reference.entropy(probs, r), acl, acl - certified, equality, internal

    def check(status: int, out: str) -> str | None:
        h_ref, acl_ref, drop_ref, equality, internal = expected()
        f = fields(out)
        h, acl, sum_delta = float(f["H"]), float(f["ACL"]), float(f["sum_delta"])
        drop = Fraction(f["acl_drop"])
        return _first_problem(
            (status == 0, f"exit status {status}"),
            (abs(h - h_ref) <= 1e-9, f"H={h!r}, reference {h_ref!r}"),
            (drop == drop_ref, f"acl_drop={drop}, reference {drop_ref}"),
            (acl == float(acl_ref - drop), f"ACL + acl_drop != reference sum p_i l_i = {acl_ref}"),
            (abs(sum_delta - (h - acl)) <= 1e-9, f"sum_delta={sum_delta!r} vs H-ACL={h - acl!r}"),
            (h <= acl + 1e-9, f"H={h!r} > ACL={acl!r}"),
            (f["verdict"] == ("Equality" if equality else "StrictInequality"), f"verdict {f['verdict']}"),
            (int(f["steps"]) == internal, f"steps={f['steps']}, compacted tree has {internal} internal nodes"),
        )

    return Op("certify", label, ("certify", src, code, "--machine"), len(probs), check)


def _huffman_op(label: str, src: str, symbols: list[str], weights: list[int], total: int, r: int) -> Op:
    probs = [Fraction(w, total) for w in weights]

    @functools.cache
    def expected():
        return Fraction(reference.huffman_cost(weights, r), total), reference.entropy(probs, r)

    def check(status: int, out: str) -> str | None:
        acl_ref, h_ref = expected()
        f = fields(out)
        acl = Fraction(f["ACL_exact"])
        problem = _first_problem(
            (status == 0, f"exit status {status}"),
            (acl == acl_ref, f"ACL_exact={acl}, optimum {acl_ref}"),
            (float(f["ACL"]) == float(acl), "ACL is not ACL_exact as a float"),
            (abs(float(f["H"]) - h_ref) <= 1e-9, f"H={f['H']}, reference {h_ref!r}"),
        )
        if problem or r > 10:
            return problem
        words = [f.get(f"code.{s}", "") for s in symbols]
        lengths = [len(w) for w in words]
        return _first_problem(
            (all(w and set(w) <= set("0123456789"[:r]) for w in words), "a symbol has no valid codeword"),
            (reference.is_prefix_free(words), "emitted code is not prefix-free"),
            (reference.kraft_holds(lengths, r), "emitted code breaks the Kraft bound"),
            (sum((p * l for p, l in zip(probs, lengths)), Fraction(0)) == acl, "codeword lengths disagree with ACL_exact"),
        )

    return Op("huffman", label, ("huffman", src, "--radix", str(r), "--machine"), len(weights), check)


def _simulate_op(
    label: str,
    src: str,
    code: str,
    probs: list[Fraction],
    lengths: list[list[int]],
    weights: list[list[Fraction]],
    t: int,
    seed: int,
) -> Op:
    moments = functools.cache(lambda: reference.step_moments(probs, lengths, weights))

    def check(status: int, out: str) -> str | None:
        mean, var = moments()
        f = fields(out)
        acl_t = float(f["acl_t"])
        limit = 6 * math.sqrt(var / t)
        return _first_problem(
            (status == 0, f"exit status {status}"),
            (f["bound_violations"] == "0", f"bound_violations={f['bound_violations']}"),
            (int(f["t"]) == t, f"t={f['t']}"),
            (float(f["ACL"]) == float(mean), f"ACL={f['ACL']}, reference {mean}"),
            (abs(acl_t - float(mean)) <= limit, f"|acl_t - ACL| = {abs(acl_t - float(mean))!r} > 6 sigma/sqrt(t) = {limit!r}"),
        )

    argv = ("simulate", src, code, "--t", str(t), "--seed", str(seed), "--machine")
    return Op("simulate", label, argv, t, check)


def _check_ud_op(label: str, code: str, words: dict[str, list[str]], planted: str | None) -> Op:
    def check(status: int, out: str) -> str | None:
        f = fields(out)
        if planted is None:
            return _first_problem(
                (status == 0, f"exit status {status}"),
                (f.get("ud") == "True", f"ud={f.get('ud')} for a decipherable code"),
            )
        witness = f.get("witness", "None")
        return _first_problem(
            (status == 1, f"exit status {status}"),
            (f.get("ud") == "False", f"ud={f.get('ud')} for a code with a planted ambiguity"),
            (witness != "None", "no witness"),
            (len(witness) <= len(planted), f"witness {witness} is longer than the planted {planted}"),
            (reference.count_decodings(witness, words) >= 2, f"witness {witness} decodes at most one way"),
        )

    return Op("check-ud", label, ("check-ud", code, "--machine"), 1, check)


def _fuzz_op(label: str, trials: int, seed: int) -> Op:
    def check(status: int, out: str) -> str | None:
        f = fields(out)
        return _first_problem(
            (status == 0, f"exit status {status}"),
            (f.get("trials") == str(trials), f"trials={f.get('trials')}"),
            (f.get("violations") == "0", f"violations={f.get('violations')}"),
        )

    argv = ("fuzz", "--trials", str(trials), "--seed", str(seed), "--machine")
    return Op("fuzz", label, argv, trials, check)


# --- workloads ---


def certify_large(rng: random.Random, d: Path) -> Workload:
    """Huffman-shaped prefix codes, their suffix-code reversals, a two-codeword
    variant and a dyadic source, certified at a few hundred to a thousand symbols."""
    ops: list[Op] = []
    for name, n, r, reverse, radices in (
        ("bin", 384, 2, False, (2,)),
        ("ter", 1000, 3, False, (3, 16)),
        ("bin-suffix", 256, 2, True, (16,)),
        ("ter-suffix", 384, 3, True, (3,)),
    ):
        weights, total = _weights(rng, n, DENOMINATOR_BITS)
        probs = [Fraction(w, total) for w in weights]
        symbols = _symbols(n)
        lengths = reference.huffman_lengths(weights, r)
        words = reference.canonical_code(lengths, r)
        if reverse:
            words = [w[::-1] for w in words]
        src = _write_source(d / f"{name}.src", symbols, probs)
        code = _write_code(d / f"{name}.code", r, symbols, [[w] for w in words])
        for radix in radices:
            ops.append(_huffman_op(f"huffman {name} n={n} r={radix}", src, symbols, weights, total, radix))
        ops.append(_certify_op(f"certify {name} n={n}", src, code, probs, lengths, r))

    # two codewords per symbol: leaves of a Huffman-shaped code on 2n weights,
    # paired at random, so the chain runs on the minimal reduction
    n = 256
    weights, total = _weights(rng, n, DENOMINATOR_BITS)
    probs = [Fraction(w, total) for w in weights]
    leaves = reference.canonical_code(reference.huffman_lengths(_weights(rng, 2 * n, 32)[0], 2), 2)
    rng.shuffle(leaves)
    pairs = [leaves[2 * i : 2 * i + 2] for i in range(n)]
    symbols = _symbols(n)
    src = _write_source(d / "pair.src", symbols, probs)
    code = _write_code(d / "pair.code", 2, symbols, pairs)
    lengths = [min(len(w) for w in ws) for ws in pairs]
    ops.append(_certify_op(f"certify pair n={n}", src, code, probs, lengths, 2))

    # dyadic source on a random full binary tree: the Equality branch
    words = _split_tree(rng, 256, 2)
    probs = [Fraction(1, 2 ** len(w)) for w in words]
    symbols = _symbols(len(words))
    src = _write_source(d / "dyadic.src", symbols, probs)
    code = _write_code(d / "dyadic.code", 2, symbols, [[w] for w in words])
    denominator = max(p.denominator for p in probs)
    scaled = [p.numerator * denominator // p.denominator for p in probs]
    ops.append(_huffman_op(f"huffman dyadic n={len(words)} r=2", src, symbols, scaled, denominator, 2))
    ops.append(_certify_op(f"certify dyadic n={len(words)}", src, code, probs, [len(w) for w in words], 2))
    return Workload(tuple(ops), "certify")


def fuzz_small(rng: random.Random, d: Path) -> Workload:
    """`fuzz` batches; the trials themselves come from codecert's generator."""
    ops = tuple(
        _fuzz_op(f"fuzz trials={FUZZ_TRIALS} #{k}", FUZZ_TRIALS, rng.getrandbits(63))
        for k in range(FUZZ_CALLS)
    )
    return Workload(ops, "fuzz")


def simulate_stream(rng: random.Random, d: Path) -> Workload:
    """A small alphabet with several codewords per symbol and a rational policy,
    and a thousand-symbol alphabet with one codeword each."""
    ops: list[Op] = []

    n = 5
    weights, total = _weights(rng, n, DENOMINATOR_BITS)
    probs = [Fraction(w, total) for w in weights]
    leaves = _split_tree(rng, 12, 2)
    rng.shuffle(leaves)
    groups = [leaves[2 * i : 2 * i + 2] for i in range(n)]
    for leaf in leaves[2 * n :]:
        groups[rng.randrange(n)].append(leaf)
    policy = []
    for ws in groups:
        cuts = sorted(rng.sample(range(1, 12), len(ws) - 1))
        policy.append([Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])])
    symbols = _symbols(n)
    src = _write_source(d / "small.src", symbols, probs)
    code = _write_code(d / "small.code", 2, symbols, groups, policy)
    lengths = [[len(w) for w in ws] for ws in groups]
    for k in range(2):
        ops.append(
            _simulate_op(f"simulate small n={n} #{k}", src, code, probs, lengths, policy, 20000, rng.getrandbits(63))
        )

    n = 1000
    weights, total = _weights(rng, n, DENOMINATOR_BITS)
    probs = [Fraction(w, total) for w in weights]
    words = reference.canonical_code(reference.huffman_lengths(weights, 2), 2)
    symbols = _symbols(n)
    src = _write_source(d / "large.src", symbols, probs)
    code = _write_code(d / "large.code", 2, symbols, [[w] for w in words])
    lengths = [[len(w)] for w in words]
    ones = [[Fraction(1)]] * n
    for k in range(2):
        ops.append(
            _simulate_op(f"simulate large n={n} #{k}", src, code, probs, lengths, ones, 8000, rng.getrandbits(63))
        )
    return Workload(tuple(ops), "simulate")


def decide_ud(rng: random.Random, d: Path) -> Workload:
    """Large suffix codes, codes with a planted short ambiguity, and complete
    ternary codes with several codewords per symbol."""
    ops: list[Op] = []
    for name, n, r in (("bin", 500, 2), ("ter", 500, 3)):
        weights, _ = _weights(rng, n, DENOMINATOR_BITS)
        words = [w[::-1] for w in reference.canonical_code(reference.huffman_lengths(weights, r), r)]
        mapping = {s: [_word(w)] for s, w in zip(_symbols(n), words)}
        code = _write_code(d / f"suffix-{name}.code", r, list(mapping), [[w] for w in words])
        ops.append(_check_ud_op(f"check-ud suffix {name} n={n}", code, mapping, None))

    # a suffix code plus one word that is the concatenation of its two shortest
    # words; suffix-freeness keeps that word out of the code itself
    for name, n, r in (("bin", 40, 2), ("ter", 40, 3)):
        weights, _ = _weights(rng, n, 32)
        words = [w[::-1] for w in reference.canonical_code(reference.huffman_lengths(weights, r), r)]
        a, b = sorted(words, key=lambda w: (len(w), w))[:2]
        planted = a + b
        words.append(planted)
        mapping = {s: [_word(w)] for s, w in zip(_symbols(n + 1), words)}
        code = _write_code(d / f"planted-{name}.code", r, list(mapping), [[w] for w in words])
        ops.append(_check_ud_op(f"check-ud planted {name} n={n + 1}", code, mapping, _word(planted)))

    # complete ternary codes: the three one-digit words shared by two symbols,
    # which makes every one of the 3^12 strings a parse, and one word of length
    # 1 with six of length 2 over three symbols. The seed picks digits and
    # owners only; the length multiset, and so the search's work, is fixed.
    short = rng.randrange(3)
    two_level = [(short,)] + [(a, b) for a in range(3) if a != short for b in range(3)]
    for name, paths, symbols in (("flat", [(0,), (1,), (2,)], 2), ("two-level", two_level, 3)):
        rng.shuffle(paths)
        groups = [paths[i::symbols] for i in range(symbols)]
        mapping = {s: [_word(w) for w in ws] for s, ws in zip(_symbols(symbols), groups)}
        code = _write_code(d / f"complete-{name}.code", 3, list(mapping), groups)
        ops.append(_check_ud_op(f"check-ud complete {name} words={len(paths)}", code, mapping, None))
    return Workload(tuple(ops), "check-ud")


WORKLOADS: dict[str, Callable[[random.Random, Path], Workload]] = {
    "certify-large": certify_large,
    "fuzz-small": fuzz_small,
    "simulate-stream": simulate_stream,
    "decide-ud": decide_ud,
}


def build(name: str, seed: int, d: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into d and return its operations."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), d)
