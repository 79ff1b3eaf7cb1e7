"""Command line front end.

Subcommands map one-to-one onto library operations:

  entropy SOURCE [--radix R]          base-r entropy of a source file
  acl SOURCE CODE                     average codeword length
  kraft [CODE | --lengths L --radix R]  Kraft sum and bound check
  check-ud CODE [--max-len N]         unique decipherability + witness
  check-prefix CODE                   prefix-freeness
  build-code --lengths L --radix R    instantaneous code with given lengths
  huffman SOURCE [--radix R]          optimal instantaneous code
  certify SOURCE CODE [--max-len N]   merge-chain certificate for H <= ACL
  simulate SOURCE CODE [--t N --seed S]  empirical ACL_t along a stream
  fuzz [--trials N --seed S --tol E]  randomized certificate checking
  check-ineq --probs P [--radix R]    the three closing inequality checks

--max-len caps the length of the ambiguous digit string (the witness)
that is reported; it must be at least 0, and is checked before any
search. It does not bound the work: check-ud decides unique
decipherability exactly, so a code whose shortest witness is longer than
the cap is reported undecipherable, with no witness, and exits 1.
--seed is an integer in 0..2^64-1 for every subcommand. simulate encodes
the stream once and reads its pathwise floor off that trace: a step where
fewer digits were emitted than the same symbols' shortest codewords take
is a violation, counted on integers.

Exit codes: 0 when the computation succeeds and every checked property
holds; 1 when a verified property fails (ambiguous code, Kraft excess,
fuzz counterexample, pathwise bound breach); 2 on malformed input; 3 when
the run exhausts memory or the recursion limit. Reports of status 2 and
3 go to stderr as one `error: ...` line, all others to stdout.
--machine switches the report to one key=value pair per line, stable
across runs for fixed inputs and seed.

Source files hold one `<symbol> <probability>` pair per line, where the
probability is a rational like 3/10 or a finite decimal; `#` starts a
comment line. Numerals in files, --lengths, --probs, --tol and the integer
options (--radix, --max-len, --seed, --t, --trials) are ASCII, no `_`, and
each has at most 4,300 digits, an exponent counting as that many zeros;
--tol is a finite number.
Code files start with `radix <r>`, then per line
`<symbol> <codeword>[,<codeword>...]`, optionally followed by
`@ q1,q2,...` choice weights; `-` denotes the empty codeword. A codeword
is written one digit per character (`0110`) when every digit is at most
9, and otherwise as dot-separated digits (`3.11`, and `10.` for the
one-digit word 10). The parsers check this syntax; what the entries mean
is checked by the Source, Code and EncodingPolicy types, each error
located at the file and, for an error within one line, the line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .codes import (
    Code,
    Codeword,
    EncodingPolicy,
    _check_code_radix,
    acl_exact,
    empirical_acl,
    kraft_sum,
    minimal_reduction,
)
from .decipher import (
    DEFAULT_UD_BUDGET,
    _check_budget,
    construct_instantaneous,
    huffman,
    is_prefix_free,
    ud_counterexample,
)
from .errors import CodecertError, KraftViolated, NotUniquelyDecipherable, ParseError
from .proof import (
    RationalWeights,
    certify,
    check_group_inequality,
    check_pp_inequalities,
    check_rational_ghm,
    format_certificate,
)
from .randgen import random_group, random_prefix_code, random_source, reversed_code, trial_rng
from .source import REFERENCE_SEED, Source, _check_numeral, _integer_masses, _quote, entropy, parse_rational

DELTA_CAP = 1e-12


# --- file parsing ---


def _significant_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(str(e), path=path) from None
    out = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            out.append((lineno, text))
    return out


def _at(path: str, line: int | list[int] | None, parse, *args):
    """parse(*args), reporting a CodecertError or ValueError as a ParseError at path[:line];
    given a table's entry lines, at the line of the entry the error names (source._check_entries)."""
    try:
        return parse(*args)
    except (CodecertError, ValueError) as e:
        if isinstance(line, list):
            line = line[e.entry] if hasattr(e, "entry") else None
        raise ParseError(str(e), path=path, line=line) from None


def _source_entry(text: str) -> tuple[str, Fraction]:
    tokens = text.split()
    if len(tokens) != 2:
        raise ValueError(f"expected '<symbol> <probability>', got {_quote(text)}")
    return tokens[0], parse_rational(tokens[1])


def parse_source_file(path: str) -> Source:
    lines = _significant_lines(path)
    entries = [_at(path, lineno, _source_entry, text) for lineno, text in lines]
    if not entries:
        raise ParseError("no source entries found", path=path)
    symbols, probs = zip(*entries)
    return _at(path, [lineno for lineno, _ in lines], Source, symbols, probs)


def _code_header(text: str) -> int:
    tokens = text.split()
    if len(tokens) != 2 or tokens[0] != "radix" or not (tokens[1].isascii() and tokens[1].isdigit()):
        raise ValueError(f"expected header 'radix <r>', got {_quote(text)}")
    _check_numeral(tokens[1])
    r = int(tokens[1])
    _check_code_radix(r)
    return r


def _code_entry(text: str) -> tuple[str, tuple[Codeword, ...], tuple[Fraction, ...]]:
    body, _, weight_text = text.partition("@")
    tokens = body.split()
    if len(tokens) != 2:
        raise ValueError(f"expected '<symbol> <codewords> [@ weights]', got {_quote(text)}")
    symbol, words_text = tokens
    words = tuple(Codeword.parse(w) for w in words_text.split(","))
    if not weight_text.strip():
        return symbol, words, ()
    qs = tuple(parse_rational(q) for q in weight_text.split(","))
    if len(qs) != len(words):
        raise ValueError(f"{len(qs)} weights for {len(words)} codewords")
    return symbol, words, qs


def parse_code_file(path: str) -> tuple[Code, EncodingPolicy | None]:
    lines = _significant_lines(path)
    if not lines:
        raise ParseError("no code entries found", path=path)
    r = _at(path, lines[0][0], _code_header, lines[0][1])
    linenos = [lineno for lineno, _ in lines[1:]]
    entries = [_at(path, lineno, _code_entry, text) for lineno, text in lines[1:]]
    if not entries:
        raise ParseError("code file has a header but no codewords", path=path)
    code = _at(path, linenos, Code, r, tuple((symbol, words) for symbol, words, _ in entries))
    weights = tuple((symbol, qs) for symbol, _, qs in entries if qs)
    weight_lines = [lineno for lineno, (_, _, qs) in zip(linenos, entries) if qs]
    return code, _at(path, weight_lines, EncodingPolicy, weights) if weights else None


def _integer(text: str) -> int:
    """An integer in ASCII digits; int() also reads '_' and other scripts' digits."""
    if text.isascii() and "_" not in text:
        try:
            _check_numeral(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not an integer: {_quote(text)}")


def _budget(text: str) -> int:
    """A --max-len value, an integer of at least 0.

    A negative value raises ParseError rather than ArgumentTypeError:
    argparse passes it through to main, which reports it as one line.
    """
    value = _integer(text)
    try:
        _check_budget(value)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return value


def _finite(text: str) -> float:
    """A finite number in ASCII of at most MAX_NUMERAL_DIGITS digits; float()
    also reads '_', other scripts' digits, 'inf' and 'nan'."""
    if text.isascii() and "_" not in text:
        try:
            _check_numeral(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
    raise argparse.ArgumentTypeError(f"not a finite number: {_quote(text)}")


def _parse_lengths(text: str) -> list[int]:
    parts = text.split(",")
    for part in parts:
        _check_numeral(part)
    try:
        return list(map(_integer, parts))
    except argparse.ArgumentTypeError:
        raise ParseError(f"lengths must be comma-separated integers, got {_quote(text)}") from None


# --- report helpers ---


def _kv(pairs) -> str:
    return "\n".join(f"{k}={v}" for k, v in pairs)


def _code_text(code: Code) -> str:
    lines = [f"radix {code.radix}"]
    for symbol, words in code.mapping:
        lines.append(f"{symbol} {','.join(str(w) for w in words)}")
    return "\n".join(lines)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# --- subcommand handlers ---


def _cmd_entropy(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    h = entropy(src, args.radix)
    if args.machine:
        return 0, _kv([("radix", args.radix), ("H", repr(h))])
    return 0, f"H = {h!r} (radix {args.radix}, {len(src)} symbols)"


def _cmd_acl(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    code, policy = parse_code_file(args.code)
    exact = acl_exact(src, code, policy)
    if args.machine:
        return 0, _kv([("ACL", repr(float(exact))), ("ACL_exact", _frac(exact))])
    return 0, f"ACL = {_frac(exact)} = {float(exact)!r}"


def _cmd_kraft(args: argparse.Namespace) -> tuple[int, str]:
    if (args.code is None) == (args.lengths is None):
        raise ParseError("pass a code file or --lengths (not both)")
    if args.code is not None:
        code, _ = parse_code_file(args.code)
        lengths, r = code.lengths(), code.radix
    else:
        lengths, r = _parse_lengths(args.lengths), args.radix
    total = kraft_sum(lengths, r)
    holds = total <= 1
    if args.machine:
        report = _kv([("kraft", _frac(total)), ("holds", holds)])
    else:
        bound = "within the bound" if holds else "exceeds 1: no decipherable code has these lengths"
        report = f"Kraft sum = {_frac(total)} (radix {r}), {bound}"
    return (0 if holds else 1), report


def _cmd_check_ud(args: argparse.Namespace) -> tuple[int, str]:
    code, _ = parse_code_file(args.code)
    # one exact search; --max-len only caps the witness that is reported
    witness = ud_counterexample(code, None)
    if witness is None:
        if code.is_singleton():
            return 0, _kv([("ud", True)]) if args.machine else "uniquely decipherable"
        if args.machine:
            return 0, _kv([("ud", True), ("budget", args.max_len)])
        return 0, f"no ambiguous digit string within {args.max_len} digits"
    if Codeword.parse(witness).length > args.max_len:
        witness = None
    if args.machine:
        return 1, _kv([("ud", False), ("witness", witness)])
    if witness is None:
        return 1, f"not uniquely decipherable (no witness within {args.max_len} digits)"
    return 1, f"not uniquely decipherable; ambiguous digit string: {witness}"


def _cmd_check_prefix(args: argparse.Namespace) -> tuple[int, str]:
    code, _ = parse_code_file(args.code)
    ok = is_prefix_free(code)
    if args.machine:
        return (0 if ok else 1), _kv([("prefix_free", ok)])
    return (0 if ok else 1), "prefix-free" if ok else "not prefix-free"


def _cmd_build_code(args: argparse.Namespace) -> tuple[int, str]:
    lengths = _parse_lengths(args.lengths)
    try:
        code = construct_instantaneous(lengths, args.radix)
    except KraftViolated as e:
        if args.machine:
            return 1, _kv([("kraft_ok", False), ("kraft", _frac(kraft_sum(lengths, args.radix)))])
        return 1, f"{e}"
    return 0, _code_text(code)


def _cmd_huffman(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    code = huffman(src, args.radix)
    exact = acl_exact(src, code)
    h = entropy(src, args.radix)
    if args.machine:
        pairs = [("radix", code.radix)]
        pairs += [(f"code.{s}", str(words[0])) for s, words in code.mapping]
        pairs += [("ACL", repr(float(exact))), ("ACL_exact", _frac(exact)), ("H", repr(h))]
        return 0, _kv(pairs)
    return 0, _code_text(code) + f"\n# ACL = {_frac(exact)} = {float(exact)!r}\n# H = {h!r}"


def _cmd_certify(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    code, _ = parse_code_file(args.code)
    try:
        cert = certify(src, code)
    except NotUniquelyDecipherable:
        witness = ud_counterexample(minimal_reduction(code), args.max_len)
        if args.machine:
            return 1, _kv([("ud", False), ("witness", witness)])
        tail = f"; ambiguous digit string: {witness}" if witness is not None else ""
        return 1, f"not uniquely decipherable, no certificate{tail}"
    if args.machine:
        return 0, _kv(
            [
                ("verdict", cert.verdict),
                ("H", repr(cert.entropy)),
                ("ACL", repr(cert.acl)),
                ("sum_delta", repr(cert.sum_delta)),
                ("steps", len(cert.steps)),
                ("acl_drop", _frac(cert.acl_drop)),
            ]
        )
    notes = []
    if cert.canonical_code.mapping != minimal_reduction(code).mapping:
        notes.append("# code rebuilt in canonical digit order (same lengths, same ACL)")
    if cert.acl_drop:
        notes.append(
            f"# chain splices shortened the code; certified ACL is lower by {_frac(cert.acl_drop)}"
        )
    return 0, "\n".join(notes + [format_certificate(cert)])


def _cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    code, policy = parse_code_file(args.code)
    trace = empirical_acl(src, code, policy, args.t, args.seed)
    # the floor is each symbol's shortest codeword, on the same stream
    shortest = [words[0].length for words in map(minimal_reduction(code).codewords, src.symbols)]
    excess = accumulate(map(sub, trace.lengths, map(shortest.__getitem__, trace.symbol_indices)))
    violations = sum(map((0).__gt__, excess))
    exact = acl_exact(src, code, policy)
    final = trace.acl_values[-1]
    status = 0 if violations == 0 else 1
    if args.machine:
        return status, _kv(
            [
                ("t", args.t),
                ("seed", args.seed),
                ("acl_t", repr(final)),
                ("ACL", repr(float(exact))),
                ("gap", repr(final - float(exact))),
                ("bound_violations", violations),
            ]
        )
    lines = [
        f"t = {args.t}, seed = {args.seed}",
        f"ACL_t = {final!r}",
        f"ACL = {_frac(exact)} = {float(exact)!r} (gap {final - float(exact)!r})",
        f"pathwise floor violations: {violations}",
    ]
    return status, "\n".join(lines)


def run_fuzz_trial(master_seed: int, k: int, tol: float) -> list[str]:
    """One fuzz trial; returns human-readable violation descriptions."""
    rng = trial_rng(master_seed, k)
    r = 2 + rng.randbelow(4)
    n = 1 + rng.randbelow(12)
    src = random_source(rng, n)
    code = random_prefix_code(rng, r, n)
    if rng.randbelow(4) == 0:
        code = reversed_code(code)

    bad = []
    cert = certify(src, code)
    gap = cert.entropy - cert.acl
    if cert.entropy > cert.acl + tol:
        bad.append(f"H > ACL: {cert.entropy!r} vs {cert.acl!r}")
    if cert.entropy > float(acl_exact(src, code)) + tol:
        bad.append("H exceeds the original code's ACL")
    if abs(cert.sum_delta - gap) > tol:
        bad.append(f"telescoping broke: sum_delta={cert.sum_delta!r} H-ACL={gap!r}")
    if any(step.delta > DELTA_CAP for step in cert.steps):
        bad.append("positive per-step defect")
    if cert.verdict == "Equality" and abs(gap) > tol:
        bad.append(f"verdict {cert.verdict} vs |H-ACL|={abs(gap)!r}")

    probs, freqs = random_group(rng, r)
    group = check_group_inequality(probs, r)
    ghm = check_rational_ghm(RationalWeights(tuple(freqs), r))
    pp = check_pp_inequalities(probs, r)
    if not group.holds:
        bad.append(f"group inequality failed: value={group.value!r}")
    if not ghm.holds:
        bad.append("integer GM-HM oracle failed")
    if group.holds != ghm.holds:
        bad.append("log-space and integer checkers disagree")
    if not pp.ineq_a or pp.ineq_b is False:
        bad.append("power-product inequality failed")
    return [f"trial {k} (r={r} n={n}): {msg}" for msg in bad]


def _cmd_fuzz(args: argparse.Namespace) -> tuple[int, str]:
    if not args.tol > 0:
        raise ValueError(f"tolerance must be positive, got {args.tol}")
    if args.trials < 1:
        raise ValueError(f"need at least one trial, got {args.trials}")
    failures = []
    for k in range(args.trials):
        failures.extend(run_fuzz_trial(args.seed, k, args.tol))
    if args.machine:
        report = _kv([("trials", args.trials), ("seed", args.seed), ("violations", len(failures))])
        if failures:
            report += "\n" + "\n".join(f"violation={line}" for line in failures[:20])
    else:
        report = f"trials = {args.trials}, seed = {args.seed}, violations = {len(failures)}"
        if failures:
            report += "\n" + "\n".join(failures[:20])
    return (0 if not failures else 1), report


def _cmd_check_ineq(args: argparse.Namespace) -> tuple[int, str]:
    try:
        probs = [parse_rational(part) for part in args.probs.split(",")]
    except ValueError as e:
        raise ParseError(f"bad probability list: {e}") from None
    group = check_group_inequality(probs, args.radix)
    pp = check_pp_inequalities(probs, args.radix)

    # integer oracle on the same group, scaled by the common denominator; its
    # integers are below (r*F)**F, so it is skipped past 13,000 bits, which
    # bounds the oracle's work and the size of what it prints
    _, freqs = _integer_masses(probs)
    F = sum(freqs)
    small = F * (args.radix * F).bit_length() <= 13_000
    ghm = check_rational_ghm(RationalWeights(tuple(freqs), args.radix)) if small else None

    all_hold = group.holds and pp.ineq_a and pp.ineq_b is not False
    if ghm is not None:
        all_hold = all_hold and ghm.holds
    status = 0 if all_hold else 1

    if args.machine:
        pairs = [
            ("value", repr(group.value)),
            ("group_holds", group.holds),
            ("group_tight", group.tight),
            ("ghm_lhs", _frac(ghm.lhs) if ghm is not None else "None"),
            ("ghm_rhs", _frac(ghm.rhs) if ghm is not None else "None"),
            ("ghm_holds", ghm.holds if ghm is not None else "None"),
            ("pp_a", pp.ineq_a),
            ("pp_b", pp.ineq_b),
        ]
        return status, _kv(pairs)
    lines = [
        f"group product = {group.value!r}, holds: {group.holds}, tight: {group.tight}",
        (
            f"integer oracle: {_frac(ghm.lhs)} >= {_frac(ghm.rhs)} >= 1, holds: {ghm.holds}"
            if ghm is not None
            else "integer oracle: skipped (scaled mass too large)"
        ),
        f"power-product: {pp.ineq_a}"
        + (f", normalized floor 1/s: {pp.ineq_b}" if pp.ineq_b is not None else ""),
    ]
    return status, "\n".join(lines)


# --- argument parsing ---


def build_parser() -> argparse.ArgumentParser:
    # options shared by several subcommands, each with its one default
    def flag(name, **kwargs) -> argparse.ArgumentParser:
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument(name, **kwargs)
        return shared

    common = flag("--machine", action="store_true", help="key=value output")
    radix = flag("--radix", type=_integer, default=2)
    budget = flag("--max-len", type=_budget, default=DEFAULT_UD_BUDGET, help="longest witness reported, in digits")
    seeded = flag("--seed", type=_integer, default=REFERENCE_SEED)

    parser = argparse.ArgumentParser(
        prog="codecert",
        description="entropy, codes, and merge-chain certificates for H <= ACL",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, summary, *shared):
        p = sub.add_parser(name, parents=[common, *shared], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("entropy", _cmd_entropy, "base-r entropy of a source file", radix)
    p.add_argument("source")

    p = command("acl", _cmd_acl, "average codeword length")
    p.add_argument("source")
    p.add_argument("code")

    p = command("kraft", _cmd_kraft, "Kraft sum and bound check", radix)
    p.add_argument("code", nargs="?")
    p.add_argument("--lengths")

    p = command("check-ud", _cmd_check_ud, "unique decipherability", budget)
    p.add_argument("code")

    p = command("check-prefix", _cmd_check_prefix, "prefix-freeness")
    p.add_argument("code")

    p = command("build-code", _cmd_build_code, "instantaneous code from lengths", radix)
    p.add_argument("--lengths", required=True)

    p = command("huffman", _cmd_huffman, "optimal instantaneous code", radix)
    p.add_argument("source")

    p = command("certify", _cmd_certify, "merge-chain certificate", budget)
    p.add_argument("source")
    p.add_argument("code")

    p = command("simulate", _cmd_simulate, "empirical ACL along a stream", seeded)
    p.add_argument("source")
    p.add_argument("code")
    p.add_argument("--t", type=_integer, default=10000)

    p = command("fuzz", _cmd_fuzz, "randomized certificate checking", seeded)
    p.add_argument("--trials", type=_integer, default=1000)
    p.add_argument("--tol", type=_finite, default=1e-9)

    p = command("check-ineq", _cmd_check_ineq, "closing inequality checks", radix)
    p.add_argument("--probs", required=True)

    return parser


#: The parser is stateless across parse_args calls, so one serves every main call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    # an exact fraction can have more digits than Python converts to text by
    # default (4,300 from 3.10.7 on), so the handler runs with no limit; the
    # old one is restored for in-process callers. Input numerals stay within
    # that many digits (source._check_numeral), so none takes quadratic time.
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = _parser().parse_args(argv)
        if old_limit is not None:
            sys.set_int_max_str_digits(0)
        status, report = args.handler(args)
    except (CodecertError, ValueError) as e:
        status, report = 2, f"error: {e}"
    except (MemoryError, RecursionError) as e:
        status, report = 3, f"error: out of memory or recursion depth: {e!r}"
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)
    print(report, file=sys.stderr if status >= 2 else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
