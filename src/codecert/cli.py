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
--seed is an integer in 0..2^64-1 for every subcommand, and --t at most
10^9 (source.MAX_STREAM_LENGTH), checked before any draw. simulate prints
the summary of codes.empirical_acl, which encodes the stream once, a chunk
of 2^14 steps at a time, and adds each chunk's digits to the running sum
before it encodes the next, so its memory does not grow with --t.

Exit codes: 0 when the computation succeeds and every checked property
holds; 1 when a verified property fails (ambiguous code, Kraft excess,
fuzz counterexample); 2 on malformed input; 3 when the run exhausts
memory or the recursion limit. Reports of status 2 and 3 go to stderr as
one `error: ...` line, all others to stdout.
--machine switches the report to one key=value pair per line, stable
across runs for fixed inputs and seed.

Source files hold one `<symbol> <probability>` pair per line, where the
probability is a rational like 3/10 or a finite decimal; `#` starts a
comment line, and a byte order mark at the start of a file is skipped.
Numerals in files, --lengths, --probs, --tol and the integer options
(--radix, --max-len, --seed, --t, --trials) are ASCII, no `_`, and each
has at most 4,300 digits, an exponent counting as that many zeros; --tol
is a finite number.
Code files start with `radix <r>`, then per line
`<symbol> <codeword>[,<codeword>...]`, optionally followed by
`@ q1,q2,...` choice weights; `-` denotes the empty codeword. A codeword
is written one digit per character (`0110`) when every digit is at most
9, and otherwise as dot-separated digits (`3.11`, and `10.` for the
one-digit word 10), and each is read by codes.parse_codeword. The parsers
check this syntax a column at a time; when a column is refused, the same
reader runs on each line alone to name the first faulty one. What the
entries mean is checked by the Source, Code and EncodingPolicy types, each
error located at the file and, for an error within one line, the line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import methodcaller
from typing import Sequence

from .codes import (
    Code,
    EncodingPolicy,
    acl_exact,
    empirical_acl,
    format_codeword,
    kraft_sum,
    minimal_reduction,
    parse_codeword,
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
    _group_inequality,
    _pp_inequalities,
    _rational_ghm,
    certify,
    check_group_inequality,
    check_pp_inequalities,
    check_rational_ghm,
    format_certificate,
)
from .randgen import random_group, random_prefix_code, random_source, reversed_code, trial_rng
from .source import REFERENCE_SEED, Source, _check_numeral, _check_radix, _fraction_masses, _integer_masses, _quote, _ratios, entropy, parse_rational

DELTA_CAP = 1e-12


# --- file parsing ---


def _significant_lines(path: str) -> tuple[list[int], list[str]]:
    """The numbers and stripped texts of the lines that are neither blank nor
    comments. Lines end at '\n', '\r' or '\r\n', as readlines splits them. A
    byte order mark at the start is dropped, as the utf-8-sig codec drops it,
    while a decoding error still gives its byte's position in the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = fh.read()  # with each line end translated to '\n'
    except OSError as e:  # the OS's message, its path quoted by _quote
        raise ParseError(f"[Errno {e.errno}] {e.strerror}: {_quote(path)}") from None
    except UnicodeDecodeError as e:
        raise ParseError(str(e), path=path) from None
    texts = list(map(str.strip, data.removeprefix("\ufeff").split("\n")))
    if not texts[-1]:
        texts.pop()  # the text after the last line end
    if "#" in data or "" in texts:
        linenos = [lineno for lineno, text in enumerate(texts, start=1) if text and text[0] != "#"]
        return linenos, [texts[lineno - 1] for lineno in linenos]
    return list(range(1, len(texts) + 1)), texts


def _at(path: str, lines: list[int], build, *args):
    """build(*args) of a table whose entries are on these lines, reporting a CodecertError or ValueError
    as a ParseError at path, and at the line of the entry it names (source._check_entries)."""
    try:
        return build(*args)
    except (CodecertError, ValueError) as e:
        raise ParseError(str(e), path=path, line=lines[e.entry] if hasattr(e, "entry") else None) from None


def _columns(path: str, linenos: list[int], texts: list[str], read):
    """read(texts), the lines read as whole columns. When that raises, read
    runs again on each line alone, as the one-line slice [text], to report
    the first faulty line as a ParseError at path:line."""
    try:
        return read(texts)
    except (CodecertError, ValueError):
        for lineno, text in zip(linenos, texts):
            try:
                read([text])
            except (CodecertError, ValueError) as e:
                raise ParseError(str(e), path=path, line=lineno) from None
        raise  # not reached while read refuses some line alone whenever it refuses the lines


def _rows(bodies: Sequence[str], expected: str, lines: Sequence[str] | None = None) -> tuple[list[str], list[str]]:
    """The two whitespace-separated tokens of each line's body, as two columns.
    A body with another count of tokens raises ValueError, quoting the first
    such whole line: lines[k], or bodies[k] when the bodies are the lines."""
    if set(map(len, map(str.split, bodies))) != {2}:
        k = next(k for k, body in enumerate(bodies) if len(body.split()) != 2)
        raise ValueError(f"expected {expected}, got {_quote((lines or bodies)[k])}")
    tokens = " ".join(bodies).split()
    return tokens[0::2], tokens[1::2]


def _source_columns(texts: list[str]) -> tuple[list[str], tuple[list[int], list[int]]]:
    """The lines of a source file as a column of symbols and the columns of _ratios of their probabilities."""
    symbols, numerals = _rows(texts, "'<symbol> <probability>'")
    return symbols, _ratios(numerals)


def parse_source_file(path: str) -> Source:
    linenos, texts = _significant_lines(path)
    if not texts:
        raise ParseError("no source entries found", path=path)
    symbols, (nums, dens) = _columns(path, linenos, texts, _source_columns)
    return _at(path, linenos, lambda: Source(tuple(symbols), *_integer_masses(nums, dens)))


def _code_header(text: str) -> int:
    tokens = text.split()
    if len(tokens) != 2 or tokens[0] != "radix" or not (tokens[1].isascii() and tokens[1].isdigit()):
        raise ValueError(f"expected header 'radix <r>', got {_quote(text)}")
    _check_numeral(tokens[1])
    return _check_radix(int(tokens[1]), 1)


def _code_columns(texts: list[str]) -> tuple[list[str], list, dict[int, tuple[Fraction, ...]]]:
    """The lines of a code file past its header as columns of symbols and
    codeword sets, and the weights of the lines that have them, by line index."""
    bodies, weight_texts = texts, ()
    if "@" in "".join(texts):
        bodies, _, weight_texts = zip(*map(methodcaller("partition", "@"), texts))
    symbols, words_texts = _rows(bodies, "'<symbol> <codewords> [@ weights]'", texts)
    if "," in "".join(words_texts):
        word_texts = list(map(str.split, words_texts, repeat(",")))
        words = map(parse_codeword, chain.from_iterable(word_texts))
        word_sets = list(map(tuple, map(islice, repeat(words), map(len, word_texts))))
    else:
        word_sets = list(zip(map(parse_codeword, words_texts)))
    weights = {}
    for k, weight_text in enumerate(weight_texts):
        if weight_text.strip():
            qs = weights[k] = tuple(map(parse_rational, weight_text.split(",")))
            if len(qs) != len(word_sets[k]):
                raise ValueError(f"{len(qs)} weights for {len(word_sets[k])} codewords")
    return symbols, word_sets, weights


def parse_code_file(path: str) -> tuple[Code, EncodingPolicy | None]:
    linenos, texts = _significant_lines(path)
    if not texts:
        raise ParseError("no code entries found", path=path)
    r = _columns(path, linenos[:1], texts[:1], lambda header: _code_header(*header))
    linenos, texts = linenos[1:], texts[1:]
    if not texts:
        raise ParseError("code file has a header but no codewords", path=path)
    symbols, word_sets, weights = _columns(path, linenos, texts, _code_columns)
    code = _at(path, linenos, Code, r, tuple(zip(symbols, word_sets)))
    if not weights:
        return code, None
    policy = tuple((symbols[k], qs) for k, qs in weights.items())
    return code, _at(path, [linenos[k] for k in weights], EncodingPolicy, policy)


def _option_numeral(kind: str, read, text: str, admits=lambda value: True):
    """read(text) of an option's numeral, in ASCII with no '_' and at most
    MAX_NUMERAL_DIGITS digits, when admits(value) holds; int() and float()
    also read '_' and other scripts' digits, and float() 'inf' and 'nan'."""
    if text.isascii() and "_" not in text:
        try:
            _check_numeral(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
        try:
            value = read(text)
        except ValueError:
            pass
        else:
            if admits(value):
                return value
    raise argparse.ArgumentTypeError(f"not {kind}: {_quote(text)}")


_integer = functools.partial(_option_numeral, "an integer", int)
_finite = functools.partial(_option_numeral, "a finite number", float, admits=math.isfinite)


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
    lines = [f"{symbol} {','.join(map(format_codeword, words))}" for symbol, words in code.mapping]
    return "\n".join([f"radix {code.radix}", *lines])


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


def _shown_witness(digits: tuple[int, ...], max_len: int) -> str | None:
    """The witness as text, or None past --max-len, which caps what is shown, never the search."""
    return format_codeword(digits) if len(digits) <= max_len else None


def _cmd_check_ud(args: argparse.Namespace) -> tuple[int, str]:
    code, _ = parse_code_file(args.code)
    digits = ud_counterexample(code)
    if digits is None:
        if code.is_singleton():
            return 0, _kv([("ud", True)]) if args.machine else "uniquely decipherable"
        if args.machine:
            return 0, _kv([("ud", True), ("budget", args.max_len)])
        return 0, f"no ambiguous digit string within {args.max_len} digits"
    witness = _shown_witness(digits, args.max_len)
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
        pairs += [(f"code.{s}", format_codeword(words[0])) for s, words in code.mapping]
        pairs += [("ACL", repr(float(exact))), ("ACL_exact", _frac(exact)), ("H", repr(h))]
        return 0, _kv(pairs)
    return 0, _code_text(code) + f"\n# ACL = {_frac(exact)} = {float(exact)!r}\n# H = {h!r}"


def _cmd_certify(args: argparse.Namespace) -> tuple[int, str]:
    src = parse_source_file(args.source)
    code, _ = parse_code_file(args.code)
    try:
        cert = certify(src, code)
    except NotUniquelyDecipherable as e:
        witness = _shown_witness(e.witness, args.max_len)
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
    final = empirical_acl(src, code, policy, args.t, args.seed).acl_t
    exact = acl_exact(src, code, policy)
    # the floor counts are 0 on every input: no codeword is shorter than its symbol's shortest
    if args.machine:
        return 0, _kv(
            [
                ("t", args.t),
                ("seed", args.seed),
                ("acl_t", repr(final)),
                ("ACL", repr(float(exact))),
                ("gap", repr(final - float(exact))),
                ("bound_violations", 0),
            ]
        )
    lines = [
        f"t = {args.t}, seed = {args.seed}",
        f"ACL_t = {final!r}",
        f"ACL = {_frac(exact)} = {float(exact)!r} (gap {final - float(exact)!r})",
        "pathwise floor violations: 0",
    ]
    return 0, "\n".join(lines)


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

    # the checks' cores on the group's integer masses, which random_group draws valid
    probs, freqs = random_group(rng, r)
    masses, d = _fraction_masses(probs)
    group, ghm, pp = _group_inequality(masses, d, r), _rational_ghm(freqs, r), _pp_inequalities(masses, d, r)
    if not group.holds:
        bad.append(f"group inequality failed: value={group.value!r}")
    if not ghm:
        bad.append("integer GM-HM oracle failed")
    if group.holds != ghm:
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

    # skipped past its size bound; check_group_inequality refused every other bad group
    try:
        ghm = check_rational_ghm(probs, args.radix)
    except ValueError:
        ghm = None

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
