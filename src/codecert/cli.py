"""Command line front end.

Subcommands map one-to-one onto library operations:

  entropy SOURCE [--radix R]          base-r entropy of a source file
  acl SOURCE CODE                     average codeword length
  kraft [CODE | --lengths L --radix R]  Kraft sum and bound check
  check-ud CODE [--max-len N]         unique decipherability + witness
  check-prefix CODE                   prefix-freeness
  build-code --lengths L --radix R    instantaneous code with given lengths
  huffman SOURCE [--radix R]          optimal instantaneous code
  certify SOURCE CODE                 merge-chain certificate for H <= ACL
  simulate SOURCE CODE [--t N --seed S]  empirical ACL_t along a stream
  fuzz [--trials N --seed S --tol E]  randomized certificate checking
  check-ineq --probs P [--radix R]    the three closing inequality checks

Exit codes: 0 when the computation succeeds and every checked property
holds; 1 when a verified property fails (ambiguous code, Kraft excess,
fuzz counterexample, pathwise bound breach); 2 on malformed input.
--machine switches the report to one key=value pair per line, stable
across runs for fixed inputs and seed.

Source files hold one `<symbol> <probability>` pair per line, where the
probability is a rational like 3/10 or a finite decimal; `#` starts a
comment line. Code files start with `radix <r>`, then per line
`<symbol> <codeword>[,<codeword>...]`, optionally followed by
`@ q1,q2,...` choice weights; `-` denotes the empty codeword.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .codes import (
    Code,
    Codeword,
    EncodingPolicy,
    acl_exact,
    empirical_acl,
    kraft_sum,
    minimal_reduction,
)
from .decipher import (
    DEFAULT_UD_BUDGET,
    construct_instantaneous,
    huffman,
    is_prefix_free,
    is_uniquely_decipherable,
    ud_counterexample,
)
from .errors import (
    CodecertError,
    KraftViolated,
    NotUniquelyDecipherable,
    ParseError,
    ProbabilitySumNotOne,
)
from .proof import (
    RationalWeights,
    certify,
    check_group_inequality,
    check_pp_inequalities,
    check_rational_ghm,
    format_certificate,
)
from .randgen import random_group, random_prefix_code, random_source, reversed_code, trial_rng
from .source import REFERENCE_SEED, Source, entropy, make_source, parse_rational

DELTA_CAP = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; `dispatch` turns it into an exit status."""

    subcommand: str
    source_path: str | None = None
    code_path: str | None = None
    radix: int = 2
    seed: int = REFERENCE_SEED
    trials: int = 1000
    t: int = 10000
    tol: float = 1e-9
    machine: bool = False
    max_len: int = DEFAULT_UD_BUDGET
    lengths: tuple[int, ...] | None = None
    probs: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")


# --- file parsing ---


def _significant_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise ParseError(str(e), path=path) from None
    out = []
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            out.append((lineno, text))
    return out


def parse_source_file(path: str) -> Source:
    symbols, probs = [], []
    for lineno, text in _significant_lines(path):
        tokens = text.split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected '<symbol> <probability>', got {text!r}", path=path, line=lineno
            )
        symbol, prob_text = tokens
        try:
            p = parse_rational(prob_text)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(str(e), path=path, line=lineno) from None
        if symbol in symbols:
            raise ParseError(f"symbol {symbol!r} listed twice", path=path, line=lineno)
        if p <= 0:
            raise ParseError(f"probability must be positive, got {p}", path=path, line=lineno)
        symbols.append(symbol)
        probs.append(p)
    if not symbols:
        raise ParseError("no source entries found", path=path)
    try:
        return make_source(symbols, probs)
    except ProbabilitySumNotOne as e:
        raise ProbabilitySumNotOne(f"{path}: {e}") from None


def parse_code_file(path: str) -> tuple[Code, EncodingPolicy | None]:
    lines = _significant_lines(path)
    if not lines:
        raise ParseError("no code entries found", path=path)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != "radix" or not tokens[1].isdigit():
        raise ParseError(f"expected header 'radix <r>', got {header!r}", path=path, line=lineno)
    r = int(tokens[1])
    if r < 1:
        raise ParseError(f"radix must be at least 1, got {r}", path=path, line=lineno)

    mapping: list[tuple[str, tuple[Codeword, ...]]] = []
    weights: list[tuple[str, tuple[Fraction, ...]]] = []
    seen = set()
    for lineno, text in lines[1:]:
        body, _, weight_text = text.partition("@")
        tokens = body.split()
        if len(tokens) != 2:
            raise ParseError(
                f"expected '<symbol> <codewords> [@ weights]', got {text!r}",
                path=path,
                line=lineno,
            )
        symbol, words_text = tokens
        if symbol in seen:
            raise ParseError(f"symbol {symbol!r} listed twice", path=path, line=lineno)
        seen.add(symbol)
        words = []
        for word_text in words_text.split(","):
            try:
                w = Codeword.parse(word_text)
            except ValueError as e:
                raise ParseError(str(e), path=path, line=lineno) from None
            for d in w.digits:
                if d >= r:
                    raise ParseError(f"digit {d} >= radix {r}", path=path, line=lineno)
            words.append(w)
        if len(set(words)) != len(words):
            raise ParseError(f"symbol {symbol!r} repeats a codeword", path=path, line=lineno)
        mapping.append((symbol, tuple(words)))
        if weight_text.strip():
            try:
                qs = tuple(parse_rational(q.strip()) for q in weight_text.split(","))
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(str(e), path=path, line=lineno) from None
            if len(qs) != len(words):
                raise ParseError(
                    f"{len(qs)} weights for {len(words)} codewords", path=path, line=lineno
                )
            if any(q <= 0 for q in qs) or sum(qs, Fraction(0)) != 1:
                raise ParseError(
                    "weights must be positive and sum to exactly 1", path=path, line=lineno
                )
            weights.append((symbol, qs))
    if not mapping:
        raise ParseError("code file has a header but no codewords", path=path)
    code = Code(r, tuple(mapping))
    policy = EncodingPolicy(tuple(weights)) if weights else None
    return code, policy


def parse_inputs(source_path: str, code_path: str) -> tuple[Source, Code, EncodingPolicy | None]:
    src = parse_source_file(source_path)
    code, policy = parse_code_file(code_path)
    return src, code, policy


def _parse_lengths(text: str) -> list[int]:
    try:
        lengths = [int(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"lengths must be comma-separated integers, got {text!r}") from None
    if any(l < 0 for l in lengths):
        raise ParseError("codeword lengths are non-negative")
    return lengths


def _parse_probs(text: str) -> list[Fraction]:
    try:
        probs = [parse_rational(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad probability list: {e}") from None
    return probs


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


def _cmd_entropy(cfg: RunConfig) -> tuple[int, str]:
    src = parse_source_file(cfg.source_path)
    h = entropy(src, cfg.radix)
    if cfg.machine:
        return 0, _kv([("radix", cfg.radix), ("H", repr(h))])
    return 0, f"H = {h!r} (radix {cfg.radix}, {len(src)} symbols)"


def _cmd_acl(cfg: RunConfig) -> tuple[int, str]:
    src, code, policy = parse_inputs(cfg.source_path, cfg.code_path)
    exact = acl_exact(src, code, policy)
    if cfg.machine:
        return 0, _kv([("ACL", repr(float(exact))), ("ACL_exact", _frac(exact))])
    return 0, f"ACL = {_frac(exact)} = {float(exact)!r}"


def _cmd_kraft(cfg: RunConfig) -> tuple[int, str]:
    if (cfg.code_path is None) == (cfg.lengths is None):
        raise ParseError("pass a code file or --lengths (not both)")
    if cfg.code_path is not None:
        code, _ = parse_code_file(cfg.code_path)
        lengths, r = code.lengths(), code.radix
    else:
        lengths, r = list(cfg.lengths), cfg.radix
    total = kraft_sum(lengths, r)
    holds = total <= 1
    if cfg.machine:
        report = _kv([("kraft", _frac(total)), ("holds", holds)])
    else:
        bound = "within the bound" if holds else "exceeds 1: no decipherable code has these lengths"
        report = f"Kraft sum = {_frac(total)} (radix {r}), {bound}"
    return (0 if holds else 1), report


def _cmd_check_ud(cfg: RunConfig) -> tuple[int, str]:
    code, _ = parse_code_file(cfg.code_path)
    singleton = code.is_singleton()
    if singleton and is_uniquely_decipherable(code):
        return 0, _kv([("ud", True)]) if cfg.machine else "uniquely decipherable"
    # A singleton code that gets here is ambiguous and the search only looks
    # for a witness. With several codewords per symbol the search is the
    # whole decision, so a clean verdict is bounded by the digit budget.
    witness = ud_counterexample(code, cfg.max_len)
    if witness is None and not singleton:
        if cfg.machine:
            return 0, _kv([("ud", True), ("budget", cfg.max_len)])
        return 0, f"no ambiguous digit string within {cfg.max_len} digits"
    if cfg.machine:
        return 1, _kv([("ud", False), ("witness", witness)])
    if witness is None:
        return 1, f"not uniquely decipherable (no witness within {cfg.max_len} digits)"
    return 1, f"not uniquely decipherable; ambiguous digit string: {witness}"


def _cmd_check_prefix(cfg: RunConfig) -> tuple[int, str]:
    code, _ = parse_code_file(cfg.code_path)
    ok = is_prefix_free(code)
    if cfg.machine:
        return (0 if ok else 1), _kv([("prefix_free", ok)])
    return (0 if ok else 1), "prefix-free" if ok else "not prefix-free"


def _cmd_build_code(cfg: RunConfig) -> tuple[int, str]:
    if cfg.lengths is None:
        raise ParseError("build-code requires --lengths")
    try:
        code = construct_instantaneous(list(cfg.lengths), cfg.radix)
    except KraftViolated as e:
        if cfg.machine:
            return 1, _kv([("kraft_ok", False), ("kraft", _frac(kraft_sum(cfg.lengths, cfg.radix)))])
        return 1, f"{e}"
    return 0, _code_text(code)


def _cmd_huffman(cfg: RunConfig) -> tuple[int, str]:
    src = parse_source_file(cfg.source_path)
    code = huffman(src, cfg.radix)
    exact = acl_exact(src, code)
    h = entropy(src, cfg.radix)
    if cfg.machine:
        pairs = [("radix", code.radix)]
        pairs += [(f"code.{s}", str(words[0])) for s, words in code.mapping]
        pairs += [("ACL", repr(float(exact))), ("ACL_exact", _frac(exact)), ("H", repr(h))]
        return 0, _kv(pairs)
    return 0, _code_text(code) + f"\n# ACL = {_frac(exact)} = {float(exact)!r}\n# H = {h!r}"


def _cmd_certify(cfg: RunConfig) -> tuple[int, str]:
    src, code, _ = parse_inputs(cfg.source_path, cfg.code_path)
    try:
        cert = certify(src, code)
    except NotUniquelyDecipherable:
        witness = ud_counterexample(minimal_reduction(code), cfg.max_len)
        if cfg.machine:
            return 1, _kv([("ud", False), ("witness", witness)])
        tail = f"; ambiguous digit string: {witness}" if witness is not None else ""
        return 1, f"not uniquely decipherable, no certificate{tail}"
    if cfg.machine:
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


def _cmd_simulate(cfg: RunConfig) -> tuple[int, str]:
    src, code, policy = parse_inputs(cfg.source_path, cfg.code_path)
    trace = empirical_acl(src, code, policy, cfg.t, cfg.seed)
    floor = empirical_acl(src, minimal_reduction(code), None, cfg.t, cfg.seed)
    violations = sum(1 for a, b in zip(trace.acl_values, floor.acl_values) if a < b)
    exact = acl_exact(src, code, policy)
    final = trace.acl_values[-1]
    status = 0 if violations == 0 else 1
    if cfg.machine:
        return status, _kv(
            [
                ("t", cfg.t),
                ("seed", cfg.seed),
                ("acl_t", repr(final)),
                ("ACL", repr(float(exact))),
                ("gap", repr(final - float(exact))),
                ("bound_violations", violations),
            ]
        )
    lines = [
        f"t = {cfg.t}, seed = {cfg.seed}",
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
    if (cert.verdict == "Equality") != (abs(gap) <= tol):
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


def _cmd_fuzz(cfg: RunConfig) -> tuple[int, str]:
    failures = []
    for k in range(cfg.trials):
        failures.extend(run_fuzz_trial(cfg.seed, k, cfg.tol))
    if cfg.machine:
        report = _kv([("trials", cfg.trials), ("seed", cfg.seed), ("violations", len(failures))])
        if failures:
            report += "\n" + "\n".join(f"violation={line}" for line in failures[:20])
    else:
        report = f"trials = {cfg.trials}, seed = {cfg.seed}, violations = {len(failures)}"
        if failures:
            report += "\n" + "\n".join(failures[:20])
    return (0 if not failures else 1), report


def _cmd_check_ineq(cfg: RunConfig) -> tuple[int, str]:
    if not cfg.probs:
        raise ParseError("check-ineq requires --probs")
    probs = list(cfg.probs)
    group = check_group_inequality(probs, cfg.radix)
    pp = check_pp_inequalities(probs, cfg.radix)

    # integer oracle on the same group, scaled by the common denominator;
    # skipped when the scaled mass is too large to exponentiate
    denom = math.lcm(*(p.denominator for p in probs))
    freqs = [int(p * denom) for p in probs]
    ghm = check_rational_ghm(RationalWeights(tuple(freqs), cfg.radix)) if sum(freqs) <= 4096 else None

    all_hold = group.holds and pp.ineq_a and pp.ineq_b is not False
    if ghm is not None:
        all_hold = all_hold and ghm.holds
    status = 0 if all_hold else 1

    if cfg.machine:
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


_HANDLERS = {
    "entropy": _cmd_entropy,
    "acl": _cmd_acl,
    "kraft": _cmd_kraft,
    "check-ud": _cmd_check_ud,
    "check-prefix": _cmd_check_prefix,
    "build-code": _cmd_build_code,
    "huffman": _cmd_huffman,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "fuzz": _cmd_fuzz,
    "check-ineq": _cmd_check_ineq,
}


def dispatch(cfg: RunConfig) -> tuple[int, str]:
    """Run one configured subcommand, mapping typed errors to exit 2."""
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except (CodecertError, ValueError) as e:
        return 2, f"error: {e}"


# --- argument parsing ---


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", action="store_true", help="key=value output")

    parser = argparse.ArgumentParser(
        prog="codecert",
        description="entropy, codes, and merge-chain certificates for H <= ACL",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("entropy", parents=[common], help="base-r entropy of a source file")
    p.add_argument("source")
    p.add_argument("--radix", type=int, default=2)

    p = sub.add_parser("acl", parents=[common], help="average codeword length")
    p.add_argument("source")
    p.add_argument("code")

    p = sub.add_parser("kraft", parents=[common], help="Kraft sum and bound check")
    p.add_argument("code", nargs="?")
    p.add_argument("--lengths")
    p.add_argument("--radix", type=int, default=2)

    p = sub.add_parser("check-ud", parents=[common], help="unique decipherability")
    p.add_argument("code")
    p.add_argument("--max-len", type=int, default=DEFAULT_UD_BUDGET)

    p = sub.add_parser("check-prefix", parents=[common], help="prefix-freeness")
    p.add_argument("code")

    p = sub.add_parser("build-code", parents=[common], help="instantaneous code from lengths")
    p.add_argument("--lengths", required=True)
    p.add_argument("--radix", type=int, default=2)

    p = sub.add_parser("huffman", parents=[common], help="optimal instantaneous code")
    p.add_argument("source")
    p.add_argument("--radix", type=int, default=2)

    p = sub.add_parser("certify", parents=[common], help="merge-chain certificate")
    p.add_argument("source")
    p.add_argument("code")
    p.add_argument("--max-len", type=int, default=DEFAULT_UD_BUDGET)

    p = sub.add_parser("simulate", parents=[common], help="empirical ACL along a stream")
    p.add_argument("source")
    p.add_argument("code")
    p.add_argument("--t", type=int, default=10000)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)

    p = sub.add_parser("fuzz", parents=[common], help="randomized certificate checking")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("check-ineq", parents=[common], help="closing inequality checks")
    p.add_argument("--probs", required=True)
    p.add_argument("--radix", type=int, default=2)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {"subcommand": args.subcommand, "machine": args.machine}
    if hasattr(args, "source"):
        fields["source_path"] = args.source
    if getattr(args, "code", None) is not None:
        fields["code_path"] = args.code
    for name in ("radix", "seed", "trials", "t", "tol", "max_len"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if getattr(args, "lengths", None) is not None:
        fields["lengths"] = tuple(_parse_lengths(args.lengths))
    if getattr(args, "probs", None) is not None:
        fields["probs"] = tuple(_parse_probs(args.probs))
    return RunConfig(**fields)


#: The parser is stateless across parse_args calls, so one serves every main call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    status, report = dispatch(cfg)
    print(report, file=sys.stderr if status == 2 else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
