"""End-to-end runs of every subcommand through main(argv)."""

import argparse
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import codecert
import codecert.cli as cli
import codecert.codes as codes
import codecert.decipher as decipher
import codecert.source as source_module
from codecert.cli import main, parse_code_file
from codecert.codes import format_codeword, make_code, make_policy, parse_codeword
from codecert.errors import CodecertError, ParseError
from codecert.rng import _CHUNK
from codecert.source import _check_probability, _quote, make_source, parse_rational

DYADIC_SRC = "a 1/2\nb 1/4\nc 1/4\n"
DYADIC_CODE = "radix 2\na 0\nb 10\nc 11\n"
SKEWED_SRC = "a 2/5\nb 3/10\nc 1/5\nd 1/10\n"
SKEWED_CODE = "radix 2\na 0\nb 10\nc 110\nd 111\n"
POLICY_SRC = "a 1/2\nb 1/2\n"
POLICY_CODE = "radix 2\na 0,11 @ 1/2,1/2\nb 10\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# --- entropy / acl ---


def test_entropy(tmp_path, capsys):
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    status, out, _ = run(capsys, "entropy", src)
    assert status == 0
    assert out == "H = 1.5 (radix 2, 3 symbols)"
    status, out, _ = run(capsys, "entropy", src, "--machine")
    assert (status, out) == (0, "radix=2\nH=1.5")


def test_entropy_other_radix(tmp_path, capsys):
    src = write(tmp_path, "s.txt", "x 1/3\ny 1/3\nz 1/3\n")
    status, out, _ = run(capsys, "entropy", src, "--radix", "3", "--machine")
    assert status == 0
    assert out.startswith("radix=3\nH=0.99999999999999")


def test_acl(tmp_path, capsys):
    src = write(tmp_path, "s.txt", SKEWED_SRC)
    code = write(tmp_path, "c.txt", SKEWED_CODE)
    status, out, _ = run(capsys, "acl", src, code)
    assert (status, out) == (0, "ACL = 19/10 = 1.9")
    status, out, _ = run(capsys, "acl", src, code, "--machine")
    assert (status, out) == (0, "ACL=1.9\nACL_exact=19/10")


def test_acl_with_policy_weights(tmp_path, capsys):
    src = write(tmp_path, "s.txt", "a 1/2\nb 1/2\n")
    code = write(tmp_path, "c.txt", "radix 2\na 0,11 @ 1/2,1/2\nb 10\n")
    status, out, _ = run(capsys, "acl", src, code, "--machine")
    assert (status, out) == (0, "ACL=1.75\nACL_exact=7/4")


# --- kraft ---


def test_kraft_from_code_file(tmp_path, capsys):
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    status, out, _ = run(capsys, "kraft", code, "--machine")
    assert (status, out) == (0, "kraft=1/1\nholds=True")


def test_kraft_from_lengths(capsys):
    status, out, _ = run(capsys, "kraft", "--lengths", "1,2,3", "--machine")
    assert (status, out) == (0, "kraft=7/8\nholds=True")
    status, out, _ = run(capsys, "kraft", "--lengths", "1,1,1")
    assert status == 1
    assert "exceeds 1" in out


@pytest.mark.parametrize("flags", [[], ["--machine"]])
def test_kraft_prints_a_fraction_past_the_int_to_str_limit(capsys, flags):
    # the exact sum 1/2^20000 has a 6,021-digit denominator, more than the
    # 4,300 digits Python converts to text by default
    status, out, err = run(capsys, "kraft", "--lengths", "20000", *flags)
    assert (status, err) == (0, "")
    denominator = re.search(r"1/(\d+)", out).group(1)
    assert len(denominator) == 6021
    assert denominator[-100:] == str(pow(2, 20000, 10**100)).zfill(100)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("lengths, expected", [("20000", 0), ("x", 2)])
def test_main_restores_the_int_to_str_limit(capsys, lengths, expected):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "kraft", "--lengths", lengths)[0] == expected
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_kraft_needs_exactly_one_input(tmp_path, capsys):
    status, _, err = run(capsys, "kraft")
    assert status == 2
    assert "code file or --lengths" in err
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    status, _, err = run(capsys, "kraft", code, "--lengths", "1")
    assert status == 2


# --- check-ud / check-prefix ---


def test_check_ud_witness(tmp_path, capsys):
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 01\nc 10\n")
    status, out, _ = run(capsys, "check-ud", code)
    assert status == 1
    assert out == "not uniquely decipherable; ambiguous digit string: 010"
    status, out, _ = run(capsys, "check-ud", code, "--machine")
    assert (status, out) == (1, "ud=False\nwitness=010")


def test_check_ud_budget_hides_witness(tmp_path, capsys):
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 01\nc 10\n")
    status, out, _ = run(capsys, "check-ud", code, "--max-len", "2", "--machine")
    assert (status, out) == (1, "ud=False\nwitness=None")


def test_check_ud_budget_admits_a_witness_of_its_length(tmp_path, capsys):
    # the cap compares against the witness's digits; radix 12 words are dotted
    code = write(tmp_path, "c.txt", "radix 12\na 11.\nb 11.10\nc 10.\n")
    for max_len, witness in (("2", "11.10"), ("1", "None")):
        status, out, _ = run(capsys, "check-ud", code, "--max-len", max_len, "--machine")
        assert (status, out) == (1, f"ud=False\nwitness={witness}")


def test_check_ud_clean(tmp_path, capsys):
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    status, out, _ = run(capsys, "check-ud", code, "--machine")
    assert (status, out) == (0, "ud=True")


def test_check_ud_multi_codeword(tmp_path, capsys):
    code = write(tmp_path, "c.txt", "radix 2\na 0,110,01,10\n")
    status, out, _ = run(capsys, "check-ud", code, "--machine")
    assert (status, out) == (0, "ud=True\nbudget=12")
    bad = write(tmp_path, "bad.txt", "radix 2\na 0,10\nb 01\n")
    status, out, _ = run(capsys, "check-ud", bad, "--machine")
    assert (status, out) == (1, "ud=False\nwitness=010")


def test_check_ud_work_does_not_grow_with_the_budget(tmp_path, capsys):
    # every one of the 4^12 strings of 12 digits parses; none may be held
    code = write(tmp_path, "c.txt", "radix 4\na 0,1\nb 2,3\n")
    tracemalloc.start()
    try:
        for budget in ("12", "1000000"):
            status, out, _ = run(capsys, "check-ud", code, "--max-len", budget, "--machine")
            assert (status, out) == (0, f"ud=True\nbudget={budget}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_check_ud_witness_longer_than_the_budget(tmp_path, capsys):
    # 0^7.0^6 = 0^6.0^7 decodes as ab and as ba; no shorter string is ambiguous
    code = write(tmp_path, "c.txt", "radix 2\na 0000000\nb 000000\n")
    assert run(capsys, "check-ud", code) == (1, "not uniquely decipherable (no witness within 12 digits)", "")
    assert run(capsys, "check-ud", code, "--machine") == (1, "ud=False\nwitness=None", "")
    assert run(capsys, "check-ud", code, "--max-len", "13", "--machine") == (1, f"ud=False\nwitness={'0' * 13}", "")
    # with both words on one symbol, a^6 = a^7 on 0^42 is the shortest ambiguity
    multi = write(tmp_path, "m.txt", "radix 2\na 0000000,000000\n")
    assert run(capsys, "check-ud", multi) == (1, "not uniquely decipherable (no witness within 12 digits)", "")
    assert run(capsys, "check-ud", multi, "--max-len", "41", "--machine") == (1, "ud=False\nwitness=None", "")
    assert run(capsys, "check-ud", multi, "--max-len", "42", "--machine") == (1, f"ud=False\nwitness={'0' * 42}", "")


def test_check_prefix(tmp_path, capsys):
    good = write(tmp_path, "good.txt", DYADIC_CODE)
    status, out, _ = run(capsys, "check-prefix", good, "--machine")
    assert (status, out) == (0, "prefix_free=True")
    bad = write(tmp_path, "bad.txt", "radix 2\na 0\nb 01\n")
    status, out, _ = run(capsys, "check-prefix", bad, "--machine")
    assert (status, out) == (1, "prefix_free=False")


# --- build-code / huffman ---


def test_build_code(capsys):
    status, out, _ = run(capsys, "build-code", "--lengths", "1,2,2")
    assert status == 0
    assert out == "radix 2\ns1 0\ns2 10\ns3 11"


def test_build_code_kraft_violated(capsys):
    status, out, _ = run(capsys, "build-code", "--lengths", "1,1,1", "--machine")
    assert (status, out) == (1, "kraft_ok=False\nkraft=3/2")


def test_build_code_ternary(capsys):
    status, out, _ = run(capsys, "build-code", "--lengths", "1,1,1", "--radix", "3")
    assert (status, out) == (0, "radix 3\ns1 0\ns2 1\ns3 2")


def test_huffman(tmp_path, capsys):
    src = write(tmp_path, "s.txt", SKEWED_SRC)
    status, out, _ = run(capsys, "huffman", src, "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["ACL_exact"] == "19/10"
    assert lines["ACL"] == "1.9"
    assert lines["code.a"] == "0"
    assert lines["code.b"] == "10"
    assert sorted((lines["code.c"], lines["code.d"])) == ["110", "111"]

    status, out, _ = run(capsys, "huffman", src)
    assert status == 0
    assert "# ACL = 19/10 = 1.9" in out


# --- certify ---


def test_certify_equality(tmp_path, capsys):
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    status, out, _ = run(capsys, "certify", src, code, "--machine")
    assert status == 0
    assert out == "\n".join(
        [
            "verdict=Equality",
            "H=1.5",
            "ACL=1.5",
            "sum_delta=0.0",
            "steps=2",
            "acl_drop=0/1",
        ]
    )
    status, out, _ = run(capsys, "certify", src, code)
    assert status == 0
    assert out.splitlines()[-1] == "H=1.5 ACL=1.5 sum_delta=0.0 verdict=Equality"


def test_certify_strict(tmp_path, capsys):
    src = write(tmp_path, "s.txt", SKEWED_SRC)
    code = write(tmp_path, "c.txt", SKEWED_CODE)
    status, out, _ = run(capsys, "certify", src, code, "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["verdict"] == "StrictInequality"
    assert lines["ACL"] == "1.9"
    assert lines["steps"] == "3"
    assert abs(float(lines["sum_delta"]) - (float(lines["H"]) - 1.9)) <= 1e-9


def test_certify_non_ud(tmp_path, capsys):
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 01\nc 10\n")
    status, out, _ = run(capsys, "certify", src, code, "--machine")
    assert (status, out) == (1, "ud=False\nwitness=010")


def test_certify_decides_the_minimal_reduction_not_the_code(tmp_path, capsys):
    # a's second word 1 makes 10 parse as "b" and as "a a", yet the reduction
    # {0, 10, 11} is prefix-free, and the code's bound follows from its reduction's
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", "radix 2\na 0,1\nb 10\nc 11\n")
    assert run(capsys, "check-ud", code, "--machine") == (1, "ud=False\nwitness=10", "")
    status, out, _ = run(capsys, "certify", src, code, "--machine")
    assert (status, out.split("\n")[0]) == (0, "verdict=Equality")


def test_certify_searches_for_the_witness_once(tmp_path, capsys, monkeypatch):
    search, calls = decipher._shortest_ambiguity, []
    monkeypatch.setattr(decipher, "_shortest_ambiguity", lambda code: calls.append(code) or search(code))
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 01\nc 10\n")
    assert run(capsys, "certify", src, code) == (1, "not uniquely decipherable, no certificate; ambiguous digit string: 010", "")
    assert len(calls) == 1
    # --max-len caps the witness shown, not the search
    assert run(capsys, "certify", src, code, "--max-len", "2", "--machine") == (1, "ud=False\nwitness=None", "")
    assert len(calls) == 2


def test_certify_notes_for_rebuilt_code(tmp_path, capsys):
    src = write(tmp_path, "s.txt", "a 2/3\nb 1/3\n")
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 01\n")
    status, out, _ = run(capsys, "certify", src, code)
    assert status == 0
    assert "# code rebuilt in canonical digit order" in out
    assert "# chain splices shortened the code" in out
    assert "certified ACL is lower by 1/3" in out


# --- simulate ---


def test_simulate(tmp_path, capsys):
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    status, out, _ = run(capsys, "simulate", src, code, "--t", "500", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["t"] == "500"
    assert lines["seed"] == "1"
    assert lines["bound_violations"] == "0"
    assert abs(float(lines["acl_t"]) - 1.5) < 0.2
    assert lines["ACL"] == "1.5"


def test_simulate_deterministic(tmp_path, capsys):
    src = write(tmp_path, "s.txt", SKEWED_SRC)
    code = write(tmp_path, "c.txt", SKEWED_CODE)
    first = run(capsys, "simulate", src, code, "--t", "300", "--seed", "9", "--machine")
    second = run(capsys, "simulate", src, code, "--t", "300", "--seed", "9", "--machine")
    assert first == second
    third = run(capsys, "simulate", src, code, "--t", "300", "--seed", "10", "--machine")
    assert third != first


@pytest.mark.parametrize("src_text, code_text", [("a 1\n", "radix 2\na 0\n"), (DYADIC_SRC, DYADIC_CODE)])
def test_simulate_refuses_a_stream_past_the_cap(src_text, code_text, tmp_path, capsys, monkeypatch):
    # refused before any draw: one symbol's t draws were one list of t zeros, and
    # several symbols' draws were appended until memory ran out
    def no_draws(*args):
        raise AssertionError("a draw before t was checked")

    monkeypatch.setattr(source_module, "_draw_chunks", no_draws)
    src = write(tmp_path, "s.txt", src_text)
    code = write(tmp_path, "c.txt", code_text)
    message = f"error: stream length must be at most {source_module.MAX_STREAM_LENGTH:,}"
    assert run(capsys, "simulate", src, code, "--t", "10000000000000000000000") == (2, "", message)


def test_the_stream_cap_admits_a_stream_of_its_own_length(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(source_module, "MAX_STREAM_LENGTH", 5)
    src = write(tmp_path, "s.txt", DYADIC_SRC)
    code = write(tmp_path, "c.txt", DYADIC_CODE)
    assert run(capsys, "simulate", src, code, "--t", "5", "--machine")[0] == 0
    assert run(capsys, "simulate", src, code, "--t", "6") == (2, "", "error: stream length must be at most 5")
    dyadic, dyadic_code = make_source("abc", ["1/2", "1/4", "1/4"]), parse_code_file(code)[0]
    assert len(source_module.sample_stream(dyadic, 5, 1)) == 5
    with pytest.raises(ValueError, match="^stream length must be at most 5$"):
        source_module.sample_stream(dyadic, 6, 1)
    with pytest.raises(ValueError, match="^stream length must be at most 5$"):
        codecert.empirical_acl(dyadic, dyadic_code, None, 6, 1)


def test_simulate_with_policy(tmp_path, capsys):
    src = write(tmp_path, "s.txt", POLICY_SRC)
    code = write(tmp_path, "c.txt", POLICY_CODE)
    status, out, _ = run(capsys, "simulate", src, code, "--t", "4000", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["bound_violations"] == "0"
    assert abs(float(lines["acl_t"]) - 1.75) < 0.1


@pytest.mark.parametrize("code_text", ["radix 2\na 0,1 @\nb 10\n", "radix 2\na 0,1\nb 10\n"])
@pytest.mark.parametrize("flags", [[], ["--machine"]])
def test_simulate_multi_codeword_code_without_weights(tmp_path, capsys, code_text, flags):
    src = write(tmp_path, "s.txt", POLICY_SRC)
    code = write(tmp_path, "c.txt", code_text)
    status, out, err = run(capsys, "simulate", src, code, *flags)
    assert (status, out) == (2, "")
    assert err == "error: symbol 'a' has 2 codewords but no policy was given"


# Reports recorded when simulate still encoded the stream a second time,
# with the reduced code, to compare against.
SIMULATE_PINNED = [
    (
        POLICY_SRC,
        POLICY_CODE,
        "--t 4000 --seed 5",
        "t = 4000, seed = 5\nACL_t = 1.7545\nACL = 7/4 = 1.75 (gap 0.0044999999999999485)\n"
        "pathwise floor violations: 0",
    ),
    (
        POLICY_SRC,
        POLICY_CODE,
        "--t 4000 --seed 5 --machine",
        "t=4000\nseed=5\nacl_t=1.7545\nACL=1.75\ngap=0.0044999999999999485\nbound_violations=0",
    ),
    (
        SKEWED_SRC,
        SKEWED_CODE,
        "--t 300 --seed 9",
        "t = 300, seed = 9\nACL_t = 1.99\nACL = 19/10 = 1.9 (gap 0.09000000000000008)\n"
        "pathwise floor violations: 0",
    ),
    (
        SKEWED_SRC,
        SKEWED_CODE,
        "--t 300 --seed 9 --machine",
        "t=300\nseed=9\nacl_t=1.99\nACL=1.9\ngap=0.09000000000000008\nbound_violations=0",
    ),
]


@pytest.mark.parametrize(
    "src_text,code_text,flags,expected",
    SIMULATE_PINNED,
    ids=["policy", "policy-machine", "singleton", "singleton-machine"],
)
def test_simulate_report_pinned(src_text, code_text, flags, expected, tmp_path, capsys):
    src = write(tmp_path, "s.txt", src_text)
    code = write(tmp_path, "c.txt", code_text)
    assert run(capsys, "simulate", src, code, *flags.split()) == (0, expected, "")


def test_simulate_encodes_one_stream(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(codes, "_encode_chunks")
    count(codes, "_index_chunks")
    src = write(tmp_path, "s.txt", POLICY_SRC)
    code = write(tmp_path, "c.txt", POLICY_CODE)
    assert run(capsys, "simulate", src, code, "--t", "100", "--machine")[0] == 0
    assert calls == {"_encode_chunks": 1, "_index_chunks": 1}


# a source whose 'b' has mass 2^-40, so that a seeded stream never draws it
RARE_SRC = "a 1/2\nb 1/1099511627776\nc 549755813887/1099511627776\n"


def test_simulate_refuses_a_policy_gap_before_any_draw(tmp_path, capsys, monkeypatch):
    # a table was built on its symbol's first draw, so a gap on a symbol the
    # stream never draws was refused after the whole stream was drawn
    def no_draws(*args):
        raise AssertionError("a draw before the policy was checked")

    monkeypatch.setattr(source_module, "_draw_chunks", no_draws)
    src = write(tmp_path, "s.txt", RARE_SRC)
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 10,11\nc 110\n")
    message = "error: symbol 'b' has 2 codewords but no policy was given"
    assert run(capsys, "simulate", src, code, "--t", "2000000") == (2, "", message)


def test_simulate_builds_one_table_per_symbol_with_several_codewords(tmp_path, capsys, monkeypatch):
    firsts = []  # the first codeword id of each table built
    window_table = codes._window_table

    def counted(qs, first):
        firsts.append(first)
        return window_table(qs, first)

    monkeypatch.setattr(codes, "_window_table", counted)
    src = write(tmp_path, "s.txt", RARE_SRC)
    code = write(tmp_path, "c.txt", "radix 2\na 0,100 @ 2/3,1/3\nb 10,11 @ 1/2,1/2\nc 110,1110 @ 1/12,11/12\n")
    assert run(capsys, "simulate", src, code, "--t", str(3 * _CHUNK + 7), "--machine")[0] == 0
    assert firsts == [0, 2, 4]  # 'b' too, which the stream never draws


#: Runs main on its arguments, then prints the process's peak resident set in bytes.
PEAK_RSS_SCRIPT = """
import resource, sys
from codecert.cli import main
main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024))
"""


def test_simulate_memory_does_not_grow_with_t():
    # a stream held whole took about 46 bytes a step: 69 MB at t = 10^6
    data = Path(__file__).resolve().parent.parent / "demos" / "data"

    def peak_rss(t):
        argv = ["simulate", str(data / "skewed_source.txt"), str(data / "skewed_code.txt"), "--t", str(t), "--machine"]
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], capture_output=True, text=True)
        assert proc.returncode == 0 and f"t={t}" in proc.stdout.splitlines()
        return int(proc.stdout.splitlines()[-1])

    assert peak_rss(2 * 10**6) - peak_rss(10**4) < 10 * 2**20


def test_simulate_choice_tables_are_bounded(tmp_path):
    # 1,000 tables of 2^16 listed windows each peaked at about 524 MB
    src = write(tmp_path, "s.txt", "".join(f"s{i} 1/1000\n" for i in range(1000)))

    def peak_rss(words):
        code = write(tmp_path, "c.txt", "radix 2\n" + "".join(f"s{i} {words}\n" for i in range(1000)))
        argv = ["simulate", src, code, "--t", "100000", "--machine"]
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], capture_output=True, text=True)
        assert proc.returncode == 0 and "t=100000" in proc.stdout.splitlines()
        return int(proc.stdout.splitlines()[-1])

    assert peak_rss("0,1 @ 1/65536,65535/65536") - peak_rss("0") < 10 * 2**20


# --- fuzz ---


def test_fuzz_clean_and_deterministic(capsys):
    first = run(capsys, "fuzz", "--trials", "40", "--seed", "7", "--machine")
    assert first[0] == 0
    assert first[1] == "trials=40\nseed=7\nviolations=0"
    second = run(capsys, "fuzz", "--trials", "40", "--seed", "7", "--machine")
    assert second == first


def test_fuzz_tolerance_only_loosens_the_checks(capsys):
    # a strict inequality whose gap is within --tol is no violation
    status, out, _ = run(capsys, "fuzz", "--trials", "300", "--seed", "1", "--tol", "2", "--machine")
    assert (status, out) == (0, "trials=300\nseed=1\nviolations=0")


def test_fuzz_human_report(capsys):
    status, out, _ = run(capsys, "fuzz", "--trials", "10", "--seed", "3")
    assert status == 0
    assert out == "trials = 10, seed = 3, violations = 0"


# --- check-ineq ---


def test_check_ineq_tight_pair(capsys):
    status, out, _ = run(capsys, "check-ineq", "--probs", "1/2,1/2", "--machine")
    assert status == 0
    assert out == "\n".join(
        [
            "value=1.0",
            "group_holds=True",
            "group_tight=True",
            "ghm_lhs=1/1",
            "ghm_rhs=1/1",
            "ghm_holds=True",
            "pp_a=True",
            "pp_b=True",
        ]
    )


def test_check_ineq_uneven(capsys):
    status, out, _ = run(capsys, "check-ineq", "--probs", "1/3,2/3", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["group_holds"] == "True"
    assert lines["group_tight"] == "False"
    assert lines["ghm_lhs"] == "32/27"
    assert float(lines["value"]) == pytest.approx(1.0582673679787995, abs=1e-12)


def test_check_ineq_skips_huge_integer_oracle(capsys):
    status, out, _ = run(capsys, "check-ineq", "--probs", "4097/8192", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["ghm_lhs"] == "None"
    assert lines["group_holds"] == "True"
    status, out, _ = run(capsys, "check-ineq", "--probs", "4097/8192")
    assert "integer oracle: skipped" in out


def test_check_ineq_oversized_group(capsys):
    status, _, err = run(capsys, "check-ineq", "--probs", "1/3,1/3,1/3", "--radix", "2")
    assert status == 2
    assert "exceeds radix" in err


def test_check_ineq_sum_free(capsys):
    status, out, _ = run(capsys, "check-ineq", "--probs", "2,2", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["group_tight"] == "True"
    assert lines["pp_b"] == "None"


def test_check_ineq_probability_below_the_smallest_float(capsys):
    status, out, _ = run(capsys, "check-ineq", "--probs", f"1/{2**1100},1/2", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert (lines["group_holds"], lines["ghm_holds"], lines["pp_a"]) == ("True", "None", "True")


def test_check_ineq_product_beyond_the_float_range(capsys):
    # log value ~1378: the product is inf and holds, and the oracle's 7,200-digit
    # numerator is skipped by its size
    status, out, _ = run(capsys, "check-ineq", "--probs", "2000,1", "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert (lines["value"], lines["group_holds"], lines["ghm_lhs"], lines["pp_a"]) == ("inf", "True", "None", "True")
    status, out, _ = run(capsys, "check-ineq", "--probs", "2000,1")
    assert status == 0
    assert out.splitlines()[:2] == [
        "group product = inf, holds: True, tight: False",
        "integer oracle: skipped (scaled mass too large)",
    ]


def test_check_ineq_radix_beyond_the_float_range(capsys):
    radix = str(10**400)
    status, out, _ = run(capsys, "check-ineq", "--probs", "1/2,1/2", "--radix", radix, "--machine")
    assert status == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert (lines["value"], lines["group_holds"], lines["ghm_holds"]) == ("inf", "True", "True")
    assert lines["ghm_lhs"] == lines["ghm_rhs"] == f"{10**800 // 4}/1"  # (r*1)**2 / 2**2
    status, out, _ = run(capsys, "check-ineq", "--probs", "1/2,1/2", "--radix", radix)
    assert status == 0
    assert out.splitlines()[0] == "group product = inf, holds: True, tight: False"


@pytest.mark.parametrize("machine", [[], ["--machine"]])
def test_check_ineq_probability_beyond_the_float_range(machine, capsys):
    status, out, err = run(capsys, "check-ineq", "--probs", "1e400,1", *machine)
    assert (status, out) == (2, "")
    assert err == "error: group probabilities sum to more than 2**512, beyond floating-point evaluation"


# --- parse and input errors ---


def test_source_parse_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "a 1/2\nb\n")
    status, _, err = run(capsys, "entropy", bad)
    assert status == 2
    assert f"{bad}:2" in err

    dup = write(tmp_path, "dup.txt", "a 1/2\na 1/2\n")
    status, _, err = run(capsys, "entropy", dup)
    assert status == 2
    assert "listed twice" in err

    zero = write(tmp_path, "zero.txt", "a 0\nb 1\n")
    status, _, err = run(capsys, "entropy", zero)
    assert status == 2
    assert "positive" in err

    empty = write(tmp_path, "empty.txt", "# only a comment\n")
    status, _, err = run(capsys, "entropy", empty)
    assert status == 2
    assert "no source entries" in err


def test_source_sum_error_names_file(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "a 0.3\nb 0.3\n")
    status, _, err = run(capsys, "entropy", bad)
    assert status == 2
    assert bad in err
    assert "sum" in err


def test_code_parse_errors(tmp_path, capsys):
    bad_digit = write(tmp_path, "c1.txt", "radix 2\na 0\nb 012\n")
    status, _, err = run(capsys, "check-prefix", bad_digit)
    assert status == 2
    assert err == f"error: {bad_digit}:3: digit 2 >= radix 2"

    no_header = write(tmp_path, "c2.txt", "a 0\n")
    status, _, err = run(capsys, "check-prefix", no_header)
    assert status == 2
    assert "radix <r>" in err

    bad_weights = write(tmp_path, "c3.txt", "radix 2\na 0,11 @ 1/2\n")
    status, _, err = run(capsys, "check-prefix", bad_weights)
    assert status == 2
    assert "1 weights for 2 codewords" in err

    unbalanced = write(tmp_path, "c4.txt", "radix 2\na 0,11 @ 1/2,1/3\n")
    status, _, err = run(capsys, "check-prefix", unbalanced)
    assert status == 2
    assert "sum to exactly 1" in err


def test_missing_file(capsys):
    status, _, err = run(capsys, "entropy", "/nonexistent/source.txt")
    assert status == 2
    assert "error:" in err


def test_run_config_validation(capsys):
    status, _, err = run(capsys, "fuzz", "--trials", "0")
    assert status == 2
    assert "at least one trial" in err
    status, _, err = run(capsys, "fuzz", "--tol", "0")
    assert status == 2
    assert "tolerance must be positive" in err


# float() reads '_' separators, other scripts' digits, inf and nan
@pytest.mark.parametrize("value", ["1_0e-9", "١e-9", "1e-٩", "inf", "Infinity", "nan", "1e-9x", ""])
def test_tol_is_a_finite_ascii_number(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--trials", "2", "--tol", value, "--machine"])
    assert exit_info.value.code == 2
    assert f"error: argument --tol: not a finite number: {value!r}" in capsys.readouterr().err


def test_tol_reads_decimal_and_exponent_literals(capsys):
    for value in ("1e-9", "+2.5E-10", ".000000001", "0.000000001"):
        assert run(capsys, "fuzz", "--trials", "2", "--tol", value, "--machine")[0] == 0
    status, _, err = run(capsys, "fuzz", "--trials", "2", "--tol=-1e-9")
    assert (status, err) == (2, "error: tolerance must be positive, got -1e-09")


def test_bad_lengths_flag(capsys):
    status, _, err = run(capsys, "build-code", "--lengths", "1,x")
    assert status == 2
    assert "comma-separated integers" in err


def test_empty_codeword_in_files(tmp_path, capsys):
    code = write(tmp_path, "c.txt", "radix 2\na -\n")
    status, out, _ = run(capsys, "check-prefix", code, "--machine")
    assert (status, out) == (0, "prefix_free=True")
    status, out, _ = run(capsys, "kraft", code, "--machine")
    assert (status, out) == (0, "kraft=1/1\nholds=True")


# --- exit statuses and output streams ---


def _inputs(tmp_path):
    return {
        "src": write(tmp_path, "s.txt", DYADIC_SRC),
        "code": write(tmp_path, "c.txt", DYADIC_CODE),
        "ambiguous": write(tmp_path, "amb.txt", "radix 2\na 0\nb 01\nc 10\n"),
        "long_witness": write(tmp_path, "long.txt", "radix 2\na 0000000,000000\n"),
        "not_prefix": write(tmp_path, "np.txt", "radix 2\na 0\nb 01\n"),
        "bad_src": write(tmp_path, "bad_s.txt", "a 1/2\nb 1/3\n"),
        "bad_code": write(tmp_path, "bad_c.txt", "radix 2\na 0\nb 012\n"),
    }


# Every status each subcommand can reach on real input. entropy, acl,
# huffman, simulate and check-ineq have no input that violates what they
# check, and fuzz finds no counterexample; those 1s are pinned below.
EXIT_STATUS_CASES = [
    ("entropy {src}", 0),
    ("entropy {bad_src}", 2),
    ("entropy {src} --radix 1", 2),
    ("acl {src} {code}", 0),
    ("acl {src} {bad_code}", 2),
    ("kraft {code}", 0),
    ("kraft --lengths 1,1,1", 1),
    ("kraft", 2),
    ("kraft --lengths 1,x", 2),
    ("check-ud {code}", 0),
    ("check-ud {ambiguous}", 1),
    ("check-ud {ambiguous} --max-len -1", 2),
    ("check-ud {code} --max-len -1", 2),
    ("check-ud {long_witness}", 1),
    ("check-ud {long_witness} --max-len -1", 2),
    ("check-ud {bad_code}", 2),
    ("check-prefix {code}", 0),
    ("check-prefix {not_prefix}", 1),
    ("check-prefix {bad_code}", 2),
    ("build-code --lengths 1,2,2", 0),
    ("build-code --lengths 1,1,1", 1),
    ("build-code --lengths -1", 2),
    ("huffman {src}", 0),
    ("huffman {bad_src}", 2),
    ("certify {src} {code}", 0),
    ("certify {src} {ambiguous}", 1),
    ("certify {src} {ambiguous} --max-len -1", 2),
    ("certify {src} {code} --max-len -1", 2),
    ("certify {bad_src} {code}", 2),
    ("simulate {src} {code} --t 50", 0),
    ("simulate {src} {code} --t 0", 2),
    ("simulate {src} {code} --seed -1", 2),
    ("simulate {src} {code} --seed 18446744073709551616", 2),
    ("fuzz --trials 5", 0),
    ("fuzz --trials 0", 2),
    ("fuzz --trials 2 --seed -1", 2),
    ("fuzz --trials 2 --seed 18446744073709551616", 2),
    ("fuzz --trials 2 --seed 18446744073709551621", 2),
    ("check-ineq --probs 1/2,1/2", 0),
    ("check-ineq --probs 1/2,x", 2),
]


@pytest.mark.parametrize("command,expected", EXIT_STATUS_CASES)
def test_exit_status_and_stream(command, expected, tmp_path, capsys):
    status, out, err = run(capsys, *command.format(**_inputs(tmp_path)).split())
    assert status == expected
    if status == 2:
        assert out == "" and err.startswith("error: ") and "\n" not in err
    else:
        assert out and err == ""


def test_fuzz_counterexample_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "DELTA_CAP", float("-inf"))  # every merge step now "fails"
    status, out, err = run(capsys, "fuzz", "--trials", "5", "--machine")
    assert (status, err) == (1, "")
    assert "violation=trial" in out and "positive per-step defect" in out


# one library name each handler calls, patched to fail
RESOURCE_CASES = [
    ("entropy {src}", "entropy"),
    ("acl {src} {code}", "acl_exact"),
    ("kraft --lengths 1,2", "kraft_sum"),
    ("check-ud {code}", "ud_counterexample"),
    ("check-prefix {code}", "is_prefix_free"),
    ("build-code --lengths 1,2,2", "construct_instantaneous"),
    ("huffman {src}", "huffman"),
    ("certify {src} {code}", "certify"),
    ("simulate {src} {code} --t 10", "empirical_acl"),
    ("fuzz --trials 1", "run_fuzz_trial"),
    ("check-ineq --probs 1/2,1/2", "check_group_inequality"),
]


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
@pytest.mark.parametrize("command,name", RESOURCE_CASES)
def test_resource_exhaustion_exits_3(command, name, error, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise error("exhausted")

    monkeypatch.setattr(cli, name, exhausted)
    status, out, err = run(capsys, *command.format(**_inputs(tmp_path)).split())
    assert (status, out) == (3, "")
    assert err.startswith("error: ") and error.__name__ in err and "\n" not in err


# --- file errors: one-line checks give path:line, cross-line checks path ---


def test_file_errors_are_located(tmp_path, capsys):
    dup = write(tmp_path, "dup.txt", "a 1/4\nb 1/4\na 1/2\n")
    assert run(capsys, "entropy", dup) == (2, "", f"error: {dup}: symbol 'a' listed twice")
    zero = write(tmp_path, "zero.txt", "a 1\nb 0\n")
    assert run(capsys, "entropy", zero) == (2, "", f"error: {zero}:2: p('b') = 0 is not strictly positive")
    at = write(tmp_path, "at.txt", "c 1/2\na@b 1/2\n")  # huffman would write 'a@b 0', which no code file reads
    message = f"error: {at}:2: symbol 'a@b' contains '@', which a code file reads as the start of its weights"
    assert run(capsys, "huffman", at) == (2, "", message)
    code = write(tmp_path, "c.txt", "radix 2\na 0\nb 10\na 11\n")
    assert run(capsys, "check-prefix", code) == (2, "", f"error: {code}: symbol 'a' listed twice")
    radix = write(tmp_path, "r.txt", "# radix zero\nradix 0\na -\n")
    status, _, err = run(capsys, "check-prefix", radix)
    assert (status, err) == (2, f"error: {radix}:2: radix must be an integer >= 1, got 0")


# each entry error is raised by Source, Code or EncodingPolicy and put on its line
ENTRY_ERROR_CASES = [
    ("entropy", "a 3/2\n# b is negative\nb -1/2\n", 3, "p('b') = -1/2 is not strictly positive"),
    ("check-prefix", "radix 2\na 0\nb 10,10\n", 3, "symbol 'b' repeats a codeword"),
    ("check-prefix", "radix 2\na 0,11 @ 1/2,1/3\nb 10\n", 2, "weights for 'a' must sum to exactly 1"),
    ("check-prefix", "radix 2\nb 10\na 0,11 @ 3/2,-1/2\n", 3, "weights for 'a' must be strictly positive"),
]


@pytest.mark.parametrize("command, text, line, message", ENTRY_ERROR_CASES)
def test_entry_errors_name_their_line(command, text, line, message, tmp_path, capsys):
    path = write(tmp_path, "entries.txt", text)
    assert run(capsys, command, path) == (2, "", f"error: {path}:{line}: {message}")


@pytest.mark.parametrize("words", ["0,,1", "0,", ",0", "0,-,1.x"])
def test_a_word_list_with_a_bad_token_names_its_line(words, tmp_path, capsys):
    # a column of digit words is read in one pass; an empty or bad word among them is still an error
    path = write(tmp_path, "c.code", f"radix 2\na 10\nb {words}\nc 11\n")
    bad = next(w for w in words.split(",") if not w.isdigit() and w != "-")
    assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}:3: not a codeword: {bad!r}")


@pytest.mark.parametrize("entry", ["b", "b 1/4 x"])
def test_a_source_line_without_two_tokens_names_its_line(entry, tmp_path, capsys):
    path = write(tmp_path, "s.txt", f"a 1/2\n{entry}\nc 1/4\n")
    message = f"expected '<symbol> <probability>', got {entry!r}"
    assert run(capsys, "entropy", path) == (2, "", f"error: {path}:2: {message}")


@pytest.mark.parametrize("entry", ["b", "b @ 1", "b 10 11", "b 10 11 @ 1/2,1/2", "b 10,11 x @ 1/2,1/2"])
def test_a_code_line_without_two_tokens_names_its_line(entry, tmp_path, capsys):
    # the message quotes the whole line, its weights included
    path = write(tmp_path, "c.code", f"radix 2\na 0\n{entry}\nc 11\n")
    message = f"expected '<symbol> <codewords> [@ weights]', got {entry!r}"
    assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}:3: {message}")


@pytest.mark.parametrize(
    "second, fourth, message",
    [
        ("b 1/4 x", "d 1/x", "expected '<symbol> <probability>', got 'b 1/4 x'"),
        ("b 1/x", "d 1/4 x", "not a rational number: '1/x'"),
    ],
)
def test_the_first_faulty_source_line_is_named(second, fourth, message, tmp_path, capsys):
    path = write(tmp_path, "s.txt", f"a 1/4\n{second}\nc 1/4\n{fourth}\n")
    assert run(capsys, "entropy", path) == (2, "", f"error: {path}:2: {message}")


@pytest.mark.parametrize(
    "third, fifth, message",
    [
        ("b 10 11 @ 1/2,1/2", "d 1x", "expected '<symbol> <codewords> [@ weights]', got 'b 10 11 @ 1/2,1/2'"),
        ("b 1x", "d 10 11", "not a codeword: '1x'"),
        ("b 10,11 @ 1/x,1/2", "d 111 1", "not a rational number: '1/x'"),
    ],
)
def test_the_first_faulty_code_line_is_named(third, fifth, message, tmp_path, capsys):
    path = write(tmp_path, "c.code", f"radix 2\na 0\n{third}\nc 110\n{fifth}\n")
    assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}:3: {message}")


def test_duplicate_weighted_symbol_is_a_file_error(tmp_path, capsys):
    path = write(tmp_path, "dup.txt", "radix 2\nb 0,10 @ 1/2,1/2\nb 11 @ 1\n")
    assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}: symbol 'b' listed twice")


def test_entries_are_checked_in_table_order(tmp_path, capsys):
    # the repeated symbol of line 2 is found before its zero probability
    path = write(tmp_path, "multi.txt", "a 1/2\na 0\n")
    assert run(capsys, "entropy", path) == (2, "", f"error: {path}: symbol 'a' listed twice")
    # every codeword is checked before any weight
    path = write(tmp_path, "multi.code", "radix 2\na 0,1 @ 2,-1\nb 12\n")
    assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}:3: digit 2 >= radix 2")


def test_parsing_checks_each_entry_once(tmp_path):
    # counted by code object, so a call through any name the check is bound to counts;
    # a Source, a Code and an EncodingPolicy each walk their entries once
    checks = {f.__code__: f.__name__ for f in (_check_probability, codes._check_codewords, codes._check_weights)}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in checks:
            calls[checks[frame.f_code]] += 1

    n = 40
    src_path = write(tmp_path, "s.txt", "".join(f"s{i} 1/{n}\n" for i in range(n)))
    code_path = write(tmp_path, "c.txt", "radix 2\n" + "".join(f"s{i} {i:06b},1{i:06b} @ 1/3,2/3\n" for i in range(n)))
    sys.setprofile(profile)
    try:
        cli.parse_source_file(src_path)
        code, policy = parse_code_file(code_path)
    finally:
        sys.setprofile(None)
    assert len(code.mapping) == len(policy.weights) == n
    assert (calls["_check_probability"], calls["_check_codewords"], calls["_check_weights"]) == (n, n, n)


def count_fractions_built(read, *args):
    """read(*args), and the number of Fractions built meanwhile."""
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built.append(1)

    sys.setprofile(profile)
    try:
        result = read(*args)
    finally:
        sys.setprofile(None)
    return result, len(built)


def test_a_source_of_ratios_is_read_without_a_fraction(tmp_path):
    # 'a/b' lines, reduced or not, become integer masses with no Fraction between
    n = 40
    ratios = write(tmp_path, "s.txt", "".join(f"s{i} {1 + i % 2}/{n * (1 + i % 2)}\n" for i in range(n)))
    src, built = count_fractions_built(cli.parse_source_file, ratios)
    assert (src.masses, src.denominator, built) == ((1,) * n, n, 0)
    # the counter sees the Fraction a decimal is still read through
    decimals = write(tmp_path, "d.txt", "a 0.5\nb 1/2\n")
    assert count_fractions_built(cli.parse_source_file, decimals)[1] > 0


def numeral_forms(q: Fraction) -> list[str]:
    """Texts of q as a source file may write it: reduced, unreduced, with
    leading zeros, as an integer and as a finite decimal where it is one."""
    a, b = q.numerator, q.denominator
    forms = [f"{a}/{b}", f"{3 * a}/{3 * b}", f"00{a}/0{b}"]
    if b == 1:
        forms.append(str(a))
    places = next((k for k in range(8) if 10**k % b == 0), None)
    if places is not None:
        scaled = a * 10**places // b
        forms.append(f"{scaled // 10**places}.{scaled % 10**places:0{places}d}")
    return forms


@st.composite
def source_numerals(draw):
    """The probability numerals of a source file over a denominator d: a
    partition of d, possibly with zero parts, sometimes off by one so that it
    does not sum to 1, and sometimes with a numeral that is not a rational."""
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 10, 12, 20, 25, 40, 100, 2**70]))
    cuts = sorted(draw(st.lists(st.integers(0, d), max_size=6)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d])]
    masses[-1] += draw(st.sampled_from([0, 0, 0, 1]))
    numerals = [draw(st.sampled_from(numeral_forms(Fraction(m, d)))) for m in masses]
    if draw(st.integers(0, 9)) == 0:
        numerals[draw(st.integers(0, len(numerals) - 1))] = draw(st.sampled_from(["1/0", "1/", "x", "0.1.2"]))
    return numerals


def parsed_or_error(read, *args):
    try:
        return read(*args)
    except ParseError as e:
        return str(e)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source_numerals())
def test_a_source_file_reads_as_make_source_over_parse_rational(tmp_path, numerals):
    symbols = [f"s{i}" for i in range(len(numerals))]
    path = write(tmp_path, "s.txt", "# a comment line\n" + "".join(f"{s} {t}\n" for s, t in zip(symbols, numerals)))
    lines = list(range(2, len(numerals) + 2))

    def oracle():
        probs = []
        for line, text in zip(lines, numerals):
            try:
                probs.append(parse_rational(text))
            except ValueError as e:
                raise ParseError(str(e), path=path, line=line) from None
        try:
            return make_source(symbols, probs)
        except (CodecertError, ValueError) as e:
            raise ParseError(str(e), path=path, line=lines[e.entry] if hasattr(e, "entry") else None) from None

    assert parsed_or_error(cli.parse_source_file, path) == parsed_or_error(oracle)


@st.composite
def codeword_texts(draw, r: int):
    """A codeword's text at radix r, mostly its digits as format_codeword
    writes them; now and then '-', a digit equal to the radix, or a token
    that is not a codeword."""
    roll = draw(st.integers(0, 19))
    if roll == 19:
        return draw(st.sampled_from([format_codeword((r,)), format_codeword((0, r))]))
    if roll == 18:
        return draw(st.sampled_from(["", "x", "1.x", "١", "1..2", "-0"]))
    if roll == 17:
        return "-"
    return format_codeword(tuple(draw(st.lists(st.integers(0, r - 1), max_size=4))))


@st.composite
def code_file_lines(draw):
    """The lines of a code file: a header, mostly valid, then entries with
    word lists, '-' and, at radix 11 and above, dotted words; '@' weights;
    comments, blank lines and form feeds. Now and then a symbol repeats, the
    weights are not as many as the words or not rationals, or a line is
    malformed."""
    r = draw(st.sampled_from([1, 2, 3, 11, 12]))
    lines = [draw(st.sampled_from([f"radix {r}"] * 12 + ["radix 0", "radix x", "# a comment"]))]
    for i in range(draw(st.integers(1, 6))):
        symbol = draw(st.sampled_from([f"s{i}"] * 12 + ["s0", "f#"]))
        words = draw(st.lists(codeword_texts(r), min_size=1, max_size=3))
        gap = draw(st.sampled_from([" ", " ", "\t", "\x0c"]))
        line = f"{symbol}{gap}{','.join(words)}"
        if len(words) > 1 or draw(st.integers(0, 9)) == 0:
            k = draw(st.sampled_from([len(words)] * 12 + [len(words) + 1]))
            weights = [f"1/{k}"] * k
            if draw(st.integers(0, 9)) == 0:
                weights[0] = draw(st.sampled_from(["2/3", "0", "x", "0.5", "-1/2"]))
            line += draw(st.sampled_from([" @ ", "@", " @"])) + ",".join(weights)
        if draw(st.integers(0, 19)) == 0:
            line = draw(st.sampled_from([symbol, f"{line} extra", line + "\x0cz 0", f"{line} @ ", f"{line} @ 1"]))
        lines.append(line)
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "# a comment", "\x0c"]), max_size=1)))
    return lines


def code_entry(text: str):
    """One code file line read on its own, a token at a time: the reference
    that parse_code_file's column reader must agree with."""
    body, _, weight_text = text.partition("@")
    tokens = body.split()
    if len(tokens) != 2:
        raise ValueError(f"expected '<symbol> <codewords> [@ weights]', got {_quote(text)}")
    symbol, words_text = tokens
    words = tuple(map(parse_codeword, words_text.split(",")))
    if not weight_text.strip():
        return symbol, words, ()
    qs = tuple(parse_rational(q) for q in weight_text.split(","))
    if len(qs) != len(words):
        raise ValueError(f"{len(qs)} weights for {len(words)} codewords")
    return symbol, words, qs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(code_file_lines(), st.data())
def test_a_code_file_reads_as_make_code_over_code_entry(tmp_path, lines, data):
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    # a lone '\r' before an empty line would make one '\r\n' end of the two
    ends = [end if (end, following) != ("\r", "") else "\r\n" for end, following in zip(ends, [*lines[1:], None])]
    path = tmp_path / "c.code"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
    path = str(path)

    def located(build, *args, line=None, lines=()):
        try:
            return build(*args)
        except (CodecertError, ValueError) as e:
            line = lines[e.entry] if hasattr(e, "entry") else line
            raise ParseError(str(e), path=path, line=line) from None

    def oracle():
        significant = [(k, text.strip()) for k, text in enumerate(lines, start=1) if text.strip()[:1] not in ("", "#")]
        if not significant:
            raise ParseError("no code entries found", path=path)
        (header_line, header), *rows = significant
        r = located(cli._code_header, header, line=header_line)
        if not rows:
            raise ParseError("code file has a header but no codewords", path=path)
        entries = [located(code_entry, text, line=k) for k, text in rows]
        linenos = [k for k, _ in rows]
        code = located(make_code, r, [(symbol, list(words)) for symbol, words, _ in entries], lines=linenos)
        weighted = [(k, symbol, qs) for k, (symbol, _, qs) in zip(linenos, entries) if qs]
        if not weighted:
            return code, None
        policy = located(make_policy, [(symbol, qs) for _, symbol, qs in weighted], lines=[k for k, _, _ in weighted])
        return code, policy

    assert parsed_or_error(parse_code_file, path) == parsed_or_error(oracle)


BOM = "\ufeff".encode()


def test_a_source_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # kept, the mark would begin the first symbol, '\ufeffa', which no code covers
    src = tmp_path / "s.txt"
    src.write_bytes(BOM + b"a 1/2\r\nb 1/2\r\n")
    code = write(tmp_path, "c.code", "radix 2\na 0\nb 1\n")
    assert cli.parse_source_file(str(src)).symbols == ("a", "b")
    assert run(capsys, "acl", str(src), code, "--machine") == (0, "ACL=1.0\nACL_exact=1/1", "")


def test_a_code_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # kept, the mark would begin the header: "expected header 'radix <r>', got '\ufeffradix 2'"
    src = write(tmp_path, "s.txt", "a 1/2\nb 1/2\n")
    code = tmp_path / "c.code"
    code.write_bytes(BOM + b"radix 2\r\na 0\r\nb 1\r\n")
    assert parse_code_file(str(code)) == (make_code(2, {"a": "0", "b": "1"}), None)
    assert run(capsys, "acl", src, str(code), "--machine") == (0, "ACL=1.0\nACL_exact=1/1", "")


def test_only_a_leading_byte_order_mark_is_dropped(tmp_path):
    # past the start, U+FEFF is text like any other: not whitespace, so part of a token
    path = tmp_path / "s.txt"
    path.write_bytes(b"a 1/2\n" + BOM + b"b 1/2\n")
    assert cli.parse_source_file(str(path)).symbols == ("a", "\ufeffb")


def test_undecodable_file_names_its_path(tmp_path, capsys):
    message = "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
    for command, name, data in (
        ("entropy", "bad.txt", b"a 1/2\nb 1/2\xff\n"),
        ("check-prefix", "bad.code", b"radix 2\na 0\xff\n"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(capsys, command, str(path)) == (2, "", f"error: {path}: {message}")


def test_numerals_are_ascii_only(tmp_path, capsys):
    # int() and Fraction() read '_' separators and other scripts' digits
    for name, text, line, message in (
        ("s1.txt", "a ١/٢\nb 1/2\n", 1, "not a rational number: '١/٢'"),
        ("s2.txt", "a 1/2\nb 1_0/20\n", 2, "not a rational number: '1_0/20'"),
    ):
        path = write(tmp_path, name, text)
        assert run(capsys, "entropy", path) == (2, "", f"error: {path}:{line}: {message}")
    for name, text, line, message in (
        ("c1.txt", "radix ٢\na 0\n", 1, "expected header 'radix <r>', got 'radix ٢'"),
        ("c2.txt", "radix 2\na ١٠\n", 2, "not a codeword: '١٠'"),
        ("c3.txt", "radix 2\na 0,1 @ 1/2,5_0/100\n", 2, "not a rational number: '5_0/100'"),
    ):
        path = write(tmp_path, name, text)
        assert run(capsys, "check-prefix", path) == (2, "", f"error: {path}:{line}: {message}")
    for lengths in ("1_0", "١,٢"):
        expected = (2, "", f"error: lengths must be comma-separated integers, got {lengths!r}")
        assert run(capsys, "kraft", "--lengths", lengths) == expected
        assert run(capsys, "build-code", "--lengths", lengths) == expected
    for probs, token in (("1_0/20,1/2", "1_0/20"), ("1/2, 1/x", "1/x")):
        status, _, err = run(capsys, "check-ineq", "--probs", probs)
        assert (status, err) == (2, f"error: bad probability list: not a rational number: {token!r}")


# with the int-to-str limit lifted for output, converting a long numeral
# would take quadratic time; each is rejected first, by its length
LONG = "1" + "0" * 199_999
LONG_NUMERAL_CASES = [
    pytest.param("entropy {path}", f"a 1/{LONG}\n", "200,000", id="source"),
    pytest.param("entropy {path}", "a 1e-100000\nb 1\n", "100,001", id="exponent"),
    pytest.param("check-prefix {path}", f"radix 2\na 0,1 @ 1/2,{LONG}\n", "200,000", id="weights"),
    pytest.param("check-prefix {path}", f"radix {LONG}\na 0\n", "200,000", id="radix"),
    pytest.param("check-prefix {path}", f"radix 2\na {LONG}.\n", "200,000", id="codeword"),
    pytest.param(f"check-ineq --probs 1/2,1/{LONG}", None, "200,000", id="probs"),
    pytest.param(f"kraft --lengths 1,{LONG}", None, "200,000", id="lengths"),
]


@pytest.mark.parametrize("command,text,digits", LONG_NUMERAL_CASES)
def test_long_numerals_are_rejected_by_their_length(command, text, digits, tmp_path, capsys):
    path = write(tmp_path, "input.txt", text) if text else None
    status, out, err = run(capsys, *command.format(path=path).split())
    assert (status, out) == (2, "")
    assert f"numeral of {digits} digits exceeds the limit of 4,300" in err
    assert len(err) < 200


def test_an_exponent_of_ten_digits_is_rejected_before_it_is_read(tmp_path, capsys):
    path = write(tmp_path, "s.txt", "a 1e1234567890\n")
    status, out, err = run(capsys, "entropy", path)
    assert (status, out) == (2, "")
    assert err == f"error: {path}:1: numeral with a 10-digit exponent exceeds the limit of 4,300 digits"


def test_long_integer_options_are_rejected_by_their_length(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--trials", LONG])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --trials: numeral of 200,000 digits exceeds the limit of 4,300" in err
    assert len(err) < 500


def test_numerals_at_the_limit_are_read(tmp_path, capsys):
    d = "1" + "0" * 4299
    src = write(tmp_path, "s.txt", f"a 1/{d}\nb {int(d) - 1}/{d}\n")
    assert run(capsys, "entropy", src, "--machine")[0] == 0
    assert run(capsys, "check-ineq", "--probs", "1e-4299,1", "--machine")[0] == 0


def test_long_tol_is_rejected_by_its_length(capsys):
    for tol, digits in (("0." + "0" * 5000 + "1", "5,002"), ("1e-100000", "100,001")):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--trials", "1", "--tol", tol])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --tol: numeral of {digits} digits exceeds the limit of 4,300" in err


# a rejected token from outside the program is quoted by a prefix and its length
HUGE = "x" * 100_000
HUGE_TOKEN_CASES = [
    pytest.param(f"fuzz --tol {HUGE}", None, "100,000", id="tol"),
    pytest.param(f"kraft --lengths 1,{HUGE}", None, "100,002", id="lengths"),
    pytest.param(f"kraft --lengths 1 --radix {HUGE}", None, "100,000", id="integer-option"),
    pytest.param("entropy {path}", f"a 1/2 {HUGE}\n", "100,006", id="source-line"),
    pytest.param("check-prefix {path}", f"radix 2\na {HUGE}\n", "100,000", id="codeword"),
    pytest.param("check-prefix {path}", f"radix {HUGE}\na 0\n", "100,006", id="code-header"),
    pytest.param("check-prefix {path}", f"radix 2\na 0 1 {HUGE}\n", "100,006", id="code-line"),
    pytest.param("entropy {path}", f"a {'½' * 100_000}\n", "100,000", id="non-ascii-probability"),
    pytest.param("entropy {path}", f"{HUGE} 1/2\n{HUGE} 1/2\n", "100,000", id="duplicate-symbol"),
    pytest.param("entropy {path}", f"{HUGE} 0\nb 1\n", "100,000", id="zero-probability"),
    pytest.param("check-prefix {path}", f"radix 2\n{HUGE} 0,0\n", "100,000", id="repeated-codeword"),
    pytest.param("acl {src} {code}", {"src": f"{HUGE} 1\n", "code": "radix 2\nb 0\n"}, "100,000", id="acl-missing-symbol"),
    pytest.param("certify {src} {code}", {"src": f"{HUGE} 1\n", "code": "radix 2\nb 0\n"}, "100,000", id="certify-missing-symbol"),
    pytest.param(f"entropy {HUGE}", None, "100,000", id="path"),
    pytest.param("entropy {path}", f"a 1/2\nb -1/{'7' * 4299}\n", "4,302", id="negative-probability"),
    pytest.param(f"check-ineq --probs 1/2,-1/{'7' * 4299}", None, "4,302", id="negative-group-probability"),
]


@pytest.mark.parametrize("command,text,length", HUGE_TOKEN_CASES)
def test_huge_tokens_are_quoted_by_their_length(command, text, length, tmp_path, capsys):
    # text is one input file's, or {name: text} for several
    files = text if isinstance(text, dict) else {"path": text} if text else {}
    paths = {name: write(tmp_path, f"{name}.txt", body) for name, body in files.items()}
    try:
        status = main(command.format(**paths).split())
    except SystemExit as e:  # argparse rejects an option's value itself
        status = e.code
    captured = capsys.readouterr()
    assert (status, captured.out) == (2, "")
    assert f"... ({length} characters)" in captured.err
    assert len(captured.err.encode()) < 300


# a list of symbols in an error shows its first few and the count
MANY = "".join(f"s{i} 1/20000\n" for i in range(20_000))
LONG_LIST_CASES = [
    pytest.param("certify", MANY, "radix 2\ns0 0\n", "does not cover symbols", "19,999", id="certify-missing"),
    pytest.param("acl", MANY, "radix 2\ns0 0\n", "does not cover symbols", "19,999", id="acl-missing"),
    pytest.param("simulate", MANY, "radix 2\ns0 0\n", "does not cover symbols", "19,999", id="simulate-missing"),
    pytest.param(
        "certify",
        "a 1\n",
        "radix 2\na -\n" + "".join(f"x{i} 0\n" for i in range(20_000)),
        "maps symbols outside the source",
        "20,000",
        id="certify-outside",
    ),
]


@pytest.mark.parametrize("command,src_text,code_text,message,count", LONG_LIST_CASES)
def test_long_symbol_lists_are_cut_to_their_count(command, src_text, code_text, message, count, tmp_path, capsys):
    src = write(tmp_path, "s.txt", src_text)
    code = write(tmp_path, "c.txt", code_text)
    status, out, err = run(capsys, command, src, code)
    assert (status, out) == (2, "")
    assert message in err and f", ...] ({count} in all)" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("side,share", [("more", 19), ("less", 21)])
def test_a_long_wrong_sum_is_reported_by_its_side_and_size(side, share, tmp_path, capsys):
    # 20 probabilities just under 1/share over random 13,000-bit denominators:
    # their exact sum would take longer to reduce and print than to find
    rng = random.Random(13_000)
    denominators = [rng.getrandbits(13_000) | 1 << 12_999 for _ in range(20)]
    src = write(tmp_path, "s.txt", "".join(f"s{i} {d // share}/{d}\n" for i, d in enumerate(denominators)))
    status, out, err = run(capsys, "entropy", src)
    assert (status, out) == (2, "")
    assert re.fullmatch(rf"error: {re.escape(src)}: probabilities sum to {side} than 1 \(over a common denominator of [\d,]+ bits\)", err)
    assert len(err.encode()) < 300


def test_a_common_denominator_past_the_cap_is_refused_as_it_is_built(tmp_path, capsys):
    # 100 probabilities over random odd 13,000-bit denominators: their lcm has
    # about 1.3 million bits, and it is refused once it passes 300,000
    rng = random.Random(100)
    denominators = [rng.getrandbits(13_000) | 1 << 12_999 | 1 for _ in range(100)]
    src = write(tmp_path, "s.txt", "".join(f"s{i} {d // 99}/{d}\n" for i, d in enumerate(denominators)))
    start = time.perf_counter()
    status, out, err = run(capsys, "entropy", src)
    assert time.perf_counter() - start < 1
    assert (status, out) == (2, "")
    assert err == f"error: {src}: the probabilities' common denominator has more than 300,000 bits"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command", ["kraft", "build-code"])
def test_kraft_sum_refuses_a_huge_denominator_before_building_it(command, capsys):
    start = time.perf_counter()
    status, out, err = run(capsys, command, "--lengths", "1,3000000")
    assert time.perf_counter() - start < 1
    assert (status, out) == (2, "")
    assert err == "error: the Kraft sum's denominator r^max(length) would exceed 2^300,000"


# int() reads '1_0' and '١٠' as 10; every integer option reads ASCII digits only
INTEGER_OPTION_CASES = [
    ("kraft --lengths 1,1 --radix 1_0", "--radix", "1_0"),
    ("entropy {src} --radix ٢", "--radix", "٢"),
    ("check-ud {code} --max-len 1_2", "--max-len", "1_2"),
    ("certify {src} {code} --max-len ١٢", "--max-len", "١٢"),
    ("simulate {src} {code} --seed ١٠ --machine", "--seed", "١٠"),
    ("simulate {src} {code} --t 5_0", "--t", "5_0"),
    ("fuzz --trials 1_0", "--trials", "1_0"),
    ("fuzz --trials 2 --seed 1_0", "--seed", "1_0"),
]


@pytest.mark.parametrize("command,option,value", INTEGER_OPTION_CASES)
def test_integer_options_are_ascii_only(command, option, value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(command.format(**_inputs(tmp_path)).split())
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert f"error: argument {option}: not an integer: {value!r}" in err


def test_integer_options_read_signs_and_ascii_digits(tmp_path, capsys):
    inputs = _inputs(tmp_path)
    assert run(capsys, "kraft", "--lengths", "1,1", "--radix", "+10", "--machine") == (0, "kraft=1/5\nholds=True", "")
    status, out, _ = run(capsys, "simulate", inputs["src"], inputs["code"], "--seed", "10", "--t", "20", "--machine")
    assert status == 0 and "seed=10" in out.splitlines()


# --- radix 1 ---


def test_kraft_on_radix_one(tmp_path, capsys):
    # at radix 1 every codeword contributes 1, so the sum is the codeword count
    one = write(tmp_path, "one.txt", "radix 1\na 0\n")
    two = write(tmp_path, "two.txt", "radix 1\na 0\nb 00\n")
    assert run(capsys, "kraft", one, "--machine") == (0, "kraft=1/1\nholds=True", "")
    assert run(capsys, "check-prefix", one, "--machine") == (0, "prefix_free=True", "")
    assert run(capsys, "kraft", two, "--machine") == (1, "kraft=2/1\nholds=False", "")
    assert run(capsys, "check-prefix", two, "--machine") == (1, "prefix_free=False", "")
    assert run(capsys, "kraft", "--lengths", "3", "--radix", "1")[:2] == (0, "Kraft sum = 1/1 (radix 1), within the bound")
    assert run(capsys, "kraft", "--lengths", "1,2", "--radix", "1", "--machine")[:2] == (1, "kraft=2/1\nholds=False")
    # building a code still needs two digits
    for command in (["build-code", "--lengths", "1"], ["huffman", write(tmp_path, "s.txt", DYADIC_SRC)]):
        status, out, err = run(capsys, *command, "--radix", "1")
        assert (status, out) == (2, "") and err == "error: radix must be an integer >= 2, got 1"


# --- codewords with digits above 9 ---


def test_build_code_above_radix_10_rereads(tmp_path, capsys):
    lengths = "1,1,1,1,1,1,1,1,1,1,1,2,2"  # one-digit words 0..10, then 11.0 and 11.1
    status, out, _ = run(capsys, "build-code", "--lengths", lengths, "--radix", "12")
    assert status == 0
    assert out.splitlines()[-3:] == ["s11 10.", "s12 11.0", "s13 11.1"]
    built = write(tmp_path, "built.txt", out)
    assert parse_code_file(built)[0].lengths() == [int(l) for l in lengths.split(",")]
    assert run(capsys, "kraft", built) == run(capsys, "kraft", "--lengths", lengths, "--radix", "12")


def test_huffman_above_radix_10_rereads(tmp_path, capsys):
    src = write(tmp_path, "s.txt", "".join(f"x{i} 1/20\n" for i in range(20)))
    status, out, _ = run(capsys, "huffman", src, "--radix", "16")
    assert status == 0
    emitted = write(tmp_path, "h.txt", out)  # the '# ACL' lines are comments
    lengths = parse_code_file(emitted)[0].lengths()
    assert lengths == codecert.huffman(cli.parse_source_file(src), 16).lengths()
    assert any(text.endswith(".") for text in out.splitlines())
    as_lengths = ("--lengths", ",".join(map(str, lengths)), "--radix", "16")
    assert run(capsys, "kraft", emitted) == run(capsys, "kraft", *as_lengths)
    status, acl, _ = run(capsys, "acl", src, emitted)
    assert status == 0 and f"\n# {acl}\n" in out


#: Printable ASCII but the space, with the characters a code file reads
#: specially drawn more often
ascii_symbols = st.text(st.one_of(st.sampled_from("@,#-.0"), st.characters(min_codepoint=33, max_codepoint=126)), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(ascii_symbols.filter(lambda symbol: symbol[0] != "#"), min_size=1, max_size=8), st.sampled_from([2, 3, 12]), st.data())
def test_a_huffman_code_file_reads_back_for_every_source_file_read(tmp_path, capsys, symbols, r, data):
    d = data.draw(st.integers(len(symbols) + 1, 3 * len(symbols) + 1))
    cuts = sorted(data.draw(st.sets(st.integers(1, d - 1), min_size=len(symbols) - 1, max_size=len(symbols) - 1)))
    masses = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d])]
    src_path = write(tmp_path, "s.txt", "".join(f"{s} {m}/{d}\n" for s, m in zip(symbols, masses)))
    try:
        src = cli.parse_source_file(src_path)
    except ParseError as e:  # the masses are valid, so only the symbols are refused
        assert "contains '@'" in str(e) or "listed twice" in str(e)
        assert any("@" in s for s in symbols) or len(set(symbols)) < len(symbols)
        return
    status, out, _ = run(capsys, "huffman", src_path, "--radix", str(r))
    assert status == 0
    assert parse_code_file(write(tmp_path, "h.txt", out)) == (codecert.huffman(src, r), None)


# --- module entry point ---


def test_module_invocation(tmp_path):
    src = tmp_path / "s.txt"
    src.write_text(DYADIC_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "codecert.cli", "entropy", str(src), "--machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.rstrip() == "radix=2\nH=1.5"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    run(capsys, "kraft", "--lengths", "1,1")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "kraft", "--lengths", "1,1", "--machine") == (0, "kraft=1/1\nholds=True", "")
    assert run(capsys, "entropy", "missing.txt")[0] == 2
    assert built == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert version is not None and codecert.__version__ == version.group(1)
