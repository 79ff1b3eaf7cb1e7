"""
Deciding unique decipherability
===============================

Two deciders: an exact search over pairs of parses, which also finds the
shortest ambiguous digit string, and a brute-force search of every digit
string up to a length budget. They must always agree within the budget.
"""

from codecert import (
    brute_force_ud,
    format_codeword,
    is_prefix_free,
    is_uniquely_decipherable,
    make_code,
    ud_counterexample,
)

prefix = make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])
print("prefix-free:", is_prefix_free(prefix))
print("uniquely decipherable:", is_uniquely_decipherable(prefix))

# suffix codes are decipherable (read right to left) but not prefix-free
suffix = make_code(2, [("a", "0"), ("b", "01"), ("c", "11")])
print("suffix code prefix-free:", is_prefix_free(suffix))
print("suffix code decipherable:", is_uniquely_decipherable(suffix))

# an ambiguous code, with a shortest witness string
broken = make_code(2, [("a", "0"), ("b", "01"), ("c", "10")])
print("broken code decipherable:", is_uniquely_decipherable(broken))
print("witness:", format_codeword(ud_counterexample(broken)))  # 010 = a.c = b.a

# several codewords per symbol: 0^7.0^6 = 0^6.0^7 decodes as one a^2, but
# 0^42 decodes as a^6 and as a^7, past any 12-digit search
multi = make_code(2, [("a", ["0000000", "000000"])])
print("multi-codeword code decipherable:", is_uniquely_decipherable(multi))
print("shortest witness length:", len(ud_counterexample(multi)))

# the bounded brute-force oracle agrees with the exact decision
for code in (prefix, suffix, broken):
    assert brute_force_ud(code, 12) == is_uniquely_decipherable(code)
print("both deciders agree on all three codes")
