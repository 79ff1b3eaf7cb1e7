"""
Kraft sums, code construction, and Huffman coding
=================================================

Lengths with sum r^(-l_i) <= 1 always admit a prefix-free code, and
Huffman's procedure finds the cheapest one for a given source.
"""

from fractions import Fraction as F

from codecert import (
    KraftViolated,
    acl_exact,
    construct_instantaneous,
    entropy,
    format_codeword,
    huffman,
    kraft_sum,
    make_source,
)

lengths = [1, 2, 3, 3]
print("kraft sum:", kraft_sum(lengths, 2))

code = construct_instantaneous(lengths, 2)
for symbol, (word,) in code.mapping:
    print(f"  {symbol} -> {format_codeword(word)}")

# infeasible lengths are rejected rather than silently truncated
try:
    construct_instantaneous([1, 1, 1], 2)
except KraftViolated as exc:
    print("rejected:", exc)

# Huffman on a skewed source; ACL lands within one digit of entropy
src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
best = huffman(src, 2)
print("huffman words:", {s: format_codeword(ws[0]) for s, ws in best.mapping})
print("ACL:", acl_exact(src, best), " H:", round(entropy(src, 2), 6))

# ternary trees pad with zero-weight slots so every merge is full
ternary = huffman(src, 3)
print("ternary ACL:", acl_exact(src, ternary))
