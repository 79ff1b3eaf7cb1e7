"""
Simulated encoding rates
========================

Streaming symbols from a seeded generator, the running average digits
per symbol settles near the exact ACL, and at every step it stays at
or above the rate of the code with all wasteful words dropped.
"""

from fractions import Fraction as F

from codecert import (
    REFERENCE_SEED,
    acl_exact,
    empirical_acl,
    make_code,
    make_policy,
    make_source,
    minimal_reduction,
)

src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
code = make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])

# a run of t symbols is the first t symbols of any longer run on the same
# seed, so one call per t reads the running average at that step
print("exact ACL:", acl_exact(src, code))
for t in (10, 100, 1000, 10000, 100000):
    print(f"  running average after {t:>6} symbols: {empirical_acl(src, code, None, t, REFERENCE_SEED).acl_t:.4f}")

# the same seed reproduces the identical run
assert empirical_acl(src, code, None, 100, REFERENCE_SEED) == empirical_acl(src, code, None, 100, REFERENCE_SEED)

# a code that may spend a wasteful word on 'a' can never beat its reduction on any path
padded = make_code(2, [("a", ["0", "100"]), ("b", "10"), ("c", "11")])
policy = make_policy({"a": [F(1, 2), F(1, 2)]})
reduced = minimal_reduction(padded)
full = empirical_acl(src, padded, policy, 2000, 7)
floor = empirical_acl(src, reduced, None, 2000, 7)
print(f"a -> 0 or 100 at 1/2 each: rate {full.acl_t:.4f} after 2000 symbols (exact {acl_exact(src, padded, policy)})")
print(f"its minimal reduction:     rate {floor.acl_t:.4f} after 2000 symbols (exact {acl_exact(src, reduced)})")
print("digits the wasteful word costs over its reduction on the same stream:", full.digits - floor.digits)
