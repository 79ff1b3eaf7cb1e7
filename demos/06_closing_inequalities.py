"""
The inequalities behind the per-step defect
===========================================

Three independent checks that each merge step's defect is <= 0, all on
the same rationals: a log-space evaluation, an exact big-integer form on
their integer masses, and a pair of power-product bounds. Rational
inputs approaching an irrational point show the exact form is dense
enough to close the gap.
"""

from fractions import Fraction as F

from codecert import (
    check_group_inequality,
    check_pp_inequalities,
    check_rational_ghm,
)

# a group of s probabilities sharing one parent slot among r children
group = [F(3, 10), F(1, 10)]
result = check_group_inequality(group, 2)
print(f"group value {result.value:.6f}  holds={result.holds}  tight={result.tight}")

# the same group on its integer masses over their common denominator (3, 1),
# checked without any floats
ghm = check_rational_ghm(group, 2)
print(f"integer form: {ghm.lhs} >= {ghm.rhs}  holds={ghm.holds}")

pp = check_pp_inequalities(group, 2)
print(f"power products: a={pp.ineq_a}  b={pp.ineq_b}")  # b needs sum(p) == 1

pp = check_pp_inequalities([F(3, 5), F(2, 5)], 2)
print(f"power products on a full distribution: a={pp.ineq_a}  b={pp.ineq_b}")

# equality exactly when the group is full and balanced
balanced = check_group_inequality([F(1, 2), F(1, 2)], 2)
print("balanced pair tight:", balanced.tight)

# rational approximations of sqrt(1/2) squeeze the irrational case
import math

target = math.sqrt(0.5)
print("approaching p = sqrt(1/2):")
for k in range(1, 7):
    p = F(round(target * 10**k), 10**k)
    value = check_group_inequality([p, 1 - p], 2).value
    print(f"  den 10^{k}: value = {value:.10f}")
