"""Reduction steps, certificates, exact equality detection, and the
closing inequality checkers."""

import math
from fractions import Fraction as F

import pytest

from codecert import (
    EqualityWitness,
    GroupLargerThanRadix,
    InvalidGroup,
    InvalidRadix,
    MergedSymbol,
    MissingSymbol,
    NotUniquelyDecipherable,
    RadixOneUnsupported,
    SiblingGroup,
    SplitMix64,
    ZeroOrNegativeProbability,
    acl,
    acl_exact,
    certify,
    check_group_inequality,
    check_pp_inequalities,
    check_rational_ghm,
    entropy,
    equality_condition,
    find_sibling_group,
    format_certificate,
    format_codeword,
    from_tree,
    huffman,
    make_code,
    make_source,
    random_group,
    random_prefix_code,
    random_source,
    reduce_group,
    reduction_step,
    reversed_code,
    to_tree,
    tree_source,
    trial_rng,
)
from codecert.proof import _group_inequality, _group_masses, _pp_inequalities, _rational_ghm
from codecert.source import _fraction_masses
from oracles import delta_oracle, entropy_oracle, group_value_oracle

DYADIC = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
DYADIC_CODE = make_code(2, [("a", "0"), ("b", "10"), ("c", "11")])
SKEWED = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
SKEWED_CODE = make_code(2, [("a", "0"), ("b", "10"), ("c", "110"), ("d", "111")])


# --- reduce_group and reduction_step ---


def test_step_tight_pair():
    tree = to_tree(DYADIC_CODE, DYADIC)
    group = find_sibling_group(tree)
    reduced_src, reduced_tree, step = reduce_group(tree, group)
    assert step.p_red == F(1, 2)
    assert step.delta == 0.0
    assert step.is_tight
    assert step.s == 2
    assert len(step.group.parent) == 1
    assert (1,) in reduced_tree.paths
    assert reduced_src.probs == (F(1, 2), F(1, 2))
    assert reduced_src.symbols[1] == MergedSymbol(("b", "c"))


def test_step_uneven_pair_defect():
    src = make_source("abc", [F(3, 5), F(3, 10), F(1, 10)])
    tree = to_tree(make_code(2, {"a": "0", "b": "10", "c": "11"}), src)
    _, _, step = reduce_group(tree, find_sibling_group(tree))
    assert step.p_red == F(2, 5)
    assert step.delta == pytest.approx(-0.0754887, abs=1e-6)
    assert abs(step.delta - float(delta_oracle((F(3, 10), F(1, 10)), 2))) <= 1e-12
    assert not step.is_tight
    assert step.delta <= 1e-12


def test_step_small_group_in_larger_radix():
    src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
    tree = to_tree(make_code(3, {"a": "0", "b": "10", "c": "11"}), src)
    _, _, step = reduce_group(tree, find_sibling_group(tree))
    assert step.p_red == F(1, 2)
    assert step.delta == pytest.approx(-0.1845351, abs=1e-6)
    assert abs(step.delta - float(delta_oracle((F(1, 4), F(1, 4)), 3))) <= 1e-12
    assert not step.is_tight  # equal probabilities cannot save s < r


def test_step_increment_identities():
    src = make_source("abcd", [F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    tree = to_tree(SKEWED_CODE, src)
    code = from_tree(tree)
    reduced_src, reduced_tree, step = reduce_group(tree, find_sibling_group(tree))
    reduced_code = from_tree(reduced_tree)

    h_before = entropy(tree_source(tree), 2)
    h_after = entropy(reduced_src, 2)
    assert h_before == pytest.approx(h_after + step.delta + float(step.p_red), abs=1e-9)

    acl_before = acl(tree_source(tree), code)
    acl_after = acl(reduced_src, reduced_code)
    assert acl_before == pytest.approx(acl_after + float(step.p_red), abs=1e-9)


def test_step_rejects_invalid_groups():
    tree = to_tree(DYADIC_CODE, DYADIC)
    with pytest.raises(InvalidGroup):
        reduce_group(tree, SiblingGroup((5,), ((5, 0),)))
    with pytest.raises(InvalidGroup):
        reduce_group(tree, SiblingGroup((1,), ((1, 0),)))
    with pytest.raises(InvalidGroup):
        reduce_group(tree, SiblingGroup((), ((0,), (1,))))  # (1,) internal
    bare = to_tree(make_code(2, {"a": "0"}))
    with pytest.raises(InvalidGroup):
        reduce_group(bare, SiblingGroup((), ((0,),)))  # group of one
    ternary = to_tree(make_code(3, DYADIC_CODE.mapping), DYADIC)
    with pytest.raises(InvalidGroup):  # every leaf below the root, but (1, 0) and (1, 1) are grandchildren
        reduce_group(ternary, SiblingGroup((), ((0,), (1, 0), (1, 1))))
    no_probs = to_tree(DYADIC_CODE)
    with pytest.raises(InvalidGroup):
        reduce_group(no_probs, find_sibling_group(no_probs))


def test_reduction_step_record_and_errors():
    group = SiblingGroup((1,), ((1, 0), (1, 1)))
    step = reduction_step(group, (3, 1), 10, 2)  # probabilities 3/10 and 1/10
    assert (step.p_red, step.s, step.is_tight) == (F(2, 5), 2, False)
    assert step.probs == (F(3, 10), F(1, 10))
    assert abs(step.delta - float(delta_oracle((F(3, 10), F(1, 10)), 2))) <= 1e-12
    # the masses' common factor changes no bit of the defect
    assert reduction_step(group, (6, 2), 20, 2).delta.hex() == step.delta.hex()
    with pytest.raises(InvalidGroup):
        reduction_step(group, (1,), 2, 2)  # fewer masses than members
    with pytest.raises(InvalidGroup):
        reduction_step(SiblingGroup((), ((0,),)), (1,), 1, 2)  # group of one
    with pytest.raises(InvalidGroup):
        reduction_step(SiblingGroup((), ((0,), (1,), (2,))), (1,) * 3, 3, 2)  # larger than r


def test_each_step_and_closing_check_refuses_the_unit_radix():
    # each checks the radix itself: at r = 1 a group of two would fail as too large, and one of one would evaluate
    with pytest.raises(InvalidRadix, match="got 1$"):
        reduction_step(SiblingGroup((), ((0,), (1,))), (1, 1), 2, 1)
    for check in (check_group_inequality, check_rational_ghm, check_pp_inequalities):
        with pytest.raises(InvalidRadix, match="got 1$"):
            check([F(1)], 1)


# --- certify: worked instances ---


def test_certify_dyadic_equality():
    cert = certify(DYADIC, DYADIC_CODE)
    assert cert.verdict == "Equality"
    assert cert.entropy == 1.5
    assert cert.acl == 1.5
    assert cert.acl_exact == F(3, 2)
    assert cert.acl_drop == 0
    assert len(cert.steps) == 2
    assert all(s.is_tight for s in cert.steps)
    assert cert.sum_delta == 0.0
    assert cert.witness == EqualityWitness(2, (1, 2, 2))


def test_certify_skewed_strict():
    cert = certify(SKEWED, SKEWED_CODE)
    assert cert.verdict == "StrictInequality"
    assert cert.acl_exact == F(19, 10)
    assert cert.acl == 1.9
    assert abs(cert.entropy - float(entropy_oracle(SKEWED.probs, 2))) <= 1e-12
    assert cert.entropy == pytest.approx(1.8464393, abs=1e-6)
    assert cert.sum_delta == pytest.approx(-0.0535607, abs=1e-6)
    assert abs(cert.sum_delta - (cert.entropy - cert.acl)) <= 1e-9
    assert cert.witness is None
    assert len(cert.steps) == 3
    assert all(s.delta <= 1e-12 for s in cert.steps)


def test_certify_deeper_dyadic():
    src = make_source("abcd", [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
    code = make_code(2, {"a": "0", "b": "10", "c": "110", "d": "111"})
    cert = certify(src, code)
    assert cert.verdict == "Equality"
    assert cert.entropy == 1.75
    assert cert.acl_exact == F(7, 4)
    assert cert.witness == EqualityWitness(3, (1, 2, 3, 3))
    assert len(src) == cert.witness.z * (2 - 1) + 1


def test_certify_single_symbol_empty_word():
    src = make_source("a", [F(1)])
    cert = certify(src, make_code(2, {"a": "-"}))
    assert cert.verdict == "Equality"
    assert cert.entropy == 0.0
    assert cert.acl == 0.0
    assert cert.steps == ()
    assert cert.witness == EqualityWitness(0, (0,))


def test_certify_compacts_wasteful_code():
    src = make_source("a", [F(1)])
    cert = certify(src, make_code(2, {"a": "00"}))
    assert cert.acl_drop == 2
    assert cert.acl_exact == 0
    assert cert.verdict == "Equality"

    two = make_source("ab", [F(1, 2), F(1, 2)])
    cert = certify(two, make_code(2, {"a": "0", "b": "10"}))
    assert cert.acl_drop == F(1, 2)
    assert cert.acl_exact == 1
    assert cert.verdict == "Equality"
    assert list(map(format_codeword, cert.certified_code.pooled())) == ["0", "1"]


def test_certify_canonicalizes_suffix_code():
    src = make_source("ab", [F(2, 3), F(1, 3)])
    suffix = make_code(2, {"a": "0", "b": "01"})
    cert = certify(src, suffix)
    assert list(map(format_codeword, cert.canonical_code.pooled())) == ["0", "10"]
    assert acl_exact(src, cert.canonical_code) == acl_exact(src, suffix)
    # the canonical tree has a splice-able chain over the longer word
    assert cert.acl_drop == F(1, 3)
    assert cert.acl_exact == 1
    assert cert.verdict == "StrictInequality"
    assert cert.entropy <= cert.acl + 1e-9


def test_certify_minimal_reduction_of_multi_codeword():
    src = make_source("ab", [F(1, 2), F(1, 2)])
    code = make_code(2, {"a": ["010", "0"], "b": ["10", "111"]})
    cert = certify(src, code)
    # the chain runs on {0,10}, whose tree splices down to {0,1}
    assert cert.acl_drop == F(1, 2)
    assert cert.verdict == "Equality"


def test_certify_unit_radix():
    one = make_source("a", [F(1)])
    cert = certify(one, make_code(1, {"a": "-"}))
    assert cert.verdict == "Equality"
    assert cert.steps == ()
    assert cert.witness == EqualityWitness(0, (0,))

    cert = certify(one, make_code(1, {"a": "00"}))
    assert cert.verdict == "StrictInequality"
    assert cert.entropy == 0.0
    assert cert.acl == 2.0
    assert cert.witness is None

    two = make_source("ab", [F(1, 2), F(1, 2)])
    with pytest.raises(RadixOneUnsupported):
        certify(two, make_code(1, {"a": "0", "b": "00"}))


def test_certify_rejects_undecipherable():
    src = make_source("abc", [F(1, 2), F(1, 4), F(1, 4)])
    with pytest.raises(NotUniquelyDecipherable):
        certify(src, make_code(2, {"a": "0", "b": "01", "c": "10"}))


def test_alignment_errors_list_symbols_in_source_and_code_order():
    with pytest.raises(MissingSymbol, match=r"^code does not cover symbols \['c', 'b'\]$"):
        certify(make_source("acb", [F(1, 2), F(1, 4), F(1, 4)]), make_code(2, {"a": "0"}))
    with pytest.raises(MissingSymbol, match=r"^code maps symbols outside the source: \['z', 'y'\]$"):
        certify(make_source("a", [1]), make_code(2, {"z": "0", "a": "-", "y": "1"}))
    with pytest.raises(MissingSymbol, match=r"^code does not cover symbols \['b'\]$"):
        equality_condition(DYADIC, make_code(2, {"a": "0", "c": "11"}))


def test_certify_alignment_errors():
    with pytest.raises(MissingSymbol):
        certify(DYADIC, make_code(2, {"a": "0", "b": "1"}))
    with pytest.raises(MissingSymbol):
        certify(
            make_source("ab", [F(1, 2), F(1, 2)]),
            make_code(2, {"a": "0", "b": "10", "z": "11"}),
        )


def test_certify_verdict_is_exact_not_float():
    # float(p1) == float(p2) == 0.5 but p1 != 1/2 exactly
    p1 = F(2**60 - 1, 2**61)
    p2 = F(2**60 + 1, 2**61)
    src = make_source("ab", [p1, p2])
    cert = certify(src, make_code(2, {"a": "0", "b": "1"}))
    assert cert.verdict == "StrictInequality"
    assert cert.witness is None
    # the float surface cannot see the gap; the verdict still can
    assert cert.entropy == cert.acl == 1.0


def test_certify_first_merge_members():
    cert = certify(SKEWED, SKEWED_CODE)
    first = cert.steps[0]
    assert first.group.parent == (1, 1)
    assert first.probs == (F(1, 5), F(1, 10))
    last = cert.steps[-1]
    assert last.group.parent == ()
    assert last.p_red == 1


# --- equality_condition ---


def test_equality_condition_examples():
    ok, witness = equality_condition(DYADIC, DYADIC_CODE)
    assert ok and witness == EqualityWitness(2, (1, 2, 2))

    near = make_source("abc", [F(1, 2), F(3, 10), F(1, 5)])
    ok, witness = equality_condition(near, DYADIC_CODE)
    assert not ok and witness is None

    uniform3 = make_source("abc", [F(1, 3)] * 3)
    flat = make_code(3, {"a": "0", "b": "1", "c": "2"})
    ok, witness = equality_condition(uniform3, flat)
    assert ok and witness == EqualityWitness(1, (1, 1, 1))


def test_equality_condition_uses_shortest_codeword():
    src = make_source("ab", [F(1, 2), F(1, 2)])
    code = make_code(2, {"a": ["0", "00"], "b": "1"})
    ok, witness = equality_condition(src, code)
    assert ok and witness == EqualityWitness(1, (1, 1))


def test_equality_condition_unit_radix():
    one = make_source("a", [F(1)])
    assert equality_condition(one, make_code(1, {"a": "-"})) == (
        True,
        EqualityWitness(0, (0,)),
    )
    assert equality_condition(one, make_code(1, {"a": "0"})) == (False, None)


# --- check_group_inequality ---


def test_group_inequality_tight_pair():
    result = check_group_inequality([F(1, 2), F(1, 2)], 2)
    assert result.value == 1.0
    assert result.holds
    assert result.tight


def test_group_inequality_uneven_pair():
    result = check_group_inequality([F(1, 3), F(2, 3)], 2)
    assert result.value == pytest.approx(1.0582, abs=1e-4)
    assert abs(result.value - float(group_value_oracle((F(1, 3), F(2, 3)), 2))) <= 1e-12
    assert result.holds
    assert not result.tight


def test_group_inequality_small_group():
    result = check_group_inequality([F(1, 4), F(1, 4)], 3)
    assert result.value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert result.holds
    assert not result.tight  # s < r is never tight


def test_group_inequality_singleton():
    result = check_group_inequality([F(1, 10)], 2)
    assert result.value == pytest.approx(2 ** 0.1, abs=1e-12)
    assert result.holds
    assert not result.tight


def test_group_inequality_any_positive_scale():
    result = check_group_inequality([F(2), F(2)], 2)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.holds
    assert result.tight


def test_group_inequality_errors():
    with pytest.raises(GroupLargerThanRadix):
        check_group_inequality([F(1, 3)] * 3, 2)
    with pytest.raises(ZeroOrNegativeProbability):
        check_group_inequality([F(1, 2), F(0)], 2)
    with pytest.raises(ValueError):
        check_group_inequality([], 2)
    # the probabilities' total is capped at 2**512, which is admitted
    assert check_group_inequality([F(2**512 - 1), F(1)], 2).holds
    with pytest.raises(ValueError, match=r"sum to more than 2\*\*512"):
        check_group_inequality([F(2**512), F(1)], 2)
    # a float is read as exactly as make_source reads one: not at all
    for check in (check_group_inequality, check_pp_inequalities):
        with pytest.raises(ZeroOrNegativeProbability, match="float probability 0.1 rejected"):
            check([0.1, 0.9], 2)


def test_inequality_checks_below_the_smallest_float():
    # 2^-1100 is below the smallest positive float, so its logarithm and
    # that of a sum of such terms must be taken from the exact rational
    tiny = F(1, 2**1100)
    result = check_group_inequality([tiny, F(1, 2)], 2)
    assert result.value == pytest.approx(group_value_oracle((tiny, F(1, 2)), 2), rel=1e-12)
    assert result.holds and not result.tight
    result = check_group_inequality([tiny, tiny], 2)
    assert (result.value, result.holds, result.tight) == (1.0, True, True)
    pp = check_pp_inequalities([tiny, F(1, 2)], 2)
    assert (pp.ineq_a, pp.ineq_b) == (True, None)
    pp = check_pp_inequalities([tiny, 1 - tiny], 2)
    assert (pp.ineq_a, pp.ineq_b) == (True, True)
    assert check_pp_inequalities([tiny, tiny], 2).ineq_a


# --- check_rational_ghm ---


def test_ghm_worked_instances():
    result = check_rational_ghm((1, 1), 2)
    assert (result.lhs, result.rhs, result.holds) == (F(1), F(1), True)

    result = check_rational_ghm((1, 2), 2)
    assert result.lhs == F(32, 27)
    assert result.rhs == F(1)
    assert result.holds

    result = check_rational_ghm((1, 1), 3)
    assert result.lhs == F(9, 4)
    assert result.rhs == F(9, 4)
    assert result.holds  # GM equals HM on the boundary

    # rationals are read as their integer masses over the least common denominator
    assert check_rational_ghm([F(1, 6), F(1, 3)], 2) == check_rational_ghm((1, 2), 2)


def test_ghm_weights_validation():
    assert check_rational_ghm((3, 5), 4).rhs == F(2) ** 8  # (r/s)**M with s = 2, M = 8
    with pytest.raises(GroupLargerThanRadix):
        check_rational_ghm((1, 1, 1), 2)
    with pytest.raises(ValueError):
        check_rational_ghm((), 2)
    with pytest.raises(ZeroOrNegativeProbability):
        check_rational_ghm((0, 1), 2)
    with pytest.raises(ZeroOrNegativeProbability):
        check_rational_ghm((1, -2), 2)
    with pytest.raises(ZeroOrNegativeProbability):
        check_rational_ghm((True, 1), 2)


def test_ghm_refuses_a_group_past_its_size_bound_before_any_power():
    # M * log2(2M) is 1083 * 12 = 12,996 bits, then 1084 * 12 = 13,008 past 13,000
    assert check_rational_ghm((1, 1082), 2).holds
    with pytest.raises(ValueError, match=r"about 13,008 bits, past 13,000$"):
        check_rational_ghm((1, 1083), 2)
    # at r = 5, 1000 * 13 is exactly 13,000 bits, admitted, and 1001 * 13 = 13,013 is not
    assert check_rational_ghm([F(1, 1000), F(999, 1000)], 5).holds
    with pytest.raises(ValueError, match=r"about 13,013 bits, past 13,000$"):
        check_rational_ghm([F(1, 1001), F(1000, 1001)], 5)
    # M = 10**9 + 7: the powers would have about 3 * 10**10 bits
    with pytest.raises(ValueError, match="past 13,000"):
        check_rational_ghm(["1/1000000007", "1000000006/1000000007"], 2)


def test_ghm_grounds_log_space_checker():
    for freqs, r in (((1, 2), 2), ((3, 5), 3), ((7, 7, 7), 3), ((1, 30), 2)):
        exact = check_rational_ghm(freqs, r)
        logspace = check_group_inequality([F(f) for f in freqs], r)
        assert exact.holds == logspace.holds
        assert logspace.value == pytest.approx(float(exact.lhs), rel=1e-9)


# --- check_pp_inequalities ---


def test_pp_uniform_boundary():
    result = check_pp_inequalities([F(1, 2), F(1, 2)], 2)
    assert result.ineq_a is True
    assert result.ineq_b is True


def test_pp_skewed_pair():
    result = check_pp_inequalities([F(3, 5), F(2, 5)], 2)
    assert result.ineq_a is True
    assert result.ineq_b is True
    # the power product itself: (3/5)^(3/5) * (2/5)^(2/5) >= 1/2
    value = math.exp(math.fsum(float(p) * math.log(p) for p in (F(3, 5), F(2, 5))))
    assert value == pytest.approx(0.5101698002503163, abs=1e-12)


def test_pp_singleton_not_summing_to_one():
    result = check_pp_inequalities([F(1, 10)], 2)
    assert result.ineq_a is True
    assert result.ineq_b is None


def test_pp_oversized_group_reported_honestly():
    result = check_pp_inequalities([F(1, 3)] * 3, 2)
    assert result.ineq_a is False  # s > r genuinely breaks ineq_a
    assert result.ineq_b is True  # uniform attains the 1/s floor exactly


def test_pp_errors():
    with pytest.raises(ZeroOrNegativeProbability):
        check_pp_inequalities([F(-1, 2)], 2)
    with pytest.raises(ValueError):
        check_pp_inequalities([], 2)


# --- the public checks and their integer cores ---


def test_each_closing_check_equals_its_core_on_the_converted_masses():
    # a fuzz trial converts its group once and runs the cores: on probs the
    # log-space and power-product ones, on the raw frequencies the GHM one
    rng = SplitMix64(2026)
    for k in range(2000):
        r = 2 + k % 4
        probs, freqs = random_group(rng, r)
        masses, d = _fraction_masses(probs)
        assert _group_masses(probs, r) == (masses, d)
        assert _group_masses(freqs, r) == (tuple(freqs), 1)
        assert check_group_inequality(probs, r) == _group_inequality(masses, d, r)
        assert check_pp_inequalities(probs, r) == _pp_inequalities(masses, d, r)
        # the integer verdict is the definition's, lhs >= rhs >= 1 on the Fractions
        for group, group_masses in ((probs, masses), (freqs, freqs)):
            ghm = check_rational_ghm(group, r)
            assert ghm.holds == _rational_ghm(group_masses, r) == (ghm.lhs >= ghm.rhs >= 1)


# --- rational density ---


def test_group_value_converges_along_decimal_truncations():
    alpha = math.sqrt(0.5)
    limit = check_group_inequality([F(alpha), 1 - F(alpha)], 2).value
    gaps = []
    for k in range(1, 7):
        p = F(round(alpha * 10**k), 10**k)
        value = check_group_inequality([p, 1 - p], 2).value
        gaps.append(abs(value - limit))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6


# --- serialization ---


def test_format_certificate_exact_text():
    cert = certify(DYADIC, DYADIC_CODE)
    assert format_certificate(cert) == "\n".join(
        [
            "step 1: merge parent=1 s=2 p_red=1/2 delta=0.0 tight=True",
            "step 2: merge parent=- s=2 p_red=1/1 delta=0.0 tight=True",
            "H=1.5 ACL=1.5 sum_delta=0.0 verdict=Equality",
        ]
    )


def test_format_certificate_stable():
    first = format_certificate(certify(SKEWED, SKEWED_CODE))
    second = format_certificate(certify(SKEWED, SKEWED_CODE))
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("step 1: merge parent=11 s=2 p_red=3/10 ")
    assert lines[-1].endswith("verdict=StrictInequality")


# --- seeded population properties ---


def test_telescoping_and_bounds_on_random_instances():
    for k in range(120):
        rng = trial_rng(2026, k)
        r = 2 + rng.randbelow(4)
        n = 1 + rng.randbelow(12)
        src = random_source(rng, n)
        code = random_prefix_code(rng, r, n)
        if rng.randbelow(4) == 0:
            code = reversed_code(code)
        cert = certify(src, code)
        assert cert.entropy <= cert.acl + 1e-9
        assert abs(cert.sum_delta - (cert.entropy - cert.acl)) <= 1e-9
        for step in cert.steps:
            assert step.delta <= 1e-12
            assert step.is_tight == (abs(step.delta) <= 1e-9)
        equal, _ = equality_condition(src, cert.certified_code)
        assert (cert.verdict == "Equality") == equal
        assert (abs(cert.entropy - cert.acl) <= 1e-9) == equal


def test_huffman_consistency_on_random_sources():
    for k in range(80):
        rng = trial_rng(515, k)
        r = 2 + rng.randbelow(3)
        n = 1 + rng.randbelow(6)
        src = random_source(rng, n, max_den=32)
        cert = certify(src, huffman(src, r))
        adic = all(
            p.numerator == 1 and _is_power(p.denominator, r) for p in src.probs
        )
        padded = (n - 1) % (r - 1) == 0
        assert (cert.verdict == "Equality") == (adic and padded)


def _is_power(value: int, base: int) -> bool:
    while value % base == 0:
        value //= base
    return value == 1
