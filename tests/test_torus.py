"""Closed-form torus values: examples, symmetry, and the l = 2 column."""

import tracemalloc
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from pqcalc.laurent import LaurentPoly, eval_numeric, exact_div, parse
from pqcalc.qnumbers import Family, pq_number
from pqcalc import torus
from pqcalc.torus import (
    BudgetExceededError,
    NotCoprimeError,
    alexander_torus,
    alexander_torus2,
    delta_identity_check,
)


def invert_q(f: LaurentPoly) -> LaurentPoly:
    """q -> q^(-1), p -> p^(-1) on every term."""
    return LaurentPoly({(-q2, -p2): c for (q2, p2), c in f.terms()})


# ----------------------------------------------------------------------
# fixed values


def test_trefoil():
    want = parse("q - 1 + q^(-1)")
    assert alexander_torus(3, 2) == want
    assert alexander_torus(2, 3) == want


def test_cinquefoil():
    assert alexander_torus(2, 5) == parse("q^2 - q + 1 - q^(-1) + q^(-2)")


def test_three_five_value():
    # checked by hand: multiplying back against the defining quotient
    want = parse("q^4 - q^3 + q - 1 + q^(-1) - q^(-3) + q^(-4)")
    assert alexander_torus(3, 5) == want


def test_unknot_column_is_one():
    one = LaurentPoly.one()
    for l in range(1, 31):
        assert alexander_torus(1, l) == one
        assert alexander_torus(l, 1) == one


def test_validation():
    with pytest.raises(NotCoprimeError):
        alexander_torus(2, 2)
    with pytest.raises(NotCoprimeError):
        alexander_torus(6, 9)
    assert issubclass(NotCoprimeError, ValueError)
    for bad in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            alexander_torus(*bad)


# ----------------------------------------------------------------------
# structural properties of the closed form


def coprime_pairs(bound):
    for n in range(1, bound + 1):
        for l in range(1, bound + 1):
            if gcd(n, l) == 1:
                yield n, l


def test_symmetry_in_the_two_parameters():
    for n, l in coprime_pairs(15):
        assert alexander_torus(n, l) == alexander_torus(l, n)


def test_inversion_invariance():
    # q -> q^(-1) fixes every value: coprime n, l are never both even,
    # so the sign (-1)^((n-1)(l-1)) is always +1
    for n, l in coprime_pairs(12):
        value = alexander_torus(n, l)
        assert invert_q(value) == value


def test_normalization_at_q_one():
    for n, l in coprime_pairs(12):
        assert eval_numeric(alexander_torus(n, l), Fraction(1)) == 1


def q_diff(e2: int) -> LaurentPoly:
    """q^(e2/2) - q^(-e2/2)."""
    return LaurentPoly({(e2, 0): 1, (-e2, 0): -1})


def quotient_form(n: int, l: int) -> LaurentPoly:
    """The paper's quotient, by exact long division: independent of the
    semigroup walk that alexander_torus runs."""
    return exact_div(q_diff(n * l) * q_diff(1), q_diff(n) * q_diff(l))


def semigroup_form(n: int, l: int) -> LaurentPoly:
    """D(n, l) = q^(-c/2) * [(1 - q) * sum_{s in <n, l>, s < c} q^s + q^c]
    with c = (n-1)(l-1), from a membership DP over every s <= c: a second,
    independently coded route through the semigroup."""
    c = (n - 1) * (l - 1)
    member = [False] * (c + 1)
    member[0] = True
    for s in range(1, c + 1):
        member[s] = (s >= n and member[s - n]) or (s >= l and member[s - l])
    terms = {(c, 0): 1}  # doubled exponent of q^c * q^(-c/2)
    for s in range(c):
        if member[s]:
            terms[(2 * s - c, 0)] = terms.get((2 * s - c, 0), 0) + 1
            terms[(2 * s + 2 - c, 0)] = terms.get((2 * s + 2 - c, 0), 0) - 1
    return LaurentPoly(terms)


def test_matches_quotient_below_30():
    for n, l in coprime_pairs(29):
        assert alexander_torus(n, l) == quotient_form(n, l), (n, l)


def test_matches_quotient_at_199_211():
    value = alexander_torus(199, 211)
    assert value == quotient_form(199, 211)
    assert len(value.terms()) == 20417


@given(n=st.integers(1, 120), l=st.integers(1, 120))
@settings(deadline=None, max_examples=60)
def test_matches_quotient_on_coprime_pairs(n, l):
    assume(gcd(n, l) == 1)
    value = alexander_torus(n, l)
    assert value == quotient_form(n, l)
    assert alexander_torus(l, n) == value
    if n == 1 or l == 1:
        assert value == LaurentPoly.one()


def test_near_equal_pair_needs_no_table_of_size_c():
    # c = 2999 * 3000 = 8,997,000, but D(3000, 3001) has only 5999 terms
    tracemalloc.start()
    try:
        value = alexander_torus(3000, 3001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(value.terms()) == 5999
    assert peak < 300 * 5999
    assert value == quotient_form(3000, 3001)


@pytest.mark.parametrize(
    "n, l",
    [(2, 4 * 10**6 + 1), (3000, 10**9 + 1), (10**12, 10**12 + 1), (2**32 + 1, 2**32)],
)
def test_oversized_pairs_are_refused_before_building(n, l):
    assert torus.MAX_WORK == 4 * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"over the budget of 4000000"):
            alexander_torus(n, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert issubclass(BudgetExceededError, ValueError)


def test_budget_counts_walk_steps_and_terms(monkeypatch):
    monkeypatch.setattr(torus, "MAX_WORK", 100)
    assert len(alexander_torus(2, 97).terms()) == 97  # 2 steps + 97 terms
    with pytest.raises(BudgetExceededError):
        alexander_torus(99, 2)  # 2 steps + 99 terms
    assert len(alexander_torus(10, 11).terms()) == 19  # c = 90, but 29 of work
    with pytest.raises(BudgetExceededError):
        alexander_torus(101, 102)  # 101 walk steps before any term


def test_matches_semigroup_form_below_30():
    for n, l in coprime_pairs(29):
        assert alexander_torus(n, l) == semigroup_form(n, l), (n, l)


def test_matches_semigroup_form_at_199_211():
    assert alexander_torus(199, 211) == semigroup_form(199, 211)


# ----------------------------------------------------------------------
# the l = 2 column


def test_column_two_small_values():
    assert alexander_torus2(1) == LaurentPoly.one()
    assert alexander_torus2(2) == parse("q^(1/2) - q^(-1/2)")
    assert alexander_torus2(3) == parse("q - 1 + q^(-1)")


def test_column_two_shape():
    # n terms, alternating +1/-1 from the top, doubled exponents
    # n-1, n-3, ..., -(n-1)
    for n in range(1, 101):
        terms = alexander_torus2(n).terms()
        assert len(terms) == n
        for i, ((q2, p2), coeff) in enumerate(terms):
            assert p2 == 0
            assert q2 == n - 1 - 2 * i
            assert coeff == (-1) ** i


def test_column_two_matches_closed_form_odd_n():
    for n in range(1, 100, 2):
        assert alexander_torus2(n) == alexander_torus(n, 2)


def test_column_two_matches_deformed_integers():
    for n in range(1, 101):
        assert alexander_torus2(n) == pq_number(Family.ALEXANDER_FERMIONIC, n)


def test_column_two_validation():
    with pytest.raises(ValueError):
        alexander_torus2(0)


# ----------------------------------------------------------------------
# bundled check


def test_delta_identity_check():
    assert delta_identity_check(50) is True
    with pytest.raises(ValueError):
        delta_identity_check(0)
