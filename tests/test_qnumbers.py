"""Deformed-integer families: parameter tables, sum form, recurrence."""

from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pqcalc.laurent import LaurentPoly, parse
from pqcalc.qnumbers import (
    FAMILY_NAMES,
    Counterexample,
    Family,
    PQPair,
    family_params,
    first_counterexample,
    homfly_factorization_check,
    number_sequence,
    pq_number,
    pq_numbers,
)

from poly_strategies import monomials, polys


EXPECTED_PARAMS = {
    Family.ALEXANDER_FERMIONIC: ("q^(1/2)", "-q^(-1/2)"),
    Family.ALEXANDER_BOSONIC: ("q", "q^(-1)"),
    Family.JONES_FERMIONIC: ("q^(3/2)", "-q^(1/2)"),
    Family.JONES_BOSONIC: ("q^3", "q"),
    Family.HOMFLY_FERMIONIC: ("p*q^(1/2)", "-p*q^(-1/2)"),
    Family.HOMFLY_BOSONIC: ("p^2*q", "p^2*q^(-1)"),
}


@pytest.mark.parametrize("family", list(Family))
def test_family_parameter_table(family):
    pair = family_params(family)
    want_p, want_q = EXPECTED_PARAMS[family]
    assert pair.P == parse(want_p)
    assert pair.Q == parse(want_q)
    assert not pair.is_degenerate


def test_family_params_accepts_names_and_pairs():
    assert family_params("jones-fermionic") == family_params(Family.JONES_FERMIONIC)
    custom = PQPair(parse("q"), parse("p"))
    assert family_params(custom) is custom


def test_family_params_rejects_unknown_names():
    with pytest.raises(ValueError) as info:
        family_params("vogel")
    assert "alexander-fermionic" in str(info.value)


def test_family_names_are_the_cli_spellings():
    assert FAMILY_NAMES == (
        "alexander-fermionic",
        "alexander-bosonic",
        "jones-fermionic",
        "jones-bosonic",
        "homfly-fermionic",
        "homfly-bosonic",
    )


# ----------------------------------------------------------------------
# the sum form


def test_small_numbers_expand_symbolically():
    pair = PQPair(parse("q"), parse("p"))
    P, Q = pair.P, pair.Q
    assert pq_number(pair, 0) == 0
    assert pq_number(pair, 1) == 1
    assert pq_number(pair, 2) == P + Q
    assert pq_number(pair, 3) == P * P + P * Q + Q * Q
    assert pq_number(pair, 4) == P**3 + P * P * Q + P * Q * Q + Q**3


def test_alexander_trefoil_value():
    assert pq_number(Family.ALEXANDER_FERMIONIC, 3) == parse("q - 1 + q^(-1)")


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        pq_number(Family.ALEXANDER_FERMIONIC, -1)


def test_degenerate_pair_still_sums():
    pair = PQPair(parse("q"), parse("q"))
    assert pair.is_degenerate
    assert pq_number(pair, 4) == 4 * parse("q") ** 3


@given(P=monomials(), Q=monomials())
@settings(deadline=None)
def test_two_is_sum_and_order_is_irrelevant(P, Q):
    assert pq_number(PQPair(P, Q), 2) == P + Q
    assert pq_number(PQPair(P, Q), 5) == pq_number(PQPair(Q, P), 5)


@given(P=polys(max_terms=3), Q=polys(max_terms=3))
@settings(deadline=None, max_examples=60)
def test_division_identity_random_pairs(P, Q):
    pair = PQPair(P, Q)
    for n in range(9):
        assert pq_number(pair, n) * (P - Q) == P**n - Q**n


# ----------------------------------------------------------------------
# the sum-form stream, against the power-table sum


@pytest.mark.parametrize("family", list(Family))
def test_stream_matches_power_tables_families(family):
    assert list(islice(pq_numbers(family), 41)) == [pq_number(family, n) for n in range(41)]


@given(P=polys(max_terms=2), Q=polys(max_terms=2), n=st.integers(0, 40))
@settings(deadline=None, max_examples=60)
def test_stream_matches_power_tables_random_pairs(P, Q, n):
    pair = PQPair(P, Q)
    assert next(islice(pq_numbers(pair), n, None)) == pq_number(pair, n)


@given(P=polys(max_terms=2), n=st.integers(0, 40))
@settings(deadline=None, max_examples=40)
def test_stream_matches_power_tables_degenerate_and_zero_product(P, n):
    # P = Q, where the quotient form degenerates, and Q = 0, where P*Q = 0
    for pair in (PQPair(P, P), PQPair(P, LaurentPoly.zero())):
        assert next(islice(pq_numbers(pair), n, None)) == pq_number(pair, n)


# ----------------------------------------------------------------------
# the recurrence


def test_sequence_seeds_and_first_step():
    seq = number_sequence(Family.ALEXANDER_FERMIONIC, 2)
    assert seq == [parse("0"), parse("1"), parse("q^(1/2) - q^(-1/2)")]


def test_sequence_length_and_validation():
    assert len(number_sequence(Family.JONES_BOSONIC, 7)) == 8
    with pytest.raises(ValueError):
        number_sequence(Family.JONES_BOSONIC, 0)


@pytest.mark.parametrize("family", list(Family))
def test_sum_and_recurrence_agree_to_200(family):
    seq = number_sequence(family, 200)
    for n in (0, 1, 2, 3, 5, 8, 13, 55, 144, 199, 200):
        assert seq[n] == pq_number(family, n)


@pytest.mark.parametrize("family", list(Family))
def test_division_identity_families_spot(family):
    pair = family_params(family)
    for n in (0, 1, 2, 7, 31):
        assert pq_number(pair, n) * (pair.P - pair.Q) == pair.P**n - pair.Q**n


# ----------------------------------------------------------------------
# HOMFLY factorization


def test_homfly_factorization_examples():
    assert homfly_factorization_check(1)
    assert homfly_factorization_check(2)
    # n = 7 by direct expansion of both sides
    lhs = pq_number(Family.HOMFLY_FERMIONIC, 7)
    rhs = LaurentPoly.monomial(1, 0, 12) * pq_number(Family.ALEXANDER_FERMIONIC, 7)
    assert lhs == rhs
    assert homfly_factorization_check(7)


def test_homfly_factorization_range():
    assert all(homfly_factorization_check(n) for n in range(1, 60))


def test_homfly_factorization_validates():
    with pytest.raises(ValueError):
        homfly_factorization_check(0)


# ----------------------------------------------------------------------
# first counterexample


def test_first_counterexample_of_no_cases_is_none():
    assert first_counterexample([]) is None
    assert first_counterexample(iter(())) is None


def test_first_counterexample_reports_only_the_first_mismatch():
    one, q, p = parse("1"), parse("q"), parse("p")
    drawn = []

    def cases():
        for case in [(1, one, one), (2, q, p), (3, p, q)]:
            drawn.append(case[0])
            yield case
        raise AssertionError("drawn past the first mismatch")

    assert first_counterexample(cases()) == Counterexample(2, q, p)
    assert drawn == [1, 2]


def test_first_counterexample_of_agreeing_cases_is_none():
    seq = number_sequence(Family.JONES_FERMIONIC, 20)
    cases = zip(range(21), seq, pq_numbers(Family.JONES_FERMIONIC))
    assert first_counterexample(cases) is None
