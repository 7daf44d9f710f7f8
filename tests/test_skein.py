"""Conversions between (P, Q), link coefficients, and knot coefficients."""

import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings

import pqcalc
from pqcalc import qnumbers
from pqcalc.laurent import BudgetExceededError, LaurentPoly, NotAPerfectSquareError, parse
from pqcalc.qnumbers import Family, family_params, pq_numbers
from pqcalc.skein import (
    DegenerateSkeinError,
    KnotCoefficients,
    NotSolvableOnGridError,
    PQPair,
    SkeinCoefficients,
    knot_to_link_coeffs,
    link_coeffs_from_pq,
    pq_from_link_coeffs,
    recurrence,
    recurrence_generate,
)

from poly_strategies import polys


# ----------------------------------------------------------------------
# (P, Q) -> (l1, l2)


@pytest.mark.parametrize(
    "family, l1, l2",
    [
        (Family.ALEXANDER_FERMIONIC, "q^(1/2) - q^(-1/2)", "1"),
        (Family.JONES_FERMIONIC, "q^(3/2) - q^(1/2)", "q^2"),
        (Family.HOMFLY_FERMIONIC, "p*q^(1/2) - p*q^(-1/2)", "p^2"),
        (Family.ALEXANDER_BOSONIC, "q + q^(-1)", "-1"),
        (Family.JONES_BOSONIC, "q^3 + q", "-q^4"),
        (Family.HOMFLY_BOSONIC, "p^2*q + p^2*q^(-1)", "-p^4"),
    ],
)
def test_link_coeffs_per_family(family, l1, l2):
    got = link_coeffs_from_pq(family_params(family))
    assert got.l1 == parse(l1)
    assert got.l2 == parse(l2)
    assert not got.is_degenerate


def test_link_coeffs_rejects_vanishing_product():
    with pytest.raises(DegenerateSkeinError):
        link_coeffs_from_pq(PQPair(parse("q"), LaurentPoly.zero()))


def test_pair_record_lives_in_skein():
    assert qnumbers.PQPair is pqcalc.PQPair is PQPair
    assert PQPair.__module__ == "pqcalc.skein"


def test_degenerate_flag_reads_l2():
    assert SkeinCoefficients(parse("q"), LaurentPoly.zero()).is_degenerate
    assert not SkeinCoefficients(parse("q"), parse("1")).is_degenerate


# ----------------------------------------------------------------------
# (l1, l2) -> (P, Q)


def test_pair_recovery_alexander():
    coeffs = SkeinCoefficients(parse("q^(1/2) - q^(-1/2)"), parse("1"))
    pair = pq_from_link_coeffs(coeffs)
    assert pair == family_params(Family.ALEXANDER_FERMIONIC)


def test_pair_recovery_jones():
    coeffs = SkeinCoefficients(parse("q^(3/2) - q^(1/2)"), parse("q^2"))
    pair = pq_from_link_coeffs(coeffs)
    assert pair == family_params(Family.JONES_FERMIONIC)


def test_pair_recovery_multi_term():
    pair = pq_from_link_coeffs(SkeinCoefficients(parse("2q"), parse("1 - q^2")))
    assert pair == PQPair(parse("q + 1"), parse("q - 1"))


def test_pair_recovery_rejects_off_grid_discriminant():
    with pytest.raises(NotSolvableOnGridError):
        pq_from_link_coeffs(SkeinCoefficients(parse("q"), parse("q")))


def test_pair_recovery_rejects_repeated_root():
    # discriminant 4q^2 - 4q^2 = 0
    with pytest.raises(NotSolvableOnGridError):
        pq_from_link_coeffs(SkeinCoefficients(parse("2q"), parse("-q^2")))


@given(l1=polys(), t=polys())
@settings(deadline=None, max_examples=200)
def test_pair_recovery_of_a_square_discriminant(l1, t):
    # l2 = l1*t + t^2 makes the discriminant (l1 + 2t)^2, so the roots
    # (l1 +- (l1 + 2t)) / 2 have integer coefficients whatever l1 and t are
    assume(not (l1 + 2 * t).is_zero)
    l2 = l1 * t + t * t
    pair = pq_from_link_coeffs(SkeinCoefficients(l1, l2))
    assert pair.P + pair.Q == l1
    assert -(pair.P * pair.Q) == l2


def test_pair_recovery_round_trip_random_monomials():
    rng = random.Random(20260819)
    done = 0
    while done < 500:
        cp = rng.choice([-1, 1]) * rng.randint(1, 9)
        cq = rng.choice([-1, 1]) * rng.randint(1, 9)
        P = LaurentPoly.monomial(cp, rng.randint(-6, 6), rng.randint(-6, 6))
        Q = LaurentPoly.monomial(cq, rng.randint(-6, 6), rng.randint(-6, 6))
        if P == Q:
            continue
        diff = P - Q
        expected = PQPair(P, Q) if diff.leading_term()[1] > 0 else PQPair(Q, P)
        got = pq_from_link_coeffs(link_coeffs_from_pq(PQPair(P, Q)))
        assert got == expected
        done += 1


# ----------------------------------------------------------------------
# (k1, k2) -> (l1, l2)


def test_knot_to_link_jones():
    got = knot_to_link_coeffs(KnotCoefficients(parse("q^3 + q"), parse("q^4")))
    assert got == link_coeffs_from_pq(family_params(Family.JONES_FERMIONIC))


def test_knot_to_link_alexander():
    got = knot_to_link_coeffs(KnotCoefficients(parse("q + q^(-1)"), parse("-1")))
    assert got == link_coeffs_from_pq(family_params(Family.ALEXANDER_FERMIONIC))


def test_knot_to_link_homfly():
    got = knot_to_link_coeffs(
        KnotCoefficients(parse("p^2*q + p^2*q^(-1)"), parse("p^4"))
    )
    assert got == link_coeffs_from_pq(family_params(Family.HOMFLY_FERMIONIC))


@pytest.mark.parametrize(
    "family",
    [Family.ALEXANDER_FERMIONIC, Family.JONES_FERMIONIC, Family.HOMFLY_FERMIONIC],
)
@pytest.mark.parametrize("fold_sign", [1, -1])
def test_knot_to_link_accepts_both_k2_spellings(family, fold_sign):
    # k-coefficients come from the matching bosonic pair; either sign of
    # the stored k2 must land on the same fermionic link coefficients
    bosonic = {
        Family.ALEXANDER_FERMIONIC: Family.ALEXANDER_BOSONIC,
        Family.JONES_FERMIONIC: Family.JONES_BOSONIC,
        Family.HOMFLY_FERMIONIC: Family.HOMFLY_BOSONIC,
    }[family]
    pb = family_params(bosonic)
    kc = KnotCoefficients(pb.P + pb.Q, fold_sign * pb.P * pb.Q)
    assert knot_to_link_coeffs(kc) == link_coeffs_from_pq(family_params(family))


def test_knot_to_link_flat_input_fails_on_second_root():
    with pytest.raises(NotAPerfectSquareError) as info:
        knot_to_link_coeffs(KnotCoefficients(parse("2"), parse("1")))
    assert "l1 root failed" in str(info.value)


def test_knot_to_link_rejects_zero_k2():
    with pytest.raises(NotAPerfectSquareError) as info:
        knot_to_link_coeffs(KnotCoefficients(parse("q + q^(-1)"), LaurentPoly.zero()))
    assert "l2 root failed" in str(info.value)


def test_knot_to_link_off_grid_first_root():
    # neither q + 1 nor -(q + 1) is a square: the cross term is missing
    with pytest.raises(NotAPerfectSquareError) as info:
        knot_to_link_coeffs(KnotCoefficients(parse("q + q^(-1)"), parse("q + 1")))
    assert "l2 root failed" in str(info.value)


# ----------------------------------------------------------------------
# recurrence generation


def test_recurrence_matches_the_sum_form():
    # pq_numbers never runs the recurrence, so a broken step shows here
    for family in Family:
        coeffs = link_coeffs_from_pq(family_params(family))
        seq = recurrence_generate(coeffs, LaurentPoly.zero(), LaurentPoly.one(), 13)
        assert seq == list(islice(pq_numbers(family), 13))


def test_recurrence_trefoil_value():
    coeffs = link_coeffs_from_pq(family_params(Family.ALEXANDER_FERMIONIC))
    seq = recurrence_generate(coeffs, LaurentPoly.zero(), LaurentPoly.one(), 4)
    assert seq[3] == parse("q - 1 + q^(-1)")


def test_recurrence_custom_seeds():
    coeffs = SkeinCoefficients(parse("q"), parse("-1"))
    seq = recurrence_generate(coeffs, parse("1"), parse("q"), 4)
    assert seq == [parse("1"), parse("q"), parse("q^2 - 1"), parse("q^3 - 2q")]


def test_recurrence_count_validation():
    coeffs = SkeinCoefficients(parse("q"), parse("1"))
    with pytest.raises(ValueError):
        recurrence_generate(coeffs, LaurentPoly.zero(), LaurentPoly.one(), 1)


# X[n+1] = 2^63*(q + 1)*X[n] + X[n-1] from 0 and 1: X[n] has n terms of
# about 63(n - 1) bits.  X[2]'s two coefficients 2^63 have 64 bits, two
# words each; X[3] takes 2 + 3 + 2 words (its 2^127 has 128 bits), X[4] 4
# times 3 and X[5] 5 times 4.  The seeds are not priced.  Each budget is
# above the count, so that the meter, not the count, binds
_WIDE = SkeinCoefficients(2**63 * parse("q + 1"), 1)


@pytest.mark.parametrize("count, work", [(4, 4 + 7), (5, 11 + 12), (6, 23 + 20)])
def test_recurrence_meter_boundaries(monkeypatch, count, work):
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work)
    assert recurrence_generate(_WIDE, 0, 1, count) == list(islice(recurrence(_WIDE, 0, 1), count))
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceededError, match=(
        f"^a sequence of {count} values is over the budget of {work - 1} "
        r"terms times 64-bit coefficient words$"
    )):
        recurrence_generate(_WIDE, 0, 1, count)


def test_recurrence_stream_runs_past_any_count():
    coeffs = link_coeffs_from_pq(family_params(Family.JONES_FERMIONIC))
    seeds = parse("1 - q"), parse("p^(1/2)")
    stream = recurrence(coeffs, *seeds)
    assert list(islice(stream, 30)) == recurrence_generate(coeffs, *seeds, 30)
    assert list(islice(stream, 5)) == recurrence_generate(coeffs, *seeds, 35)[30:]


def test_recurrence_takes_plain_ints_as_constants():
    # ints as seeds, as in the sequence command's 0 and 1
    coeffs = link_coeffs_from_pq(family_params("alexander-bosonic"))
    assert recurrence_generate(coeffs, 0, 1, 4) == qnumbers.number_sequence("alexander-bosonic", 3)
    # ints as coefficients: the Fibonacci numbers
    fib = [0, 1, 1, 2, 3, 5, 8, 13]
    assert recurrence_generate(SkeinCoefficients(1, 1), 0, 1, 8) == [LaurentPoly(c) for c in fib]
    assert recurrence_generate(SkeinCoefficients(parse("q"), -1), 1, parse("q"), 4) == [
        parse("1"), parse("q"), parse("q^2 - 1"), parse("q^3 - 2q")
    ]
    # a LaurentPoly seed comes back as the same object
    p0, p1 = parse("q"), parse("p")
    first, second = islice(recurrence(SkeinCoefficients(1, 1), p0, p1), 2)
    assert first is p0 and second is p1


def test_coefficient_maps_take_plain_int_members_as_constants():
    assert link_coeffs_from_pq(PQPair(2, 3)) == SkeinCoefficients(5, -6)
    assert knot_to_link_coeffs(KnotCoefficients(6, -1)) == SkeinCoefficients(2, 1)
    assert pq_from_link_coeffs(SkeinCoefficients(5, -6)) == PQPair(3, 2)
    q = parse("q")
    assert link_coeffs_from_pq(PQPair(q, -1)) == SkeinCoefficients(parse("q - 1"), q)
    assert pq_from_link_coeffs(SkeinCoefficients(parse("q - 1"), q)) == PQPair(q, -1)


@pytest.mark.parametrize(
    "call, record, members",
    [
        (link_coeffs_from_pq, PQPair, ("P", "Q")),
        (knot_to_link_coeffs, KnotCoefficients, ("k1", "k2")),
        (pq_from_link_coeffs, SkeinCoefficients, ("l1", "l2")),
    ],
)
@pytest.mark.parametrize("value", ["q", 1.5, None])
def test_coefficient_maps_refuse_members_of_other_types(call, record, members, value):
    for member in members:
        args = {name: LaurentPoly(2) for name in members} | {member: value}
        message = f"^{member} must be a LaurentPoly or an int, not {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            call(record(**args))


@pytest.mark.parametrize("arg", ["l1", "l2", "p0", "p1"])
@pytest.mark.parametrize("value", ["1", 1.0, None])
def test_recurrence_refuses_other_types_when_called(arg, value):
    args = {"l1": parse("q"), "l2": 1, "p0": 0, "p1": 1, arg: value}
    coeffs = SkeinCoefficients(args["l1"], args["l2"])
    message = f"^{arg} must be a LaurentPoly or an int, not {type(value).__name__}$"
    with pytest.raises(TypeError, match=message):
        recurrence(coeffs, args["p0"], args["p1"])
    with pytest.raises(TypeError, match=message):
        recurrence_generate(coeffs, args["p0"], args["p1"], 3)
