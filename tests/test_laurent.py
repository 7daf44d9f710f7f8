"""Kernel tests: arithmetic, division, roots, parsing, rendering, numerics."""

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from pqcalc.laurent import (
    JSON_SCHEMA,
    GridError,
    LaurentPoly,
    NegativePowerOfZError,
    NonExactDivisionError,
    NotAPerfectSquareError,
    ParseError,
    eval_numeric,
    exact_div,
    format_poly,
    parse,
    poly_sum,
    sqrt_perfect_square,
    substitute_z,
)

from poly_strategies import exp2s, monomials, nonzero_polys, polys, positive_leading_polys


# ----------------------------------------------------------------------
# construction and identity


def test_constructor_canonicalizes():
    f = LaurentPoly([((2, 0), 1), ((2, 0), -1), ((0, 0), 3)])
    assert f == 3
    assert f.terms() == (((0, 0), 3),)


def test_constructor_accepts_text_and_int():
    assert LaurentPoly("q - 1") == parse("q - 1")
    assert LaurentPoly(5) == LaurentPoly.monomial(5)
    assert LaurentPoly(0).is_zero


def test_int_equality_and_hash_agree():
    assert LaurentPoly.zero() == 0
    assert LaurentPoly.one() == 1
    assert hash(LaurentPoly.monomial(7)) == hash(7)
    assert hash(LaurentPoly.zero()) == hash(0)


@pytest.mark.parametrize("terms", [True, False, {(0, 0): True}, [((2, 0), False)]])
def test_constructor_rejects_bool_coefficients(terms):
    with pytest.raises(TypeError):
        LaurentPoly(terms)


def test_bools_coerce_like_ints_in_arithmetic():
    assert LaurentPoly.one() == True  # noqa: E712
    assert (parse("q") + True).terms() == (((2, 0), 1), ((0, 0), 1))
    assert format_poly(True - parse("q"), "json") == format_poly(1 - parse("q"), "json")


def test_repr_round_trips():
    f = parse("q^(3/2) - 2*p + 7")
    assert eval(repr(f)) == f  # noqa: S307


def test_leading_and_trailing_terms():
    f = parse("q^2 + p^5 - q^(-1)")
    assert f.leading_term() == ((4, 0), 1)
    assert f.trailing_term() == ((-2, 0), -1)
    with pytest.raises(ValueError):
        LaurentPoly.zero().leading_term()


# ----------------------------------------------------------------------
# arithmetic examples


def test_add_cancels():
    assert parse("q^(1/2)") + parse("-q^(1/2)") == 0


def test_add_merges():
    assert parse("q + 1") + parse("q^(-1) - 1") == parse("q + q^(-1)")


def test_mul_difference_of_squares():
    lhs = parse("q^(1/2) - q^(-1/2)") * parse("q^(1/2) + q^(-1/2)")
    assert lhs == parse("q - q^(-1)")


def test_mul_fermionic_product_is_minus_one():
    assert parse("q^(1/2)") * parse("-q^(-1/2)") == -1


def test_pow_examples():
    assert parse("q^(1/2)") ** 3 == parse("q^(3/2)")
    assert parse("-q^(-1/2)") ** 2 == parse("q^(-1)")
    assert parse("q + 1") ** 0 == 1
    assert LaurentPoly.zero() ** 0 == 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        parse("q") ** -1


def test_poly_sum_matches_repeated_add():
    fs = [parse("q"), parse("-q + p"), parse("3"), parse("p^(-1/2)")]
    total = LaurentPoly.zero()
    for f in fs:
        total = total + f
    assert poly_sum(fs) == total


# ----------------------------------------------------------------------
# exact division


def test_exact_div_single_variable():
    num = parse("q - q^(-1)")
    den = parse("q^(1/2) - q^(-1/2)")
    assert exact_div(num, den) == parse("q^(1/2) + q^(-1/2)")


def test_exact_div_derived_value_multiplies_back():
    num = parse("q^(3/2) + q^(-3/2)")
    den = parse("q^(1/2) + q^(-1/2)")
    quotient = exact_div(num, den)
    assert quotient * den == num
    assert quotient == parse("q - 1 + q^(-1)")


def test_exact_div_detects_remainder():
    with pytest.raises(NonExactDivisionError):
        exact_div(parse("q + 1"), parse("q - 1"))


def test_exact_div_detects_nonintegral_coefficients():
    with pytest.raises(NonExactDivisionError):
        exact_div(parse("q + 1"), parse("2"))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(parse("q"), LaurentPoly.zero())


def test_exact_div_zero_numerator():
    assert exact_div(LaurentPoly.zero(), parse("q - 1")) == 0


def test_exact_div_restores_a_cancelled_remainder_key():
    # step one cancels the constant out of the remainder and step two
    # brings it back, pushing a second heap entry; the later one is stale
    num = parse("-2*q^4 - 2 - 2*q^(-4)")
    den = parse("2*q + 2*q^(-1) + 2*q^(-3)")
    assert exact_div(num, den) == parse("-q^3 + q - q^(-1)")
    assert exact_div(num * parse("p - 1"), den) == parse("-q^3 + q - q^(-1)") * parse("p - 1")
    with pytest.raises(NonExactDivisionError):
        exact_div(num + 2, den)


def test_exact_div_two_variables():
    f = parse("p^2*q - 3*p + q^(-1/2)")
    g = parse("p*q^(3/2) - 2")
    assert exact_div(f * g, g) == f


@given(f=polys(), g=nonzero_polys())
@settings(deadline=None)
def test_exact_div_round_trip(f, g):
    assert exact_div(f * g, g) == f


@given(f=polys(), g=nonzero_polys())
@settings(deadline=None, max_examples=60)
def test_exact_div_never_wrong_only_raises(f, g):
    # on arbitrary input the quotient, when it exists, must multiply back
    try:
        q = exact_div(f, g)
    except NonExactDivisionError:
        return
    assert q * g == f


# ----------------------------------------------------------------------
# perfect-square roots


def test_sqrt_examples():
    assert sqrt_perfect_square(parse("q - 2 + q^(-1)")) == parse("q^(1/2) - q^(-1/2)")
    assert sqrt_perfect_square(parse("q^3 - 2*q^2 + q")) == parse("q^(3/2) - q^(1/2)")
    assert sqrt_perfect_square(parse("p^2")) == parse("p")
    assert sqrt_perfect_square(parse("4")) == 2


def test_sqrt_rejects_non_squares():
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(parse("q + 1"))
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(parse("-q^2"))
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(parse("q^(1/2)"))  # root would land off the grid
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(parse("2*q^2"))


def test_sqrt_of_plain_q_is_half_power():
    # q = (q^(1/2))^2 is a square on the half-integer grid
    assert sqrt_perfect_square(parse("q")) == parse("q^(1/2)")


def test_sqrt_skips_and_restores_cancelled_residue_keys():
    # the first step cancels q^4 with live keys still below it
    assert sqrt_perfect_square(parse("q^6 + 2*q^5 + q^4 + 2*q^3 + 2*q^2 + 1")) == parse(
        "q^3 + q^2 + 1"
    )
    # here the q^(-4) key cancels and later comes back
    root = parse("2 + 2*q^(-1) - 4*q^(-2) + 4*q^(-3) - 4*q^(-4)")
    square = parse(
        "4 + 8*q^(-1) - 12*q^(-2) + 16*q^(-4) - 48*q^(-5) + 48*q^(-6)"
        " - 32*q^(-7) + 16*q^(-8)"
    )
    assert root * root == square
    assert sqrt_perfect_square(square) == root
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(square + parse("q^(-4)"))


def test_sqrt_rejects_zero():
    # no principal (positive leading) root exists for 0
    with pytest.raises(NotAPerfectSquareError):
        sqrt_perfect_square(LaurentPoly.zero())


@given(f=positive_leading_polys())
@settings(deadline=None)
def test_sqrt_round_trip(f):
    root = sqrt_perfect_square(f * f)
    assert root == f
    assert root.leading_term()[1] > 0


# ----------------------------------------------------------------------
# ring axioms (hypothesis side; the seeded bulk run lives in acceptance)


@given(f=polys(), g=polys(), h=polys())
@settings(deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + 0 == f
    assert f * 1 == f
    assert f - f == 0


@given(f=polys(), k=st.integers(0, 6))
@settings(deadline=None)
def test_pow_matches_repeated_mul(f, k):
    expected = LaurentPoly.one()
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


# ----------------------------------------------------------------------
# parsing


def test_parse_fermionic_pair_text():
    f = parse("q^(1/2) - q^(-1/2)")
    assert f.terms() == (((1, 0), 1), ((-1, 0), -1))


def test_parse_monomial_and_implicit_mul():
    assert parse("p^2") == LaurentPoly.monomial(1, 0, 4)
    assert parse("2q^(1/2)p") == LaurentPoly.monomial(2, 1, 2)
    assert parse("q*q") == parse("q^2")
    assert parse("  q  +  1 ") == parse("q + 1")


def test_parse_exponent_forms():
    assert parse("q^3") == parse("q^(3)")
    assert parse("q^-1") == parse("q^(-1)")
    assert parse("q^(2/4)") == parse("q^(1/2)")
    assert parse("q^(4/2)") == parse("q^2")
    assert parse("q^0") == 1


def test_parse_grid_error():
    with pytest.raises(GridError) as info:
        parse("q^(1/3)")
    assert info.value.position == 3


@pytest.mark.parametrize(
    "text",
    ["", "  ", "q +", "^2", "q^", "2*3", "q**q", "q2", "1 - -1", "q^(1/0)", "q^()", "(q)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert isinstance(info.value.position, int)


def test_parse_error_position_points_at_offender():
    with pytest.raises(ParseError) as info:
        parse("q + $")
    assert info.value.position == 4


@pytest.mark.parametrize(
    "text, position",
    [("\u0663q", 0), ("q^\u0662", 2), ("q^(1/\u0662)", 5), ("2\uff13", 1), ("q^", 2), ("q^(", 3)],
)
def test_parse_rejects_non_ascii_digits_and_truncation(text, position):
    # Arabic-Indic and fullwidth digits are not grammar digits; an exponent
    # cut off at the end is reported at the end, not past it
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position


# ----------------------------------------------------------------------
# rendering


def test_format_examples():
    assert format_poly(LaurentPoly.zero()) == "0"
    assert format_poly(parse("q - 1 + q^(-1)")) == "q - 1 + q^(-1)"
    assert format_poly(parse("q^(3/2)")) == "q^(3/2)"


def test_format_term_shapes():
    assert parse("-q").text() == "-q"
    assert parse("2*p^2*q^(1/2)").text() == "2*p^2*q^(1/2)"
    assert parse("p^(-3/2)").text() == "p^(-3/2)"
    assert parse("q^(-2) - 2").text() == "-2 + q^(-2)"
    assert (parse("p") * parse("q^(1/2)")).text() == "p*q^(1/2)"


def test_format_orders_by_q_then_p():
    f = parse("p^3 + q*p + q*p^(-1) + q^2")
    assert f.text() == "q^2 + p*q + p^(-1)*q + p^3"


@given(f=polys())
@settings(deadline=None)
def test_parse_format_round_trip(f):
    assert parse(format_poly(f)) == f


def test_format_mode_validation():
    with pytest.raises(ValueError):
        format_poly(parse("q"), "yaml")


# ----------------------------------------------------------------------
# JSON


def test_json_matches_schema_and_round_trips():
    f = parse("q^(3/2) - 2*p + 7")
    obj = f.to_json_obj()
    jsonschema.validate(obj, JSON_SCHEMA)
    assert obj["terms"][0] == {"coeff": "1", "exp2": {"q": 3, "p": 0}}
    assert LaurentPoly.from_json_obj(obj) == f


@given(f=polys())
@settings(deadline=None, max_examples=60)
def test_json_round_trip(f):
    obj = f.to_json_obj()
    jsonschema.validate(obj, JSON_SCHEMA)
    assert LaurentPoly.from_json_obj(obj) == f


@pytest.mark.parametrize(
    "coeff, exp2",
    [
        ("1_000", {"q": 0, "p": 0}),
        (" 1", {"q": 0, "p": 0}),
        ("+1", {"q": 0, "p": 0}),
        ("\u0663", {"q": 0, "p": 0}),
        (7, {"q": 0, "p": 0}),
        ("1", {"q": " 2", "p": 0}),
        ("1", {"q": 0, "p": True}),
    ],
)
def test_from_json_obj_rejects_what_the_schema_forbids(coeff, exp2):
    obj = {"variables": ["q", "p"], "terms": [{"coeff": coeff, "exp2": exp2}]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(obj, JSON_SCHEMA)
    with pytest.raises(ValueError):
        LaurentPoly.from_json_obj(obj)


big_coeffs = st.integers(min_value=-(2**80), max_value=2**80).filter(bool)


@given(terms=st.lists(st.tuples(st.tuples(exp2s, exp2s), big_coeffs), max_size=6))
@example(terms=[])
@example(terms=[((-3, -1), 2**64 + 1), ((-1, 0), -(2**65))])
@settings(deadline=None)
def test_format_json_matches_the_encoder(terms):
    f = LaurentPoly(terms)
    assert format_poly(f, "json") == json.dumps(f.to_json_obj(), indent=2)


def test_json_orders_terms_descending():
    obj = parse("q^(-1) + q").to_json_obj()
    assert [t["exp2"]["q"] for t in obj["terms"]] == [2, -2]


# CPython converts between int and decimal str only up to
# sys.get_int_max_str_digits() digits (4300 by default); exact coefficients
# outgrow that, and the kernel converts long ones piecewise.


@pytest.mark.parametrize("k", [1, 599, 600, 601, 1300, 4299, 4300, 4301, 9000])
def test_long_coefficients_render_and_parse_exactly(k):
    # 10^k - 1, 10^k, 10^k + 1 have digit strings known without converting
    cases = [
        (10**k - 1, "9" * k),
        (10**k, "1" + "0" * k),
        (10**k + 1, "1" + "0" * (k - 1) + "1"),
    ]
    for value, digits in cases:
        f = LaurentPoly({(2, 0): value, (0, 0): -value})
        assert f.text() == f"{digits}*q - {digits}"
        assert parse(f"{digits}*q - {digits}") == f
        obj = f.to_json_obj()
        assert [t["coeff"] for t in obj["terms"]] == [digits, "-" + digits]
        assert LaurentPoly.from_json_obj(obj) == f
        rendered = format_poly(f, "json")
        assert rendered == json.dumps(obj, indent=2)
        assert LaurentPoly.from_json_obj(json.loads(rendered)) == f


def test_long_coefficients_round_trip():
    rng = random.Random(4300)
    for _ in range(20):
        size = rng.randint(4200, 9000)
        digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=size))
        f = parse(digits + "*p")
        assert f.text() == digits + "*p"
        high, low = digits[: size // 2], digits[size // 2 :]
        assert f == parse(high + "*p") * 10 ** len(low) + parse(low + "*p")
        assert LaurentPoly.from_json_obj(json.loads(format_poly(f, "json"))) == f


# ----------------------------------------------------------------------
# numeric evaluation


def test_eval_examples():
    assert eval_numeric(parse("q^(1/2)"), 4) == 2
    assert eval_numeric(parse("q - 1 + q^(-1)"), 2) == Fraction(3, 2)
    assert eval_numeric(parse("p^2*q"), 3, p_val=2) == 12


def test_eval_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        eval_numeric(parse("q"), 0)
    with pytest.raises(ValueError):
        eval_numeric(parse("q"), 2, p_val=-1)


def test_eval_decimal_fallback():
    value = eval_numeric(parse("q^(1/2)"), 2)
    assert isinstance(value, Decimal)
    with localcontext() as ctx:
        ctx.prec = 60
        reference = Decimal(2).sqrt()
    assert abs(value - reference) < Decimal("1e-45")


@given(
    f=polys(max_terms=4),
    g=polys(max_terms=4),
    qn=st.integers(1, 9),
    qd=st.integers(1, 9),
    pn=st.integers(1, 9),
    pd=st.integers(1, 9),
)
@settings(deadline=None, max_examples=60)
def test_eval_is_a_ring_homomorphism_at_square_points(f, g, qn, qd, pn, pd):
    q_val = Fraction(qn, qd) ** 2
    p_val = Fraction(pn, pd) ** 2
    lhs = eval_numeric(f * g, q_val, p_val)
    rhs = eval_numeric(f, q_val, p_val) * eval_numeric(g, q_val, p_val)
    assert lhs == rhs
    assert eval_numeric(f + g, q_val, p_val) == eval_numeric(f, q_val, p_val) + eval_numeric(
        g, q_val, p_val
    )


# ----------------------------------------------------------------------
# z substitution


def test_substitute_z_examples():
    z = parse("q^(1/2) - q^(-1/2)")
    assert substitute_z([0, 1]) == z
    assert substitute_z([0, 0, 1]) == parse("q - 2 + q^(-1)")
    assert substitute_z([1]) == 1
    assert substitute_z([]) == 0


def test_substitute_z_with_poly_coefficients():
    p = parse("p")
    assert substitute_z({1: p}) == p * parse("q^(1/2) - q^(-1/2)")
    assert substitute_z({0: parse("p^2"), 2: parse("-1")}) == parse("p^2") - parse(
        "q - 2 + q^(-1)"
    )


def test_substitute_z_rejects_negative_powers():
    with pytest.raises(NegativePowerOfZError):
        substitute_z({-1: 1})


@given(k=st.integers(0, 6))
@settings(deadline=None)
def test_substitute_z_monomial_is_power(k):
    z = parse("q^(1/2) - q^(-1/2)")
    assert substitute_z({k: 1}) == z**k
