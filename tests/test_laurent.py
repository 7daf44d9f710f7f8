"""Kernel tests: arithmetic, division, roots, parsing, rendering, numerics."""

import contextlib
import json
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import jsonschema
import pytest
from hypothesis import assume, event, example, given, settings
import hypothesis.strategies as st

from pqcalc.laurent import (
    JSON_SCHEMA,
    BudgetExceededError,
    GridError,
    LaurentError,
    LaurentPoly,
    NegativePowerOfZError,
    NonExactDivisionError,
    NotAPerfectSquareError,
    ParseError,
    eval_numeric,
    exact_div,
    format_json,
    format_poly,
    parse,
    poly_sum,
    sqrt_perfect_square,
    substitute_z,
)
from pqcalc.laurent import (
    _descend,
    _div_by_heap,
    _div_by_runs,
    _dot,
    _int_from_str,
    _match_text,
    _parse_text,
)

from pqcalc.qnumbers import Family, pq_number
from pqcalc.skein import PQPair
from pqcalc.torus import NotCoprimeError, alexander_torus

from poly_strategies import (
    exp2s,
    monomials,
    nonzero_polys,
    overwriting_dot,
    polys,
    positive_leading_polys,
)


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
    assert LaurentPoly([[(0, 0), 1]]) == 1


def test_int_equality_and_hash_agree():
    assert LaurentPoly.zero() == 0
    assert LaurentPoly.one() == 1
    assert hash(LaurentPoly.monomial(7)) == hash(7)
    assert hash(LaurentPoly.zero()) == hash(0)


@pytest.mark.parametrize("terms", [True, False, {(0, 0): True}, [((2, 0), False)]])
def test_constructor_rejects_bool_coefficients(terms):
    with pytest.raises(TypeError):
        LaurentPoly(terms)


@pytest.mark.parametrize(
    "terms",
    [
        {(1.5, 0): 1},
        [((2.9, -0.5), 1)],
        {(2.0, 0): 1},
        {(0, Fraction(2)): 1},
        {(True, 0): 1},
        [((2, False), 1)],
        {("2", 0): 1},
    ],
)
def test_constructor_rejects_non_int_exponents(terms):
    with pytest.raises(TypeError, match="^exponent must be an int, not "):
        LaurentPoly(terms)


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 2, 3): 1},
        [((1,), 1)],
        {(): 1},
        [([0, 2], 1)],
        {"qp": 1},
        [(2, 1)],
        [(1, 2, 3)],
        [((0, 0),)],
    ],
)
def test_constructor_rejects_keys_that_are_not_pairs(terms):
    # a key that is not (q2, p2), or an item that is not (key, coefficient)
    pairs = r"(exponents must be \(q2, p2\)|terms must be \(exponent, coefficient\)) pairs"
    with pytest.raises(TypeError, match=pairs):
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
    with pytest.raises(ValueError, match="no trailing term"):
        LaurentPoly.zero().trailing_term()


def test_truth_is_nonzero():
    assert not LaurentPoly.zero()
    assert parse("q")


# each operator returns NotImplemented on an operand that is neither a
# LaurentPoly nor an int, so Python raises TypeError
_FOREIGN_OPERATIONS = {
    "add": lambda f: f + "x",
    "sub": lambda f: f - 1.5,
    "rsub": lambda f: "x" - f,
    "mul": lambda f: f * 1.5,
    "pow": lambda f: f ** 2.0,
}


@pytest.mark.parametrize("operation", _FOREIGN_OPERATIONS.values(), ids=_FOREIGN_OPERATIONS)
def test_operators_refuse_foreign_operands(operation):
    with pytest.raises(TypeError):
        operation(parse("q"))


def test_equality_with_a_foreign_operand_is_false():
    assert (parse("q") == "q") is False


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
    with pytest.raises(ValueError, match="^k must be at least 0$"):
        parse("q") ** -1


def test_pow_refuses_a_bool_exponent():
    # the one integer rule, as for every other count; a float is refused by
    # Python itself (test_operators_refuse_foreign_operands)
    with pytest.raises(TypeError, match="^k must be an int, not bool$"):
        parse("q + 1") ** True


# each row pins the output price: a lone term forms one pair per product,
# and a coefficient of 2^64 makes each term cost about k words, so the
# output bound binds before any product's pairs
@pytest.mark.parametrize(
    "f, work, last",
    [
        # one term of 1 + (1 + k) // 64 words
        ("2*q", 3, 190),
        # binomial: k + 1 terms of 1 + (1 + 65k) // 64 words each
        (f"{2**64}*q + 1", 1000, 30),
        # three exponents in a plane: (k + 1)(k + 2)/2 terms, under the box
        (f"{2**64}*q + p + 1", 1000, 11),
        # three exponents on a line: the box's 2k + 1 terms, under the multisets
        (f"{2**64} + q^(1/2) + q", 1000, 21),
    ],
)
def test_pow_budget_boundaries(monkeypatch, f, work, last):
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work)
    f = parse(f)
    product = LaurentPoly.one()
    for _ in range(last):
        product = product * f
    assert f**last == product
    with pytest.raises(
        BudgetExceededError,
        match=rf"^power {last + 1} of a {len(f.terms())}-term poly is over the budget of {work} "
        rf"terms times 64-bit coefficient words$",
    ):
        f ** (last + 1)


def test_pow_refuses_before_any_product():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"over the budget of 4000000"):
            parse("2*q + 1") ** 10**100
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("k, pairs", [(2, 100), (3, 190)])
def test_pow_bounds_the_pairs_of_each_product(monkeypatch, k, pairs):
    # the pair price: a 10-term line, f ** 2 squares 10 x 10 pairs; f ** 3
    # then multiplies its 10 x 19 result by the base.  The output bound, 19
    # and 28 one-word terms, passes both budgets
    f = LaurentPoly({(2 * i, 0): 1 for i in range(10)})
    product = f * f if k == 2 else f * f * f
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", pairs)
    assert f**k == product
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", pairs - 1)
    with pytest.raises(
        BudgetExceededError,
        match=rf"^a product of {pairs} term pairs in power {k} of a 10-term poly is over the "
        rf"budget of {pairs - 1} term pairs$",
    ):
        f**k


def test_pow_refuses_a_dense_square_before_the_product():
    # 39,601 output terms fit MAX_WORK, but squaring forms 10^8 term pairs
    f = LaurentPoly({(2 * i, 2 * j): 1 for i in range(100) for j in range(100)})
    with pytest.raises(
        BudgetExceededError,
        match="^a product of 100000000 term pairs in power 2 of a 10000-term poly is over the "
        "budget of 4000000 term pairs$",
    ):
        f**2


def test_pow_of_a_unit_monomial_is_never_refused(monkeypatch):
    huge = 10**100
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", 1)
    assert parse("q") ** huge == LaurentPoly.monomial(1, 2 * huge)
    assert parse("-p^(-1/2)") ** huge == LaurentPoly.monomial(1, 0, -huge)
    assert LaurentPoly.one() ** huge == 1
    assert LaurentPoly.zero() ** huge == 0


def test_poly_sum_matches_repeated_add():
    fs = [parse("q"), parse("-q + p"), parse("3"), parse("p^(-1/2)")]
    total = LaurentPoly.zero()
    for f in fs:
        total = total + f
    assert poly_sum(fs) == total


# ----------------------------------------------------------------------
# the fused sum of products


@given(pairs=st.lists(st.tuples(polys(), polys()), max_size=4))
# the first row of a product, and the first row of a later pair, each land
# on a key an earlier row wrote
@example(pairs=[(parse("q + 1"), parse("q + 1"))])
@example(pairs=[(parse("q"), LaurentPoly.one()), (LaurentPoly.one(), parse("q"))])
@example(pairs=[(LaurentPoly.zero(), parse("q")), (parse("p + 1"), parse("p - 1"))])
@settings(deadline=None, max_examples=200)
def test_dot_is_the_sum_of_the_products(pairs):
    # one accumulation over many pairs against the sum of one-pair runs,
    # which is what ``*`` is; sympy (test_dot_matches_sympy and
    # test_mul_matches_sympy) is the independent side of both
    got = _dot(pairs)
    assert got == poly_sum(_dot([pair]) for pair in pairs)
    assert 0 not in got._terms.values()


def test_mul_runs_on_dot(monkeypatch):
    # ``_dot`` is the kernel's one multiply-accumulate: ``*`` and
    # ``__rmul__`` hand it their one pair, and ``**`` multiplies through
    # ``*``, so a bug in it (an overwrite in place of the add) is theirs
    seen = []

    def recorded(pairs):
        pairs = list(pairs)
        seen.append(pairs)
        return overwriting_dot(pairs)

    monkeypatch.setattr("pqcalc.laurent._dot", recorded)
    f = parse("q + 1")
    square = parse("q^2 + q + 1")
    assert f * f == square
    assert f**2 == square
    assert 2 * f == parse("2*q + 2")
    assert seen == [[(f, f)], [(f, f)], [(1, square)], [(f, 2)]]


def test_dot_of_no_pairs_is_zero():
    assert _dot([]) == 0
    assert _dot(iter(())) == 0


def test_dot_with_zero_operands():
    f, zero = parse("q - p"), LaurentPoly.zero()
    assert _dot([(zero, f)]).is_zero
    assert _dot([(f, zero), (zero, zero)]).is_zero
    assert _dot([(zero, f), (f, f), (f, zero)]) == f * f


def test_dot_takes_a_generator():
    fs = [parse("q"), parse("q + 1"), parse("2*p^(-1/2)")]
    assert _dot((f, f) for f in fs) == poly_sum(f * f for f in fs)


@pytest.mark.parametrize(
    "pairs",
    [
        # (q + 1)(q - 1) - q*q + 1: every term cancels
        [(parse("q + 1"), parse("q - 1")), (parse("-q"), parse("q")), (1, 1)],
        # the first row's keys cancel against a later pair's
        [(parse("q"), parse("q + p")), (parse("-1"), parse("q^2 + p*q"))],
        # two pairs whose products are negatives of each other
        [(parse("q + 1"), parse("1")), (parse("-q - 1"), parse("1"))],
    ],
)
def test_dot_that_cancels_to_zero_leaves_no_key(pairs):
    pairs = [(LaurentPoly._coerce(a), LaurentPoly._coerce(x)) for a, x in pairs]
    got = _dot(pairs)
    assert got.is_zero
    assert got._terms == {}


def test_dot_drops_only_the_cancelled_terms():
    got = _dot([(parse("q + 1"), parse("q - 1")), (parse("-q"), parse("q + 1"))])
    assert got._terms == {(2, 0): -1, (0, 0): -1}


# ----------------------------------------------------------------------
# canonical form: every sum accumulates, then drops its zeros once

# terms on a small grid with small coefficients, zero included, and the
# negation of some of them appended, so that sums and products cancel often
_small_terms = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), st.integers(-2, 2)),
    max_size=6,
)


@st.composite
def cancelling_terms(draw):
    terms = draw(_small_terms)
    mirrored = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return terms + [(exp, -coeff) for exp, coeff in mirrored]


def by_hand(terms) -> dict:
    """The canonical terms of a term list, summed one by one, zeros dropped."""
    acc = {}
    for exp, coeff in terms:
        acc[exp] = acc.get(exp, 0) + coeff
    return {exp: coeff for exp, coeff in acc.items() if coeff}


def as_text(terms) -> str:
    text = " ".join(
        f"{'-' if coeff < 0 else '+'} {abs(coeff)}*q^({q2}/2)*p^({p2}/2)"
        for (q2, p2), coeff in terms
    )
    return (text[2:] if text.startswith("+") else text) or "0"


def assert_canonical(f: LaurentPoly, want: dict):
    assert 0 not in f._terms.values()
    ref = LaurentPoly._raw(want)
    assert f == ref
    assert hash(f) == hash(ref)


@given(a=cancelling_terms(), b=cancelling_terms(), c=cancelling_terms())
# each of +, -, *, poly_sum and _dot cancels a term here
@example(a=[((2, 0), 1), ((0, 0), 1)], b=[((2, 0), -1), ((0, 0), 1)], c=[((0, 0), -2)])
@example(a=[((0, 0), 0)], b=[((1, 1), 2), ((1, 1), -2)], c=[])
@settings(deadline=None, max_examples=300)
def test_every_result_is_canonical(a, b, c):
    f, g, h = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    neg_b = [(exp, -coeff) for exp, coeff in b]
    pairs = [((aq + bq, ap + bp), ac * bc) for (aq, ap), ac in a for (bq, bp), bc in b]
    assert_canonical(f, by_hand(a))
    assert_canonical(LaurentPoly(dict(a)), by_hand(dict(a).items()))
    assert_canonical(f + g, by_hand(a + b))
    assert_canonical(f - g, by_hand(a + neg_b))
    assert_canonical(f * g, by_hand(pairs))
    assert_canonical(poly_sum([f, g, h]), by_hand(a + b + c))
    pairs_gh = [((gq + hq, gp + hp), gc * hc) for (gq, gp), gc in b for (hq, hp), hc in c]
    assert_canonical(_dot([(f, g), (g, h)]), by_hand(pairs + pairs_gh))
    assert_canonical(parse(as_text(a)), by_hand(a))
    assert_canonical(LaurentPoly(as_text(a)), by_hand(a))
    if not g.is_zero:
        assert_canonical(exact_div(f * g, g), by_hand(a))
    if not f.is_zero:
        root = by_hand(a)
        if root[max(root)] < 0:
            root = {exp: -coeff for exp, coeff in root.items()}
        assert_canonical(sqrt_perfect_square(f * f), root)


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


def _message(text: str) -> str:
    # pin a whole error message, which the CLI prints as "error: ..."
    return f"^{re.escape(text)}$"


def test_exact_div_detects_remainder():
    with pytest.raises(NonExactDivisionError, match=_message("q + 1 is not divisible by q - 1")):
        exact_div(parse("q + 1"), parse("q - 1"))


def test_exact_div_detects_nonintegral_coefficients():
    with pytest.raises(NonExactDivisionError, match=_message(
        "coefficient 1 is not divisible by the leading coefficient 2 of 2"
    )):
        exact_div(parse("q + 1"), parse("2"))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(parse("q"), LaurentPoly.zero())


def test_exact_div_zero_numerator():
    assert exact_div(LaurentPoly.zero(), parse("q - 1")) == 0


def test_exact_div_restores_a_cancelled_remainder_key():
    # step one cancels the constant out of the remainder, where it stays at
    # zero with its one heap entry, and step two brings it back to nonzero
    num = parse("-2*q^4 - 2 - 2*q^(-4)")
    den = parse("2*q + 2*q^(-1) + 2*q^(-3)")
    assert exact_div(num, den) == parse("-q^3 + q - q^(-1)")
    assert exact_div(num * parse("p - 1"), den) == parse("-q^3 + q - q^(-1)") * parse("p - 1")
    with pytest.raises(NonExactDivisionError, match=_message(
        "-2*q^4 - 2*q^(-4) is not divisible by 2*q + 2*q^(-1) + 2*q^(-3)"
    )):
        exact_div(num + 2, den)


def test_exact_div_two_variables():
    f = parse("p^2*q - 3*p + q^(-1/2)")
    g = parse("p*q^(3/2) - 2")
    assert exact_div(f * g, g) == f


@pytest.mark.parametrize(
    "num, den, terms",
    [
        # two terms divide into k: (q^k - 1) / (q - 1)
        ("q^40 - 1", "q - 1", 40),
        # the quotient's terms, not the steps: the remainder's cancelled
        # keys and the divisor's size add none
        ("-2*q^4 - 2 - 2*q^(-4)", "2*q + 2*q^(-1) + 2*q^(-3)", 3),
        ("p^2*q^(-1) - 3*p^(-1)*q^(3/2) + 1", "1", 3),
    ],
)
def test_exact_div_budget_boundaries(monkeypatch, num, den, terms):
    # a k-term quotient is served at a budget of k and refused at k - 1
    num, den = parse(num), parse(den)
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", terms)
    quotient = exact_div(num, den)
    assert len(quotient.terms()) == terms and quotient * den == num
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", terms - 1)
    with pytest.raises(BudgetExceededError, match=_message(
        f"the quotient of a {len(num.terms())}-term poly by a {len(den.terms())}-term poly "
        f"is over the budget of {terms - 1} terms"
    )):
        exact_div(num, den)


def test_exact_div_is_refused_before_memory_runs_out():
    # 10^8 quotient terms would take about 13 GB.  A two-term divisor's
    # quotient is priced before its first term is built, on one chain of
    # keys or, once every chain's walk is exact, on several (the second
    # numerator has one chain per p exponent), so each refusal comes inside
    # a 256 MiB address space, and the division allocates under 64 KiB on
    # the way to it
    code = (
        "import resource, tracemalloc\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from pqcalc.laurent import exact_div, parse\n"
        "num, den = parse('q^100000000 - 1'), parse('q - 1')\n"
        "for num in (num, num * parse('p + 1')):\n"
        "    tracemalloc.start()\n"
        "    try:\n"
        "        exact_div(num, den)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    print('peak under 64 KiB:', tracemalloc.get_traced_memory()[1] < 1 << 16)\n"
        "    tracemalloc.stop()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(
        f"BudgetExceededError the quotient of a {terms}-term poly by a 2-term poly is over "
        "the budget of 4000000 terms\n"
        "peak under 64 KiB: True\n"
        for terms in (2, 4)
    )


def _division(route, num, den):
    # a division's quotient, or its error's type and message
    try:
        return route(num, den)
    except LaurentError as exc:
        return type(exc), str(exc)


def _on_one_chain(num, den):
    # every key of num lies k*d from the first, k an int, d = u - v
    (uq, up), (vq, vp) = sorted(den._terms, reverse=True)
    (dq, dp), (fq, fp) = (uq - vq, up - vp), next(iter(num._terms))
    for q2, p2 in num._terms:
        k, rest = divmod(q2 - fq, dq) if dq else divmod(p2 - fp, dp)
        if rest or (q2 - fq, p2 - fp) != (k * dq, k * dp):
            return False
    return True


@st.composite
def two_term_divisions(draw):
    """A two-term divisor ``a*x^u + b*x^v``, monic or not, offset in one
    variable or in two, and a numerator on one to three of its chains:
    ``f * den`` for a random ``f``, or a long geometric run
    ``r*((a*x^d)^k - (-b)^k)``, each exact or perturbed by one term."""
    two_vars = draw(st.booleans())
    exps = st.tuples(exp2s, exp2s if two_vars else st.just(0))
    u = draw(exps)
    v = draw(exps.filter(lambda e: e != u))
    coeffs = st.sampled_from([1, -1, 2, -2, 3, -3, 4, -6, 9])
    a, b = draw(coeffs), draw(coeffs)
    den = LaurentPoly({u: a, v: b})
    d = (u[0] - v[0], u[1] - v[1])
    if draw(st.booleans()):
        bases = draw(st.lists(exps, min_size=1, max_size=3))
        steps = st.integers(-4, 4)
        f = LaurentPoly([((bq + k * d[0], bp + k * d[1]), draw(coeffs))
                         for bq, bp in bases for k in draw(st.lists(steps, max_size=3))])
        num = f * den
    else:
        k, r = draw(st.integers(1, 30)), draw(coeffs)
        num = LaurentPoly({(k * d[0], k * d[1]): r * a**k, (0, 0): -r * (-b) ** k})
        num *= LaurentPoly.monomial(1, *draw(exps))
    if draw(st.booleans()):
        keys = sorted(num._terms) or [(0, 0)]
        (kq, kp) = draw(st.sampled_from(keys))
        k = draw(st.integers(-3, 3))
        num += LaurentPoly.monomial(draw(coeffs), kq + k * d[0], kp + k * d[1])
    # exact_div returns a zero numerator before it picks a route
    return num or den, den


@given(division=two_term_divisions(), budget=st.sampled_from([None, 1, 3, 8, 20]))
@example(division=(parse("q^(75/2) - q^(-75/2)"), parse("q^(1/2) + q^(-1/2)")), budget=None)
@example(division=(parse("q^40 - 1"), parse("q - 1")), budget=39)
@example(division=(parse("1024*q^10 - 1"), parse("2*q - 1")), budget=None)
@example(division=(parse("512*q^10 - 1"), parse("2*q - 1")), budget=None)
@example(division=(parse("q^10 - 1 + p*q^7"), parse("q - 1")), budget=None)
# the chain of q^3 fails last, at its constant; the heap first meets the
# chain of p*q^2, whose coefficient 1 the leading 2 does not divide
@example(division=(parse("2*q^3 + 4 + p*q^2"), parse("2*q + 2")), budget=None)
@settings(deadline=None, max_examples=400)
def test_run_route_matches_the_heap(division, budget):
    # the same quotient, or the same error type and message, as the heap;
    # the run route hands the heap only an input on several chains that
    # the heap refuses
    num, den = division
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr("pqcalc.laurent.MAX_WORK", budget)
        want = _division(_div_by_heap, num, den)
        got = _division(_div_by_runs, num, den)
        event("quotient" if isinstance(got, LaurentPoly) else "heap" if got is None
              else f"{got[0].__name__}{' (coefficient)' if 'leading' in got[1] else ''}")
        if got is None:
            assert not isinstance(want, LaurentPoly)
            assert not _on_one_chain(num, den)
        else:
            assert got == want
        assert _division(exact_div, num, den) == want


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
    for text, message in [
        # a candidate root term outside the box
        ("q + 1", "q + 1 is not a perfect square on the half-integer grid"),
        # a residue coefficient not divisible by twice the root's head
        ("q^2 + q + 1", "q^2 + q + 1 is not a perfect square on the half-integer grid"),
        ("-q^2", "leading coefficient -1 of -q^2 is negative"),
        # the root would land off the grid
        ("q^(1/2)", "leading exponents of q^(1/2) are off the square grid"),
        ("q^2 + q^(1/2)", "trailing exponents of q^2 + q^(1/2) are off the square grid"),
        ("2*q^2", "leading coefficient 2 of 2*q^2 is not a perfect square"),
    ]:
        with pytest.raises(NotAPerfectSquareError, match=_message(message)):
            sqrt_perfect_square(parse(text))


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
    with pytest.raises(NotAPerfectSquareError, match=_message(
        f"{square + parse('q^(-4)')} is not a perfect square on the half-integer grid"
    )):
        sqrt_perfect_square(square + parse("q^(-4)"))


@pytest.mark.parametrize(
    "root, work",
    [
        # step i matches a one-word coefficient 2 against i root terms
        ("1 + " + " + ".join(f"q^(-{i})" for i in range(1, 10)), 45),
        # one step matches 2^71, two words, against the head
        (f"1 + {2**70}*q^(-1)", 2),
    ],
)
def test_sqrt_budget_boundaries(monkeypatch, root, work):
    root = parse(root)
    square = root * root
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work)
    assert sqrt_perfect_square(square) == root
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work - 1)
    with pytest.raises(BudgetExceededError, match=_message(
        f"the square root of {square} is over the budget of {work - 1} root terms "
        "times 64-bit coefficient words"
    )):
        sqrt_perfect_square(square)


def test_sqrt_refuses_a_three_term_input_past_the_budget():
    # O(box^2) work before a residue key leaves the box
    with pytest.raises(BudgetExceededError, match="over the budget of 4000000 root terms"):
        sqrt_perfect_square(parse("1 + 4*q^(-1/2) + q^(-100000)"))


def test_sqrt_rejects_zero():
    # no principal (positive leading) root exists for 0
    with pytest.raises(NotAPerfectSquareError, match=_message(
        "the zero polynomial has no principal square root"
    )):
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


def test_parse_reduces_exponent_fractions():
    assert parse("q^(-6/4)") == parse("q^(-3/2)")
    assert parse("p^(-10/5)*q^(9/6)") == parse("p^(-2)*q^(3/2)")
    assert parse("q^(0/7)") == 1
    with pytest.raises(GridError) as info:
        parse("p + q^(-1/3)")
    assert str(info.value) == "exponent -1/3 is not an integer multiple of 1/2 (at position 7)"
    assert info.value.position == 7


@pytest.mark.parametrize(
    "text",
    ["", "  ", "q +", "^2", "q^", "2*3", "q**q", "q2", "1 - -1", "q^(1/0)", "q^()", "(q)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert isinstance(info.value.position, int)


# the README's grammar: a coefficient only opens a term, and bare exponents
# take a sign
@pytest.mark.parametrize("text", ["+q", "q*3", "2 3"])
def test_parse_rejects_a_coefficient_off_the_start_of_a_term(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize(
    "text, want",
    [("q^-2", LaurentPoly.monomial(1, -4)), ("2q^(1/2)p", LaurentPoly.monomial(2, 1, 2))],
)
def test_parse_accepts_signed_bare_exponents_and_implicit_products(text, want):
    assert parse(text) == want


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


def test_whitespace_is_one_set_for_split_isspace_and_regex():
    # the pattern path removes what str.split() splits on, _Parser skips
    # what str.isspace() calls whitespace, and the recognizer below spells
    # whitespace \s: all three must be the same set of code points
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(every.split())
    assert kept == "".join(ch for ch in every if not ch.isspace())
    assert kept == re.sub(r"\s", "", every)


# The README grammar as a regex of its own, with whitespace allowed between
# any two tokens: a recognizer that shares no code with ``parse``.
_WS = r"\s*"
_UINT = "[0-9]+"
_SIGNED = rf"(?:[+-]{_WS})?{_UINT}"
_EXPONENT = rf"(?:{_SIGNED}|\({_WS}{_SIGNED}{_WS}(?:/{_WS}{_UINT}{_WS})?\))"
_FACTOR = rf"[qp](?:{_WS}\^{_WS}{_EXPONENT})?"
_TERM = rf"(?:{_UINT}|{_FACTOR})(?:{_WS}(?:\*{_WS})?{_FACTOR})*"
GRAMMAR = re.compile(rf"{_WS}(?:-{_WS})?{_TERM}(?:{_WS}[+-]{_WS}{_TERM})*{_WS}")
# in text GRAMMAR accepts, parentheses hold exponents and nothing else
FRACTION = re.compile(rf"\({_WS}(?:[+-]{_WS})?({_UINT}){_WS}/{_WS}({_UINT})")

ALPHABET = "qp0123456789+-*/^() \t\u00a0"


def grid_error(text):
    """For text GRAMMAR accepts: the error ``parse`` must raise at the first
    fraction that breaks the grid rule, or ``None``.  A zero denominator is
    a plain ``ParseError``; one that does not divide twice the numerator is
    a ``GridError``."""
    for num, den in FRACTION.findall(text):
        if int(den) == 0:
            return ParseError
        if 2 * int(num) % int(den):
            return GridError
    return None


@st.composite
def expression_texts(draw):
    """Text the README grammar derives, with whitespace between tokens;
    its fractions need not be on the grid."""

    def ws():
        return draw(st.sampled_from(["", "", "", " ", "  ", "\t", "\u00a0"]))

    def uint():
        return draw(st.from_regex(r"[0-9]{1,3}", fullmatch=True))

    def signed():
        return draw(st.sampled_from(["", "+", "-"])) + ws() + uint()

    def factor():
        text = draw(st.sampled_from("qp"))
        kind = draw(st.sampled_from(["bare", "signed", "paren", "fraction"]))
        if kind == "signed":
            text += ws() + "^" + ws() + signed()
        elif kind != "bare":
            den = ws() + "/" + ws() + uint() if kind == "fraction" else ""
            text += ws() + "^" + ws() + "(" + ws() + signed() + den + ws() + ")"
        return text

    def term():
        text = uint() if draw(st.booleans()) else factor()
        for _ in range(draw(st.integers(0, 2))):
            text += ws() + draw(st.sampled_from(["", "*"])) + ws() + factor()
        return text

    text = ws() + draw(st.sampled_from(["", "-"])) + ws() + term()
    for _ in range(draw(st.integers(0, 3))):
        text += ws() + draw(st.sampled_from("+-")) + ws() + term()
    return text + ws()


@st.composite
def mutated_texts(draw):
    """A derived text with one to three characters inserted, deleted or
    replaced: near misses of the grammar."""
    text = draw(expression_texts())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(ALPHABET))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + ("" if edit == "delete" else ch) + text[i + 1 :]
    return text


grammar_texts = st.one_of(st.text(ALPHABET, max_size=12), expression_texts(), mutated_texts())


@given(text=grammar_texts)
@example(text="2 3")
@example(text="q^(1\t2)")
@example(text="- q ^ - 2 *p^( + 3 / 6 )")
@settings(deadline=None, max_examples=300)
def test_parse_accepts_exactly_what_the_grammar_recognizes(text):
    if GRAMMAR.fullmatch(text) is None:
        # a GridError too, where an exponent before the first character
        # off the grammar is off the grid
        with pytest.raises(ParseError):
            parse(text)
        return
    want = grid_error(text)
    if want is None:
        f = parse(text)
        assert parse(f.text()) == f
    else:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert type(info.value) is want


def outcome(read, text):
    """The terms ``read`` gives ``text``, or its error's type and position."""
    try:
        return read(text)
    except ParseError as error:
        return type(error), error.position


@given(text=grammar_texts)
@example(text="2 3")
@example(text="q^(1/0)")
@settings(deadline=None, max_examples=300)
def test_pattern_path_agrees_with_the_descent_parser(text):
    want = outcome(_descend, text)
    # the patterns refuse only what _descend refuses, and _parse_text then
    # reports _descend's error
    got = _match_text(text)
    assert isinstance(want, tuple) if got is None else got == want
    assert outcome(_parse_text, text) == want


_BIG = "9" * 5000


@pytest.mark.parametrize(
    "text",
    [
        "q" + " " * 10**6 + "+ 1",
        "1" + " " * 10**6 + "2",
        "q^" + "9" * 10**6 + "x",
        f"{_BIG}*q^{_BIG} - p^({_BIG}/2) + {_BIG}",
        "q^(" + _BIG + "/3)",
        " + ".join(f"{i}*q^({i}/2)*p" for i in range(10**4)),
        "q + " * 50000 + "$",
        "q + " * 50000 + "2 3",
    ],
    ids=[
        "whitespace-run",
        "whitespace-run-between-digits",
        "long-exponent-then-x",
        "5000-digit-ints",
        "5000-digit-numerator-off-grid",
        "10000-terms",
        "error-after-50000-terms",
        "digit-gap-after-50000-terms",
    ],
)
def test_long_texts_match_the_descent_parser(text):
    assert outcome(_parse_text, text) == outcome(_descend, text)


@pytest.mark.parametrize(
    "text, converted",
    [
        # an error after a long integer converts nothing
        ("q^" + "9" * 500_000 + "x", []),
        ("5*q + " + "9" * 10_000 + "*q^2 $", []),
        # a fraction converts its denominator for the zero check, then its
        # numerator for the grid check
        ("q^(" + "9" * 10_000 + "/2", ["2"]),
        ("q^(1/0)", ["0"]),
        ("q^(-1/3) + $", ["3", "-1"]),
        # a valid text converts each digit run once, after the whole text
        ("12*q^(3/2) - 7*p^-2 + q^(5) 2", ["2", "3"]),
        ("12*q^(3/2) - 7*p^-2 + q^(5)", ["2", "3", "12", "-2", "7", "5"]),
    ],
)
def test_descent_converts_digit_runs_once_their_values_are_needed(monkeypatch, text, converted):
    calls, depth = [], []

    def counting(digits):
        # the outermost calls only: _int_from_str recurses through its name
        # for a sign and for long runs
        if not depth:
            calls.append(digits)
        depth.append(digits)
        try:
            return _int_from_str(digits)
        finally:
            depth.pop()

    monkeypatch.setattr("pqcalc.laurent._int_from_str", counting)
    want = outcome(_descend, text)
    assert calls == converted
    monkeypatch.undo()
    assert outcome(_descend, text) == want


def test_parse_keeps_no_state_per_term():
    # a backtracking repeat over the terms would hold about 230 bytes per
    # character of this text; the token list holds about 40
    text = "q+" * 10**5 + "q"
    tracemalloc.start()
    try:
        assert parse(text) == LaurentPoly.monomial(10**5 + 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * len(text)


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


@contextlib.contextmanager
def _no_digit_limit():
    # str() past CPython's int/str digit limit, which is restored after
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _str_unlimited(values):
    with _no_digit_limit():
        return [str(v) for v in values]


def reference_text(terms: dict) -> str:
    """The canonical text form written out term by term from the README's
    rules, using no kernel helper: an oracle for ``text()``."""

    def power(name, e2):
        if e2 % 2:
            return f"{name}^({e2}/2)"
        e = e2 // 2
        return name if e == 1 else f"{name}^{e}" if e > 0 else f"{name}^({e})"

    if not terms:
        return "0"
    out = []
    with _no_digit_limit():
        for (q2, p2), c in sorted(terms.items(), reverse=True):
            mag = str(abs(c))
            factors = [power(name, e2) for name, e2 in (("p", p2), ("q", q2)) if e2]
            if mag != "1" or not factors:
                factors.insert(0, mag)
            if out:
                sign = " - " if c < 0 else " + "
            else:
                sign = "-" if c < 0 else ""
            out.append(sign + "*".join(factors))
    return "".join(out)


def reference_json(f: LaurentPoly) -> str:
    """``json.dumps`` of the JSON oracle ``to_json_obj``, at any length."""
    obj = f.to_json_obj()
    with _no_digit_limit():
        return json.dumps(obj, indent=2)


def _huge(k, r, sign):
    return sign * (10**k + r)


# small, unit, past 2^64 and past the 4300-digit int/str limit
coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-9, 9).filter(bool),
    st.integers(2**64 + 1, 2**70).map(lambda c: c if c % 2 else -c),
    st.builds(_huge, st.integers(4295, 4400), st.integers(0, 10**30), st.sampled_from([1, -1])),
)
term_dicts = st.dictionaries(st.tuples(exp2s, exp2s), coeffs, max_size=8)

# 300 terms: 100 q exponents beside each p in {0, 1, -3}, with 1 and -1
# repeated (and a few 3s), so the renderers' per-value dicts of p factors
# and coefficients hit far more often than they miss; then the same value
# with one coefficient, and with one q exponent, past the int/str limit,
# which sends the whole value to the fallback converter
_MANY = {
    (q2, p2): (1, -1, -1, 1, 3, -1)[(q2 + p2) % 6] for q2 in range(-50, 50) for p2 in (0, 1, -3)
}
_MANY_LONG_COEFF = {**_MANY, (7, 1): -(10**4400 + 1)}
_MANY_LONG_Q = {(10**4400 + 1 if exp == (7, 1) else exp[0], exp[1]): c for exp, c in _MANY.items()}


@given(terms=term_dicts)
@example(terms={})
@example(terms={(0, 0): 1})
@example(terms={(0, 0): -1})
@example(terms={(0, 0): -(10**5000)})
@example(terms={(0, 3): -1, (0, 0): 1, (0, -2): 1})
@example(terms={(0, 2): 1, (1, -1): -3, (-1, 0): 1, (2, 0): 1})
@example(terms={(-3, 5): -(2**64 + 1), (0, -1): 7, (0, 0): -1})
@example(terms=_MANY)
@example(terms=_MANY_LONG_COEFF)
@example(terms=_MANY_LONG_Q)
@settings(deadline=None)
def test_text_matches_the_reference(terms):
    assert LaurentPoly(terms).text() == reference_text(terms)


@pytest.mark.parametrize(
    "value",
    [
        alexander_torus(199, 211),
        pq_number(Family.HOMFLY_FERMIONIC, 300),
        # the JSON head cache's worst case: 200 terms, 200 distinct
        # coefficients, every one past 2^64
        pq_number(PQPair(parse("2*q"), parse("3")), 200),
    ],
    ids=["D(199,211)", "homfly[300]", "(2q,3)[200]"],
)
def test_big_values_render_as_the_reference(value):
    assert value.text() == reference_text(dict(value.terms()))
    assert format_poly(value, "json") == json.dumps(value.to_json_obj(), indent=2)


@st.composite
def produced_values(draw):
    """A value from one of the producers that may mark its terms as
    written in descending canonical order, with the producer's name,
    negated or not: a monomial pair's ``Q`` may lie above ``P``, and a
    two-term division may span several chains."""
    kind = draw(st.sampled_from(["torus", "monomial pair", "heap", "runs", "root", "constructor"]))
    if kind == "torus":
        n = draw(st.integers(1, 40))
        f = alexander_torus(n, draw(st.integers(1, 40).filter(lambda l: gcd(n, l) == 1)))
    elif kind == "monomial pair":
        f = pq_number(PQPair(draw(monomials()), draw(monomials())), draw(st.integers(0, 12)))
    elif kind == "heap":
        den = draw(nonzero_polys())
        f = _div_by_heap(draw(nonzero_polys()) * den, den)
    elif kind == "runs":
        f = _division(_div_by_runs, *draw(two_term_divisions()))
        assume(isinstance(f, LaurentPoly))
    elif kind == "root":
        f = sqrt_perfect_square(draw(positive_leading_polys()) ** 2)
    else:
        f = draw(st.integers(-9, 9).map(LaurentPoly) | monomials())
    return kind, -f if draw(st.booleans()) else f


@given(produced=produced_values(), rng=st.randoms(use_true_random=False))
# Q above P: the summands' exponents ascend
@example(produced=("monomial pair", pq_number(PQPair(parse("q^(-1)"), parse("2*q")), 4)),
         rng=random.Random(0))
# two chains, one per p exponent: the runs interleave
@example(produced=("runs", _div_by_runs(parse("q^3 - 1") * parse("p + 1"), parse("q - 1"))),
         rng=random.Random(0))
@settings(deadline=None, max_examples=300)
def test_values_marked_ordered_are_ordered_and_render_as_unordered_copies(produced, rng):
    kind, f = produced
    event(f"{kind}: {'ordered' if f._ordered else 'sorted at render'}")
    if f._ordered:
        assert list(f._terms) == sorted(f._terms, reverse=True)
    else:
        # the torus form, the heap, the root and a constructed value of at
        # most one term are always marked
        assert kind in ("monomial pair", "runs")
    items = list(f._terms.items())
    rng.shuffle(items)
    copy = LaurentPoly._raw(dict(items))
    assert not copy._ordered
    assert f.text() == copy.text()
    assert format_poly(f, "json") == format_poly(copy, "json")
    assert f.terms() == copy.terms()


def test_ordered_values_past_the_int_str_limit_render_as_their_unordered_copies():
    # a first term past CPython's int/str limit fails the first render pass
    # at once, and the second pass must walk every term again
    f = pq_number(PQPair(10**5000 * parse("q"), parse("3")), 3)
    for g in (f, -f):
        assert g._ordered
        copy = LaurentPoly._raw(dict(reversed(g._terms.items())))
        assert g.text() == copy.text()
        assert format_poly(g, "json") == format_poly(copy, "json")


@given(
    values=st.lists(term_dicts.map(LaurentPoly), max_size=3),
    labels=st.lists(st.text(max_size=4), min_size=3, max_size=3, unique=True),
)
@example(values=[], labels=["P", "Q", "l1"])
@settings(deadline=None, max_examples=60)
def test_nested_json_matches_the_encoder(values, labels):
    objs = [f.to_json_obj() for f in values]
    assert format_json(values) == json.dumps(objs, indent=2)
    named = dict(zip(labels, values))
    assert format_json(named) == json.dumps(dict(zip(labels, objs)), indent=2)


@pytest.mark.parametrize("label", [1, True, None, 1.5, (1, 2)], ids=repr)
def test_format_json_refuses_labels_that_are_not_str(monkeypatch, label):
    # a JSON object's keys are strings: the label 1 used to write `1: {`,
    # and (1, 2) `[1, 2]: {`, which no JSON reader takes.  Refused before
    # any entry is rendered
    def render(*args):
        raise AssertionError("an entry was rendered before the labels were checked")

    monkeypatch.setattr("pqcalc.laurent.format_poly", render)
    with pytest.raises(TypeError, match=f"^a label must be a str, not {type(label).__name__}$"):
        format_json({"P": parse("q"), label: parse("p")})


@given(f=polys())
@settings(deadline=None)
def test_parse_format_round_trip(f):
    assert parse(format_poly(f)) == f


def test_format_mode_validation():
    with pytest.raises(ValueError):
        format_poly(parse("q"), "yaml")


def test_value_entries_take_plain_ints_as_constants():
    assert format_poly(3) == "3"
    assert format_poly(-3, "json") == format_poly(LaurentPoly(-3), "json")
    assert format_json([1, parse("q")]) == format_json([LaurentPoly(1), parse("q")])
    assert format_json({"c": 0}) == format_json({"c": LaurentPoly.zero()})
    assert exact_div(parse("q^2"), 1) == parse("q^2")
    assert exact_div(6, parse("2")) == exact_div(parse("6"), 2) == LaurentPoly(3)
    assert sqrt_perfect_square(4) == LaurentPoly(2)
    assert eval_numeric(3, 2) == 3
    assert poly_sum([1, parse("q"), -3]) == parse("q - 2")


@pytest.mark.parametrize("value", ["q", 1.5, None])
def test_value_entries_refuse_other_types(value):
    calls = {
        "f": [
            lambda v: format_poly(v),
            lambda v: format_poly(v, "json"),
            lambda v: format_json([parse("q"), v]),
            lambda v: format_json({"c": v}),
            sqrt_perfect_square,
            lambda v: eval_numeric(v, 2),
        ],
        "num": [lambda v: exact_div(v, 1)],
        "den": [lambda v: exact_div(parse("q"), v)],
        "each summand": [lambda v: poly_sum([parse("q"), v])],
    }
    for name, entries in calls.items():
        message = f"^{name} must be a LaurentPoly or an int, not {type(value).__name__}$"
        for call in entries:
            with pytest.raises(TypeError, match=message):
                call(value)


def test_format_json_refuses_a_container_that_is_not_a_mapping_or_a_sequence():
    entries = iter([parse("q")])
    for polys in (5, entries, {parse("q"), parse("p")}, frozenset()):
        with pytest.raises(
            TypeError, match=f"^polys must be a mapping or a sequence, not {type(polys).__name__}$"
        ):
            format_json(polys)
    assert next(entries) == parse("q")  # refused before any entry was read
    # a str is a sequence, of str entries
    with pytest.raises(TypeError, match="^f must be a LaurentPoly or an int, not str$"):
        format_json("q")
    assert format_json(()) == "[]" and format_json({}) == "{}"


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


# documents near JSON_SCHEMA: each key present or missing, each value valid
# or any other JSON value, and sometimes a key the schema does not name.
# Integral floats (``2.0``) are left out: the schema admits them, as JSON
# Schema's ``integer`` does, and ``from_json_obj`` refuses them.
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer())
    | st.sampled_from(["", "1", "q", "p", "1.5"])
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=2)
    | st.dictionaries(st.sampled_from(["q", "p", "coeff", "exp2", "terms", "r"]), kids, max_size=2),
    max_leaves=4,
)


def json_objects(**fields):
    return st.fixed_dictionaries({}, optional={**fields, "r": json_values}) | json_values


json_docs = json_objects(
    variables=st.just(["q", "p"]) | json_values,
    terms=st.lists(
        json_objects(
            coeff=st.from_regex(r"-?[0-9]+", fullmatch=True)
            | st.text(alphabet="-+0123456789 _", max_size=3)
            | json_values,
            exp2=json_objects(q=st.integers() | json_values, p=st.integers() | json_values),
        ),
        max_size=3,
    )
    | json_values,
)

_VALID_TERM = {"coeff": "-2", "exp2": {"q": 1, "p": 0}}


@given(obj=json_docs)
@example(obj={"variables": ["q", "p"], "terms": [_VALID_TERM]})
@example(obj={"variables": ["q", "p"], "terms": [{**_VALID_TERM, "coeff": "5\n"}]})
@example(obj={"variables": ["q", "p"], "terms": {}})
@example(obj={"variables": ["q", "p"], "terms": [], "r": 1})
@example(obj={"variables": ["q", "p"], "terms": [{**_VALID_TERM, "r": 1}]})
@example(obj={"variables": ["q", "p"], "terms": [{"coeff": "1", "exp2": {"q": 0, "p": 0, "r": 1}}]})
@example(obj={"variables": ["q", "p"]})
@example(obj={"variables": ["q", "p"], "terms": [{"coeff": "1"}]})
@example(obj={"variables": ["q", "p"], "terms": [{"coeff": "1", "exp2": {"q": 0}}]})
@example(obj={"variables": ["q", "p"], "terms": ["1"]})
@example(obj=[])
@settings(deadline=None, max_examples=300)
def test_from_json_obj_accepts_exactly_the_schema(obj):
    try:
        jsonschema.validate(obj, JSON_SCHEMA)
    except jsonschema.ValidationError:
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj(obj)
    else:
        f = LaurentPoly.from_json_obj(obj)
        terms = obj["terms"]
        assert f == LaurentPoly(
            [((t["exp2"]["q"], t["exp2"]["p"]), _int_from_str(t["coeff"])) for t in terms]
        )


big_coeffs = st.integers(min_value=-(2**80), max_value=2**80).filter(bool)


@given(terms=st.lists(st.tuples(st.tuples(exp2s, exp2s), big_coeffs), max_size=6))
@example(terms=[])
@example(terms=[((-3, -1), 2**64 + 1), ((-1, 0), -(2**65))])
@example(terms=list(_MANY.items()))
@example(terms=list(_MANY_LONG_COEFF.items()))
@example(terms=list(_MANY_LONG_Q.items()))
@settings(deadline=None)
def test_format_json_matches_the_encoder(terms):
    f = LaurentPoly(terms)
    assert format_poly(f, "json") == reference_json(f)


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


def test_long_coefficients_render_as_str_at_100k_digits():
    rng = random.Random(10**5)
    values = [
        10**100000 - 1,
        -(10**100000),
        rng.randrange(10**99999, 10**100000),
        -rng.randrange(2**332190, 2**332200),
    ]
    for value, want in zip(values, _str_unlimited(values)):
        assert LaurentPoly(value).text() == want
        assert json.loads(format_poly(LaurentPoly(value), "json"))["terms"][0]["coeff"] == want


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


# Exponents past the same limit: q and p exponents of 5000 and more digits
_NINES = 10**5000 - 1  # "9" * 5000


@pytest.mark.parametrize(
    "f, text",
    [
        (LaurentPoly({(2 * _NINES, 0): 1}), "q^" + "9" * 5000),
        (LaurentPoly({(-2 * _NINES, 0): -3}), "-3*q^(-" + "9" * 5000 + ")"),
        (LaurentPoly({(_NINES, 0): 1}), "q^(" + "9" * 5000 + "/2)"),
        (LaurentPoly({(0, 2 * _NINES): 1}), "p^" + "9" * 5000),
        (LaurentPoly({(0, -_NINES): 2, (1, 0): 1}), "q^(1/2) + 2*p^(-" + "9" * 5000 + "/2)"),
        (
            LaurentPoly({(2 * _NINES, -_NINES): 1, (2, 0): -1, (0, 0): 1, (-_NINES, 2): 5}),
            "p^(-" + "9" * 5000 + "/2)*q^" + "9" * 5000
            + " - q + 1 + 5*p*q^(-" + "9" * 5000 + "/2)",
        ),
    ],
    ids=["q", "negative q", "half q", "p", "half p", "mixed"],
)
def test_long_exponents_render_and_round_trip(f, text):
    assert f.text() == text
    assert repr(f) == f"LaurentPoly({text!r})"
    assert parse(text) == f
    rendered = format_poly(f, "json")
    obj = f.to_json_obj()
    assert [(t["exp2"]["q"], t["exp2"]["p"]) for t in obj["terms"]] == [e for e, _ in f.terms()]
    assert LaurentPoly.from_json_obj(obj) == f
    # json's own int parsing stops at the limit as well
    assert json.loads(rendered, parse_int=_int_from_str) == obj
    assert LaurentPoly.from_json_obj(json.loads(rendered, parse_int=_int_from_str)) == f


# an input int past the limit, quoted in full by the typed error it causes
_LONG = 10**5000
_LONG_DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize(
    "call, error, quoted",
    [
        (lambda: parse("q^(1/" + "9" * 5000 + ")"), GridError, "1/" + "9" * 5000),
        (lambda: substitute_z({-_LONG: 1}), NegativePowerOfZError, "-" + _LONG_DIGITS),
        (lambda: alexander_torus(2 * _LONG, 4 * _LONG), NotCoprimeError, "2" + _LONG_DIGITS[1:]),
        (lambda: alexander_torus(_LONG, _LONG + 1), BudgetExceededError, _LONG_DIGITS[:-1] + "1"),
        (lambda: pq_number("alexander-fermionic", _LONG), BudgetExceededError, _LONG_DIGITS),
        (
            lambda: LaurentPoly.from_json_obj(
                {"variables": ["q", "p"], "terms": [{"coeff": _LONG, "exp2": {"q": 0, "p": 0}}]}
            ),
            ValueError,
            "coefficient of type int",
        ),
    ],
    ids=["grid", "negative-z-power", "not-coprime", "torus-budget", "number-budget", "json"],
)
def test_typed_errors_quote_long_ints(call, error, quoted):
    with pytest.raises(error) as info:
        call()
    assert quoted in str(info.value)


def test_kernel_errors_are_value_errors():
    for error in (ParseError, GridError, NonExactDivisionError, NotAPerfectSquareError,
                  NegativePowerOfZError, BudgetExceededError):
        assert issubclass(error, LaurentError)
    assert issubclass(LaurentError, ValueError)
    assert BudgetExceededError.__bases__ == (LaurentError,)


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


@pytest.mark.parametrize("power", [1.5, 1.0, True, False, "3", Fraction(2)])
def test_substitute_z_takes_integer_powers_only(power):
    with pytest.raises(TypeError, match="^power of z must be an int, not "):
        substitute_z({power: 1})


@pytest.mark.parametrize("coeff", ["q", 1.5, None])
def test_substitute_z_takes_poly_or_int_coefficients_only(coeff):
    message = f"^coefficient must be a LaurentPoly or an int, not {type(coeff).__name__}$"
    with pytest.raises(TypeError, match=message):
        substitute_z([1, coeff])


@given(k=st.integers(0, 6))
@settings(deadline=None)
def test_substitute_z_monomial_is_power(k):
    z = parse("q^(1/2) - q^(-1/2)")
    assert substitute_z({k: 1}) == z**k
