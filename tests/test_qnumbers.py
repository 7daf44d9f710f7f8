"""Deformed-integer families: parameter tables, sum form, recurrence."""

import subprocess
import sys
import tracemalloc
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import pqcalc
from pqcalc import checks, laurent, qnumbers, skein, torus
from pqcalc.checks import (
    Counterexample,
    first_counterexample,
    homfly_factor_counterexample,
    recurrence_counterexamples,
    torus2_counterexamples,
)
from pqcalc.laurent import (
    BudgetExceededError,
    LaurentPoly,
    exact_div,
    parse,
    poly_sum,
    sqrt_perfect_square,
)
from pqcalc.qnumbers import (
    FAMILY_NAMES,
    Family,
    PQPair,
    family_params,
    homfly_factorization_check,
    number_sequence,
    pq_number,
    pq_numbers,
    recurrence_numbers,
)
from pqcalc.skein import DegenerateSkeinError, link_coeffs_from_pq, recurrence_generate

from poly_strategies import exp2s, monomials, overwriting_dot, polys


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


@pytest.mark.parametrize("value", [3, None, 1.5, ("q^(1/2)", "-q^(-1/2)"), ["jones-bosonic"]])
def test_family_params_rejects_values_that_name_no_family(value):
    # neither a Family, a PQPair nor a family name: the unknown-family
    # ValueError, as for a wrong name, and not a KeyError
    with pytest.raises(ValueError, match="^unknown family .*; expected one of: alexander-"):
        family_params(value)
    with pytest.raises(ValueError, match="^unknown family "):
        pq_number(value, 3)


def test_family_params_takes_plain_int_members_as_constants():
    q = parse("q")
    pair = family_params(PQPair(q, 1))
    assert pair == PQPair(q, LaurentPoly.one()) and pair.P is q
    assert pq_number(PQPair(q, 1), 3) == parse("q^2 + q + 1")
    assert list(islice(pq_numbers(PQPair(q, 1)), 4)) == number_sequence(PQPair(q, 1), 3)
    assert list(islice(recurrence_numbers(PQPair(-1, q)), 4)) == number_sequence(PQPair(-1, q), 3)


@pytest.mark.parametrize("member", ["P", "Q"])
@pytest.mark.parametrize("value", ["q", 1.5, None])
def test_family_params_refuses_members_of_other_types(member, value):
    pair = PQPair(**{"P": parse("q"), "Q": parse("p"), member: value})
    message = f"^{member} must be a LaurentPoly or an int, not {type(value).__name__}$"
    for call in (family_params, lambda f: pq_number(f, 3), pq_numbers, recurrence_numbers,
                 lambda f: number_sequence(f, 3)):
        with pytest.raises(TypeError, match=message):
            call(pair)


def test_streams_refuse_a_bad_family_when_called():
    # before any value is drawn, as number_sequence does
    for stream in (pq_numbers, recurrence_numbers):
        with pytest.raises(ValueError, match="^unknown family 'nope'"):
            stream("nope")
    with pytest.raises(DegenerateSkeinError):
        recurrence_numbers(PQPair(parse("q"), LaurentPoly.zero()))


def _unreachable(*args):
    raise AssertionError(f"called with {args!r}")


@pytest.mark.parametrize("n", [3.0, 2.5, "3", None, True])
def test_pq_number_refuses_an_n_that_is_not_an_int(monkeypatch, n):
    # refused before any work: not even the family is resolved
    monkeypatch.setattr(qnumbers, "family_params", _unreachable)
    with pytest.raises(TypeError, match=f"^n must be an int, not {type(n).__name__}$"):
        pq_number(Family.ALEXANDER_FERMIONIC, n)


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
# monomial pairs: pq_number writes the summands directly


def _literal_sum(P, Q, n):
    """The definition, summand by summand, its powers built by repeated
    ``*``: ``**`` is priced, so it would meet a patched budget first."""
    powers = [(LaurentPoly.one(), LaurentPoly.one())]
    for _ in range(n - 1):
        powers.append((powers[-1][0] * P, powers[-1][1] * Q))
    return poly_sum(powers[n - 1 - i][0] * powers[i][1] for i in range(n))


big_coeffs = st.one_of(
    st.integers(-3, 3),  # 0 makes a zero P or Q
    st.integers(2**64 + 1, 2**70),
    st.integers(-(2**70), -(2**64) - 1),
)


@st.composite
def monomial_pairs(draw):
    e = (draw(exp2s), draw(exp2s))
    a = draw(big_coeffs)
    f = draw(st.sampled_from([e, (draw(exp2s), draw(exp2s))]))
    b = draw(st.one_of(big_coeffs, st.just(a), st.just(-a)))
    return PQPair(LaurentPoly.monomial(a, *e), LaurentPoly.monomial(b, *f))


Q_HALF = parse("q^(1/2)")


@given(pair=monomial_pairs(), n=st.integers(0, 60))
@example(pair=PQPair(parse("q"), parse("-q")), n=8)  # summands cancel to 0
@example(pair=PQPair(parse("q"), parse("-q")), n=7)
@example(pair=PQPair(parse("2*q"), parse("-3*q")), n=5)
@example(pair=PQPair(Q_HALF, Q_HALF), n=6)
@example(pair=PQPair(LaurentPoly.zero(), LaurentPoly.zero()), n=1)
@example(pair=PQPair(LaurentPoly.zero(), LaurentPoly.zero()), n=3)
@example(pair=PQPair(LaurentPoly.zero(), parse("5*p")), n=4)
@example(pair=PQPair(parse("-2*q^(-3/2)*p"), LaurentPoly.zero()), n=4)
@example(pair=PQPair(parse("3*q"), parse("-2*p")), n=9)
@settings(deadline=None, max_examples=300)
def test_monomial_pairs_match_the_literal_sum_and_the_stream(pair, n):
    got = pq_number(pair, n)
    assert got == _literal_sum(pair.P, pair.Q, n)
    assert got == next(islice(pq_numbers(pair), n, None))
    assert len(got.terms()) <= n


def test_a_monomial_and_a_binomial_take_the_power_tables():
    pair = PQPair(parse("2*q"), parse("q^(-1) - 3*p"))
    stream = pq_numbers(pair)
    for n in range(31):
        assert pq_number(pair, n) == next(stream) == _literal_sum(pair.P, pair.Q, n)


# ----------------------------------------------------------------------
# the budget: the size of [n] is bounded before it is built


def test_budget_error_is_shared_with_torus():
    # one constant and one class, in laurent; neither module keeps a copy
    assert laurent.MAX_WORK == 4 * 10**6
    assert pqcalc.BudgetExceededError is laurent.BudgetExceededError is BudgetExceededError
    for module in (qnumbers, torus):
        assert not hasattr(module, "MAX_WORK") and not hasattr(module, "BudgetExceededError")
    assert issubclass(BudgetExceededError, laurent.LaurentError)
    assert issubclass(BudgetExceededError, ValueError)


@pytest.mark.parametrize(
    "P, Q, work, last",
    [
        # distinct monomials: n terms of one word each
        ("q", "q^(-1)", 100, 100),
        # equal exponents: one term of 1 + (bits(n) + n - 1) // 64 words
        ("2*q", "q", 3, 184),
        # binomial: n terms (the multisets), with M = 2
        ("q + 1", "1", 100, 58),
        # three exponents in a plane: n(n + 1)/2 terms, under the box
        ("q + p", "1", 100, 13),
        # three exponents on a line: the box's 2n - 1 terms, under n(n + 1)/2
        ("1 + q^(1/2)", "q", 100, 50),
    ],
)
def test_budget_boundaries(monkeypatch, P, Q, work, last):
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work)
    pair = PQPair(parse(P), parse(Q))
    assert pq_number(pair, last) == _literal_sum(pair.P, pair.Q, last)
    with pytest.raises(BudgetExceededError, match=rf"n = {last + 1} is over the budget of {work} "):
        pq_number(pair, last + 1)


@pytest.mark.parametrize(
    "P, Q, n",
    [("q^(1/2)", "-q^(-1/2)", 10**8), ("q + 1", "1", 20000), ("1000000000*q", "1", 60000)],
)
def test_oversized_numbers_are_refused_before_building(P, Q, n):
    pair = PQPair(parse(P), parse(Q))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"over the budget of 4000000"):
            pq_number(pair, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("P, Q", [("q + 1 + p", "q^(-1)"), ("q^(-1)", "q + 1 + p")])
def test_the_table_route_holds_one_power_table(P, Q):
    # [n] is symmetric in P and Q: the powers of q^(-1), the smaller side,
    # are held and those of q + 1 + p streamed, whichever of P and Q it
    # is.  Holding both tables peaked at 5.3 MiB
    pair = PQPair(parse(P), parse(Q))
    tracemalloc.start()
    try:
        pq_number(pair, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_equal_exponents_cost_nothing_in_n(monkeypatch):
    huge = 10**100
    q, zero = parse("q"), LaurentPoly.zero()
    assert pq_number(PQPair(q, q), huge) == LaurentPoly.monomial(huge, 2 * (huge - 1))
    assert pq_number(PQPair(q, -q), huge) == 0
    assert pq_number(PQPair(zero, -parse("p")), huge + 1) == LaurentPoly.monomial(1, 0, 2 * huge)
    # both zero: one term of bits(n) bits, so one word up to n = 2^63 - 1
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", 1)
    assert pq_number(PQPair(zero, zero), 2**63 - 1) == 0
    with pytest.raises(BudgetExceededError):
        pq_number(PQPair(zero, zero), 2**63)


# ----------------------------------------------------------------------
# the recurrence


def test_sequence_seeds_and_first_step():
    seq = number_sequence(Family.ALEXANDER_FERMIONIC, 2)
    assert seq == [parse("0"), parse("1"), parse("q^(1/2) - q^(-1/2)")]


def test_sequence_length_and_validation():
    assert len(number_sequence(Family.JONES_BOSONIC, 7)) == 8
    with pytest.raises(ValueError):
        number_sequence(Family.JONES_BOSONIC, 0)


@pytest.mark.parametrize("pair", [PQPair(parse("q"), LaurentPoly.zero()),
                                  PQPair(LaurentPoly.zero(), parse("-p"))])
def test_sequence_refuses_a_vanishing_product(pair):
    # the recurrence is the skein chain, which needs l2 = -P*Q != 0; the
    # sum-form routes still serve such a pair
    with pytest.raises(DegenerateSkeinError):
        number_sequence(pair, 5)
    assert list(islice(pq_numbers(pair), 6)) == [pq_number(pair, n) for n in range(6)]


def test_sequence_is_refused_before_memory_runs_out():
    # [n] of (2q, 3) has n terms whose coefficients grow by about 1.6 bits
    # a step: the list to [10^6] is refused inside a 1 GiB address space,
    # where the list without a meter ended in MemoryError
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from pqcalc.laurent import parse\n"
        "from pqcalc.qnumbers import PQPair, number_sequence\n"
        "try:\n"
        "    number_sequence(PQPair(2 * parse('q'), 3), 10**6)\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "BudgetExceededError [0]..[1000000] is over the budget of 4000000 terms times "
        "64-bit coefficient words\n"
    )


_BOUND_CHECKS = {
    "recurrence": lambda n: recurrence_counterexamples(Family.JONES_BOSONIC, n),
    "homfly-factor": homfly_factor_counterexample,
    "torus2": torus2_counterexamples,
}


@pytest.mark.parametrize("check", _BOUND_CHECKS.values(), ids=_BOUND_CHECKS)
@pytest.mark.parametrize("bound", [0, -5])
def test_checks_refuse_a_bound_below_one(check, bound):
    # one rule for every check: no bound below 1 reads as a pass over no cases
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        check(bound)
    assert check(1) in (None, (None, None))


_JONES_COEFFS = link_coeffs_from_pq(family_params(Family.JONES_BOSONIC))

# every public function that takes a bound, count or index, by the name of
# that argument; pq_number's n has its own test above
_INT_ARGS = {
    "number_sequence": ("n_max", lambda b: number_sequence(Family.JONES_BOSONIC, b)),
    "recurrence_counterexamples": ("n_max", _BOUND_CHECKS["recurrence"]),
    "homfly_factor_counterexample": ("n_max", homfly_factor_counterexample),
    "torus2_counterexamples": ("n_max", torus2_counterexamples),
    "checks.run": ("n_max", lambda b: checks.run("all", b)),
    "recurrence_generate": (
        "count", lambda b: recurrence_generate(_JONES_COEFFS, LaurentPoly.zero(), LaurentPoly.one(), b)
    ),
    "homfly_factorization_check": ("n", homfly_factorization_check),
    "alexander_torus[n]": ("n", lambda b: torus.alexander_torus(b, 2)),
    "alexander_torus[l]": ("l", lambda b: torus.alexander_torus(2, b)),
    "alexander_torus2": ("n", torus.alexander_torus2),
}


@pytest.mark.parametrize("arg, call", _INT_ARGS.values(), ids=_INT_ARGS)
@pytest.mark.parametrize("bound", [3.0, 2.5, "3", None, True])
def test_bounds_that_are_not_ints_are_refused(arg, call, bound):
    # one rule and one message; number_sequence used to read 3.0 as 3
    with pytest.raises(TypeError, match=f"^{arg} must be an int, not {type(bound).__name__}$"):
        call(bound)
    call(3)  # the int is served


# every entry on the integer rule: (argument, least value, whether it
# counts the values to make, the call, the first builder it reaches)
_RULE_ENTRIES = {
    "number_sequence": ("n_max", 1, True, _INT_ARGS["number_sequence"][1],
                        (qnumbers, "recurrence_numbers")),
    "recurrence_counterexamples": ("n_max", 1, True, _BOUND_CHECKS["recurrence"],
                                   (qnumbers, "pq_numbers")),
    "homfly_factor_counterexample": ("n_max", 1, True, homfly_factor_counterexample,
                                     (qnumbers, "pq_numbers")),
    "torus2_counterexamples": ("n_max", 1, True, torus2_counterexamples,
                               (qnumbers, "pq_numbers")),
    # "all" at MAX_WORK is refused by the delta-identity walk's own price,
    # before any suite runs (test_a_walk_past_the_budget_divides_nothing)
    "checks.run": ("n_max", 1, True, lambda b: checks.run("recurrence", b),
                   (qnumbers, "pq_numbers")),
    "recurrence_generate": ("count", 2, True, _INT_ARGS["recurrence_generate"][1],
                            (skein, "recurrence")),
    "pq_number": ("n", 0, False, lambda n: pq_number(Family.ALEXANDER_BOSONIC, n),
                  (qnumbers, "family_params")),
    "homfly_factorization_check": ("n", 1, False, homfly_factorization_check,
                                   (qnumbers, "pq_number")),
    # q^(1/2) at q = 2 takes a square root
    "eval_numeric": ("digits", 1, False, lambda d: laurent.eval_numeric(parse("q^(1/2)"), 2, 1, d),
                     (laurent, "_fraction_sqrt")),
    "alexander_torus[n]": ("n", 1, False, _INT_ARGS["alexander_torus[n]"][1],
                           (torus, "gcd")),
    "alexander_torus[l]": ("l", 1, False, _INT_ARGS["alexander_torus[l]"][1],
                           (torus, "gcd")),
    "alexander_torus2": ("n", 1, True, torus.alexander_torus2, (torus, "exact_div")),
}


@pytest.mark.parametrize("arg, least, counts, call, builder", _RULE_ENTRIES.values(),
                         ids=_RULE_ENTRIES)
def test_one_integer_rule_at_every_entry(monkeypatch, arg, least, counts, call, builder):
    # every refusal comes before the builder; what the rule lets through
    # reaches it, at the least value and, for a count, at MAX_WORK exactly
    monkeypatch.setattr(*builder, _unreachable)
    for value in (True, 3.0):
        with pytest.raises(TypeError, match=f"^{arg} must be an int, not {type(value).__name__}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{arg} must be at least {least}$") as info:
        call(least - 1)
    assert info.type is ValueError
    served = [least, laurent.MAX_WORK] if counts else [least]
    for value in served:
        with pytest.raises(AssertionError, match="^called with "):
            call(value)
    if counts:
        for value in (laurent.MAX_WORK + 1, 10**5000):
            quoted = laurent._int_to_str(value)
            with pytest.raises(
                BudgetExceededError,
                match=f"^{arg} = {quoted} is over the budget of {laurent.MAX_WORK} values$",
            ):
                call(value)


# the square root's radicands (1 + q)^(2k), built before any budget is patched
_SQUARES = {k: parse("q + 1") ** (2 * k) for k in (5, 6)}

# each entry at a budget of 15: (the call, the last size it serves, the
# next size it takes)
_BUDGET_ENTRIES = {
    # n terms of one word each
    "pq_number": (lambda n: pq_number(Family.ALEXANDER_BOSONIC, n), 15, 16),
    # k + 1 terms of one word each, but the pair price binds first:
    # ** 6 ends on 3 x 5 term pairs, ** 7 on (q + 1)^3 times (q + 1)^4, 4 x 5
    "pow": (lambda k: parse("q + 1") ** k, 6, 7),
    # the root (1 + q)^k: step i matches a one-word coefficient against i
    # root terms, k(k + 1)/2 in all
    "sqrt_perfect_square": (lambda k: sqrt_perfect_square(_SQUARES[k]), 5, 6),
    # 2 walk steps and l terms; l + 1 is even
    "alexander_torus": (lambda l: torus.alexander_torus(2, l), 13, 15),
    "alexander_torus2": (torus.alexander_torus2, 15, 16),
    # the values past the seeds have 2, 3, 4, ... terms of one word each:
    # count 6 builds four of them, 14 words, and count 7 five, 20 words
    "recurrence_generate": (
        lambda count: recurrence_generate(_JONES_COEFFS, LaurentPoly.zero(), LaurentPoly.one(),
                                          count), 6, 7,
    ),
    # the same meter from [2]: [2]..[5] have 2 to 5 terms, 14 words, and
    # [6] brings 20
    "number_sequence": (lambda n_max: number_sequence(Family.JONES_BOSONIC, n_max), 5, 6),
    # (q^k - 1) / (q - 1) has k terms
    "exact_div": (lambda k: exact_div(parse(f"q^{k} - 1"), parse("q - 1")), 15, 16),
    "recurrence_counterexamples": (_BOUND_CHECKS["recurrence"], 15, 16),
    "homfly_factor_counterexample": (homfly_factor_counterexample, 15, 16),
    # the last odd n is priced, D(n, 2) at n + 2: 15 at 14, 17 at 15
    "torus2_counterexamples": (torus2_counterexamples, 14, 15),
    "checks.run": (lambda n: checks.run("all", n), 14, 15),
}


@pytest.mark.parametrize("call, last, past", _BUDGET_ENTRIES.values(), ids=_BUDGET_ENTRIES)
def test_one_max_work_governs_every_entry(monkeypatch, call, last, past):
    # only laurent's constant is patched: no entry keeps a copy of its own
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", 15)
    call(last)
    with pytest.raises(BudgetExceededError, match=" is over the budget of 15 "):
        call(past)


@pytest.mark.parametrize("family", list(Family))
def test_sum_and_recurrence_agree_to_200(family):
    # three routes: pq_number's direct summands, the geometric-step stream
    # and the three-term recurrence
    seq = number_sequence(family, 200)
    stream = pq_numbers(family)
    for n in range(201):
        got = pq_number(family, n)
        assert got == seq[n] == next(stream), n
    assert recurrence_counterexamples(family, 200) == (None, None)


@pytest.mark.parametrize("family", list(Family))
def test_recurrence_closure_catches_a_broken_step(monkeypatch, family):
    # the step adds products that share an exponent, so the bug breaks it.
    # The sum-form stream of a monomial pair never does, so it stays right
    # and the closure check, which steps from its values, sees the bug
    monkeypatch.setattr("pqcalc.skein._dot", overwriting_dot)
    assert recurrence_counterexamples(family, 10)[0] is not None


def test_recurrence_closure_steps_the_stream_once_per_n(monkeypatch):
    # each closure step is one skein.recurrence stream from [n-2] and [n-1],
    # n = 2..30, and never recurrence_generate's metered list
    def refused(*args):
        raise AssertionError("the closure called recurrence_generate")

    real = skein.recurrence
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("pqcalc.skein.recurrence_generate", refused)
    monkeypatch.setattr("pqcalc.skein.recurrence", counted)
    for family in Family:
        assert recurrence_counterexamples(family, 30) == (None, None), family
    assert len(calls) == 6 * 29


def _count_recurrence_draws(monkeypatch, k=None, bad=None):
    """Wrap ``recurrence_numbers`` to list each n it yields, with ``bad``
    in place of [k]; returns the list."""
    real = qnumbers.recurrence_numbers
    drawn = []

    def counted(family):
        for n, value in enumerate(real(family)):
            drawn.append(n)
            yield bad if n == k else value

    monkeypatch.setattr(qnumbers, "recurrence_numbers", counted)
    return drawn


def test_recurrence_walk_stops_once_both_sides_fail(monkeypatch):
    # the sum form's [k] poisoned: the closure step and the recurrence both
    # miss it at n = k, so the walk draws no value past [k]
    k, bad = 6, parse("q^7 - p")
    real = qnumbers.pq_numbers
    drawn = []

    def poisoned(family):
        for n, value in enumerate(real(family)):
            drawn.append(n)
            yield bad if n == k else value

    monkeypatch.setattr(qnumbers, "pq_numbers", poisoned)
    recurred = _count_recurrence_draws(monkeypatch)
    closure, agreement = recurrence_counterexamples(Family.JONES_BOSONIC, 12)
    assert closure.n == agreement.n == k
    assert drawn == list(range(k + 1))
    assert recurred == list(range(k + 1))


def test_recurrence_walk_stops_drawing_the_recurrence_at_its_counterexample(monkeypatch):
    # the recurrence's [k] poisoned: the agreement side stops there, while
    # the closure side, which steps from the sum form, walks on to max_n
    k, bad = 4, parse("q^7 - p")
    recurred = _count_recurrence_draws(monkeypatch, k, bad)
    closure, agreement = recurrence_counterexamples(Family.JONES_BOSONIC, 12)
    assert closure is None
    assert agreement == Counterexample(k, bad, pq_number(Family.JONES_BOSONIC, k))
    assert recurred == list(range(k + 1))


def test_recurrence_walk_holds_two_recurrence_values():
    # two values of each stream take about 0.4 MB; building number_sequence's
    # whole list before the walk peaked at 11.8 MB
    tracemalloc.start()
    try:
        assert recurrence_counterexamples("homfly-bosonic", 400) == (None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "pair",
    [PQPair(parse("q + 1 + p"), parse("q^(-1)")), PQPair(parse("2*q"), parse("-3")),
     PQPair(parse("q - p"), parse("q - p"))],
)
def test_recurrence_step_matches_the_sum_form(pair):
    # pairs off the monomial route, and a degenerate one: one step of the
    # skein recurrence carries the sum form's [n-1] and [n] to its [n+1]
    coeffs = link_coeffs_from_pq(pair)
    numbers = [pq_number(pair, n) for n in range(10)]
    for n in range(1, 9):
        assert recurrence_generate(coeffs, numbers[n - 1], numbers[n], 3)[-1] == numbers[n + 1], n
    zero = LaurentPoly.zero()
    assert recurrence_generate(coeffs, zero, zero, 3)[-1].is_zero


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
