"""Closed-form torus values: examples, symmetry, and the l = 2 column."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from pqcalc.checks import Counterexample, torus2_counterexamples
from pqcalc.laurent import (
    BudgetExceededError,
    LaurentPoly,
    eval_numeric,
    exact_div,
    format_poly,
    parse,
)
from pqcalc.qnumbers import Family, pq_number
from pqcalc import checks, laurent, qnumbers, torus
from pqcalc.torus import (
    NotCoprimeError,
    alexander_torus,
    alexander_torus2,
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
    product form that alexander_torus builds."""
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


# ----------------------------------------------------------------------
# the column: a value renders from its exponent list, and builds its term
# dict on the first other read


def _dict_built(f: LaurentPoly) -> bool:
    # reads the _terms slot itself, past the hook that would build it
    try:
        LaurentPoly.__dict__["_terms"].__get__(f)
    except AttributeError:
        return False
    return True


def _renders(f: LaurentPoly) -> tuple:
    return f.text(), format_poly(f, "text"), format_poly(f, "json"), f.terms()


COLUMN_PAIRS = [(1, 1), (1, 6), (2, 3), (3, 5), (12, 35), (64, 45), (211, 199)]


@pytest.mark.parametrize("n, l", COLUMN_PAIRS)
def test_rendering_builds_no_term_dict(n, l):
    f = alexander_torus(n, l)
    first = _renders(f)
    assert not _dict_built(f)
    # each render walks the column afresh
    assert _renders(f) == first
    assert not _dict_built(f)


@pytest.mark.parametrize("n, l", COLUMN_PAIRS)
def test_rendering_writes_the_column_without_walking_its_terms(monkeypatch, n, l):
    f = alexander_torus(n, l)
    want = f.text(), format_poly(f, "text"), format_poly(f, "json")

    def walk(self):
        raise AssertionError("a column rendered through its term walk")

    # the column writers read the exponent list itself; a render that goes
    # back through the per-term walk fails here
    monkeypatch.setattr(laurent._Column, "_items", walk)
    assert (f.text(), format_poly(f, "text"), format_poly(f, "json")) == want
    assert not _dict_built(f)


@pytest.mark.parametrize("n, l", COLUMN_PAIRS)
@pytest.mark.parametrize(
    "read",
    [lambda f, ref: f == ref, lambda f, ref: hash(f), lambda f, ref: -f, lambda f, ref: f * 1],
    ids=["eq", "hash", "neg", "times-1"],
)
def test_other_reads_build_the_dict_from_the_column(n, l, read):
    f = alexander_torus(n, l)
    ref = LaurentPoly(dict(f.terms()))
    got, want = read(f, ref), read(ref, ref)
    assert _dict_built(f)
    assert got == want
    if isinstance(want, LaurentPoly):
        assert _renders(got) == _renders(want)
    # the value itself, now held as its dict alone
    assert f._exps is None
    assert f == ref and hash(f) == hash(ref)
    assert _renders(f) == _renders(ref)


DUPLICATES = pytest.mark.parametrize(
    "duplicate",
    [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)


@pytest.mark.parametrize("built", [False, True], ids=["column", "dict"])
@DUPLICATES
def test_torus_values_pickle_and_copy(duplicate, built):
    f = alexander_torus(12, 35)
    want = _renders(f)
    if built:
        hash(f)
    g = duplicate(f)
    # rendered before the comparison below builds the copy's dict
    assert _renders(g) == want
    assert g == f and hash(g) == hash(f)
    assert _renders(g) == _renders(f) == want


@DUPLICATES
def test_duplicating_a_column_builds_no_dict(duplicate):
    f = alexander_torus(12, 35)
    g = duplicate(f)
    assert not _dict_built(f) and not _dict_built(g)


@pytest.mark.parametrize(
    "n, l",
    [(2, 4 * 10**6 + 1), (3000, 10**9 + 1), (10**12, 10**12 + 1), (2**32 + 1, 2**32)],
)
def test_oversized_pairs_are_refused_before_building(n, l):
    assert laurent.MAX_WORK == 4 * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"over the budget of 4000000"):
            alexander_torus(n, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert issubclass(BudgetExceededError, ValueError)


@pytest.mark.parametrize("n, l", [(2, 10**20 + 1), (10**20 + 1, 3)])
def test_a_small_m_beside_a_huge_g_is_refused_by_the_count(n, l):
    # a column of 10^20 rows is past what len() of a range can hold; the
    # closed-form count never builds one
    with pytest.raises(BudgetExceededError, match=r"over the budget of 4000000 walk steps"):
        alexander_torus(n, l)


def test_budget_counts_walk_steps_and_terms(monkeypatch):
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", 100)
    assert len(alexander_torus(2, 97).terms()) == 97  # 2 steps + 97 terms
    with pytest.raises(BudgetExceededError):
        alexander_torus(99, 2)  # 2 steps + 99 terms
    assert len(alexander_torus(10, 11).terms()) == 19  # c = 90, but 29 of work
    with pytest.raises(BudgetExceededError):
        alexander_torus(101, 102)  # 101 walk steps before any term


def test_budget_is_the_closed_form_count_exactly(monkeypatch):
    # m walk steps plus T terms, with T counted here by the quotient's own
    # terms: at m + T the value is served, one below it is refused
    for n, l in coprime_pairs(29):
        if not 2 <= n < l:
            continue
        want = quotient_form(n, l)
        work = n + len(want.terms())
        for a, b in ((n, l), (l, n)):
            monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work)
            assert alexander_torus(a, b) == want, (a, b)
            monkeypatch.setattr("pqcalc.laurent.MAX_WORK", work - 1)
            with pytest.raises(BudgetExceededError, match=f"^D\\({a}, {b}\\) is over "):
                alexander_torus(a, b)
            # the next quotient_form divides under the full budget
            monkeypatch.undo()


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
# the counterexample checks


def test_delta_identity_check():
    # D(n, 2) is the Alexander fermionic [n]; the closed form agrees at odd n
    for n in range(1, 51):
        assert alexander_torus2(n) == pq_number(Family.ALEXANDER_FERMIONIC, n)
        if n % 2:
            assert alexander_torus(n, 2) == alexander_torus2(n)


def test_counterexample_checks_pass():
    assert torus2_counterexamples(60) == (None, None)


def _poison_column_two(monkeypatch, bad_at) -> list[int]:
    """Make ``alexander_torus2(n)`` return ``bad_at(n)`` when that is not
    None; the returned list records every n it is called with."""
    real = torus.alexander_torus2
    calls = []

    def poisoned(n):
        calls.append(n)
        bad = bad_at(n)
        return real(n) if bad is None else bad

    monkeypatch.setattr(torus, "alexander_torus2", poisoned)
    return calls


def _deformed(n, got):
    # got is the l = 2 column, want the deformed integer
    return Counterexample(n, got, pq_number(Family.ALEXANDER_FERMIONIC, n))


def _closed(n, want):
    # got is the closed form, want the l = 2 column; only odd n are checked
    return Counterexample(n, alexander_torus(n, 2), want)


def test_counterexample_checks_report_the_first_bad_n(monkeypatch):
    # both sides fail, at different n: the closed form first sees the bad
    # column at the odd n after k
    k, bad = 6, parse("q^2")
    calls = _poison_column_two(monkeypatch, lambda n: bad if n >= k else None)
    assert torus2_counterexamples(60) == (_deformed(k, bad), _closed(k + 1, bad))
    # the walk stops once both sides have their counterexample
    assert calls == list(range(1, k + 2))
    # below k both checks still pass
    assert torus2_counterexamples(k - 1) == (None, None)


def test_counterexample_checks_fail_from_a_poisoned_odd_n(monkeypatch):
    # both sides fail at the same n
    k, bad = 9, parse("q")
    _poison_column_two(monkeypatch, lambda n: bad if n >= k else None)
    assert torus2_counterexamples(k - 1) == (None, None)
    assert torus2_counterexamples(k) == (_deformed(k, bad), _closed(k, bad))


def test_only_the_deformed_side_fails_at_an_even_n(monkeypatch):
    # the closed form checks odd n only, so it passes over every n while
    # the deformed side stops dividing past its counterexample
    k, bad = 8, parse("q")
    calls = _poison_column_two(monkeypatch, lambda n: bad if n == k else None)
    assert torus2_counterexamples(20) == (_deformed(k, bad), None)
    assert calls == [*range(1, k + 1), *range(k + 1, 21, 2)]


def test_closed_form_counterexample_finds_a_wrong_closed_form(monkeypatch):
    # the l = 2 column stays right, so only the closed-form check fails
    k, bad = 7, parse("q")
    real = torus.alexander_torus
    monkeypatch.setattr(torus, "alexander_torus", lambda n, l: bad if n >= k else real(n, l))
    calls = _poison_column_two(monkeypatch, lambda n: None)
    assert torus2_counterexamples(k - 1) == (None, None)
    calls.clear()
    assert torus2_counterexamples(60) == (None, Counterexample(k, bad, alexander_torus2(k)))
    # the deformed side, still open, walks on to 60 and divides each n once
    assert calls == list(range(1, 61))


def test_delta_identity_suite_divides_each_n_once(monkeypatch):
    # the two delta-identity checks share one value of the l = 2 column per
    # n; two separate walks would divide N + ceil(N/2) times
    calls = _poison_column_two(monkeypatch, lambda n: None)
    report = checks.run("delta-identity", 25)
    assert [check.passed for check in report] == [True, True]
    assert calls == list(range(1, 26))


@pytest.mark.parametrize(
    "walk",
    [torus2_counterexamples, lambda n: checks.run("delta-identity", n),
     lambda n: checks.run("all", n)],
    ids=["torus2_counterexamples", "run-delta-identity", "run-all"],
)
def test_a_walk_past_the_budget_divides_nothing(monkeypatch, walk):
    # the walk's last closed-form value, D(n, 2) at the last odd n, costs
    # 2 steps and n terms: at a budget of 20, n_max = 18 ends at D(17, 2),
    # and 19 and 20 at D(19, 2), which is refused before the first division
    # and before any sum-form value, so under run before any suite
    monkeypatch.setattr("pqcalc.laurent.MAX_WORK", 20)
    calls = _poison_column_two(monkeypatch, lambda n: None)
    drawn = []
    real = qnumbers.pq_numbers
    monkeypatch.setattr(qnumbers, "pq_numbers", lambda f: (drawn.append(v) or v for v in real(f)))
    for n_max in (19, 20):
        with pytest.raises(BudgetExceededError, match=(
            r"^D\(19, 2\) is over the budget of 20 walk steps and terms$"
        )):
            walk(n_max)
        assert calls == drawn == []
    walk(18)
    assert calls == list(range(1, 19))
