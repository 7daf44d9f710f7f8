"""Acceptance gate: nine end-to-end criteria with timing budgets.

Every test prints one summary line directly to the real stdout so the
result survives pytest's capture:

    [acceptance] criterion N (label): PASS in 0.12s

All comparisons are exact symbolic equality; a timing budget, where one
applies, is part of the criterion.
"""

import random
import time

from pqcalc.cli import main
from pqcalc.laurent import (
    LaurentPoly,
    exact_div,
    parse,
    sqrt_perfect_square,
)
from pqcalc.qnumbers import (
    Family,
    PQPair,
    family_params,
    homfly_factorization_check,
    number_sequence,
    pq_number,
)
from pqcalc.skein import (
    KnotCoefficients,
    knot_to_link_coeffs,
    link_coeffs_from_pq,
    pq_from_link_coeffs,
    recurrence_generate,
)
from pqcalc.torus import alexander_torus, alexander_torus2

SEED = 318

FERMIONIC_BOSONIC = [
    (Family.ALEXANDER_FERMIONIC, Family.ALEXANDER_BOSONIC),
    (Family.JONES_FERMIONIC, Family.JONES_BOSONIC),
    (Family.HOMFLY_FERMIONIC, Family.HOMFLY_BOSONIC),
]


def _run(capsys, number, label, body, budget=None):
    def report(status, elapsed):
        # capture here is file-descriptor level, so an ordinary print would
        # vanish on success; disabled() reaches the real stdout
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({label}): {status} "
                  f"in {elapsed:.2f}s", flush=True)

    start = time.perf_counter()
    try:
        failures = body()
    except BaseException:
        report("FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    ok = not failures and (budget is None or elapsed <= budget)
    report("PASS" if ok else "FAIL", elapsed)
    assert not failures, f"first counterexamples: {failures[:3]}"
    if budget is not None:
        assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"


def _random_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(-8, 8), rng.randint(-8, 8))
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    return LaurentPoly(terms)


# ----------------------------------------------------------------------


def test_criterion_1_recurrence_closure(capsys):
    def body():
        failures = []
        for family in Family:
            pair = family_params(family)
            l1, l2 = pair.P + pair.Q, -(pair.P * pair.Q)
            seq = number_sequence(family, 200)
            for n in range(1, 200):
                if seq[n + 1] != l1 * seq[n] + l2 * seq[n - 1]:
                    failures.append(f"{family.value} n={n + 1}")
                    break
            for n in (0, 1, 2, 3, 50, 125, 200):
                if seq[n] != pq_number(pair, n):
                    failures.append(f"{family.value} sum form n={n}")
                    break
        return failures

    _run(capsys, 1, "recurrence closure to n=200", body, budget=2.0)


def test_criterion_2_division_identity(capsys):
    def body():
        failures = []
        for family in Family:
            pair = family_params(family)
            delta = pair.P - pair.Q
            p_pow, q_pow = LaurentPoly.one(), LaurentPoly.one()
            for n in range(201):
                if pq_number(pair, n) * delta != p_pow - q_pow:
                    failures.append(f"{family.value} n={n}")
                    break
                p_pow, q_pow = p_pow * pair.P, q_pow * pair.Q
        rng = random.Random(SEED)
        for trial in range(200):
            P = LaurentPoly.monomial(
                rng.choice([-1, 1]) * rng.randint(1, 9),
                rng.randint(-6, 6), rng.randint(-6, 6),
            )
            Q = LaurentPoly.monomial(
                rng.choice([-1, 1]) * rng.randint(1, 9),
                rng.randint(-6, 6), rng.randint(-6, 6),
            )
            n = rng.randint(0, 20)
            if pq_number(PQPair(P, Q), n) * (P - Q) != P**n - Q**n:
                failures.append(f"random trial {trial}")
        return failures

    _run(capsys, 2, "division identity", body, budget=5.0)


def test_criterion_3_torus_column_two(capsys):
    def body():
        failures = []
        for n in range(1, 101):
            if alexander_torus2(n) != pq_number(Family.ALEXANDER_FERMIONIC, n):
                failures.append(f"deformed integer n={n}")
        for n in range(1, 100, 2):
            if alexander_torus(n, 2) != alexander_torus2(n):
                failures.append(f"closed form n={n}")
        return failures

    _run(capsys, 3, "torus column two", body, budget=2.0)


def test_criterion_4_torus_closed_form(capsys):
    from math import gcd

    def q_diff(e2):
        return LaurentPoly({(e2, 0): 1, (-e2, 0): -1})

    def body():
        failures = []
        one = LaurentPoly.one()
        for n in range(1, 16):
            for l in range(n, 16):
                if gcd(n, l) != 1:
                    continue
                value = alexander_torus(n, l)
                # the paper's quotient, by exact division (raises if inexact)
                quotient = exact_div(q_diff(n * l) * q_diff(1), q_diff(n) * q_diff(l))
                if value != quotient:
                    failures.append(f"quotient ({n}, {l})")
                if alexander_torus(l, n) != value:
                    failures.append(f"symmetry ({n}, {l})")
                if n == 1 and value != one:
                    failures.append(f"unknot column l={l}")
        return failures

    _run(capsys, 4, "torus closed form grid", body, budget=5.0)


def test_criterion_5_coefficient_maps(capsys):
    def body():
        failures = []
        for fermionic, bosonic in FERMIONIC_BOSONIC:
            expected = link_coeffs_from_pq(family_params(fermionic))
            pb = family_params(bosonic)
            k1, k2 = pb.P + pb.Q, -(pb.P * pb.Q)
            for spelling in (k2, -k2):
                got = knot_to_link_coeffs(KnotCoefficients(k1, spelling))
                if got != expected:
                    failures.append(f"knot-to-link {fermionic.value}")
            back = pq_from_link_coeffs(expected)
            if back != family_params(fermionic):
                failures.append(f"pair recovery {fermionic.value}")
        return failures

    _run(capsys, 5, "coefficient maps", body)


def test_criterion_6_homfly_factor(capsys):
    def body():
        return [f"n={n}" for n in range(1, 201) if not homfly_factorization_check(n)]

    _run(capsys, 6, "homfly monomial factor", body, budget=2.0)


def test_criterion_7_trefoil_cross_check(capsys):
    def body():
        want = parse("q - 1 + q^(-1)")
        closed = alexander_torus(3, 2)
        coeffs = link_coeffs_from_pq(family_params(Family.ALEXANDER_FERMIONIC))
        recurred = recurrence_generate(
            coeffs, LaurentPoly.zero(), LaurentPoly.one(), 4
        )[3]
        summed = pq_number(Family.ALEXANDER_FERMIONIC, 3)
        failures = []
        for label, value in [("closed form", closed), ("recurrence", recurred),
                             ("sum form", summed)]:
            if value != want:
                failures.append(f"{label}: {value}")
        return failures

    _run(capsys, 7, "trefoil cross-check", body)


def test_criterion_8_kernel_robustness(capsys):
    def body():
        failures = []
        rng = random.Random(SEED)

        for trial in range(1000):
            f = _random_poly(rng)
            g = _random_poly(rng)
            h = _random_poly(rng)
            if (f + g) + h != f + (g + h):
                failures.append(f"add associativity {trial}")
            if f * g != g * f:
                failures.append(f"mul commutativity {trial}")
            if f * (g + h) != f * g + f * h:
                failures.append(f"distributivity {trial}")
            if f * LaurentPoly.one() != f or f + LaurentPoly.zero() != f:
                failures.append(f"identities {trial}")

        for trial in range(500):
            f = _random_poly(rng)
            g = _random_poly(rng)
            if g.is_zero:
                g = LaurentPoly.one()
            if exact_div(f * g, g) != f:
                failures.append(f"division round trip {trial}")

        for trial in range(500):
            f = _random_poly(rng)
            if f.is_zero:
                f = LaurentPoly.one()
            root = sqrt_perfect_square(f * f)
            principal = f if f.leading_term()[1] > 0 else -f
            if root != principal:
                failures.append(f"root round trip {trial}")

        for trial in range(500):
            f = _random_poly(rng)
            if parse(f.text()) != f:
                failures.append(f"parse round trip {trial}")

        golden = [
            (parse("q^(1/2) - q^(-1/2)") ** 2, "q - 2 + q^(-1)"),
            (parse("-1 + q"), "q - 1"),
            (parse("p^3 + q*p + q*p^(-1) + q^2"), "q^2 + p*q + p^(-1)*q + p^3"),
            (LaurentPoly.zero(), "0"),
            (parse("1 - q^(3/2)"), "-q^(3/2) + 1"),
        ]
        for value, text in golden:
            if value.text() != text:
                failures.append(f"golden {text!r}: got {value.text()!r}")
        return failures

    _run(capsys, 8, "kernel robustness", body, budget=10.0)


def test_criterion_9_cli_contract(capsys):
    def body():
        failures = []
        if main(["verify", "--suite", "all", "--max-n", "100"]) != 0:
            failures.append("verify all --max-n 100 did not exit 0")
        out, _ = capsys.readouterr()
        if "19/19 checks passed" not in out:
            failures.append("verify summary line missing")
        for argv in [
            ["knot-to-link", "--k1", "2", "--k2", "1"],
            ["torus-alexander", "--n", "2", "--l", "2"],
            ["pq-number", "--P", "q^(1/3)", "--Q", "q", "--n", "2"],
        ]:
            rc = main(argv)
            _, err = capsys.readouterr()
            if rc != 2:
                failures.append(f"{argv}: exit {rc}, expected 2")
            if not err.strip():
                failures.append(f"{argv}: empty stderr")
        return failures

    _run(capsys, 9, "cli contract", body)
