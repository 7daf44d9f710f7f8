"""Seeded job lists for the benchmark workloads, with independent references.

Nothing in this module imports pqcalc.  Every expected output is derived
here from first principles, so a job is never checked against the code
under test:

- the torus value D(n, l) from the division-free semigroup form
  ``q^(-c/2) * [(1 - q) * sum_{s in <n, l>, s < c} q^s + q^c]``;
- the deformed integers of monomial pairs by direct exponent arithmetic,
  and of other pairs by the sum form on plain dicts;
- the coefficient maps from the roots (P, Q) the generator started from;
- recurrence sequences from the closed form ``X[n] = p1*[n] + l2*p0*[n-1]``;
- the ``verify`` report from the fixed list of check names.

Polynomials here are plain dicts from doubled exponent pairs ``(q2, p2)``
to nonzero int coefficients.  Expected outputs are rendered with the text
and JSON formats the README documents and stored as SHA-256 digests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from math import gcd

WORKLOADS = ("verify", "torus", "requests")

# Each workload's default size: the job list one pass runs.
VERIFY_MAX_N = 150
TORUS_JOBS = 16
TORUS_RANGE = (100, 220)
REQUEST_JOBS = 1000

# The built-in families as (coeff, q2, p2) monomials for P and Q.
FAMILIES = {
    "alexander-fermionic": ((1, 1, 0), (-1, -1, 0)),
    "alexander-bosonic": ((1, 2, 0), (1, -2, 0)),
    "jones-fermionic": ((1, 3, 0), (-1, 1, 0)),
    "jones-bosonic": ((1, 6, 0), (1, 2, 0)),
    "homfly-fermionic": ((1, 1, 2), (-1, -1, 2)),
    "homfly-bosonic": ((1, 2, 4), (1, -2, 4)),
}

VERIFY_CHECKS = (
    *(f"{check}[{family}]" for family in FAMILIES
      for check in ("recurrence-closure", "sum-agreement")),
    "torus2-equals-deformed-number",
    "torus2-matches-closed-form-odd-n",
    "homfly-monomial-factor",
    "knot-to-link[alexander]",
    "pair-from-link-coeffs[alexander]",
    "knot-to-link[jones]",
    "pair-from-link-coeffs[jones]",
)


@dataclass
class Job:
    """One call into the program.

    ``wire()`` is all the pass process sees: ``error`` names the typed
    error the job must raise, if any.  ``expect`` is the outcome the pass
    must report: ``sha256:<digest of the rendered output>`` or
    ``raised:<error class name>``.  ``size`` is the job's input size and
    ``out_terms`` the number of terms in its output, for the record.
    """

    kind: str
    args: dict
    mode: str
    expect: str
    size: int
    out_terms: int = 0
    error: str | None = None

    def wire(self) -> dict:
        return {"kind": self.kind, "args": self.args, "mode": self.mode, "error": self.error}


# ----------------------------------------------------------------------
# dict polynomial arithmetic, independent of pqcalc.laurent


def padd(*polys: dict) -> dict:
    acc: dict = {}
    for poly in polys:
        for exp, coeff in poly.items():
            acc[exp] = acc.get(exp, 0) + coeff
    return {exp: coeff for exp, coeff in acc.items() if coeff}


def pscale(poly: dict, factor: int) -> dict:
    return {exp: coeff * factor for exp, coeff in poly.items()} if factor else {}


def pmul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for (aq, ap), ac in a.items():
        for (bq, bp), bc in b.items():
            exp = (aq + bq, ap + bp)
            acc[exp] = acc.get(exp, 0) + ac * bc
    return {exp: coeff for exp, coeff in acc.items() if coeff}


ONE = {(0, 0): 1}


def monomial_number(pm: tuple, qm: tuple, n: int) -> dict:
    """[n] = sum_i P^(n-1-i) Q^i for monomials P, Q, by exponent arithmetic."""
    (pc, pq, pp), (qc, qq, qp) = pm, qm
    terms = [
        ((k * pq + i * qq, k * pp + i * qp), pc**k * qc**i)
        for i, k in ((i, n - 1 - i) for i in range(n))
    ]
    return padd(*({exp: coeff} for exp, coeff in terms))


def sum_form_numbers(P: dict, Q: dict, n_max: int) -> list[dict]:
    """[0..n_max] by the sum form's geometric step [k+1] = P*[k] + Q^k."""
    numbers = [{}, dict(ONE)]
    q_pow = dict(ONE)
    for _ in range(n_max - 1):
        q_pow = pmul(q_pow, Q)
        numbers.append(padd(pmul(P, numbers[-1]), q_pow))
    return numbers[: n_max + 1]


def torus_semigroup(n: int, l: int) -> dict:
    """D(n, l) from the semigroup <n, l>, with no division."""
    c = (n - 1) * (l - 1)
    members = set()
    for a in range(c // n + 1):
        members.update(range(a * n, c, l))
    poly: dict = {(c, 0): 1}
    for s in members:
        for exp, coeff in (((2 * s - c, 0), 1), ((2 * s + 2 - c, 0), -1)):
            poly[exp] = poly.get(exp, 0) + coeff
    return {exp: coeff for exp, coeff in poly.items() if coeff}


# ----------------------------------------------------------------------
# reference renderers for the documented output formats


def _factor_text(name: str, e2: int) -> str:
    if e2 % 2:
        return f"{name}^({e2}/2)"
    e = e2 // 2
    if e == 1:
        return name
    return f"{name}^{e}" if e > 0 else f"{name}^({e})"


def render_text(poly: dict) -> str:
    if not poly:
        return "0"
    parts = []
    for (q2, p2), coeff in sorted(poly.items(), reverse=True):
        factors = [_factor_text(name, e2) for name, e2 in (("p", p2), ("q", q2)) if e2]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if parts:
            parts.append(("- " if coeff < 0 else "+ ") + body)
        else:
            parts.append(("-" if coeff < 0 else "") + body)
    return " ".join(parts)


_JSON_TERM = """    {
      "coeff": "%d",
      "exp2": {
        "q": %d,
        "p": %d
      }
    }"""


def render_json(poly: dict) -> str:
    """The JSON schema's layout as ``json.dumps(..., indent=2)`` writes it,
    spelled out: the encoder is too slow for reference outputs this big."""
    head = '{\n  "variables": [\n    "q",\n    "p"\n  ],\n  "terms": '
    if not poly:
        return head + "[]\n}"
    terms = ",\n".join(
        _JSON_TERM % (coeff, q2, p2) for (q2, p2), coeff in sorted(poly.items(), reverse=True)
    )
    return head + "[\n" + terms + "\n  ]\n}"


def render(polys: list[dict], mode: str) -> str:
    """Several outputs of one job are rendered one by one, newline-joined."""
    one = render_text if mode == "text" else render_json
    return "\n".join(one(poly) for poly in polys)


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _ok_job(kind: str, args: dict, mode: str, outputs: list[dict], size: int) -> Job:
    return Job(kind, args, mode, digest(render(outputs, mode)), size,
               out_terms=sum(len(poly) for poly in outputs))


def _error_job(kind: str, args: dict, error: str, size: int) -> Job:
    return Job(kind, args, "text", f"raised:{error}", size, error=error)


# ----------------------------------------------------------------------
# workloads


def verify_jobs(max_n: int = VERIFY_MAX_N) -> list[Job]:
    """One ``verify --suite all`` call; the seed does not change it."""
    report = "".join(f"PASS  {name}\n" for name in VERIFY_CHECKS)
    report += f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed\n"
    argv = ["verify", "--suite", "all", "--max-n", str(max_n)]
    return [Job("verify", {"argv": argv}, "text", digest(f"exit 0\n{report}"), max_n)]


def _progression(step: int, limit: int) -> int:
    """Bit mask of 0, step, 2*step, ... below ``limit``."""
    bits, span = 1, step
    while span < limit:
        bits |= bits << span
        span *= 2
    return bits & ((1 << limit) - 1)


def torus_terms(n: int, l: int) -> int:
    """Number of terms of D(n, l), from the semigroup form.  Below c every
    member of <n, l> is a*n + b*l in exactly one way, so the product of
    the two progressions has no carries there and is the member mask."""
    c = (n - 1) * (l - 1)
    mask = (1 << c) - 1
    members = (_progression(n, c) * _progression(l, c)) & mask
    return ((members ^ (members << 1)) & mask).bit_count() + 1


def _torus_cost(pair: tuple[int, int]) -> float:
    """Rough cost of a torus job, used only to spread the draw evenly.

    A job costs about 120 units per output term (division steps and
    rendering), plus the long division's scans of its remainder, which
    total about 2.5 * T^2 * min(n, l) / c term visits for T output terms;
    both constants were fitted on 120 random pairs of 100..220.
    """
    n, l = pair
    terms = torus_terms(n, l)
    return terms * (120 + 2.5 * terms * min(n, l) / ((n - 1) * (l - 1)))


def _coprime_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """Coprime pairs n < l in [lo, hi]; D(l, n) = D(n, l) costs the same."""
    return [(n, l) for n in range(lo, hi + 1) for l in range(n + 1, hi + 1) if gcd(n, l) == 1]


def _pick(seq: list, u: float):
    return seq[int(u * len(seq))]


def _torus_job(rng: random.Random, pair: tuple[int, int], mode: str) -> Job:
    n, l = pair if rng.random() < 0.5 else pair[::-1]
    return _ok_job("torus", {"n": n, "l": l}, mode, [torus_semigroup(n, l)], n * l)


def torus_jobs(seed: int, count: int = TORUS_JOBS, span: tuple = TORUS_RANGE) -> list[Job]:
    """Coprime pairs n != l from ``span``, alternately rendered as text and
    as JSON.

    The pairs' costs are heavy-tailed (from 200 to 20000 output terms), so a
    plain draw of a few pairs would make the cost of a pass depend on the
    seed.  Instead the pairs are ranked by ``_torus_cost`` and job ``i`` is
    drawn from a narrow window around the middle of the ``i``-th of
    ``count`` equal rank slices: seeds change the pairs, not the cost
    profile of a pass.
    """
    rng = random.Random(f"torus-{seed}")
    ranked = sorted(_coprime_pairs(*span), key=_torus_cost)
    jobs = []
    for i in range(count):
        u = (i + 0.5 + rng.uniform(-0.05, 0.05)) / count
        jobs.append(_torus_job(rng, _pick(ranked, u), ("text", "json")[i % 2]))
    rng.shuffle(jobs)
    return jobs


def _random_poly(rng: random.Random, terms: int, lead_sign: int = 0,
                 below: tuple | None = None) -> dict:
    """A small poly on the half-integer grid.  ``lead_sign`` fixes the sign
    of the leading coefficient; ``below`` bounds every exponent from above."""
    poly: dict = {}
    while len(poly) < terms:
        exp = (rng.randint(-5, 5), rng.randint(-3, 3))
        if below is None or exp < below:
            poly[exp] = rng.choice((1, 2, 3)) * rng.choice((1, -1))
    if lead_sign:
        lead = max(poly)
        poly[lead] = abs(poly[lead]) * lead_sign
    return poly


def _roots(rng: random.Random, max_terms: int) -> tuple[dict, dict]:
    """(P, Q) with lead(P) > lead(Q), a positive leading coefficient on P
    and a negative one on Q.  Then l1 = P + Q and l2 = -P*Q both lead
    positive and P - Q leads positive, so the principal square roots the
    coefficient maps take recover exactly these P and Q."""
    while True:
        P = _random_poly(rng, rng.randint(1, max_terms), lead_sign=1)
        if max(P)[0] > -5:  # leaves room below lead(P) for every term of Q
            break
    Q = _random_poly(rng, rng.randint(1, max_terms), lead_sign=-1, below=max(P))
    return P, Q


def _link(P: dict, Q: dict) -> tuple[dict, dict]:
    return padd(P, Q), pscale(pmul(P, Q), -1)


def _odd_top(polys: list[dict]) -> tuple:
    """An exponent above every term of ``polys`` with an odd q2, so a poly
    led by it is off the square grid."""
    top = max((exp[0] for poly in polys for exp in poly), default=0) + 1
    return (top if top % 2 else top + 1, 0)


# Suffixes that make any expression text malformed.
_BAD_TEXT = (" +", "*", "^", " q^(1/3)", " + q^(1/0)", " + (q)")


def _family_job(rng: random.Random, u: float, mode: str) -> Job:
    family = rng.choice(sorted(FAMILIES))
    n = 1 + int(u * 60)
    return _ok_job("pq_number", {"family": family, "n": n}, mode,
                   [monomial_number(*FAMILIES[family], n)], n)


def _custom_job(rng: random.Random, u: float, mode: str, terms: int = 1) -> Job:
    P, Q = _random_poly(rng, terms), _random_poly(rng, terms)
    n = 1 + int(u * (60 if terms == 1 else 16))
    if terms == 1:
        ((pe, pc),), ((qe, qc),) = P.items(), Q.items()
        want = monomial_number((pc, *pe), (qc, *qe), n)
    else:
        want = sum_form_numbers(P, Q, n)[n]
    args = {"P": render_text(P), "Q": render_text(Q), "n": n}
    return _ok_job("pq_custom", args, mode, [want], n)


def _knot_job(rng: random.Random, _u: float, mode: str) -> Job:
    P, Q = _roots(rng, 3)
    l1, l2 = _link(P, Q)
    k2 = pscale(pmul(l2, l2), rng.choice((1, -1)))  # both sign conventions
    k1 = padd(pmul(l1, l1), pscale(l2, 2))
    args = {"k1": render_text(k1), "k2": render_text(k2)}
    return _ok_job("knot_to_link", args, mode, [l1, l2], len(k1) + len(k2))


def _link_job(rng: random.Random, _u: float, mode: str) -> Job:
    P, Q = _roots(rng, 3)
    l1, l2 = _link(P, Q)
    args = {"l1": render_text(l1), "l2": render_text(l2)}
    return _ok_job("pq_from_link", args, mode, [P, Q], len(l1) + len(l2))


def _recurrence_job(rng: random.Random, u: float, mode: str, terms: int = 1) -> Job:
    P, Q = _random_poly(rng, terms), _random_poly(rng, terms)
    l1, l2 = _link(P, Q)
    p0, p1 = _random_poly(rng, 1), _random_poly(rng, 1)
    count = 2 + int(u * (29 if terms == 1 else 7))
    numbers = sum_form_numbers(P, Q, count)
    seq = [p0] + [padd(pmul(p1, numbers[k]), pmul(pmul(l2, p0), numbers[k - 1]))
                  for k in range(1, count)]
    args = {"l1": render_text(l1), "l2": render_text(l2),
            "p0": render_text(p0), "p1": render_text(p1), "count": count}
    return _ok_job("recurrence", args, mode, seq, count)


_SMALL_PAIRS = sorted(_coprime_pairs(2, 30), key=_torus_cost)


def _torus_request(rng: random.Random, u: float, mode: str) -> Job:
    return _torus_job(rng, _pick(_SMALL_PAIRS, u), mode)


_ERRORS = ("ParseError", "NotCoprimeError", "NotAPerfectSquareError", "NotSolvableOnGridError")


def _invalid_job(rng: random.Random, u: float, _mode: str) -> Job:
    """A job whose input must be refused with a typed error."""
    error = _pick(_ERRORS, u)
    if error == "ParseError":
        P, Q = _random_poly(rng, 2), _random_poly(rng, 1)
        args = {"P": render_text(P) + rng.choice(_BAD_TEXT), "Q": render_text(Q), "n": 5}
        return _error_job("pq_custom", args, error, 5)
    if error == "NotCoprimeError":
        g = rng.randint(2, 6)
        n, l = g * rng.randint(1, 5), g * rng.randint(1, 5)
        return _error_job("torus", {"n": n, "l": l}, error, n * l)
    P, Q = _roots(rng, 2)
    l1, l2 = _link(P, Q)
    if error == "NotAPerfectSquareError":
        k2 = pscale(pmul(l2, l2), -1)
        k1 = padd(pmul(l1, l1), pscale(l2, 2))
        k1[_odd_top([k1, l2])] = 3
        args = {"k1": render_text(k1), "k2": render_text(k2)}
        return _error_job("knot_to_link", args, error, len(k1) + len(k2))
    l2 = {_odd_top([pmul(l1, l1), l2]): rng.randint(1, 3)}
    args = {"l1": render_text(l1), "l2": render_text(l2)}
    return _error_job("pq_from_link", args, error, len(l1) + len(l2))


# Jobs of each kind in a pass of REQUEST_JOBS.  Within a kind, job ``j``
# takes its size from the ``j``-th of equal slices of the size range, and
# neighbouring slices alternate text and JSON, so that seeds change the
# inputs but hardly the cost of a pass.
REQUEST_MIX = (
    (_family_job, 250),
    (_custom_job, 80),
    (partial(_custom_job, terms=2), 40),
    (_knot_job, 150),
    (_link_job, 150),
    (_recurrence_job, 70),
    (partial(_recurrence_job, terms=2), 30),
    (_torus_request, 150),
    (_invalid_job, 80),
)


def request_jobs(seed: int, count: int = REQUEST_JOBS) -> list[Job]:
    rng = random.Random(f"requests-{seed}")
    jobs = []
    for make, share in REQUEST_MIX:
        slices = max(1, share * count // REQUEST_JOBS)
        for j in range(slices):
            jobs.append(make(rng, (j + rng.random()) / slices, ("text", "json")[j % 2]))
    rng.shuffle(jobs)
    return jobs


def build(workload: str, seed: int, small: bool = False) -> list[Job]:
    """The job list of one pass.  ``small`` is the reduced size the
    benchmark's own tests run."""
    if workload == "verify":
        return verify_jobs(20 if small else VERIFY_MAX_N)
    if workload == "torus":
        return torus_jobs(seed, 4, (10, 40)) if small else torus_jobs(seed)
    if workload == "requests":
        return request_jobs(seed, 120 if small else REQUEST_JOBS)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
