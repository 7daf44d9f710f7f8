"""Exact sparse Laurent polynomials in ``q`` and ``p`` on a half-integer grid.

Every quantity in this package (deformed numbers, skein coefficients, torus
invariants) is a Laurent polynomial in the two variables ``q`` and ``p`` with
arbitrary-precision integer coefficients.  Exponents are restricted to integer
multiples of 1/2 and stored as doubled integers, so all arithmetic is exact:
no floats, no symbolic simplification heuristics.

The canonical term order compares the ``q`` exponent first, then the ``p``
exponent; text and JSON output list terms in descending canonical order.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import isqrt
from typing import Iterable, Mapping, Union

ExpVec = tuple[int, int]
"""Doubled exponent pair ``(2*e_q, 2*e_p)``.  Tuple comparison of these pairs
is exactly the canonical term order."""


class LaurentError(Exception):
    """Base class for every error raised by this module."""


class NonExactDivisionError(LaurentError):
    """Division left a remainder or required a non-integer coefficient."""


class NotAPerfectSquareError(LaurentError):
    """No square root with integer coefficients exists on the grid."""


class NegativePowerOfZError(LaurentError):
    """A substitution input contained a negative power of z."""


class ParseError(LaurentError):
    """Malformed expression text.  ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GridError(ParseError):
    """An exponent in the input is not an integer multiple of 1/2."""


class LaurentPoly:
    """A Laurent polynomial in ``q`` and ``p`` over the integers.

    Instances are immutable and hashable.  All operations return new values
    in canonical form: no zero coefficients, one entry per exponent pair.
    Plain ints coerce in arithmetic and comparisons.

    >>> f = LaurentPoly("q^(1/2) - q^(-1/2)")
    >>> f * f
    LaurentPoly('q - 2 + q^(-1)')
    >>> f - f + 1
    LaurentPoly('1')
    >>> LaurentPoly.zero() ** 0
    LaurentPoly('1')
    """

    __slots__ = ("_terms", "_hash")

    def __init__(
        self,
        terms: str | int | Mapping[ExpVec, int] | Iterable[tuple[ExpVec, int]] = (),
    ):
        if isinstance(terms, str):
            data = _parse_text(terms)
        elif isinstance(terms, bool):
            raise TypeError("coefficients must be int, got bool")
        elif isinstance(terms, int):
            data = {(0, 0): terms} if terms else {}
        else:
            items = terms.items() if isinstance(terms, Mapping) else terms
            data = {}
            for exp, coeff in items:
                if not isinstance(coeff, int) or isinstance(coeff, bool):
                    raise TypeError(f"coefficients must be int, got {type(coeff).__name__}")
                key = (int(exp[0]), int(exp[1]))
                acc = data.get(key, 0) + coeff
                if acc:
                    data[key] = acc
                else:
                    data.pop(key, None)
        self._terms = data
        self._hash = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.monomial(1)

    @classmethod
    def monomial(cls, coeff: int, q2: int = 0, p2: int = 0) -> LaurentPoly:
        """Single term ``coeff * q^(q2/2) * p^(p2/2)`` (doubled exponents)."""
        return cls({(q2, p2): coeff} if coeff else {})

    @classmethod
    def _raw(cls, data: dict[ExpVec, int]) -> LaurentPoly:
        # internal fast path: data must already be canonical
        poly = cls.__new__(cls)
        poly._terms = data
        poly._hash = None
        return poly

    # ------------------------------------------------------------------
    # accessors

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[ExpVec, int], ...]:
        """All terms in descending canonical order."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def leading_term(self) -> tuple[ExpVec, int]:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        exp = max(self._terms)
        return exp, self._terms[exp]

    def trailing_term(self) -> tuple[ExpVec, int]:
        if not self._terms:
            raise ValueError("the zero polynomial has no trailing term")
        exp = min(self._terms)
        return exp, self._terms[exp]

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(value) -> LaurentPoly | None:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            # bools act as 0 and 1 here, as in int arithmetic; only the
            # constructor refuses them as coefficients
            return LaurentPoly(int(value))
        return None

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = data.get(exp, 0) + coeff
            if acc:
                data[exp] = acc
            else:
                data.pop(exp, None)
        return LaurentPoly._raw(data)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({exp: -coeff for exp, coeff in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = data.get(exp, 0) - coeff
            if acc:
                data[exp] = acc
            else:
                data.pop(exp, None)
        return LaurentPoly._raw(data)

    def __rsub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data: dict[ExpVec, int] = {}
        for (aq, ap), ac in self._terms.items():
            for (bq, bp), bc in other._terms.items():
                exp = (aq + bq, ap + bp)
                acc = data.get(exp, 0) + ac * bc
                if acc:
                    data[exp] = acc
                else:
                    data.pop(exp, None)
        return LaurentPoly._raw(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers take a nonnegative exponent")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # identity

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if not self._terms:
                h = hash(0)
            elif len(self._terms) == 1 and (0, 0) in self._terms:
                # constant polynomials hash like their int value (they compare
                # equal to it, so the hashes must agree)
                h = hash(self._terms[(0, 0)])
            else:
                h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # rendering

    def text(self) -> str:
        """Canonical text form, e.g. ``'q - 1 + q^(-1)'``."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for (q2, p2), coeff in self.terms():
            factors = []
            if p2:
                factors.append(_var_text("p", p2))
            if q2:
                factors.append(_var_text("q", q2))
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, _int_to_str(mag))
            body = "*".join(factors)
            if not chunks:
                chunks.append(("-" if coeff < 0 else "") + body)
            else:
                chunks.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(chunks)

    def to_json_obj(self) -> dict:
        """JSON-ready dict; see ``JSON_SCHEMA``.  Coefficients are decimal
        strings so arbitrary precision survives any JSON reader."""
        return {
            "variables": ["q", "p"],
            "terms": [
                {"coeff": _int_to_str(coeff), "exp2": {"q": q2, "p": p2}}
                for (q2, p2), coeff in self.terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> LaurentPoly:
        """Inverse of ``to_json_obj``.  Coefficients must be decimal strings
        matching ``^-?[0-9]+$`` and exponents JSON integers, as in
        ``JSON_SCHEMA``; anything else raises ``ValueError``."""
        if obj.get("variables") != ["q", "p"]:
            raise ValueError("expected variables ['q', 'p']")
        items = []
        for term in obj["terms"]:
            coeff = term["coeff"]
            if not isinstance(coeff, str) or not _COEFF_RE.fullmatch(coeff):
                raise ValueError(f"coefficient {coeff!r} is not a decimal integer string")
            exp = (term["exp2"]["q"], term["exp2"]["p"])
            for e2 in exp:
                if not isinstance(e2, int) or isinstance(e2, bool):
                    raise ValueError(f"exponent {e2!r} is not an integer")
            items.append((exp, _int_from_str(coeff)))
        return cls(items)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


JSON_SCHEMA = {
    "type": "object",
    "required": ["variables", "terms"],
    "additionalProperties": False,
    "properties": {
        "variables": {"const": ["q", "p"]},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["coeff", "exp2"],
                "additionalProperties": False,
                "properties": {
                    "coeff": {"type": "string", "pattern": "^-?[0-9]+$"},
                    "exp2": {
                        "type": "object",
                        "required": ["q", "p"],
                        "additionalProperties": False,
                        "properties": {
                            "q": {"type": "integer"},
                            "p": {"type": "integer"},
                        },
                    },
                },
            },
        },
    },
}


def _var_text(name: str, e2: int) -> str:
    # doubled exponent: halves render as "(m/2)", integers render bare,
    # negative integers keep parentheses so output reparses
    if e2 % 2 == 0:
        e = e2 // 2
        if e == 1:
            return name
        return f"{name}^{e}" if e >= 0 else f"{name}^({e})"
    return f"{name}^({e2}/2)"


_COEFF_RE = re.compile(r"-?[0-9]+")

# The layout ``json.dumps(f.to_json_obj(), indent=2)`` writes, spelled out:
# with ``indent`` set, CPython's encoder falls back to pure Python, about
# ten times slower than filling this template.
_JSON_HEAD = '{\n  "variables": [\n    "q",\n    "p"\n  ],\n  "terms": '
_JSON_TERM = (
    '    {\n      "coeff": "%d",\n      "exp2": {\n'
    '        "q": %d,\n        "p": %d\n      }\n    }'
)
# the same, for a coefficient already rendered by ``_int_to_str``
_JSON_TERM_STR = _JSON_TERM.replace('"%d"', '"%s"', 1)

# CPython refuses to convert between int and decimal str past
# ``sys.get_int_max_str_digits()`` digits (4300 by default, never below 640
# when set).  Exact coefficients outgrow that, so the two helpers below
# split long values in halves until every piece is short enough.
_SAFE_DIGITS = 600


def _int_to_str(v: int) -> str:
    """``str(v)`` at any size."""
    try:
        return str(v)
    except ValueError:
        pass
    if v < 0:
        return "-" + _int_to_str(-v)
    k = v.bit_length() * 3 // 20  # about half the decimal digits: log10(2) ~ 3/10
    high, low = divmod(v, 10**k)
    return _int_to_str(high) + _int_to_str(low).zfill(k)


def _int_from_str(s: str) -> int:
    """``int(s)`` at any size, for ``s`` matching ``-?[0-9]+``."""
    if s[0] == "-":
        return -_int_from_str(s[1:])
    if len(s) <= _SAFE_DIGITS:
        return int(s)
    k = len(s) // 2
    return _int_from_str(s[:-k]) * 10**k + _int_from_str(s[-k:])


def format_poly(f: LaurentPoly, mode: str = "text") -> str:
    """Render ``f`` deterministically.  ``mode`` is ``"text"`` or ``"json"``.

    The JSON form is byte-identical to
    ``json.dumps(f.to_json_obj(), indent=2)``.
    """
    if mode == "text":
        return f.text()
    if mode == "json":
        if f.is_zero:
            return _JSON_HEAD + "[]\n}"
        terms = f.terms()
        try:
            body = ",\n".join([_JSON_TERM % (c, q2, p2) for (q2, p2), c in terms])
        except ValueError:
            body = ",\n".join(
                [_JSON_TERM_STR % (_int_to_str(c), q2, p2) for (q2, p2), c in terms]
            )
        return _JSON_HEAD + "[\n" + body + "\n  ]\n}"
    raise ValueError(f"unknown format mode: {mode!r}")


def parse(text: str) -> LaurentPoly:
    """Parse expression text into canonical form.

    Grammar (whitespace ignored, implicit multiplication allowed):

        expr     := ['-'] term (('+' | '-') term)*
        term     := coeff ['*' factor]* | factor ['*' factor]*
        factor   := ('q' | 'p') ['^' exponent]
        exponent := integer | '(' integer ')' | '(' integer '/' integer ')'

    Fractional exponents must be integer multiples of 1/2 (``GridError``
    otherwise); any other malformed input raises ``ParseError`` with the
    offending character position.

    >>> parse("2q^(1/2) - p^2")
    LaurentPoly('2*q^(1/2) - p^2')
    """
    return LaurentPoly._raw(_parse_text(text))


# ASCII digits only: ``\d`` and ``str.isdigit`` also accept other scripts'
# digits, which the grammar does not.
_INT_RE = re.compile(r"[0-9]+")
_DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.pos if pos is None else pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> int:
        self.peek()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected an integer")
        self.pos = m.end()
        return _int_from_str(m.group())

    def take_signed_int(self) -> int:
        ch = self.peek()
        sign = 1
        if ch in ("+", "-"):
            self.pos += 1
            sign = -1 if ch == "-" else 1
        return sign * self.take_uint()

    def parse_expr(self) -> dict[ExpVec, int]:
        acc: dict[ExpVec, int] = {}
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        self.parse_term(acc, sign)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                self.parse_term(acc, 1)
            elif ch == "-":
                self.pos += 1
                self.parse_term(acc, -1)
            elif ch == "":
                break
            else:
                self.fail(f"unexpected character {ch!r}")
        return {exp: coeff for exp, coeff in acc.items() if coeff}

    def parse_term(self, acc: dict[ExpVec, int], sign: int):
        ch = self.peek()
        coeff = None
        if ch in _DIGITS:
            coeff = self.take_uint()
        elif ch not in ("q", "p"):
            self.fail("expected a coefficient or a variable")
        q2 = p2 = 0
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                if self.peek() not in ("q", "p"):
                    self.fail("expected 'q' or 'p' after '*'")
                var, e2 = self.parse_factor()
            elif ch in ("q", "p"):
                var, e2 = self.parse_factor()
            else:
                break
            if var == "q":
                q2 += e2
            else:
                p2 += e2
        value = sign * (1 if coeff is None else coeff)
        exp = (q2, p2)
        acc[exp] = acc.get(exp, 0) + value

    def parse_factor(self) -> tuple[str, int]:
        var = self.peek()
        self.pos += 1
        if self.peek() != "^":
            return var, 2
        self.pos += 1
        return var, self.parse_exponent()

    def parse_exponent(self) -> int:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            start = self.pos
            num = self.take_signed_int()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                den = self.take_uint()
                if den == 0:
                    self.fail("zero denominator in exponent", start)
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            doubled = Fraction(num, den) * 2
            if doubled.denominator != 1:
                raise GridError(
                    f"exponent {num}/{den} is not an integer multiple of 1/2", start
                )
            return int(doubled)
        if ch in ("+", "-") or ch in _DIGITS:
            return 2 * self.take_signed_int()
        self.fail("expected an exponent")


def _parse_text(text: str) -> dict[ExpVec, int]:
    parser = _Parser(text)
    if parser.peek() == "":
        parser.fail("empty expression")
    return parser.parse_expr()


def poly_sum(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum many polynomials in one accumulation pass."""
    acc: dict[ExpVec, int] = {}
    for f in polys:
        for exp, coeff in f._terms.items():
            v = acc.get(exp, 0) + coeff
            if v:
                acc[exp] = v
            else:
                acc.pop(exp, None)
    return LaurentPoly._raw(acc)


def _component_bounds(f: LaurentPoly) -> tuple[ExpVec, ExpVec]:
    qs = [exp[0] for exp in f._terms]
    ps = [exp[1] for exp in f._terms]
    return (min(qs), min(ps)), (max(qs), max(ps))


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``num / den`` over the integer half-exponent grid.

    Sparse long division by the leading term under the canonical order.
    Per variable, every monomial of a true quotient lies in the box
    ``[val(num) - val(den), deg(num) - deg(den)]`` (degrees and valuations
    add under multiplication over an integral domain), so a candidate term
    outside that box proves the division inexact.  The box also bounds the
    loop: candidate exponents strictly decrease, hence termination.

    The remainder's exponents are kept in a max-heap with lazy deletion
    (Monagan and Pearce, "Sparse polynomial division using a heap", 2011):
    a key cancelled out of the remainder stays in the heap and is skipped
    when popped, and a key an update brings into the remainder is pushed.
    Every key a step touches lies at or below the exponent it processes,
    so the heap order is exact, and the cost is O(steps * |den| * log)
    rather than O(steps * |remainder|).

    >>> exact_div(parse("q - q^(-1)"), parse("q^(1/2) - q^(-1/2)"))
    LaurentPoly('q^(1/2) + q^(-1/2)')
    """
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()
    (num_lo, num_hi) = _component_bounds(num)
    (den_lo, den_hi) = _component_bounds(den)
    lo = (num_lo[0] - den_lo[0], num_lo[1] - den_lo[1])
    hi = (num_hi[0] - den_hi[0], num_hi[1] - den_hi[1])
    (lead_q, lead_p), lead_coeff = den.leading_term()
    # the leading term cancels the processed key by construction
    tail = [(exp, c) for exp, c in den._terms.items() if exp != (lead_q, lead_p)]
    rem = dict(num._terms)
    heap = [(-q2, -p2) for q2, p2 in rem]
    heapify(heap)
    quot: dict[ExpVec, int] = {}
    while heap:
        neg_q, neg_p = heappop(heap)
        coeff = rem.pop((-neg_q, -neg_p), 0)
        if not coeff:
            continue
        t_exp = (-neg_q - lead_q, -neg_p - lead_p)
        if not (lo[0] <= t_exp[0] <= hi[0] and lo[1] <= t_exp[1] <= hi[1]):
            raise NonExactDivisionError(f"{num} is not divisible by {den}")
        t_coeff, residue = divmod(coeff, lead_coeff)
        if residue:
            raise NonExactDivisionError(
                f"coefficient {_int_to_str(coeff)} is not divisible by the leading "
                f"coefficient {_int_to_str(lead_coeff)} of {den}"
            )
        quot[t_exp] = t_coeff
        for (dq, dp), dc in tail:
            _sub_term(rem, heap, (t_exp[0] + dq, t_exp[1] + dp), t_coeff * dc)
    return LaurentPoly._raw(quot)


def _sub_term(rem: dict[ExpVec, int], heap: list[ExpVec], key: ExpVec, value: int):
    # rem[key] -= value (value != 0); a key new to rem goes on the heap
    old = rem.get(key)
    if old is None:
        rem[key] = -value
        heappush(heap, (-key[0], -key[1]))
    elif old == value:
        del rem[key]
    else:
        rem[key] = old - value


def sqrt_perfect_square(f: LaurentPoly) -> LaurentPoly:
    """Square root of a perfect square, normalized to a positive leading
    coefficient (the principal root).

    Coefficient matching from the leading term downward: the head of the
    root is forced by the head of ``f``, and each following term is forced
    by the highest unmatched term of the running residue.  The same
    per-variable box argument as in ``exact_div`` bounds the search, so a
    polynomial that is not a perfect square fails cleanly.

    The residue's exponents sit in the same lazily pruned max-heap as in
    ``exact_div``; every key a step touches lies below the one it
    processes, so the cost is O(steps * |root| * log) rather than
    O(steps * |residue|).

    >>> sqrt_perfect_square(parse("q - 2 + q^(-1)"))
    LaurentPoly('q^(1/2) - q^(-1/2)')
    """
    if f.is_zero:
        raise NotAPerfectSquareError("the zero polynomial has no principal square root")
    (lq, lp), lead_coeff = f.leading_term()
    if lead_coeff < 0:
        raise NotAPerfectSquareError(
            f"leading coefficient {_int_to_str(lead_coeff)} of {f} is negative"
        )
    if lq % 2 or lp % 2:
        raise NotAPerfectSquareError(f"leading exponents of {f} are off the square grid")
    root_lc = isqrt(lead_coeff)
    if root_lc * root_lc != lead_coeff:
        raise NotAPerfectSquareError(
            f"leading coefficient {_int_to_str(lead_coeff)} of {f} is not a perfect square"
        )
    (vq, vp), (dq, dp) = _component_bounds(f)
    if vq % 2 or vp % 2:
        raise NotAPerfectSquareError(f"trailing exponents of {f} are off the square grid")
    lo = (vq // 2, vp // 2)
    hi = (dq // 2, dp // 2)
    head = (lq // 2, lp // 2)
    root: dict[ExpVec, int] = {head: root_lc}
    rem = dict(f._terms)
    del rem[(lq, lp)]
    heap = [(-q2, -p2) for q2, p2 in rem]
    heapify(heap)
    while heap:
        neg_q, neg_p = heappop(heap)
        coeff = rem.pop((-neg_q, -neg_p), 0)
        if not coeff:
            continue
        t_exp = (-neg_q - head[0], -neg_p - head[1])
        if not (lo[0] <= t_exp[0] <= hi[0] and lo[1] <= t_exp[1] <= hi[1]):
            raise NotAPerfectSquareError(
                f"{f} is not a perfect square on the half-integer grid"
            )
        t_coeff, residue = divmod(coeff, 2 * root_lc)
        if residue:
            raise NotAPerfectSquareError(
                f"{f} is not a perfect square on the half-integer grid"
            )
        # residue update: rem -= (2*root + t) * t, with root not yet
        # containing t; the head, root's first entry, cancels the
        # processed key
        for (rq, rp), rc in islice(root.items(), 1, None):
            _sub_term(rem, heap, (t_exp[0] + rq, t_exp[1] + rp), 2 * t_coeff * rc)
        _sub_term(rem, heap, (2 * t_exp[0], 2 * t_exp[1]), t_coeff * t_coeff)
        root[t_exp] = t_coeff
    return LaurentPoly._raw(root)


RationalLike = Union[int, Fraction]


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    root = Fraction(isqrt(x.numerator), isqrt(x.denominator))
    return root if root * root == x else None


def eval_numeric(
    f: LaurentPoly,
    q_val: RationalLike,
    p_val: RationalLike = 1,
    digits: int = 50,
):
    """Numeric spot check at positive rational points.

    Returns an exact ``Fraction`` whenever every square root the half
    exponents require is rational; otherwise a ``Decimal`` computed with
    ``digits`` significant digits.  This is test scaffolding, symbolic
    equality is the real contract.
    """
    q_val = Fraction(q_val)
    p_val = Fraction(p_val)
    if q_val <= 0 or p_val <= 0:
        raise ValueError("evaluation points must be positive")
    need_q = any(q2 % 2 for (q2, _p2) in f._terms)
    need_p = any(p2 % 2 for (_q2, p2) in f._terms)
    sqrt_q = _fraction_sqrt(q_val) if need_q else None
    sqrt_p = _fraction_sqrt(p_val) if need_p else None
    if (not need_q or sqrt_q is not None) and (not need_p or sqrt_p is not None):
        total = Fraction(0)
        for (q2, p2), coeff in f._terms.items():
            value = Fraction(coeff) * q_val ** (q2 // 2) * p_val ** (p2 // 2)
            if q2 % 2:
                value *= sqrt_q
            if p2 % 2:
                value *= sqrt_p
            total += value
        return total
    with localcontext() as ctx:
        ctx.prec = digits
        dec_q = Decimal(q_val.numerator) / Decimal(q_val.denominator)
        dec_p = Decimal(p_val.numerator) / Decimal(p_val.denominator)
        half_q = dec_q.sqrt()
        half_p = dec_p.sqrt()
        total = Decimal(0)
        for (q2, p2), coeff in f._terms.items():
            total += Decimal(coeff) * half_q**q2 * half_p**p2
        return +total


def substitute_z(z_coeffs) -> LaurentPoly:
    """Expand a polynomial in ``z`` under ``z = q^(1/2) - q^(-1/2)``.

    ``z_coeffs`` gives the coefficient of each power of ``z``, either as a
    sequence indexed by power or as an int-keyed mapping.  Coefficients may
    be ``LaurentPoly`` or int.  Negative powers are rejected: the target
    grid has no inverse for ``z``.
    """
    if isinstance(z_coeffs, Mapping):
        items = list(z_coeffs.items())
    else:
        items = list(enumerate(z_coeffs))
    z = LaurentPoly.monomial(1, 1) + LaurentPoly.monomial(-1, -1)
    parts = []
    for power, coeff in items:
        power = int(power)
        if power < 0:
            raise NegativePowerOfZError(f"negative power of z: {power}")
        poly = LaurentPoly._coerce(coeff)
        if poly is None:
            raise TypeError(f"coefficients must be LaurentPoly or int, got {coeff!r}")
        parts.append(poly * z**power)
    return poly_sum(parts)
