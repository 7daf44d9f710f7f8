"""Exact sparse Laurent polynomials in ``q`` and ``p`` on a half-integer grid.

Every quantity in this package (deformed numbers, skein coefficients, torus
invariants) is a Laurent polynomial in the two variables ``q`` and ``p`` with
arbitrary-precision integer coefficients.  Exponents are restricted to integer
multiples of 1/2 and stored as doubled integers, so all arithmetic is exact:
no floats, no symbolic simplification heuristics.

The canonical term order compares the ``q`` exponent first, then the ``p``
exponent; text and JSON output list terms in descending canonical order.

Canonical form has one rule, written once: every sum the kernel forms (the
constructor, ``+``, ``-``, ``poly_sum``, the sum of products ``_dot``, which
``*`` runs on, the parser) accumulates coefficients freely, and
``_canonical`` then drops its zeros, in place.
The division remainder in ``exact_div``'s heap route and in
``sqrt_perfect_square`` keeps a cancelled key, at zero, until the heap
pops it, and skips it there.

``exact_div`` by a divisor of exactly two terms takes the run route: its
quotient is a set of geometric runs, read from one pass over the
numerator's sorted keys, so the quotient's size is priced before its first
term is built, and each run is written by C-level iterators with no
remainder at all; it places the first error of an inexact division
itself, on any number of chains.  Divisors of one term, or of three or
more, take the heap route, which also stays the run route's reference in
the tests.

Text has two parsers, chosen by the input.  Valid text is read by
whole-text patterns, which run in C: ``_match_text`` removes the
whitespace, matches the grammar as one pattern and reads the terms with
one ``findall``.  Text it refuses (malformed, off the grid, a zero
denominator) goes to ``_Parser``, a recursive descent that positions the
error; it is also the reference the patterns are tested against.

Rendering (``LaurentPoly.text``, ``format_poly``, ``terms``) makes one
pass over a value's terms in descending canonical order and pays per term,
with ``str`` for every int; a value holding an int past CPython's int/str
limit is rendered again with ``_int_to_str``, which converts at any length
in subquadratic time, as every int in an error message does.  Term order
is decided at render time, and by no producer: a value backed by a dict
sorts its keys on each render and reads its coefficients by key, and a
torus value's column walks itself.  Text formats each term in place; JSON
joins three pieces per term, a head per coefficient and a tail per ``p``
exponent, each built once per value, around the term's ``q`` exponent.
The torus closed form keeps only its sorted exponent list, a ``_Column``,
and the term dict is built from it on the first read other than
rendering: a column is written by slice fills into one list of shared
pieces, with one ``str`` per term.
``format_json`` nests indented copies of the single-poly JSON document.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from heapq import heapify, heappop, heappush
from itertools import accumulate, cycle, islice, repeat
from math import comb, gcd, isqrt
from operator import mul, neg
from typing import Union

__all__ = [
    "JSON_SCHEMA",
    "BudgetExceededError",
    "GridError",
    "LaurentError",
    "LaurentPoly",
    "NegativePowerOfZError",
    "NonExactDivisionError",
    "NotAPerfectSquareError",
    "ParseError",
    "eval_numeric",
    "exact_div",
    "format_json",
    "format_poly",
    "parse",
    "poly_sum",
    "sqrt_perfect_square",
    "substitute_z",
]

ExpVec = tuple[int, int]
"""Doubled exponent pair ``(2*e_q, 2*e_p)``.  Tuple comparison of these pairs
is exactly the canonical term order."""


class LaurentError(ValueError):
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


class BudgetExceededError(LaurentError):
    """The requested value, or one product inside ``f ** k``, would cost
    more than ``MAX_WORK``."""


# the one work budget: the most one requested value may take, counted in
# output terms (and walk steps, for the torus values; root terms per step,
# for the square root) times 64-bit words per coefficient, the most values
# a count or bound may ask for, and the most term pairs one product inside
# ``f ** k`` may form.  A term costs about 135 bytes, so this caps a result
# near 540 MB.  Every entry of the package prices its work against this
# one name, read when it is called, through ``_require_budget``.
MAX_WORK = 4 * 10**6


def _require_budget(cost: int, unit: str, subject: str, *args) -> None:
    # the one budget rule: ``cost``, in ``unit``, against MAX_WORK as it
    # reads now.  The subject is a format string, filled in, with ints
    # through _int_to_str, only when the value is refused
    if cost > MAX_WORK:
        subject = subject.format(*(_int_to_str(a) if isinstance(a, int) else a for a in args))
        raise BudgetExceededError(f"{subject} is over the budget of {MAX_WORK} {unit}")


def _require_int(name: str, value, least: int | None = None, counts: bool = False) -> None:
    # the one rule for a caller's index, count or bound, checked before
    # any work: an int (a bool is an int to Python but never an index), at
    # least ``least``, and, for a value that counts the values to make, at
    # most MAX_WORK
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    if counts:
        _require_budget(value, "values", "{} = {}", name, value)


def _require_poly(name: str, value) -> LaurentPoly:
    # the one rule for a value argument: what ``_coerce`` makes of it, as
    # in arithmetic (a LaurentPoly itself, a plain int the constant it
    # names), or a TypeError for anything else
    poly = LaurentPoly._coerce(value)
    if poly is None:
        raise TypeError(f"{name} must be a LaurentPoly or an int, not {type(value).__name__}")
    return poly


def _power_cost(bases: tuple[dict[ExpVec, int], ...], k: int, count: int) -> int:
    """A bound on the terms times 64-bit coefficient words of a sum of
    ``count`` products of ``k`` terms, each a term of one of ``bases``.

    Told from the inputs alone, before any product.  The sum's terms are at
    most the multisets of ``k`` elements of the union S of the supports,
    ``C(k+s-1, s-1)`` for s = |S|, and at most the points of ``k`` times
    S's box; each coefficient is at most ``count * M^k``, M the largest
    1-norm, so it has at most ``bits(count) + k*ceil(log2 M)`` bits.
    """
    support = set().union(*bases)
    s = len(support)
    norm = max([sum(map(abs, base.values())) for base in bases] + [1])
    words = 1 + (count.bit_length() + k * (norm - 1).bit_length()) // 64
    if words > MAX_WORK:
        # one term is over the budget: stop before the multisets, as
        # C(k+s-1, s-1) alone takes seconds when k and s are both large
        return words
    box = 1
    for axis in zip(*support):
        box *= k * (max(axis) - min(axis)) + 1
    return min(comb(k + s - 1, s - 1) if s else 1, box) * words


class LaurentPoly:
    """A Laurent polynomial in ``q`` and ``p`` over the integers.

    Instances are immutable and hashable.  All operations return new values
    in canonical form: no zero coefficients, one entry per exponent pair.
    Sums accumulate first and drop their zeros in one place, ``_canonical``;
    ``==``, ``hash``, ``is_zero``, ``leading_term`` and rendering rely on it.
    Plain ints coerce in arithmetic and comparisons.

    Built from text, an int, or ``((q2, p2), coeff)`` terms (a mapping or
    an iterable): each key is a tuple of exactly two doubled exponents,
    and exponents and coefficients are ``int``, not ``bool``; anything
    else raises ``TypeError``.

    >>> f = LaurentPoly("q^(1/2) - q^(-1/2)")
    >>> f * f
    LaurentPoly('q - 2 + q^(-1)')
    >>> f - f + 1
    LaurentPoly('1')
    >>> LaurentPoly.zero() ** 0
    LaurentPoly('1')
    """

    # _Column leaves _terms unset until something other than rendering
    # reads it
    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: str | int | Mapping[ExpVec, int] | Iterable[tuple[ExpVec, int]] = (),
    ):
        if isinstance(terms, str):
            data = _parse_text(terms)
        elif isinstance(terms, int):
            _require_int("coefficient", terms)
            data = {(0, 0): terms}
        else:
            items = terms.items() if isinstance(terms, Mapping) else terms
            data = {}
            for item in items:
                try:
                    exp, coeff = item
                except ValueError:
                    raise TypeError("terms must be (exponent, coefficient) pairs") from None
                _require_int("coefficient", coeff)
                if not isinstance(exp, tuple) or len(exp) != 2:
                    raise TypeError("exponents must be (q2, p2) pairs")
                for e2 in exp:
                    _require_int("exponent", e2)
                data[exp] = data.get(exp, 0) + coeff
        self._terms = _canonical(data)

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
        return cls({(q2, p2): coeff})

    @classmethod
    def _raw(cls, data: dict[ExpVec, int]) -> LaurentPoly:
        # internal fast path: data must already be canonical
        poly = cls.__new__(cls)
        poly._terms = data
        return poly

    # ------------------------------------------------------------------
    # accessors

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[ExpVec, int], ...]:
        """All terms in descending canonical order, sorted on each call."""
        return tuple(self._items())

    def _items(self) -> Iterable[tuple[ExpVec, int]]:
        # the terms in descending canonical order, a fresh iterator on each
        # call: the dict's keys sorted, each with its coefficient; _Column
        # walks its exponent list instead
        d = self._terms
        keys = sorted(d, reverse=True)
        return zip(keys, map(d.__getitem__, keys))

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
            data[exp] = data.get(exp, 0) + coeff
        return LaurentPoly._raw(_canonical(data))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({exp: -coeff for exp, coeff in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for exp, coeff in other._terms.items():
            data[exp] = data.get(exp, 0) - coeff
        return LaurentPoly._raw(_canonical(data))

    def __rsub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        """``self ** k`` by repeated squaring, for an int ``k`` of at least
        0.  ``BudgetExceededError`` before any product when the size of the
        power, bounded from the support, the 1-norm and ``k``, would pass
        ``MAX_WORK``, and before any one product that would form more term
        pairs than it: a dense 100 x 100 square has 39,601 terms but forms
        10^8 pairs."""
        if not isinstance(k, int):
            return NotImplemented
        _require_int("k", k, 0)
        _require_budget(_power_cost((self._terms,), k, 1), "terms times 64-bit coefficient words",
                        "power {} of a {}-term poly", k, len(self._terms))

        def times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
            pairs = len(a._terms) * len(b._terms)
            _require_budget(pairs, "term pairs", "a product of {} term pairs in power {} of a "
                            "{}-term poly", pairs, k, len(self._terms))
            return a * b

        result = LaurentPoly.one()
        base = self
        n = k
        while n:
            if n & 1:
                result = times(result, base)
            n >>= 1
            if n:
                base = times(base, base)
        return result

    # ------------------------------------------------------------------
    # identity

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            # constant polynomials hash like their int value (they compare
            # equal to it, so the hashes must agree)
            return hash(self._terms[(0, 0)])
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # rendering

    def text(self) -> str:
        """Canonical text form, e.g. ``'q - 1 + q^(-1)'``.

        One pass over the terms in descending canonical order pays per
        term: a term is its sign, its magnitude, its ``p`` factor, read
        from a dict kept for this value, and its ``q`` factor, formatted in
        place.  The value's keys are sorted on each call.  A torus value's
        exponent list is written by slice fills, with one ``str`` per term
        and no term dict at all.  Nothing is cached past the call, so a
        second call pays again.
        """
        return _render(_text, _column_text, self)

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
    def from_json_obj(cls, obj: dict) -> LaurentPoly:
        """Inverse of ``to_json_obj``.  Takes a document of ``JSON_SCHEMA``:
        objects are dicts with exactly the schema's keys, ``terms`` a list,
        coefficients decimal strings matching ``^-?[0-9]+$`` in full and
        exponents Python ints (not ``bool``, nor a float such as ``2.0``);
        anything else raises ``ValueError``."""
        if not isinstance(obj, dict) or obj.keys() != {"variables", "terms"}:
            raise ValueError("expected an object with the keys 'variables' and 'terms'")
        if obj["variables"] != ["q", "p"]:
            raise ValueError("expected variables ['q', 'p']")
        if not isinstance(obj["terms"], list):
            raise ValueError("expected 'terms' to be an array")
        items = []
        for term in obj["terms"]:
            if not isinstance(term, dict) or term.keys() != {"coeff", "exp2"}:
                raise ValueError("expected each term to be an object with keys 'coeff' and 'exp2'")
            coeff, exp2 = term["coeff"], term["exp2"]
            if not isinstance(coeff, str) or not _COEFF_RE.fullmatch(coeff):
                what = repr(coeff) if isinstance(coeff, str) else "of type " + type(coeff).__name__
                raise ValueError(f"coefficient {what} is not a decimal integer string")
            if not isinstance(exp2, dict) or exp2.keys() != {"q", "p"}:
                raise ValueError("expected 'exp2' to be an object with the keys 'q' and 'p'")
            exp = (exp2["q"], exp2["p"])
            for e2 in exp:
                if not isinstance(e2, int) or isinstance(e2, bool):
                    raise ValueError(f"exponent {e2!r} is not an integer")
            items.append((exp, _int_from_str(coeff)))
        return cls(items)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"


class _Column(LaurentPoly):
    """A value whose terms are ``((e, 0), +1), ((e', 0), -1), ...`` over
    its column, a list of doubled ``q`` exponents.  The contract: the
    column is non-empty, strictly descending and of even ints, and the
    signs alternate from +1.  ``torus.alexander_torus``, its only
    producer, meets it: ``c = (n-1)(l-1)`` is even for coprime ``n``,
    ``l``, and no doubled exponent passes ``c`` in size, which the budget
    on T keeps far inside the int/str digit limit.  Rendering writes the column by slice fills
    (``_column_text``, ``_column_json``), one ``str`` per term, and builds
    no term dict; ``terms()`` walks it, reusing the walk's tuples.  The
    first other read of ``_terms`` (``==``, ``hash``, arithmetic,
    ``is_zero``, ``leading_term``) builds the dict from the column and
    drops it."""

    __slots__ = ("_exps",)

    def __init__(self, exps: list[int]):
        self._exps = exps

    def __getattr__(self, name):
        # runs only where ordinary lookup fails: _terms before it is built
        if name != "_terms":
            return object.__getattribute__(self, name)  # the usual AttributeError
        self._terms = terms = dict(self._items())
        self._exps = None
        return terms

    def _items(self) -> Iterable[tuple[ExpVec, int]]:
        exps = self._exps
        if exps is None:
            return self._terms.items()
        return zip(zip(exps, repeat(0)), cycle((1, -1)))

    def __reduce__(self):
        # pickled and copied as its column, read back from the dict once built
        exps = self._exps
        return _Column, ([q2 for q2, _p2 in self._terms] if exps is None else exps,)


_COEFF_RE = re.compile(r"-?[0-9]+")

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
                    # anchored so that Python's re.search and ECMA-262 both refuse
                    # a trailing newline, as from_json_obj does
                    "coeff": {"type": "string", "pattern": f"^{_COEFF_RE.pattern}$(?!\\n)"},
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


def _render(write, write_column, f: LaurentPoly) -> str:
    """``f`` rendered by one of two writers.  A ``_Column`` that still
    holds its column is written from it by ``write_column``, with slice
    fills and one ``str`` per term.  Any other value is ``write(f._items(),
    str)``, or, for a value holding an int past CPython's int/str digit
    limit, where ``str`` raises, the same with ``_int_to_str`` over a fresh
    ``f._items()``: the first pass may have consumed the one it was
    given.  A value backed by a dict pays one class check more than the
    generic writer alone."""
    if type(f) is _Column and f._exps is not None:
        return write_column(f._exps)
    try:
        return write(f._items(), str)
    except ValueError:
        return write(f._items(), _int_to_str)


def _power(name: str, e2: int, conv) -> str:
    # doubled exponent: halves render as "(m/2)", integers render bare,
    # negative integers keep parentheses so output reparses
    if e2 & 1:
        return f"{name}^({conv(e2)}/2)"
    e = e2 >> 1
    return name if e == 1 else f"{name}^{conv(e)}" if e > 0 else f"{name}^({conv(e)})"


def _text(items: Iterable[tuple[ExpVec, int]], conv) -> str:
    """``LaurentPoly.text`` of ``items``, the terms in descending canonical
    order, every int through ``conv``."""
    pfactors = {0: ""}  # p2 -> its factor and the "*" after it
    out = []
    for (q2, p2), c in items:
        pf = pfactors.get(p2)
        if pf is None:
            pf = pfactors[p2] = _power("p", p2, conv) + "*"
        if c < 0:
            head = " - " if c == -1 else f" - {conv(-c)}*"
        else:
            head = " + " if c == 1 else f" + {conv(c)}*"
        if q2:
            # _power("q", q2, conv) spelled out, as it runs per term
            if q2 & 1:
                out.append(f"{head}{pf}q^({conv(q2)}/2)")
            elif q2 > 2:
                out.append(f"{head}{pf}q^{conv(q2 >> 1)}")
            elif q2 < 0:
                out.append(f"{head}{pf}q^({conv(q2 >> 1)})")
            else:
                out.append(head + pf + "q")
        elif p2:
            out.append(head + pf[:-1])
        else:  # the constant shows its magnitude, 1 included
            out.append(head[:-1] if head[-1] == "*" else head + "1")
    if not out:
        return "0"
    first = out[0]
    out[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(out)


def _column_text(exps: list[int]) -> str:
    """``_text`` of a ``_Column``'s terms, from its column ``exps``.

    The column descends, so its terms fall in four runs: ``q^k`` for
    k > 1, then ``q``, then ``1``, then ``q^(k)`` for k < 0.  The middle
    two hold at most one term each and are written by hand.  The long runs
    are filled into one list by slice assignment: a sign piece per term
    from a shared pair, one ``str`` per exponent, and the negative run's
    shared ``")"``.  The ``str``s come from a comprehension, whose ``str``
    call CPython 3.11 specializes and ``map(str, ...)`` does not."""
    n = len(exps)
    # where q, the constant and the first negative exponent sit, found on
    # the ascending negated column
    q_at = bisect_left(exps, -2, key=neg)
    one_at = bisect_left(exps, 0, key=neg)
    lo = bisect_left(exps, 1, key=neg)
    start = q_at + lo  # the negative run's first piece: two per term before q
    pieces = [")"] * (start + 3 * (n - lo))
    pieces[0 : 2 * q_at : 2] = islice(cycle((" + q^", " - q^")), q_at)
    pieces[1 : 2 * q_at : 2] = [str(e >> 1) for e in exps[:q_at]]
    if one_at > q_at:
        pieces[2 * q_at] = " - q" if q_at & 1 else " + q"
    if lo > one_at:
        pieces[q_at + one_at] = " - 1" if one_at & 1 else " + 1"
    sign = lo & 1
    pieces[start::3] = islice(cycle((" + q^(", " - q^(")), sign, sign + n - lo)
    pieces[start + 1 :: 3] = [str(e >> 1) for e in exps[lo:]]
    pieces[0] = pieces[0][3:]  # the first sign is +
    return "".join(pieces)


# The layout ``json.dumps(f.to_json_obj(), indent=2)`` writes, spelled out
# in the fixed pieces around each term's coefficient, q and p exponents:
# with ``indent`` set, CPython's encoder falls back to pure Python, about
# ten times slower than joining these pieces.
_JSON_HEAD = '{\n  "variables": [\n    "q",\n    "p"\n  ],\n  "terms": '
_JSON_LAYOUT = (
    _JSON_HEAD + "[]\n}",  # no terms
    _JSON_HEAD + '[\n    {\n      "coeff": "',  # up to the first coefficient
    '",\n      "exp2": {\n        "q": ',  # before q
    ',\n        "p": ',  # before p
    '\n      }\n    },\n    {\n      "coeff": "',  # between terms
    "\n      }\n    }\n  ]\n}",  # after the last p
)


def _json(items: Iterable[tuple[ExpVec, int]], conv) -> str:
    """``format_poly(f, "json")`` of ``items``, the terms in descending
    canonical order, every int through ``conv``.  A term is three pieces:
    its coefficient's head (the coefficient and the layout up to
    ``"q": ``), its ``q`` exponent, and its ``p`` exponent's tail (the
    layout from ``"p": `` to the next term's ``"coeff": "``).  Coefficients
    and ``p`` exponents repeat (a torus value's are all 1, -1 and 0), so
    heads and tails are built once per value and shared, and a term's only
    new string is its ``q`` exponent.  After the loop the last term's tail
    is replaced by one ending in the document's closing layout."""
    empty, first, before_q, before_p, between, tail = _JSON_LAYOUT
    heads: dict[int, str] = {}
    tails: dict[int, str] = {}
    pieces = [first]
    for (q2, p2), c in items:
        head = heads.get(c)
        if head is None:
            head = heads[c] = conv(c) + before_q
        ptail = tails.get(p2)
        if ptail is None:
            ptail = tails[p2] = f"{before_p}{conv(p2)}{between}"
        # three appends, which CPython runs as one specialized instruction
        # each, cost less than building and extending by a tuple
        pieces.append(head)
        pieces.append(conv(q2))
        pieces.append(ptail)
    if len(pieces) == 1:
        return empty
    pieces[-1] = f"{before_p}{conv(p2)}{tail}"
    return "".join(pieces)


def _column_json(exps: list[int]) -> str:
    """``_json`` of a ``_Column``'s terms, from its column ``exps``: the
    three pieces per term filled into one list by slice assignment.  The
    heads alternate between those of 1 and -1, each exponent is one
    ``str``, and every tail is the one of ``p`` exponent 0, the last
    closing the document."""
    _empty, first, before_q, before_p, between, tail = _JSON_LAYOUT
    pieces = [f"{before_p}0{between}"] * (3 * len(exps) + 1)
    pieces[0] = first
    pieces[1::3] = islice(cycle(("1" + before_q, "-1" + before_q)), len(exps))
    pieces[2::3] = [str(e) for e in exps]
    pieces[-1] = f"{before_p}0{tail}"
    return "".join(pieces)


# CPython refuses to convert between int and decimal str past
# ``sys.get_int_max_str_digits()`` digits (4300 by default, never below 640
# when set).  Exact coefficients outgrow that, so the two helpers below
# take other routes for long values; ``sys.set_int_max_str_digits`` is not
# touched.
_SAFE_DIGITS = 600


def _int_to_str(v: int) -> str:
    """``str(v)`` at any size, in subquadratic time.

    Past the limit, the technique of CPython 3.12's ``Lib/_pylong.py``:
    build the value as an exact ``Decimal`` from binary halves, so the
    work is libmpdec's fast multiplication, then let ``Decimal`` print it.
    CPython 3.11 converts by schoolbook division, quadratic in the digits.
    """
    try:
        return str(v)
    except ValueError:
        pass
    from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

    mag = abs(v)
    powers: dict[int, Decimal] = {}  # width -> 2**width, shared by the halves

    def build(n: int, width: int) -> Decimal:
        # n < 2**width
        if width <= 128:
            return Decimal(n)
        half = width >> 1
        high = n >> half
        scale = powers.get(half)
        if scale is None:
            scale = powers[half] = Decimal(2) ** half
        return build(n - (high << half), half) + build(high, width - half) * scale

    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.traps[Inexact] = True
        digits = str(build(mag, mag.bit_length()))
    return "-" + digits if v < 0 else digits


def _int_from_str(s: str) -> int:
    """``int(s)`` at any size, for ``s`` matching ``[+-]?[0-9]+``."""
    if s[0] == "-":
        return -_int_from_str(s[1:])
    if len(s) <= _SAFE_DIGITS:
        return int(s)
    k = len(s) // 2
    return _int_from_str(s[:-k]) * 10**k + _int_from_str(s[-k:])


def format_poly(f: LaurentPoly, mode: str = "text") -> str:
    """Render ``f`` deterministically.  ``mode`` is ``"text"`` or ``"json"``.

    The JSON form is byte-identical to
    ``json.dumps(f.to_json_obj(), indent=2)``.  Like ``text``, it makes one
    pass over the terms in descending canonical order, by sorted keys, or
    over a torus value's column.  A plain int ``f`` is the constant it
    names; any other type that is not a ``LaurentPoly`` raises
    ``TypeError``.
    """
    f = _require_poly("f", f)
    if mode == "text":
        return f.text()
    if mode == "json":
        return _render(_json, _column_json, f)
    raise ValueError(f"unknown format mode: {mode!r}")


def format_json(polys: Mapping[str, LaurentPoly] | Sequence[LaurentPoly]) -> str:
    """One JSON document holding several polys: a mapping of ``str`` labels
    to polys renders as an object, any other sequence as an array, and
    anything else raises ``TypeError``, as does a label of another type (a
    JSON object's keys are strings), both before anything is rendered.

    Byte-identical to ``json.dumps(obj, indent=2)``, where ``obj`` holds
    each poly's ``to_json_obj()``: each entry is ``format_poly(f, "json")``
    indented one level, as the encoder nests a value, so a plain int entry
    is a constant and an entry of any other type raises ``TypeError``.
    """
    if isinstance(polys, Mapping):
        import json

        for label in polys:
            if not isinstance(label, str):
                raise TypeError(f"a label must be a str, not {type(label).__name__}")
        labels = [json.dumps(label) + ": " for label in polys]
        polys, brackets = list(polys.values()), "{}"
    elif isinstance(polys, Sequence):
        labels, brackets = [""] * len(polys), "[]"
    else:
        raise TypeError(f"polys must be a mapping or a sequence, not {type(polys).__name__}")
    if not polys:
        return brackets
    entries = ",\n  ".join(
        label + format_poly(f, "json").replace("\n", "\n  ") for label, f in zip(labels, polys)
    )
    return f"{brackets[0]}\n  {entries}\n{brackets[1]}"


def parse(text: str) -> LaurentPoly:
    """Parse expression text into canonical form.

    Grammar (whitespace between tokens ignored):

        expr     := ['-'] term (('+' | '-') term)*
        term     := (integer | factor) (['*'] factor)*
        factor   := ('q' | 'p') ['^' exponent]
        exponent := signed | '(' signed ['/' integer] ')'
        signed   := ['+' | '-'] integer

    Integers are ASCII digits, and a coefficient only opens a term: ``+q``,
    ``q*3`` and ``2 3`` are malformed, ``q^-2`` and ``2q^(1/2)p`` parse.
    Fractional exponents must be integer multiples of 1/2 (``GridError``
    otherwise); any other malformed input raises ``ParseError`` with the
    offending character position.

    Valid text is read by whole-text patterns, which run in C: the text
    with its whitespace removed must match the grammar as one pattern, and
    one ``findall`` then reads its terms.  Text they refuse goes to the
    recursive-descent parser, which finds and positions the error; it is
    also the reference the pattern path is tested against.

    >>> parse("2q^(1/2) - p^2")
    LaurentPoly('2*q^(1/2) - p^2')
    """
    return LaurentPoly._raw(_canonical(_parse_text(text)))


def _parse_text(text: str) -> dict[ExpVec, int]:
    # the accumulated terms, zeros included: callers pass them to _canonical
    data = _match_text(text)
    return _descend(text) if data is None else data


# The grammar of ``parse`` as one pattern over text with no whitespace in
# it, where every token but an integer is one character.  There are no two
# ways to match a text, so every repeat can be possessive (``*+``, ``++``):
# it never gives back what it took, and ``fullmatch`` runs in linear time
# and keeps no backtracking state, which a plain ``*`` over terms would
# hold for every term of the text.  ASCII digits only: ``\d`` and
# ``str.isdigit`` also accept other scripts' digits, which the grammar
# does not.
_SIGNED = "[+-]?[0-9]++"
_FACTOR = rf"[qp](?:\^(?:{_SIGNED}|\({_SIGNED}(?:/[0-9]++)?\)))?"
_TERM = rf"(?:[0-9]++|{_FACTOR})(?:\*?{_FACTOR})*+"
_EXPR_RE = re.compile(rf"-?{_TERM}(?:[+-]{_TERM})*+")
# Removing whitespace would join two integers only whitespace separates,
# which no valid text holds: ``2 3`` is malformed, ``23`` is not.
_DIGIT_GAP_RE = re.compile(r"[0-9]\s+[0-9]")
# Over text ``_EXPR_RE`` matched, each match is a term's sign and
# coefficient, a factor, or both, and one empty match at the end reads as
# nothing.
_TOKEN_RE = re.compile(
    r"([+-][0-9]*|[0-9]+)?\*?(?:([qp])(?:\^\(?([+-]?[0-9]+)(?:/([0-9]+))?\)?)?)?"
)


def _match_text(text: str) -> dict[ExpVec, int] | None:
    """The terms of ``text`` read by the patterns, or ``None`` where the
    text is malformed or off the grid, for ``_descend`` to diagnose."""
    # str.split() removes what str.isspace() calls whitespace, the set
    # _Parser.peek skips and \s matches
    s = "".join(text.split())
    if _EXPR_RE.fullmatch(s) is None:
        return None
    if len(s) < len(text) and _DIGIT_GAP_RE.search(text) is not None:
        return None
    # int is _int_from_str up to _SAFE_DIGITS digits, and no integer in s
    # is longer than s
    to_int = int if len(s) <= _SAFE_DIGITS else _int_from_str
    acc: dict[ExpVec, int] = {}
    get = acc.get
    coeff = 1 if s[0] in "qp" else None  # None: no term open yet
    q2 = p2 = 0
    for start, var, num, den in _TOKEN_RE.findall(s):
        if start:
            if coeff is not None:
                exp = (q2, p2)
                acc[exp] = get(exp, 0) + coeff
                q2 = p2 = 0
            coeff = 1 if start == "+" else -1 if start == "-" else to_int(start)
        if var:
            if not num:
                e2 = 2
            elif not den:
                e2 = 2 * to_int(num)
            else:
                d = to_int(den)
                if not d:
                    return None
                e2, rest = divmod(2 * to_int(num), d)
                if rest:
                    return None
            if var == "q":
                q2 += e2
            else:
                p2 += e2
    exp = (q2, p2)
    acc[exp] = get(exp, 0) + coeff
    return acc


# ASCII digits only, as in the patterns above
_INT_RE = re.compile(r"[0-9]+")
_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive descent over the grammar of ``parse``, one character at a
    time: slow, but it stops at the first character that breaks the
    grammar, and that is the position every ``ParseError`` reports.

    Digit runs stay text until their values are needed: a fraction
    exponent's zero and grid checks, and the terms once the whole text has
    parsed.  So an error after a long integer costs no conversion."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.pos if pos is None else pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> str:
        self.peek()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected an integer")
        self.pos = m.end()
        return m.group()

    def take_signed_int(self) -> str:
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
        return ("-" if ch == "-" else "") + self.take_uint()

    def parse_expr(self) -> dict[ExpVec, int]:
        # per term: its sign, its coefficient's digits (None for 1) and its
        # (variable, exponent) factors, converted once all of them parsed
        terms: list[tuple[int, str | None, list[tuple[str, int | str]]]] = []
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        self.parse_term(terms, sign)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                self.parse_term(terms, 1)
            elif ch == "-":
                self.pos += 1
                self.parse_term(terms, -1)
            elif ch == "":
                break
            else:
                self.fail(f"unexpected character {ch!r}")
        acc: dict[ExpVec, int] = {}
        for sign, coeff, factors in terms:
            q2 = p2 = 0
            for var, e2 in factors:
                if isinstance(e2, str):
                    e2 = 2 * _int_from_str(e2)
                if var == "q":
                    q2 += e2
                else:
                    p2 += e2
            value = sign if coeff is None else sign * _int_from_str(coeff)
            exp = (q2, p2)
            acc[exp] = acc.get(exp, 0) + value
        return acc

    def parse_term(self, terms: list, sign: int):
        ch = self.peek()
        coeff = None
        if ch in _DIGITS:
            coeff = self.take_uint()
        elif ch not in ("q", "p"):
            self.fail("expected a coefficient or a variable")
        factors = []
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                if self.peek() not in ("q", "p"):
                    self.fail("expected 'q' or 'p' after '*'")
                factors.append(self.parse_factor())
            elif ch in ("q", "p"):
                factors.append(self.parse_factor())
            else:
                break
        terms.append((sign, coeff, factors))

    def parse_factor(self) -> tuple[str, int | str]:
        var = self.peek()
        self.pos += 1
        if self.peek() != "^":
            return var, 2
        self.pos += 1
        return var, self.parse_exponent()

    def parse_exponent(self) -> int | str:
        """The doubled exponent, or a whole exponent's signed digits, to be
        converted and doubled with its term."""
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            start = self.pos
            num = self.take_signed_int()
            den = None
            if self.peek() == "/":
                self.pos += 1
                den = _int_from_str(self.take_uint())
                if den == 0:
                    self.fail("zero denominator in exponent", start)
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            if den is None:
                return num
            value = _int_from_str(num)
            doubled, rest = divmod(2 * value, den)
            if rest:
                frac = f"{_int_to_str(value)}/{_int_to_str(den)}"
                raise GridError(f"exponent {frac} is not an integer multiple of 1/2", start)
            return doubled
        if ch in ("+", "-") or ch in _DIGITS:
            return self.take_signed_int()
        self.fail("expected an exponent")


def _descend(text: str) -> dict[ExpVec, int]:
    # the same terms as _match_text, or the positioned error
    parser = _Parser(text)
    if parser.peek() == "":
        parser.fail("empty expression")
    return parser.parse_expr()


def _canonical(data: dict[ExpVec, int]) -> dict[ExpVec, int]:
    """``data`` with its zero coefficients deleted, in place: the one place
    a sum the kernel forms is pruned.  ``all`` scans the values in C, so a
    sum with nothing to drop pays no Python-level pass."""
    if not all(data.values()):
        for exp in [exp for exp, coeff in data.items() if not coeff]:
            del data[exp]
    return data


def poly_sum(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum many polynomials in one accumulation pass.  A plain int is the
    constant it names; any other type that is not a ``LaurentPoly`` raises
    ``TypeError``."""
    acc: dict[ExpVec, int] = {}
    for f in polys:
        for exp, coeff in _require_poly("each summand", f)._terms.items():
            acc[exp] = acc.get(exp, 0) + coeff
    return LaurentPoly._raw(_canonical(acc))


def _dot(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """``a_1*x_1 + a_2*x_2 + ...`` over the ``(a, x)`` pairs, every term
    product accumulated into one dict that is pruned once: no dict per
    product and none for the sum (the sum of products into one accumulator
    of Monagan and Pearce's sparse multiplication).  It is the kernel's
    only multiply-accumulate: ``a * x`` is ``_dot(((a, x),))``.

    >>> _dot([(parse("q + 1"), parse("q - 1")), (parse("-q"), parse("q"))])
    LaurentPoly('-1')
    """
    data: dict[ExpVec, int] = {}
    for a, x in pairs:
        rows = iter(a._terms.items())
        xs = x._terms.items()
        if not data:
            # the first row fills an empty dict: a shift by one term is
            # injective and canonical coefficients are nonzero, so it
            # writes each key once, and nothing yet is there to add to
            for (aq, ap), ac in rows:
                data = {(aq + bq, ap + bp): ac * bc for (bq, bp), bc in xs}
                break
        get = data.get
        for (aq, ap), ac in rows:
            for (bq, bp), bc in xs:
                exp = (aq + bq, ap + bp)
                data[exp] = get(exp, 0) + ac * bc
    return LaurentPoly._raw(_canonical(data))


def _component_bounds(f: LaurentPoly) -> tuple[ExpVec, ExpVec]:
    qs = [exp[0] for exp in f._terms]
    ps = [exp[1] for exp in f._terms]
    return (min(qs), min(ps)), (max(qs), max(ps))


def _inexact(num: LaurentPoly, den: LaurentPoly,
             coeff: int | None = None) -> NonExactDivisionError:
    # the two refusals of an inexact division: a remainder term outside the
    # quotient box, or a coefficient the leading one does not divide
    if coeff is None:
        return NonExactDivisionError(f"{num} is not divisible by {den}")
    return NonExactDivisionError(
        f"coefficient {_int_to_str(coeff)} is not divisible by the leading "
        f"coefficient {_int_to_str(den.leading_term()[1])} of {den}"
    )


_QUOTIENT = "the quotient of a {}-term poly by a {}-term poly"


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``num / den`` over the integer half-exponent grid.

    Sparse long division by the leading term under the canonical order.
    Per variable, every monomial of a true quotient lies in the box
    ``[val(num) - val(den), deg(num) - deg(den)]`` (degrees and valuations
    add under multiplication over an integral domain), so a candidate term
    outside that box proves the division inexact.  The box also bounds the
    loop: candidate exponents strictly decrease, hence termination.

    A divisor of exactly two terms takes the run route, ``_div_by_runs``:
    its quotient is a union of geometric runs, found from the numerator's
    keys alone, so the quotient's size is priced before its first term is
    built.  Every other divisor takes the heap route, ``_div_by_heap``.
    Both give the same quotient, or the same error.

    Two terms can divide into n, as ``(q^n - 1) / (q - 1)`` does, so a
    quotient of more than ``MAX_WORK`` terms raises
    ``BudgetExceededError``, which names the sizes of ``num`` and ``den``:
    by a two-term divisor before any term is built, by the heap before the
    term past the budget is stored.

    A plain int ``num`` or ``den`` is the constant it names; any other
    type that is not a ``LaurentPoly`` raises ``TypeError``.

    >>> exact_div(parse("q - q^(-1)"), parse("q^(1/2) - q^(-1/2)"))
    LaurentPoly('q^(1/2) + q^(-1/2)')
    """
    num, den = _require_poly("num", num), _require_poly("den", den)
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()
    if len(den._terms) == 2:
        return _div_by_runs(num, den)
    return _div_by_heap(num, den)


def _div_by_runs(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """``exact_div`` by a two-term ``den = a*x^u + b*x^v``, ``u > v``.

    The keys ``k, k - d, k - 2d, ...`` (``d = u - v``) form a chain, and
    division runs along each chain apart from the others.  On a chain the
    quotient is a run ``t, t*rho, t*rho^2, ...`` (``rho = -b/a``) that
    begins at a numerator key and carries ``a*t*rho^L`` to the key ``L``
    steps below.  That key either cancels the carry, ending the run, or
    begins the next run.  No numerator key lies above the quotient box,
    whose lower edge ends each chain at a position read from the
    numerator's bounds.  So one pass over the numerator's sorted keys,
    with one ``pow`` per gap between them, gives every run's first term,
    coefficient and length, and the quotient is priced before any term is
    built.  Where ``a`` does not divide ``b``, a run stays integral only
    while ``a/gcd(a, b)`` divides ``t`` often enough, which is counted one
    step at a time.

    Each chain is walked to its first error, a value that ``a`` does not
    divide or a nonzero value below the box, or until its own terms pass
    ``MAX_WORK``, past which the heap would not get.  The heap pops keys
    from the highest down across all chains, so of the chains' errors it
    meets the highest, unless it stores more than ``MAX_WORK`` run terms
    above that first; the route raises what the heap meets first, with no
    term built.
    """
    (u, a), (v, b) = sorted(den._terms.items(), reverse=True)
    dq, dp = u[0] - v[0], u[1] - v[1]  # dq >= 0, and dp > 0 where dq = 0
    rho, frac = divmod(-b, a)  # frac: rho is not an integer
    a1 = a // gcd(a, b)
    # per component a chain moves in: its step, and the quotient box's
    # lower edge along it, where the quotient key's v term lands on num's
    # lowest exponent (its highest, where the step is negative)
    edges = [(i, d, _component_bounds(num)[d < 0][i] - v[i]) for i, d in enumerate((dq, dp)) if d]
    chains: dict[ExpVec, list] = {}
    for (kq, kp), n in sorted(num._terms.items(), reverse=True):
        sq, sp = kq - u[0], kp - u[1]  # the quotient key this key gives
        m = sq // dq if dq else sp // dp
        chains.setdefault((sq - m * dq, sp - m * dp), []).append((m, n))
    # each run's first quotient key, its coefficient and its length; each
    # chain's first error's quotient key, and its coefficient or None
    runs, errors = [], {}
    for (bq, bp), chain in chains.items():
        # the chain's lowest position in the box
        floor = max(-(((bq, bp)[i] - e) // d) for i, d, e in edges)
        own, ms, found = 0, None, None
        for m, n in chain + [(floor - 1, 0)]:
            if ms is not None:
                gap = ms - max(m, floor - 1)
                power, x = 0, t  # a1 divides t power times, up to gap - 1
                while frac and power < gap - 1 and not x % a1:
                    power, x = power + 1, x // a1
                length = min(gap, power + 1) if frac else gap
                runs.append(((bq + ms * dq, bp + ms * dp), t, length))
                own += length
                if own > MAX_WORK:
                    break
                # -b times the run's last term, which a does not divide, or
                # the run leaves the box above this key
                if length < gap or m < floor - 1:
                    found = ms - length, (-b * (t * (-b) ** power // a**power)
                                          if length < gap else None)
                    break
                n += t * (-b) ** gap // a ** (gap - 1) if frac else a * t * rho**gap
                ms = None
            if n:
                t, residue = divmod(n, a)
                if m < floor or residue:
                    found = m, None if m < floor else n
                    break
                ms = m
        if found:
            errors[(bq + found[0] * dq, bp + found[0] * dp)] = found[1]
    if errors:
        # the heap meets the highest error first, once it has stored every
        # run term above it; negated, a run's keys ascend
        eq, ep = first = max(errors)
        above = sum(bisect_left(range(length), (-eq, -ep), key=lambda i: (i * dq - sq, i * dp - sp))
                    for (sq, sp), _, length in runs)
        _require_budget(above, "terms", _QUOTIENT, len(num._terms), len(den._terms))
        raise _inexact(num, den, errors[first])
    _require_budget(sum(r[2] for r in runs), "terms", _QUOTIENT, len(num._terms), len(den._terms))
    quot: dict[ExpVec, int] = {}
    for (sq, sp), t, length in runs:
        qs = range(sq, sq - length * dq, -dq) if dq else repeat(sq, length)
        ps = range(sp, sp - length * dp, -dp) if dp else repeat(sp, length)
        if frac:
            cs = accumulate(repeat(-b, length - 1), lambda x, y: x * y // a, initial=t)
        else:
            cs = accumulate(repeat(rho, length - 1), mul, initial=t)
        quot.update(zip(zip(qs, ps), cs))
    return LaurentPoly._raw(quot)


def _div_by_heap(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """``exact_div`` by a divisor of one term, or of three or more, and by
    any divisor in the tests, as the run route's reference: the
    remainder's exponents are kept in a max-heap with lazy deletion
    (Monagan and Pearce, "Sparse polynomial division using a heap", 2011).
    A key an update brings into the remainder is pushed, and a key whose
    coefficient cancels stays in the remainder, at zero, until it is popped
    and skipped.  Every key a step touches lies below the exponent it
    processes, so each key in the remainder has exactly one live heap
    entry, the heap order is exact, and the cost is O(steps * |den| * log)
    rather than O(steps * |remainder|).  The remainder is keyed by negated
    exponents, so a min-heap pops the highest first and holds the
    remainder's own keys: a step pops a key, removes that same tuple, and
    builds one new tuple, the quotient term's.  The quotient's term past
    ``MAX_WORK`` is refused before it is stored.
    """
    (num_lo, num_hi) = _component_bounds(num)
    (den_lo, den_hi) = _component_bounds(den)
    (lead_q, lead_p), lead_coeff = den.leading_term()
    # the box of quotient exponents, as bounds on the negated remainder key
    # (-q2, -p2) the quotient term (q2 - lead_q, p2 - lead_p) comes from
    nq_lo = den_hi[0] - num_hi[0] - lead_q
    nq_hi = den_lo[0] - num_lo[0] - lead_q
    np_lo = den_hi[1] - num_hi[1] - lead_p
    np_hi = den_lo[1] - num_lo[1] - lead_p
    # the tail as offsets from a processed key to the keys its quotient
    # term updates; the leading term cancels the processed key itself
    tail = [(lead_q - dq, lead_p - dp, dc) for (dq, dp), dc in den._terms.items()
            if (dq, dp) != (lead_q, lead_p)]
    rem = {(-q2, -p2): c for (q2, p2), c in num._terms.items()}
    heap = list(rem)
    heapify(heap)
    quot: dict[ExpVec, int] = {}
    left = MAX_WORK  # quotient terms still within the budget
    while heap:
        key = heappop(heap)
        coeff = rem.pop(key)
        if not coeff:
            continue
        nq, np = key
        if not (nq_lo <= nq <= nq_hi and np_lo <= np <= np_hi):
            raise _inexact(num, den)
        t_coeff, residue = divmod(coeff, lead_coeff)
        if residue:
            raise _inexact(num, den, coeff)
        if not left:
            _require_budget(len(quot) + 1, "terms", _QUOTIENT, len(num._terms), len(den._terms))
        left -= 1
        quot[(-nq - lead_q, -np - lead_p)] = t_coeff
        for oq, op, dc in tail:
            _sub_term(rem, heap, (nq + oq, np + op), t_coeff * dc)
    return LaurentPoly._raw(quot)


def _sub_term(rem: dict[ExpVec, int], heap: list[ExpVec], key: ExpVec, value: int):
    # rem[key] -= value, keys negated so the min-heap pops the highest
    # exponent first; only a key new to rem goes on the heap.  A key that
    # cancels stays in rem, at zero, until its heap entry pops it
    old = rem.get(key)
    if old is None:
        heappush(heap, key)
        rem[key] = -value
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

    The residue's exponents sit in the same lazily pruned heap of negated
    keys as in ``exact_div``, cancelled keys kept at zero until popped;
    every key a step touches lies below the one it processes, so the cost
    is O(steps * |root| * log) rather than O(steps * |residue|).  That is
    O(box^2) on an input of three terms, so the work is metered: each step
    adds the root's terms times the 64-bit words of the coefficient it
    matches, and past ``MAX_WORK`` ``BudgetExceededError`` is raised.  A
    plain int ``f`` is the constant it names; any other type that is not a
    ``LaurentPoly`` raises ``TypeError``.

    >>> sqrt_perfect_square(parse("q - 2 + q^(-1)"))
    LaurentPoly('q^(1/2) - q^(-1/2)')
    """
    f = _require_poly("f", f)
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
    hq, hp = lq // 2, lp // 2
    # the box of root exponents, as bounds on the negated residue key
    # (-q2, -p2) the root term (q2 - hq, p2 - hp) comes from
    nq_lo, nq_hi = -(dq // 2) - hq, -(vq // 2) - hq
    np_lo, np_hi = -(dp // 2) - hp, -(vp // 2) - hp
    root: dict[ExpVec, int] = {(hq, hp): root_lc}
    rem = {(-q2, -p2): c for (q2, p2), c in f._terms.items()}
    del rem[(-lq, -lp)]
    heap = list(rem)
    heapify(heap)
    work = 0
    while heap:
        key = heappop(heap)
        coeff = rem.pop(key)
        if not coeff:
            continue
        nq, np = key
        t_coeff, residue = divmod(coeff, 2 * root_lc)
        if residue or not (nq_lo <= nq <= nq_hi and np_lo <= np <= np_hi):
            raise NotAPerfectSquareError(f"{f} is not a perfect square on the half-integer grid")
        work += len(root) * (1 + coeff.bit_length() // 64)
        if work > MAX_WORK:
            _require_budget(work, "root terms times 64-bit coefficient words",
                            "the square root of {}", f)
        # residue update: rem -= (2*root + t) * t, with root not yet
        # containing t; the head, root's first entry, cancels the
        # processed key.  (tq, tp) is the negated exponent of t
        tq, tp = nq + hq, np + hp
        for (rq, rp), rc in islice(root.items(), 1, None):
            _sub_term(rem, heap, (tq - rq, tp - rp), 2 * t_coeff * rc)
        _sub_term(rem, heap, (2 * tq, 2 * tp), t_coeff * t_coeff)
        root[(-tq, -tp)] = t_coeff
    return LaurentPoly._raw(root)


RationalLike = Union[int, "Fraction"]


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    from fractions import Fraction

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
    ``digits`` significant digits.  The tests use it as a numeric oracle
    apart from the kernel's arithmetic; symbolic equality is the contract.
    ``digits`` is an ``int`` of at least 1, checked on every call (a bool
    raises ``TypeError``).  A plain int ``f`` is the constant it names; any
    other type that is not a ``LaurentPoly`` raises ``TypeError``.
    """
    from decimal import Decimal, localcontext
    from fractions import Fraction

    f = _require_poly("f", f)
    _require_int("digits", digits, 1)
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
    be ``LaurentPoly`` or int, and a power must be an ``int``; anything else
    raises ``TypeError``, ``bool`` included.  Negative powers raise
    ``NegativePowerOfZError``: the target grid has no inverse for ``z``.
    """
    if isinstance(z_coeffs, Mapping):
        items = list(z_coeffs.items())
    else:
        items = list(enumerate(z_coeffs))
    z = LaurentPoly.monomial(1, 1) + LaurentPoly.monomial(-1, -1)
    pairs = []
    for power, coeff in items:
        _require_int("power of z", power)
        if power < 0:
            raise NegativePowerOfZError(f"negative power of z: {_int_to_str(power)}")
        pairs.append((_require_poly("coefficient", coeff), z**power))
    return _dot(pairs)
