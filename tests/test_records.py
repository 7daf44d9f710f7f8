"""The value records: immutable named tuples, each equal to the tuple of
its fields, with the reprs, field names and hashes the CLI and the tests
rely on."""

import pytest

from pqcalc.checks import Check, Counterexample
from pqcalc.laurent import parse
from pqcalc.qnumbers import PQPair
from pqcalc.skein import KnotCoefficients, SkeinCoefficients

RECORDS = [
    (
        PQPair(parse("q^(1/2)"), parse("-q^(-1/2)")),
        ("P", "Q"),
        "PQPair(P=LaurentPoly('q^(1/2)'), Q=LaurentPoly('-q^(-1/2)'))",
    ),
    (
        Counterexample(6, parse("q"), parse("q + 1")),
        ("n", "got", "want"),
        "Counterexample(n=6, got=LaurentPoly('q'), want=LaurentPoly('q + 1'))",
    ),
    (
        SkeinCoefficients(parse("q^(1/2) - q^(-1/2)"), parse("1")),
        ("l1", "l2"),
        "SkeinCoefficients(l1=LaurentPoly('q^(1/2) - q^(-1/2)'), l2=LaurentPoly('1'))",
    ),
    (
        KnotCoefficients(parse("q + q^(-1)"), parse("-1")),
        ("k1", "k2"),
        "KnotCoefficients(k1=LaurentPoly('q + q^(-1)'), k2=LaurentPoly('-1'))",
    ),
    (
        Check("homfly-monomial-factor", False, "first counterexample at n=2"),
        ("name", "passed", "detail"),
        "Check(name='homfly-monomial-factor', passed=False, "
        "detail='first counterexample at n=2')",
    ),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_repr_and_field_names(record, names, text):
    assert repr(record) == text
    assert record._fields == names
    assert tuple(getattr(record, name) for name in names) == tuple(record)


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_hash_and_equality_are_the_tuples(record, names, text):
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)
    assert record == type(record)(*record)


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, names, text):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_check_detail_defaults_to_empty():
    assert Check("recurrence-closure[jones-bosonic]", True).detail == ""
    assert Check("x", True)._asdict() == {"name": "x", "passed": True, "detail": ""}

