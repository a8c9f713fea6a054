"""The bound-check record: its fields, immutability, equality and pass rule."""

import math

import pytest

from divrel import BoundCheckRecord, make_record

FIELDS = ("bound_id", "n", "lhs", "log_rhs", "margin", "passed", "params")


def test_record_fields_in_order_with_default_params():
    values = ("corollary1", 6, 4, 2.5, 1.1, True, (("e", 1),))
    rec = BoundCheckRecord(*values)
    assert tuple(getattr(rec, name) for name in FIELDS) == values
    assert BoundCheckRecord(*values[:-1]).params == ()
    assert BoundCheckRecord(**dict(zip(FIELDS, values))) == rec


def test_record_is_immutable():
    rec = make_record("corollary1", 6, 4, 2.5)
    for name in FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    assert rec == make_record("corollary1", 6, 4, 2.5)


def test_equal_records_are_equal_and_hash_alike():
    a = make_record("eq4.2", 30, 3, 2.0, e=1, m=31)
    b = make_record("eq4.2", 30, 3, 2.0, m=31, e=1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_record("eq4.2", 30, 3, 2.0, e=1, m=32)
    assert a != make_record("eq4.2", 31, 3, 2.0, e=1, m=31)


def test_make_record_sorts_its_params():
    rec = make_record("lemma6", 12, 3, 1.0, z=1, map="sum", a=2, k=4)
    assert rec.params == (("a", 2), ("k", 4), ("map", "sum"), ("z", 1))
    assert make_record("lemma6", 12, 3, 1.0).params == ()


def test_asserted_follows_the_bound_registry():
    assert make_record("corollary1", 6, 4, 2.5).asserted
    assert make_record("thm1a", 6, 2, 1.0, j=2, k=1).asserted
    assert not make_record("lemma6", 6, 2, 1.0).asserted
    assert not make_record("corollary2", 6, 2, 1.0, j=2, k=1).asserted


def test_margin_and_pass_rule():
    # asserted: margin = log_rhs - log(lhs), passing down to -1e-9
    rec = make_record("corollary1", 6, 4, math.log(4) - 5e-10)
    assert rec.margin == pytest.approx(-5e-10) and rec.passed
    assert not make_record("corollary1", 6, 4, math.log(4) - 2e-9).passed
    # lhs = 0 has an infinite margin, whatever the right-hand side
    rec = make_record("corollary1", 1, 0, -math.inf)
    assert rec.margin == math.inf and rec.passed
    # ratio-only: recorded unless a positive lhs meets a zero right-hand side
    assert make_record("lemma6", 6, 3, -50.0).passed
    rec = make_record("lemma6", 6, 3, -math.inf)
    assert rec.margin == -math.inf and not rec.passed
    assert make_record("lemma6", 6, 0, -math.inf).passed
