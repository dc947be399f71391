"""Text round-trips for rationals, surds, class lists and polar scalars."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from abelfm.lattice import AbelianContext, CohClass
from abelfm.literals import parse_class_coeffs, parse_polar, parse_rational, parse_surd
from abelfm.surd import Q3, PolarScalar

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    for bad in ("", "1/0", "1.5", "a", "1/-2", "1 /2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_rejects_every_zero_denominator():
    for bad in ("1/00", "-3/000", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(bad)
    assert parse_rational("0/10") == 0


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(
    coeffs=st.lists(rationals, min_size=2, max_size=4),
    q=rationals,
    x=st.tuples(rationals, rationals),
    polar=st.tuples(rationals.filter(lambda m: m > 0), rationals),
)
@example(coeffs=[F(1), F(-1, 2), F(0)], q=F(4), x=(F(0), F(1)), polar=(F(2), F(1, 2)))
@example(coeffs=[F(0), F(0)], q=F(-1, 3), x=(F(1, 2), F(-1, 3)), polar=(F(3, 2), F(-7, 3)))
@example(coeffs=[F(-4), F(9, 2)], q=F(0), x=(F(-1, 2), F(0)), polar=(F(1, 7), F(1)))
def test_printed_values_read_back(coeffs, q, x, polar):
    # each exact value prints itself in the grammar its parser reads
    e = CohClass(AbelianContext(len(coeffs) - 1, F(2)), coeffs)
    assert tuple(parse_class_coeffs(str(e))) == e.c
    assert parse_rational(str(q)) == q
    assert parse_surd(str(Q3(*x))) == Q3(*x)
    u = PolarScalar(*polar)
    assert parse_polar(str(u)) == (u.modulus, u.angle)


@pytest.mark.parametrize(
    "text,val",
    [
        ("2/3", Q3(Fraction(2, 3))),
        ("-1", Q3(-1)),
        ("1/2*sqrt3", Q3(0, Fraction(1, 2))),
        ("-sqrt3", Q3(0, -1)),
        ("1+2*sqrt3", Q3(1, 2)),
        ("1/2-1/3*sqrt3", Q3(Fraction(1, 2), Fraction(-1, 3))),
        ("-1/2+sqrt3", Q3(Fraction(-1, 2), 1)),
    ],
)
def test_parse_surd(text, val):
    assert parse_surd(text) == val
    assert parse_surd(str(val)) == val


def test_parse_surd_rejects():
    for bad in ("", "sqrt2", "1+*sqrt3", "1.2*sqrt3", "++1"):
        with pytest.raises(ValueError):
            parse_surd(bad)


def test_literals_strip_whitespace_at_the_ends_only():
    assert parse_rational(" 3/2\t") == Fraction(3, 2)
    assert parse_surd(" 1+2*sqrt3\n") == Q3(1, 2)
    assert parse_surd("\t-sqrt3 ") == Q3(0, -1)
    for bad in ("1 2", "1 +2*sqrt3", "1+ 2*sqrt3", "1+2 *sqrt3", "1+2* sqrt3", "1 + sqrt3",
                "1/2 - sqrt3", "- sqrt3", "1\t+2*sqrt3", "3 *sqrt3"):
        pattern = f"^bad (rational|surd) literal {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=pattern):
            parse_surd(bad)


def test_class_coeffs_roundtrip():
    coeffs = (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert tuple(parse_class_coeffs("1,-1/2,0")) == coeffs
    with pytest.raises(ValueError):
        parse_class_coeffs("1,,2")
    with pytest.raises(ValueError):
        parse_class_coeffs("")


def test_parse_polar():
    assert parse_polar("3/2@1/3") == (Fraction(3, 2), Fraction(1, 3))
    assert parse_polar("2@-1/2") == (Fraction(2), Fraction(-1, 2))
    for bad in ("2", "@1/2", "2@", "2@@1", "x@1"):
        with pytest.raises(ValueError):
            parse_polar(bad)
