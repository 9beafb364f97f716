"""Scalar backend contract: parsing, canonical formatting, and the power and
ordering that the package takes from the ordinary operators."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcharlier.scalars import format_scalar, parse_scalar

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
nonzero_rationals = rationals.filter(lambda x: x != 0)


@pytest.mark.parametrize(
    ("base", "exponent", "expected"),
    [
        (Fraction(2, 3), 2, Fraction(4, 9)),
        (Fraction(7, 5), 0, Fraction(1)),
        (Fraction(-3), 0, Fraction(1)),
        (Fraction(9, 10), -1, Fraction(10, 9)),
    ],
)
def test_pow(base, exponent, expected):
    assert base ** exponent == expected


def test_pow_zero_base_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1
    with pytest.raises(ZeroDivisionError):
        0.0 ** -2


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        (Fraction(1, 3), Fraction(2, 6), 0),
        (Fraction(9, 10), Fraction(1), -1),
        (Fraction(0), Fraction(-1, 7), 1),
    ],
)
def test_cmp(a, b, expected):
    assert (a > b) - (a < b) == expected


def test_parse_and_format_round_trip():
    for text in ["3/4", "-7/2", "5", "0", "-12"]:
        assert format_scalar(parse_scalar(text)) == text
    # non-canonical input normalizes
    assert format_scalar(parse_scalar("4/8")) == "1/2"
    assert format_scalar(parse_scalar("-6/4")) == "-3/2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("one half")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_float_formatting_significant_digits():
    assert format_scalar(0.81) == "0.81000000000000005"


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(nonzero_rationals, nonzero_rationals)
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a


@given(rationals)
def test_format_round_trip_property(a):
    assert parse_scalar(format_scalar(a)) == a
