"""Scalar backends: exact rationals and IEEE doubles behind one small contract.

The exact backend stores every number as a `fractions.Fraction` (arbitrary
precision, canonical lowest terms, positive denominator).  The approximate
backend is the plain Python float.  Higher modules do arithmetic, powers and
comparisons through the ordinary operators, so both backends are
interchangeable wherever an operation makes sense for each; values are
immutable and thread-safe.  This module only parses rational literals and
formats scalars canonically for output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/r" (or bare integer "p") string into an exact rational."""
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid rational literal: {text!r}") from exc
    return value


def format_scalar(value: Scalar) -> str:
    """Canonical string form: "p/r" in lowest terms ("/1" omitted) with every
    digit, 17 significant digits for floats."""
    if isinstance(value, Fraction):
        parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
        return "/".join(map(_digits, parts))
    return format(float(value), ".17g")


def _digits(n: int) -> str:
    """str(n), also past `sys.get_int_max_str_digits()`, which stays as it is."""
    try:
        return str(n)
    except ValueError:
        import decimal  # only for such integers, so not imported with the package

        return str(decimal.Decimal(n))
