"""Exact polynomials as canonical pairs.

Every exact kernel returns integer numerators over a positive denominator
that shares no factor with them, with no zero top coefficient, and its
result equals the computation one `Fraction` per coefficient in
tests/oracles.py.  The values of q include exact shadows of binary floats,
whose denominators are powers of two up to 2^60 or so; the bound on the
numerators is the canonical form itself, since a reduced pair is as short
as the value allows."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    combine_by_fractions,
    compose_affine_horner,
    delta_cov_by_fractions,
    falling_mul_by_scalars,
    from_falling_by_table,
    nabla_by_fractions,
    pairing_by_fractions,
    product_by_fractions,
    raising_by_fractions,
    scale_by_fractions,
    shift_forward_by_fractions,
    times_x_by_fractions,
    to_falling_by_table,
)
from qcharlier import LatticePoly, QContext
from qcharlier.constructors import moment_pairing
from qcharlier.latticefn import WeightedLatticeFn, delta_cov, nabla, raising_apply, shift_poly
from qcharlier.qkernels import (
    falling_mul_falling,
    falling_recurrence,
    from_falling_basis,
    memo_scope,
    to_falling_basis,
)

TWO_DIGIT_PRIMES = [p for p in range(11, 100) if all(p % d for d in range(2, p))]
#: q = u/w below and above 1, and the exact shadows of binary q
QS = st.one_of(
    st.builds(Fraction, st.sampled_from(TWO_DIGIT_PRIMES), st.sampled_from(TWO_DIGIT_PRIMES)),
    st.floats(0.05, 3.0).map(Fraction),
).filter(lambda q: q != 1)
RATIONALS = st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=30)
#: degrees up to 11, zeros inside and at the ends, and long integers
COEFFS = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40),
        st.integers(-10 ** 30, 10 ** 30).map(Fraction),
    ),
    max_size=12,
)


def _context(q):
    # t*t need not equal q, as on the exact shadow of a float context
    memo_scope.cache_clear()
    return QContext(t=Fraction(math.sqrt(q)), q=q, alphas=(Fraction(1, 2), Fraction(7, 3)), exact=True)


def assert_canonical(poly):
    assert all(type(c) is int for c in poly.numerators)
    assert type(poly.denominator) is int and poly.denominator > 0
    assert math.gcd(poly.denominator, *poly.numerators) == 1
    assert not poly.numerators or poly.numerators[-1] != 0


@settings(max_examples=80, deadline=None)
@given(QS, COEFFS, COEFFS, RATIONALS)
def test_polynomial_arithmetic_is_canonical(q, a, b, c):
    p, r = LatticePoly.monomial(a), LatticePoly.monomial(b)
    assert_canonical(p)
    cases = [
        (p + r, combine_by_fractions(p, r, 1)),
        (p - r, combine_by_fractions(p, r, -1)),
        (p.scale(c), scale_by_fractions(p, c)),
        (p.scale(q), scale_by_fractions(p, q)),
        (p.times_x(), times_x_by_fractions(p)),
        (p * r, product_by_fractions(p, r)),
        (p.compose_affine(c, q), compose_affine_horner(p, c, q)),
        (p.compose_affine(1 / q, -1 / q), compose_affine_horner(p, 1 / q, -1 / q)),
    ]
    for got, expected in cases:
        assert_canonical(got)
        assert got == expected
        assert got.coeffs == expected.coeffs


@settings(max_examples=60, deadline=None)
@given(QS, COEFFS, COEFFS, RATIONALS, st.integers(-3, 3))
def test_operators_are_canonical(q, a, b, c, power):
    ctx = _context(q)
    mono, fall, other = LatticePoly.monomial(a), LatticePoly.falling(a), LatticePoly.falling(b)
    base = abs(c) or Fraction(1)
    stepped = nabla(WeightedLatticeFn(base, mono), ctx)
    expected = nabla_by_fractions(WeightedLatticeFn(base, mono), ctx)
    assert stepped.base == expected.base
    alpha = ctx.alphas[1]
    cases = [
        (shift_poly(fall, 1, ctx), shift_forward_by_fractions(fall, ctx)),
        (shift_poly(mono, -1, ctx), compose_affine_horner(mono, 1 / q, -1 / q)),
        (stepped.poly, expected.poly),
        (delta_cov(fall, ctx), delta_cov_by_fractions(fall, ctx)),
        (raising_apply(fall, alpha, power, ctx), raising_by_fractions(fall, alpha, power, ctx)),
        (falling_mul_falling(fall, ctx), falling_mul_by_scalars(fall, ctx)),
        (
            falling_recurrence(fall, [(c, other), (alpha, fall)], ctx),
            combine_by_fractions(
                combine_by_fractions(falling_mul_by_scalars(fall, ctx), other.scale(c), -1),
                fall.scale(alpha),
                -1,
            ),
        ),
    ]
    for got, expected in cases:
        assert_canonical(got)
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(QS, COEFFS, st.integers(0, 4), st.integers(0, 1))
def test_conversions_and_the_pairing_are_canonical(q, a, k, i):
    ctx = _context(q)
    mono, fall = LatticePoly.monomial(a), LatticePoly.falling(a)
    cases = [
        (to_falling_basis(mono, ctx), to_falling_by_table(mono, ctx)),
        (from_falling_basis(fall, ctx), from_falling_by_table(fall, ctx)),
    ]
    for got, expected in cases:
        assert_canonical(got)
        assert got == expected
    assert moment_pairing(mono, k, i, ctx) == pairing_by_fractions(mono, k, i, ctx)
    assert moment_pairing(fall, k, i, ctx) == pairing_by_fractions(fall, k, i, ctx)


def test_float_polynomials_keep_their_tuple():
    # a float top coefficient makes a float polynomial without a look at the
    # others, so float kernels pay no per-coefficient type scan
    class Untouchable:
        def __getattribute__(self, name):
            raise AssertionError(f"coefficient read: {name}")

    below = Untouchable()
    assert LatticePoly.monomial([below, 2.0]).coeffs[0] is below
    poly = LatticePoly.monomial([0.5, Fraction(1, 3), 2.0])
    assert poly.numerators is None and poly.denominator is None
    assert poly.coeffs == (0.5, Fraction(1, 3), 2.0)
    # a float below a rational top coefficient makes a float polynomial too
    assert LatticePoly.monomial([0.25, Fraction(1)]).numerators is None
    # a rational and a float operand meet on the coefficients, as floats
    total = LatticePoly.monomial([Fraction(1, 2)]) + LatticePoly.monomial([0.25])
    assert total.coeffs == (0.75,) and type(total.coeffs[0]) is float
    assert LatticePoly.monomial([Fraction(1, 2), 0]) == LatticePoly.monomial([0.5])
    assert hash(LatticePoly.monomial([Fraction(1, 2)])) == hash(LatticePoly.monomial([0.5]))


def test_pair_reduces_and_trims():
    poly = LatticePoly.pair("monomial_x", [6, -4, 0], -10)
    assert (poly.numerators, poly.denominator) == ((-3, 2), 5)
    assert poly.coeffs == (Fraction(-3, 5), Fraction(2, 5))
    zero = LatticePoly.pair("monomial_x", [0, 0], 7)
    assert (zero.numerators, zero.denominator) == ((), 1)
    assert zero == LatticePoly.zero() and zero.is_zero
