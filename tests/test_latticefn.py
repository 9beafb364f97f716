"""Operator algebra: shifts, covariant differences, weight-conjugated factors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_at, nabla_power_expansion, rodrigues_elementary_expanded, times_x
from qcharlier import FALLING, LatticePoly, QContext
from qcharlier.latticefn import (
    WeightedLatticeFn,
    delta_cov,
    nabla,
    raising_apply,
    rodrigues_elementary,
    shift_poly,
)
from qcharlier.qkernels import from_falling_basis, to_falling_basis, x_of

coeff_lists = st.lists(
    st.fractions(min_value=Fraction(-12), max_value=Fraction(12), max_denominator=10),
    min_size=1,
    max_size=11,
)
bases = st.fractions(min_value=Fraction(1, 5), max_value=Fraction(4), max_denominator=8).filter(
    lambda c: c != 0
)
falling_polys = st.lists(
    st.fractions(min_value=Fraction(-12), max_value=Fraction(12), max_denominator=10),
    min_size=0,
    max_size=13,
).map(LatticePoly.falling)
#: t on both sides of 1
t_values = st.one_of(
    st.fractions(min_value=Fraction(1, 5), max_value=Fraction(19, 20), max_denominator=20),
    st.fractions(min_value=Fraction(21, 20), max_value=Fraction(5, 2), max_denominator=20),
)


def wlf(base, coeffs):
    return WeightedLatticeFn(base, LatticePoly.monomial(coeffs))


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_shift_poly(ctx2, q2):
    # the forward shift acts on falling polynomials, the backward one on
    # monomial ones
    x = LatticePoly.monomial((0, 1))
    forward = shift_poly(to_falling_basis(x, ctx2), 1, ctx2)
    assert from_falling_basis(forward, ctx2).coeffs == (1, q2)
    assert shift_poly(x, -1, ctx2).coeffs == (-1 / q2, 1 / q2)
    const = LatticePoly.monomial((Fraction(3, 7),))
    assert shift_poly(to_falling_basis(const, ctx2), 1, ctx2) == to_falling_basis(const, ctx2)
    assert shift_poly(const, -1, ctx2) == const


@settings(max_examples=50)
@given(coeff_lists)
def test_shift_round_trip(coeffs):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    forward = from_falling_basis(shift_poly(to_falling_basis(poly, ctx), 1, ctx), ctx)
    assert shift_poly(forward, -1, ctx) == poly


@settings(max_examples=40)
@given(falling_polys, t_values, st.integers(min_value=0, max_value=4))
def test_falling_rules_match_monomial_composition(fall, t, power):
    # each O(deg) falling-basis rule equals the monomial definition of its
    # operator after conversion: the shift P(qX+1), the covariant difference
    # t (P(qX+1) - P(X)) / ((q-1)X + 1), and the raising action
    # q^(power+1/2) [alpha P - X P((X-1)/q)]
    ctx = QContext.from_t(t, ["3/5"])
    q, alpha = ctx.q, ctx.alphas[0]
    poly = from_falling_basis(fall, ctx)
    composed = poly.compose_affine(q, 1)
    assert from_falling_basis(shift_poly(fall, 1, ctx), ctx) == composed
    linear = LatticePoly.monomial((1, q - 1))
    assert from_falling_basis(delta_cov(fall, ctx), ctx) * linear == (composed - poly).scale(t)
    back = poly.compose_affine(1 / q, -1 / q).times_x()
    expected = (poly.scale(alpha) - back).scale(q ** power * t)
    assert from_falling_basis(raising_apply(fall, alpha, power, ctx), ctx) == expected


def test_operators_refuse_the_other_basis(ctx2):
    x = LatticePoly.monomial((0, 1))
    for call in (
        lambda: shift_poly(x, 1, ctx2),
        lambda: shift_poly(to_falling_basis(x, ctx2), -1, ctx2),
        lambda: delta_cov(x, ctx2),
        lambda: raising_apply(x, ctx2.alphas[0], 0, ctx2),
    ):
        with pytest.raises(ValueError):
            call()


def test_class_closed_under_x_and_geometric_multiplication(ctx2):
    # remaining closure operations: multiply by x(s) and by d^s
    f = wlf(Fraction(3, 2), (2, 1))
    d = Fraction(5, 7)
    for s in range(0, 7):
        assert eval_at(times_x(f), s, ctx2) == x_of(s, ctx2) * eval_at(f, s, ctx2)
        assert eval_at(f.times_geometric(d), s, ctx2) == d ** s * eval_at(f, s, ctx2)


# ---------------------------------------------------------------------------
# nabla
# ---------------------------------------------------------------------------

def test_nabla_on_reciprocal_factorial(ctx2, q2):
    f = wlf(Fraction(1), (1,))
    out = nabla(f, ctx2)
    assert out.base == 1 / q2
    assert out.poly.coeffs == (ctx2.t, -ctx2.t)


def test_nabla_on_geometric(ctx2, q2):
    # c^s / [s]! maps to (c/q)^s t (1 - X/c) / [s]!
    c = Fraction(5, 4)
    f = wlf(c, (1,))
    out = nabla(f, ctx2)
    assert out.base == c / q2
    assert out.poly.coeffs == (ctx2.t, -ctx2.t / c)


@settings(max_examples=40)
@given(bases, coeff_lists)
def test_nabla_pointwise(base, coeffs):
    # symbolic rule == direct difference quotient at integer lattice points
    ctx = QContext.from_t("9/10", ["1/2"])
    f = wlf(base, coeffs)
    out = nabla(f, ctx)
    for s in range(0, 7):
        direct = (eval_at(f, s, ctx) - eval_at(f, s - 1, ctx)) / ctx.q ** s * ctx.t
        assert eval_at(out, s, ctx) == direct


@settings(max_examples=30)
@given(bases, coeff_lists)
def test_nabla_commutes_with_forward_shift_pointwise(base, coeffs):
    # evaluate nabla(f) at s+1 two ways: symbolically via the rules, and
    # directly from lattice values of f
    ctx = QContext.from_t("9/10", ["1/2"])
    f = wlf(base, coeffs)
    out = nabla(f, ctx)
    for s in range(0, 8):
        direct = (eval_at(f, s + 1, ctx) - eval_at(f, s, ctx)) / ctx.q ** (s + 1) * ctx.t
        assert eval_at(out, s + 1, ctx) == direct


# ---------------------------------------------------------------------------
# covariant forward difference on polynomials
# ---------------------------------------------------------------------------

def delta_cov_monomial(poly, ctx):
    return from_falling_basis(delta_cov(to_falling_basis(poly, ctx), ctx), ctx)


def test_delta_cov_examples(ctx2):
    x = LatticePoly.monomial((0, 1))
    assert delta_cov_monomial(x, ctx2).coeffs == (ctx2.t,)
    assert delta_cov_monomial(LatticePoly.monomial((Fraction(9),)), ctx2).is_zero
    x2 = LatticePoly.monomial((0, 0, 1))
    out = delta_cov_monomial(x2, ctx2)
    assert out.degree == 1
    assert out.leading == ctx2.t * x_of(2, ctx2)


@settings(max_examples=60)
@given(coeff_lists)
def test_delta_cov_degree_and_leading(coeffs):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    out = delta_cov_monomial(poly, ctx)  # exact division; raises if a remainder appears
    if poly.degree < 1:
        assert out.is_zero
    else:
        assert out.degree == poly.degree - 1
        assert out.leading == ctx.t * x_of(poly.degree, ctx) * poly.leading


@settings(max_examples=40)
@given(coeff_lists)
def test_delta_cov_pointwise(coeffs):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    out = delta_cov_monomial(poly, ctx)
    for s in range(0, 7):
        lhs = out.evaluate(x_of(s, ctx))
        rhs = (poly.evaluate(x_of(s + 1, ctx)) - poly.evaluate(x_of(s, ctx))) / ctx.q ** s * ctx.t
        assert lhs == rhs


# ---------------------------------------------------------------------------
# weight-conjugated factors
# ---------------------------------------------------------------------------

def test_rodrigues_elementary_identity_at_zero(ctx2):
    f = wlf(Fraction(1), (1, 2))
    assert rodrigues_elementary(f, ctx2.alphas[0], 0, ctx2) == f


@pytest.mark.parametrize("order", [2.0, 1.5])
def test_rodrigues_elementary_refuses_a_float_order(ctx2, order):
    f = wlf(Fraction(1), (1, 2))
    with pytest.raises(ValueError, match=f"factor order {order} is not an integer"):
        rodrigues_elementary(f, ctx2.alphas[0], order, ctx2)


def test_rodrigues_elementary_single_step(ctx2, q2):
    a = ctx2.alphas[0]
    f = wlf(Fraction(1), (1,))
    out = rodrigues_elementary(f, a, 1, ctx2)
    assert out.base == 1
    assert out.poly.coeffs == (ctx2.t, -ctx2.t / (a * q2))


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_rodrigues_factors_commute(n1, n2):
    ctx = QContext.from_t("9/10", ["1/2", "3/5"])
    f = wlf(Fraction(1), (1,))
    one_way = rodrigues_elementary(
        rodrigues_elementary(f, ctx.alphas[0], n1, ctx), ctx.alphas[1], n2, ctx
    )
    other = rodrigues_elementary(
        rodrigues_elementary(f, ctx.alphas[1], n2, ctx), ctx.alphas[0], n1, ctx
    )
    assert one_way == other


def test_rodrigues_base_preserved(ctx2):
    f = wlf(Fraction(7, 3), (2, 1))
    for n in range(4):
        assert rodrigues_elementary(f, ctx2.alphas[1], n, ctx2).base == f.base


@settings(max_examples=25)
@given(bases, coeff_lists, st.integers(min_value=0, max_value=4))
def test_power_expansion_matches_iteration(base, coeffs, m):
    # the closed binomial expansion of the m-fold difference is an
    # independent implementation; the two must agree exactly
    ctx = QContext.from_t("9/10", ["1/2"])
    f = wlf(base, coeffs)
    iterated = f
    for _ in range(m):
        iterated = nabla(iterated, ctx)
    assert nabla_power_expansion(f, m, ctx) == iterated


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=4))
def test_rodrigues_expanded_path_agrees(n):
    ctx = QContext.from_t("9/10", ["1/2", "3/5"])
    f = wlf(Fraction(1), (1,))
    assert rodrigues_elementary_expanded(f, ctx.alphas[0], n, ctx) == rodrigues_elementary(
        f, ctx.alphas[0], n, ctx
    )


# ---------------------------------------------------------------------------
# raising action
# ---------------------------------------------------------------------------

def test_raising_apply_on_constants(ctx2):
    one = to_falling_basis(LatticePoly.one(), ctx2)
    a = ctx2.alphas[0]
    out = raising_apply(one, a, 0, ctx2)
    assert out.basis == FALLING
    # [s]^(1) = X, so the falling and monomial coefficients agree here
    assert from_falling_basis(out, ctx2).coeffs == (ctx2.t * a, -ctx2.t)
    zero_alpha = raising_apply(one, Fraction(0), 0, ctx2)
    assert from_falling_basis(zero_alpha, ctx2).coeffs == (0, -ctx2.t)


@settings(max_examples=40)
@given(coeff_lists, st.integers(min_value=0, max_value=5))
def test_raising_apply_degree_and_leading(coeffs, power):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    if poly.is_zero:
        return
    out = from_falling_basis(
        raising_apply(to_falling_basis(poly, ctx), ctx.alphas[0], power, ctx), ctx
    )
    assert out.degree == poly.degree + 1
    # the X * P((X-1)/q) term supplies the new top term with a q^-deg factor
    assert out.leading == -(ctx.q ** (power - poly.degree)) * ctx.t * poly.leading
