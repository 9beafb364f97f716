"""Exact positive-root isolation: counts, correct rounding, fast failure."""

import math
import time
from fractions import Fraction

import pytest

from qcharlier import LatticePoly, QContext, build
from qcharlier.zeros import RootCountError, find_positive_roots

EXACT = {1: ("1/2",), 2: ("1/2", "3/5")}


def build_float(parts, alphas=(0.5, 0.6), q=0.81):
    # low degrees only; float-arithmetic construction is accurate here
    ctx = QContext.from_q_float(q, list(alphas)[: len(parts)])
    return build(parts, ctx, method="recurrence").poly.coeffs


def build_exact(parts):
    ctx = QContext.from_t("9/10", list(EXACT[len(parts)]))
    return build(parts, ctx, method="linear_system").poly.coeffs


def build_at_float_q(parts, q, alphas, method):
    # the exact polynomial for float inputs, as `zeros --q` builds it
    ctx = QContext(
        t=Fraction(math.sqrt(q)), q=Fraction(q),
        alphas=tuple(Fraction(a) for a in alphas), exact=True,
    )
    return build(parts, ctx, method=method).poly


def from_roots(roots):
    poly = LatticePoly.monomial([Fraction(1)])
    for r in roots:
        poly = poly * LatticePoly.monomial([-Fraction(r), Fraction(1)])
    return poly


def assert_correctly_rounded(poly, roots):
    # the exact polynomial changes sign between the midpoints to each root's
    # neighbouring doubles, so the root is the double nearest a true root
    for r in roots:
        x = Fraction(r)
        lo = (x + Fraction(math.nextafter(r, 0))) / 2
        hi = (x + Fraction(math.nextafter(r, math.inf))) / 2
        assert poly.evaluate(lo) * poly.evaluate(hi) < 0, r


def test_zero_index_has_no_roots():
    assert find_positive_roots([1.0], 0) == []


def test_unit_index_root_is_alpha_q():
    roots = find_positive_roots(list(build_float((1,), alphas=(0.5,))), 1)
    assert len(roots) == 1
    assert abs(roots[0] - 0.5 * 0.81) < 1e-10


def test_two_weight_roots_straddle_the_unit_roots():
    # C_(1,1) is negative at both alpha_i q, so its two roots bracket them
    roots = find_positive_roots(list(build_float((1, 1))), 2)
    assert len(roots) == 2
    lo, hi = 0.5 * 0.81, 0.6 * 0.81
    assert roots[0] < lo < hi < roots[1]


def test_roots_match_exact_quadratic():
    coeffs = build_float((1, 1))
    c0, c1, _ = coeffs
    disc = math.sqrt(c1 * c1 - 4 * c0)
    expected = sorted([(-c1 - disc) / 2, (-c1 + disc) / 2])
    roots = find_positive_roots(list(coeffs), 2)
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-9


def test_counts_positivity_and_gaps_at_scale():
    for parts in [(3, 2), (4, 4), (2, 5), (6, 6)]:
        roots = find_positive_roots(build_exact(parts), sum(parts))
        assert len(roots) == sum(parts)
        assert roots[0] > 0
        assert all(b - a > 1e-8 for a, b in zip(roots, roots[1:]))


def test_near_origin_root_is_resolved():
    # the smallest root of the (6,6) polynomial sits around 3e-19, far below
    # the next one; exact bisection resolves it to full relative precision
    coeffs = build_exact((6, 6))
    roots = find_positive_roots(coeffs, 12)
    assert 1e-20 < roots[0] < 1e-17
    assert roots[1] > 0.9
    assert_correctly_rounded(LatticePoly.monomial(coeffs), roots[:1])


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        find_positive_roots([1.0, 1.0], 3)


def test_no_positive_roots_detected():
    # (X + 1)(X + 2) has no positive roots at all
    with pytest.raises(RootCountError):
        find_positive_roots([2.0, 3.0, 1.0], 2)


@pytest.mark.parametrize(
    "parts, alphas",
    [((6, 6), (0.35, 0.55)), ((12,), (0.35,))],
    ids=["n=6,6", "n=12"],
)
def test_roots_bracket_exact_polynomial_sign_change(parts, alphas):
    poly = build_at_float_q(parts, 0.74, alphas, "linear_system")
    roots = find_positive_roots(poly.coeffs, sum(parts))
    assert len(roots) == sum(parts)
    for root in roots:
        left = poly.evaluate(Fraction(math.nextafter(root, 0)))
        right = poly.evaluate(Fraction(math.nextafter(root, math.inf)))
        assert left * right < 0, root


def test_sixteen_roots_correctly_rounded():
    # |n| = 16 at q = 0.74: roots from about 1e-38 to 3.8, and coefficients
    # of about 10^4 bits
    poly = build_at_float_q((8, 8), 0.74, (0.35, 0.55), "rodrigues")
    roots = find_positive_roots(poly.coeffs, 16)
    assert len(roots) == 16
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert_correctly_rounded(poly, roots)


def test_dyadic_and_split_point_roots_are_exact():
    roots = [Fraction(1, 2), 1, 2, 3, 4, 8]
    assert find_positive_roots(from_roots(roots).coeffs, 6) == [float(r) for r in roots]


def test_close_roots_are_separated():
    close = 1 + Fraction(1, 2 ** 40)
    assert find_positive_roots(from_roots([1, close]).coeffs, 2) == [1.0, float(close)]


def test_complex_pair_fails_fast():
    # X^2 - X + 1 has two sign variations but its roots are exp(+-i pi/3)
    start = time.perf_counter()
    with pytest.raises(RootCountError):
        find_positive_roots([1, -1, 1], 2)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("roots", [[1, 1], [Fraction(1, 3), Fraction(1, 3)], [2, 5, 5]])
def test_repeated_root_rejected(roots):
    with pytest.raises(RootCountError, match="repeated root"):
        find_positive_roots(from_roots(roots).coeffs, len(roots))
