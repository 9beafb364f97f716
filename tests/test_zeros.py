"""Root extraction on the float backend."""

import math
from fractions import Fraction

import pytest

from qcharlier import QContext, build
from qcharlier.zeros import RootCountError, find_positive_roots, root_upper_bound

EXACT = {1: ("1/2",), 2: ("1/2", "3/5")}


def build_float(parts, alphas=(0.5, 0.6), q=0.81):
    # low degrees only; float-arithmetic construction is accurate here
    ctx = QContext.from_q_float(q, list(alphas)[: len(parts)])
    return build(parts, ctx, method="recurrence").poly.coeffs


def build_exact_floated(parts):
    ctx = QContext.from_t("9/10", list(EXACT[len(parts)]))
    return [float(c) for c in build(parts, ctx, method="linear_system").poly.coeffs]


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
        roots = find_positive_roots(build_exact_floated(parts), sum(parts))
        assert len(roots) == sum(parts)
        assert roots[0] > 0
        assert all(b - a > 1e-8 for a, b in zip(roots, roots[1:]))


def test_near_origin_root_is_resolved():
    # the smallest root of the (6,6) polynomial sits around 3e-19; the
    # geometric tail of the scan grid must bracket it
    roots = find_positive_roots(build_exact_floated((6, 6)), 12)
    assert 1e-20 < roots[0] < 1e-17
    assert roots[1] > 0.9


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        find_positive_roots([1.0, 1.0], 3)


def test_no_positive_roots_detected():
    # (X + 1)(X + 2) has no positive roots at all
    with pytest.raises(RootCountError):
        find_positive_roots([2.0, 3.0, 1.0], 2)


def test_upper_bound_contains_roots():
    coeffs = build_exact_floated((3, 3))
    bound = root_upper_bound(coeffs)
    roots = find_positive_roots(coeffs, 6)
    assert all(r < bound for r in roots)


@pytest.mark.xfail(
    strict=True,
    reason="roots are bisected on floated coefficients; against the exact "
    "polynomial the larger ones are off by about 1e-5",
)
def test_roots_bracket_exact_polynomial_sign_change():
    q = 0.74
    ctx = QContext(
        t=Fraction(math.sqrt(q)), q=Fraction(q),
        alphas=(Fraction(0.35), Fraction(0.55)), exact=True,
    )
    poly = build((6, 6), ctx, method="linear_system").poly
    roots = find_positive_roots([float(c) for c in poly.coeffs], 12)
    eps = Fraction(1, 10 ** 8)
    for root in roots:
        x = Fraction(root)
        assert poly.evaluate(x - eps) * poly.evaluate(x + eps) < 0, root
