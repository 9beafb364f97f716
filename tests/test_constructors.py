"""Construction routes: examples, cross-method agreement, and the moments."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expanded_pairing, normalized_moment, weight_masses, weight_partial_sums
from qcharlier import (
    QContext,
    build,
    build_explicit_r2,
    build_linear_system,
    build_recurrence,
    build_rodrigues,
    rodrigues_constant,
)
from qcharlier.cli import _exact_shadow
from qcharlier.constructors import moment_pairing
from qcharlier.qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    falling_mul_falling,
    memo_scope,
    q_falling_number,
    to_falling_basis,
    x_of,
)


def test_rodrigues_constant_examples(ctx2, q2):
    assert rodrigues_constant((0, 0), ctx2) == 1
    assert rodrigues_constant((1, 0), ctx2) == -ctx2.alphas[0] * ctx2.t
    assert rodrigues_constant((0, 1), ctx2) == -ctx2.alphas[1] * ctx2.t
    a1, a2 = ctx2.alphas
    assert rodrigues_constant((1, 1), ctx2) == a1 * a2 * q2 ** 2


def test_unit_index_closed_form(ctx2, q2):
    for method in ("rodrigues", "linear_system", "recurrence", "explicit_r2"):
        poly = build((1, 0), ctx2, method=method).poly
        assert poly.coeffs == (-ctx2.alphas[0] * q2, 1)
        poly = build((0, 1), ctx2, method=method).poly
        assert poly.coeffs == (-ctx2.alphas[1] * q2, 1)


def test_zero_index_is_one(ctx2):
    for method in ("rodrigues", "linear_system", "recurrence", "explicit_r2"):
        assert build((0, 0), ctx2, method=method).poly.coeffs == (1,)


def test_explicit_requires_r2(ctx3):
    with pytest.raises(ValueError):
        build_explicit_r2(1, 1, ctx3)


def test_cross_method_agreement_r2(ctx2):
    for parts in itertools.product(range(4), repeat=2):
        reference = build_linear_system(parts, ctx2).poly
        assert build_rodrigues(parts, ctx2).poly == reference
        assert build_explicit_r2(parts[0], parts[1], ctx2).poly == reference
        assert build_recurrence(parts, ctx2).poly == reference


def test_cross_method_agreement_r3(ctx3):
    for parts in itertools.product(range(3), repeat=3):
        reference = build_linear_system(parts, ctx3).poly
        assert build_rodrigues(parts, ctx3).poly == reference
        assert build_recurrence(parts, ctx3).poly == reference


def test_monic_of_exact_degree(ctx3):
    for parts in [(2, 0, 1), (0, 3, 2), (1, 1, 1)]:
        poly = build_linear_system(parts, ctx3).poly
        assert poly.degree == sum(parts)
        assert poly.leading == 1


def test_leading_falling_coefficient(ctx2, q2):
    # leading falling coefficient of a monic degree-N polynomial is q^(N(N-1)/2)
    fall = to_falling_basis(build_linear_system((2, 0), ctx2).poly, ctx2).coeffs
    assert fall[-1] == q2
    assert len(fall) == 3


def test_permutation_symmetry(ctx2):
    # swapping (n_i, alpha_i) pairs leaves the polynomial unchanged
    swapped = QContext.from_t("9/10", ["3/5", "1/2"])
    for parts in [(2, 1), (3, 0), (2, 2), (1, 3)]:
        direct = build_rodrigues(parts, ctx2).poly
        mirrored = build_rodrigues(parts[::-1], swapped).poly
        assert direct == mirrored


def test_recurrence_paths_agree(ctx2):
    straight = build_recurrence((1, 1), ctx2, path=[0, 1]).poly
    reversed_ = build_recurrence((1, 1), ctx2, path=[1, 0]).poly
    assert straight == reversed_
    assert straight == build_linear_system((1, 1), ctx2).poly


def test_recurrence_paths_give_the_default_monomial_polynomial(ctx3):
    for parts in [(2, 1, 0), (1, 1, 1), (0, 2, 2)]:
        default = build_recurrence(parts, ctx3).poly
        assert default.basis == MONOMIAL
        for path in set(itertools.permutations([i for i, n in enumerate(parts) for _ in range(n)])):
            walked = build_recurrence(parts, ctx3, path=path).poly
            assert walked.basis == MONOMIAL
            assert walked == default


def test_recurrence_path_validation(ctx2):
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 0])
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 1, 1])
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 2])


def test_index_arity_checked(ctx2):
    with pytest.raises(ValueError):
        build_linear_system((1, 1, 1), ctx2)


def test_normalized_moment_values(ctx2, q2):
    for i, alpha in enumerate(ctx2.alphas):
        assert normalized_moment(i, 0, ctx2) == 1
        assert normalized_moment(i, 1, ctx2) == alpha * q2
        assert normalized_moment(i, 5, ctx2) == (alpha * q2) ** 5


def test_normalized_moment_against_truncated_series(ctx2):
    # ratio of truncated weighted sums reproduces (alpha q)^m to 1e-10
    for i in range(2):
        for m in range(5):
            num, den = weight_partial_sums(i, m, ctx2)
            assert abs(num / den - float(normalized_moment(i, m, ctx2))) < 1e-10


def test_moment_pairing_by_series(ctx2):
    # Lambda_i(C * [s]^(k)) for the unit-index polynomial vs direct sums:
    # the pairing is the normalized value, so compare against the series
    # ratio (sum C*[s]^(k) w) / (sum w)
    poly = build_linear_system((1, 0), ctx2).poly
    for i in range(2):
        masses = [float(w) for w in itertools.islice(weight_masses(i, ctx2), 250)]
        for k in range(3):
            series = 0.0
            wsum = 0.0
            for s, w in enumerate(masses):
                series += float(poly.evaluate(x_of(s, ctx2))) * float(
                    q_falling_number(s, k, ctx2)
                ) * w
                wsum += w
            pairing = float(moment_pairing(poly, k, i, ctx2))
            assert abs(series / wsum - pairing) < 1e-9


def test_float_backend_construction():
    ctx = QContext.from_q_float(0.81, [0.5, 0.6])
    exact = QContext.from_t("9/10", ["1/2", "3/5"])
    approx = build_recurrence((2, 1), ctx).poly
    reference = build_linear_system((2, 1), exact).poly
    assert approx.degree == reference.degree
    for a, b in zip(approx.coeffs, reference.coeffs):
        assert abs(a - float(b)) < 1e-12


SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
PAIRING_CASE = st.tuples(
    st.sampled_from([MONOMIAL, FALLING]),
    st.integers(0, 12),
    st.integers(0, 1),
)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)).filter(lambda t: t != 1),
    st.lists(SMALL_RATIONALS, min_size=1, max_size=13),
    PAIRING_CASE,
)
def test_exact_moment_pairing_equals_factor_step_expansion(t, coeffs, case):
    # the Gram-table pairing against the product expanded factor by factor
    basis, k, i = case
    ctx = QContext.from_t(t, ["1/2", "7/3"])
    p = LatticePoly(basis, coeffs)
    expected = expanded_pairing(to_falling_basis(p, ctx), k, i, ctx)
    assert moment_pairing(p, k, i, ctx) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0.74, 0.81, 1.3]),
    st.lists(st.floats(-10, 10), min_size=1, max_size=13),
    PAIRING_CASE,
)
def test_float_moment_pairing_keeps_its_operation_order(q, coeffs, case):
    basis, k, i = case
    ctx = QContext.from_q_float(q, [0.35, 0.55])
    p = LatticePoly(basis, coeffs)
    fall = falling_mul_falling(to_falling_basis(p, ctx), k, ctx)
    expected = memo_scope(ctx.q, ctx.exact).contract(fall, ctx.alphas[i])
    assert moment_pairing(p, k, i, ctx) == expected


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_rodrigues_equals_oracle_property(parts):
    ctx = QContext.from_t("9/10", ["1/2", "3/5"])
    assert build_rodrigues(parts, ctx).poly == build_linear_system(parts, ctx).poly


@pytest.mark.parametrize(
    "q, alphas, parts",
    [
        (0.74, (0.35, 0.55), (6, 6)),
        (0.74, (0.35, 0.55, 0.8), (4, 4, 4)),
        (0.74, (0.35,), (12,)),
        (1.3, (0.5, 0.6), (3, 2)),
    ],
)
def test_rodrigues_equals_oracle_on_exact_shadow(q, alphas, parts):
    # the exact twin of a float context keeps a t with t*t != q; the
    # Rodrigues route still gives the oracle's polynomial because its t^n
    # from the differences cancels against the t^(-n) of its constant
    ctx = _exact_shadow(QContext.from_q_float(q, alphas))
    assert ctx.t * ctx.t != ctx.q
    assert build_rodrigues(parts, ctx).poly == build_linear_system(parts, ctx).poly
