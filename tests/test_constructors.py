"""Construction routes: examples, cross-method agreement, and the moments."""

import cProfile
import dataclasses
import itertools
import pstats
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    expanded_pairing,
    explicit_sum,
    normalized_moment,
    q_falling_number,
    weight_masses,
    weight_partial_sums,
)
from qcharlier import (
    MultiIndex,
    QContext,
    build,
    build_explicit,
    build_linear_system,
    build_recurrence,
    build_rodrigues,
    constructors,
    relations,
    rodrigues_constant,
)
from qcharlier.cli import _exact_shadow
from qcharlier.constructors import METHODS, ConstructionError, moment_pairing
from qcharlier.qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    memo_scope,
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


ALPHAS4 = ["1/2", "3/5", "7/10", "4/5"]


@pytest.mark.parametrize("t", ["9/10", "4/3", "1/2", "7/5"])
def test_explicit_builds_every_r(t):
    grids = {1: range(7), 3: range(5), 4: range(3)}  # n_i <= 6, 4 and 2
    for r, grid in grids.items():
        ctx = QContext.from_t(t, ALPHAS4[:r])
        for parts in itertools.product(grid, repeat=r):
            assert build_explicit(parts, ctx).poly == build_linear_system(parts, ctx).poly, parts


def test_cross_method_agreement_r2(ctx2):
    for parts in itertools.product(range(4), repeat=2):
        reference = build_linear_system(parts, ctx2).poly
        assert build_rodrigues(parts, ctx2).poly == reference
        assert build_explicit(parts, ctx2).poly == reference
        assert build_recurrence(parts, ctx2).poly == reference


def test_cross_method_agreement_r3(ctx3):
    for parts in itertools.product(range(3), repeat=3):
        reference = build_linear_system(parts, ctx3).poly
        assert build_rodrigues(parts, ctx3).poly == reference
        assert build_explicit(parts, ctx3).poly == reference
        assert build_recurrence(parts, ctx3).poly == reference


def test_monic_of_exact_degree(ctx3):
    for parts in [(2, 0, 1), (0, 3, 2), (1, 1, 1)]:
        poly = build_linear_system(parts, ctx3).poly
        assert poly.degree == sum(parts)
        assert poly.leading == 1


@pytest.mark.parametrize("method, name, double", [
    ("linear_system", "from_falling_basis", lambda p: p.scale(2)),
    ("rodrigues", "rodrigues_constant", lambda c: 2 * c),
    ("explicit_r2", "from_falling_basis", lambda p: p.scale(2)),
    ("recurrence", "from_falling_basis", lambda p: p.scale(2)),
])
def test_every_route_refuses_a_result_that_is_not_monic(
    clear_caches, monkeypatch, ctx2, method, name, double
):
    # each route's result comes out doubled; all four raise the same error
    clear_caches()
    real = getattr(constructors, name)
    monkeypatch.setattr(constructors, name, lambda *args: double(real(*args)))
    with pytest.raises(ConstructionError) as info:
        build((1, 1), ctx2, method)
    assert str(info.value) == f"{method} result for (1, 1) is not monic of degree 2"


@pytest.mark.parametrize("method", METHODS)
def test_float_contexts_build_float_polynomials(method):
    # `qkernels.dot` takes a sum's backend from the type of its start, so a
    # float polynomial must hold no `Fraction`, the zero index's 1 included
    ctx = QContext.from_q_float(0.81, [0.5, 0.6])
    for parts in [(0, 0), (1, 0), (2, 1)]:
        assert all(type(c) is float for c in build(parts, ctx, method).poly.coeffs), parts


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


@pytest.mark.parametrize("t, alphas", [
    ("9/10", ["1/2", "3/5", "7/10"]),
    ("4/3", ["1/3", "5/2", "9/7"]),
    ("59/67", ["53/59", "61/67", "73/79"]),
])
def test_recurrence_paths_equal_the_oracle(clear_caches, t, alphas):
    clear_caches()
    ctx = QContext.from_t(t, alphas)
    for parts in [(2, 1, 1), (0, 3, 1), (1, 0, 2)]:
        oracle = build_linear_system(parts, ctx).poly
        steps = [i for i, n in enumerate(parts) for _ in range(n)]
        for path in sorted(set(itertools.permutations(steps))):
            assert build_recurrence(parts, ctx, path=path).poly == oracle, (t, parts, path)


#: r = 1..3 grids whose oracle solutions T(n) must clear
CLEARED_INDICES = (
    [(n,) for n in range(9)] + [(12,)]
    + list(itertools.product(range(5), repeat=2)) + [(6, 6)]
    + list(itertools.product(range(3), repeat=3)) + [(3, 3, 3), (4, 4, 4)]
)


@pytest.mark.parametrize("ctx", [
    QContext.from_t("9/10", ["1/2", "3/5", "7/10"]),
    QContext.from_t("4/3", ["1/3", "5/2", "9/7"]),
    QContext.from_t("7/5", ["2", "3/4", "5/9"]),
    _exact_shadow(QContext.from_q_float(0.74, [0.35, 0.55, 0.8])),
], ids=["9/10", "4/3", "7/5", "shadow-0.74"])
def test_known_denominator_clears_the_oracle(clear_caches, ctx):
    # T(n) = w^D(n) prod_i b_i^(n_i) times the oracle's falling solution is
    # an integer polynomial, and it is what the recurrence route keeps
    clear_caches()
    for parts in CLEARED_INDICES:
        sub = ctx.with_all_alphas(ctx.alphas[:len(parts)])
        index = MultiIndex(parts)
        scale = constructors._known_denominator(sub, index)
        cleared = [scale * c for c in build_linear_system(parts, sub, FALLING).poly.coeffs]
        assert all(c.denominator == 1 for c in cleared), parts
        kept = constructors._recurrence_poly(sub, index).coeffs
        assert list(kept) == cleared, parts


@pytest.mark.parametrize("field", ["b", "d"])
def test_a_perturbed_step_coefficient_fails_the_integrality_check(clear_caches, monkeypatch, field):
    # b or d_1 of the step (1, 1) -> (2, 1) moved by 1/10^6 leaves a
    # remainder in the step's exact division (no power of w = 9 or of the
    # weights' denominators 3 and 7 absorbs 10^6), on the default route and
    # on a path through that step
    ctx = QContext.from_t("4/3", ["1/3", "5/7"])
    original = relations.nn_recurrence_coeffs

    def perturbed(index, k, ctx, builder=None):
        coeffs = original(index, k, ctx, builder=builder)
        if MultiIndex.coerce(index).parts != (1, 1) or k != 0:
            return coeffs
        bump = Fraction(1, 10 ** 6)
        if field == "b":
            return dataclasses.replace(coeffs, b=coeffs.b + bump)
        return dataclasses.replace(coeffs, d=(coeffs.d[0] + bump,) + coeffs.d[1:])

    monkeypatch.setattr(relations, "nn_recurrence_coeffs", perturbed)
    for path in (None, [1, 0, 0]):
        clear_caches()
        with pytest.raises(ConstructionError, match=re.escape("recurrence step to (2, 1)")):
            build_recurrence((2, 1), ctx, path=path)
    clear_caches()
    build_recurrence((1, 2), ctx)  # a build that never takes the step is untouched


def test_recurrence_path_validation(ctx2):
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 0])
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 1, 1])
    with pytest.raises(ValueError):
        build_recurrence((1, 1), ctx2, path=[0, 2])


def test_recurrence_path_refuses_non_integer_entries(ctx2):
    # a path entry is refused, not truncated to the component it would name
    with pytest.raises(ValueError, match="path component 1.9 is not an integer"):
        build_recurrence((1, 1), ctx2, path=[0, 1.9])


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


@pytest.mark.parametrize("t", ["9/10", "4/3"])
@pytest.mark.parametrize("parts", [(7, 5), (0, 6), (6, 0), (5,), (2, 1, 3), (2, 0, 1, 2)])
def test_explicit_convolution_matches_double_sum(t, parts):
    # the r-fold sum term by term; at r = 2 it is the double sum
    ctx = QContext.from_t(t, ALPHAS4[:len(parts)])
    poly = build_explicit(parts, ctx).poly
    assert poly == explicit_sum(parts, ctx)
    assert poly == build_linear_system(parts, ctx).poly


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


@pytest.mark.parametrize(
    "k, i, message",
    [
        # -1 would pair against alpha_2 by negative indexing; the k's would
        # recurse in the Gram table until RecursionError
        (1, -1, "component -1 out of range for r = 2"),
        (1, 2, "component 2 out of range for r = 2"),
        (1, 1.0, "component 1.0 is not an integer"),
        (-1, 0, "falling-factorial order must be nonnegative, got -1"),
        (1.5, 0, "falling-factorial order 1.5 is not an integer"),
    ],
)
def test_moment_pairing_refuses_bad_arguments(ctx2, k, i, message):
    p = LatticePoly.monomial((Fraction(1, 3), 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        moment_pairing(p, k, i, ctx2)


def test_float_and_exact_oracle_run_the_same_algorithm(clear_caches):
    # a float context and its exact shadow fill the same Gram entries and
    # the same bordered factors: Fraction(0.6) == 0.6 with the same hash,
    # so the keys compare across backends
    ctx = QContext.from_q_float(0.81, [0.5, 0.6])
    clear_caches()
    build_linear_system((3, 2), ctx)
    scope = memo_scope(ctx.q, ctx.exact)
    float_gram = _gram_entries(scope)
    float_factors = set(scope.memos["_factors"])
    shadow = _exact_shadow(ctx)
    build_linear_system((3, 2), shadow)
    scope = memo_scope(shadow.q, shadow.exact)
    exact_gram = _gram_entries(scope)
    assert set(float_gram) == set(exact_gram)
    assert float_factors == set(scope.memos["_factors"])
    for key, value in float_gram.items():
        exact = exact_gram[key]
        assert abs(value - exact) <= 1e-12 * abs(exact), key


def _gram_entries(scope):
    """Every Gram entry a scope holds, keyed by (alpha, j, k)."""
    return {
        (alpha, j, k): value
        for alpha, table in scope._grams.items()
        for (j, k), value in table.items()
    }


#: Ceilings on the math.gcd calls of one cold (10, 10) build at t = 9/10,
#: alphas (1/2, 3/5), counted with CPython 3.11's fractions module.  With
#: exact polynomials as canonical pairs (integer numerators over one
#: denominator, one gcd per kernel result) the counts are 1,372 (system),
#: 596 (recurrence), 189 (rodrigues) and 11 (explicit).  With a `Fraction`
#: per coefficient between kernels they were 1,622, 1,395, 1,780 and 526;
#: with one normalization per exact sum (`qkernels.dot`) and the basis
#: conversions already on integers, system and recurrence took 5,684 and
#: 12,468; normalizing every term everywhere gave 19,372 and 37,361.
GCD_CEILINGS = {"linear_system": 1_400, "recurrence": 620, "rodrigues": 200, "explicit_r2": 15}


@pytest.mark.parametrize("method", sorted(GCD_CEILINGS))
def test_cold_build_normalizes_once_per_sum(clear_caches, ctx2, method):
    clear_caches()
    profile = cProfile.Profile()
    profile.runcall(build, (10, 10), ctx2, method)
    gcd_calls = sum(
        stats[1] for (_, _, name), stats in pstats.Stats(profile).stats.items()
        if name == "<built-in method math.gcd>"
    )
    assert 0 < gcd_calls <= GCD_CEILINGS[method]


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
