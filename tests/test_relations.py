"""Identity verifiers: exact zero residuals, coefficient values, and the
negative controls that keep the verifiers honest."""

import itertools
from fractions import Fraction

import pytest

from oracles import (
    diff_eq_residual_single_family,
    lowering_coeffs_by_moments,
    lowering_coeffs_product_form,
    nn_b_projection,
    nn_d_closed_form,
    nn_recurrence_coeffs_product_form,
    stepline_coeffs_by_peel,
)
from qcharlier import (
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    QContext,
    ValidationError,
    build_linear_system,
    build_rodrigues,
    diff_eq_residual,
    lowering_coeffs,
    nn_recurrence_coeffs,
    orthogonality_residuals,
    stepline_coeffs,
    verify_lowering,
    verify_nn_recurrence,
    verify_raising,
    verify_stepline,
)
from qcharlier import relations
from qcharlier.latticefn import delta_cov
from qcharlier.qkernels import memo_scope, to_falling_basis, x_of
from qcharlier.relations import stepline_valid

#: contexts away from the fixed test point t = 9/10, on both sides of t = 1
OFF_POINT = (
    ("2/3", ["1/2", "5/3", "2/7", "9/4"]),
    ("4/3", ["3/8", "9/2", "1/3", "6/5"]),
    ("7/4", ["1", "4/3", "2/9", "5/2"]),
    ("1/2", ["1/3", "4/5", "2", "7/3"]),
)


def off_point_grid(grid=((1, 4), (2, 3), (3, 2), (4, 1))):
    """(context, multi-index) over the OFF_POINT contexts, for each
    (r, nmax) of `grid` every index with n_i <= nmax."""
    for t, alphas in OFF_POINT:
        for r, nmax in grid:
            ctx = QContext.from_t(t, alphas[:r])
            for parts in itertools.product(range(nmax + 1), repeat=r):
                yield ctx, parts


def perturbing_builder(target_parts, amount=Fraction(1, 10 ** 6), coeff=0):
    """Oracle builder that bumps one coefficient of the target polynomial
    wherever it is built (any parameter context)."""

    def builder(index, context):
        poly = build_linear_system(index, context).poly
        if index.parts == tuple(target_parts):
            bumped = list(poly.coeffs)
            bumped[coeff] += amount
            poly = LatticePoly.monomial(bumped)
        return poly

    return builder


# ---------------------------------------------------------------------------
# nearest-neighbor recurrence
# ---------------------------------------------------------------------------

def test_nn_coeffs_at_origin(ctx2, q2):
    for k in range(2):
        got = nn_recurrence_coeffs((0, 0), k, ctx2)
        assert got.b == ctx2.alphas[k] * q2
        assert got.d == (0, 0)


def test_nn_coeffs_unit_index(ctx2, q2):
    a1 = ctx2.alphas[0]
    got = nn_recurrence_coeffs((1, 0), 0, ctx2)
    assert got.b == 1 + a1 * q2 * (q2 - 1) + a1 * q2 ** 3
    assert got.d[0] == a1 * q2 * ((q2 - 1) * a1 * q2 + 1)
    assert got.d[1] == 0
    # single active component: the product form is still exact here
    product = nn_recurrence_coeffs_product_form((1, 0), 0, ctx2)
    assert (product.b, product.d) == (got.b, got.d)


def test_nn_product_form_diverges_at_two_active_components(ctx2):
    true = nn_recurrence_coeffs((1, 1), 0, ctx2)
    product = nn_recurrence_coeffs_product_form((1, 1), 0, ctx2)
    assert true.b == product.b
    assert true.d != product.d
    # and the product values genuinely break the recurrence
    poly = build_linear_system((1, 1), ctx2).poly
    up = build_linear_system((2, 1), ctx2).poly
    residual = poly.times_x() - up - poly.scale(product.b)
    for i, di in enumerate(product.d):
        residual = residual - build_linear_system(MultiIndex((1, 1)).down(i), ctx2).poly.scale(di)
    assert not residual.is_zero


def test_nn_b_closed_form_matches_projection(ctx3):
    for parts in [(0, 0, 0), (1, 0, 2), (2, 1, 1), (1, 1, 1)]:
        for k in range(3):
            closed = nn_recurrence_coeffs(parts, k, ctx3).b
            assert closed == nn_b_projection(parts, k, ctx3)


def test_nn_residuals_vanish(ctx2, ctx3):
    for parts in itertools.product(range(3), repeat=2):
        for k in range(2):
            assert verify_nn_recurrence(parts, k, ctx2).is_zero
    for parts in [(1, 1, 1), (2, 1, 0), (0, 2, 1)]:
        for k in range(3):
            assert verify_nn_recurrence(parts, k, ctx3).is_zero


def test_nn_q_to_1_limit():
    # b -> alpha_k + |n|, d_i -> alpha_i n_i
    parts = (2, 1)
    for m, tolerance_scale in [(3, 1.0), (4, 0.1)]:
        q = 1 - 10 ** -m
        ctx = QContext.from_q_float(q, [0.5, 0.6])
        got = nn_recurrence_coeffs(parts, 0, ctx)
        assert abs(got.b - (0.5 + 3)) < 0.1 * tolerance_scale
        assert abs(got.d[0] - 0.5 * 2) < 0.1 * tolerance_scale
        assert abs(got.d[1] - 0.6 * 1) < 0.1 * tolerance_scale


def test_nn_d_moment_ratios_match_closed_form(ctx3):
    # the package keeps the moment ratios; the closed form is pinned here,
    # the same for every stepped component k
    pairs = [(ctx3, parts) for parts in itertools.product(range(3), repeat=3)]
    for ctx, parts in pairs + list(off_point_grid()):
        closed = nn_d_closed_form(parts, ctx)
        for k in range(ctx.r):
            assert nn_recurrence_coeffs(parts, k, ctx).d == closed, (ctx, parts, k)


def test_nn_component_range_checked(ctx2):
    with pytest.raises(ValueError):
        nn_recurrence_coeffs((1, 1), 2, ctx2)


def test_nn_coeffs_permutation_equivariant(ctx2):
    # relabeling the (n_i, alpha_i) pairs permutes d and carries b(k) along
    swapped = QContext.from_t("9/10", ["3/5", "1/2"])
    for parts in [(2, 1), (1, 3), (2, 2)]:
        for k in range(2):
            direct = nn_recurrence_coeffs(parts, k, ctx2)
            mirrored = nn_recurrence_coeffs(parts[::-1], 1 - k, swapped)
            assert direct.b == mirrored.b
            assert direct.d == mirrored.d[::-1]


# ---------------------------------------------------------------------------
# raising
# ---------------------------------------------------------------------------

def test_raising_residuals_vanish(ctx2, ctx3):
    for parts in itertools.product(range(3), repeat=2):
        for i in range(2):
            assert verify_raising(parts, i, ctx2).is_zero
    for parts in [(0, 0, 0), (1, 1, 1), (2, 0, 1)]:
        for i in range(3):
            assert verify_raising(parts, i, ctx3).is_zero


def test_raising_modified_context_can_fail_validation():
    # the raised target context (alpha_1/q = alpha_2 * q^64) is validated on
    # its own; the exact ratio guard refuses alpha_1 = alpha_2 * q^65 already
    # in the base context, so that one is built without validation
    q = Fraction(81, 100)
    alpha2 = Fraction(1, 2)
    ctx = QContext(t=Fraction(9, 10), q=q, alphas=(alpha2 * q ** 65, alpha2))
    with pytest.raises(ValidationError) as err:
        verify_raising((0, 0), 0, ctx)
    assert err.value.guard == "ratio"


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def test_lowering_residuals_vanish(ctx1, ctx2, ctx3):
    for n in range(5):
        assert verify_lowering((n,), ctx1).is_zero
    for parts in itertools.product(range(3), repeat=2):
        assert verify_lowering(parts, ctx2).is_zero
    for parts in [(1, 1, 1), (2, 1, 1), (0, 2, 2)]:
        assert verify_lowering(parts, ctx3).is_zero


def test_lowering_coeffs_single_weight_match_product_form(ctx1):
    for n in range(1, 5):
        assert lowering_coeffs((n,), ctx1) == lowering_coeffs_product_form((n,), ctx1)
    # also with r = 2 when only one component is active
    ctx2 = QContext.from_t("9/10", ["1/2", "3/5"])
    assert lowering_coeffs((2, 0), ctx2) == lowering_coeffs_product_form((2, 0), ctx2)


def test_lowering_product_form_breaks_at_two_active_components(ctx2):
    # the leading coefficients already disagree: sum beta_i must equal
    # q^(1/2) [|n|]_q and the product form fails that for (1,1)
    true = lowering_coeffs((1, 1), ctx2)
    product = lowering_coeffs_product_form((1, 1), ctx2)
    assert true != product
    scaled = ctx2.with_all_alphas(a * ctx2.q for a in ctx2.alphas)
    residual = delta_cov(to_falling_basis(build_linear_system((1, 1), ctx2).poly, ctx2), ctx2)
    for i, beta in enumerate(product):
        down = build_linear_system(MultiIndex((1, 1)).down(i), scaled).poly
        residual = residual - to_falling_basis(down, scaled).scale(beta)
    assert not residual.is_zero


def test_lowering_closed_form_matches_moment_ratios():
    for ctx, parts in off_point_grid():
        assert lowering_coeffs(parts, ctx) == lowering_coeffs_by_moments(parts, ctx), (ctx, parts)


def test_closed_coefficients_read_no_polynomial(ctx2, ctx3, clear_caches, monkeypatch):
    # beta reads no polynomial, and the step-line c and d come from the
    # recurrence's d instead of being peeled off the residual they check
    def refuse(*args, **kwargs):
        raise AssertionError("a coefficient read a polynomial")

    clear_caches()
    monkeypatch.setattr(relations, "delta_cov", refuse)
    monkeypatch.setattr(relations, "moment_pairing", refuse)
    monkeypatch.setattr(relations, "falling_mul_falling", refuse)
    betas = {parts: lowering_coeffs(parts, ctx3) for parts in [(2, 1, 1), (0, 2, 1)]}
    assert all(not table for table in memo_scope(ctx3.q, ctx3.exact).memos.values())
    monkeypatch.undo()
    monkeypatch.setattr(relations, "falling_mul_falling", refuse)
    steps = {parts: stepline_coeffs(*parts, ctx2) for parts in [(1, 1), (2, 1), (0, 2)]}
    monkeypatch.undo()
    for parts, got in betas.items():
        assert got == lowering_coeffs_by_moments(parts, ctx3)
    for parts, got in steps.items():
        assert got == stepline_coeffs_by_peel(*parts, ctx2)


def test_lowering_coeffs_sum_to_delta_leading(ctx2):
    # sum_i beta_i = q^(1/2) [|n|]_q (leading-coefficient law of Delta)
    for parts in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        betas = lowering_coeffs(parts, ctx2)
        assert sum(betas) == ctx2.t * x_of(sum(parts), ctx2)


def test_lowering_classical_limit():
    # beta_i -> n_i as q -> 1
    ctx = QContext.from_q_float(1 - 1e-4, [0.5, 0.6])
    betas = lowering_coeffs((2, 1), ctx)
    assert abs(betas[0] - 2) < 1e-2
    assert abs(betas[1] - 1) < 1e-2


# ---------------------------------------------------------------------------
# difference equation
# ---------------------------------------------------------------------------

def test_diffeq_residuals_vanish(ctx1, ctx2, ctx3):
    for n in range(4):
        assert diff_eq_residual((n,), ctx1).is_zero
    for parts in itertools.product(range(3), repeat=2):
        assert diff_eq_residual(parts, ctx2).is_zero
    for parts in [(1, 1, 1), (2, 1, 1)]:
        assert diff_eq_residual(parts, ctx3).is_zero


def test_diffeq_single_family_form_agrees(ctx2, ctx3):
    for parts in [(2,), (1, 1), (2, 1)]:
        ctx = ctx2 if len(parts) == 2 else QContext.from_t("9/10", ["1/2"])
        assert diff_eq_residual_single_family(parts, ctx).is_zero
    assert diff_eq_residual_single_family((1, 1, 1), ctx3).is_zero


# ---------------------------------------------------------------------------
# step-line
# ---------------------------------------------------------------------------

def test_stepline_origin_consistent_with_nn(ctx2, q2):
    got = stepline_coeffs(0, 0, ctx2)
    assert got.b == ctx2.alphas[1] * q2
    assert got.c == 0
    assert got.d == 0


def test_stepline_closed_form_matches_peel():
    for ctx, (n1, n2) in off_point_grid(grid=((2, 3),)):
        assert stepline_coeffs(n1, n2, ctx) == stepline_coeffs_by_peel(n1, n2, ctx), (ctx, n1, n2)


def test_stepline_residuals_vanish_on_valid_domain(ctx2):
    for n1, n2 in itertools.product(range(4), repeat=2):
        if stepline_valid(n1, n2):
            assert verify_stepline(n1, n2, ctx2).is_zero


def test_stepline_residual_nonzero_off_domain(ctx2):
    # stepping the second component from (n1, 0), n1 >= 1 lacks the
    # (n1-1, 0) channel: the residual is the constant d_1 of the nn relation
    residual = verify_stepline(1, 0, ctx2)
    assert not residual.is_zero
    assert residual.degree == 0
    expected = nn_recurrence_coeffs((1, 0), 1, ctx2).d[0]
    assert residual.coeffs[0] == expected


def test_stepline_requires_r2(ctx3):
    with pytest.raises(ValueError):
        stepline_coeffs(1, 1, ctx3)


def test_builder_replaces_the_oracle_in_every_verifier(ctx2, monkeypatch):
    # a given builder is the only source of polynomials, coefficients included
    def refuse(*args, **kwargs):
        raise AssertionError("verifier reached the linear-system oracle")

    monkeypatch.setattr(relations, "build_linear_system", refuse)
    monkeypatch.setattr(relations, "_oracle", refuse)

    def builder(index, context):
        return build_rodrigues(index, context).poly

    index = MultiIndex((2, 1))
    defining, boundary = orthogonality_residuals(index, ctx2, builder=builder)
    assert all(value == 0 for value in defining.values())
    assert all(value != 0 for value in boundary.values())
    for i in range(2):
        assert verify_raising(index, i, ctx2, builder=builder).is_zero
        assert verify_nn_recurrence(index, i, ctx2, builder=builder).is_zero
    assert verify_lowering(index, ctx2, builder=builder).is_zero
    assert diff_eq_residual(index, ctx2, builder=builder).is_zero
    assert verify_stepline(2, 1, ctx2, builder=builder).is_zero


def test_residuals_come_back_as_monomial_polynomials(ctx2):
    # the verifiers work in the falling basis but return monomial residuals:
    # with C_(1,1) perturbed, each residual equals its identity computed on
    # the builder's monomial polynomials, with monomial-basis operators
    builder = perturbing_builder((1, 1), coeff=1)
    index = MultiIndex((1, 1))
    t, q = ctx2.t, ctx2.q
    poly = builder(index, ctx2)

    def residual_checked(residual, expected):
        assert residual.basis == MONOMIAL and not residual.is_zero
        assert residual == expected

    for k in range(2):
        coeffs = nn_recurrence_coeffs(index, k, ctx2, builder=builder)
        expected = poly.times_x() - builder(index.up(k), ctx2) - poly.scale(coeffs.b)
        for i, di in enumerate(coeffs.d):
            expected = expected - builder(index.down(i), ctx2).scale(di)
        residual_checked(verify_nn_recurrence(index, k, ctx2, builder=builder), expected)
    for i in range(2):
        shifted = ctx2.with_alpha(i, ctx2.alphas[i] / q)
        back = poly.compose_affine(1 / q, -1 / q).times_x()  # X P((X-1)/q)
        lifted = (poly.scale(ctx2.alphas[i]) - back).scale(q ** index.weight * t)
        expected = lifted + builder(index.up(i), shifted).scale(t)
        residual_checked(verify_raising(index, i, ctx2, builder=builder), expected)
    coeffs = stepline_coeffs(1, 1, ctx2, builder=builder)

    def p(m1, m2):
        return builder(MultiIndex((m1, m2)), ctx2).scale(q ** -((m1 + m2) * (m1 + m2 - 1) // 2))

    expected = p(1, 1).times_x() - p(1, 2).scale(q ** 2) - p(1, 1).scale(coeffs.b)
    expected = expected - p(1, 0).scale(coeffs.c) - p(0, 0).scale(coeffs.d)
    residual_checked(verify_stepline(1, 1, ctx2, builder=builder), expected)
    # the lowering coefficients read no polynomial, so (1,1):1 shows there
    # as (2,1):1 does
    for parts in ((1, 1), (2, 1)):
        builder = perturbing_builder(parts, coeff=1)
        for residual in (
            verify_lowering(parts, ctx2, builder=builder),
            diff_eq_residual(parts, ctx2, builder=builder),
        ):
            assert residual.basis == MONOMIAL and not residual.is_zero


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def test_orthogonality_unit_index(ctx2):
    defining, boundary = orthogonality_residuals((1, 0), ctx2)
    assert defining == {(0, 0): 0}
    assert boundary[0] != 0
    assert boundary[1] != 0


def test_orthogonality_full(ctx2):
    defining, boundary = orthogonality_residuals((2, 1), ctx2)
    assert set(defining) == {(0, 0), (0, 1), (1, 0)}
    assert all(value == 0 for value in defining.values())
    assert all(value != 0 for value in boundary.values())


# ---------------------------------------------------------------------------
# negative controls: a perturbed polynomial must break the verifiers
# ---------------------------------------------------------------------------

def test_perturbation_breaks_orthogonality(ctx2):
    builder = perturbing_builder((2, 1))
    defining, _ = orthogonality_residuals((2, 1), ctx2, builder=builder)
    assert any(value != 0 for value in defining.values())


def test_perturbation_breaks_diffeq(ctx2):
    builder = perturbing_builder((2, 1))
    assert not diff_eq_residual((2, 1), ctx2, builder=builder).is_zero


def test_perturbation_breaks_nn(ctx2):
    builder = perturbing_builder((2, 1))
    assert not verify_nn_recurrence((2, 1), 0, ctx2, builder=builder).is_zero
