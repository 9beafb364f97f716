"""q-primitives, lattice values, basis conversions, weights, and the guards."""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    compose_affine_horner,
    falling_mul_by_scalars,
    falling_product,
    falling_table_by_products,
    from_falling_by_table,
    gram_by_expansion,
    gram_by_fraction_recurrence,
    q_binomial,
    q_factorial,
    to_falling_by_table,
    weight_masses,
    weight_partial_sums,
)
from qcharlier import (
    FALLING,
    LatticePoly,
    MultiIndex,
    QContext,
    ValidationError,
    build,
    build_linear_system,
)
from qcharlier import qkernels
from qcharlier.latticefn import shift_poly
from qcharlier.qkernels import (
    MemoScope,
    active_key,
    binom2,
    dot,
    falling_factorial_poly,
    falling_mul_falling,
    falling_recurrence,
    from_falling_basis,
    memo_scope,
    to_falling_basis,
    x_of,
)

small_coeffs = st.lists(
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12),
    min_size=0,
    max_size=13,
)


# ---------------------------------------------------------------------------
# context validation
# ---------------------------------------------------------------------------

def test_context_accepts_desk_parameters(ctx3):
    assert ctx3.r == 3
    assert ctx3.q == Fraction(81, 100)


@pytest.mark.parametrize(
    ("t", "alphas", "guard"),
    [
        ("9/10", ["0"], "positivity"),
        ("9/10", ["1/2", "-3/5"], "positivity"),
        ("-9/10", ["1/2"], "positivity"),
        ("1", ["1/2"], "positivity"),
        ("9/10", ["1/2", "1/2"], "distinctness"),
        ("9/10", ["1/2", "81/200"], "ratio"),  # alpha2 = alpha1 * q
        ("9/10", ["1/2", "50/81"], "ratio"),  # alpha1 = alpha2 * q
    ],
)
def test_context_guards(t, alphas, guard):
    with pytest.raises(ValidationError) as err:
        QContext.from_t(t, alphas)
    assert err.value.guard == guard


@pytest.mark.parametrize(
    ("q", "alphas", "name"),
    [
        (math.inf, [0.5], "q"),
        (math.nan, [0.5], "q"),
        (0.81, [0.5, math.inf], "alpha_2"),
        (0.81, [math.nan, 0.6], "alpha_1"),
    ],
)
def test_float_context_refuses_non_finite_parameters(q, alphas, name):
    with pytest.raises(ValidationError) as err:
        QContext.from_q_float(q, alphas)
    assert err.value.guard == "finiteness"
    assert f"{name} must be finite" in str(err.value)


def test_ratio_guard_is_exact_beyond_small_exponents():
    # alpha1/alpha2 = 4**65 = q**-65 at q = 1/4
    with pytest.raises(ValidationError) as err:
        QContext.from_t("1/2", [Fraction(1, 2), Fraction(1, 2) * Fraction(1, 4) ** 65])
    assert err.value.guard == "ratio"
    assert "q**-65" in str(err.value)
    # a near miss stays admissible
    QContext.from_t("1/2", [Fraction(1, 2), Fraction(1, 2) * Fraction(1, 4) ** 65 * Fraction(3, 2)])


def test_convergence_guard():
    # alpha*q*(1-q) = 1 exactly at alpha = 1/(q(1-q)) = 10000/1539
    ctx = QContext.from_t("9/10", [Fraction(10000, 1539)])
    with pytest.raises(ValidationError) as err:
        ctx.require_convergent_measures()
    assert err.value.guard == "convergence"
    QContext.from_t("9/10", ["1/2"]).require_convergent_measures()


def test_degenerate_guard_keeps_no_state_in_the_memo_scope(clear_caches, monkeypatch):
    # at q = 1/4, (1-q)*alpha*q = 1 at alpha = 16/3, so m = 1 there; 1/2 has
    # no such m.  The guard decides each time by the exponent test and
    # neither reads nor fills the memo scope
    assert not hasattr(qkernels, "_log")
    assert not hasattr(qkernels, "_WeightTables")
    assert not hasattr(MemoScope, "degenerate_order")
    clear_caches()
    first = QContext.from_t("1/2", ["1/2", "16/3"])
    second = QContext.from_t("1/2", ["16/3", "2/3"])

    def no_scope(q, exact):
        raise AssertionError("the degenerate guard looked up the memo scope")

    monkeypatch.setattr(qkernels, "memo_scope", no_scope)
    first.require_nondegenerate(MultiIndex((2, 1)))
    for ctx, parts in ((first, (0, 2)), (second, (2, 0)), (second, (3, 1))):
        with pytest.raises(ValidationError) as err:
            ctx.require_nondegenerate(MultiIndex(parts))
        assert err.value.guard == "degenerate"
    second.require_nondegenerate(MultiIndex((1, 3)))


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
    st.lists(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50), max_denominator=60),
             min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_exact_degenerate_ratio_decides_as_the_old_expression(q, alphas, data):
    # the ratio w b/((w - u) a) decides as 1/((1-q) alpha) did; half of the
    # weights are put on a degenerate point 1/((1-q) q^m)
    alphas = [a if data.draw(st.booleans()) else 1 / ((1 - q) * q ** data.draw(st.integers(1, 4)))
              for a in alphas]
    ctx = QContext(t=Fraction(1), q=q, alphas=tuple(alphas), exact=True)
    index = MultiIndex(data.draw(st.lists(st.integers(0, 6), min_size=len(alphas),
                                          max_size=len(alphas))))

    def old_decision():
        for i, ni in enumerate(index):
            if ni >= 2:
                m = qkernels._q_exponent(1 / ((1 - q) * alphas[i]), q)
                if m is not None and 1 <= m < ni:
                    return i
        return None

    expected = old_decision()
    if expected is None:
        ctx.require_nondegenerate(index)
    else:
        with pytest.raises(ValidationError, match=f"alpha_{expected + 1}\\*q"):
            ctx.require_nondegenerate(index)


def _exponent_by_search(ratio, q, bound):
    """The k with |k| <= bound and ratio == q**k, or None, by stepping
    through the powers of q."""
    up = down = Fraction(1)
    for k in range(bound + 1):
        if ratio == up:
            return k
        if ratio == down:
            return -k
        up, down = up * q, down / q
    return None


NEAR_ONE = st.builds(
    lambda w, d: Fraction(w + d, w), st.integers(10 ** 16, 10 ** 17), st.sampled_from([-1, 1])
)
EXPONENT_BASES = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
    st.builds(Fraction, st.just(1), st.integers(2, 40)),  # q = 1/w
    st.builds(Fraction, st.integers(2, 40)),  # q = u/1
    NEAR_ONE,
).filter(lambda q: q != 1)
#: a factor whose numerator and denominator are below 2**8: it equals q**j
#: only for |j| < 8, so every ratio drawn below is q**k with |k| < 78 or no
#: power of q, and a search up to 100 decides it
PERTURBATIONS = st.one_of(
    st.just(Fraction(1)), st.builds(Fraction, st.integers(1, 255), st.integers(1, 255))
)


@settings(max_examples=150, deadline=None)
@given(EXPONENT_BASES, st.integers(-70, 70), PERTURBATIONS)
def test_rational_exponent_test_matches_search(q, k, factor):
    # the integer test against a search over the powers, also where q is
    # within 1e-16 of 1 and log(q) rounds to 0.0
    ratio = q ** k * factor
    expected = _exponent_by_search(ratio, q, 100)
    assert qkernels._q_exponent(ratio, q) == expected
    if factor == 1:
        assert expected == k


@pytest.mark.parametrize("value", [1.0, 2.5])
def test_multi_index_coerce_refuses_a_float(value):
    with pytest.raises(ValueError, match=f"multi-index {value} is not an integer"):
        MultiIndex.coerce(value)


def test_multi_index_operations():
    n = MultiIndex((2, 0, 1))
    assert n.weight == 3
    assert [n.prefix_weight(i) for i in range(3)] == [0, 2, 2]
    assert [n.suffix_weight(i) for i in range(3)] == [3, 1, 1]
    assert n.up(1).parts == (2, 1, 1)
    assert n.down(0).parts == (1, 0, 1)
    with pytest.raises(ValueError):
        n.down(1)
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


@pytest.mark.parametrize("parts, bad", [((1.5, 2), "1.5"), ((1.9, 0), "1.9"), ((2.0, 1), "2.0")])
def test_multi_index_refuses_non_integral_parts(ctx2, parts, bad):
    # truncating 1.9 would silently build C_(1,0)
    with pytest.raises(ValueError, match=f"part {bad} is not an integer"):
        MultiIndex(parts)
    with pytest.raises(ValueError, match=f"part {bad} is not an integer"):
        build(parts, ctx2)


# ---------------------------------------------------------------------------
# lattice and q-numbers
# ---------------------------------------------------------------------------

def test_x_of(ctx2, q2):
    assert x_of(0, ctx2) == 0
    assert x_of(2, ctx2) == 1 + q2
    assert x_of(-1, ctx2) == Fraction(-100, 81)


def test_q_number_matches_lattice(ctx2, q2):
    # the lattice x(s) is the q-number [s]_q = (q^s - 1)/(q - 1)
    for k in range(-3, 8):
        assert x_of(k, ctx2) == (q2**k - 1) / (q2 - 1)
    # [3]_q = 1 + q + q^2 = 21/16 at q = 1/4
    quarter = QContext.from_t("1/2", ["1/2"])
    assert x_of(3, quarter) == Fraction(21, 16)


def test_q_factorial(ctx2, q2):
    assert q_factorial(0, ctx2) == 1
    assert q_factorial(2, ctx2) == 1 + q2
    # [3]_q = 1 + q + q^2 = 24661/10000 at q = 81/100
    assert q_factorial(3, ctx2) == Fraction(181, 100) * Fraction(24661, 10000)
    with pytest.raises(ValueError):
        q_factorial(-1, ctx2)


def test_q_binomial(ctx2, q2):
    assert q_binomial(5, 0, ctx2) == 1
    assert q_binomial(2, 1, ctx2) == 1 + q2
    for m in range(7):
        for k in range(m + 1):
            assert q_binomial(m, k, ctx2) == q_binomial(m, m - k, ctx2)
    with pytest.raises(ValueError):
        q_binomial(3, 4, ctx2)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=12))
def test_q_pascal_rule(m, k):
    ctx = QContext.from_t("9/10", ["1/2"])
    if not 0 <= k <= m:
        return
    lhs = q_binomial(m, k, ctx)
    rhs = (q_binomial(m - 1, k, ctx) if k <= m - 1 else 0) + ctx.q ** (m - k) * (
        q_binomial(m - 1, k - 1, ctx) if k >= 1 else 0
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# falling-factorial basis
# ---------------------------------------------------------------------------

def test_falling_factorial_small(ctx2, q2):
    assert falling_factorial_poly(0, ctx2).coeffs == (1,)
    assert falling_factorial_poly(1, ctx2).coeffs == (0, 1)
    # q^-1 X (X - 1)
    assert falling_factorial_poly(2, ctx2).coeffs == (0, -1 / q2, 1 / q2)


def test_falling_leading_coefficient(ctx2, q2):
    for k in range(8):
        assert falling_factorial_poly(k, ctx2).leading == q2 ** (-binom2(k))


def test_falling_shift_recursion(ctx2, q2):
    # [s]^(k) factors as [s]^(k-1) * (X - x(k-1))/q^(k-1), and also as
    # X times the back-shifted [s]^(k-1)
    for k in range(1, 8):
        whole = falling_factorial_poly(k, ctx2)
        lower = falling_factorial_poly(k - 1, ctx2)
        factor = LatticePoly.monomial((-x_of(k - 1, ctx2), Fraction(1)))
        assert whole == (lower * factor).scale(q2 ** (-(k - 1)))
        assert whole == shift_poly(lower, -1, ctx2).times_x()


def test_basis_conversion_examples(ctx2, q2):
    x = LatticePoly.monomial((0, 1))
    assert to_falling_basis(x, ctx2).coeffs == (0, 1)
    x2 = LatticePoly.monomial((0, 0, 1))
    assert to_falling_basis(x2, ctx2).coeffs == (0, 1, q2)
    const = LatticePoly.monomial((Fraction(5, 7),))
    assert to_falling_basis(const, ctx2).coeffs == (Fraction(5, 7),)


@settings(max_examples=60)
@given(small_coeffs)
def test_basis_round_trip(coeffs):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    assert from_falling_basis(to_falling_basis(poly, ctx), ctx) == poly


TWO_DIGIT_PRIMES = [p for p in range(11, 100) if all(p % d for d in range(2, p))]
#: q = u/w below and above 1, and the exact shadows of binary q (2^-53 steps)
CONVERSION_QS = st.one_of(
    st.builds(Fraction, st.sampled_from(TWO_DIGIT_PRIMES), st.sampled_from(TWO_DIGIT_PRIMES)),
    st.floats(0.05, 3.0).map(Fraction),
).filter(lambda q: q != 1)
#: degrees 0 to 21, with zero coefficients inside and at the ends
CONVERSION_COEFFS = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40),
    ),
    max_size=22,
)


@settings(max_examples=80, deadline=None)
@given(CONVERSION_QS, CONVERSION_COEFFS)
def test_integer_conversions_equal_the_fraction_table(q, coeffs):
    # both exact conversions and the scope's integer-row table against the
    # term-by-term Fraction references, and the round trip
    memo_scope.cache_clear()
    ctx = QContext(t=Fraction(1), q=q, alphas=(Fraction(1, 2),), exact=True)
    table = falling_table_by_products(len(coeffs) + 1, ctx)
    assert [falling_factorial_poly(k, ctx).coeffs for k in range(len(table))] == table
    monomial, falling = LatticePoly.monomial(coeffs), LatticePoly.falling(coeffs)
    converted = to_falling_basis(monomial, ctx)
    assert converted == to_falling_by_table(monomial, ctx)
    assert from_falling_basis(falling, ctx) == from_falling_by_table(falling, ctx)
    assert from_falling_basis(converted, ctx) == monomial
    assert to_falling_basis(from_falling_basis(falling, ctx), ctx) == falling


def test_exact_integer_rows_carry_the_denominator_u_to_the_binomial(clear_caches):
    # [s]^(k) = P_k(X)/u^C(k,2) at q = u/w, with P_k an integer polynomial,
    # and u^C(k,2) is the lcm of the row's denominators
    clear_caches()
    for t in ("9/10", "4/3"):
        ctx = QContext.from_t(t, ["1/2"])
        for k in range(12):
            denominator = ctx.q.numerator ** binom2(k)
            poly = falling_factorial_poly(k, ctx)
            row = poly.coeffs
            assert math.lcm(*(c.denominator for c in row)) == denominator
            assert poly.denominator == denominator
            assert poly.numerators == tuple(c * denominator for c in row)


def test_exact_to_falling_basis_reads_no_table(clear_caches, monkeypatch):
    clear_caches()
    ctx = QContext.from_t("59/67", ["1/2", "3/5"])
    poly = build((4, 3), ctx).poly
    expected = to_falling_by_table(poly, ctx)

    def no_table(*args):
        raise AssertionError("the exact conversion read a falling-factorial table")

    clear_caches()
    monkeypatch.setattr(qkernels, "falling_factorial_poly", no_table)
    monkeypatch.setattr(MemoScope, "falling_poly", no_table)
    assert to_falling_basis(poly, ctx) == expected


@settings(max_examples=40)
@given(small_coeffs, st.integers(min_value=0, max_value=4))
def test_falling_product_matches_monomial_product(coeffs, k):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    via_falling = from_falling_basis(falling_product(to_falling_basis(poly, ctx), k, ctx), ctx)
    direct = poly * falling_factorial_poly(k, ctx)
    assert via_falling == direct


def test_float_scope_falling_polynomials_hold_floats():
    # `dot` takes its backend from the type of its start, so a sum over a
    # float scope's table must meet floats only, [s]^(0) included
    ctx = QContext.from_q_float(0.81, [0.5])
    for k in range(6):
        assert all(type(c) is float for c in falling_factorial_poly(k, ctx).coeffs), k


def test_falling_mul_x_rewrite(ctx2, q2):
    # X * [s]^(j) = q^j [s]^(j+1) + x(j) [s]^(j); [s]^(1) = X since x(0) = 0
    for j in range(5):
        unit = LatticePoly.falling((0,) * j + (1,))
        shifted = falling_mul_falling(unit, ctx2)
        expected = from_falling_basis(unit, ctx2).times_x()
        assert from_falling_basis(shifted, ctx2) == expected


GRAM_CONTEXTS = [
    ("9/10", ["1/2", "3/5", "7/10"]),
    ("1/2", ["1/2", "3/5", "7/3"]),
    ("4/3", ["1/3", "5/2", "9/7"]),
    ("7/5", ["2", "3/4", "5/9"]),
]


@pytest.mark.parametrize("t, alphas", GRAM_CONTEXTS)
def test_exact_gram_recurrence_matches_expanded_product(clear_caches, t, alphas):
    # the three-term recurrence against the falling product multiplied out
    # and contracted with the moments, on a cold scope
    clear_caches()
    ctx = QContext.from_t(t, alphas)
    scope = memo_scope(ctx.q, ctx.exact)
    for i, alpha in enumerate(ctx.alphas):
        gram = scope.gram(alpha)
        for j, k in itertools.product(range(13), repeat=2):
            assert gram(j, k) == gram_by_expansion(ctx, i, j, k), (i, j, k)


#: weights: ratios of two-digit primes, and a few small ones
GRAM_ALPHAS = st.one_of(
    st.builds(Fraction, st.sampled_from(TWO_DIGIT_PRIMES), st.sampled_from(TWO_DIGIT_PRIMES)),
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3, 5)]),
)


@settings(max_examples=40, deadline=None)
@given(
    CONVERSION_QS,
    GRAM_ALPHAS,
    st.lists(st.tuples(st.integers(0, 21), st.integers(0, 21)), min_size=1, max_size=3),
)
def test_integer_gram_table_equals_the_fraction_recurrence(q, alpha, keys):
    # g(j, k)/(b^(j+k) w^(jk+j+k)) and the Fraction entries, against the
    # recurrence on Fractions, at every entry the integer recursion filled
    memo_scope.cache_clear()
    scope = memo_scope(q, True)
    reference = gram_by_fraction_recurrence(alpha, q)
    numerators, gram = scope.gram_numerators(alpha), scope.gram(alpha)
    b, w = alpha.denominator, q.denominator
    for j, k in keys:
        assert gram(j, k) == reference(j, k), (j, k)
    filled = scope._exact_grams[alpha].numerators
    assert set(keys) <= set(filled)
    for j, k in filled:
        assert Fraction(numerators(j, k), b ** (j + k) * w ** (j * k + j + k)) == reference(j, k)
    assert set(scope._grams[alpha]) <= set(filled)


@pytest.mark.parametrize("q, alpha", [
    (Fraction(0.74), Fraction(0.35)),
    (Fraction(59, 67), Fraction(53, 59)),
    (Fraction(97, 89), Fraction(2)),
])
def test_integer_gram_table_fills_the_whole_square(q, alpha):
    # j, k <= 21 throughout, on an exact shadow of binary q, at alpha's
    # denominator equal to q's numerator, and at q > 1 with an integer alpha
    memo_scope.cache_clear()
    numerators = memo_scope(q, True).gram_numerators(alpha)
    reference = gram_by_fraction_recurrence(alpha, q)
    b, w = alpha.denominator, q.denominator
    for j, k in itertools.product(range(22), repeat=2):
        assert Fraction(numerators(j, k), b ** (j + k) * w ** (j * k + j + k)) == reference(j, k)


def test_exact_gram_entries_keep_the_keys_of_the_float_recurrence(clear_caches):
    # an exact scope makes a Fraction entry only where the float recurrence
    # would, and the moment pairing's integer reads make none
    clear_caches()
    ctx = QContext.from_q_float(0.81, [0.5])
    memo_scope(ctx.q, ctx.exact).gram(ctx.alphas[0])(7, 5)
    float_keys = set(memo_scope(ctx.q, ctx.exact)._grams[ctx.alphas[0]])
    exact = memo_scope(Fraction(ctx.q), True)
    alpha = Fraction(ctx.alphas[0])
    exact.gram_numerators(alpha)(9, 6)
    assert set(exact._grams[alpha]) == {(0, 0), (1, 0)}
    exact.gram(alpha)(7, 5)
    assert set(exact._grams[alpha]) == float_keys


@settings(max_examples=80, deadline=None)
@given(
    CONVERSION_QS,
    st.one_of(CONVERSION_COEFFS, st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=22)),
)
def test_exact_falling_mul_falling_equals_the_scalar_rewrite(q, coeffs):
    memo_scope.cache_clear()
    ctx = QContext(t=Fraction(1), q=q, alphas=(Fraction(1, 2),), exact=True)
    p = LatticePoly.falling(coeffs)
    assert falling_mul_falling(p, ctx) == falling_mul_by_scalars(p, ctx)


RATIONALS = st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=30)


@settings(max_examples=80, deadline=None)
@given(st.lists(RATIONALS, max_size=9), RATIONALS, RATIONALS)
def test_rational_compose_affine_matches_scalar_horner(coeffs, u, v):
    poly = LatticePoly.monomial(coeffs)
    assert poly.compose_affine(u, v) == compose_affine_horner(poly, u, v)


def test_rational_compose_affine_edge_cases(q2):
    zero, const = LatticePoly.zero(), LatticePoly.monomial((Fraction(-5, 7),))
    cases = [
        (zero, 1 / q2, -1 / q2),
        (const, 1 / q2, -1 / q2),
        (
            LatticePoly.monomial((0, Fraction(1, 3), Fraction(-2, 9))),
            Fraction(2, 5),
            Fraction(7, 4),
        ),
        (LatticePoly.monomial((Fraction(1, 6), 0, 0, Fraction(5, 8))), 0, Fraction(-3, 11)),
        (LatticePoly.monomial((2, -1, 3)), 1, -1),
    ]
    for poly, u, v in cases:
        assert poly.compose_affine(u, v) == compose_affine_horner(poly, u, v)
    assert zero.compose_affine(Fraction(3, 4), 1).is_zero
    assert const.compose_affine(Fraction(3, 4), 1) == const


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), max_size=9), st.sampled_from([0.74, 0.81, 1.3]))
def test_float_compose_affine_keeps_its_operation_order(coeffs, q):
    poly = LatticePoly.monomial(coeffs)
    composed = poly.compose_affine(1 / q, -1 / q)
    assert composed.coeffs == compose_affine_horner(poly, 1 / q, -1 / q).coeffs
    assert all(isinstance(c, float) for c in composed.coeffs)


def _plain_dot(xs, ys, start, sign):
    acc = start
    for x, y in zip(xs, ys):
        if sign > 0:
            acc += x * y
        else:
            acc -= x * y
    return acc


EXACT = st.one_of(st.integers(-50, 50), RATIONALS)
FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(EXACT, EXACT), max_size=12), EXACT, st.sampled_from([1, -1]))
def test_dot_equals_the_plain_loop_on_rationals(pairs, start, sign):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = dot(xs, ys, start, sign)
    assert isinstance(got, (int, Fraction))
    assert got == _plain_dot(xs, ys, start, sign)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FLOATS, FLOATS), max_size=12), FLOATS, st.sampled_from([1, -1]))
def test_dot_runs_the_plain_loop_on_floats(pairs, start, sign):
    # bit for bit, the sign of a zero included
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert repr(dot(xs, ys, start, sign)) == repr(_plain_dot(xs, ys, start, sign))


def test_dot_edge_cases():
    third, half = Fraction(1, 3), Fraction(-1, 2)
    assert dot([], [], third) == third
    assert dot([0, Fraction(0)], [third, half], half, -1) == half
    assert dot([third, half], [half, third], Fraction(0)) == Fraction(-1, 3)
    assert dot([third, half], [half, third], 1, -1) == Fraction(4, 3)
    # denominators that share factors, and a result that reduces to an integer
    xs, ys = [Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)], [Fraction(1, 4), 3, 5]
    assert dot(xs, ys, Fraction(13, 40)) == 1
    assert repr(dot([0.0], [-1.0], -0.0)) == repr(_plain_dot([0.0], [-1.0], -0.0, 1))


def _chained_recurrence(p, terms, ctx):
    """X p - sum a r as a chain of `scale` and `-`, the expression the
    kernel replaces."""
    out = falling_mul_falling(p, ctx)
    for a, r in terms:
        out = out - r.scale(a)
    return out


def _falling_case(scalars):
    # p, and terms whose polynomials are shorter or longer than X p
    poly = st.lists(scalars, max_size=8).map(LatticePoly.falling)
    return st.tuples(poly, st.lists(st.tuples(scalars, poly), max_size=4))


@settings(max_examples=100, deadline=None)
@given(_falling_case(EXACT))
def test_falling_recurrence_equals_the_chained_expression_on_rationals(case):
    p, terms = case
    ctx = QContext.from_t("9/10", ["1/2"])
    assert falling_recurrence(p, terms, ctx) == _chained_recurrence(p, terms, ctx)


@settings(max_examples=100, deadline=None)
@given(CONVERSION_QS, _falling_case(EXACT))
def test_exact_falling_recurrence_equals_the_chained_expression_by_scalars(q, case):
    # integers over one denominator, against X p by the scalar rewrite and
    # one `scale` and `-` per term
    p, terms = case
    memo_scope.cache_clear()
    ctx = QContext(t=Fraction(1), q=q, alphas=(Fraction(1, 2),), exact=True)
    got = falling_recurrence(p, terms, ctx)
    assert all(type(c) is int for c in got.numerators)
    expected = falling_mul_by_scalars(p, ctx)
    for a, r in terms:
        expected = expected - r.scale(a)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(_falling_case(FLOATS))
def test_falling_recurrence_runs_the_chained_expression_on_floats(case):
    # bit for bit: each coefficient takes the subtractions of the chain in order
    p, terms = case
    ctx = QContext.from_q_float(0.81, [0.5])
    got = falling_recurrence(p, terms, ctx)
    assert repr(got.coeffs) == repr(_chained_recurrence(p, terms, ctx).coeffs)


def test_falling_recurrence_edge_cases(ctx2):
    p = LatticePoly.falling((Fraction(1, 3), 2))
    assert falling_recurrence(p, [], ctx2) == falling_mul_falling(p, ctx2)
    longer = LatticePoly.falling((1, 0, 0, 0, Fraction(5, 7)))
    got = falling_recurrence(p, [(Fraction(-2), longer), (Fraction(0), longer)], ctx2)
    assert got.coeffs[3:] == (0, Fraction(10, 7))
    assert got == _chained_recurrence(p, [(Fraction(-2), longer)], ctx2)
    assert falling_recurrence(LatticePoly.zero(FALLING), [(1, p)], ctx2) == p.scale(-1)


def test_memo_scope_finds_the_live_scope_without_hashing_q(clear_caches):
    # a `Fraction` caches no hash, so the live scope is found by identity
    # (or equality) of q and the backend, not by a hashed lookup
    class Unhashable(Fraction):
        def __hash__(self):
            raise AssertionError("q was hashed")

    clear_caches()
    q = Unhashable(81, 100)
    scope = memo_scope(q, True)
    assert memo_scope(q, True) is scope
    assert memo_scope(Fraction(81, 100), True) is scope
    # the float twin with an equal q gets float tables
    float_scope = memo_scope(0.81, False)
    assert float_scope is not scope and float_scope.zero == 0.0 and type(float_scope.zero) is float
    memo_scope.cache_clear()
    assert memo_scope(0.81, False) is not float_scope


def test_one_memo_scope_alive(clear_caches):
    clear_caches()
    first = QContext.from_t("9/10", ["1/2", "3/5"])
    build_linear_system((2, 1), first)
    # the oracle's LU factors live in the scope: the index and its chain of
    # parents down to the first component, each under its active key, the
    # ordered (alpha_i, n_i) of its nonzero components
    a1, a2 = first.alphas
    chain = {((a1, 1),), ((a1, 2),), ((a1, 2), (a2, 1))}
    factors = memo_scope(first.q, first.exact).memos["_factors"]
    assert set(factors) == chain
    assert {active_key(first, MultiIndex(p)) for p in ((1, 0), (2, 0), (2, 1))} == chain
    scope = weakref.ref(memo_scope(first.q, first.exact))
    second = QContext.from_t("4/3", ["1/2", "3/5"])
    build_linear_system((2, 1), second)
    gc.collect()
    assert scope() is None
    # ... and die with it: the new scope factors from scratch
    assert set(memo_scope(second.q, second.exact).memos["_factors"]) == chain
    # the rule the benchmark applies between fixed op lists reaches every memo
    scope = weakref.ref(memo_scope(second.q, second.exact))
    clear_caches()
    gc.collect()
    assert scope() is None
    assert not any(isinstance(obj, MemoScope) for obj in gc.get_objects())


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_eval(ctx2):
    t = ctx2.t
    a = ctx2.alphas[0]
    masses = list(itertools.islice(weight_masses(0, ctx2), 82))
    # closed form alpha^s q^(s - 1/2) / [s]_q!
    for s in range(6):
        assert masses[s] == a ** s * ctx2.q ** s / t / q_factorial(s, ctx2)
    assert masses[0] == 1 / t
    assert masses[1] == a * t
    # the term ratio tends to alpha*q*(1-q), the geometric rate behind the
    # convergence guard
    limit = a * ctx2.q * (1 - ctx2.q)
    far = masses[41] / masses[40]
    assert abs(far - limit) < Fraction(1, 10 ** 3)
    closer = masses[81] / masses[80]
    assert abs(closer - limit) < abs(far - limit)


def test_weight_partial_sums_converge(ctx2):
    # the truncated ratio reproduces the normalized moment (alpha q)^m
    for i in range(2):
        for m in range(4):
            num, den = weight_partial_sums(i, m, ctx2)
            target = float((ctx2.alphas[i] * ctx2.q) ** m)
            assert abs(num / den - target) < 1e-10
