"""q-primitives, lattice values, basis conversions, weights, and the guards."""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import q_binomial, weight_masses, weight_partial_sums
from qcharlier import LatticePoly, MultiIndex, QContext, ValidationError, build_linear_system
from qcharlier import qkernels
from qcharlier.latticefn import shift_poly
from qcharlier.qkernels import (
    MemoScope,
    active_key,
    binom2,
    falling_factorial_poly,
    falling_mul_falling,
    from_falling_basis,
    memo_scope,
    q_factorial,
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


def test_degenerate_order_is_decided_once_per_alpha(clear_caches, monkeypatch):
    # at q = 1/4, (1-q)*alpha*q = 1 at alpha = 16/3, so m = 1 there; 1/2 has
    # no such m.  Two contexts at one q share the memo scope, and with it
    # the decision for their common alpha
    clear_caches()
    first = QContext.from_t("1/2", ["1/2", "16/3"])
    second = QContext.from_t("1/2", ["16/3", "2/3"])
    ratios = []
    exponent = qkernels._q_exponent

    def counted(ratio, q):
        ratios.append(ratio)
        return exponent(ratio, q)

    monkeypatch.setattr(qkernels, "_q_exponent", counted)
    first.require_nondegenerate(MultiIndex((2, 1)))
    for ctx, parts in ((first, (0, 2)), (second, (2, 0)), (second, (3, 1))):
        with pytest.raises(ValidationError) as err:
            ctx.require_nondegenerate(MultiIndex(parts))
        assert err.value.guard == "degenerate"
    second.require_nondegenerate(MultiIndex((1, 3)))
    assert ratios == [Fraction(8, 3), Fraction(1, 4), Fraction(2)]
    scope = memo_scope(first.q, first.exact)
    assert [scope.degenerate_order(a) for a in (Fraction(1, 2), Fraction(16, 3))] == [None, 1]
    assert len(ratios) == 3


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


@settings(max_examples=40)
@given(small_coeffs, st.integers(min_value=0, max_value=4))
def test_falling_product_matches_monomial_product(coeffs, k):
    ctx = QContext.from_t("9/10", ["1/2"])
    poly = LatticePoly.monomial(coeffs)
    via_falling = from_falling_basis(
        falling_mul_falling(to_falling_basis(poly, ctx), k, ctx), ctx
    )
    direct = poly * falling_factorial_poly(k, ctx)
    assert via_falling == direct


def test_falling_mul_x_rewrite(ctx2, q2):
    # X * [s]^(j) = q^j [s]^(j+1) + x(j) [s]^(j); [s]^(1) = X since x(0) = 0
    for j in range(5):
        unit = LatticePoly.falling((0,) * j + (1,))
        shifted = falling_mul_falling(unit, 1, ctx2)
        expected = from_falling_basis(unit, ctx2).times_x()
        assert from_falling_basis(shifted, ctx2) == expected


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
