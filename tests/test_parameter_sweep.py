"""Exact identities away from the fixed test point: hypothesis draws rational
t = p/q on both sides of 1 and small rational weights, and every construction
route, the dense reference solve and every verify suite must hold exactly
there."""

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from oracles import dense_oracle
from qcharlier import QContext, ValidationError, build
from qcharlier.cli import _run_checks

SMALL = st.integers(min_value=1, max_value=9)
RATIONALS = st.builds(Fraction, SMALL, SMALL)
TS = RATIONALS.filter(lambda t: t != 1)
SWEEP = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)


def alpha_lists(r):
    return st.lists(RATIONALS, min_size=r, max_size=r, unique=True)


def sweep_context(t, alphas):
    """The context, or None when it or one of the contexts the verifiers
    shift to (alpha_i/q, q*alpha and the mixed vectors) fails a guard."""
    try:
        ctx = QContext.from_t(t, alphas)
        scaled = [a * ctx.q for a in ctx.alphas]
        ctx.with_all_alphas(scaled)
        for i, a in enumerate(ctx.alphas):
            ctx.with_alpha(i, a / ctx.q)
            ctx.with_all_alphas(scaled[:i] + [a] + scaled[i + 1:])
    except ValidationError:
        return None
    return ctx


def check_sweep(t, alphas, methods):
    """Every route, the dense reference and every suite at n_i <= 2; a draw
    on which the program refuses a build with ValidationError (the
    degenerate guard, also in a shifted context) is rejected like one that
    `sweep_context` rejects."""
    ctx = sweep_context(t, alphas)
    assume(ctx is not None)
    try:
        for parts in itertools.product(range(3), repeat=ctx.r):
            oracle = build(parts, ctx).poly
            assert oracle == dense_oracle(parts, ctx), parts
            for method in methods:
                assert build(parts, ctx, method=method).poly == oracle, (method, parts)
        entries = _run_checks("all", ctx, 2, None)
    except ValidationError:
        reject()
    assert [e for e in entries if e["status"] != "pass"] == []
    return {e["identity"] for e in entries}


@settings(SWEEP, max_examples=16)
@given(TS, alpha_lists(2))
@example(Fraction(2, 3), [Fraction(1, 2), Fraction(5, 3)])
@example(Fraction(7, 4), [Fraction(3, 8), Fraction(9, 2)])
@example(Fraction(1, 2), [Fraction(1), Fraction(4, 3)])
def test_r2_routes_agree_and_identities_hold(t, alphas):
    suites = check_sweep(t, alphas, ("rodrigues", "recurrence", "explicit_r2"))
    assert "stepline" in suites and len(suites) == 6


@settings(SWEEP, max_examples=5)
@given(TS, alpha_lists(3))
@example(Fraction(5, 7), [Fraction(1, 3), Fraction(4, 5), Fraction(2, 1)])
@example(Fraction(3, 2), [Fraction(1, 4), Fraction(6, 5), Fraction(7, 3)])
def test_r3_routes_agree_and_identities_hold(t, alphas):
    assert len(check_sweep(t, alphas, ("rodrigues", "recurrence", "explicit_r2"))) == 5
