"""The exact oracle's bordered LU factorization: it must equal the dense
Gauss-Jordan reference, raise where the reference raises, name the place of
a vanishing pivot, and not depend on the order in which the memo scope was
filled.  Systems with the same active key share one factorization and one
solution.  The degenerate guard must refuse exactly the singular systems of
a degenerate weight."""

import itertools
import time
from fractions import Fraction

import pytest

from oracles import dense_oracle
from qcharlier import (
    FALLING,
    MONOMIAL,
    MultiIndex,
    QContext,
    ValidationError,
    build,
    build_linear_system,
    cli,
    relations,
)
from qcharlier.constructors import METHODS, ConstructionError, _factors, _linear_system_poly
from qcharlier.qkernels import active_key, memo_scope

ALPHAS = ("1/2", "3/5", "7/10")
GRID2 = list(itertools.product(range(7), repeat=2))  # the acceptance grids
GRID3 = list(itertools.product(range(5), repeat=3))


@pytest.mark.parametrize("t", ["9/10", "4/3"])
def test_oracle_equals_dense_reference_on_acceptance_grids(t):
    for alphas, grid in ((ALPHAS[:2], GRID2), (ALPHAS, GRID3)):
        ctx = QContext.from_t(t, alphas)
        for parts in grid:
            assert build_linear_system(parts, ctx).poly == dense_oracle(parts, ctx), (t, parts)


def _outcome(build, parts, ctx):
    try:
        return build(parts, ctx)
    except ConstructionError:
        return None


def test_unguarded_grid_raises_where_reference_raises():
    # alpha_2 = alpha_1 q^k breaks the ratio guard (k = 0 the distinctness
    # guard), so some leading blocks are singular; the plain constructor
    # skips validation, and the solver is called below the index guard
    # (at k = -2, -3 alpha_2 is also degenerate)
    t, a = Fraction(1, 2), Fraction(1, 3)
    raised = set()
    for k in range(-3, 4):
        ctx = QContext(t=t, q=t * t, alphas=(a, a * (t * t) ** k))
        for parts in itertools.product(range(4), repeat=2):
            oracle = _outcome(
                lambda p, c: _linear_system_poly(c, MultiIndex(p))[MONOMIAL], parts, ctx
            )
            assert oracle == _outcome(dense_oracle, parts, ctx), (k, parts)
            if oracle is None:
                raised.add((k, parts))
    assert len(raised) == 36
    assert len([key for key in raised if key[0] != 0]) == 27


@pytest.mark.parametrize("t", ["1/2", "2/3", "9/10"])
def test_degenerate_guard_fires_exactly_where_the_system_is_singular(t):
    # (1-q) alpha q^m = 1 zeroes a norm of the functional of alpha when
    # m >= 1, so exactly the systems with n_i > m are singular; every route
    # refuses those, and only those, before construction
    q = Fraction(t) ** 2
    for m in range(4):
        alpha = 1 / ((1 - q) * q ** m)
        for alphas, grid in (
            ((alpha,), [(n,) for n in range(6)]),
            ((Fraction(1, 7), alpha), list(itertools.product(range(4), repeat=2))),
        ):
            ctx = QContext.from_t(t, alphas)
            for parts in grid:
                singular = m >= 1 and parts[-1] > m
                assert (_outcome(dense_oracle, parts, ctx) is None) == singular, (t, m, parts)
                for method in METHODS:
                    try:
                        build(parts, ctx, method=method)
                        refused = None
                    except ValidationError as err:
                        refused = err.guard
                    assert refused == ("degenerate" if singular else None), (t, m, parts)


def test_singular_system_names_index_and_row():
    t, a = Fraction(1, 2), Fraction(1, 3)
    ctx = QContext(t=t, q=t * t, alphas=(a, a / (t * t)))
    build_linear_system((1, 1), ctx)
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as info:
        build_linear_system((1, 2), ctx)
    assert time.perf_counter() - start < 1.0
    assert "(1, 2)" in str(info.value)
    assert "(i, k) = (2, 1)" in str(info.value)


def test_factors_do_not_depend_on_cache_order(clear_caches):
    targets = [
        (QContext.from_t("9/10", ALPHAS[:2]), (3, 3)),
        (QContext.from_t("9/10", ALPHAS), (2, 2, 2)),
    ]
    sweeps = [(ctx, GRID2 if ctx.r == 2 else GRID3) for ctx, _ in targets]

    def results():
        return [
            (build_linear_system(parts, ctx).poly, _factors(ctx, MultiIndex(parts)))
            for ctx, parts in targets
        ]

    clear_caches()
    cold = results()
    for order in (lambda grid: grid, reversed):
        clear_caches()
        for ctx, grid in sweeps:
            for parts in order(grid):
                build_linear_system(parts, ctx)
        assert results() == cold


def test_factors_border_the_cached_parent(clear_caches):
    # (3,4) is (3,3) with one row and one column added: its factors reuse
    # the cached rows of L and columns of U rather than recompute them
    clear_caches()
    ctx = QContext.from_t("9/10", ALPHAS[:2])
    lower, upper = _factors(ctx, MultiIndex((3, 3)))
    child_lower, child_upper = _factors(ctx, MultiIndex((3, 4)))
    assert len(child_lower) == len(lower) + 1 and len(child_upper) == len(upper) + 1
    assert all(a is b for a, b in zip(lower, child_lower))
    assert all(a is b for a, b in zip(upper, child_upper))


def test_shared_systems_share_one_memo_entry(clear_caches):
    # (n1, n2, 0) at (a, b, c), (n1, n2) at (a, b), and an index whose zero
    # component carries a raising-shifted weight have one system between them
    clear_caches()
    ctx3 = QContext.from_t("9/10", ALPHAS)
    ctx2 = QContext.from_t("9/10", ALPHAS[:2])
    shifted = ctx3.with_alpha(2, ctx3.alphas[2] / ctx3.q)
    memos = memo_scope(ctx2.q, ctx2.exact).memos
    for parts in ((2, 1), (3, 2), (0, 2), (1, 0)):
        index, padded = MultiIndex(parts), MultiIndex(parts + (0,))
        factors = _factors(ctx2, index)
        entries = len(memos["_factors"])
        assert _factors(ctx3, padded) == factors
        assert _factors(shifted, padded) == factors
        assert len(memos["_factors"]) == entries
        for basis in (FALLING, MONOMIAL):
            poly = build_linear_system(index, ctx2, basis).poly
            assert build_linear_system(padded, ctx3, basis).poly is poly
            assert build_linear_system(padded, shifted, basis).poly is poly
    # the order of the components is part of the key
    swapped = QContext.from_t("9/10", (ALPHAS[1], ALPHAS[0]))
    assert active_key(swapped, MultiIndex((1, 2))) != active_key(ctx2, MultiIndex((2, 1)))
    assert build_linear_system((1, 2), swapped).poly == build_linear_system((2, 1), ctx2).poly


def test_verify_grid_factors_each_distinct_system_once(clear_caches, monkeypatch, capsys):
    # after the checks of `verify --rmax 3 --nmax 3`, the factor memo holds
    # one entry per distinct active key among the systems the verifiers
    # asked for and their parents, and fewer entries than (context, index)
    # pairs asked for
    clear_caches()
    asked = set()
    oracle = relations.build_linear_system

    def recording(index, ctx, *args):
        asked.add((ctx, MultiIndex.coerce(index)))
        return oracle(index, ctx, *args)

    monkeypatch.setattr(relations, "build_linear_system", recording)
    assert cli.main(["verify", "--rmax", "3", "--nmax", "3", "--quiet"]) == 0
    capsys.readouterr()
    needed = set()
    for ctx, index in asked:
        while index.weight:
            needed.add(active_key(ctx, index))
            index = index.down(max(i for i, ni in enumerate(index) if ni))
    scope = memo_scope(Fraction(81, 100), True)
    factors = scope.memos["_factors"]
    assert set(factors) == needed
    assert len(factors) < len({(ctx, index) for ctx, index in asked if index.weight})
    solved = scope.memos["_linear_system_poly"]
    assert set(solved) == {active_key(ctx, index) for ctx, index in asked}
