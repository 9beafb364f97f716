"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact equality for every
algebraic identity, correctly rounded zeros, 1e-10 for the moment numerics,
order 1.0 +/- 0.2 for the classical limit, and a 30 s wall budget for the
cross-method grids.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from oracles import normalized_moment, weight_partial_sums
from qcharlier import (
    LatticePoly,
    MultiIndex,
    QContext,
    build_explicit,
    build_linear_system,
    build_recurrence,
    build_rodrigues,
    classical_build,
    diff_eq_residual,
    nn_recurrence_coeffs,
    orthogonality_residuals,
    verify_lowering,
    verify_nn_recurrence,
    verify_raising,
    verify_stepline,
)
from qcharlier.relations import stepline_valid
from qcharlier.zeros import find_positive_roots

T = "9/10"
ALPHAS2 = ("1/2", "3/5")
ALPHAS3 = ("1/2", "3/5", "7/10")

GRID2 = [MultiIndex(p) for p in itertools.product(range(7), repeat=2)]  # n_i <= 6
GRID3 = [MultiIndex(p) for p in itertools.product(range(5), repeat=3)]  # n_i <= 4


@pytest.fixture(scope="module")
def actx2():
    return QContext.from_t(T, ALPHAS2)


@pytest.fixture(scope="module")
def actx3():
    return QContext.from_t(T, ALPHAS3)


def report(number, name, passed):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_cross_method_agreement(actx2, actx3):
    start = time.perf_counter()
    ok = True
    for index in GRID2:
        reference = build_linear_system(index, actx2).poly
        ok &= build_rodrigues(index, actx2).poly == reference
        ok &= build_explicit(index, actx2).poly == reference
        ok &= build_recurrence(index, actx2).poly == reference
    for index in GRID3:
        reference = build_linear_system(index, actx3).poly
        ok &= build_rodrigues(index, actx3).poly == reference
        ok &= build_explicit(index, actx3).poly == reference
        ok &= build_recurrence(index, actx3).poly == reference
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(1, f"cross-method agreement ({elapsed:.1f}s)", ok)


def test_criterion_02_orthogonality(actx2, actx3):
    ok = True
    for ctx, grid in ((actx2, GRID2), (actx3, GRID3)):
        for index in grid:
            defining, boundary = orthogonality_residuals(index, ctx)
            ok &= all(value == 0 for value in defining.values())
            ok &= all(value != 0 for value in boundary.values())
    report(2, "orthogonality functionals", ok)


def test_criterion_03_raising(actx2, actx3):
    ok = True
    for ctx, grid in ((actx2, GRID2), (actx3, GRID3)):
        for index in grid:
            for i in range(ctx.r):
                ok &= verify_raising(index, i, ctx).is_zero
    report(3, "raising identity", ok)


def test_criterion_04_lowering(actx2, actx3):
    ok = True
    for ctx, grid in ((actx2, GRID2), (actx3, GRID3)):
        for index in grid:
            ok &= verify_lowering(index, ctx).is_zero
    report(4, "lowering identity", ok)


def test_criterion_05_difference_equation(actx2, actx3):
    ok = True
    ctx1 = QContext.from_t(T, ALPHAS2[:1])
    for n in range(4):
        ok &= diff_eq_residual((n,), ctx1).is_zero
    for parts in itertools.product(range(4), repeat=2):
        ok &= diff_eq_residual(parts, actx2).is_zero
    for parts in itertools.product(range(4), repeat=3):
        ok &= diff_eq_residual(parts, actx3).is_zero
    report(5, "difference equation (r = 1, 2, 3)", ok)


def test_criterion_06_nearest_neighbor_recurrence(actx2, actx3):
    ok = True
    for ctx, grid in ((actx2, GRID2), (actx3, GRID3)):
        for index in grid:
            for k in range(ctx.r):
                ok &= verify_nn_recurrence(index, k, ctx).is_zero
    # path independence through at least three distinct paths
    paths_22 = [[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    polys = [build_recurrence((2, 2), actx2, path=p).poly for p in paths_22]
    ok &= all(poly == polys[0] for poly in polys)
    paths_111 = [[0, 1, 2], [2, 1, 0], [1, 2, 0]]
    polys = [build_recurrence((1, 1, 1), actx3, path=p).poly for p in paths_111]
    ok &= all(poly == polys[0] for poly in polys)
    report(6, "nearest-neighbor recurrence + path independence", ok)


def test_criterion_07_stepline(actx2):
    ok = True
    for n1, n2 in itertools.product(range(5), repeat=2):  # n_i <= 4
        if stepline_valid(n1, n2):
            ok &= verify_stepline(n1, n2, actx2).is_zero
        else:
            ok &= not verify_stepline(n1, n2, actx2).is_zero  # documented exclusion
    report(7, "step-line 4-term recurrence", ok)


def test_criterion_08_classical_limit():
    alphas = (Fraction(1, 2), Fraction(3, 5))
    grid = [p for p in itertools.product(range(4), repeat=2) if sum(p) > 0]  # up to (3,3)
    coeff_errors = []
    b_errors = []
    d_errors = []
    for m in (2, 3, 4):
        ctx = QContext.from_q_float(1 - 10 ** -m, [float(a) for a in alphas])
        worst_coeff = 0.0
        worst_b = 0.0
        worst_d = 0.0
        for parts in grid:
            classical_coeffs = [float(c) for c in classical_build(parts, alphas).coeffs]
            q_coeffs = [float(c) for c in build_recurrence(parts, ctx).poly.coeffs]
            worst_coeff = max(
                worst_coeff,
                max(abs(a - b) for a, b in zip(q_coeffs, classical_coeffs)),
            )
            for k in range(2):
                got = nn_recurrence_coeffs(parts, k, ctx)
                worst_b = max(worst_b, abs(got.b - (float(alphas[k]) + sum(parts))))
                for i in range(2):
                    worst_d = max(worst_d, abs(got.d[i] - float(alphas[i]) * parts[i]))
        coeff_errors.append(worst_coeff)
        b_errors.append(worst_b)
        d_errors.append(worst_d)
    ok = True
    for series in (coeff_errors, b_errors, d_errors):
        ok &= series[0] > series[1] > series[2]
        for e0, e1 in zip(series, series[1:]):
            order = math.log10(e0 / e1)
            ok &= abs(order - 1.0) <= 0.2
    report(8, "classical limit (order 1.0 +/- 0.2)", ok)


def test_criterion_09_zeros(actx2):
    # exact coefficients, exact isolation: every root is the correctly rounded
    # double of a true root (the smallest one decays geometrically with |n|)
    ok = True
    for index in GRID2:
        expected = index.weight
        roots = find_positive_roots(build_linear_system(index, actx2).poly.coeffs, expected)
        ok &= len(roots) == expected
        ok &= all(r > 0 for r in roots)
        ok &= all(b - a > 1e-8 for a, b in zip(roots, roots[1:]))
    unit = find_positive_roots(build_linear_system((1, 0), actx2).poly.coeffs, 1)
    ok &= unit == [float(Fraction(1, 2) * Fraction(81, 100))]
    report(9, "zeros: count, simplicity, unit-index value", ok)


def test_criterion_10_moment_consistency(actx2):
    ok = True
    for i in range(2):
        for m in range(7):
            num, den = weight_partial_sums(i, m, actx2)
            target = float(normalized_moment(i, m, actx2))
            ok &= abs(num / den - target) < 1e-10
    report(10, "moment functional vs truncated series", ok)


def test_criterion_11_negative_controls(actx2):
    from qcharlier.relations import (
        diff_eq_residual as diffeq,
        orthogonality_residuals as orth,
        verify_nn_recurrence as nn,
    )

    def make_builder(amount, coeff_index):
        # corrupt the degree-(2,1) polynomial wherever it is built, in any
        # parameter context the verifier reaches for
        def builder(index, context):
            poly = build_linear_system(index, context).poly
            if index.parts == (2, 1):
                bumped = list(poly.coeffs)
                bumped[coeff_index] += amount
                poly = LatticePoly.monomial(bumped)
            return poly

        return builder

    ok = True
    for coeff_index in range(4):  # every coefficient of the cubic
        builder = make_builder(Fraction(1, 10 ** 6), coeff_index)
        defining, _ = orth((2, 1), actx2, builder=builder)
        ok &= any(value != 0 for value in defining.values())
        ok &= not diffeq((2, 1), actx2, builder=builder).is_zero
        ok &= not nn((2, 1), 0, actx2, builder=builder).is_zero

    # float variant: the perturbed defining functionals move far above noise
    fctx = QContext.from_q_float(0.81, [0.5, 0.6])

    def float_builder(index, context):
        poly = build_linear_system(index, context).poly
        if index.parts == (2, 1):
            bumped = list(poly.coeffs)
            bumped[0] += 1e-6
            poly = LatticePoly.monomial(bumped)
        return poly

    clean, _ = orth((2, 1), fctx)
    dirty, _ = orth((2, 1), fctx, builder=float_builder)
    ok &= max(abs(v) for v in clean.values()) < 1e-12
    ok &= max(abs(v) for v in dirty.values()) > 1e-8
    report(11, "negative controls (verifiers are not vacuous)", ok)
