"""Difference-operator algebra on a closed class of lattice functions.

The carrier type is f(s) = c^s * P(x(s)) / [s]_q! (`WeightedLatticeFn`),
which is closed under the covariant backward difference
nabla = (f(s) - f(s-1)) / q^(s-1/2) and multiplication by geometric factors
d^s.  The n-fold nabla iterates the one-step rule on monomial polynomials;
the tests hold it against the closed binomial expansion

    nabla^m f(s) = q^(m/2 - m s) sum_k [m k] (-1)^k q^(k(k-1)/2) f(s-k).

On pure polynomials the module provides the covariant forward difference
Delta P = (P(s+1) - P(s)) / q^(s-1/2) and the degree-raising operator action

    q^(power + 1/2) * [ alpha P(X) - X P((X-1)/q) ],

both on falling-basis polynomials, where each operator is nearly diagonal
and costs O(deg):

    [s+1]^(k)           = q^k [s]^(k) + x(k) [s]^(k-1)       (forward shift)
    ((q-1)X + 1) [s]^(k) = q^k ([s]^(k) + (q-1) [s]^(k+1))    (times q^s)
    X [s-1]^(k)         = [s]^(k+1)                           (X P((X-1)/q))

all exact.  On exact contexts each operator runs on the integer numerators
of its operands over one denominator, with q = u/w in lowest terms and
x(k) = N_k/w^(k-1), N_k = (u^k - w^k)/(u - w), and reduces its result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qkernels import FALLING, MONOMIAL, LatticePoly, QContext, Scalar, _integer, memo_scope


@dataclass(frozen=True)
class WeightedLatticeFn:
    """f(s) = base^s * poly(x(s)) / [s]_q!."""

    base: Scalar
    poly: LatticePoly

    def __post_init__(self):
        if self.poly.basis != MONOMIAL:
            raise ValueError("weighted lattice functions carry monomial polynomials")
        if self.base == 0:
            raise ValueError("geometric base must be nonzero")

    def times_geometric(self, d: Scalar) -> "WeightedLatticeFn":
        return WeightedLatticeFn(self.base * d, self.poly)


def shift_poly(p: LatticePoly, direction: int, ctx: QContext) -> LatticePoly:
    """Compose with the lattice shift.  s+1 (X -> qX+1) acts on a falling
    polynomial by [s+1]^(k) = q^k [s]^(k) + x(k) [s]^(k-1); s-1
    (X -> (X-1)/q) on a monomial one, as `nabla` uses it."""
    if direction == 1:
        if p.basis != FALLING:
            raise ValueError("the forward shift expects the falling basis")
        if not ctx.exact:
            scope = memo_scope(ctx.q, ctx.exact)
            out = [c * scope.qpow(k) for k, c in enumerate(p.coeffs)]
            for k in range(1, len(out)):
                out[k - 1] += p.coeffs[k] * scope.x(k)
            return LatticePoly.falling(out)
        u, w, nums, top = ctx.q.numerator, ctx.q.denominator, p.numerators, p.degree
        out = [c * u ** k * w ** (top - k) for k, c in enumerate(nums)]  # over D w^top
        for k in range(1, top + 1):
            out[k - 1] += nums[k] * ((u ** k - w ** k) // (u - w)) * w ** (top - k + 1)
        return LatticePoly.pair(FALLING, out, p.denominator * w ** max(top, 0))
    if direction == -1:
        return p.compose_affine(1 / ctx.q, -1 / ctx.q)
    raise ValueError("direction must be +1 or -1")


def nabla(f: WeightedLatticeFn, ctx: QContext) -> WeightedLatticeFn:
    """Covariant backward difference (f(s) - f(s-1)) / q^(s-1/2).  The
    backward shift stays in the class (the forward one would need
    1/[s+1]_q).  The new polynomial is t (P - X H/c), H = P((X-1)/q)."""
    # f(s-1) = (1/c) * c^s * X * P((X-1)/q) / [s]_q!
    shifted, c, p, t = shift_poly(f.poly, -1, ctx), f.base, f.poly, ctx.t
    if not ctx.exact:
        return WeightedLatticeFn(c / ctx.q, (p - shifted.times_x().scale(1 / c)).scale(t))
    denominator = math.lcm(p.denominator, c.numerator * shifted.denominator)
    keep = denominator // p.denominator * t.numerator
    move = denominator // (c.numerator * shifted.denominator) * c.denominator * t.numerator
    out = [keep * v for v in p.numerators] + [0]
    for i, v in enumerate(shifted.numerators):
        out[i + 1] -= move * v
    return WeightedLatticeFn(c / ctx.q, LatticePoly.pair(MONOMIAL, out, denominator * t.denominator))


def delta_cov(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Covariant forward difference on falling polynomials:
    (P(qX+1) - P(X)) * q^(1/2) / ((q-1)X + 1).

    The division is exact because X = -1/(q-1) is fixed by X -> qX+1; the
    degree drops by one.  Since (q-1)X + 1 = q^s, the quotient Q of the
    numerator N solves N_j = q^j Q_j + (q-1) q^(j-1) Q_(j-1), which is
    back-substituted from the top; what is left of N_0 is the remainder.
    Exact contexts lift N by (u - w)^m, m its degree, so that each division
    by q - 1 = (u - w)/w is an exact integer division.
    """
    numerator = shift_poly(p, 1, ctx) - p
    if numerator.is_zero:
        return LatticePoly.zero(FALLING)
    if not ctx.exact:
        scope, unit = memo_scope(ctx.q, ctx.exact), ctx.q - 1
        work = list(numerator.coeffs)
        quotient = [None] * (len(work) - 1)
        for j in range(len(work) - 1, 0, -1):
            step = work[j] / unit  # q^(j-1) Q_(j-1)
            quotient[j - 1] = step * scope.qpow(1 - j)
            work[j - 1] -= step
        return LatticePoly.falling(quotient).scale(ctx.t)
    u, w, top, t = ctx.q.numerator, ctx.q.denominator, numerator.degree, ctx.t
    lift = (u - w) ** top
    work, quotient = [c * lift for c in numerator.numerators], [None] * top
    for j in range(top, 0, -1):
        step = work[j] * w // (u - w)  # (u - w)^(j-1) divides it
        quotient[j - 1] = step * w ** (j - 1) * u ** (top - j) * t.numerator
        work[j - 1] -= step
    denominator = numerator.denominator * lift
    if work[0]:
        raise ArithmeticError(f"covariant difference division left remainder {Fraction(work[0], denominator)}")
    return LatticePoly.pair(FALLING, quotient, denominator * u ** (top - 1) * t.denominator)


def rodrigues_elementary(
    f: WeightedLatticeFn, alpha: Scalar, n: int, ctx: QContext
) -> WeightedLatticeFn:
    """One weight-conjugated n-fold difference factor:
    multiply by (alpha q^n)^s, apply nabla n times, multiply by alpha^(-s).

    The geometric base returns to its input value: the q^n gained up front is
    consumed by the n base divisions inside the iterated nabla.
    """
    n = _integer(n, "factor order")
    if n < 0:
        raise ValueError("factor order must be nonnegative")
    out = f.times_geometric(alpha * ctx.q ** n)
    for _ in range(n):
        out = nabla(out, ctx)
    return out.times_geometric(1 / alpha)


def raising_apply(p: LatticePoly, alpha: Scalar, power: int, ctx: QContext) -> LatticePoly:
    """Raising action on a falling polynomial:
    q^(power + 1/2) * [alpha*P(X) - X*P((X-1)/q)].

    X*P((X-1)/q) moves each [s]^(k) to [s]^(k+1), so the action is exact
    and raises the degree by one; the top falling coefficient scales by
    -q^(power + 1/2).  Exact contexts write alpha = a/b and form the
    bracket on the numerators over D b; float ones take b = 1, which
    leaves every float operation as it was."""
    if p.basis != FALLING:
        raise ValueError("raising_apply expects the falling basis")
    factor = ctx.q ** power * ctx.t
    a, b, coeffs = (alpha.numerator, alpha.denominator, p.numerators) if ctx.exact else (alpha, 1, p.coeffs)
    core = [a * c for c in coeffs] + [0]
    for k, c in enumerate(coeffs):
        core[k + 1] -= b * c
    if not ctx.exact:
        return LatticePoly.falling(core).scale(factor)
    return LatticePoly.pair(FALLING, [c * factor.numerator for c in core], p.denominator * b * factor.denominator)
