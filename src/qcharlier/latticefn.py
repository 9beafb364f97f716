"""Difference-operator algebra on a closed class of lattice functions.

The carrier type is f(s) = c^s * P(x(s)) / [s]_q! (`WeightedLatticeFn`),
which is closed under the covariant backward difference
nabla = (f(s) - f(s-1)) / q^(s-1/2), multiplication by x(s), multiplication
by geometric factors d^s, and the backward shift.  On pure polynomials the
module provides the covariant forward difference
Delta P = (P(s+1) - P(s)) / q^(s-1/2) and the degree-raising operator action

    q^(power + 1/2) * [ (alpha - X) P(X) + X (P(X) - P((X-1)/q)) ],

both exact.  The n-fold nabla has two independent implementations: the
production path iterates the one-step rule, while `nabla_power_expansion`
evaluates the closed binomial expansion

    nabla^m f(s) = q^(m/2 - m s) sum_k [m k] (-1)^k q^(k(k-1)/2) f(s-k),

kept as an internal oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qkernels import (
    MONOMIAL,
    LatticePoly,
    QContext,
    Scalar,
    binom2,
    falling_factorial_poly,
    q_binomial,
    q_factorial,
    x_of,
)


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

    def eval_at(self, s: int, ctx: QContext) -> Scalar:
        """Exact value at integer s (zero for s < 0, matching 1/Gamma_q
        vanishing at nonpositive integers)."""
        if s < 0:
            return ctx.zero()
        return self.base ** s * self.poly.evaluate(x_of(s, ctx)) / q_factorial(s, ctx)

    def times_x(self) -> "WeightedLatticeFn":
        return WeightedLatticeFn(self.base, self.poly.times_x())

    def times_geometric(self, d: Scalar) -> "WeightedLatticeFn":
        return WeightedLatticeFn(self.base * d, self.poly)

    def scale(self, c: Scalar) -> "WeightedLatticeFn":
        return WeightedLatticeFn(self.base, self.poly.scale(c))


def shift_poly(p: LatticePoly, direction: int, ctx: QContext) -> LatticePoly:
    """Compose with the lattice shift: s+1 maps X to qX+1, s-1 to (X-1)/q."""
    if direction == 1:
        return p.compose_affine(ctx.q, ctx.one())
    if direction == -1:
        return p.compose_affine(1 / ctx.q, -1 / ctx.q)
    raise ValueError("direction must be +1 or -1")


def shift_fn(f: WeightedLatticeFn, direction: int, ctx: QContext) -> WeightedLatticeFn:
    """Shift of the whole lattice function.  Only the backward shift stays in
    the class (the forward one would need 1/[s+1]_q)."""
    if direction == -1:
        # f(s-1) = (1/c) * c^s * X * P((X-1)/q) / [s]_q!
        moved = shift_poly(f.poly, -1, ctx).times_x().scale(1 / f.base)
        return WeightedLatticeFn(f.base, moved)
    raise ValueError("forward shift leaves the class")


def nabla(f: WeightedLatticeFn, ctx: QContext) -> WeightedLatticeFn:
    """Covariant backward difference (f(s) - f(s-1)) / q^(s-1/2)."""
    newp = (f.poly - shift_fn(f, -1, ctx).poly).scale(ctx.t)
    return WeightedLatticeFn(f.base / ctx.q, newp)


def delta_cov(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Covariant forward difference on polynomials:
    (P(qX+1) - P(X)) * q^(1/2) / ((q-1)X + 1).

    The division is exact because X = -1/(q-1) is fixed by X -> qX+1; the
    degree drops by one and a leading coefficient p_n maps to
    q^(1/2) [n]_q p_n.
    """
    numerator = shift_poly(p, 1, ctx) - p
    if numerator.is_zero:
        return LatticePoly.zero()
    quotient, remainder = _divide_linear(numerator, ctx.q - 1, ctx.one())
    if ctx.exact and remainder != 0:
        raise ArithmeticError(f"covariant difference division left remainder {remainder}")
    return quotient.scale(ctx.t)


def _divide_linear(p: LatticePoly, a: Scalar, b: Scalar):
    # divide by (a*X + b), returning (quotient, remainder)
    work = list(p.coeffs)
    out = [p.coeffs[0] * 0] * (len(work) - 1)
    for i in range(len(work) - 1, 0, -1):
        c = work[i] / a
        out[i - 1] = c
        work[i - 1] -= c * b
    return LatticePoly.monomial(out), work[0]


def rodrigues_elementary(
    f: WeightedLatticeFn, alpha: Scalar, n: int, ctx: QContext
) -> WeightedLatticeFn:
    """One weight-conjugated n-fold difference factor:
    multiply by (alpha q^n)^s, apply nabla n times, multiply by alpha^(-s).

    The geometric base returns to its input value: the q^n gained up front is
    consumed by the n base divisions inside the iterated nabla.
    """
    if n < 0:
        raise ValueError("factor order must be nonnegative")
    out = f.times_geometric(alpha * ctx.q ** n)
    for _ in range(n):
        out = nabla(out, ctx)
    return out.times_geometric(1 / alpha)


def rodrigues_elementary_expanded(
    f: WeightedLatticeFn, alpha: Scalar, n: int, ctx: QContext
) -> WeightedLatticeFn:
    """Same operator through the closed expansion of nabla^n (test oracle)."""
    out = nabla_power_expansion(f.times_geometric(alpha * ctx.q ** n), n, ctx)
    return out.times_geometric(1 / alpha)


def nabla_power_expansion(f: WeightedLatticeFn, m: int, ctx: QContext) -> WeightedLatticeFn:
    """nabla^m via the binomial sum over back-shifts (independent of the
    iterated one-step rule)."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    total = LatticePoly.zero()
    for k in range(m + 1):
        coeff = q_binomial(m, k, ctx) * (-1) ** k * ctx.q ** binom2(k) * f.base ** (-k)
        shifted = f.poly
        for _ in range(k):
            shifted = shift_poly(shifted, -1, ctx)
        # 1/[s-k]! = [s]^(k) / [s]!
        shifted = shifted * falling_factorial_poly(k, ctx)
        total = total + shifted.scale(coeff)
    total = total.scale(ctx.t ** m)
    return WeightedLatticeFn(f.base * ctx.q ** (-m), total)


def raising_apply(p: LatticePoly, alpha: Scalar, power: int, ctx: QContext) -> LatticePoly:
    """Raising action on a polynomial:
    q^(power + 1/2) * [alpha*P(X) - X*P((X-1)/q)].

    Exact, degree-raising by one; the leading coefficient scales by
    -q^(power + 1/2)."""
    if p.basis != MONOMIAL:
        raise ValueError("raising_apply expects the monomial basis")
    core = p.scale(alpha) - shift_poly(p, -1, ctx).times_x()
    return core.scale(ctx.q ** power * ctx.t)
