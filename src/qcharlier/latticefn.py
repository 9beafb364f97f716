"""Difference-operator algebra on a closed class of lattice functions.

The carrier type is f(s) = c^s * P(x(s)) / [s]_q! (`WeightedLatticeFn`),
which is closed under the covariant backward difference
nabla = (f(s) - f(s-1)) / q^(s-1/2), multiplication by geometric factors
d^s, and scaling.  On pure polynomials the module provides the lattice
shifts, the covariant forward difference
Delta P = (P(s+1) - P(s)) / q^(s-1/2) and the degree-raising operator action

    q^(power + 1/2) * [ (alpha - X) P(X) + X (P(X) - P((X-1)/q)) ],

all exact.  The n-fold nabla iterates the one-step rule; the tests hold it
against the closed binomial expansion

    nabla^m f(s) = q^(m/2 - m s) sum_k [m k] (-1)^k q^(k(k-1)/2) f(s-k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .qkernels import MONOMIAL, LatticePoly, QContext, Scalar


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

    def scale(self, c: Scalar) -> "WeightedLatticeFn":
        return WeightedLatticeFn(self.base, self.poly.scale(c))


def shift_poly(p: LatticePoly, direction: int, ctx: QContext) -> LatticePoly:
    """Compose with the lattice shift: s+1 maps X to qX+1, s-1 to (X-1)/q."""
    if direction == 1:
        return p.compose_affine(ctx.q, ctx.one())
    if direction == -1:
        return p.compose_affine(1 / ctx.q, -1 / ctx.q)
    raise ValueError("direction must be +1 or -1")


def nabla(f: WeightedLatticeFn, ctx: QContext) -> WeightedLatticeFn:
    """Covariant backward difference (f(s) - f(s-1)) / q^(s-1/2).  The
    backward shift stays in the class (the forward one would need
    1/[s+1]_q)."""
    # f(s-1) = (1/c) * c^s * X * P((X-1)/q) / [s]_q!
    moved = shift_poly(f.poly, -1, ctx).times_x().scale(1 / f.base)
    newp = (f.poly - moved).scale(ctx.t)
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


def raising_apply(p: LatticePoly, alpha: Scalar, power: int, ctx: QContext) -> LatticePoly:
    """Raising action on a polynomial:
    q^(power + 1/2) * [alpha*P(X) - X*P((X-1)/q)].

    Exact, degree-raising by one; the leading coefficient scales by
    -q^(power + 1/2)."""
    if p.basis != MONOMIAL:
        raise ValueError("raising_apply expects the monomial basis")
    core = p.scale(alpha) - shift_poly(p, -1, ctx).times_x()
    return core.scale(ctx.q ** power * ctx.t)
