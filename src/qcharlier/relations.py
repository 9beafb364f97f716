"""Structural identities of the family, verified to literal equality.

Every verifier builds its operands with the linear-system constructor (the
oracle), so a defect in the operator pipelines cannot hide itself; an
optional `builder` hook swaps that source out (used by the recurrence
constructor, by independence experiments, and by the negative-control
machinery that corrupts one polynomial on purpose).  With a builder given,
every polynomial a verifier reads comes from it, those behind its
coefficients included.  Each `verify_*` returns a residual `LatticePoly`
that must be identically zero.

The verifiers work in the falling basis [s]^(k).  Each operand is turned
into falling form once (the oracle hands over its solution as solved, with
no basis change); multiplying by X is the exact rewrite
X [s]^(k) = q^k [s]^(k+1) + x(k) [s]^(k); the operators of `latticefn` act
in O(deg) there; each pairing reads the Gram table; and only the residual is
converted to monomials, once, at the end.

Coefficient conventions.  The raising identity and the Rodrigues machinery
hold with simple closed-form constants.  The lowering expansion, the
difference equation built from it, and the down-neighbor coefficients of the
nearest-neighbor recurrence do not: for r >= 2 with two or more active
components the exact coefficients are rational functions of the weight
parameters, computed here as moment-functional ratios.  The classical-looking
product forms are exact for r = 1 and whenever at most one component of the
multi-index is positive, and are the q -> 1 limits of the true values; the
tests pin down exactly where they stop being valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .constructors import build_linear_system, moment_pairing
from .latticefn import delta_cov, raising_apply
from .qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    QContext,
    Scalar,
    binom2,
    falling_mul_falling,
    from_falling_basis,
    to_falling_basis,
    x_of,
)

Builder = Callable[[MultiIndex, QContext], LatticePoly]


def _oracle(index: MultiIndex, ctx: QContext) -> LatticePoly:
    # exact: the oracle's solution, already in the falling basis; floats:
    # its monomial result, whose conversion the recorded `limit` output pins
    # bit for bit
    return build_linear_system(index, ctx, FALLING if ctx.exact else MONOMIAL).poly


def _falling(builder: Optional[Builder]) -> Builder:
    """The builder (the oracle by default) with its polynomials in the
    falling basis."""
    build = builder or _oracle
    return lambda index, ctx: to_falling_basis(build(index, ctx), ctx)


# ---------------------------------------------------------------------------
# nearest-neighbor recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NNRecurrenceCoeffs:
    """Coefficients of x(s) C_n = C_{n+e_k} + b C_n + sum_i d_i C_{n-e_i}."""

    k: int
    b: Scalar
    d: Tuple[Scalar, ...]


def nn_recurrence_coeffs(
    index, k: int, ctx: QContext, builder: Optional[Builder] = None
) -> NNRecurrenceCoeffs:
    """Exact recurrence coefficients for stepping component k.

    b carries the closed form

        b = sum_i q^(n_1+..+n_{i-1}) x(n_i) [(q-1) alpha_i q^(n_i+..+n_r) + 1]
            + alpha_k q^(|n| + n_k + 1),

    while each d_i is the moment-functional ratio

        d_i = q^(n_i - 1) Lambda_i(C_n [s]^(n_i)) / Lambda_i(C_{n-e_i} [s]^(n_i - 1)),

    zero when n_i = 0.  Projecting the recurrence onto Lambda_i against
    [s]^(n_i - 1) isolates d_i because every other term is killed by
    orthogonality; the same projection argument shows these are the unique
    coefficients making the relation exact.
    """
    index = MultiIndex.coerce(index)
    if not 0 <= k < ctx.r:
        raise ValueError(f"component {k} out of range for r = {ctx.r}")
    build = _falling(builder)
    b = _nn_b_closed_form(index, k, ctx)
    poly = build(index, ctx)
    d = []
    for i, ni in enumerate(index):
        if ni == 0:
            d.append(ctx.zero())
            continue
        down = build(index.down(i), ctx)
        num = moment_pairing(poly, ni, i, ctx)
        den = moment_pairing(down, ni - 1, i, ctx)
        d.append(ctx.q ** (ni - 1) * num / den)
    return NNRecurrenceCoeffs(k=k, b=b, d=tuple(d))


def _nn_b_closed_form(index: MultiIndex, k: int, ctx: QContext) -> Scalar:
    b = ctx.alphas[k] * ctx.q ** (index.weight + index[k] + 1)
    for i, ni in enumerate(index):
        bracket = (ctx.q - 1) * ctx.alphas[i] * ctx.q ** index.suffix_weight(i) + 1
        b += ctx.q ** index.prefix_weight(i) * x_of(ni, ctx) * bracket
    return b


def verify_nn_recurrence(
    index, k: int, ctx: QContext, builder: Optional[Builder] = None
) -> LatticePoly:
    """Residual X C_n - C_{n+e_k} - b C_n - sum_i d_i C_{n-e_i} (zero expected)."""
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    coeffs = nn_recurrence_coeffs(index, k, ctx, builder=builder)
    poly = build(index, ctx)
    residual = falling_mul_falling(poly, 1, ctx) - build(index.up(k), ctx)
    residual = residual - poly.scale(coeffs.b)
    for i, di in enumerate(coeffs.d):
        if di != 0:
            residual = residual - build(index.down(i), ctx).scale(di)
    return from_falling_basis(residual, ctx)


# ---------------------------------------------------------------------------
# raising
# ---------------------------------------------------------------------------

def verify_raising(
    index, i: int, ctx: QContext, builder: Optional[Builder] = None
) -> LatticePoly:
    """Residual of the raising identity

        raising_apply(C_n^(a), alpha_i, |n|) = -q^(1/2) C_{n+e_i}^(a with alpha_i/q),

    the target polynomial living in the context with alpha_i divided by q.
    A modified context that fails validation raises ValidationError."""
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    lifted = raising_apply(build(index, ctx), ctx.alphas[i], index.weight, ctx)
    shifted_ctx = ctx.with_alpha(i, ctx.alphas[i] / ctx.q)
    target = build(index.up(i), shifted_ctx)
    return from_falling_basis(lifted + target.scale(ctx.t), ctx)


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def lowering_coeffs(index, ctx: QContext, builder: Optional[Builder] = None):
    """Exact expansion coefficients beta_i of

        Delta C_n^(a) = sum_i beta_i C_{n-e_i}^(q a)

    where every down neighbor lives in the context with ALL weight parameters
    multiplied by q.  That scaled family is forced: the forward difference
    satisfies the down-shifted orthogonality precisely with respect to the
    q-scaled weights, and the q-scaled neighbors are a basis of that
    subspace.  beta_i is the functional ratio

        beta_i = Lambda'_i(Delta C_n * [s]^(n_i - 1))
                 / Lambda'_i(C_{n-e_i}^(q a) * [s]^(n_i - 1)),

    with Lambda'_i the moment functional at parameter q*alpha_i; beta_i = 0
    when n_i = 0.  For r = 1, beta equals q^(|n| - n_1 + 1/2) [n_1]_q, and
    beta_i -> n_i as q -> 1.
    """
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    scaled = ctx.with_all_alphas(a * ctx.q for a in ctx.alphas)
    diff = delta_cov(build(index, ctx), ctx)
    betas = []
    for i, ni in enumerate(index):
        if ni == 0:
            betas.append(ctx.zero())
            continue
        down = build(index.down(i), scaled)
        num = moment_pairing(diff, ni - 1, i, scaled)
        den = moment_pairing(down, ni - 1, i, scaled)
        betas.append(num / den)
    return tuple(betas)


def verify_lowering(index, ctx: QContext, builder: Optional[Builder] = None) -> LatticePoly:
    """Residual Delta C_n - sum_i beta_i C_{n-e_i}^(q a) (zero expected)."""
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    scaled = ctx.with_all_alphas(a * ctx.q for a in ctx.alphas)
    residual = delta_cov(build(index, ctx), ctx)
    betas = lowering_coeffs(index, ctx, builder=builder)
    for i, beta in enumerate(betas):
        if beta != 0:
            residual = residual - build(index.down(i), scaled).scale(beta)
    return from_falling_basis(residual, ctx)


# ---------------------------------------------------------------------------
# difference equation
# ---------------------------------------------------------------------------

def diff_eq_residual(index, ctx: QContext, builder: Optional[Builder] = None) -> LatticePoly:
    """Residual of the (r+1)-order difference identity

        prod_j D~_j [Delta C_n^(a)]
          + q^(1/2) sum_i beta_i prod_{j != i} D~_j [ C_n^(a(i)) ]  =  0,

    where D~_j is the raising action with parameter q*alpha_j and power
    |n| - 1, beta_i are the lowering coefficients, and a(i) is the parameter
    vector with every component scaled by q except the i-th.  Applying the
    full raising chain to the lowering expansion telescopes each term back to
    index n; for r = 1 the identity collapses to the single-weight
    second-order equation with coefficient q^(|n| - n_1 + 1) [n_1]_q.
    """
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    power = index.weight - 1
    lifted = delta_cov(build(index, ctx), ctx)
    for j in range(ctx.r):
        lifted = raising_apply(lifted, ctx.q * ctx.alphas[j], power, ctx)
    residual = lifted
    betas = lowering_coeffs(index, ctx, builder=builder)
    for i, beta in enumerate(betas):
        if beta == 0:
            continue
        mixed = [a * ctx.q for a in ctx.alphas]
        mixed[i] = ctx.alphas[i]
        term = build(index, ctx.with_all_alphas(mixed))
        for j in range(ctx.r):
            if j != i:
                term = raising_apply(term, ctx.q * ctx.alphas[j], power, ctx)
        residual = residual + term.scale(ctx.t * beta)
    return from_falling_basis(residual, ctx)


# ---------------------------------------------------------------------------
# step-line recurrence (r = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteplineCoeffs:
    """Coefficients of the 4-term relation along the second component,

        x P_{n1,n2} = q^(n1+n2) P_{n1,n2+1} + b P_{n1,n2}
                      + c P_{n1,n2-1} + d P_{n1-1,n2-1},

    stated for the leading-falling-normalized family P = q^(-C(N,2)) C
    (top falling coefficient 1; the q^N factor in front of the up neighbor
    is what that normalization forces)."""

    b: Scalar
    c: Scalar
    d: Scalar


def stepline_coeffs(
    n1: int, n2: int, ctx: QContext, builder: Optional[Builder] = None
) -> SteplineCoeffs:
    """b from the closed form, c and d peeled off the falling-basis
    expansion of the relation.

    Multiplied through by q^(C(N,2)), N = n1 + n2, the relation is the
    nearest-neighbor recurrence stepping the second component, so b is its
    closed-form coefficient and reads no polynomial.  With every P
    normalized to top falling coefficient 1, the remainder
    R = X P_{n1,n2} - q^N P_{n1,n2+1} - b P_{n1,n2} has degree below N; then

        c = R_{N-1},  R -= c P_{n1,n2-1};  d = R_{N-2},

    each step clearing the top coefficient of R against a polynomial of that
    degree.  c is read only when n2 >= 1 and d only when n1, n2 >= 1; on
    the other cells they are zero (their polynomials are absent)."""
    if ctx.r != 2:
        raise ValueError(f"step-line relation needs r = 2, context has r = {ctx.r}")
    build = _falling(builder)
    N = n1 + n2

    def p(m1, m2):
        return build(MultiIndex((m1, m2)), ctx).scale(ctx.q ** (-binom2(m1 + m2)))

    here = p(n1, n2)
    b = _nn_b_closed_form(MultiIndex((n1, n2)), 1, ctx)
    rest = falling_mul_falling(here, 1, ctx) - p(n1, n2 + 1).scale(ctx.q ** N)
    rest = rest - here.scale(b)
    c = rest.coefficient(N - 1) if n2 >= 1 else ctx.zero()
    d = ctx.zero()
    if n1 >= 1 and n2 >= 1:
        d = (rest - p(n1, n2 - 1).scale(c)).coefficient(N - 2)
    return SteplineCoeffs(b=b, c=c, d=d)


def stepline_valid(n1: int, n2: int) -> bool:
    """Domain where the 4-term relation is an identity.  Stepping the second
    component from (n1, 0) with n1 >= 1 has no valid 4-term span (the
    relation would need the absent (n1-1, 0) neighbor), so those cells are
    excluded; everywhere else the residual vanishes exactly."""
    return n2 >= 1 or n1 == 0


def verify_stepline(
    n1: int, n2: int, ctx: QContext, builder: Optional[Builder] = None
) -> LatticePoly:
    """Residual of the 4-term relation (zero expected on the valid domain;
    on the excluded cells it is a nonzero constant, kept as is)."""
    build = _falling(builder)
    N = n1 + n2
    coeffs = stepline_coeffs(n1, n2, ctx, builder=builder)

    def p(m1, m2):
        if m1 < 0 or m2 < 0:
            return LatticePoly.zero(FALLING)
        return build(MultiIndex((m1, m2)), ctx).scale(ctx.q ** (-binom2(m1 + m2)))

    here = p(n1, n2)
    residual = falling_mul_falling(here, 1, ctx) - p(n1, n2 + 1).scale(ctx.q ** N)
    residual = residual - here.scale(coeffs.b)
    residual = residual - p(n1, n2 - 1).scale(coeffs.c)
    residual = residual - p(n1 - 1, n2 - 1).scale(coeffs.d)
    return from_falling_basis(residual, ctx)


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def orthogonality_residuals(index, ctx: QContext, builder: Optional[Builder] = None):
    """All defining functionals and the boundary values.

    Returns (defining, boundary): `defining[(i, k)]` for k < n_i must vanish;
    `boundary[i]` = Lambda_i(C * [s]^(n_i)) must be nonzero (that
    nonvanishing is what makes every multi-index here normal)."""
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    poly = build(index, ctx)
    defining = {}
    boundary = {}
    for i, ni in enumerate(index):
        for k in range(ni):
            defining[(i, k)] = moment_pairing(poly, k, i, ctx)
        boundary[i] = moment_pairing(poly, ni, i, ctx)
    return defining, boundary
