"""Structural identities of the family, verified to literal equality.

Every verifier builds its operands with the linear-system constructor (the
oracle), so a defect in the operator pipelines cannot hide itself; an
optional `builder` hook swaps that source out (used by the recurrence
constructor, by independence experiments, and by the negative-control
machinery that corrupts one polynomial on purpose).  With a builder given,
every polynomial a verifier reads comes from it, those behind the
recurrence's down coefficients included.  Each `verify_*` returns a residual
`LatticePoly` that must be identically zero.

The verifiers work in the falling basis [s]^(k).  Each operand is turned
into falling form once (the oracle hands over its solution as solved, with
no basis change); multiplying by X is the exact rewrite
X [s]^(k) = q^k [s]^(k+1) + x(k) [s]^(k); the operators of `latticefn` act
in O(deg) there; each pairing reads the Gram table; and only the residual is
converted to monomials, once, at the end.

Coefficient conventions.  The raising constant, the lowering coefficients
and the recurrence's b are closed forms in t, q and the weights: they read
no polynomial, so they cannot absorb a defect of the polynomials they check.
Only the recurrence's down coefficients d_i are moment-functional ratios of
C_n and its down neighbors (their closed form is pinned in the tests): the
recurrence route steps with them, and the benchmark's self-test expects
`gen` to reach the moment pairing through that route.  The step-line
coefficients are the recurrence's b and d_i rewritten, so one d path serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .constructors import build_linear_system, moment_pairing
from .latticefn import delta_cov, raising_apply
from .qkernels import (
    FALLING,
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
    # the oracle's solution, already in the falling basis
    return build_linear_system(index, ctx, FALLING).poly


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

def lowering_coeffs(index, ctx: QContext):
    """Closed-form expansion coefficients beta_i of

        Delta C_n^(a) = sum_i beta_i C_{n-e_i}^(q a)

    where every down neighbor lives in the context with ALL weight parameters
    multiplied by q.  That scaled family is forced: the forward difference
    satisfies the down-shifted orthogonality precisely with respect to the
    q-scaled weights, and the q-scaled neighbors are a basis of that
    subspace.  The coefficients are the closed forms

        beta_i = t q^(|n| - n_i) [n_i]_q
                 prod_{j != i} (alpha_i q^(n_i) - alpha_j) / (alpha_i q^(n_i) - alpha_j q^(n_j)),

    zero when n_i = 0 ([0]_q = 0); a zero denominator is a ratio-guard case.
    The product is 1 for r = 1 or one active component, and as q -> 1,
    where beta_i -> n_i.
    """
    index = MultiIndex.coerce(index)
    betas = []
    for i, ni in enumerate(index):
        top = ctx.alphas[i] * ctx.q ** ni
        beta = ctx.t * ctx.q ** (index.weight - ni) * x_of(ni, ctx)
        for j, nj in enumerate(index):
            if ni and nj and j != i:  # a factor with n_j = 0 is 1
                beta *= (top - ctx.alphas[j]) / (top - ctx.alphas[j] * ctx.q ** nj)
        betas.append(beta)
    return tuple(betas)


def verify_lowering(index, ctx: QContext, builder: Optional[Builder] = None) -> LatticePoly:
    """Residual Delta C_n - sum_i beta_i C_{n-e_i}^(q a) (zero expected)."""
    index = MultiIndex.coerce(index)
    build = _falling(builder)
    scaled = ctx.with_all_alphas(a * ctx.q for a in ctx.alphas)
    residual = delta_cov(build(index, ctx), ctx)
    for i, beta in enumerate(lowering_coeffs(index, ctx)):
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
    for i, beta in enumerate(lowering_coeffs(index, ctx)):
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
    """The coefficients from the nearest-neighbor recurrence stepping the
    second component.  Multiplied through by q^(C(N,2)), N = n1 + n2, the
    relation is that recurrence with C_{n-e_1} rewritten through

        C_{m+e_1} - C_{m+e_2} = gamma C_m,  gamma = b_2(m) - b_1(m),

    at m = n - e_1 - e_2 (the two recurrences at m subtracted; b_k is the
    closed-form b stepping component k).  So b = b_2(n) and

        c = (d_1 + d_2) q^(1-N),  d = -d_1 gamma q^(3-2N),

    with d_1, d_2 the recurrence's down coefficients at n; d = 0 when
    n1 = 0, and c = d = 0 when n2 = 0 (their polynomials are absent)."""
    if ctx.r != 2:
        raise ValueError(f"step-line relation needs r = 2, context has r = {ctx.r}")
    index = MultiIndex((n1, n2))
    b = _nn_b_closed_form(index, 1, ctx)
    c = d = ctx.zero()
    if n2 >= 1:
        N = n1 + n2
        d1, d2 = nn_recurrence_coeffs(index, 1, ctx, builder=builder).d
        c = (d1 + d2) * ctx.q ** (1 - N)
        if n1 >= 1:
            m = MultiIndex((n1 - 1, n2 - 1))
            gamma = _nn_b_closed_form(m, 1, ctx) - _nn_b_closed_form(m, 0, ctx)
            d = -d1 * gamma * ctx.q ** (3 - 2 * N)
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
