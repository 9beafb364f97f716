"""Reference implementations that the tests compare the package against.

Each one is a second, independent path to a value the package computes
another way: the closed binomial expansion of the n-fold difference, the
streamed weights and their truncated sums, the product-form coefficients
(exact only where at most one component of the multi-index is positive),
the closed form of the recurrence's down coefficients, the lowering and
step-line coefficients peeled off the polynomials by moment ratios and by
degree (the package uses their closed forms), the single-family form of
the difference equation, the classical difference identity, and a dense
Gauss-Jordan solve of the orthogonality system.  Three are the slower
second paths to what a package kernel computes more cheaply: the Gram entry
by the expanded falling product, Horner's rule on scalars, and the explicit
double sum term by term.  None of them is reached by a command, so they
live here rather than in the package.
"""

import functools
import itertools
from fractions import Fraction

from qcharlier.classical import classical_build
from qcharlier.constructors import ConstructionError, build_linear_system, moment_pairing
from qcharlier.latticefn import WeightedLatticeFn, delta_cov, raising_apply, shift_poly
from qcharlier.qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    ValidationError,
    binom2,
    falling_factorial_poly,
    falling_mul_falling,
    from_falling_basis,
    to_falling_basis,
    x_of,
)
from qcharlier.relations import (
    NNRecurrenceCoeffs,
    SteplineCoeffs,
    _nn_b_closed_form,
    lowering_coeffs,
    nn_recurrence_coeffs,
)


def _oracle(index, ctx):
    return build_linear_system(index, ctx).poly


# ---------------------------------------------------------------------------
# q-numbers, moments and weights
# ---------------------------------------------------------------------------

def q_factorial(k, ctx):
    """[k]_q! = x(1) x(2) ... x(k)."""
    if k < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    out = ctx.one()
    for j in range(1, k + 1):
        out *= x_of(j, ctx)
    return out


def q_falling_number(n, k, ctx):
    """[n]^(k) = x(n) x(n-1) ... x(n-k+1); vanishes for integer 0 <= n < k."""
    out = ctx.one()
    for j in range(k):
        out *= x_of(n - j, ctx)
    return out


def q_binomial(m, k, ctx):
    """Gaussian binomial coefficient, equal to [m]^(k)/[k]!."""
    if not 0 <= k <= m:
        raise ValueError(f"binomial index out of range: ({m}, {k})")
    return q_falling_number(m, k, ctx) / q_factorial(k, ctx)


def normalized_moment(i, m, ctx):
    """m-th normalized moment of the i-th measure: (alpha_i q)^m."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    return (ctx.alphas[i] * ctx.q) ** m


def weight_masses(i, ctx):
    """Discrete weight masses w_i(0), w_i(1), ... of the i-th measure, where
    w_i(s) = alpha_i^s * q^(s - 1/2) / [s]_q!, streamed through the term
    ratio w(s+1) = w(s) * alpha_i * q / [s+1]_q (an endless generator)."""
    step = ctx.alphas[i] * ctx.q
    mass = 1 / ctx.t
    for s in itertools.count(1):
        yield mass
        mass = mass * step / x_of(s, ctx)


def weight_partial_sums(i, m, ctx):
    """Truncated sums (sum_s [s]^(m) w_i(s), sum_s w_i(s)) for numeric checks,
    in floats over the masses of `weight_masses`.

    Truncates once the geometric tail estimate of the remaining terms drops
    below 1e-14; requires convergent measure semantics.
    """
    ctx.require_convergent_measures()
    q = float(ctx.q)
    if q >= 1:
        raise ValidationError("convergence", "partial-sum checks need 0 < q < 1")
    # on this lattice x(s) < 1/(1-q), so [s]^(m) is bounded by that power
    falling_bound = (1.0 / (1.0 - q)) ** m
    total_m = 0.0
    total_0 = 0.0
    masses = (float(w) for w in weight_masses(i, ctx))
    term = next(masses)
    for s in itertools.count():
        fm = 1.0
        for j in range(m):
            fm *= (q ** (s - j) - 1) / (q - 1)
        total_m += fm * term
        total_0 += term
        next_term = next(masses)
        # the term ratio alpha_i q / [s+1]_q only falls from here on
        ratio = next_term / term
        if s > m and ratio < 1 and next_term * falling_bound / (1 - ratio) < 1e-14:
            break
        term = next_term
    return total_m, total_0


# ---------------------------------------------------------------------------
# scalar Horner, and the explicit double sum term by term
# ---------------------------------------------------------------------------

def compose_affine_horner(p, u, v):
    """P(uX + v) by Horner's rule on the scalars themselves, trimming each
    step: the loop `LatticePoly.compose_affine` keeps for floats."""
    out = []
    for c in reversed(p.coeffs):
        step = [0] * (len(out) + 1)
        for k, a in enumerate(out):
            step[k] += a * v
            step[k + 1] += a * u
        step[0] += c
        while step and step[-1] == 0:
            step.pop()
        out = step
    return LatticePoly(MONOMIAL, out)


def explicit_r2_double_sum(n1, n2, ctx):
    """The polynomial C_(n1, n2) by the double sum of `build_explicit_r2`,
    each term recomputed from q-falling numbers and q-factorials."""
    a1, a2 = ctx.alphas
    prefactor = (-a1) ** n1 * (-a2) ** n2 * ctx.q ** (n1 * n1 + n1 * n2 + n2 * n2)
    fall = [ctx.zero()] * (n1 + n2 + 1)
    for k in range(n1 + 1):
        for l in range(n2 + 1):
            term = q_falling_number(n1, k, ctx) * q_falling_number(n2, l, ctx)
            term /= q_factorial(k, ctx) * q_factorial(l, ctx)
            term *= ctx.q ** (binom2(k) + binom2(l))
            term *= (-1) ** (k + l) * (ctx.q ** n1 * a1) ** (-k) * (ctx.q ** n2 * a2) ** (-l)
            fall[k + l] += term
    return from_falling_basis(LatticePoly.falling(fall), ctx).scale(prefactor)


# ---------------------------------------------------------------------------
# lattice functions f(s) = base^s * poly(x(s)) / [s]_q!
# ---------------------------------------------------------------------------

def eval_at(f, s, ctx):
    """Exact value of f at integer s (zero for s < 0, matching 1/Gamma_q
    vanishing at nonpositive integers)."""
    if s < 0:
        return ctx.zero()
    return f.base ** s * f.poly.evaluate(x_of(s, ctx)) / q_factorial(s, ctx)


def times_x(f):
    """x(s) * f(s), which stays in the class."""
    return WeightedLatticeFn(f.base, f.poly.times_x())


def nabla_power_expansion(f, m, ctx):
    """nabla^m via the binomial sum over back-shifts (independent of the
    iterated one-step rule):

        nabla^m f(s) = q^(m/2 - m s) sum_k [m k] (-1)^k q^(k(k-1)/2) f(s-k).
    """
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


def rodrigues_elementary_expanded(f, alpha, n, ctx):
    """`rodrigues_elementary` through the closed expansion of nabla^n."""
    out = nabla_power_expansion(f.times_geometric(alpha * ctx.q ** n), n, ctx)
    return out.times_geometric(1 / alpha)


# ---------------------------------------------------------------------------
# recurrence, lowering and difference-equation cross-checks
# ---------------------------------------------------------------------------

def nn_b_projection(index, k, ctx):
    """b recomputed from moment projections alone, independent of the closed
    form (cross-check): project the recurrence onto Lambda_k against
    [s]^(n_k).  Only C_{n+e_k} drops out for free; every down neighbor still
    pairs nonzero at that degree and must be subtracted with its d_i."""
    index = MultiIndex.coerce(index)
    poly = _oracle(index, ctx)
    nk = index[k]
    denom = moment_pairing(poly, nk, k, ctx)
    value = ctx.q ** nk * moment_pairing(poly, nk + 1, k, ctx) + x_of(nk, ctx) * denom
    d = nn_recurrence_coeffs(index, k, ctx).d
    for i, ni in enumerate(index):
        if ni > 0:
            value -= d[i] * moment_pairing(_oracle(index.down(i), ctx), nk, k, ctx)
    return value / denom


def nn_recurrence_coeffs_product_form(index, k, ctx):
    """Product-form down coefficients
    d_i = q^(n_1+..+n_{i-1}) x(n_i) [(q-1) alpha_i q^(n_i+..+n_r) + 1] *
          alpha_i q^(|n| + n_i - 1).

    Exact only when at most one component of the multi-index is positive
    (in particular for r = 1); a documented negative control elsewhere."""
    index = MultiIndex.coerce(index)
    b = _nn_b_closed_form(index, k, ctx)
    d = []
    for i, ni in enumerate(index):
        bracket = (ctx.q - 1) * ctx.alphas[i] * ctx.q ** index.suffix_weight(i) + 1
        term = ctx.q ** index.prefix_weight(i) * x_of(ni, ctx) * bracket
        d.append(term * ctx.alphas[i] * ctx.q ** (index.weight + ni - 1))
    return NNRecurrenceCoeffs(k=k, b=b, d=tuple(d))


def lowering_coeffs_product_form(index, ctx):
    """q^(|n| - n_i + 1/2) [n_i]_q; exact only when at most one component is
    positive (negative control elsewhere)."""
    index = MultiIndex.coerce(index)
    return tuple(
        ctx.q ** (index.weight - ni) * ctx.t * x_of(ni, ctx) if ni else ctx.zero()
        for ni in index
    )


def lowering_coeffs_by_moments(index, ctx):
    """beta_i as the moment-functional ratio

        beta_i = Lambda'_i(Delta C_n [s]^(n_i - 1)) / Lambda'_i(C_{n-e_i}^(q a) [s]^(n_i - 1)),

    with Lambda'_i the moment functional at parameter q alpha_i (zero when
    n_i = 0): the projection that isolates beta_i, read off the oracle's
    polynomials; the reference for the closed form of `lowering_coeffs`."""
    index = MultiIndex.coerce(index)
    scaled = ctx.with_all_alphas(a * ctx.q for a in ctx.alphas)
    diff = delta_cov(to_falling_basis(_oracle(index, ctx), ctx), ctx)
    betas = []
    for i, ni in enumerate(index):
        if ni == 0:
            betas.append(ctx.zero())
            continue
        down = to_falling_basis(_oracle(index.down(i), scaled), scaled)
        num = moment_pairing(diff, ni - 1, i, scaled)
        betas.append(num / moment_pairing(down, ni - 1, i, scaled))
    return tuple(betas)


def nn_d_closed_form(index, ctx):
    """Closed-form down coefficients of the nearest-neighbor recurrence,

        d_i = alpha_i q^(2|n| - 1) [n_i]_q ((q-1) alpha_i q^(n_i) + 1)
              prod_{j != i} (alpha_i q^(n_i) - alpha_j) / (alpha_i q^(n_i) - alpha_j q^(n_j)),

    zero when n_i = 0 and the same for every stepped component; the
    reference for the moment ratios of `nn_recurrence_coeffs`."""
    index = MultiIndex.coerce(index)
    d = []
    for i, ni in enumerate(index):
        if ni == 0:
            d.append(ctx.zero())
            continue
        top = ctx.alphas[i] * ctx.q ** ni
        di = ctx.alphas[i] * ctx.q ** (2 * index.weight - 1) * x_of(ni, ctx)
        di *= (ctx.q - 1) * top + 1
        for j, nj in enumerate(index):
            if j != i:
                di *= (top - ctx.alphas[j]) / (top - ctx.alphas[j] * ctx.q ** nj)
        d.append(di)
    return tuple(d)


def stepline_coeffs_by_peel(n1, n2, ctx):
    """Step-line c and d peeled off the falling-basis expansion of the
    relation on the oracle's polynomials, with b from its closed form.

    With every P normalized to top falling coefficient 1, the remainder
    R = X P_(n1,n2) - q^N P_(n1,n2+1) - b P_(n1,n2) has degree below N; then
    c = R_(N-1), R -= c P_(n1,n2-1), d = R_(N-2), each step clearing the top
    coefficient of R against a polynomial of that degree.  c is read only
    when n2 >= 1 and d only when n1, n2 >= 1.  The reference for the
    closed forms of `stepline_coeffs`."""
    N = n1 + n2

    def p(m1, m2):
        fall = to_falling_basis(_oracle(MultiIndex((m1, m2)), ctx), ctx)
        return fall.scale(ctx.q ** (-binom2(m1 + m2)))

    here = p(n1, n2)
    b = _nn_b_closed_form(MultiIndex((n1, n2)), 1, ctx)
    rest = falling_mul_falling(here, 1, ctx) - p(n1, n2 + 1).scale(ctx.q ** N) - here.scale(b)
    c = rest.coefficient(N - 1) if n2 >= 1 else ctx.zero()
    d = ctx.zero()
    if n1 >= 1 and n2 >= 1:
        d = (rest - p(n1, n2 - 1).scale(c)).coefficient(N - 2)
    return SteplineCoeffs(b=b, c=c, d=d)


def diff_eq_residual_single_family(index, ctx):
    """Equivalent form of the difference identity of `diff_eq_residual`
    with every operand in the original parameter vector:

        prod_j E_{q alpha_j} [Delta C_n]
          = (-1)^r q^(-r(|n|-1) - C(r,2)) sum_i beta_i C_{n + 1 - e_i},

    where E_a P = a P(X) - X P((X-1)/q) and 1 is the all-ones index.  The
    residual is left in the falling basis, where the operators act."""
    index = MultiIndex.coerce(index)
    n = index.weight
    lifted = delta_cov(to_falling_basis(_oracle(index, ctx), ctx), ctx)
    for j in range(ctx.r):
        # E without the power normalization: strip the q^power * t factor
        lifted = raising_apply(lifted, ctx.q * ctx.alphas[j], 0, ctx).scale(1 / ctx.t)
    scale = (-1) ** ctx.r * ctx.q ** (-(ctx.r * (n - 1) + binom2(ctx.r)))
    rhs = LatticePoly.zero(FALLING)
    betas = lowering_coeffs(index, ctx)
    for i, beta in enumerate(betas):
        if beta == 0:
            continue
        up = index
        for j in range(ctx.r):
            if j != i:
                up = up.up(j)
        rhs = rhs + to_falling_basis(_oracle(up, ctx), ctx).scale(beta)
    return lifted - rhs.scale(scale)


def classical_diffeq_residual(index, alphas):
    """Residual of the classical (r+1)-order identity, built from the
    weight-conjugated backward operator L_i f = alpha_i f(x) - x f(x-1):

        prod_i L_i [forward_diff C] + sum_i n_i prod_{j != i} L_j [C] = 0

    (zero expected; the zero multi-index is degenerate and returns zero
    trivially)."""
    index = MultiIndex.coerce(index)
    poly = classical_build(index, alphas)

    def lower_op(p, alpha):
        # alpha f(x) - x f(x-1)
        return p.scale(alpha) - p.compose_affine(1, -1).times_x()

    lhs = poly.compose_affine(1, 1) - poly
    for alpha in alphas:
        lhs = lower_op(lhs, alpha)
    residual = lhs
    for i, ni in enumerate(index):
        if ni == 0:
            continue
        term = poly
        for j, alpha in enumerate(alphas):
            if j != i:
                term = lower_op(term, alpha)
        residual = residual + term.scale(ni)
    return list(residual.coeffs)


# ---------------------------------------------------------------------------
# dense reference for the linear-system oracle
# ---------------------------------------------------------------------------

def expanded_pairing(fall, k, i, ctx):
    """Lambda_i(p [s]^(k)) for a falling-basis p: the product expanded by
    `falling_mul_falling`, each [s]^(m) mapped to `normalized_moment`."""
    product = falling_mul_falling(fall, k, ctx).coeffs
    return sum((c * normalized_moment(i, m, ctx) for m, c in enumerate(product)), Fraction(0))


@functools.lru_cache(maxsize=None)
def gram_by_expansion(ctx, i, j, k):
    """Lambda_i([s]^(j) [s]^(k)), the unit polynomial [s]^(j) multiplied out
    by the factors of [s]^(k) and contracted with the moments; the
    reference for the three-term recurrence of the exact Gram table."""
    return expanded_pairing(LatticePoly.falling((Fraction(0),) * j + (Fraction(1),)), k, i, ctx)


def dense_oracle(index, ctx):
    """C_n by assembling the whole orthogonality system from the definition
    of the functionals and solving it from scratch by Gauss-Jordan
    elimination on exact rationals, pivoting on the first nonzero entry of
    each column.  It shares no Gram table, factors, memo entries or row order
    with `build_linear_system`, so the two agree only if the oracle's
    pairings and its bordered factorization are right.  Raises
    ConstructionError on a singular system."""
    index = MultiIndex.coerce(index)
    n = index.weight
    lead = ctx.q ** binom2(n)
    conditions = [(i, k) for i, ni in enumerate(index) for k in range(ni)]
    aug = [
        [gram_by_expansion(ctx, i, j, k) for j in range(n)]
        + [-lead * gram_by_expansion(ctx, i, n, k)]
        for i, k in conditions
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ConstructionError(f"singular orthogonality system for {index.parts}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [aug[r][c] - factor * aug[col][c] for c in range(n + 1)]
    solution = tuple(aug[i][n] / aug[i][i] for i in range(n))
    return from_falling_basis(LatticePoly.falling(solution + (lead,)), ctx)
