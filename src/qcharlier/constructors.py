"""Four independent constructions of the monic q-deformed multiple Charlier
polynomial, plus the formal moment functional behind the linear-system oracle.

The defining data is a context (t, q = t^2, alpha_1..alpha_r) and a
multi-index n.  The polynomial C_n is monic of degree |n| in X = x(s) and
kills the functionals

    Lambda_i( C * [s]^(k) ) = 0   for 0 <= k < n_i, i = 1..r,

where Lambda_i maps [s]^(m) to the normalized moment (alpha_i q)^m.  That
moment value comes from telescoping the weighted sum of [s]^(m): substituting
s = m + u turns it into alpha^m q^(m-1/2) * E(alpha q) with
E(z) = sum_u z^u/[u]_q!, and dividing out the m-independent factor
q^(-1/2) E(alpha q) leaves (alpha q)^m, which is all the homogeneous
orthogonality conditions can see.

Construction routes:

* `build_linear_system` - ground truth; encodes only the definition above.
  It solves with LU factors that `_factors` borders from index to index
  along the lattice (the same system, factored incrementally).  Solutions
  and factors are kept once per distinct system (`active_key`), and the
  falling solution is kept beside the monomial polynomial.  Its rows and
  right-hand sides are read from the Gram table of the memo scope
  (`MemoScope.gram`), and every inner product of the solve is one exact
  sum (`qkernels.dot`).
* `build_rodrigues` - weight-conjugated iterated differences with the
  closed-form normalizing constant.
* `build_explicit` - finite r-fold sum in the falling basis (every r),
  the convolution of one one-index sequence per component.
* `build_recurrence` - iterates the nearest-neighbor relation from C_0 = 1
  in the falling basis, one step of `qkernels.falling_recurrence` (the
  kernel the recurrence checks call) each, its polynomials kept once per
  `active_key`; it converts only the result to monomials.  On exact
  contexts it keeps the integer polynomials T(n) C_n, T(n) the known
  denominator, and each step is one exact `falling_recurrence`.

Float contexts run the same algorithms as exact ones, in floats: the same
Gram recurrence, the same bordered LU and the same falling basis.
All four agree coefficient-for-coefficient on exact contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .latticefn import WeightedLatticeFn, rodrigues_elementary
from .qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    QContext,
    Scalar,
    binom2,
    _integer,
    dot,
    falling_order,
    falling_recurrence,
    from_falling_basis,
    memo_scope,
    scoped_memo,
    to_falling_basis,
)

METHODS = ("rodrigues", "explicit_r2", "linear_system", "recurrence")


@dataclass(frozen=True)
class QCharlierPoly:
    """A constructed polynomial together with its provenance."""

    ctx: QContext
    index: MultiIndex
    poly: LatticePoly
    method: str


class ConstructionError(RuntimeError):
    """A construction invariant (monicity, solvability, base bookkeeping) failed."""


def moment_pairing(p: LatticePoly, k: int, i: int, ctx: QContext) -> Scalar:
    """Lambda_i( p * [s]^(k) ) for p in either basis: the sum of
    c_j Lambda_i([s]^(j) [s]^(k)) over the falling coefficients c_j of p.

    Exact contexts sum integers: with q = u/w and alpha_i = a/b in lowest
    terms, the Gram table holds G(j, k) = g(j, k)/(b^(j+k) w^(jk+j+k))
    (`MemoScope.gram_numerators`), so with p_j/D the falling pair of p and
    J the top degree, the pairing is the sum of p_j g(j, k) (b w^(k+1))^(J-j)
    over D b^(J+k) w^(Jk+J+k), one `Fraction`.
    Float contexts read the float Gram table (`MemoScope.gram`) and sum
    with `qkernels.dot`.
    """
    scope = memo_scope(ctx.q, ctx.exact)
    k, alpha = falling_order(k), ctx.alphas[check_component(i, ctx)]
    fall = to_falling_basis(p, ctx)
    if not ctx.exact:
        gram, coeffs = scope.gram(alpha), fall.coeffs
        return dot(coeffs, [gram(j, k) for j in range(len(coeffs))], scope.zero)
    if fall.is_zero:
        return scope.zero
    gram = scope.gram_numerators(alpha)
    numerators, scale = fall.numerators, fall.denominator
    b, w, top = alpha.denominator, ctx.q.denominator, fall.degree
    step, factor, total = b * w ** (k + 1), 1, 0
    for j in range(top, -1, -1):
        if numerators[j]:
            total += numerators[j] * gram(j, k) * factor
        factor *= step
    return Fraction(total, scale * b ** (top + k) * w ** (top * k + top + k))


# ---------------------------------------------------------------------------
# linear-system construction (the oracle)
# ---------------------------------------------------------------------------

def build_linear_system(index, ctx: QContext, basis: str = MONOMIAL) -> QCharlierPoly:
    """The oracle.  With basis=FALLING the polynomial is the solution as
    the system gives it, in the falling basis, with no basis change."""
    index = check_index(index, ctx)
    ctx.require_nondegenerate(index)
    poly = _linear_system_poly(ctx, index)[basis]
    return QCharlierPoly(ctx, index, poly, "linear_system")


@scoped_memo
def _linear_system_poly(ctx: QContext, index: MultiIndex) -> dict:
    """C_index in both bases, {FALLING: solution, MONOMIAL: polynomial}.
    Kept once per `active_key`: contexts and indices that share a system
    share its solution."""
    n = index.weight
    if n == 0:
        return {basis: LatticePoly(basis, (ctx.one(),)) for basis in (FALLING, MONOMIAL)}
    scope = memo_scope(ctx.q, ctx.exact)
    lead = ctx.q ** binom2(n)
    grams = [scope.gram(a) for a in ctx.alphas]
    rhs = [-lead * grams[i](n, k) for i, k in _rows(index)]
    solution = _lu_solve(_factors(ctx, index), rhs)
    fall = LatticePoly.falling(tuple(solution) + (lead,))
    poly = _monic(from_falling_basis(fall, ctx), index, ctx, "linear_system")
    return {FALLING: fall, MONOMIAL: poly}


def _rows(index: MultiIndex):
    """The (component i, order k) of each orthogonality condition, in row order."""
    return [(i, k) for i, ni in enumerate(index) for k in range(ni)]


@scoped_memo
def _factors(ctx: QContext, index: MultiIndex):
    """LU factors, without pivoting, of the oracle matrix of a nonzero
    `index` (rows `_rows(index)`, columns j < |n|, entries
    Lambda_i([s]^(j)[s]^(k))).

    Returns (lower, upper): row m of L left of its unit diagonal, and column
    m of U down to its diagonal.  Removing the last row and column of the
    matrix of `index` leaves that of its parent index.down(p), p the last
    nonzero component, so the factors border the parent's, which come from
    the recursion (the zero index has empty factors and no memo entry).
    With u the new column over the parent's rows, v the new row over the
    parent's columns and a the corner entry, the new column of U is
    y = L^-1 u, the new row of L is w with w U = v, and the new pivot is
    a - w.y.  No row is swapped, so the rows keep the order of `_rows`.
    Entries are keyed by `active_key`, which fixes the matrix, so an index
    shares its factors with every index and context of the same key.  A
    zero pivot means a singular leading block.  The ratio guard and the
    degenerate guard (`require_nondegenerate`, before construction) rule out
    the known causes; a zero pivot that still occurs raises ConstructionError
    naming the multi-index and the row (i, k), i from 1.
    """
    scope = memo_scope(ctx.q, ctx.exact)
    rows = _rows(index)
    p, k = rows[-1]
    parent = index.down(p)
    lower, upper = _factors(ctx, parent) if parent.weight else ((), ())
    grams = [scope.gram(a) for a in ctx.alphas]
    gram, j = grams[p], len(rows) - 1
    y = _forward(lower, [grams[i](j, ki) for i, ki in rows[:-1]])
    w = []
    for m, col in enumerate(upper):
        w.append(dot(w, col, gram(m, k), -1) / col[m])
    pivot = dot(w, y, gram(j, k), -1)
    if pivot == 0:
        raise ConstructionError(
            f"singular orthogonality system for {index.parts}: the pivot of row "
            f"(i, k) = ({p + 1}, {k}) vanishes (degenerate parameters)"
        )
    return lower + (tuple(w),), upper + (tuple(y) + (pivot,),)


def _forward(lower, b):
    """z with L z = b, L unit lower triangular."""
    z = []
    for row, acc in zip(lower, b):
        z.append(dot(row, z, acc, -1))
    return z


def _lu_solve(factors, b):
    """x with L U x = b: one forward pass, then one back pass, row by row
    from the bottom: x_m = (z_m - sum_{l > m} U[l][m] x_l) / U[m][m], l
    descending (`upper` holds the columns of U)."""
    lower, upper = factors
    z = _forward(lower, b)
    n = len(z)
    x = [None] * n
    for m in range(n - 1, -1, -1):
        later = range(n - 1, m, -1)
        x[m] = dot([upper[l][m] for l in later], [x[l] for l in later], z[m], -1) / upper[m][m]
    return x


# ---------------------------------------------------------------------------
# Rodrigues-type construction
# ---------------------------------------------------------------------------

def rodrigues_constant(index, ctx: QContext) -> Scalar:
    """Closed-form normalizing constant
    (-1)^|n| q^(-|n|/2) prod_i alpha_i^(n_i) prod_i q^(n_i * (n_i+...+n_r))."""
    index = check_index(index, ctx)
    n = index.weight
    value = (-1) ** n * ctx.t ** (-n)
    for i, ni in enumerate(index):
        value *= ctx.alphas[i] ** ni
        value *= ctx.q ** (ni * index.suffix_weight(i))
    return value


def build_rodrigues(index, ctx: QContext) -> QCharlierPoly:
    index = check_index(index, ctx)
    ctx.require_nondegenerate(index)
    fn = WeightedLatticeFn(ctx.one(), LatticePoly.one())
    for i, ni in enumerate(index):
        fn = rodrigues_elementary(fn, ctx.alphas[i], ni, ctx)
    if ctx.exact and fn.base != 1:
        raise ConstructionError(f"pipeline base drifted to {fn.base}")
    # multiplying by Gamma_q(s+1) clears the factorial denominator
    poly = fn.poly.scale(rodrigues_constant(index, ctx))
    return QCharlierPoly(ctx, index, _monic(poly, index, ctx, "rodrigues"), "rodrigues")


# ---------------------------------------------------------------------------
# explicit r-fold sum
# ---------------------------------------------------------------------------

def build_explicit(index, ctx: QContext) -> QCharlierPoly:
    """Finite r-fold sum in the falling basis (a q-analogue of Appell's F2):

        C = prod_i (-a_i)^(n_i) q^D(n) sum_{k <= n} prod_i A_i(k_i) [s]^(|k|),
        A_i(k) = [n_i]^(k)/[k]! q^C(k,2) (-q^-n_i/a_i)^k,

    D(n) = sum_{i <= j} n_i n_j.  The summand is separable: the falling
    coefficients are the convolution of A_1, ..., A_r in that order, each A_i
    built by the ratio x(n_i-k+1)/x(k) q^(k-1) (-q^-n_i/a_i) per term, on an
    exact context the integer ratio -N_(n-k+1) u^(k-1) w^k b/(N_k u^n a) of
    integers over (u^n a)^n (q = u/w, a_i = a/b).  The prefactor is a running
    product from i = 1 times q^D last, which keeps the float digits of the
    r = 2 double sum; half-integer powers cancel.
    """
    index = check_index(index, ctx)
    ctx.require_nondegenerate(index)
    scope = memo_scope(ctx.q, ctx.exact)

    def terms(n, alpha):
        if ctx.exact:
            u, w = ctx.q.numerator, ctx.q.denominator
            a, b = alpha.numerator, alpha.denominator
            lattice = [(u ** k - w ** k) // (u - w) for k in range(n + 1)]  # N_k
            out = [(u ** n * a) ** n]
            for k in range(1, n + 1):
                out.append(-out[-1] * lattice[n - k + 1] * u ** (k - 1) * w ** k * b // (lattice[k] * u ** n * a))
            return LatticePoly.pair(MONOMIAL, out, out[0])
        step = -scope.qpow(-n) / alpha
        out = [ctx.one()]
        for k in range(1, n + 1):
            out.append(out[-1] * (scope.x(n - k + 1) / scope.x(k) * scope.qpow(k - 1) * step))
        return LatticePoly.monomial(out)

    (n, a), *rest = zip(index, ctx.alphas)
    fall, prefactor = terms(n, a), (-a) ** n
    for n, a in rest:
        fall, prefactor = fall * terms(n, a), prefactor * (-a) ** n
    prefactor *= ctx.q ** ((index.weight ** 2 + sum(n * n for n in index)) // 2)
    # the convolution's coefficients, read in the falling basis
    if ctx.exact:
        fall = LatticePoly.pair(FALLING, fall.numerators, fall.denominator, reduced=True)
    poly = from_falling_basis(fall if ctx.exact else LatticePoly.falling(fall.coeffs), ctx).scale(prefactor)
    return QCharlierPoly(ctx, index, _monic(poly, index, ctx, "explicit_r2"), "explicit_r2")


# the benchmark's span is named after the r = 2 route and traces this object
build_explicit_r2 = build_explicit


# ---------------------------------------------------------------------------
# recurrence construction
# ---------------------------------------------------------------------------

def build_recurrence(index, ctx: QContext, path: Optional[Sequence[int]] = None) -> QCharlierPoly:
    """Iterate the nearest-neighbor relation from C_0 = 1 along `path`
    (a sequence of 0-based component indices; any order reaching `index`).

    Lower neighbors off the walked chain are built through the same
    recurrence (memoized per `active_key`), never through the linear system, so
    this route stays independent of the oracle.  The result is
    path-independent, exactly.  On exact contexts every step works on the
    integer polynomials T(m) C_m (`_recurrence_poly`), and only the result
    is divided by T(index).
    """
    index = check_index(index, ctx)
    ctx.require_nondegenerate(index)
    if path is None:
        poly = _recurrence_poly(ctx, index)
    else:
        current, poly = MultiIndex((0,) * ctx.r), LatticePoly.one(FALLING)
        for k in index.walk(path):
            poly = _recurrence_step(ctx, current, k, poly)
            current = current.up(k)
    if ctx.exact:
        poly = poly.scale(Fraction(1, _known_denominator(ctx, index)))
    poly = from_falling_basis(poly, ctx)
    return QCharlierPoly(ctx, index, _monic(poly, index, ctx, "recurrence"), "recurrence")


def _known_denominator(ctx: QContext, index: MultiIndex) -> int:
    """T(n) = w^D(n) prod_i b_i^(n_i), with q = u/w and alpha_i = a_i/b_i in
    lowest terms and D(n) = sum_{i <= j} n_i n_j: T(n) C_n has integer
    falling coefficients.  It reads only q and `active_key`."""
    value = ctx.q.denominator ** ((index.weight ** 2 + sum(n * n for n in index)) // 2)
    for a, n in zip(ctx.alphas, index):
        value *= a.denominator ** n
    return value


@scoped_memo
def _recurrence_poly(ctx: QContext, index: MultiIndex) -> LatticePoly:
    """C_index by the recurrence, in the falling basis; on exact contexts
    the integer polynomial T(index) C_index (`_known_denominator`)."""
    if index.weight == 0:
        return LatticePoly.one(FALLING)
    k = next(i for i, ni in enumerate(index) if ni > 0)
    prev = index.down(k)
    return _recurrence_step(ctx, prev, k, _recurrence_poly(ctx, prev))


def _recurrence_step(ctx: QContext, prev: MultiIndex, k: int, prev_poly: LatticePoly) -> LatticePoly:
    """C_{m+e_k} = X C_m - b C_m - sum_i d_i C_{m-e_i}, m = prev; the d_i
    read the same polynomials the step subtracts, C_m and its down
    neighbors.

    On exact contexts those are the integer P_m = T(m) C_m, so the d_i come
    back as d_i T(m)/T(m-e_i), and the step is

        P_{m+e_k} = w^(|m|+m_k+1) b_k (X P_m - b P_m - sum_i d_i P_{m-e_i}),

    since T(m+e_k)/T(m) = w^(|m|+m_k+1) b_k.  The reduced pair of
    `falling_recurrence` times that integer is an integer polynomial exactly
    when its denominator divides the integer; otherwise the step is wrong,
    and raises ConstructionError naming the index."""
    from .relations import nn_recurrence_coeffs

    downs = [(i, prev.down(i)) for i, ni in enumerate(prev.parts) if ni]
    table = {prev: prev_poly, **{m: _recurrence_poly(ctx, m) for _, m in downs}}
    coeffs = nn_recurrence_coeffs(prev, k, ctx, builder=lambda m, _: table[m])
    terms = [(coeffs.b, prev_poly)] + [(coeffs.d[i], table[m]) for i, m in downs]
    step = falling_recurrence(prev_poly, terms, ctx)
    if not ctx.exact:
        return step
    scale = ctx.q.denominator ** (prev.weight + prev[k] + 1) * ctx.alphas[k].denominator
    factor, rest = divmod(scale, step.denominator)
    if rest:
        raise ConstructionError(f"recurrence step to {prev.up(k).parts}: T(n) C_n is not an integer polynomial")
    return LatticePoly.pair(FALLING, [c * factor for c in step.numerators], 1)


def build(index, ctx: QContext, method: str = "linear_system") -> QCharlierPoly:
    """Dispatch by method name (the CLI uses this); "explicit_r2" is the explicit route, any r."""
    index = MultiIndex.coerce(index)
    if method == "linear_system":
        return build_linear_system(index, ctx)
    if method == "rodrigues":
        return build_rodrigues(index, ctx)
    if method == "recurrence":
        return build_recurrence(index, ctx)
    if method == "explicit_r2":
        return build_explicit(index, ctx)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def check_index(index, ctx: QContext, *components: int) -> MultiIndex:
    """`index` as a MultiIndex with one part per weight parameter of ctx,
    each of `components` (0-based) naming one of those parts."""
    index = MultiIndex.coerce(index)
    if len(index) != ctx.r:
        raise ValueError(
            f"multi-index has {len(index)} components but the context has r = {ctx.r}"
        )
    for k in components:
        check_component(k, ctx)
    return index


def check_component(i: int, ctx: QContext) -> int:
    """0-based component i as an int, refused unless one of the r parts of ctx."""
    i = _integer(i, "component")
    if not 0 <= i < ctx.r:
        raise ValueError(f"component {i} out of range for r = {ctx.r}")
    return i


def _monic(poly: LatticePoly, index: MultiIndex, ctx: QContext, method: str) -> LatticePoly:
    """poly, checked to be monic of degree |n| on exact contexts."""
    if ctx.exact and (poly.degree != index.weight or poly.numerators[-1] != poly.denominator):
        raise ConstructionError(
            f"{method} result for {index.parts} is not monic of degree {index.weight}"
        )
    return poly
