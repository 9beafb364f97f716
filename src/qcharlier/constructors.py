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
  On exact contexts it solves with LU factors that `_factors` borders from
  index to index along the lattice (the same system, factored
  incrementally); on float contexts with pivoted elimination.  Solutions
  and factors are kept once per distinct system (`active_key`), and the
  falling solution is kept beside the monomial polynomial.  Its rows, and
  on exact contexts its right-hand sides, are read from the Gram table of
  the memo scope (`MemoScope.pairing`).
* `build_rodrigues` - weight-conjugated iterated differences with the
  closed-form normalizing constant.
* `build_explicit_r2` - finite double sum in the falling basis (r = 2).
* `build_recurrence` - iterates the nearest-neighbor relation from C_0 = 1;
  on exact contexts in the falling basis, where multiplying by X is an
  exact rewrite and each pairing reads the Gram table without a basis
  change, converting only the result to monomials.

All four agree coefficient-for-coefficient on exact contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .latticefn import WeightedLatticeFn, rodrigues_elementary
from .qkernels import (
    FALLING,
    MONOMIAL,
    LatticePoly,
    MultiIndex,
    QContext,
    Scalar,
    active_key,
    binom2,
    falling_mul_falling,
    from_falling_basis,
    memo_scope,
    q_factorial,
    q_falling_number,
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
    """Lambda_i( p * [s]^(k) ) for p in either basis.

    On exact contexts this is sum_j c_j Lambda_i([s]^(j) [s]^(k)) over the
    falling coefficients c_j of p, each unit pairing read from the Gram
    table of the memo scope (`MemoScope.pairing`).  On float contexts the
    product is expanded by the factors of [s]^(k) and contracted with the
    normalized moments (alpha_i q)^m (`MemoScope.contract`), an operation
    order that the recorded `gen --q` output pins bit for bit.
    """
    scope = memo_scope(ctx.q, ctx.exact)
    fall = to_falling_basis(p, ctx)
    alpha = ctx.alphas[i]
    if ctx.exact:
        total = scope.zero
        for j, c in enumerate(fall.coeffs):
            total += c * scope.pairing(alpha, j, k)
        return total
    return scope.contract(falling_mul_falling(fall, k, ctx), alpha)


# ---------------------------------------------------------------------------
# linear-system construction (the oracle)
# ---------------------------------------------------------------------------

def build_linear_system(index, ctx: QContext, basis: str = MONOMIAL) -> QCharlierPoly:
    """The oracle.  With basis=FALLING the polynomial is the solution as
    the system gives it, in the falling basis, with no basis change."""
    index = MultiIndex.coerce(index)
    _check_index(index, ctx)
    poly = _linear_system_poly(ctx, index)[basis]
    return QCharlierPoly(ctx, index, poly, "linear_system")


@scoped_memo(key=active_key)
def _linear_system_poly(ctx: QContext, index: MultiIndex) -> dict:
    """C_index in both bases, {FALLING: solution, MONOMIAL: polynomial}.
    Kept once per `active_key`: contexts and indices that share a system
    share its solution."""
    n = index.weight
    if n == 0:
        return {FALLING: LatticePoly.one(FALLING), MONOMIAL: LatticePoly.one()}
    scope = memo_scope(ctx.q, ctx.exact)
    lead = ctx.q ** binom2(n)
    if ctx.exact:
        rhs = [-lead * scope.pairing(ctx.alphas[i], n, k) for i, k in _rows(index)]
        solution = _lu_solve(_factors(ctx, index), rhs)
    else:
        # floats keep the pivoted elimination and its operation order, which
        # the recorded `gen --q ... --method system` output pins bit for bit
        top = LatticePoly.falling((ctx.zero(),) * n + (lead,))
        rows = [
            [scope.pairing(ctx.alphas[i], j, k) for j in range(n)]
            for i, k in _rows(index)
        ]
        rhs = [-moment_pairing(top, k, i, ctx) for i, k in _rows(index)]
        solution = _solve(rows, rhs)
    fall = LatticePoly.falling(tuple(solution) + (lead,))
    poly = from_falling_basis(fall, ctx)
    if ctx.exact and (poly.degree != n or poly.leading != 1):
        raise ConstructionError(f"solution for {index.parts} is not monic of degree {n}")
    return {FALLING: fall, MONOMIAL: poly}


def _rows(index: MultiIndex):
    """The (component i, order k) of each orthogonality condition, in row order."""
    return [(i, k) for i, ni in enumerate(index) for k in range(ni)]


@scoped_memo(key=active_key)
def _factors(ctx: QContext, index: MultiIndex):
    """LU factors, without pivoting, of the exact oracle matrix of a nonzero
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
    degenerate guard (`_check_index`, before construction) rule out the
    known causes; a zero pivot that still occurs raises ConstructionError
    naming the multi-index and the row (i, k), i from 1.
    """
    scope = memo_scope(ctx.q, ctx.exact)
    rows = _rows(index)
    p, k = rows[-1]
    parent = index.down(p)
    lower, upper = _factors(ctx, parent) if parent.weight else ((), ())
    alpha, j = ctx.alphas[p], len(rows) - 1
    y = _forward(lower, [scope.pairing(ctx.alphas[i], j, ki) for i, ki in rows[:-1]])
    w = []
    for m, col in enumerate(upper):
        acc = scope.pairing(alpha, m, k)
        for wl, ul in zip(w, col):
            acc -= wl * ul
        w.append(acc / col[m])
    pivot = scope.pairing(alpha, j, k)
    for wl, yl in zip(w, y):
        pivot -= wl * yl
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
        for l, c in enumerate(row):
            acc -= c * z[l]
        z.append(acc)
    return z


def _lu_solve(factors, b):
    """x with L U x = b: one forward pass, then one back pass over the
    columns of U."""
    lower, upper = factors
    z = _forward(lower, b)
    x = [None] * len(z)
    for m in range(len(z) - 1, -1, -1):
        col = upper[m]
        x[m] = z[m] / col[m]
        for l in range(m):
            z[l] -= col[l] * x[m]
    return x


def _solve(rows, rhs):
    """Dense Gaussian elimination on floats, with partial pivoting by
    magnitude; the exact oracle solves through `_factors` instead.  Raises
    on a singular system."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ConstructionError("singular orthogonality system (degenerate parameters)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [aug[r][c] - factor * aug[col][c] for c in range(n + 1)]
    return [aug[i][n] / aug[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Rodrigues-type construction
# ---------------------------------------------------------------------------

def rodrigues_constant(index, ctx: QContext) -> Scalar:
    """Closed-form normalizing constant
    (-1)^|n| q^(-|n|/2) prod_i alpha_i^(n_i) prod_i q^(n_i * (n_i+...+n_r))."""
    index = MultiIndex.coerce(index)
    n = index.weight
    value = (-1) ** n * ctx.t ** (-n)
    for i, ni in enumerate(index):
        value *= ctx.alphas[i] ** ni
        value *= ctx.q ** (ni * index.suffix_weight(i))
    return value


def build_rodrigues(index, ctx: QContext) -> QCharlierPoly:
    index = MultiIndex.coerce(index)
    _check_index(index, ctx)
    fn = WeightedLatticeFn(ctx.one(), LatticePoly.one())
    for i, ni in enumerate(index):
        fn = rodrigues_elementary(fn, ctx.alphas[i], ni, ctx)
    if ctx.exact and fn.base != 1:
        raise ConstructionError(f"pipeline base drifted to {fn.base}")
    # multiplying by Gamma_q(s+1) clears the factorial denominator
    poly = fn.poly.scale(rodrigues_constant(index, ctx))
    if ctx.exact and (poly.degree != index.weight or poly.leading != 1):
        raise ConstructionError(f"pipeline result for {index.parts} is not monic")
    return QCharlierPoly(ctx, index, poly, "rodrigues")


# ---------------------------------------------------------------------------
# explicit double sum (r = 2)
# ---------------------------------------------------------------------------

def build_explicit_r2(n1: int, n2: int, ctx: QContext) -> QCharlierPoly:
    """Finite double sum in the falling basis, r = 2 only:

        C = (-a1)^n1 (-a2)^n2 q^(n1^2+n1*n2+n2^2) *
            sum_{k,l} [n1]^(k) [n2]^(l) / ([k]! [l]!) q^(C(k,2)+C(l,2))
                      (-q^-n1/a1)^k (-q^-n2/a2)^l [s]^(k+l).

    The sum is assembled so every half-integer lattice power cancels; the
    result is exactly the degree-(n1+n2) monic polynomial of the other
    constructors.
    """
    if ctx.r != 2:
        raise ValueError(f"explicit double-sum construction needs r = 2, context has r = {ctx.r}")
    index = MultiIndex((n1, n2))
    _check_index(index, ctx)
    a1, a2 = ctx.alphas
    prefactor = (
        (-a1) ** n1 * (-a2) ** n2 * ctx.q ** (n1 * n1 + n1 * n2 + n2 * n2)
    )
    fall = [ctx.zero()] * (n1 + n2 + 1)
    for k in range(n1 + 1):
        for l in range(n2 + 1):
            term = q_falling_number(n1, k, ctx) * q_falling_number(n2, l, ctx)
            term /= q_factorial(k, ctx) * q_factorial(l, ctx)
            term *= ctx.q ** (binom2(k) + binom2(l))
            term *= (-1) ** (k + l) * (ctx.q ** n1 * a1) ** (-k) * (ctx.q ** n2 * a2) ** (-l)
            fall[k + l] += term
    poly = from_falling_basis(LatticePoly.falling(fall), ctx).scale(prefactor)
    if ctx.exact and (poly.degree != index.weight or poly.leading != 1):
        raise ConstructionError(f"double sum for {index.parts} is not monic")
    return QCharlierPoly(ctx, index, poly, "explicit_r2")


# ---------------------------------------------------------------------------
# recurrence construction
# ---------------------------------------------------------------------------

def build_recurrence(index, ctx: QContext, path: Optional[Sequence[int]] = None) -> QCharlierPoly:
    """Iterate the nearest-neighbor relation from C_0 = 1 along `path`
    (a sequence of 0-based component indices; any order reaching `index`).

    Lower neighbors off the walked chain are built through the same
    recurrence (memoized per context), never through the linear system, so
    this route stays independent of the oracle.  The result is
    path-independent, exactly.
    """
    index = MultiIndex.coerce(index)
    _check_index(index, ctx)
    if path is None:
        poly = _recurrence_poly(ctx, index)
        return QCharlierPoly(ctx, index, from_falling_basis(poly, ctx), "recurrence")
    path = [int(k) for k in path]
    counts = [0] * ctx.r
    for k in path:
        if not 0 <= k < ctx.r:
            raise ValueError(f"path component {k} out of range for r = {ctx.r}")
        counts[k] += 1
    if tuple(counts) != index.parts:
        raise ValueError(f"path {path} does not lead from 0 to {index.parts}")
    current = MultiIndex((0,) * ctx.r)
    poly = _recurrence_poly(ctx, current)
    for k in path:
        poly = _recurrence_step(ctx, current, k, poly)
        current = current.up(k)
    return QCharlierPoly(ctx, index, from_falling_basis(poly, ctx), "recurrence")


@scoped_memo()
def _recurrence_poly(ctx: QContext, index: MultiIndex) -> LatticePoly:
    """C_index by the recurrence, in the falling basis on exact contexts and
    in the monomial basis on float ones."""
    if index.weight == 0:
        return LatticePoly.one(FALLING if ctx.exact else MONOMIAL)
    k = next(i for i, ni in enumerate(index) if ni > 0)
    prev = index.down(k)
    return _recurrence_step(ctx, prev, k, _recurrence_poly(ctx, prev))


def _recurrence_step(ctx: QContext, prev: MultiIndex, k: int, prev_poly: LatticePoly) -> LatticePoly:
    # C_{m+e_k} = (X - b) C_m - sum_i d_i C_{m-e_i}
    from .relations import nn_recurrence_coeffs

    def recurrence_builder(m, c):
        m = MultiIndex.coerce(m)
        if m.parts == prev.parts:
            return prev_poly
        return _recurrence_poly(c, m)

    coeffs = nn_recurrence_coeffs(prev, k, ctx, builder=recurrence_builder)
    if ctx.exact:
        # X [s]^(m) = q^m [s]^(m+1) + x(m) [s]^(m), the first factor of [s]^(1)
        times_x = falling_mul_falling(prev_poly, 1, ctx)
    else:
        times_x = prev_poly.times_x()
    out = times_x - prev_poly.scale(coeffs.b)
    for i, di in enumerate(coeffs.d):
        if di != 0:
            out = out - _recurrence_poly(ctx, prev.down(i)).scale(di)
    return out


def build(index, ctx: QContext, method: str = "linear_system") -> QCharlierPoly:
    """Dispatch by method name (the CLI entry point uses this)."""
    index = MultiIndex.coerce(index)
    if method == "linear_system":
        return build_linear_system(index, ctx)
    if method == "rodrigues":
        return build_rodrigues(index, ctx)
    if method == "recurrence":
        return build_recurrence(index, ctx)
    if method == "explicit_r2":
        if len(index) != 2:
            raise ValueError("explicit_r2 needs a two-component multi-index")
        return build_explicit_r2(index[0], index[1], ctx)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _check_index(index: MultiIndex, ctx: QContext) -> None:
    if len(index) != ctx.r:
        raise ValueError(
            f"multi-index has {len(index)} components but the context has r = {ctx.r}"
        )
    ctx.require_nondegenerate(index)
