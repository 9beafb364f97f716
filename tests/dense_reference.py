"""Independent dense reference for the linear-system oracle.

Assembles the whole orthogonality system of a multi-index from the
definition of the functionals: each entry expands [s]^(j) [s]^(k) in the
falling basis with `falling_mul_falling` and contracts it with the moments
(alpha_i q)^m, computed here.  It solves the system from scratch by
Gauss-Jordan elimination on exact rationals, pivoting on the first nonzero
entry of each column.  It shares no Gram table, factors, memo entries or
row order with `build_linear_system`, so the two agree only if the oracle's
pairings and its bordered factorization are right."""

import functools
from fractions import Fraction

from qcharlier.constructors import ConstructionError
from qcharlier.qkernels import (
    LatticePoly,
    MultiIndex,
    binom2,
    falling_mul_falling,
    from_falling_basis,
)


def expanded_pairing(fall, k, i, ctx):
    """Lambda_i(p [s]^(k)) for a falling-basis p: the product expanded by
    `falling_mul_falling`, each [s]^(m) mapped to (alpha_i q)^m."""
    product = falling_mul_falling(fall, k, ctx).coeffs
    step = ctx.alphas[i] * ctx.q
    return sum((c * step ** m for m, c in enumerate(product)), Fraction(0))


@functools.lru_cache(maxsize=None)
def _pairing(ctx, i, j, k):
    """Lambda_i([s]^(j) [s]^(k))."""
    return expanded_pairing(LatticePoly.falling((Fraction(0),) * j + (Fraction(1),)), k, i, ctx)


def dense_oracle(index, ctx) -> LatticePoly:
    """C_n by assembling and solving the dense system; raises
    ConstructionError on a singular one."""
    index = MultiIndex.coerce(index)
    n = index.weight
    lead = ctx.q ** binom2(n)
    conditions = [(i, k) for i, ni in enumerate(index) for k in range(ni)]
    aug = [
        [_pairing(ctx, i, j, k) for j in range(n)] + [-lead * _pairing(ctx, i, n, k)]
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
