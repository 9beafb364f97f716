"""Classical multiple Charlier polynomials on the unit lattice.

Reference family used as the q -> 1 limit target.  Construction goes
through the recurrence

    x C_n = C_{n+e_k} + (alpha_k + |n|) C_n + sum_i alpha_i n_i C_{n-e_i}

from C_0 = 1 (path-independent).  The tests check the family against the
(r+1)-order difference identity built from the weight-conjugated backward
operator L_i f = alpha_i f(x) - x f(x-1):

    prod_i L_i [forward_diff C] + sum_i n_i prod_{j != i} L_j [C] = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .qkernels import LatticePoly, MultiIndex


def classical_build(index, alphas, path: Optional[Sequence[int]] = None) -> LatticePoly:
    """The monic C_n in the monomial basis, built along `path` (0-based
    component indices reaching `index`; by default component by component)."""
    index = MultiIndex.coerce(index)
    alphas = tuple(alphas)
    if len(alphas) != len(index):
        raise ValueError("one weight parameter per multi-index component required")
    if len(set(alphas)) != len(alphas) or any(a <= 0 for a in alphas):
        raise ValueError("weight parameters must be positive and pairwise distinct")
    if path is None:
        path = [i for i, ni in enumerate(index) for _ in range(ni)]
    path = index.walk(path)

    one = Fraction(1) if isinstance(alphas[0], Fraction) else 1.0
    table = {(0,) * len(index): LatticePoly.monomial((one,))}

    def get(parts):
        if parts not in table:
            # canonical fill for off-path lower neighbors
            k = next(i for i, p in enumerate(parts) if p > 0)
            prev = list(parts)
            prev[k] -= 1
            table[parts] = _step(tuple(prev), k)
        return table[parts]

    def _step(prev_parts, k):
        prev = get(prev_parts)
        weight = sum(prev_parts)
        out = prev.times_x() - prev.scale(alphas[k] + weight)
        for i, pi in enumerate(prev_parts):
            if pi > 0:
                down = list(prev_parts)
                down[i] -= 1
                out = out - get(tuple(down)).scale(alphas[i] * pi)
        return out

    current = (0,) * len(index)
    for k in path:
        nxt = list(current)
        nxt[k] += 1
        table[tuple(nxt)] = _step(current, k)
        current = tuple(nxt)
    return table[index.parts]
