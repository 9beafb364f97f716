"""Real root extraction for the float backend.

The polynomials at hand have all their roots real, simple, and in (0, oo);
one root sits geometrically close to the origin (the measures put their
largest mass on the lattice point x = 0) while the rest spread out toward
the accumulation point of the lattice.  The scan grid is therefore a hybrid:
a linear sweep over (0, R] with a Cauchy-type upper bound R, plus a
geometric tail of points reaching far below the smallest linear cell so the
near-zero root is bracketed too.  Brackets are refined by bisection; the
grid is densified until exactly the expected number of brackets shows up.
"""

from __future__ import annotations

BISECTION_TOL = 1e-10
MIN_GAP = 1e-8
GEOMETRIC_FLOOR = 1e-25

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker coefficient splitting


class RootCountError(RuntimeError):
    """Bracketing did not isolate the expected number of simple roots."""


def _two_prod(a, b):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _two_sum(a, b):
    s = a + b
    z = s - a
    err = (a - (s - z)) + (b - z)
    return s, err


def _eval(coeffs, x):
    """Compensated Horner: roughly quadruple-precision accumulation, so sign
    decisions survive the severe cancellation of clustered high-degree
    evaluation (plain double Horner loses the sign structure by degree 10)."""
    acc = coeffs[-1]
    compensation = 0.0
    for c in reversed(coeffs[:-1]):
        product, product_err = _two_prod(acc, x)
        acc, sum_err = _two_sum(product, c)
        compensation = compensation * x + (product_err + sum_err)
    return acc + compensation


def root_upper_bound(coeffs) -> float:
    """Upper bound on root magnitudes from the coefficients: the smaller of
    the Cauchy bound 1 + max|a_i/a_n| and the Fujiwara bound
    2 max_k |a_{n-k}/a_n|^(1/k) (the latter is what keeps the scan grid fine
    enough when midrange coefficients are large)."""
    if len(coeffs) <= 1:
        return 1.0
    lead = abs(coeffs[-1])
    cauchy = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead
    n = len(coeffs) - 1
    fujiwara = 2.0 * max(
        (abs(coeffs[n - k]) / lead) ** (1.0 / k) for k in range(1, n + 1)
    )
    return min(cauchy, fujiwara)


def _scan_grid(upper: float, points: int):
    linear = [upper * i / points for i in range(1, points + 1)]
    first = linear[0]
    tail = []
    x = first
    while x > GEOMETRIC_FLOOR:
        x /= 10.0
        for mantissa in (5.0, 2.0, 1.0):
            tail.append(x * mantissa)
    grid = sorted(set(tail + linear))
    return grid


def find_positive_roots(coeffs, expected: int, min_gap: float = MIN_GAP) -> list:
    """All `expected` simple roots in (0, oo) of the polynomial with these
    float coefficients.

    Bisection stops at a bracket width of 1e-10, but that bounds the error
    only against the float coefficients.  Against an exact polynomial whose
    coefficients were rounded to floats, the larger roots drift much
    further: by up to 6e-5 at n = (12), q = 0.74, alpha = 0.35, and by 1e-5
    at n = (6, 6), q = 0.74, alpha = (0.35, 0.55).

    Fails at once, by Descartes' rule of signs, when the coefficients have
    fewer sign variations than `expected`.  Asserts the count, positivity,
    and a minimum pairwise gap (default 1e-8, which the families at desk
    scale satisfy with a wide margin)."""
    coeffs = [float(c) for c in coeffs]
    if expected == 0:
        return []
    if len(coeffs) - 1 != expected:
        raise ValueError(f"degree {len(coeffs) - 1} polynomial cannot have {expected} roots")
    signs = [c > 0 for c in coeffs if c != 0]
    variations = sum(a != b for a, b in zip(signs, signs[1:]))
    if variations < expected:
        raise RootCountError(
            f"{variations} coefficient sign variations bound the positive roots "
            f"(Descartes' rule of signs), fewer than the {expected} expected"
        )
    upper = root_upper_bound(coeffs)
    points = 128 * expected
    while True:
        grid = [0.0] + _scan_grid(upper, points)
        values = [_eval(coeffs, x) for x in grid]
        brackets = []
        for i in range(1, len(grid)):
            left, right = values[i - 1], values[i]
            if right == 0.0:
                brackets.append((grid[i], grid[i]))
            elif left != 0.0 and (left < 0) != (right < 0):
                brackets.append((grid[i - 1], grid[i]))
        if len(brackets) == expected:
            break
        if points > 2_000_000:
            raise RootCountError(
                f"found {len(brackets)} sign changes for {expected} expected roots"
            )
        points *= 4
    roots = [a if a == b else _bisect(coeffs, a, b) for a, b in brackets]
    roots.sort()
    if roots[0] <= 0:
        raise RootCountError(f"root {roots[0]} is not positive")
    for left, right in zip(roots, roots[1:]):
        if right - left <= min_gap:
            raise RootCountError(f"roots {left} and {right} closer than {min_gap}")
    return roots


def _bisect(coeffs, a, b):
    fa = _eval(coeffs, a)
    if fa == 0:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = _eval(coeffs, mid)
        if fm == 0 or (b - a) < BISECTION_TOL:
            return mid
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)
