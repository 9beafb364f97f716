"""Exact isolation of the positive real roots of a polynomial.

The coefficients are read as exact rationals and scaled to integers, so every
decision below is the sign of an integer.  A power of two above the Cauchy
bound scales the roots into (0, 1), where Descartes' rule of signs with
bisection isolates them (Collins-Akritas 1976; Rouillier-Zimmermann,
J. Comput. Appl. Math. 162, 2004): the sign variations of
(x + 1)^n P(1/(x + 1)) bound the number of roots of P in (0, 1) and decide a
cell when they are 0 or 1.  Each isolating interval is then bisected at
dyadic points until both of its ends round to the same double, so every
returned float is the correctly rounded value of a true root.
"""

from __future__ import annotations

import math
from fractions import Fraction


class RootCountError(RuntimeError):
    """The polynomial does not have the expected number of simple positive roots."""


def _variations(coeffs) -> int:
    """Sign variations of the nonzero coefficients."""
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(coeffs) -> list:
    """Coefficients of P(x + 1), lowest degree first."""
    shifted = list(coeffs)
    n = len(shifted) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return shifted


def _sign_at(coeffs, m: int, e: int) -> int:
    """Sign of the integer polynomial at the dyadic point m / 2**e."""
    n = len(coeffs) - 1
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        acc = acc * m + (coeffs[i] << (e * (n - i)))
    return (acc > 0) - (acc < 0)


def _refine(b, k: int, m: int, e: int, sign_lo: int) -> float:
    """Correctly rounded root of b(x / 2**k) from the one simple root of b in
    (m / 2**e, (m + 1) / 2**e); b has sign `sign_lo` just right of the left end."""
    while (m << k) / (1 << e) != ((m + 1) << k) / (1 << e):
        m, e = 2 * m + 1, e + 1
        sign = _sign_at(b, m, e)
        if sign == 0:
            break
        if sign != sign_lo:
            m -= 1
    return (m << k) / (1 << e)


def find_positive_roots(coeffs, expected: int) -> list:
    """The `expected` simple roots in (0, oo) of the polynomial with these
    coefficients (lowest degree first; Fractions, ints or floats, all read
    exactly), ascending and correctly rounded to doubles.

    Fails at once, by Descartes' rule of signs, when the coefficients have
    fewer sign variations than `expected`, and with `RootCountError` whenever
    the isolated roots do not number `expected` or a root is repeated."""
    coeffs = [Fraction(c) for c in coeffs]
    if expected == 0:
        return []
    n = len(coeffs) - 1
    if n != expected:
        raise ValueError(f"degree {n} polynomial cannot have {expected} roots")
    variations = _variations(coeffs)
    if variations < expected:
        raise RootCountError(
            f"{variations} coefficient sign variations bound the positive roots "
            f"(Descartes' rule of signs), fewer than the {expected} expected"
        )
    # from here on a_0 and a_n are nonzero: otherwise fewer variations
    scale = math.lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (scale // c.denominator) for c in coeffs]
    # every root has modulus below 1 + max|a_i / a_n| <= 2**k
    k = (max(abs(c) for c in a[:-1]) // abs(a[-1]) + 1).bit_length()
    b = [c << (k * i) for i, c in enumerate(a)]
    # Mahler-Mignotte: distinct roots of a squarefree a lie further apart than
    # 2**(1 + k - depth_limit), where every cell has at most one variation
    width = max(abs(c) for c in a).bit_length() + n.bit_length()
    depth_limit = k + 2 + (n + 1) * width

    roots = []
    cells = [(0, 0, b)]  # (c, d, P): P(x) is b((x + c) / 2**d) up to a positive factor
    while cells:
        c, d, p = cells.pop()
        count = _variations(_taylor_shift(p[::-1]))
        if count == 1:
            roots.append(_refine(b, k, c, d, 1 if p[0] > 0 else -1))
        if count <= 1:
            continue
        if d == depth_limit:
            raise RootCountError(f"repeated root near {(c << k) / (1 << d)}")
        degree = len(p) - 1
        left = [x << (degree - i) for i, x in enumerate(p)]
        right = _taylor_shift(left)
        if right[0] == 0:
            # a root sits exactly on the split point
            roots.append(((2 * c + 1) << k) / (1 << (d + 1)))
            right = right[1:]
            if right[0] == 0:
                raise RootCountError(f"repeated root at {roots[-1]}")
        cells += [(2 * c, d + 1, left), (2 * c + 1, d + 1, right)]

    if len(roots) != expected:
        raise RootCountError(f"isolated {len(roots)} positive roots for {expected} expected")
    return sorted(roots)
