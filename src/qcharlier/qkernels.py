"""q-calculus primitives on the exponential lattice x(s) = (q^s - 1)/(q - 1).

Everything here is generic over the scalar backend carried by `QContext`:
exact contexts hold `Fraction` values of t (with q = t**2 so that the
half-integer lattice powers q**(1/2) stay inside the rational field), while
approximate contexts hold floats.  The module provides the one polynomial
type of the package (`LatticePoly`), q-integers and q-factorials, and the
degree-triangular change of basis between monomials in X = x(s) and the
falling-factorial polynomials [s]^(k) = x(s) x(s-1) ... x(s-k+1).

The falling-basis kernels read their tables from one memo scope per
(q, backend) (`memo_scope`), which every context at that q shares and which
is dropped when another q is used.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .scalars import Scalar, parse_scalar

MONOMIAL = "monomial_x"
FALLING = "falling_factorial"


class ValidationError(ValueError):
    """Parameter bundle violates a named guard."""

    def __init__(self, guard: str, message: str):
        super().__init__(f"{guard}: {message}")
        self.guard = guard


def _log(x: Scalar) -> float:
    """Natural logarithm of a positive scalar; a rational is split into
    numerator and denominator so that no float overflow or underflow occurs."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _q_exponent(ratio: Scalar, q: Scalar) -> Optional[int]:
    """The integer k with ratio == q**k, or None.

    Logarithms place k within one of the nearest integer; equality then
    decides exactly.  A rational q**k with k != 0 has a numerator or
    denominator of at least 2**|k|, so no larger exponent can match and
    no such power is built.
    """
    estimate = round(_log(ratio) / _log(q))
    bound = (
        max(ratio.numerator, ratio.denominator).bit_length()
        if isinstance(ratio, Fraction) else math.inf
    )
    for k in (estimate - 1, estimate, estimate + 1):
        if abs(k) <= bound and ratio == q ** k:
            return k
    return None


@dataclass(frozen=True)
class QContext:
    """Validated parameter bundle shared by every construction.

    t is the square root of the deformation parameter (q = t**2); alphas are
    the r positive weight parameters.  `exact` tells which scalar backend the
    fields live in.  Instances are immutable and safe to share.
    """

    t: Scalar
    q: Scalar
    alphas: Tuple[Scalar, ...]
    exact: bool = True

    @property
    def r(self) -> int:
        return len(self.alphas)

    @classmethod
    def from_t(cls, t, alphas) -> "QContext":
        """Exact context from rational t (q = t**2)."""
        t = parse_scalar(t) if isinstance(t, str) else Fraction(t)
        parsed = tuple(parse_scalar(a) if isinstance(a, str) else Fraction(a) for a in alphas)
        ctx = cls(t=t, q=t * t, alphas=parsed, exact=True)
        ctx.validate()
        return ctx

    @classmethod
    def from_q_float(cls, q: float, alphas: Iterable[float]) -> "QContext":
        """Approximate context from q directly (t = sqrt(q) numerically)."""
        q = float(q)
        if q <= 0:
            raise ValidationError("positivity", f"q must be positive, got {q}")
        ctx = cls(t=math.sqrt(q), q=q, alphas=tuple(float(a) for a in alphas), exact=False)
        ctx.validate()
        return ctx

    def validate(self) -> None:
        if self.t <= 0:
            raise ValidationError("positivity", f"t must be positive, got {self.t}")
        if self.q == 1 or self.t == 1:
            raise ValidationError("positivity", "q must differ from 1")
        if not self.alphas:
            raise ValidationError("positivity", "at least one weight parameter required")
        for a in self.alphas:
            if a <= 0:
                raise ValidationError("positivity", f"weight parameter must be positive, got {a}")
        for i, j in itertools.combinations(range(self.r), 2):
            if self.alphas[i] == self.alphas[j]:
                raise ValidationError(
                    "distinctness", f"alpha_{i + 1} == alpha_{j + 1} == {self.alphas[i]}"
                )
        for i, j in itertools.combinations(range(self.r), 2):
            k = _q_exponent(self.alphas[i] / self.alphas[j], self.q)
            if k is not None:
                raise ValidationError("ratio", f"alpha_{i + 1}/alpha_{j + 1} equals q**{k}")

    def require_convergent_measures(self) -> None:
        """Guard for operations that sum the weights as infinite series.

        For 0 < q < 1 the term ratio of the weight series tends to
        alpha*q*(1-q), so convergence needs alpha_i*q*(1-q) < 1.  For q > 1
        the factorial denominator grows super-exponentially and no constraint
        is needed (measure semantics there are experimental).
        """
        if self.q < 1:
            for i, a in enumerate(self.alphas):
                if a * self.q * (1 - self.q) >= 1:
                    raise ValidationError(
                        "convergence",
                        f"alpha_{i + 1}*q*(1-q) = {a * self.q * (1 - self.q)} >= 1",
                    )

    def require_nondegenerate(self, index: "MultiIndex") -> None:
        """Guard for building at `index`.

        For 0 < q < 1, a weight with (1-q)*alpha_i*q^m = 1 for an integer
        m >= 1 zeroes a norm of the i-th moment functional, and every
        orthogonality system with n_i > m is singular.  It is not part of
        `validate`: the context stays valid for every index with all
        n_i <= m.
        """
        for i, ni in enumerate(index):
            # m >= 1, so only n_i >= 2 can exceed it
            m = memo_scope(self.q, self.exact).degenerate_order(self.alphas[i]) if ni >= 2 else None
            if m is not None and ni > m:
                raise ValidationError(
                    "degenerate",
                    f"(1-q)*alpha_{i + 1}*q**{m} = 1 at alpha_{i + 1} = {self.alphas[i]}, so "
                    f"every system with n_{i + 1} > {m} is singular; got n = {index.parts}",
                )

    def with_alpha(self, i: int, value: Scalar) -> "QContext":
        """New validated context with the i-th weight parameter replaced."""
        alphas = list(self.alphas)
        alphas[i] = value
        ctx = QContext(t=self.t, q=self.q, alphas=tuple(alphas), exact=self.exact)
        ctx.validate()
        return ctx

    def with_all_alphas(self, alphas: Iterable[Scalar]) -> "QContext":
        ctx = QContext(t=self.t, q=self.q, alphas=tuple(alphas), exact=self.exact)
        ctx.validate()
        return ctx

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index n = (n_1, ..., n_r) of nonnegative integers."""

    parts: Tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"multi-index parts must be nonnegative, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def prefix_weight(self, i: int) -> int:
        """n_1 + ... + n_{i-1} for 0-based component i (0 when i == 0)."""
        return sum(self.parts[:i])

    def suffix_weight(self, i: int) -> int:
        """n_i + n_{i+1} + ... + n_r for 0-based component i."""
        return sum(self.parts[i:])

    def up(self, i: int) -> "MultiIndex":
        parts = list(self.parts)
        parts[i] += 1
        return MultiIndex(parts)

    def down(self, i: int) -> "MultiIndex":
        if self.parts[i] == 0:
            raise ValueError(f"component {i} of {self.parts} is already zero")
        parts = list(self.parts)
        parts[i] -= 1
        return MultiIndex(parts)

    @classmethod
    def coerce(cls, value) -> "MultiIndex":
        if isinstance(value, MultiIndex):
            return value
        if isinstance(value, int):
            return cls((value,))
        return cls(tuple(value))


@dataclass(frozen=True)
class LatticePoly:
    """Polynomial in X = x(s), in the monomial or falling-factorial basis.

    Coefficients are indexed by degree and kept trimmed, so degree is
    len(coeffs) - 1 and the zero polynomial has an empty tuple.
    """

    basis: str
    coeffs: Tuple[Scalar, ...]

    def __init__(self, basis: str, coeffs: Iterable[Scalar]):
        if basis not in (MONOMIAL, FALLING):
            raise ValueError(f"unknown basis {basis!r}")
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def monomial(cls, coeffs: Iterable[Scalar]) -> "LatticePoly":
        return cls(MONOMIAL, coeffs)

    @classmethod
    def falling(cls, coeffs: Iterable[Scalar]) -> "LatticePoly":
        return cls(FALLING, coeffs)

    @classmethod
    def zero(cls, basis: str = MONOMIAL) -> "LatticePoly":
        return cls(basis, ())

    @classmethod
    def one(cls, basis: str = MONOMIAL) -> "LatticePoly":
        return cls(basis, (Fraction(1),))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_same(self, other: "LatticePoly"):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "LatticePoly") -> "LatticePoly":
        self._check_same(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return LatticePoly(
            self.basis,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other: "LatticePoly") -> "LatticePoly":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "LatticePoly":
        return LatticePoly(self.basis, [c * v for v in self.coeffs])

    def __mul__(self, other: "LatticePoly") -> "LatticePoly":
        # plain convolution; only meaningful in the monomial basis
        self._check_same(other)
        if self.basis != MONOMIAL:
            raise ValueError("product only defined in the monomial basis")
        if self.is_zero or other.is_zero:
            return LatticePoly.zero()
        out = [self.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LatticePoly(MONOMIAL, out)

    def times_x(self) -> "LatticePoly":
        if self.basis != MONOMIAL:
            raise ValueError("times_x only defined in the monomial basis")
        return LatticePoly(MONOMIAL, (0,) + self.coeffs)

    def compose_affine(self, u: Scalar, v: Scalar) -> "LatticePoly":
        """P(uX + v), by Horner's rule in the monomial basis."""
        if self.basis != MONOMIAL:
            raise ValueError("compose_affine only defined in the monomial basis")
        out = []
        for c in reversed(self.coeffs):
            step = [0] * (len(out) + 1)
            for k, a in enumerate(out):
                step[k] += a * v
                step[k + 1] += a * u
            step[0] += c
            while step and step[-1] == 0:
                step.pop()
            out = step
        return LatticePoly(MONOMIAL, out)

    def evaluate(self, x: Scalar) -> Scalar:
        if self.basis != MONOMIAL:
            raise ValueError("evaluation only defined in the monomial basis")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# ---------------------------------------------------------------------------
# q primitives
# ---------------------------------------------------------------------------

def x_of(s: int, ctx: QContext) -> Scalar:
    """Lattice value x(s) = (q^s - 1)/(q - 1); any integer s."""
    return memo_scope(ctx.q, ctx.exact).x(s)


def q_factorial(k: int, ctx: QContext) -> Scalar:
    if k < 0:
        raise ValueError("q-factorial needs a nonnegative argument")
    out = ctx.one()
    for j in range(1, k + 1):
        out *= x_of(j, ctx)
    return out


def q_falling_number(n: int, k: int, ctx: QContext) -> Scalar:
    """[n]^(k) = x(n) x(n-1) ... x(n-k+1); vanishes for integer 0 <= n < k."""
    out = ctx.one()
    for j in range(k):
        out *= x_of(n - j, ctx)
    return out


def binom2(n: int) -> int:
    """Integer n*(n-1)/2 (second binomial coefficient)."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# falling-factorial basis
# ---------------------------------------------------------------------------

def falling_factorial_poly(k: int, ctx: QContext) -> LatticePoly:
    """[s]^(k) as a monomial polynomial: prod_{j=0}^{k-1} (X - x(j))/q^j.

    The leading coefficient is q^(-k(k-1)/2).  Read from the memo scope of
    q, where [s]^(k) is built once from [s]^(k-1) by its last factor.
    """
    if k < 0:
        raise ValueError("falling-factorial order must be nonnegative")
    return memo_scope(ctx.q, ctx.exact).falling_poly(k)


def _falling_factor(p: LatticePoly, j: int, scope: "MemoScope") -> LatticePoly:
    """p * (X - x(j))/q^j for a falling-basis p, through the exact rewrite
    X*[s]^(m) = q^m [s]^(m+1) + x(m) [s]^(m)."""
    out = [scope.zero] * (len(p.coeffs) + 1)
    for m, c in enumerate(p.coeffs):
        out[m + 1] += c * scope.qpow(m)
        out[m] += c * scope.x(m)
    x_j, step = scope.x(j), scope.qpow(-j)
    for m, c in enumerate(p.coeffs):
        out[m] = step * (out[m] - x_j * c)
    out[-1] = step * out[-1]
    return LatticePoly.falling(out)


def falling_mul_falling(p: LatticePoly, k: int, ctx: QContext) -> LatticePoly:
    """Product of a falling-basis polynomial with [s]^(k), staying in basis.

    Multiplies by the factors (X - x(j))/q^j of [s]^(k) one at a time, which
    keeps the expansion quadratic in the degree; the memo scope of q builds
    its table of products [s]^(j)[s]^(k) with the same factor step.
    """
    if p.basis != FALLING:
        raise ValueError("falling_mul_falling expects the falling basis")
    scope = memo_scope(ctx.q, ctx.exact)
    out = p
    for j in range(k):
        out = _falling_factor(out, j, scope)
    return out


class MemoScope:
    """Memo tables shared by every context at one q and scalar backend.

    What depends on q alone: the powers q^m, the lattice values x(j), the
    falling-factorial polynomials [s]^(k) and the falling products
    [s]^(j)[s]^(k).  What depends on (alpha, q): the moment powers
    (alpha q)^m, the Gram table of unit pairings Lambda([s]^(j)[s]^(k))
    (`pairing`) and the degenerate orders that
    `QContext.require_nondegenerate` decides (`degenerate_order`).  Each
    table is read through its method.  `memos` holds the tables of the
    functions wrapped by `scoped_memo`: the recurrence route's polynomials,
    keyed by (context, multi-index), and the oracle's solutions and LU
    factors, keyed by `active_key`.
    Every entry is computed by the operations the uncached code would run,
    in the same order, so cached values equal uncached ones bit for bit,
    floats included.
    """

    def __init__(self, q: Scalar, exact: bool):
        self.q = q
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self._qpow = {}
        self._x = {}
        self._falling = [LatticePoly.one()]
        self._products = {}
        self._moments = {}
        self._pairings = {}
        self._degenerate_orders = {}
        self.memos = {}

    def qpow(self, m: int) -> Scalar:
        """q**m for any integer m."""
        if m not in self._qpow:
            self._qpow[m] = self.q ** m
        return self._qpow[m]

    def x(self, s: int) -> Scalar:
        """x(s) = (q^s - 1)/(q - 1)."""
        if s not in self._x:
            self._x[s] = (self.q ** s - 1) / (self.q - 1)
        return self._x[s]

    def falling_poly(self, k: int) -> LatticePoly:
        """[s]^(k) in the monomial basis."""
        table = self._falling
        while len(table) <= k:
            j = len(table) - 1
            shifted = LatticePoly.monomial((-self.x(j), self.one))
            table.append((table[j] * shifted).scale(self.qpow(-j)))
        return table[k]

    def falling_product(self, j: int, k: int) -> LatticePoly:
        """[s]^(j) [s]^(k) in the falling basis, as `falling_mul_falling`
        expands the unit polynomial [s]^(j)."""
        if j not in self._products:
            self._products[j] = [LatticePoly.falling((self.zero,) * j + (self.one,))]
        row = self._products[j]
        while len(row) <= k:
            row.append(_falling_factor(row[-1], len(row) - 1, self))
        return row[k]

    def moments(self, alpha: Scalar, count: int) -> list:
        """The normalized moments (alpha q)^m by repeated multiplication,
        at least `count` of them."""
        if alpha not in self._moments:
            self._moments[alpha] = [self.one]
        powers = self._moments[alpha]
        while len(powers) < count:
            powers.append(powers[-1] * (alpha * self.q))
        return powers

    def contract(self, fall: LatticePoly, alpha: Scalar) -> Scalar:
        """A falling-basis polynomial contracted with the moments (alpha q)^m:
        its pairing with 1 under the functional of alpha."""
        total = self.zero
        for c, nu in zip(fall.coeffs, self.moments(alpha, len(fall.coeffs))):
            total += c * nu
        return total

    def pairing(self, alpha: Scalar, j: int, k: int) -> Scalar:
        """Lambda([s]^(j) [s]^(k)) at weight parameter alpha: the falling
        product contracted with the moments.  Kept once per (alpha, j, k)
        (the Gram table), so every context at this q with this alpha shares
        it."""
        key = (alpha, j, k)
        if key not in self._pairings:
            self._pairings[key] = self.contract(self.falling_product(j, k), alpha)
        return self._pairings[key]

    def degenerate_order(self, alpha: Scalar) -> Optional[int]:
        """The integer m >= 1 with (1-q)*alpha*q^m = 1, or None; decided
        exactly by `_q_exponent`, once per alpha."""
        if alpha not in self._degenerate_orders:
            m = _q_exponent(1 / ((1 - self.q) * alpha), self.q) if self.q < 1 else None
            self._degenerate_orders[alpha] = m if m is not None and m >= 1 else None
        return self._degenerate_orders[alpha]


@functools.lru_cache(maxsize=1)
def memo_scope(q: Scalar, exact: bool) -> MemoScope:
    """The memo scope of (q, backend); one is alive at a time.

    The backend is part of the key because Fraction(0.81) == 0.81 with the
    same hash: keyed on q alone, the exact twin of a float context would be
    handed float tables."""
    return MemoScope(q, exact)


def scoped_memo(key=lambda ctx, index: (ctx, index)):
    """Memoize fn(ctx, index) under key(ctx, index) in the memo scope of
    ctx, so its entries are dropped with the scope's tables when q changes.
    The default key is the pair itself."""

    def decorate(fn):
        @functools.wraps(fn)
        def memoized(ctx: QContext, index: MultiIndex):
            memo = memo_scope(ctx.q, ctx.exact).memos.setdefault(fn.__name__, {})
            entry = key(ctx, index)
            if entry not in memo:
                memo[entry] = fn(ctx, index)
            return memo[entry]

        return memoized

    return decorate


def active_key(ctx: QContext, index: MultiIndex) -> tuple:
    """The ordered (alpha_i, n_i) over the nonzero n_i.  The orthogonality
    system of `index` reads nothing else of its context besides q, so all
    (context, index) pairs at one q with the same key have the same system:
    (n1, n2, 0) at (a, b, c) and (n1, n2) at (a, b), or an index whose zero
    components carry a shifted weight."""
    return tuple((a, ni) for a, ni in zip(ctx.alphas, index) if ni)


def to_falling_basis(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Exact triangular conversion monomial -> falling."""
    if p.basis == FALLING:
        return p
    rest = list(p.coeffs)
    out = [ctx.zero()] * len(rest)
    for d in range(len(rest) - 1, -1, -1):
        basis_poly = falling_factorial_poly(d, ctx)
        c = rest[d] / basis_poly.coeffs[-1] if rest[d] != 0 else rest[d]
        out[d] = c
        if c != 0:
            for i, b in enumerate(basis_poly.coeffs):
                rest[i] -= c * b
        del rest[d]
    return LatticePoly.falling(out)


def from_falling_basis(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Triangular conversion falling -> monomial, summed into one list."""
    if p.basis == MONOMIAL:
        return p
    out = [0] * len(p.coeffs)
    for d, c in enumerate(p.coeffs):
        if c != 0:
            for i, b in enumerate(falling_factorial_poly(d, ctx).coeffs):
                out[i] += c * b
    return LatticePoly.monomial(out)
