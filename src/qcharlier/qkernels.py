"""q-calculus primitives on the exponential lattice x(s) = (q^s - 1)/(q - 1).

Everything here is generic over the scalar backend carried by `QContext`:
exact contexts hold `Fraction` values of t (with q = t**2 so that the
half-integer lattice powers q**(1/2) stay inside the rational field), while
approximate contexts hold floats.  The module provides the one polynomial
type of the package (`LatticePoly`), the lattice values x(s), and the
degree-triangular change of basis between monomials in X = x(s) and the
falling-factorial polynomials [s]^(k) = x(s) x(s-1) ... x(s-k+1).

The falling-basis kernels read their tables from one memo scope per
(q, backend) (`memo_scope`), which every context at that q shares and which
is dropped when another q is used.  Exact kernels run on integers: with
q = u/w in lowest terms, q^m = u^m/w^m and x(m) = N_m/w^(m-1),
N_m = (u^m - w^m)/(u - w), so each result is integer numerators over a
known denominator, reduced once into a canonical pair (`LatticePoly.pair`).
Float kernels keep their scalar loops and operation order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple

from .scalars import Scalar, parse_scalar

MONOMIAL = "monomial_x"
FALLING = "falling_factorial"


class ValidationError(ValueError):
    """Parameter bundle violates a named guard."""

    def __init__(self, guard: str, message: str):
        super().__init__(f"{guard}: {message}")
        self.guard = guard


def _q_exponent(ratio: Scalar, q: Scalar) -> Optional[int]:
    """The integer k with ratio == q**k, or None; ratio > 0, q > 0, q != 1.

    A rational q = u/w in lowest terms has q**k = u**k/w**k in lowest terms,
    so k >= 0 (ratio and q on one side of 1) matches when dividing ratio's
    numerator by u and its denominator by w, k times, leaves 1/1; k < 0
    swaps u and w.  No float, power or bound is used.  At q = 1 the division
    would never end; `QContext.validate` refuses q = 1 first.  A float q
    keeps the float test: a log estimate of k, then q**k at k-1, k and k+1.
    """
    if not isinstance(q, Fraction):
        estimate = round(math.log(ratio) / math.log(q))
        return next((k for k in (estimate - 1, estimate, estimate + 1) if ratio == q ** k), None)
    up = (ratio > 1) == (q > 1)
    u, w = (q.numerator, q.denominator) if up else (q.denominator, q.numerator)
    num, den, k = ratio.numerator, ratio.denominator, 0
    while num != 1 or den != 1:
        if num % u or den % w:
            return None
        num, den, k = num // u, den // w, k + 1
    return k if up else -k


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
        q, alphas = float(q), tuple(float(a) for a in alphas)
        names = ["q"] + [f"alpha_{i + 1}" for i in range(len(alphas))]
        for name, value in zip(names, (q, *alphas)):
            if not math.isfinite(value):
                raise ValidationError("finiteness", f"{name} must be finite, got {value}")
        if q <= 0:
            raise ValidationError("positivity", f"q must be positive, got {q}")
        ctx = cls(t=math.sqrt(q), q=q, alphas=alphas, exact=False)
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
        orthogonality system with n_i > m is singular.  Not part of
        `validate`: the context stays valid for every index with all n_i <= m.
        Each call decides m by `_q_exponent`; no decision is cached.  On an
        exact context, q = u/w and alpha_i = a/b make the ratio
        w b/((w - u) a), built with one normalization; a float context keeps
        the expression 1/((1 - q) alpha_i) and so its decisions.
        """
        for i, ni in enumerate(index):
            # m >= 1, so only n_i >= 2 can exceed it, and only when q < 1
            if ni >= 2 and self.q < 1:
                m = _q_exponent(self._degenerate_ratio(self.alphas[i]), self.q)
                if m is not None and 1 <= m < ni:
                    raise ValidationError(
                        "degenerate",
                        f"(1-q)*alpha_{i + 1}*q**{m} = 1 at alpha_{i + 1} = {self.alphas[i]}, "
                        f"so every system with n_{i + 1} > {m} is singular; got n = {index.parts}",
                    )

    def _degenerate_ratio(self, alpha: Scalar) -> Scalar:
        """1/((1 - q) alpha)."""
        if not self.exact:
            return 1 / ((1 - self.q) * alpha)
        u, w = self.q.numerator, self.q.denominator
        return Fraction(w * alpha.denominator, (w - u) * alpha.numerator)

    def with_alpha(self, i: int, value: Scalar) -> "QContext":
        """New validated context with the i-th weight parameter replaced."""
        alphas = list(self.alphas)
        alphas[i] = value
        return self.with_all_alphas(alphas)

    def with_all_alphas(self, alphas: Iterable[Scalar]) -> "QContext":
        ctx = QContext(t=self.t, q=self.q, alphas=tuple(alphas), exact=self.exact)
        ctx.validate()
        return ctx

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0


def _integer(value: int, what: str) -> int:
    """`value` as an int; a value like 1.9 (or 2.0) is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index n = (n_1, ..., n_r) of nonnegative integers."""

    parts: Tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple([_integer(p, "multi-index part") for p in parts])
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

    def walk(self, path: Iterable[int]) -> list:
        """`path`, 0-based components in any order, checked to step from 0 here."""
        path = [_integer(k, "path component") for k in path]
        for k in path:
            if not 0 <= k < len(self):
                raise ValueError(f"path component {k} out of range for r = {len(self)}")
        if tuple(path.count(i) for i in range(len(self))) != self.parts:
            raise ValueError(f"path {path} does not lead from 0 to {self.parts}")
        return path

    @classmethod
    def coerce(cls, value) -> "MultiIndex":
        if isinstance(value, MultiIndex):
            return value
        if not hasattr(value, "__iter__"):
            return cls((_integer(value, "multi-index"),))
        return cls(tuple(value))


def dot(xs: Iterable[Scalar], ys: Iterable[Scalar], start: Scalar, sign: int = 1) -> Scalar:
    """start + sign * sum(x * y for x, y in zip(xs, ys)), sign 1 or -1.

    The type of `start` decides the backend, once per sum.  A float start
    takes the plain loop, term by term in order, so float digits are those
    of that loop.  Any other start is rational, and so are its terms: their
    integer numerators are summed over the lcm of their denominators and the
    result is normalized once, where adding term by term would normalize
    once per term.
    """
    if not isinstance(start, float):
        return _rational_dot(zip(xs, ys), start, sign)
    acc = start
    if sign > 0:
        for x, y in zip(xs, ys):
            acc += x * y
    else:
        for x, y in zip(xs, ys):
            acc -= x * y
    return acc


def _rational_dot(pairs, start, sign):
    nums, dens = [], []
    for x, y in pairs:
        if x and y:
            nums.append(x.numerator * y.numerator)
            dens.append(x.denominator * y.denominator)
    if not nums:
        return start
    denominator = math.lcm(start.denominator, *dens)
    total = sum(n * (denominator // d) for n, d in zip(nums, dens))
    return Fraction(start.numerator * (denominator // start.denominator) + sign * total, denominator)


class LatticePoly:
    """Polynomial in X = x(s), in the monomial or falling-factorial basis,
    indexed by degree and trimmed: degree is its length - 1, -1 for zero.

    An exact polynomial is one canonical pair, as in FLINT's fmpq_poly:
    integer `numerators` over a positive integer `denominator` with
    gcd(denominator, *numerators) = 1.  Exact kernels run on the pair and
    reduce once per result (`pair`); equality is a tuple compare, and
    `coeffs` (reduced `Fraction`s) is built once, when read.  A float
    polynomial (one built from any float) keeps its tuple in `coeffs`, with
    `numerators` and `denominator` None, and an operation with a float
    operand runs on `coeffs` in the old order.  Instances are not mutated.
    """

    __slots__ = ("basis", "numerators", "denominator", "_coeffs")

    def __init__(self, basis: str, coeffs: Iterable[Scalar]):
        if basis not in (MONOMIAL, FALLING):
            raise ValueError(f"unknown basis {basis!r}")
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.basis, self.numerators, self.denominator, self._coeffs = basis, None, None, None
        if coeffs and isinstance(coeffs[-1], float):  # a float polynomial, told without a scan
            self._coeffs = tuple(coeffs)
            return
        try:
            denominator = math.lcm(*[c.denominator for c in coeffs])
        except AttributeError:  # a float below a rational top coefficient
            self._coeffs = tuple(coeffs)
            return
        # reduced fractions over the lcm of their denominators share no factor
        self.numerators = tuple([c.numerator * (denominator // c.denominator) for c in coeffs])
        self.denominator = denominator

    @classmethod
    def pair(cls, basis: str, numerators, denominator: int, reduced: bool = False) -> "LatticePoly":
        """numerators/denominator (a list of ints, trimmed in place, and an
        int != 0), reduced by one gcd unless the caller knows it `reduced`."""
        if not reduced:
            while numerators and not numerators[-1]:
                numerators.pop()
            g = math.gcd(denominator, *numerators) * (-1 if denominator < 0 else 1)
            if g != 1:
                numerators, denominator = [c // g for c in numerators], denominator // g
        poly = object.__new__(cls)
        poly.basis, poly.numerators, poly.denominator, poly._coeffs = basis, tuple(numerators), denominator, None
        return poly

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
    def coeffs(self) -> Tuple[Scalar, ...]:
        if self._coeffs is None:
            d = self.denominator
            self._coeffs = tuple([Fraction(c, d) if d != 1 else Fraction(c) for c in self.numerators])
        return self._coeffs

    def __eq__(self, other):
        if not isinstance(other, LatticePoly):
            return NotImplemented
        if self.numerators is None or other.numerators is None:
            return (self.basis, self.coeffs) == (other.basis, other.coeffs)
        return (self.basis, self.denominator, self.numerators) == (other.basis, other.denominator, other.numerators)

    def __hash__(self):
        return hash((self.basis, self.coeffs))

    def __repr__(self):
        return f"LatticePoly(basis={self.basis!r}, coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.numerators if self.numerators is not None else self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return 0

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        if self.numerators is None:
            return self._coeffs[-1]
        return Fraction(self.numerators[-1], self.denominator)

    def _check_same(self, other: "LatticePoly"):
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def _combine(self, op, other: "LatticePoly") -> "LatticePoly":
        self._check_same(other)
        if self.numerators is None or other.numerators is None:
            n = max(len(self.coeffs), len(other.coeffs))
            return LatticePoly(self.basis, [op(self.coefficient(i), other.coefficient(i)) for i in range(n)])
        denominator = math.lcm(self.denominator, other.denominator)
        fa, fb = denominator // self.denominator, denominator // other.denominator
        out = [c * fa for c in self.numerators] + [0] * (len(other.numerators) - len(self.numerators))
        for i, c in enumerate(other.numerators):
            out[i] = op(out[i], c * fb)
        return LatticePoly.pair(self.basis, out, denominator)

    __add__ = functools.partialmethod(_combine, operator.add)
    __sub__ = functools.partialmethod(_combine, operator.sub)

    def scale(self, c: Scalar) -> "LatticePoly":
        if self.numerators is None or isinstance(c, float):
            return LatticePoly(self.basis, [c * v for v in self.coeffs])
        return LatticePoly.pair(self.basis, [c.numerator * v for v in self.numerators], c.denominator * self.denominator)

    def __mul__(self, other: "LatticePoly") -> "LatticePoly":
        # plain convolution; only meaningful in the monomial basis
        self._check_same(other)
        if self.basis != MONOMIAL:
            raise ValueError("product only defined in the monomial basis")
        if self.is_zero or other.is_zero:
            return LatticePoly.zero()
        if self.numerators is not None and other.numerators is not None:
            out = [0] * (self.degree + other.degree + 1)
            for i, x in enumerate(self.numerators):
                for j, y in enumerate(other.numerators):
                    out[i + j] += x * y
            return LatticePoly.pair(MONOMIAL, out, self.denominator * other.denominator)
        a, b = self.coeffs, other.coeffs
        start = a[0] * 0
        out = []
        for k in range(len(a) + len(b) - 1):
            lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
            out.append(dot(a[lo:hi + 1], [b[k - i] for i in range(lo, hi + 1)], start))
        return LatticePoly(MONOMIAL, out)

    def times_x(self) -> "LatticePoly":
        if self.basis != MONOMIAL:
            raise ValueError("times_x only defined in the monomial basis")
        if self.numerators is None:
            return LatticePoly(MONOMIAL, (0,) + self._coeffs)
        if self.is_zero:
            return self
        return LatticePoly.pair(MONOMIAL, (0,) + self.numerators, self.denominator, reduced=True)

    def compose_affine(self, u: Scalar, v: Scalar) -> "LatticePoly":
        """P(uX + v), by Horner's rule in the monomial basis.  An exact P
        with rational u, v runs it on its numerators with uX + v = (UX + V)/W,
        over D W^m after m steps; float coefficients keep the scalar loop."""
        if self.basis != MONOMIAL:
            raise ValueError("compose_affine only defined in the monomial basis")
        if self.numerators is not None and isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction)):
            if self.is_zero:
                return self
            w = math.lcm(u.denominator, v.denominator)
            big_u, big_v = u.numerator * (w // u.denominator), v.numerator * (w // v.denominator)
            out, power = [], 1  # power = W^m after m steps
            for c in reversed(self.numerators):
                step = [a * big_v for a in out] + [0]
                for k, a in enumerate(out):
                    step[k + 1] += a * big_u
                step[0] += c * power
                out, power = step, power * w
            # the last coefficient takes no step of Horner's rule
            return LatticePoly.pair(MONOMIAL, out, self.denominator * power // w)
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
    return memo_scope(ctx.q, ctx.exact).falling_poly(falling_order(k))


def falling_order(k: int) -> int:
    """k as a falling-factorial order: an int, refused unless nonnegative."""
    k = _integer(k, "falling-factorial order")
    if k < 0:
        raise ValueError(f"falling-factorial order must be nonnegative, got {k}")
    return k


def falling_mul_falling(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """X p for a falling-basis p, staying in the basis, through the exact
    rewrite X [s]^(m) = q^m [s]^(m+1) + x(m) [s]^(m): O(deg)."""
    if p.basis != FALLING:
        raise ValueError("falling_mul_falling expects the falling basis")
    if not ctx.exact:
        scope = memo_scope(ctx.q, ctx.exact)
        out = [scope.zero] * (len(p.coeffs) + 1)
        for m, c in enumerate(p.coeffs):
            out[m + 1] += c * scope.qpow(m)
            out[m] += c * scope.x(m)
        return LatticePoly.falling(out)
    u, w = ctx.q.numerator, ctx.q.denominator
    return LatticePoly.pair(FALLING, _x_falling(p.numerators, u, w), p.denominator * w ** max(p.degree, 0))


def _x_falling(numerators, u: int, w: int) -> list:
    """X times the falling polynomial with these integer coefficients, as
    integers over w^deg (q = u/w)."""
    top = len(numerators) - 1
    out = [0] * (top + 2)
    for m, c in enumerate(numerators):
        if c:
            out[m + 1] += c * u ** m * w ** (top - m)
            out[m] += c * ((u ** m - w ** m) // (u - w)) * w ** (top - m + 1)
    return out


def falling_recurrence(p: LatticePoly, terms, ctx: QContext) -> LatticePoly:
    """X p - sum a r over the (a, r) in `terms` with a != 0, all in the
    falling basis, X p by `falling_mul_falling`.

    Exact contexts put X p and each a r over the lcm of their denominators.
    Float contexts take one sum (`dot`) per coefficient over the terms that
    reach it, in the order given, so float digits are those of the chain
    X p - a_1 r_1 - ...
    """
    top = falling_mul_falling(p, ctx)
    terms = [(a, r) for a, r in terms if a != 0]
    if not ctx.exact:
        top, terms = top.coeffs, [(a, r.coeffs) for a, r in terms]
        out = []
        for j in range(max([len(top)] + [len(r) for _, r in terms])):
            reach = [(a, r[j]) for a, r in terms if j < len(r)]
            start = top[j] if j < len(top) else ctx.zero()
            out.append(dot([a for a, _ in reach], [v for _, v in reach], start, -1))
        return LatticePoly.falling(out)
    denominator = math.lcm(top.denominator, *(a.denominator * r.denominator for a, r in terms))
    out = [c * (denominator // top.denominator) for c in top.numerators]
    out += [0] * (max([len(out)] + [len(r.numerators) for _, r in terms]) - len(out))
    for a, r in terms:
        factor = a.numerator * (denominator // (a.denominator * r.denominator))
        for j, c in enumerate(r.numerators):
            if c:
                out[j] -= factor * c
    return LatticePoly.pair(FALLING, out, denominator)


class MemoScope:
    """Memo tables shared by every context at one q and scalar backend.

    What depends on q alone: the powers q^m, the lattice values x(j) and
    the falling-factorial polynomials [s]^(k), on an exact scope each the
    pair of its integer row and u^C(k,2).  What depends on (alpha, q):
    one Gram table of unit pairings Lambda([s]^(j)[s]^(k)) per alpha
    (`gram`), on an exact scope with its integer table (`gram_numerators`)
    beside it.  `memos` holds the tables of the functions wrapped by
    `scoped_memo`, all keyed by `active_key`: the oracle's solutions and LU
    factors, the recurrence route's polynomials (T(n) C_n on exact scopes)
    and the oracle's down coefficients.  Each table is arithmetic, read through its method; no
    guard keeps a decision here.  Exact and float scopes fill their tables
    by the same recurrences at the same keys, an exact one on integer
    numerators; cached values are the ones the uncached code would compute.
    """

    def __init__(self, q: Scalar, exact: bool):
        self.q, self.exact = q, exact
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self._qpow = {}
        self._x = {}
        # [s]^(0) in the scope's scalars: a sum over a float table has a float start
        self._falling = [LatticePoly.monomial((self.one,))]
        self._grams = {}
        # exact scopes: the integer Gram tables beside the entries of `_grams`
        self._exact_grams = {}
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
        """[s]^(k) in the monomial basis, each row built once from the one
        before it by its last factor (X - x(j))/q^j = (w^j X - w N_j)/u^j.
        An exact row is the pair (P_k, u^C(k,2)), P_(j+1) = P_j (w^j X - w N_j),
        canonical as built since P_k leads with w^C(k,2)."""
        table = self._falling
        while len(table) <= k:
            j = len(table) - 1
            if not self.exact:
                shifted = LatticePoly.monomial((-self.x(j), self.one))
                table.append((table[j] * shifted).scale(self.qpow(-j)))
                continue
            u, w = self.q.numerator, self.q.denominator
            lead, constant = w ** j, -w * ((u ** j - w ** j) // (u - w))
            prev = table[j].numerators
            row = [c * constant for c in prev] + [0]
            for i, c in enumerate(prev):
                row[i + 1] += c * lead
            table.append(LatticePoly.pair(MONOMIAL, row, u ** binom2(j + 1), reduced=True))
        return table[k]

    def gram(self, alpha: Scalar) -> Callable[[int, int], Scalar]:
        """(j, k) -> Lambda([s]^(j) [s]^(k)) at weight parameter alpha.
        Entries are kept once per (alpha, j, k) (the Gram table), so every
        context at this q with this alpha shares them.  Finding the table
        hashes alpha, and reading an entry hashes only (j, k), so a caller
        looks the table up once per row or per sum.

        Entries follow the product rule of the falling basis:
        [s]^(k+1) = [s]^(k) (X - x(k))/q^k and
        X [s]^(j) = q^j [s]^(j+1) + x(j) [s]^(j) give

            G(j, k+1) = q^(-k) (q^j G(j+1, k) + (x(j) - x(k)) G(j, k)),

        from G(j, 0) = (alpha q)^j = G(j-1, 0) G(1, 0), which is Lambda [s]^(j)
        itself: O(1) per entry.  A float scope runs it on floats.  An exact
        scope runs it on the integer table (`gram_numerators`) and makes
        each entry one `Fraction` of its integer; both tables hold the keys
        the float recurrence visits.
        """
        if self.exact:
            return self._exact_gram(alpha).value
        table = self._grams.get(alpha)
        if table is None:
            table = self._grams[alpha] = {(0, 0): self.one, (1, 0): alpha * self.q}
        return functools.partial(self._pairing, table)

    def gram_numerators(self, alpha: Scalar) -> Callable[[int, int], int]:
        """Exact scopes: (j, k) -> the integer g(j, k) with
        G(j, k) = g(j, k)/(b^(j+k) w^(jk+j+k)), where q = u/w and
        alpha = a/b in lowest terms (`_ExactGram`)."""
        return self._exact_gram(alpha).numerator

    def _exact_gram(self, alpha: Scalar) -> "_ExactGram":
        table = self._exact_grams.get(alpha)
        if table is None:
            values = self._grams[alpha] = {(0, 0): self.one, (1, 0): alpha * self.q}
            table = self._exact_grams[alpha] = _ExactGram(alpha, self.q, values)
        return table

    def _pairing(self, table: dict, j: int, k: int) -> Scalar:
        key = (j, k)
        if key not in table:
            if k == 0:
                value = self._pairing(table, j - 1, 0) * table[1, 0]
            else:
                value = self.qpow(1 - k) * (
                    self.qpow(j) * self._pairing(table, j + 1, k - 1)
                    + (self.x(j) - self.x(k - 1)) * self._pairing(table, j, k - 1)
                )
            table[key] = value
        return table[key]


class _ExactGram:
    """The Gram table of one alpha = a/b at q = u/w (both in lowest terms)
    on integers: G(j, k) = g(j, k)/(b^(j+k) w^(jk+j+k)), with

        g(j, 0) = (a u)^j,
        g(j, k+1) = [u^j g(j+1, k) + b (N_j w^(k+2) - N_k w^(j+2)) g(j, k)] / u^k,

    N_j = (u^j - w^j)/(u - w), the scope's recurrence cleared of its
    denominators; the division by u^k is exact.  `values` holds the
    `Fraction` entries, made only when read through `value`, at the keys
    the float recurrence visits; the moment pairing reads integers only."""

    def __init__(self, alpha: Fraction, q: Fraction, values: dict):
        self.a, self.b = alpha.numerator, alpha.denominator
        self.u, self.w = q.numerator, q.denominator
        self.values = values
        self.numerators = {(0, 0): 1, (1, 0): self.a * self.u}

    def value(self, j: int, k: int) -> Fraction:
        values = self.values
        key = (j, k)
        if key not in values:
            if k == 0:
                self.value(j - 1, 0)
            else:
                self.value(j + 1, k - 1)
                self.value(j, k - 1)
            denominator = self.b ** (j + k) * self.w ** (j * k + j + k)
            values[key] = Fraction(self.numerator(j, k), denominator)
        return values[key]

    def numerator(self, j: int, k: int) -> int:
        table = self.numerators
        key = (j, k)
        if key not in table:
            u, w, b = self.u, self.w, self.b
            if k == 0:
                value = self.numerator(j - 1, 0) * table[1, 0]
            else:
                m = k - 1  # g(j, m+1) from g(j+1, m) and g(j, m)
                lattice_j, lattice_m = (u ** j - w ** j) // (u - w), (u ** m - w ** m) // (u - w)
                value = (
                    u ** j * self.numerator(j + 1, m)
                    + b * (lattice_j * w ** (m + 2) - lattice_m * w ** (j + 2)) * self.numerator(j, m)
                ) // u ** m
            table[key] = value
        return table[key]


def memo_scope(q: Scalar, exact: bool) -> MemoScope:
    """The memo scope of (q, backend); one is alive at a time, found by
    identity or equality of q, so no q is hashed.  The backend is part of
    the test because Fraction(0.81) == 0.81: on q alone, the exact twin of
    a float context would get float tables.  `cache_clear()` drops it."""
    scope = memo_scope.live
    if scope is None or (scope.q is not q and scope.q != q) or scope.exact != exact:
        scope = memo_scope.live = MemoScope(q, exact)
    return scope


memo_scope.live = None
memo_scope.cache_clear = functools.partial(setattr, memo_scope, "live", None)


_UNSET = object()


def scoped_memo(fn):
    """Memoize fn(ctx, index) under `active_key(ctx, index)` in the memo
    scope of ctx, so its entries are dropped with the scope's tables when q
    changes.  The value of fn may depend on nothing of (ctx, index) but q
    and that key; each read looks the key up once."""

    @functools.wraps(fn)
    def memoized(ctx: QContext, index: MultiIndex):
        memo = memo_scope(ctx.q, ctx.exact).memos.setdefault(fn.__name__, {})
        key = active_key(ctx, index)
        value = memo.get(key, _UNSET)
        if value is _UNSET:
            value = memo[key] = fn(ctx, index)
        return value

    return memoized


def active_key(ctx: QContext, index: MultiIndex) -> tuple:
    """The ordered (alpha_i, n_i) over the nonzero n_i.  The orthogonality
    system of `index` reads nothing else of its context besides q, so all
    (context, index) pairs at one q with the same key have the same system:
    (n1, n2, 0) at (a, b, c) and (n1, n2) at (a, b), or an index whose zero
    components carry a shifted weight.  So do the recurrence route's C_n and
    d_i: a zero component adds exactly 0 to b and carries d_i = 0."""
    return tuple([(a, ni) for a, ni in zip(ctx.alphas, index.parts) if ni])


def to_falling_basis(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Triangular conversion monomial -> falling.

    Exact contexts run Horner's rule from the top coefficient and stay in
    the falling basis, multiplying by X on integers (`_x_falling`) over
    D w^E, D the denominator of p; no [s]^(k) table is read.  Float
    contexts solve from the top, c_e = (p_e - sum_{d > e} c_d F_d[e])
    / F_e[e] with F_d the monomial coefficients of [s]^(d), d descending.
    """
    if p.basis == FALLING:
        return p
    if not ctx.exact:
        n = len(p.coeffs)
        falling = [falling_factorial_poly(d, ctx).coeffs for d in range(n)]
        out = [None] * n
        for e in range(n - 1, -1, -1):
            later = range(n - 1, e, -1)
            rest = dot([out[d] for d in later], [falling[d][e] for d in later], p.coeffs[e], -1)
            out[e] = rest / falling[e][e] if rest != 0 else rest
        return LatticePoly.falling(out)
    u, w = ctx.q.numerator, ctx.q.denominator
    acc, exponent = list(p.numerators[-1:]), 0
    for c in reversed(p.numerators[:-1]):
        exponent += len(acc) - 1
        acc = _x_falling(acc, u, w)
        acc[0] += c * w ** exponent
    return LatticePoly.pair(FALLING, acc, p.denominator * w ** exponent)


def from_falling_basis(p: LatticePoly, ctx: QContext) -> LatticePoly:
    """Triangular conversion falling -> monomial: the coefficient of X^i is
    sum_{d >= i} c_d F_d[i], F_d the monomial coefficients of [s]^(d)
    (`falling_factorial_poly`).

    Exact contexts sum integers over D u^C(n-1,2), D the denominator of p,
    since the row of [s]^(d) is the pair (P_d, u^C(d,2)).  Float contexts
    sum by `dot`, d ascending.
    """
    if p.basis == MONOMIAL:
        return p
    n = p.degree + 1
    rows = [falling_factorial_poly(d, ctx) for d in range(n)]
    if not ctx.exact:
        falling, zero = [row.coeffs for row in rows], ctx.zero()
        return LatticePoly.monomial(
            dot(p.coeffs[i:], [falling[d][i] for d in range(i, n)], zero) for i in range(n)
        )
    power = ctx.q.numerator ** binom2(n - 1)
    out = [0] * n
    for c, row in zip(p.numerators, rows):
        if c:
            factor = c * (power // row.denominator)
            for i, f in enumerate(row.numerators):
                if f:
                    out[i] += factor * f
    return LatticePoly.pair(MONOMIAL, out, p.denominator * power)
