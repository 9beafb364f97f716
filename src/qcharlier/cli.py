"""Command-line interface: generation, verification suites, zeros, limits.

JSON goes to standard output (stable key order, canonical scalar strings);
a human-readable summary goes to standard error unless --quiet.  Exit codes:
0 all checks passed, 1 a verification failed, 2 invalid arguments,
parameter validation failure or float overflow.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from . import classical, relations, zeros
from .constructors import build, build_linear_system
from .qkernels import (
    LatticePoly,
    MultiIndex,
    QContext,
    ValidationError,
    to_falling_basis,
)
from .scalars import format_scalar, parse_scalar

DEFAULT_T = "9/10"
DEFAULT_ALPHAS = ("1/2", "3/5", "7/10")
#: (suite, its verifier in `relations`, whether it runs once per component),
#: in report order; step-line runs at r = 2 only, on the `stepline_valid` cells
CHECKS = (
    ("orthogonality", "orthogonality_residuals", False),
    ("raising", "verify_raising", True),
    ("lowering", "verify_lowering", False),
    ("diffeq", "diff_eq_residual", False),
    ("nn", "verify_nn_recurrence", True),
    ("stepline", "verify_stepline", False),
)
SUITES = tuple(suite for suite, _, _ in CHECKS) + ("all",)
METHOD_NAMES = {
    "rodrigues": "rodrigues",
    "explicit": "explicit_r2",
    "system": "linear_system",
    "recurrence": "recurrence",
}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        # a float build whose values leave the range of doubles
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused by
    later calls in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qcharlier",
        description="Exact engine for q-deformed multiple Charlier polynomials",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("gen", help="construct one polynomial and print it as JSON")
    _context_flags(gen, "t", "q")
    gen.add_argument("--n", required=True, help="multi-index, comma separated (e.g. 2,1)")
    gen.add_argument("--method", choices=sorted(METHOD_NAMES), default="system")
    gen.add_argument("--basis", choices=("monomial", "falling"), default="monomial")
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run identity suites over a multi-index grid")
    _context_flags(verify, "t")
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--rmax", type=int, default=2, help="run r = 1..rmax (default 2)")
    verify.add_argument("--nmax", type=int, default=3, help="grid bound per component (default 3)")
    verify.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    verify.add_argument("--inject-defect", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    zeros_cmd = sub.add_parser(
        "zeros", help="isolate the real zeros exactly and print them correctly rounded"
    )
    _context_flags(zeros_cmd, "t", "q")
    zeros_cmd.add_argument("--n", required=True, help="multi-index, comma separated")
    zeros_cmd.set_defaults(func=cmd_zeros)

    limit = sub.add_parser("limit", help="compare against the classical family as q -> 1")
    _context_flags(limit)
    limit.add_argument("--n", default="2,1", help="multi-index, comma separated")
    limit.add_argument("--m-list", default="2,3,4", help="exponents m for q = 1 - 10^-m")
    limit.add_argument("--quiet", action="store_true")
    limit.set_defaults(func=cmd_limit)

    return parser


def _context_flags(sub, *names):
    """--alpha, plus --t and --q where `names` asks for them (one or the
    other when both)."""
    group = sub.add_mutually_exclusive_group() if "q" in names else sub
    if "t" in names:
        group.add_argument("--t", default=DEFAULT_T, help="rational t, q = t^2 (default 9/10)")
    if "q" in names:
        group.add_argument("--q", type=float, help="float q (approximate backend)")
    sub.add_argument("--alpha", action="append", help="weight parameter p/r (repeatable)")


def _parse_index(text: str) -> MultiIndex:
    """The multi-index of --n."""
    return MultiIndex(_integers("--n", text))


def _integers(flag: str, value: str, text: Optional[str] = None) -> list:
    """The comma-separated integers of `text` (all of `value` by default),
    which is part of the value of `flag`."""
    return [_integer_part(flag, value, part) for part in (value if text is None else text).split(",")]


def _integer_part(flag: str, value: str, part: str) -> int:
    """`part` of the value of `flag` as an int; an error names the flag, the
    value and the part."""
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"{flag} {value}: part {part!r} is not an integer") from None


def _alphas(args, r: int, source: str, prefixes: bool = False) -> list:
    """The weight parameters: the --alpha values, else the defaults.  `source`
    (what sets r) needs r of them; with `prefixes` (verify, which runs on the
    first 1..r) the defaults come whole and spare values are allowed."""
    alphas = args.alpha or list(DEFAULT_ALPHAS if prefixes else DEFAULT_ALPHAS[:r])
    if len(alphas) < r or (len(alphas) > r and not prefixes):
        raise ValueError(f"{source} needs {r} weight parameters, got {len(alphas)}")
    return alphas


def _make_context(args, alphas) -> QContext:
    if getattr(args, "q", None) is not None:
        return QContext.from_q_float(args.q, [float(Fraction(a)) for a in alphas])
    return QContext.from_t(args.t, alphas)


def _context_fields(ctx: QContext, index: MultiIndex, with_t: bool = True) -> dict:
    """The leading fields of a gen or zeros document."""
    fields = {"t": format_scalar(ctx.t)} if with_t else {}
    fields["q"] = format_scalar(ctx.q)
    fields["alphas"] = [format_scalar(a) for a in ctx.alphas]
    fields["multi_index"] = list(index.parts)
    return fields


def _emit(document) -> None:
    print(json.dumps(document, indent=2))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    index = _parse_index(args.n)
    ctx = _make_context(args, _alphas(args, len(index), f"multi-index {args.n}"))
    poly = build(index, ctx, method=METHOD_NAMES[args.method]).poly
    if not ctx.exact and not all(map(math.isfinite, poly.coeffs)):
        # float products overflow to inf without raising
        raise OverflowError(f"a coefficient of C_{index.parts} is not finite at q = {ctx.q}")
    if args.basis == "falling":
        poly = to_falling_basis(poly, ctx)
    _emit({
        **_context_fields(ctx, index),
        "method": args.method,
        "basis": args.basis,
        "coefficients": [format_scalar(c) for c in poly.coeffs],
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _defect_builder(spec: str):
    """Builder that perturbs one coefficient of one polynomial, selected as
    "n1,n2,..:coeff_index[:amount]" (coeff_index nonnegative, amount nonzero,
    default 1/10^6).  The target index is corrupted wherever it is built, in
    every parameter context a verifier touches; a negative control proving
    the checks are not vacuous.  `built_target` records whether it was ever
    built: a run that never built it corrupted nothing, and verify refuses it."""
    loc, _, rest = spec.partition(":")
    target = tuple(_integers("--inject-defect", spec, loc))
    coeff_str, _, amount_str = rest.partition(":")
    coeff_index = _integer_part("--inject-defect", spec, coeff_str)
    amount = parse_scalar(amount_str) if amount_str else Fraction(1, 10 ** 6)
    if amount == 0:
        raise ValueError(f"--inject-defect {spec}: an amount of 0 corrupts nothing")
    if coeff_index < 0:
        raise ValueError(f"--inject-defect {spec}: coefficient index {coeff_index} is negative")

    def builder(index, context):
        poly = build_linear_system(index, context).poly
        if index.parts == target:
            builder.built_target = True
            bumped = list(poly.coeffs)
            bumped += [context.zero()] * (coeff_index + 1 - len(bumped))
            bumped[coeff_index] += amount
            poly = LatticePoly.monomial(bumped)
        return poly

    builder.built_target = False
    return builder


def cmd_verify(args) -> int:
    if args.rmax < 1:
        raise ValueError("rmax must be at least 1")
    if args.nmax < 0:
        raise ValueError("nmax must be at least 0")
    base_alphas = _alphas(args, args.rmax, f"rmax = {args.rmax}", prefixes=True)
    builder = _defect_builder(args.inject_defect) if args.inject_defect else None
    checks = []
    for r in range(1, args.rmax + 1):
        ctx = _make_context(args, base_alphas[:r])
        checks += _run_checks(args.suite, ctx, args.nmax, builder)
    if not checks:
        raise ValueError(f"--suite {args.suite} runs no check at rmax = {args.rmax}")
    if builder and not builder.built_target:
        raise ValueError(f"--inject-defect {args.inject_defect}: no check built its target")
    failed = any(entry["status"] != "pass" for entry in checks)

    report = {
        "command": "verify",
        "suite": args.suite,
        "rmax": args.rmax,
        "nmax": args.nmax,
        "context": {
            "t": args.t,
            "alphas": base_alphas,
        },
        "checks": checks,
        "status": "fail" if failed else "pass",
    }
    _emit(report)
    if not args.quiet:
        counts = {}
        for entry in checks:
            key = (entry["identity"], entry["status"])
            counts[key] = counts.get(key, 0) + 1
        for (identity, status), count in sorted(counts.items()):
            print(f"{identity}: {count} {status}", file=sys.stderr)
        print(f"overall: {report['status']}", file=sys.stderr)
    return EXIT_FAIL if failed else EXIT_OK


def _run_checks(selected: str, ctx: QContext, nmax: int, builder):
    entries = []
    for check in CHECKS:
        if selected in ("all", check[0]):
            for parts in itertools.product(range(nmax + 1), repeat=ctx.r):
                entries += _checks_at(check, ctx, MultiIndex(parts), builder)
    return entries


def _checks_at(check, ctx, index, builder):
    """The report entries of one row of CHECKS at `index`; none where the
    suite does not run (step-line off r = 2 or off its valid cells)."""
    suite, verifier, per_component = check
    if suite == "stepline" and (ctx.r != 2 or not relations.stepline_valid(*index.parts)):
        return []
    operands = index.parts if suite == "stepline" else (index,)
    entries = []
    for component in range(ctx.r) if per_component else (None,):
        start = time.perf_counter()
        extra = () if component is None else (component,)
        result = getattr(relations, verifier)(*operands, *extra, ctx, builder=builder)
        entries.append(_entry(suite, ctx, index, component, result, start))
    return entries


def _entry(identity, ctx, index, component, result, start):
    """The report entry of one check; `result` is a residual polynomial, or
    the (defining, boundary) functionals of orthogonality."""
    if isinstance(result, LatticePoly):
        terms = len(result.coeffs)
    else:
        defining, boundary = result
        terms = sum(value != 0 for value in defining.values())
        terms += sum(value == 0 for value in boundary.values())
    entry = {
        "identity": identity,
        "r": ctx.r,
        "n": list(index.parts),
        "status": "fail" if terms else "pass",
        "residual_terms": terms,
        "ms": round(1000 * (time.perf_counter() - start), 3),
    }
    if component is not None:
        entry["component"] = component + 1
    return entry


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def cmd_zeros(args) -> int:
    index = _parse_index(args.n)
    ctx = _make_context(args, _alphas(args, len(index), f"multi-index {args.n}"))
    ctx.require_convergent_measures()
    # coefficients are computed in exact rational arithmetic (the polynomial
    # depends only on q and the alphas, all exactly representable) and the
    # roots are isolated exactly: float-arithmetic construction loses the tiny
    # constant term, and floated coefficients move the roots.  The Rodrigues
    # route gives the oracle's polynomial at a fraction of its cost; its t^n
    # from the differences cancels against the t^(-n) of its constant.
    poly = build(index, _exact_shadow(ctx), method="rodrigues").poly
    roots = zeros.find_positive_roots(poly.coeffs, index.weight)
    _emit({
        **_context_fields(ctx, index, with_t=False),
        "roots": [format_scalar(root) for root in roots],
    })
    return EXIT_OK


def _exact_shadow(ctx: QContext) -> QContext:
    """Exact-rational twin of a context for construction paths whose result
    does not depend on t (an exact context comes back equal).

    Fraction(float) is exact, so q and the alphas carry over losslessly; t is
    only a rational approximation of sqrt(q).  The oracle never touches t,
    and in the Rodrigues route its powers cancel exactly."""
    shadow = QContext(
        t=Fraction(ctx.t),
        q=Fraction(ctx.q),
        alphas=tuple(Fraction(a) for a in ctx.alphas),
        exact=True,
    )
    shadow.validate()
    return shadow


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def cmd_limit(args) -> int:
    exponents = sorted(_integers("--m-list", args.m_list))
    if len(set(exponents)) != len(exponents) or len(exponents) < 2:
        raise ValueError(f"--m-list {args.m_list}: convergence needs two or more distinct exponents")
    index = _parse_index(args.n)
    r = len(index)
    alpha_strs = _alphas(args, r, f"multi-index {args.n}")
    alphas_exact = [Fraction(a) for a in alpha_strs]
    classical_poly = classical.classical_build(index, alphas_exact)
    classical_coeffs = [float(c) for c in classical_poly.coeffs]

    entries = []
    coeff_errors = []
    for m in exponents:
        q = 1.0 - 10.0 ** (-m)
        ctx = QContext.from_q_float(q, [float(a) for a in alphas_exact])
        poly = build(index, ctx, method="recurrence").poly
        coeffs = [float(c) for c in poly.coeffs]
        coeff_err = max(
            abs(a - b) for a, b in itertools.zip_longest(coeffs, classical_coeffs, fillvalue=0.0)
        )
        steps = [relations.nn_recurrence_coeffs(index, k, ctx) for k in range(r)]
        b_err = max(abs(got.b - (float(a) + index.weight)) for got, a in zip(steps, alphas_exact))
        # the d_i do not depend on the stepped component k
        d_err = max(abs(d - float(a) * ni) for d, a, ni in zip(steps[0].d, alphas_exact, index))
        entries.append(
            {
                "m": m,
                "q": format_scalar(q),
                "coeff_error": format_scalar(coeff_err),
                "b_error_max": format_scalar(b_err),
                "d_error_max": format_scalar(d_err),
            }
        )
        coeff_errors.append((coeff_err, b_err, d_err))

    orders = []
    for (e0, b0, d0), (e1, b1, d1) in zip(coeff_errors, coeff_errors[1:]):
        orders.append(
            {
                "coeff": format_scalar(math.log10(e0 / e1)) if e1 else None,
                "b": format_scalar(math.log10(b0 / b1)) if b1 else None,
                "d": format_scalar(math.log10(d0 / d1)) if d1 else None,
            }
        )
    # each error sequence decreases strictly, or is exactly zero throughout
    decreasing = all(
        not any(seq) or all(later < earlier for earlier, later in zip(seq, seq[1:]))
        for seq in zip(*coeff_errors)
    )
    report = {
        "command": "limit",
        "alphas": alpha_strs,
        "multi_index": list(index.parts),
        "entries": entries,
        "empirical_orders": orders,
        "status": "pass" if decreasing else "fail",
    }
    _emit(report)
    if not args.quiet:
        print(f"limit check: {report['status']}", file=sys.stderr)
    return EXIT_OK if decreasing else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
