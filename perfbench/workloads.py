"""The three workloads as lists of ops, one list per measurement pass.

An op is one closed-loop request: `run()` is the timed call into the program
(through `qcharlier.cli.main` with captured output, or through the public
`relations` verifiers), and `check(output)` is the untimed output check.  A
check runs on the op's own inputs, raises on a wrong output and returns the
largest bit length among the exact rationals of the output (0 for float
outputs).  Every op draws a context no earlier op of the run used, except
that the ops of one verify-grid sweep share their sweep's context, as the
`verify` command does.

Each pass has the same composition of op kinds for every seed; the seed
picks the parameters and the order within the pass.  No op of a pass fails
on the baseline, so any failure makes the run incorrect.  The kinds listed
in KNOWN_FAILURES fail on the baseline for some or all draws; they are kept
out of the timed passes and run instead, untimed, in the known-failure probe
of the numeric workload, which counts how many of them fail.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from qcharlier import cli, relations
from qcharlier.constructors import build
from qcharlier.qkernels import LatticePoly, MultiIndex, QContext, from_falling_basis

from inputs import Draws

GEN_R2 = ("system", "rodrigues", "explicit", "recurrence")
GEN_R3 = ("system", "rodrigues", "recurrence")
BASES = ("monomial", "falling")

ZEROS_SIZES = (
    (5,), (3, 2), (3, 3), (4, 3), (2, 2, 2), (4, 4), (3, 3, 3),
    (5, 5), (4, 4, 4), (6, 6), (7, 5), (5, 4, 3), (9, 3), (12,),
)
#: zeros sizes that run twice per pass, so p90 falls inside their class
ZEROS_TWICE = ((4, 4, 4), (5, 4, 3))
#: (size, ops per pass)
LIMIT_SIZES = (((2, 1), 4), ((3, 3), 12), ((2, 2, 2), 12))
GENQ_COMBOS = (("6,6", "rodrigues"), ("6,6", "explicit"), ("4,4,4", "rodrigues"))
PROBE_LIMIT_SIZES = ((4, 4), (6, 6), (4, 4, 4))
PROBE_GENQ_COMBOS = tuple((n, m) for n in ("6,6", "4,4,4") for m in ("system", "recurrence"))
PROBE_REPEATS = 2
LIMIT_M = (2, 3, 4)  # the `limit` command's default exponent list

#: pinned tolerance of the float backend against the exact result
GENQ_RTOL = Fraction(1, 10 ** 10)

#: op kinds that fail on the baseline (see perfbench/BASELINE.json)
KNOWN_FAILURES = frozenset(
    [f"limit {n}" for n in ("4,4", "6,6", "4,4,4")]
    + [f"gen-q {m} {n}" for n, m in PROBE_GENQ_COMBOS]
)


class CheckFailed(AssertionError):
    """An op returned, but its output is wrong."""


class ExitStatus(RuntimeError):
    """A command returned a nonzero exit status."""


@dataclass
class Op:
    kind: str  # what was asked, e.g. "gen recurrence 10,10 falling"
    cls: str  # latency class reported in the share table
    run: Callable[[], object]
    check: Callable[[object], int]
    inputs: List[str]  # argv or context flags, for failure messages


@dataclass
class Workload:
    name: str
    pass_ops: Callable[[Draws, int], List[Op]]
    trace_ops: Callable[[Draws], List[Op]]  # fixed list of the span-traced run
    count_ops: Callable[[Draws], List[Op]]  # fixed list of the profiled count
    probe_ops: Callable[[Draws], List[Op]] = lambda d: []  # known failures, untimed


def clear_caches() -> None:
    """Empty every memo cache of the package, so a fixed op list does the
    same work each time it runs."""
    for name, module in list(sys.modules.items()):
        if name == "qcharlier" or name.startswith("qcharlier."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)  # looked up per call, so a tracer's rebinding applies
    if status != 0:
        raise ExitStatus(f"exit status {status}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def _index_text(parts) -> str:
    return ",".join(str(p) for p in parts)


def _alpha_flags(alphas) -> list:
    return [flag for a in alphas for flag in ("--alpha", a)]


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


# ---------------------------------------------------------------------------
# gen-cold
# ---------------------------------------------------------------------------

def _valid_exact(t, alphas):
    QContext.from_t(t, alphas)


def gen_class(route: str, parts) -> str:
    weight = sum(parts)
    if weight == 20 and route in ("system", "recurrence"):
        return f"{route} 10,10"
    if weight == 12 and route == "recurrence":
        return "recurrence |n|=12"
    if weight == 20 or (weight == 12 and route == "system"):
        return "mid: system |n|=12, rodrigues/explicit 10,10"
    return "small: |n|<=6, rodrigues/explicit |n|=12"


def gen_op(draws: Draws, rng, route: str, parts, basis: str) -> Op:
    t, alphas = draws.exact(rng, len(parts), accept=_valid_exact)
    argv = ["gen", "--t", t, "--n", _index_text(parts), "--method", route, "--basis", basis]
    argv += _alpha_flags(alphas)
    if route == "rodrigues":
        second = "explicit_r2" if len(parts) == 2 else "linear_system"
    else:
        second = "rodrigues"

    def check(text):
        doc = json.loads(text)
        if doc["multi_index"] != list(parts) or doc["basis"] != basis:
            raise CheckFailed(f"echoed {doc['multi_index']} {doc['basis']}")
        ctx = QContext.from_t(t, alphas)
        coeffs = [Fraction(c) for c in doc["coefficients"]]
        poly = LatticePoly.monomial(coeffs)
        if basis == "falling":
            poly = from_falling_basis(LatticePoly.falling(coeffs), ctx)
        if poly.degree != sum(parts) or poly.leading != 1:
            raise CheckFailed("not monic of degree |n|")
        if build(parts, ctx, method=second).poly != poly:
            raise CheckFailed(f"differs from the {second} route")
        return _bits(coeffs)

    kind = f"gen {route} {_index_text(parts)} {basis}"
    return Op(kind, gen_class(route, parts), lambda: call_cli(argv), check, argv)


def gen_cold_pass(draws: Draws, p: int) -> List[Op]:
    """60 ops: twice each small and mid combination, two of the four
    |n| = 12 recurrence combinations, one (10,10) system and one (10,10)
    recurrence build, rotating basis and size with the pass number so every
    pass costs the same.  The mix puts p50 inside the small class and p90
    inside the mid class, away from the gaps before the slow classes."""
    combos = [(m, (2, 2)) for m in GEN_R2] + [(m, (6, 6)) for m in GEN_R2]
    combos += [(m, (10, 10)) for m in GEN_R2]
    combos += [(m, (2, 2, 2)) for m in GEN_R3] + [(m, (4, 4, 4)) for m in GEN_R3]
    light, mid_recurrence = [], []
    for route, parts in combos:
        for basis in BASES:
            cls = gen_class(route, parts)
            if cls.startswith(("small", "mid")):
                light += [(route, parts, basis)] * 2
            elif cls == "recurrence |n|=12":
                mid_recurrence.append((route, parts, basis))
    specs = light
    specs += [mid_recurrence[(2 * p) % 4], mid_recurrence[(2 * p + 3) % 4]]
    specs += [("system", (10, 10), BASES[p % 2]), ("recurrence", (10, 10), BASES[(p + 1) % 2])]
    rng = draws.rng(p)
    ops = [gen_op(draws, rng, *spec) for spec in specs]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------

SUITES = ("orthogonality", "raising", "lowering", "diffeq", "nn", "stepline")
VERIFY_NMAX = 3
VERIFY_RMAX = 3


def _valid_sweep(t, alphas):
    """Every context a sweep creates passes the guards: the base contexts,
    alpha_i/q (raising), q*alpha (lowering) and the mixed vectors (diffeq)."""
    for r in range(1, len(alphas) + 1):
        ctx = QContext.from_t(t, alphas[:r])
        scaled = [a * ctx.q for a in ctx.alphas]
        ctx.with_all_alphas(scaled)
        for i in range(r):
            ctx.with_alpha(i, ctx.alphas[i] / ctx.q)
            ctx.with_all_alphas(scaled[:i] + [ctx.alphas[i]] + scaled[i + 1:])


def _verifier(name, *args):
    return lambda: getattr(relations, name)(*args)


def _zero_residual(residual):
    if not residual.is_zero:
        raise CheckFailed(f"residual has {len(residual.coeffs)} nonzero terms")
    return 0


def _orthogonal(result):
    defining, boundary = result
    if any(v != 0 for v in defining.values()):
        raise CheckFailed("a defining functional is nonzero")
    if any(v == 0 for v in boundary.values()):
        raise CheckFailed("a boundary functional vanishes")
    return _bits(boundary.values())


def verify_sweep(
    draws: Draws, rng, q_above_one: bool, rmax: int = VERIFY_RMAX, nmax: int = VERIFY_NMAX
) -> List[Op]:
    """The checks of `qcharlier verify --suite all --rmax 3 --nmax 3`, in its
    order, on one fresh context (721 ops); a smaller rmax or nmax keeps the
    same draw and checks less."""
    t, alphas = draws.exact(rng, VERIFY_RMAX, q_above_one, accept=_valid_sweep)
    side = "q>1" if q_above_one else "q<1"
    ops = []
    for r in range(1, rmax + 1):
        ctx = QContext.from_t(t, alphas[:r])
        inputs = ["--t", t] + _alpha_flags(alphas[:r])
        for suite in SUITES:
            if suite == "stepline" and r != 2:
                continue
            cls = f"{suite} r={r}"
            for parts in itertools.product(range(nmax + 1), repeat=r):
                index = MultiIndex(parts)
                kind = f"{suite} {_index_text(parts)}"
                if suite == "orthogonality":
                    calls = [(_verifier("orthogonality_residuals", index, ctx), _orthogonal)]
                elif suite == "raising":
                    calls = [(_verifier("verify_raising", index, i, ctx), _zero_residual)
                             for i in range(r)]
                elif suite == "lowering":
                    calls = [(_verifier("verify_lowering", index, ctx), _zero_residual)]
                elif suite == "diffeq":
                    calls = [(_verifier("diff_eq_residual", index, ctx), _zero_residual)]
                elif suite == "nn":
                    calls = [(_verifier("verify_nn_recurrence", index, k, ctx), _zero_residual)
                             for k in range(r)]
                elif relations.stepline_valid(*parts):
                    calls = [(_verifier("verify_stepline", *parts, ctx), _zero_residual)]
                else:
                    calls = []
                ops += [Op(f"{kind} {side}", cls, run, check, inputs) for run, check in calls]
    return ops


def verify_grid_pass(draws: Draws, p: int) -> List[Op]:
    """One sweep; even passes draw q < 1 and odd passes q > 1."""
    return verify_sweep(draws, draws.rng(p), q_above_one=p % 2 == 1)


# ---------------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------------

def _valid_float(q, alphas):
    ctx = QContext.from_q_float(float(q), [float(a) for a in alphas])
    ctx.require_convergent_measures()


def _valid_limit(_, alphas):
    for m in LIMIT_M:
        QContext.from_q_float(1.0 - 10.0 ** (-m), [float(a) for a in alphas])


def exact_reference(q: str, alphas, parts) -> LatticePoly:
    """The exact polynomial for the float inputs: q and the alphas carry over
    losslessly as Fraction(float); the Rodrigues route's t factors cancel, so
    the rational approximation of sqrt(q) used for t does not enter."""
    qf = float(q)
    ctx = QContext(
        t=Fraction(math.sqrt(qf)), q=Fraction(qf),
        alphas=tuple(Fraction(float(a)) for a in alphas), exact=True,
    )
    return build(parts, ctx, method="rodrigues").poly


def zeros_op(draws: Draws, rng, parts) -> Op:
    q, alphas = draws.floats(rng, len(parts), accept=_valid_float)
    argv = ["zeros", "--q", q, "--n", _index_text(parts)] + _alpha_flags(alphas)

    def check(text):
        roots = [Fraction(float(x)) for x in json.loads(text)["roots"]]
        if len(roots) != sum(parts) or roots != sorted(set(roots)):
            raise CheckFailed(f"{len(roots)} distinct sorted roots for degree {sum(parts)}")
        # one cell per root, bounded by the midpoints between neighbours; a
        # sign change in every cell puts exactly one exact root in each
        edges = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
        edges = [2 * roots[0] - edges[0]] + edges + [2 * roots[-1] - edges[-1]]
        poly = exact_reference(q, alphas, parts)
        values = [poly.evaluate(x) for x in edges]
        for x, left, right in zip(roots, values, values[1:]):
            if left * right >= 0:
                raise CheckFailed(f"no sign change around root {float(x)}")
        return 0

    return Op(f"zeros {_index_text(parts)}", "zeros", lambda: call_cli(argv), check, argv)


def limit_op(draws: Draws, rng, parts) -> Op:
    _, alphas = draws.floats(rng, len(parts), q="limit", accept=_valid_limit)
    argv = ["limit", "--n", _index_text(parts), "--quiet"] + _alpha_flags(alphas)

    def check(text):
        # a nonzero exit status already failed the op
        if json.loads(text)["status"] != "pass":
            raise CheckFailed("limit report status is not pass")
        return 0

    return Op(f"limit {_index_text(parts)}", "limit", lambda: call_cli(argv), check, argv)


def genq_op(draws: Draws, rng, index_text: str, route: str) -> Op:
    parts = tuple(int(p) for p in index_text.split(","))
    q, alphas = draws.floats(rng, len(parts), accept=_valid_float)
    argv = ["gen", "--q", q, "--n", index_text, "--method", route] + _alpha_flags(alphas)

    def check(text):
        got = [Fraction(float(c)) for c in json.loads(text)["coefficients"]]
        want = exact_reference(q, alphas, parts).coeffs
        if len(got) != len(want):
            raise CheckFailed(f"degree {len(got) - 1}, expected {len(want) - 1}")
        for k, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > GENQ_RTOL * abs(w):
                raise CheckFailed(f"coefficient {k} off by {float(abs(g - w) / abs(w)):.1e} relative")
        return 0

    return Op(f"gen-q {route} {index_text}", "gen-q", lambda: call_cli(argv), check, argv)


def numeric_pass(draws: Draws, p: int) -> List[Op]:
    """56 ops: each zeros size (|n| 5..12) once and those of ZEROS_TWICE
    twice, 28 limit ops and each gen --q combination four times.  p50 falls
    among the (3,3) and (2,2,2) limit ops (15-35 ms) and p90 among the
    (4,4,4) and (5,4,3) zeros (130-240 ms), away from the gaps to the
    neighbouring classes."""
    rng = draws.rng(p)
    ops = [zeros_op(draws, rng, parts) for parts in ZEROS_SIZES + ZEROS_TWICE]
    ops += [limit_op(draws, rng, parts) for parts, count in LIMIT_SIZES for _ in range(count)]
    ops += [genq_op(draws, rng, n, m) for n, m in GENQ_COMBOS for _ in range(4)]
    rng.shuffle(ops)
    return ops


def known_failure_probe(draws: Draws) -> List[Op]:
    """Every KNOWN_FAILURES kind, PROBE_REPEATS times each, on its own draws."""
    rng = draws.rng("probe")
    ops = [limit_op(draws, rng, parts) for parts in PROBE_LIMIT_SIZES for _ in range(PROBE_REPEATS)]
    ops += [genq_op(draws, rng, n, m) for n, m in PROBE_GENQ_COMBOS for _ in range(PROBE_REPEATS)]
    return ops


def _light_gen_pass(draws: Draws) -> List[Op]:
    return [op for op in gen_cold_pass(draws, 0) if op.cls.startswith(("small", "mid"))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gen-cold", gen_cold_pass, lambda d: gen_cold_pass(d, 0), _light_gen_pass),
        Workload(
            "verify-grid",
            verify_grid_pass,
            lambda d: verify_sweep(d, d.rng(0), False),
            lambda d: verify_sweep(d, d.rng(0), False, rmax=2),
        ),
        Workload(
            "numeric",
            numeric_pass,
            lambda d: numeric_pass(d, 0),
            lambda d: numeric_pass(d, 0),
            known_failure_probe,
        ),
    )
}
