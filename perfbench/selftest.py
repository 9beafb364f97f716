"""Self-test of the benchmark's tracer on tiny inputs.

    python3 perfbench/selftest.py

For each workload a tiny op list runs untraced and then span-traced, each
time on freshly cleared caches.  The test fails unless the traced outputs
equal the untraced ones, every span the workload is expected to reach
records at least one call, and every span it must not reach records none.
Together the expectations cover every span the tracer defines.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import Draws  # noqa: E402
from run import execute  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BASES, GEN_R2, GEN_R3, clear_caches, gen_op, genq_op, limit_op, verify_sweep, zeros_op,
)

VERIFIERS = {
    "relations.orthogonality_residuals", "relations.verify_raising",
    "relations.verify_lowering", "relations.diff_eq_residual",
    "relations.verify_nn_recurrence", "relations.verify_stepline",
}
KERNELS = {
    "qkernels.to_falling_basis", "qkernels.from_falling_basis",
    "qkernels.falling_factorial_poly", "qkernels.falling_mul_falling",
    "qkernels.QContext.validate", "constructors.build_linear_system",
    "constructors.moment_pairing", "latticefn.shift_poly",
}
BUILDERS = {
    "constructors.build_rodrigues", "constructors.build_explicit_r2",
    "constructors.build_recurrence", "latticefn.nabla", "latticefn.rodrigues_elementary",
}
COEFFS = {"relations.lowering_coeffs", "relations.stepline_coeffs"}
OPERATORS = {"latticefn.raising_apply", "latticefn.delta_cov"}
NUMERIC = {"zeros.find_positive_roots", "classical.classical_build"}


def _gen(d):
    rng = d.rng(0)
    return [gen_op(d, rng, m, (2, 2), b) for m in GEN_R2 for b in BASES] + [
        gen_op(d, rng, m, (1, 1, 1), b) for m in GEN_R3 for b in BASES
    ]


def _verify(d):
    return verify_sweep(d, d.rng(0), True, nmax=1)


def _numeric(d):
    rng = d.rng(0)
    return [zeros_op(d, rng, (3, 2)), limit_op(d, rng, (2, 1))] + [
        genq_op(d, rng, "2,2", m) for m in GEN_R2
    ]


#: workload -> (tiny op list, spans that must record calls, spans that must not)
EXPECT = {
    "gen-cold": (
        _gen,
        {"cli.main", "relations.nn_recurrence_coeffs"} | KERNELS | BUILDERS,
        VERIFIERS | COEFFS | OPERATORS | NUMERIC,
    ),
    "verify-grid": (
        _verify,
        VERIFIERS | COEFFS | OPERATORS | KERNELS | {"relations.nn_recurrence_coeffs"},
        {"cli.main"} | BUILDERS | NUMERIC,
    ),
    "numeric": (
        _numeric,
        {"cli.main", "relations.nn_recurrence_coeffs"} | NUMERIC | BUILDERS | KERNELS,
        VERIFIERS | COEFFS | OPERATORS,
    ),
}


def run_workload(name, make_ops):
    outputs = {}
    for label in ("untraced", "traced"):
        ops = make_ops(Draws(0, name))
        clear_caches()
        tracer = Tracer() if label == "traced" else None
        if tracer:
            tracer.install()
        try:
            results = execute(ops, [], tracer)
        finally:
            if tracer:
                tracer.uninstall()
        outputs[label] = [(out, repr(err)) for _, out, err in results]
    calls = {
        name[: -len(".calls")]: value
        for name, (value, _) in tracer.metrics().items() if name.endswith(".calls")
    }
    return outputs["untraced"] == outputs["traced"], calls


def main() -> int:
    problems = []
    reached = set()
    for name, (make_ops, busy, idle) in EXPECT.items():
        same, calls = run_workload(name, make_ops)
        if not same:
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        problems += [f"{name}: {span} recorded no call" for span in sorted(busy) if not calls[span]]
        problems += [f"{name}: {span} recorded {calls[span]} calls, expected none"
                     for span in sorted(idle) if calls[span]]
        reached |= busy
    problems += [f"{span} is expected to record calls on no workload"
                 for span in SPANS if span not in reached]
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
