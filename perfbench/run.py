"""qcharlier benchmark: one closed-loop client, one thread, in-process ops.

    python3 perfbench/run.py --workload gen-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Metric names and units come from BENCHMARK.json at the
same root.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
sample counts, class shares, failures and a digest of the drawn inputs.  The
full report (with every drawn input) and, for traced runs, the spans are
written under .perfbench-out/ in the checkout.

--trace 0 measures the end-to-end metrics: whole passes of the workload run
until the timed ops have taken --seconds, then every output is checked.  No
op of a pass fails on the baseline, so a failed op makes the run incorrect.
The op kinds that do fail on the baseline run in an untimed known-failure
probe after the measurement (numeric only); the probe's failures are
reported by kind, and as per-layer counts, but are not ops of the run.
--trace 1 measures the per-layer metrics on a fixed op list per workload, so
counts repeat exactly for a seed: the list runs once untraced and once
span-traced, then untraced again (tracing.overhead is the median over ops of
the traced speed relative to the second untraced run), and a profiled run of a
light part of the list counts the scalar operations.

The machine this was built on is shared: other tenants slow each core by up
to 1.5x for seconds at a time.  A fixed reference computation therefore runs
between ops, and each op's time is scaled by the speed it shows nearby, to
what it would be on the uncontended machine.  The unscaled figures are
printed alongside.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: seconds one calibration() takes on the reference machine (2-vCPU VM,
#: Python 3.11, uncontended); op times are reported at that speed
CALIBRATION_NOMINAL_S = 0.0015
CALIBRATION_WINDOW = 2  # calibrations on each side of an op that set its speed
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qcharlier, qcharlier.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import CALIBRATION_NOMINAL_S, calibration\n"
    "speed = CALIBRATION_NOMINAL_S / statistics.median(calibration() for _ in range(5))\n"
    "print(elapsed * speed)\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path) -> float:
    """Import time of the package in a fresh interpreter (start-up excluded),
    scaled to the reference speed by calibrations taken right after it."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(src), str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def rank(sorted_values, fraction):
    """Nearest-rank percentile."""
    k = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(k) - 1]


def calibration() -> float:
    """Seconds taken by a fixed pure-Python computation (rational sums and an
    integer loop) that uses nothing of the package.  Run between ops, it
    tracks how fast the shared machine runs Python code at that moment."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(7919 * k, k * k + 13)
    acc = 0
    for i in range(20000):
        acc += i * i
    return perf_counter() - start


def speed_factors(calibrations):
    """Per-op factor that scales a measured time to the reference speed: the
    nominal calibration time over the median of the calibrations taken
    nearest the op (the list has one more entry than there are ops)."""
    w = CALIBRATION_WINDOW
    return [
        CALIBRATION_NOMINAL_S / statistics.median(calibrations[max(0, i - w + 1): i + w + 1])
        for i in range(len(calibrations) - 1)
    ]


def execute(ops, calibrations, tracer=None):
    """Run ops back to back, calibrating before each op and after the last
    (appended to `calibrations`); return [(latency, output, error)]."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        calibrations.append(calibration())
        t0 = perf_counter()
        try:
            output, error = op.run(), None
        except Exception as exc:  # the op failed; it is counted, not fatal
            output, error = None, exc
        results.append((perf_counter() - t0, output, error))
    calibrations.append(calibration())
    return results


def judge(op, output, error):
    """(failure text or None, bit length of the output)."""
    if error is None:
        try:
            return None, op.check(output)
        except Exception as exc:  # a wrong output is a failed op
            error = exc
    return f"{type(error).__name__}: {error}"[:300], 0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = {}  # kind -> count
        self.bits = 0
        self.classes = {}

    def add(self, op, failure, bits):
        self.attempted += 1
        self.classes[op.cls] = self.classes.get(op.cls, 0) + 1
        self.bits = max(self.bits, bits)
        if failure is not None:
            self.failures[op.kind] = self.failures.get(op.kind, 0) + 1
            print(f"failed: {op.kind} {' '.join(op.inputs)}: {failure}", file=sys.stderr)

    @property
    def failed(self):
        return sum(self.failures.values())


def measure(workload, draws, seconds):
    """Whole passes until the ops have been busy for `seconds`.  Times are
    reported at the reference speed (each op's measured time times its speed
    factor); the measured times are kept in the detail as `raw`."""
    raw, scaled, tally, passes, records = [], [], Tally(), 0, []
    while sum(raw) < seconds:
        ops = workload.pass_ops(draws, passes)
        gc.collect()
        calibrations = []
        results = execute(ops, calibrations)
        for op, (latency, output, error), factor in zip(ops, results, speed_factors(calibrations)):
            raw.append(latency)
            scaled.append(latency * factor)
            tally.add(op, *judge(op, output, error))
            records.append([passes, op.kind, round(1000 * latency, 3), round(factor, 4)])
        passes += 1
    metrics = {
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": passes, "samples": len(raw)}
    for label, times in (("", scaled), ("raw_", raw)):
        times = sorted(times)
        p90 = rank(times, 0.9)
        detail[f"{label}samples_above_p90"] = sum(1 for v in times if v > p90)
        values = {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_ms_p50": (1000 * rank(times, 0.5), "ms"),
            "op_ms_p90": (1000 * p90, "ms"),
        }
        if label:
            detail["raw"] = {k: v for k, (v, _) in values.items()}
        else:
            metrics.update(values)
    detail["ops_ms"] = records  # [pass, kind, latency, speed factor]; report file only
    return metrics, tally, detail


def probe(workload, draws):
    """Run the workload's known-failure ops once, untimed: {kind: [failed,
    attempted]}, and the failed counts of the gen --q and limit ops."""
    ops = workload.probe_ops(draws)
    by_kind = {}
    for op, (_, output, error) in zip(ops, execute(ops, [])):
        failure, _ = judge(op, output, error)
        counts = by_kind.setdefault(op.kind, [0, 0])
        counts[0] += failure is not None
        counts[1] += 1
    failed = {
        group: sum(f for kind, (f, _) in by_kind.items() if kind.startswith(group + " "))
        for group in ("gen-q", "limit")
    }
    return dict(sorted(by_kind.items())), failed


def traced(workload, seed, out_dir):
    from inputs import Draws
    from tracer import Tracer, count_scalar_ops
    from workloads import clear_caches

    # the profiled count runs first, so it also warms the interpreter and
    # allocator up for the two timed runs it does not share inputs with
    count_ops = workload.count_ops(Draws(seed, workload.name))
    clear_caches()
    gc.collect()
    fraction_new, gcd = count_scalar_ops(count_ops)

    # the first untraced run also warms up what the count left cold; the
    # overhead compares the traced run with the second untraced one
    tracer, outputs, scaled = Tracer(), {}, {}
    for label in ("untraced", "traced", "untraced again"):
        ops = workload.trace_ops(Draws(seed, workload.name))
        clear_caches()
        gc.collect()
        active = tracer if label == "traced" else None
        calibrations = []
        if active:
            active.install()
        try:
            results = execute(ops, calibrations, active)
        finally:
            if active:
                active.uninstall()
        factors = speed_factors(calibrations)
        scaled[label] = [latency * f for (latency, _, _), f in zip(results, factors)]
        outputs[label] = [(out, err) for _, out, err in results]
    tally = Tally()
    for op, (output, error) in zip(ops, outputs["traced"]):
        tally.add(op, *judge(op, output, error))
    same = all(
        [(out, repr(err)) for out, err in outputs[label]]
        == [(out, repr(err)) for out, err in outputs["traced"]]
        for label in ("untraced", "untraced again")
    )
    if not same:
        print("traced outputs differ from untraced outputs", file=sys.stderr)

    metrics = tracer.metrics()
    metrics["scalars.fraction_new.calls"] = (fraction_new, "count")
    metrics["scalars.gcd.calls"] = (gcd, "count")
    metrics["scalars.output_bits_max"] = (tally.bits, "bits")
    metrics["tracing.overhead"] = (
        statistics.median(u / t for u, t in zip(scaled["untraced again"], scaled["traced"])),
        "ratio",
    )
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    detail = {
        "trace_ops": len(ops),
        "count_ops": len(count_ops),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "outputs_equal_untraced": same,
    }
    return metrics, tally, detail, same


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    src = ROOT / "src"
    if not (src / "qcharlier" / "__init__.py").is_file():
        print(f"error: no package source at {src}/qcharlier", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = [] if args.trace else [import_seconds(src) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(src))
    import qcharlier

    if Path(qcharlier.__file__).resolve().parent != (src / "qcharlier").resolve():
        print(f"error: imported {qcharlier.__file__}, not the checkout", file=sys.stderr)
        return 2
    from inputs import Draws
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    draws = Draws(args.seed, args.workload)
    if args.trace:
        metrics, tally, detail, same = traced(workload, args.seed, out_dir)
        workload.trace_ops(draws)  # replay the draws for the input record
    else:
        metrics, tally, detail = measure(workload, draws, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        same = True
    known_failures, probe_failed = probe(workload, draws)
    if args.trace:
        metrics["known_failures.gen_q"] = (probe_failed["gen-q"], "count")
        metrics["known_failures.limit"] = (probe_failed["limit"], "count")

    if set(metrics) != set(declared) or any(metrics[k][1] != declared[k] for k in declared):
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        print(sorted(set(metrics) ^ set(declared)), file=sys.stderr)
        return 1

    inputs_digest = hashlib.sha256(json.dumps(draws.log).encode()).hexdigest()
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        inputs_redrawn=draws.redrawn,
        inputs_sha256=inputs_digest,
        class_share={k: round(v / tally.attempted, 4) for k, v in sorted(tally.classes.items())},
        failures=dict(sorted(tally.failures.items())),
        known_failures=known_failures,
        setup_samples_s=setup,
    )
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(dict(detail, inputs=draws.log)))
    detail.pop("ops_ms", None)
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
