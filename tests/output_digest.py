"""Same-output digest: run a fixed list of CLI commands and print what each
one wrote.

    python tests/output_digest.py > digest.jsonl
    python tests/output_digest.py --record > tests/output_digest.json

Each command runs in-process on cold memo tables, through `qcharlier.cli.main`
of the checkout this file sits in.  One JSON line per command holds its argv,
exit code, stdout (with the `ms` timings of `verify` masked) and stderr.  Run
it on two revisions and diff the outputs: a change that keeps every byte of
output keeps the digest.  `--record` writes the pinned form that
tests/test_output_digest.py compares against: argv, exit code and the
sha256 of stdout per command.  Stderr is not pinned, since the wording of
argparse's usage errors changes between Python versions.  The list covers
the four routes in both bases for r = 1..3 up to (10, 10) at two values of
t, `gen --q` on the float backend, `verify`, `limit`, `zeros` and usage
errors.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qcharlier.cli import main  # noqa: E402

TIMING = re.compile(r'"ms": [0-9.e+-]+')
ROUTES = ("system", "rodrigues", "explicit", "recurrence")
BASES = ("monomial", "falling")
INDICES = ("0", "3", "8", "0,0", "2,1", "0,4", "3,3", "6,6", "10,10", "1,1,1", "3,2,3")


def commands():
    out = []
    for t, n, route, basis in itertools.product(("9/10", "4/3"), INDICES, ROUTES, BASES):
        out.append(["gen", "--t", t, "--n", n, "--method", route, "--basis", basis])
    three = ["--t", "59/67", "--alpha", "53/59", "--alpha", "61/67", "--alpha", "73/79"]
    for n, route in itertools.product(("2,2,2", "4,4,4"), ROUTES):
        out.append(["gen", *three, "--n", n, "--method", route, "--basis", "falling"])
    for n, route in itertools.product(("12", "5"), ROUTES):
        out.append(["gen", "--alpha", "5/7", "--n", n, "--method", route])
    for q, n, route in itertools.product(("0.81", "0.5", "1.3", "0.95"), ("2,1", "3,3", "1,1,1"), ROUTES):
        out.append(["gen", "--q", q, "--n", n, "--method", route])
    out += [
        ["verify"],
        ["verify", "--t", "4/3"],
        ["verify", "--rmax", "3", "--nmax", "2"],
        ["verify", "--suite", "nn", "--nmax", "4"],
        ["verify", "--suite", "stepline", "--t", "7/5"],
        ["verify", "--inject-defect", "1,1:1"],
        ["verify", "--suite", "nn", "--inject-defect", "2,1:0"],
        ["limit", "--n", "2,1"],
        ["limit", "--n", "3,3", "--quiet"],
        ["limit", "--n", "6,6", "--quiet"],
        ["limit", "--n", "0,0", "--quiet"],
        ["zeros", "--n", "3,2"],
        ["zeros", "--n", "6,6", "--t", "4/5"],
        ["zeros", "--q", "0.74", "--alpha", "0.35", "--alpha", "0.55", "--n", "4,4"],
        ["zeros", "--q", "0.81", "--alpha", "0.5", "--n", "7"],
        ["gen", "--n", "1,x"],
        ["gen", "--n", "1.5,2"],
        ["gen", "--n=-1,2"],
        ["gen", "--n", "2,1,1"],
        ["gen", "--n", "2,1", "--alpha", "1/2", "--alpha", "1/2"],
        ["gen", "--n", "2,1", "--t", "1"],
        ["gen", "--n", "2,1", "--q", "nan"],
        ["gen", "--n", "2"],
        ["limit", "--n", ",2"],
        ["limit", "--m-list", "2,2"],
        ["limit", "--m-list", "2,x"],
        ["verify", "--inject-defect", "1,x:1"],
        ["verify", "--inject-defect", "1,1:x"],
        ["verify", "--inject-defect", "1,1:1:0"],
        ["verify", "--rmax", "0"],
        ["zeros", "--n", "2,y"],
        ["gen"],
    ]
    return out


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "qcharlier" or name.startswith("qcharlier."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run(argv):
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": TIMING.sub('"ms": "masked"', out.getvalue()),
        "stderr": err.getvalue(),
    }


def fingerprint(argv):
    """The pinned form of one command's run: argv, exit code, stdout's sha256."""
    result = run(argv)
    digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
    return {"argv": argv, "exit": result["exit"], "stdout_sha256": digest}


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        rows = [json.dumps(fingerprint(argv)) for argv in commands()]
        print("[\n" + ",\n".join(rows) + "\n]")
    else:
        for argv in commands():
            print(json.dumps(run(argv)), flush=True)
