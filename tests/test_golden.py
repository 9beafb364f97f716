"""Byte-for-byte stdout of `gen`, `limit` and `verify`, pinned against
recorded output.

The cases in golden_stdout.json were recorded from earlier revisions; a
refactor that changes any byte of this output, float digits included, fails
here.  The per-check timings of `verify` (its `ms` fields) are masked on
both sides.  A case that records an `exit` status must end with it; the
others must exit 0.  Float cases (`gen --q`, `limit`) were re-recorded when
float contexts began to run the exact engine's algorithms; their recorded
digits are also checked for accuracy, so a re-recording cannot make them
worse."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qcharlier import QContext, build
from qcharlier.cli import _exact_shadow, main

CASES = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())
TIMING = re.compile(r'"ms": [0-9.e+-]+')
#: the largest relative coefficient error, against the exact shadow's
#: Rodrigues build, of the digits each `gen --q` case recorded before float
#: contexts ran the exact engine's algorithms (rounded up)
FLOAT_ERROR_BOUNDS = {
    "gen --q 0.81 --alpha 0.5 --alpha 0.6 --n 2,1": 1.57e-15,
    "gen --q 0.81 --alpha 0.5 --alpha 0.6 --n 6,6 --method system": 3.12e-4,
    "gen --q 0.81 --alpha 0.5 --alpha 0.6 --n 6,6 --method recurrence": 8.40e9,
    "gen --q 0.74 --alpha 0.35 --alpha 0.55 --alpha 0.8 --n 2,2,2": 3.08e-12,
}


def _ids(cases):
    return [" ".join(case["argv"]) for case in cases]


@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_stdout_matches_recorded(case, capsys):
    assert main(case["argv"]) == case.get("exit", 0)
    assert TIMING.sub('"ms": "masked"', capsys.readouterr().out) == case["stdout"]


FLOAT_GEN = [case for case in CASES if "--q" in case["argv"]]
LIMIT = [case for case in CASES if case["argv"][0] == "limit"]


def test_float_cases_are_the_ones_with_error_bounds():
    assert set(_ids(FLOAT_GEN)) == set(FLOAT_ERROR_BOUNDS)
    assert len(LIMIT) == 2


@pytest.mark.parametrize("case", FLOAT_GEN, ids=_ids(FLOAT_GEN))
def test_recorded_float_digits_are_no_less_accurate(case):
    doc = json.loads(case["stdout"])
    ctx = QContext.from_q_float(float(doc["q"]), [float(a) for a in doc["alphas"]])
    exact = build(doc["multi_index"], _exact_shadow(ctx), method="rodrigues").poly.coeffs
    assert len(doc["coefficients"]) == len(exact)
    error = max(
        abs(Fraction(float(got)) - want) / abs(want)
        for got, want in zip(doc["coefficients"], exact)
    )
    assert error <= FLOAT_ERROR_BOUNDS[" ".join(case["argv"])]


@pytest.mark.parametrize("case", LIMIT, ids=_ids(LIMIT))
def test_recorded_limit_reports_pass(case):
    assert json.loads(case["stdout"])["status"] == "pass"
