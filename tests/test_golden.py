"""Byte-for-byte stdout of `gen`, `limit` and `verify`, pinned against
recorded output.

The cases in golden_stdout.json were recorded from earlier revisions; a
refactor that changes any byte of this output, float digits included, fails
here.  The per-check timings of `verify` (its `ms` fields) are masked on
both sides.  A case that records an `exit` status must end with it; the
others must exit 0."""

import json
import re
from pathlib import Path

import pytest

from qcharlier.cli import main

CASES = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())
TIMING = re.compile(r'"ms": [0-9.e+-]+')


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_stdout_matches_recorded(case, capsys):
    assert main(case["argv"]) == case.get("exit", 0)
    assert TIMING.sub('"ms": "masked"', capsys.readouterr().out) == case["stdout"]
