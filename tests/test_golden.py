"""Byte-for-byte stdout of `gen` and `limit`, pinned against recorded output.

The cases in golden_stdout.json were recorded from an earlier revision; a
refactor that changes any byte of this output, float digits included, fails
here."""

import json
from pathlib import Path

import pytest

from qcharlier.cli import main

CASES = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_stdout_matches_recorded(case, capsys):
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
