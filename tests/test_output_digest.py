"""Same output as recorded: each command of tests/output_digest.py exits with
the recorded code and prints the recorded stdout (compared by sha256).

The record, tests/output_digest.json, is written by
`python tests/output_digest.py --record`; a change that is meant to keep
every byte of output leaves it as it is."""

import json
from pathlib import Path

import output_digest

RECORDED = json.loads((Path(__file__).parent / "output_digest.json").read_text())


def test_every_command_prints_the_recorded_output():
    assert [row["argv"] for row in RECORDED] == output_digest.commands()
    changed = [row["argv"] for row in RECORDED if output_digest.fingerprint(row["argv"]) != row]
    assert changed == []
