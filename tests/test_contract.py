"""The library keeps the benchmark's contract.

Loads the benchmark's gate, ``bench/reference.py``, by file path,
captures the library's answers with its ``capture`` and compares them
with ``bench/reference.json`` through the gate's own comparisons: scan
kinds, roots and purities, criterion verdicts, and the exit code and
JSON report of each fixed CLI command.  A break of the contract fails
here, before the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import telecrit

_GATE_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
_spec = importlib.util.spec_from_file_location("bench_reference", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

REFERENCE = gate.load()


@pytest.fixture(scope="module")
def captured():
    return gate.capture(telecrit)


@pytest.mark.parametrize("channel", gate.FIXED_CHANNELS)
def test_scan_matches_reference(captured, channel):
    assert gate.scan_problem(captured["scan"][channel], REFERENCE["scan"][channel]) is None


@pytest.mark.parametrize("channel", gate.FIXED_CHANNELS)
def test_criterion_verdicts_match_reference(captured, channel):
    verdicts = captured["criterion"][channel]
    assert set(verdicts) == set(gate.NAMED_ANGLES)
    for label, theta in gate.NAMED_ANGLES.items():
        assert len(verdicts[label]) == 30
        for key, passed in verdicts[label].items():
            assert passed is gate.expected_pass(REFERENCE, channel, key, theta), (label, key)


@pytest.mark.parametrize("command", sorted(gate.CLI_COMMANDS))
def test_cli_reports_match_reference(captured, command):
    run, want = captured["cli"][command], REFERENCE["cli"][command]
    assert run["argv"] == want["argv"]
    assert gate.cli_problem(run["exit"], json.dumps(run["json"]).encode(), want) is None
