"""Command-line behavior: exit codes, JSON shapes, determinism, errors."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from telecrit import named_state, save_state_json, save_state_text
import telecrit.cli as cli
import telecrit.states as states
from telecrit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_purity_json_man(capsys):
    code, out, err = run_cli(
        capsys, "purity", "--state", "man_m5", "--output", "json"
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert abs(doc["pairs"]["13"] - 0.5) < 1e-12
    assert abs(doc["pairs"]["24"] - 0.5) < 1e-12
    for pair in ("12", "14", "15", "23", "25", "34", "35", "45"):
        assert abs(doc["pairs"][pair] - 0.25) < 1e-12
    assert doc["mmes"] is False
    assert doc["worst_pair"] == "13"
    assert abs(doc["max_deviation"] - 0.25) < 1e-12


def test_purity_table_carries_same_values(capsys):
    code, json_out, _ = run_cli(
        capsys, "purity", "--state", "brown", "--output", "json"
    )
    assert code == 0
    doc = json.loads(json_out)
    code, table_out, _ = run_cli(capsys, "purity", "--state", "brown")
    assert code == 0
    for value in doc["pairs"].values():
        assert repr(value) in table_out
    assert "mmes: true" in table_out


def test_criterion_pass_exit_zero(capsys):
    code, out, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0.7", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["sigma111_defect"] < 1e-12
    assert doc["sigma112_defect"] < 1e-12
    assert abs(doc["purity_alice_pair"] - 0.25) < 1e-12
    assert abs(doc["purity_bob_pair"] - 0.25) < 1e-12
    assert doc["assignment"] == {"alice": [1, 2], "bob": [3, 4], "charlie": 5}


def test_criterion_fail_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,4", "--bob", "2,3",
        "--charlie", "5", "--theta", "pi/4",
    )
    assert code == 1
    assert "verdict: FAIL" in out


def test_criterion_swapped_pairs_report_the_same_defects(capsys):
    # (A, B, c) and (B, A, c) form one role class: swapping the pairs
    # transposes the base operators, and both report the class's defects
    docs = []
    for alice, bob in (("1,3", "2,4"), ("2,4", "1,3")):
        code, out, _ = run_cli(
            capsys,
            "criterion", "--state", "brown", "--alice", alice, "--bob", bob,
            "--charlie", "5", "--theta", "pi/4", "--output", "json",
        )
        assert code == 0
        docs.append(json.loads(out))
    first, second = docs
    assert first["assignment"]["alice"] == second["assignment"]["bob"] == [1, 3]
    for key in ("sigma111_defect", "sigma112_defect"):
        assert first[key] == second[key] < 1e-12  # to the bit
    assert first["purity_alice_pair"] == second["purity_bob_pair"]


def test_criterion_theta_alias_matches_numeric(capsys):
    _, alias_out, _ = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", "--theta", "pi/4", "--output", "json",
    )
    _, numeric_out, _ = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", "--theta", repr(math.pi / 4), "--output", "json",
    )
    assert alias_out == numeric_out
    assert json.loads(alias_out)["pass"] is True


def test_theta_three_quarter_pi_passes_brown(capsys):
    # the second working angle scan reports for brown 13|24|5
    code, out, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", "--theta", "3pi/4", "--output", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["theta"] == 3 * math.pi / 4


def test_negative_theta_needs_equals_sign(capsys):
    code, out, _ = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", "--theta=-pi/4", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["theta"] == -math.pi / 4


@pytest.mark.parametrize(
    "text, value",
    [
        # the five spellings of the old alias table keep their exact values
        ("pi", math.pi),
        ("pi/2", math.pi / 2.0),
        ("pi/3", math.pi / 3.0),
        ("pi/4", math.pi / 4.0),
        ("pi/6", math.pi / 6.0),
        ("-pi/4", -math.pi / 4),
        ("+2pi/3", 2 * math.pi / 3),
        (" 3 PI / 4 ", 3 * math.pi / 4),
        ("0pi", 0.0),
        ("-0.25", -0.25),
    ],
)
def test_theta_grammar_values(text, value):
    assert cli._parse_theta(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "pi/0", "pi/", "2*pi", "pi/2.5", "1.5pi", "--pi", "pi4",
        pytest.param("9" * 400 + "pi", id="huge"),
    ],
)
def test_theta_grammar_refuses(capsys, text):
    code, out, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", f"--theta={text}",
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: bad theta {text!r}: expected finite radians or [+-][k]pi[/m], e.g. 3pi/4"
    ]


def test_scan_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--state", "brown", "--output", "json"
    )
    assert code == 0
    entries = json.loads(out)
    assert isinstance(entries, list) and len(entries) == 30
    kinds = [entry["kind"] for entry in entries]
    assert kinds.count("all_theta") == 10
    assert kinds.count("discrete_theta") == 20
    assert kinds[:10] == ["all_theta"] * 10
    for entry in entries:
        if entry["kind"] == "discrete_theta":
            assert entry["roots"]
        else:
            assert entry["roots"] is None


def test_teleport_faithful_records(capsys):
    code, out, _ = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0", "--input", "1,0,0,0",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] is None
    assert doc["input"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert len(doc["records"]) == 32
    for record in doc["records"]:
        assert abs(record["probability"] - 1.0 / 32.0) < 1e-12
        assert abs(record["fidelity"] - 1.0) < 1e-12
    assert abs(doc["average_fidelity"] - 1.0) < 1e-12


def test_teleport_random_is_seed_deterministic(capsys):
    argv = (
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0.3", "--input", "random",
        "--seed", "5", "--output", "json",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 5
    _, other, _ = run_cli(capsys, *argv[:-3], "6", "--output", "json")
    assert json.loads(other)["input"] != doc["input"]


def test_teleport_table_lists_outcomes(capsys):
    code, out, _ = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0", "--input", "1,0,0,0",
    )
    assert code == 0
    assert "(1,1,1)" in out
    assert "(4,4,2)" in out
    assert "average fidelity:" in out


def test_eq5check_reports_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "eq5check", "--state", "brown", "--alice", "1,3", "--bob", "2,4",
        "--charlie", "5", "--theta", "0.3", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["max_deviation"] < 1e-12


def test_state_file_inputs_match_catalog(capsys, tmp_path):
    json_path = tmp_path / "brown.json"
    save_state_json(named_state("brown"), str(json_path))
    text_path = tmp_path / "brown.txt"
    save_state_text(named_state("brown"), str(text_path))

    _, from_name, _ = run_cli(capsys, "purity", "--state", "brown", "--output", "json")
    _, from_json, _ = run_cli(capsys, "purity", "--state", str(json_path), "--output", "json")
    _, from_text, _ = run_cli(capsys, "purity", "--state", str(text_path), "--output", "json")
    assert from_name == from_json == from_text


def test_product_zero_sized_state_name(capsys):
    code, out, _ = run_cli(
        capsys, "purity", "--state", "product_zero_5", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["mmes"] is False
    # other widths are rejected before the state is built
    code, _, err = run_cli(capsys, "purity", "--state", "product_zero_3")
    assert code == 2
    assert "five-qubit" in err


def test_unknown_state_exit_two(capsys):
    code, out, err = run_cli(capsys, "purity", "--state", "w5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_malformed_file_names_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("00 0.7 0.0\nxx 0.7 0.0\n")
    code, _, err = run_cli(capsys, "purity", "--state", str(path))
    assert code == 2
    assert ":2:" in err


def test_non_normalized_input_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0", "--input", "1,1,0,0",
    )
    assert code == 2
    assert "deviates" in err


def test_bad_theta_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "quarter-turn",
    )
    assert code == 2
    assert "bad theta" in err


def test_overlapping_roles_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,2", "--bob", "2,4",
        "--charlie", "5", "--theta", "0",
    )
    assert code == 2
    assert "partition" in err


def test_bad_pair_spelling_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1", "--bob", "3,4",
        "--charlie", "5", "--theta", "0",
    )
    assert code == 2
    assert "--alice" in err


def test_bad_input_coefficients_exit_two(capsys):
    code, _, err = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0", "--input", "1,0,0",
    )
    assert code == 2
    assert "--input" in err


def test_complex_input_coefficients_accepted(capsys):
    code, out, _ = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0.2",
        "--input", "0.5,0.5j,-0.5,0.5j", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["input"][1] == [0.0, 0.5]
    assert abs(doc["average_fidelity"] - 1.0) < 1e-10


def test_missing_subcommand_usage_error(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


def test_json_outputs_full_precision(capsys):
    _, out, _ = run_cli(
        capsys,
        "criterion", "--state", "brown", "--alice", "1,4", "--bob", "2,3",
        "--charlie", "5", "--theta", "0.2", "--output", "json",
    )
    doc = json.loads(out)
    value = doc["sigma111_defect"]
    assert repr(value) in out  # shortest round-trip repr, no rounding
    assert value > 0.1


def test_random_input_norm_is_exact(capsys):
    _, out, _ = run_cli(
        capsys,
        "teleport", "--state", "brown", "--alice", "1,2", "--bob", "3,4",
        "--charlie", "5", "--theta", "0", "--input", "random", "--seed", "12",
        "--output", "json",
    )
    doc = json.loads(out)
    norm_sq = sum(re * re + im * im for re, im in doc["input"])
    assert abs(norm_sq - 1.0) < 1e-12
    assert abs(doc["average_fidelity"] - 1.0) < 1e-10


_ASSIGNMENT_ARGS = ("--alice", "1,2", "--bob", "3,4", "--charlie", "5", "--theta", "0")
_SUBCOMMAND_ARGS = {
    "purity": (),
    "criterion": _ASSIGNMENT_ARGS,
    "scan": (),
    "teleport": (*_ASSIGNMENT_ARGS, "--input", "1,0,0,0"),
    "eq5check": _ASSIGNMENT_ARGS,
}


_BAD_TOLS = ["nan", "-1", "inf", "-inf", "1e400", "tight"]


@pytest.mark.parametrize("command", sorted(set(_SUBCOMMAND_ARGS) - {"teleport"}))
@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_bad_tol_exit_two(capsys, command, tol):
    code, out, err = run_cli(
        capsys, command, "--state", "brown", *_SUBCOMMAND_ARGS[command], f"--tol={tol}"
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"telecrit {command}: error: argument --tol: bad tol {tol!r}: "
        "expected a finite number >= 0"
    ]


@pytest.mark.parametrize("tol", ["1e-10", *_BAD_TOLS])
def test_teleport_takes_no_tol(capsys, tol):
    # the simulation decides nothing, so teleport has no --tol to ignore
    code, out, err = run_cli(
        capsys, "teleport", "--state", "brown", *_SUBCOMMAND_ARGS["teleport"], f"--tol={tol}"
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"telecrit: error: unrecognized arguments: --tol={tol}"
    ]


@pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
def test_bad_seed_exit_two(capsys, seed):
    code, out, err = run_cli(
        capsys, "teleport", "--state", "brown", *_ASSIGNMENT_ARGS,
        "--input", "random", f"--seed={seed}",
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"telecrit teleport: error: argument --seed: bad seed {seed!r}: "
        "expected an integer >= 0"
    ]


def test_zero_tol_accepted(capsys):
    code, _, err = run_cli(
        capsys, "criterion", "--state", "brown", *_ASSIGNMENT_ARGS, "--tol", "0"
    )
    assert code in (0, 1)
    assert err == ""


@pytest.mark.parametrize("command", ["criterion", "teleport", "eq5check"])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_non_finite_theta_exit_two(capsys, command, theta):
    roles = ("--alice", "1,2", "--bob", "3,4", "--charlie", "5")
    extra = ("--input", "1,0,0,0") if command == "teleport" else ()
    code, out, err = run_cli(
        capsys, command, "--state", "brown", *roles, f"--theta={theta}", *extra,
        "--output", "json",
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"error: bad theta {theta!r}: expected finite radians or [+-][k]pi[/m], e.g. 3pi/4"
    ]


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGS))
@pytest.mark.parametrize(
    "width", [3, 4, 6, pytest.param("9" * 5000, id="5000_digits")]
)
def test_product_zero_wrong_width_rejected_before_building(capsys, monkeypatch, command, width):
    built = []
    monkeypatch.setattr(cli, "named_state", lambda *a: built.append(a))
    code, out, err = run_cli(
        capsys, command, "--state", f"product_zero_{width}", *_SUBCOMMAND_ARGS[command]
    )
    assert code == 2
    assert out == ""
    assert built == []
    assert err.splitlines() == [
        f"error: bad state 'product_zero_{width}': every command needs a five-qubit channel"
    ]


def test_product_zero_width_may_have_leading_zeros(capsys):
    _, five, _ = run_cli(capsys, "purity", "--state", "product_zero_5")
    assert run_cli(capsys, "purity", "--state", "product_zero_005") == (0, five, "")


def test_json_output_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        cli._print_json({"theta": math.nan})


@pytest.mark.parametrize("coefficients", ["1e308,1e308,0,0", "1e200+1e200j,0,0,0"])
def test_huge_input_coefficients_exit_two(capsys, coefficients):
    code, out, err = run_cli(
        capsys, "teleport", "--state", "brown", *_ASSIGNMENT_ARGS, "--input", coefficients
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: --input squared norm inf deviates from 1 by more than 1e-06"
    ]


@pytest.mark.parametrize("coefficients", ["nan,0,0,0", "1,nanj,0,0"])
def test_nan_input_coefficients_name_the_flag(capsys, coefficients):
    code, out, err = run_cli(
        capsys, "teleport", "--state", "brown", *_ASSIGNMENT_ARGS, "--input", coefficients
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: --input squared norm nan deviates from 1 by more than 1e-06"
    ]


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGS))
@pytest.mark.parametrize("source", ["bell_phi_plus", "file"])
def test_wrong_width_state_exit_two(capsys, tmp_path, command, source):
    if source == "file":
        source = str(tmp_path / "three.txt")
        save_state_text(named_state("product_zero_n", 3), source)
    code, out, err = run_cli(capsys, command, "--state", source, *_SUBCOMMAND_ARGS[command])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: bad state {source!r}: every command needs a five-qubit channel"
    ]


def test_non_utf8_state_file_exit_two(capsys, tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(b"00000 1 0\n00001 \xc0 0\n")
    code, out, err = run_cli(capsys, "purity", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {path}:2: not UTF-8 text, byte 0xc0: invalid start byte"]


@pytest.mark.parametrize(
    "name, content",
    [
        ("nan_norm.txt", "00000 1e308 1e308\n11111 1e308 1e308\n"),
        ("nan_norm.json", '{"num_qubits": 1, "amplitudes": [[1e200, 1e200], [0, 0]]}'),
    ],
    ids=["text", "json"],
)
def test_nan_squared_norm_state_file_exit_two(capsys, tmp_path, name, content):
    # finite amplitudes whose squared norm overflows are refused, not
    # renormalized, in one wording whether np.vdot reads inf or nan
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run_cli(capsys, "purity", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}: squared norm overflows; refusing to renormalize file input"
    ]


@pytest.mark.parametrize("source", ["padded", "/dev/zero"])
def test_overlong_state_file_exit_two(monkeypatch, capsys, tmp_path, source):
    monkeypatch.setattr(states, "_MAX_FILE_CHARS", 4096)
    path = source
    if source == "padded":
        path = tmp_path / "padded.txt"
        path.write_text("00000 1 0\n" + "#" * 4096)
    code, out, err = run_cli(capsys, "purity", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {path}: longer than the limit of 4096 characters"]


def test_deeply_nested_state_file_exit_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"num_qubits": 5, "amplitudes": %s%s}' % ("[" * 10000, "]" * 10000))
    code, out, err = run_cli(capsys, "purity", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {path}:1: JSON nested too deeply"]


# strings a user might type: numbers at the edges of float range and
# complex literals, as many comma-separated as the flag takes, or free text
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.complex_numbers().map(str),
    st.sampled_from(["pi", "pi/4", "random", "1e308", "-0", "nanj", "1e309"]),
)
_FIELDS = {"--alice": 2, "--bob": 2, "--input": 4}


def _drawn(flag):
    size = _FIELDS.get(flag, 1)
    numbers = st.lists(_NUMBER, min_size=size, max_size=size).map(",".join)
    return st.one_of(numbers, st.text(max_size=12))


_FUZZ_BASE = {
    "purity": {"--tol": "1e-10"},
    "scan": {"--tol": "1e-10"},
    "criterion": {
        "--tol": "1e-10", "--alice": "1,2", "--bob": "3,4", "--charlie": "5", "--theta": "0.3"
    },
    "eq5check": {
        "--tol": "1e-10", "--alice": "1,3", "--bob": "2,4", "--charlie": "5", "--theta": "pi/4"
    },
    "teleport": {
        "--alice": "1,2", "--bob": "3,4", "--charlie": "5",
        "--theta": "0.3", "--input": "random", "--seed": "0",
    },
}


@pytest.mark.parametrize(
    ("command", "flag"), [(cmd, flag) for cmd, base in _FUZZ_BASE.items() for flag in base]
)
@given(data=st.data())
# derandomized: every run draws the same strings, so a failure reproduces
@settings(max_examples=20, deadline=None, derandomize=True)
def test_cli_fuzz_one_flag(command, flag, data):
    flags = {**_FUZZ_BASE[command], flag: data.draw(_drawn(flag), label="value")}
    state = data.draw(st.sampled_from(["brown", "man_m5", "ghz5"]), label="state")
    argv = [command, f"--state={state}", *(f"{k}={v}" for k, v in flags.items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


def _damaged_json(draw, n, vec):
    doc = {"num_qubits": n, "amplitudes": [[z.real, z.imag] for z in vec.tolist()]}
    junk = st.one_of(
        st.integers(-2, 8), st.booleans(), st.none(), st.floats(), st.text(max_size=3)
    )
    damage = draw(st.sampled_from(["none", "width", "amplitude", "truncate", "drop"]))
    if damage == "width":
        doc["num_qubits"] = draw(junk)
    elif damage == "amplitude":
        doc["amplitudes"][draw(st.integers(0, 2**n - 1))] = draw(st.one_of(junk, st.lists(junk)))
    elif damage == "truncate":
        del doc["amplitudes"][draw(st.integers(0, 2**n - 1)) :]
    elif damage == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc)


def _damaged_text(draw, n, vec):
    lines = [
        f"{k:0{n}b} {z.real!r} {z.imag!r}" for k, z in enumerate(vec.tolist()) if z != 0
    ]
    damage = draw(st.sampled_from(["none", "replace", "insert", "duplicate", "width", "scale"]))
    k = draw(st.integers(0, len(lines) - 1))
    if damage == "replace":
        lines[k] = draw(st.text(max_size=12))
    elif damage == "insert":
        lines.insert(k, draw(st.sampled_from(["", "# comment", "0 1", "2 0 0", "1 x 0"])))
    elif damage == "duplicate":
        lines.append(lines[k])
    elif damage == "width":
        lines[k] = "0" + lines[k]
    elif damage == "scale":
        bits, re_s, im_s = lines[k].split()
        lines[k] = f"{bits} {2 * float(re_s)!r} {im_s}"
    return "\n".join(lines) + "\n"


@st.composite
def _state_file_text(draw):
    """Contents of a JSON or text state file: a unit vector on at most six
    qubits, often five, then at most one damage."""
    n = draw(st.one_of(st.just(5), st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    vec[rng.random(2**n) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    if not vec.any():
        vec[0] = 1.0
    vec /= np.linalg.norm(vec)
    form = _damaged_json if draw(st.booleans()) else _damaged_text
    return form(draw, n, vec)


# an exact JSON integer beyond float range, one past Python's
# int-string limit, and a boolean pair
_HUGE_AMPLITUDE = '{"num_qubits": 5, "amplitudes": [[1%s, 0]%s]}' % ("0" * 400, ", [0, 0]" * 31)
_LONG_AMPLITUDE = '{"num_qubits": 5, "amplitudes": [[1%s, 0]%s]}' % ("0" * 5000, ", [0, 0]" * 31)
_BOOLEAN_AMPLITUDE = '{"num_qubits": 5, "amplitudes": [[true, false]%s]}' % (", [0, 0]" * 31)


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
@given(text=_state_file_text())
@example(text=_HUGE_AMPLITUDE)
@example(text=_LONG_AMPLITUDE)
@example(text=_BOOLEAN_AMPLITUDE)
# derandomized, and one file rewritten per example
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_fuzz_state_file(tmp_path, command, text):
    path = tmp_path / "state"
    path.write_text(text)
    argv = [command, f"--state={path}", *(f"{k}={v}" for k, v in _FUZZ_BASE[command].items())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


def _run_python(args, stdout, stderr=subprocess.PIPE, launcher=(sys.executable,)):
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [*launcher, *args],
        stdout=stdout,
        stderr=stderr,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def _run_module(argv, stdout, stderr=subprocess.PIPE):
    return _run_python(["-m", "telecrit.cli", *argv], stdout, stderr)


@pytest.mark.parametrize("output", ["json", "table"])
def test_closed_stdout_exits_broken_pipe(output):
    # the read end is closed before the child starts, so its first write
    # to standard output fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(["scan", "--state=brown", "--output", output], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--state=brown"],
        # a FAIL verdict (exit 1) whose report cannot be written
        ["criterion", "--state=man_m5", *_ASSIGNMENT_ARGS[:-1], "pi/4"],
    ],
    ids=["scan", "criterion"],
)
def test_full_stdout_exits_output_error(argv, output):
    with open("/dev/full", "wb") as full:
        proc = _run_module([*argv, "--output", output], full)
    assert proc.returncode == cli.EXIT_OUTPUT_ERROR == 74
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"
    ]


def test_out_of_memory_exits_documented_code(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_purity", exhausted)
    code, out, err = run_cli(capsys, "purity", "--state", "brown")
    assert code == cli.EXIT_OUT_OF_MEMORY == 71
    assert out == ""
    assert err.splitlines() == ["error: out of memory"]


# brown's criterion FAILs at this setting (test_criterion_fail_exit_one)
_FAIL_ARGS = ("--alice", "1,4", "--bob", "2,3", "--charlie", "5", "--theta", "pi/4")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("output", ["json", "table"])
def test_unwritable_fail_verdict_exits_output_error(capsys, output):
    argv = ["criterion", "--state=brown", *_FAIL_ARGS, "--output", output]
    assert run_cli(capsys, *argv)[0] == 1
    with open("/dev/full", "wb") as full:
        proc = _run_module(argv, full)
    assert proc.returncode == cli.EXIT_OUTPUT_ERROR
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"
    ]


# the process exit path, python -m telecrit.cli, against main in process:
# every subcommand, a criterion FAIL and an input error
_PROCESS_CASES = {
    "purity": (["purity", "--state=brown"], 0),
    "criterion": (["criterion", "--state=brown", *_ASSIGNMENT_ARGS], 0),
    "criterion_fail": (["criterion", "--state=brown", *_FAIL_ARGS], 1),
    "scan": (["scan", "--state=brown"], 0),
    "teleport": (
        ["teleport", "--state=brown", *_ASSIGNMENT_ARGS, "--input=random", "--seed=7"], 0
    ),
    "eq5check": (["eq5check", "--state=brown", *_ASSIGNMENT_ARGS], 0),
    "input_error": (["purity", "--state=w5"], 2),
}


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize(("argv", "status"), _PROCESS_CASES.values(), ids=_PROCESS_CASES)
def test_process_exit_matches_main(capsys, argv, status, output):
    argv = [*argv, "--output", output]
    code, out, err = run_cli(capsys, *argv)
    proc = _run_module(argv, subprocess.PIPE)
    assert proc.returncode == code == status
    assert proc.stdout == out.encode()
    assert proc.stderr == err.encode()
    if status == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def _run_shell(argv, redirect):
    """python -m telecrit.cli through sh -c, with a shell redirection such as
    >&- (standard output closed) after the arguments."""
    words = " ".join(f"'{word}'" for word in argv)
    script = f'"$0" -m telecrit.cli {words} {redirect}'
    return _run_python([], subprocess.PIPE, launcher=["sh", "-c", script, sys.executable])


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize("command", ["purity", "scan", "criterion_fail"])
def test_closed_stdout_exits_output_error(command, output):
    # sys.stdout is None in the child: the report cannot be written, which
    # must not read as success or as a criterion FAIL
    argv, _ = _PROCESS_CASES[command]
    proc = _run_shell([*argv, "--output", output], ">&-")
    assert proc.returncode == cli.EXIT_OUTPUT_ERROR == 74
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 9] standard output is closed"
    ]


@pytest.mark.parametrize("redirect", ["2>&-", ">&- 2>&-"])
def test_closed_stderr_keeps_input_error_exit(redirect):
    # the diagnostic has nowhere to go, and the status still says input error
    proc = _run_shell(["purity", "--state", "nosuch"], redirect)
    assert proc.returncode == 2
    assert proc.stdout == proc.stderr == b""


@pytest.fixture
def buffered_streams(monkeypatch):
    """Children with block-buffered standard output, so that what main
    leaves unflushed, such as argparse's --help, reaches the final flush."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help at


def test_final_flush_delivers_help(capsys, buffered_streams):
    assert main(["--help"]) == 0
    proc = _run_module(["--help"], subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsys.readouterr().out.encode()


def test_final_flush_into_closed_pipe_exits_broken_pipe(buffered_streams):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        help_proc = _run_module(["--help"], write_end)
    finally:
        os.close(write_end)
    assert (help_proc.returncode, help_proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["scan"], ["purity", "--state", "nosuch"]], ids=["usage", "input"]
)
def test_diagnostic_into_closed_pipe_keeps_input_error_exit(
    buffered_streams, monkeypatch, argv, unbuffered
):
    # the diagnostic cannot be written, whether or not the stream buffers
    # it, and the status still says input error
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(argv, subprocess.PIPE, stderr=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_final_flush_into_full_device_exits_output_error(buffered_streams):
    with open("/dev/full", "wb") as full:
        proc = _run_module(["--help"], full)
    assert proc.returncode == cli.EXIT_OUTPUT_ERROR
    assert proc.stderr.decode().splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"
    ]


def test_process_ends_without_interpreter_teardown(capsys, tmp_path):
    # an atexit handler runs only if the interpreter is torn down
    marker = tmp_path / "atexit-ran"
    argv = ["purity", "--state=brown", "--output", "json"]
    script = (
        "import atexit, pathlib, runpy, sys\n"
        f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'ran')\n"
        f"sys.argv = ['telecrit', *{argv!r}]\n"
        "runpy.run_module('telecrit.cli', run_name='__main__')\n"
    )
    proc = _run_python(["-c", script], subprocess.PIPE)
    assert main(argv) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    assert proc.stderr == b""
    assert not marker.exists()
