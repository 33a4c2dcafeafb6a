"""The three workloads: inputs from a seed, one round of tasks, the checks.

A round is the unit a pass repeats: every task of a round runs once, in
a seeded order, one at a time.  Tasks call the library through package
attributes looked up at call time (``tc.scan(...)``), so the traced pass
sees them through the wrappers that :mod:`tracing` installs.

* ``scan_mix``: one ``scan()`` per channel.  Four generic channels,
  where the 720-point angle grid dominates (~0.6-0.9 s, ~23k-25k
  defect-profile evaluations each), outnumber the plateau channel
  ``man_m5``, where golden-section refinement on flat profiles dominates
  (~3 s, ~127k evaluations).  With five tasks a round, ``task_p50_ms``
  reads the grid path and ``task_tail_ms`` (the slowest task) the
  refinement path.  A round lasts ~7 s, so a 30 s run repeats every
  task three or four times, enough for a median.
* ``verify_sweep``: one task verifies one (channel, assignment) at three
  angles; each angle is a bundle of criterion + factorization check +
  protocol simulation.  5 channels x 30 assignments.  Runs the
  contraction and state code and never the angle classifier.
* ``cli_session``: fresh ``python -m telecrit.cli ... --output json``
  processes, so interpreter and import start-up, argument parsing,
  state loading and rendering are all in the measured time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import telecrit as tc

import bootstrap
import reference as ref

CLI_TIMEOUT_S = 120

SCAN_GENERIC = ("brown", "ghz5", "dense", "lu_brown")
SCAN_PLATEAU = ("man_m5",)
VERIFY_CHANNELS = ("brown", "man_m5", "ghz5", "lu_brown", "dense")
# fixed CLI commands of a session round; with the two state-file variants
# and teleport --input random a round has ten commands
CLI_FIXED = (
    "purity_brown",
    "purity_man_m5",
    "criterion_brown",
    "criterion_man_m5",
    "scan_brown",
    "teleport_fixed",
    "eq5check_brown",
)


@dataclass
class Task:
    """One unit of closed-loop work and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # span name of the task in the traced pass
    span: str = "task"
    # the task waits on a child process
    child: bool = False
    # the hostspeed probe that scales the task's time: "kernel" for numpy
    # work, "spawn" for interpreter start-up and imports
    probe: str = "kernel"


@dataclass
class CliOutcome:
    code: int
    stdout: bytes


@dataclass
class Workload:
    """What one set-up produces: a round of tasks and the in-process
    round the traced pass runs (the same round except for the CLI)."""

    tasks: list[Task]
    traced_tasks: list[Task]
    # rounds a timed pass runs at least, so every task's latency is a
    # median of several samples
    min_rounds: int = 3


def _haar_qubit(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _local_rotation(state, rng: np.random.Generator):
    unitary = _haar_qubit(rng)
    for _ in range(4):
        unitary = np.kron(unitary, _haar_qubit(rng))
    return tc.make_state(5, unitary @ state.amplitudes)


def build_channel(spec: str, rng: np.random.Generator):
    """A fixed channel by name, or a seeded one: dense, lu_<fixed name>."""
    if spec == "dense":
        return tc.make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    if spec.startswith("lu_"):
        return _local_rotation(ref.fixed_channel(tc, spec[3:]), rng)
    return ref.fixed_channel(tc, spec)


def _child_import(module: str) -> None:
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=bootstrap.child_env(),
        cwd=bootstrap.ROOT,
        check=True,
        timeout=CLI_TIMEOUT_S,
    )


# -- scan_mix ---------------------------------------------------------------


def _scan(channel):
    return tc.scan(channel)


def _scan_check(channel, want, brown: bool, report) -> str | None:
    entries = report.as_dicts()
    problem = ref.scan_problem(entries, want)
    if problem:
        return problem
    for e in entries:
        assignment = tc.RoleAssignment(tuple(e["alice"]), tuple(e["bob"]), e["charlie"])
        angles = e["roots"] or ([0.0] if e["kind"] == "all_theta" else [])
        for theta in angles:
            if not tc.criterion_check(channel, assignment, theta).passed:
                return f"{ref.entry_key(e)}: criterion fails at working angle {theta!r}"
    if brown:
        pairing = tc.RoleAssignment(*ref.BROWN_PAIRING)
        verdicts = [
            tc.criterion_check(channel, pairing, theta).passed
            for theta in (math.pi / 4, 3 * math.pi / 4, 0.0)
        ]
        if verdicts != [True, True, False]:
            return f"brown 13|24|5 verdicts at pi/4, 3pi/4, 0: {verdicts}"
    return None


def scan_mix(seed: int, size: str, reference: dict) -> Workload:
    rng = np.random.default_rng(seed)
    specs = SCAN_GENERIC + SCAN_PLATEAU if size == "full" else ("brown", "dense")
    tasks = []
    for spec in specs:
        channel = build_channel(spec, rng)
        want = reference["scan"].get(spec)
        label = "plateau" if spec in SCAN_PLATEAU else "generic"
        check = functools.partial(_scan_check, channel, want, spec == "brown")
        tasks.append(Task(f"{label}:{spec}", functools.partial(_scan, channel), check))
    tasks = [tasks[k] for k in rng.permutation(len(tasks))]
    first = tc.enumerate_assignments()[0]
    tc.classify_theta(build_channel("brown", rng), first)
    return Workload(tasks, tasks)


# -- verify_sweep -------------------------------------------------------------


def _bundle(channel, assignment, theta, input_state):
    return (
        tc.criterion_check(channel, assignment, theta),
        tc.pauli_factorization_check(channel, assignment, theta),
        tc.simulate(channel, assignment, theta, input_state),
    )


def _bundle_check(expected: bool | None, result) -> str | None:
    report, factorization, records = result
    if expected is not None and report.passed != expected:
        return f"criterion verdict {report.passed} != reference {expected}"
    if not factorization.holds:
        return f"factorization fails, deviation {factorization.max_deviation!r}"
    if len(records) != 32:
        return f"{len(records)} outcome records, expected 32"
    total = math.fsum(r.probability for r in records)
    if abs(total - 1.0) > ref.FLOAT_TOL:
        return f"outcome probabilities sum to {total!r}"
    if report.passed:
        if any(abs(r.fidelity - 1.0) > ref.FLOAT_TOL for r in records):
            return "criterion PASS but a fidelity is not 1"
        if any(abs(r.probability - 1 / 32) > ref.FLOAT_TOL for r in records):
            return "criterion PASS but an outcome probability is not 1/32"
        if max(
            abs(report.purity_alice_pair - ref.PAIR_PURITY),
            abs(report.purity_bob_pair - ref.PAIR_PURITY),
        ) > ref.FLOAT_TOL:
            return "criterion PASS but a pair purity is not 1/4"
    return None


def _verify(channel, assignment, cases):
    return [_bundle(channel, assignment, theta, state) for theta, state in cases]


def _verify_check(expected: list[tuple[float, bool | None]], results) -> str | None:
    for (theta, verdict), result in zip(expected, results, strict=True):
        problem = _bundle_check(verdict, result)
        if problem:
            return f"theta {theta!r}: {problem}"
    return None


def verify_sweep(seed: int, size: str, reference: dict) -> Workload:
    # a task is several ~9 ms bundles, so a sub-second stall of the machine
    # covers a few tasks, not the ten beyond the tail percentile
    rng = np.random.default_rng(seed)
    angles = (0.0, math.pi / 4, float(rng.uniform(0.0, math.pi)))
    assignments = tc.enumerate_assignments()
    tasks = []
    for spec in VERIFY_CHANNELS:
        channel = build_channel(spec, rng)
        for assignment in assignments:
            key = ref.assignment_key(assignment.alice, assignment.bob, assignment.charlie)
            cases = []
            for theta in angles:
                vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                cases.append((theta, tc.make_state(2, vec)))
            expected = [(t, ref.expected_pass(reference, spec, key, t)) for t in angles]
            tasks.append(
                Task(
                    spec,
                    functools.partial(_verify, channel, assignment, cases),
                    functools.partial(_verify_check, expected),
                )
            )
    tasks = [tasks[k] for k in rng.permutation(len(tasks))]
    if size != "full":
        tasks = tasks[:4]
    tasks[0].run()
    return Workload(tasks, tasks)


# -- cli_session ----------------------------------------------------------------


def _cli_subprocess(argv: list[str]) -> CliOutcome:
    proc = subprocess.run(
        [sys.executable, "-m", "telecrit.cli", *argv],
        capture_output=True,
        env=bootstrap.child_env(),
        cwd=bootstrap.ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    return CliOutcome(proc.returncode, proc.stdout)


def _cli_inprocess(argv: list[str]) -> CliOutcome:
    # the original main, so the traced pass attributes its time to the
    # per-command span rather than to a wrapper around main
    main = importlib.import_module("telecrit.cli").main
    main = getattr(main, "__wrapped__", main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return CliOutcome(code, out.getvalue().encode())


def _cli_check(want: dict, outcome: CliOutcome) -> str | None:
    return ref.cli_problem(outcome.code, outcome.stdout, want)


def _teleport_random_check(seed: int, outcome: CliOutcome) -> str | None:
    if outcome.code != 0:
        return f"exit code {outcome.code} != 0"
    try:
        doc = json.loads(outcome.stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("seed") != seed:
        return f"seed echoed as {doc.get('seed')!r}, expected {seed}"
    records = doc["records"]
    if len(records) != 32:
        return f"{len(records)} outcome records, expected 32"
    if abs(math.fsum(r["probability"] for r in records) - 1.0) > ref.FLOAT_TOL:
        return "outcome probabilities do not sum to 1"
    # the brown pairing is faithful at pi/4: every outcome is recovered
    if any(abs(r["fidelity"] - 1.0) > ref.FLOAT_TOL for r in records):
        return "a fidelity is not 1 on a faithful channel"
    if abs(doc["average_fidelity"] - 1.0) > ref.FLOAT_TOL:
        return f"average fidelity {doc['average_fidelity']!r}"
    return None


def _with_state(argv: list[str], state: str) -> list[str]:
    k = argv.index("--state")
    return [*argv[: k + 1], state, *argv[k + 2 :]]


def cli_commands(seed: int, reference: dict) -> list[tuple[str, list[str], Callable]]:
    """(name, argv, check) for every command of one session round."""
    brown_json = str(bootstrap.WORK / "brown.json")
    man_text = str(bootstrap.WORK / "man_m5.txt")
    # name -> (argv, name of the captured report it must reproduce)
    cases = {name: (ref.CLI_COMMANDS[name], name) for name in CLI_FIXED}
    cases["criterion_text_file"] = (
        _with_state(ref.CLI_COMMANDS["criterion_man_m5"], man_text), "criterion_man_m5"
    )
    cases["scan_json_file"] = (
        _with_state(ref.CLI_COMMANDS["scan_brown"], brown_json), "scan_brown"
    )
    out = [
        (name, [*argv, "--output", "json"], functools.partial(_cli_check, reference["cli"][want]))
        for name, (argv, want) in cases.items()
    ]
    teleport = ref.CLI_COMMANDS["teleport_fixed"]
    random_argv = [*teleport[:-2], "--input", "random", "--seed", str(seed), "--output", "json"]
    out.append(("teleport_random", random_argv, functools.partial(_teleport_random_check, seed)))
    return out


def cli_session(seed: int, size: str, reference: dict) -> Workload:
    rng = np.random.default_rng(seed)
    bootstrap.WORK.mkdir(parents=True, exist_ok=True)
    tc.save_state_json(tc.named_state("brown"), str(bootstrap.WORK / "brown.json"))
    tc.save_state_text(tc.named_state("man_m5"), str(bootstrap.WORK / "man_m5.txt"))
    commands = cli_commands(int(rng.integers(0, 2**31)), reference)
    if size != "full":
        keep = ("purity_brown", "criterion_man_m5", "criterion_text_file")
        commands = [c for c in commands if c[0] in keep]
    commands = [commands[k] for k in rng.permutation(len(commands))]
    tasks, traced = [], []
    for name, argv, check in commands:
        cmd = argv[0]
        # a scan process spends ~80% of its time in numpy work, the other
        # commands nearly all of theirs starting the interpreter
        probe = "kernel" if cmd == "scan" else "spawn"
        run = functools.partial(_cli_subprocess, argv)
        tasks.append(Task(cmd, run, check, child=True, probe=probe))
        traced.append(
            Task(cmd, functools.partial(_cli_inprocess, argv), check, span=f"cli.{cmd}")
        )
    return Workload(tasks, traced)


WORKLOADS = {
    "scan_mix": scan_mix,
    "verify_sweep": verify_sweep,
    "cli_session": cli_session,
}


def set_up(name: str, seed: int, size: str, reference: dict) -> Workload:
    """One full set-up: a fresh interpreter importing the library the
    workload drives (so work moved to import time shows), then the
    workload's inputs and a warm-up call."""
    _child_import("telecrit.cli" if name == "cli_session" else "telecrit")
    return WORKLOADS[name](seed, size, reference)
