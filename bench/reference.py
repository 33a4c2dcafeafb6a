"""Reference answers and the output-correctness gate.

``reference.json`` holds answers captured from the library at the commit
that defined this benchmark, for every fixed (unseeded) channel: scan
kinds, roots and pair purities; criterion verdicts at theta 0 and pi/4
for all 30 assignments; and exit code plus JSON report of each fixed CLI
command.  The JSON reports, verdicts, kinds, roots (within tolerance) and
exit codes are the contract a faster or smaller library must keep, so
the gate compares exactly those and nothing incidental: ``argmin_theta``
is free on flat profiles and a working entry's ``min_defect`` is noise
below tol, so neither is compared.

Every check returns a one-line problem string, or None when the output
is correct.  A problem makes its task count as failed; it never stops a
run.

Regenerate the file (only when the contract itself changes) with::

    python3 bench/reference.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

FLOAT_TOL = 1e-9
ROOT_TOL = 1e-6
MIN_DEFECT_TOL = 1e-6
PAIR_PURITY = 0.25

KIND_RANK = {"all_theta": 0, "discrete_theta": 1, "none": 2}

# channels with captured answers; seeded channels get invariant checks only
FIXED_CHANNELS = ("brown", "man_m5", "ghz5", "product_zero_5")
NAMED_ANGLES = {"0": 0.0, "pi/4": math.pi / 4}

# the interleaved brown pairing: faithful at pi/4 and 3pi/4, not at 0
BROWN_PAIRING = ((1, 3), (2, 4), 5)
CLI_PAIRING = ["--alice", "1,3", "--bob", "2,4", "--charlie", "5"]

# fixed CLI commands with captured reports; "--output json" is appended
CLI_COMMANDS = {
    "purity_brown": ["purity", "--state", "brown"],
    "purity_man_m5": ["purity", "--state", "man_m5"],
    "criterion_brown": ["criterion", "--state", "brown", *CLI_PAIRING, "--theta", "pi/4"],
    "criterion_man_m5": ["criterion", "--state", "man_m5", *CLI_PAIRING, "--theta", "pi/4"],
    "scan_brown": ["scan", "--state", "brown"],
    "scan_ghz5": ["scan", "--state", "ghz5"],
    "teleport_fixed": [
        "teleport", "--state", "brown", *CLI_PAIRING, "--theta", "pi/4",
        "--input", "0.6,0,0,0.8j",
    ],
    "eq5check_brown": ["eq5check", "--state", "brown", *CLI_PAIRING, "--theta", "pi/4"],
}


def fixed_channel(tc, name: str):
    """Build a fixed channel from library primitives."""
    if name == "product_zero_5":
        return tc.named_state("product_zero_n", 5)
    return tc.named_state(name)


def assignment_key(alice, bob, charlie) -> str:
    return f"{''.join(map(str, alice))}|{''.join(map(str, bob))}|{charlie}"


def entry_key(entry: dict) -> str:
    return assignment_key(entry["alice"], entry["bob"], entry["charlie"])


def load(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _angle_gap(a: float, b: float) -> float:
    gap = abs(a - b) % math.pi
    return min(gap, math.pi - gap)


def expected_pass(reference: dict, channel: str, key: str, theta: float) -> bool | None:
    """Criterion verdict the reference predicts, or None for a seeded channel.

    At a captured angle this is the captured verdict; elsewhere it follows
    from the captured scan: all_theta passes everywhere, discrete_theta
    only at its roots, none nowhere.
    """
    verdicts = reference["criterion"].get(channel)
    if verdicts is None:
        return None
    for label, angle in NAMED_ANGLES.items():
        if theta == angle:
            return verdicts[label][key]
    entry = {entry_key(e): e for e in reference["scan"][channel]}[key]
    if entry["kind"] == "all_theta":
        return True
    if entry["kind"] == "discrete_theta":
        return any(_angle_gap(theta, r) <= FLOAT_TOL for r in entry["roots"])
    return False


def compare_json(got, want, where: str = "$") -> str | None:
    """First difference between two JSON values; floats within FLOAT_TOL."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: {got!r} is not a number"
        return None if abs(got - want) <= FLOAT_TOL else f"{where}: {got!r} != {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: list shape differs"
        for k, (g, w) in enumerate(zip(got, want)):
            problem = compare_json(g, w, f"{where}[{k}]")
            if problem:
                return problem
        return None
    if not isinstance(got, dict) or set(got) != set(want):
        return f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
    for k in want:
        problem = compare_json(got[k], want[k], f"{where}.{k}")
        if problem:
            return problem
    return None


def scan_problem(entries: list[dict], want: list[dict] | None) -> str | None:
    """Shape, ordering and purity invariants, then the captured answers."""
    if len(entries) != 30 or len({entry_key(e) for e in entries}) != 30:
        return f"scan has {len(entries)} entries, expected 30 distinct assignments"
    ranks = [KIND_RANK.get(e["kind"]) for e in entries]
    if None in ranks:
        return f"unknown kind in {sorted({e['kind'] for e in entries})}"
    if ranks != sorted(ranks):
        return "entries are not sorted working-first"
    for e in entries:
        working = e["kind"] != "none"
        if (e["kind"] == "discrete_theta") != bool(e["roots"]):
            return f"{entry_key(e)}: kind {e['kind']} with roots {e['roots']}"
        if e["roots"] and not all(0.0 <= r < math.pi for r in e["roots"]):
            return f"{entry_key(e)}: root outside [0, pi): {e['roots']}"
        if working and max(
            abs(e["purity_alice"] - PAIR_PURITY), abs(e["purity_bob"] - PAIR_PURITY)
        ) > FLOAT_TOL:
            return f"{entry_key(e)}: working assignment with pair purity != 1/4"
    if want is None:
        return None
    got = {entry_key(e): e for e in entries}
    for w in want:
        key, g = entry_key(w), got.get(entry_key(w))
        if g is None:
            return f"{key}: missing"
        if g["kind"] != w["kind"]:
            return f"{key}: kind {g['kind']} != reference {w['kind']}"
        g_roots, w_roots = g["roots"] or [], w["roots"] or []
        if len(g_roots) != len(w_roots) or any(
            _angle_gap(a, b) > ROOT_TOL for a, b in zip(sorted(g_roots), sorted(w_roots))
        ):
            return f"{key}: roots {g_roots} != reference {w_roots}"
        for field in ("purity_alice", "purity_bob"):
            if abs(g[field] - w[field]) > FLOAT_TOL:
                return f"{key}: {field} {g[field]!r} != reference {w[field]!r}"
        if w["kind"] == "none" and abs(g["min_defect"] - w["min_defect"]) > MIN_DEFECT_TOL:
            return f"{key}: min_defect {g['min_defect']!r} != reference {w['min_defect']!r}"
    return None


def cli_problem(code: int, stdout: bytes, want: dict) -> str | None:
    """Exit code, then the JSON report against a captured one."""
    if code != want["exit"]:
        return f"exit code {code} != {want['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if isinstance(want["json"], list):
        return scan_problem(doc, want["json"])
    return compare_json(doc, want["json"])


def capture(tc) -> dict:
    """Answers of the current library for every fixed channel and command."""
    cli = importlib.import_module("telecrit.cli")
    assignments = tc.enumerate_assignments()
    doc = {"scan": {}, "criterion": {}, "cli": {}}
    for name in FIXED_CHANNELS:
        channel = fixed_channel(tc, name)
        doc["scan"][name] = tc.scan(channel).as_dicts()
        doc["criterion"][name] = {
            label: {
                assignment_key(a.alice, a.bob, a.charlie): tc.criterion_check(
                    channel, a, theta
                ).passed
                for a in assignments
            }
            for label, theta in NAMED_ANGLES.items()
        }
    for name, argv in CLI_COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, "--output", "json"])
        doc["cli"][name] = {"argv": argv, "exit": code, "json": json.loads(out.getvalue())}
    return doc


if __name__ == "__main__":
    import bootstrap

    bootstrap.prepare()
    import telecrit

    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(capture(telecrit), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
