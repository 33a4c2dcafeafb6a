"""Time fresh CLI processes of this checkout against another checkout's.

Run from the repository root, with the other checkout's ``src`` directory::

    PYTHONPATH=src python tests/cli_ab.py <other-src-dir> [rounds]

The commands are the ten of one round of the benchmark's ``cli_session``
workload, each with ``--output json``: purity of brown and man_m5,
criterion of brown, man_m5 and a man_m5 text file, scan of brown and a
brown JSON file, eq5check of brown, and teleport of brown with fixed and
seeded random input.  For each command the script first asserts that
both sides exit with the same code and write the same stdout bytes, but
for ``scan``, whose reports it compares entry by entry as ``scan_ab.py``
does, since their last bits and the order of exact ties may differ.  It
then runs ``rounds`` rounds (default 20), each running every command once
per side as a fresh ``python -m telecrit.cli`` process, the side that
goes first switching every round.  Just before each CLI process a fresh
interpreter runs a floor probe: ``import numpy``, then the flush of both
streams and the ``os._exit`` that end a CLI process, so the probe pays no
interpreter teardown either.  A process's net time is its wall time minus
its probe's: the work beyond starting the interpreter and importing
numpy, which includes the teardown of a checkout whose CLI still pays
it.  It prints each subcommand's median raw and net milliseconds on both
sides, and the ratio of the summed medians, this side over the other.
The process pins itself to one CPU and one BLAS thread, and its children
inherit both.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys

os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import telecrit  # noqa: E402
# this file's directory is on sys.path
from scan_ab import assert_scans_agree, keyed  # noqa: E402

PAIRING = ["--alice", "1,3", "--bob", "2,4", "--charlie", "5", "--theta", "pi/4"]
SUBCOMMANDS = ("purity", "criterion", "scan", "teleport", "eq5check")
FLOOR_PROBE = "import os, sys, numpy; sys.stdout.flush(); sys.stderr.flush(); os._exit(0)"


def _commands(work: Path) -> list[list[str]]:
    brown_json, man_text = work / "brown.json", work / "man_m5.txt"
    telecrit.save_state_json(telecrit.named_state("brown"), str(brown_json))
    telecrit.save_state_text(telecrit.named_state("man_m5"), str(man_text))
    commands = [
        ["purity", "--state", "brown"],
        ["purity", "--state", "man_m5"],
        ["criterion", "--state", "brown", *PAIRING],
        ["criterion", "--state", "man_m5", *PAIRING],
        ["criterion", "--state", str(man_text), *PAIRING],
        ["scan", "--state", "brown"],
        ["scan", "--state", str(brown_json)],
        ["teleport", "--state", "brown", *PAIRING, "--input", "0.6,0,0,0.8j"],
        ["teleport", "--state", "brown", *PAIRING, "--input", "random", "--seed", "2201"],
        ["eq5check", "--state", "brown", *PAIRING],
    ]
    return [[*argv, "--output", "json"] for argv in commands]


def _run(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, timeout=300
    )
    return time.perf_counter() - start, proc


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    rounds = int(argv[1]) if len(argv) == 2 else 20
    this_src = Path(telecrit.__file__).resolve().parent.parent
    envs = {
        side: {**os.environ, "PYTHONPATH": str(src)}
        for side, src in (("this", this_src), ("other", Path(argv[0]).resolve()))
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _commands(work)
        for command in commands:
            procs = {
                side: _run(["-m", "telecrit.cli", *command], env, work)[1]
                for side, env in envs.items()
            }
            this, other = procs["this"], procs["other"]
            assert this.returncode == other.returncode, f"{command}: the exit codes differ"
            if command[0] == "scan":
                docs = [keyed(json.loads(proc.stdout)) for proc in (this, other)]
                # both scan commands read brown
                assert_scans_agree(*docs, str(command), telecrit.named_state("brown"))
            else:
                assert this.stdout == other.stdout, f"{command}: the two sides differ"

        times = {side: {cmd: ([], []) for cmd in SUBCOMMANDS} for side in envs}
        for block in range(rounds):
            order = ("this", "other") if block % 2 == 0 else ("other", "this")
            for command in commands:
                for side in order:
                    floor, _ = _run(["-c", FLOOR_PROBE], envs[side], work)
                    wall, proc = _run(["-m", "telecrit.cli", *command], envs[side], work)
                    assert proc.returncode in (0, 1), proc.stderr.decode()
                    raw, net = times[side][command[0]]
                    raw.append(wall)
                    net.append(wall - floor)

    # side -> subcommand -> (median raw ms, median net ms)
    medians = {
        side: {cmd: tuple(statistics.median(t) * 1e3 for t in pair) for cmd, pair in per_cmd.items()}
        for side, per_cmd in times.items()
    }
    for side in medians:
        medians[side]["sum"] = tuple(map(sum, zip(*medians[side].values())))
    print(f"{'command':<10} {'this raw':>9} {'other raw':>9} {'this net':>9} {'other net':>9}"
          f" {'raw ratio':>9} {'net ratio':>9}   ms per process")
    for cmd in (*SUBCOMMANDS, "sum"):
        (this_raw, this_net), (other_raw, other_net) = medians["this"][cmd], medians["other"][cmd]
        print(f"{cmd:<10} {this_raw:9.2f} {other_raw:9.2f} {this_net:9.2f} {other_net:9.2f}"
              f" {this_raw / other_raw:9.3f} {this_net / other_net:9.3f}")
    print(f"{rounds} rounds of {len(commands)} commands per side, one CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
