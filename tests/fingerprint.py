"""Print sha256 digests over the observable outputs of the CLI and the library.

Run from the repository root::

    PYTHONPATH=src python tests/fingerprint.py [--scan | --verify]

The last line is one hash over everything; the lines before it give one
hash per kind of output (``cli``, ``scan``, ``criterion``, ``eq5``,
``operator``, ``simulate``), so a change shows which outputs moved.
``--scan`` prints the ``scan`` line alone, and ``--verify`` the
``criterion``, ``eq5``, ``operator`` and ``simulate`` lines alone, each
from the same inputs as the full run.  Standard error names numpy's
SIMD baseline, the dispatch targets the CPU runs and the core name of
the OpenBLAS kernel numpy loaded (``unknown`` where its library has no
such symbol), as some output bits depend on them.
Two checkouts that print the same hash give the same bytes on every run
below, so a refactor meant to keep behaviour can be checked bit for bit
against its parent.  The hash covers:

* CLI runs of all five commands on the catalog channels, on
  ``product_zero_5`` and on state files, in JSON and table form, and a
  set of input-error paths; each run adds its argv, stdout, stderr and
  exit code, with the temporary directory's path replaced by ``<tmp>``;
* ``scan`` at tol 1e-10 and 0.5, ``criterion_check``,
  ``pauli_factorization_check``, ``transformation_operator`` and
  ``simulate`` (``bob_corrected`` bytes included) on 64 channels.

Everything is seeded and runs in-process; nothing touches the network.
pytest does not collect this file.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from telecrit import (
    criterion_check,
    enumerate_assignments,
    make_state,
    named_state,
    pauli_factorization_check,
    save_state_json,
    save_state_text,
    scan,
    simulate,
    transformation_operator,
)
from telecrit.cli import main

from conftest import lu_rotated, random_channel  # this file's directory is on sys.path

SEED = 20091119
CLI_CHANNELS = ("brown", "man_m5", "ghz5", "product_zero_5", "product_zero_n")
ROLES = ("--alice", "1,2", "--bob", "3,4", "--charlie", "5")
COMMANDS = (
    ("purity",),
    ("scan",),
    ("criterion", *ROLES, "--theta", "pi/4"),
    ("eq5check", *ROLES, "--theta", "0.3"),
    ("teleport", *ROLES, "--theta", "3pi/4", "--input", "0.5,0.5j,-0.5,0.5"),
    ("teleport", *ROLES, "--theta=-pi", "--input", "random", "--seed", "7"),
)


def _error_runs(tmp: str) -> list[list[str]]:
    """Input errors: each exits 2 with one line on stderr (argparse: usage)."""
    criterion = ["criterion", "--state", "brown", "--theta", "pi/4"]
    teleport = ["teleport", "--state", "brown", *ROLES, "--theta", "0"]
    return [
        ["purity", "--state", "w5"],
        ["purity", "--state", "product_zero_3"],
        ["purity", "--state", os.path.join(tmp, "missing.json")],
        ["purity", "--state", os.path.join(tmp, "broken.json")],
        ["scan", "--state", os.path.join(tmp, "bell.txt")],
        ["purity", "--state", "brown", "--tol", "-1"],
        [*criterion, *ROLES[:4], "--charlie", "5", "--theta", "pi/0"],
        [*criterion, "--alice", "1", "--bob", "3,4", "--charlie", "5"],
        [*criterion, "--alice", "1,x", "--bob", "3,4", "--charlie", "5"],
        [*criterion, "--alice", "1,2", "--bob", "2,4", "--charlie", "5"],
        [*criterion, "--alice", "1,2", "--bob", "3,4", "--charlie", "6"],
        [*teleport, "--input", "1,0,0"],
        [*teleport, "--input", "1,0,0,x"],
        [*teleport, "--input", "1,1,0,0"],
        [*teleport, "--input", "random", "--seed", "-3"],
    ]


def _cli_runs(tmp: str) -> list[list[str]]:
    runs = []
    sources = (*CLI_CHANNELS, os.path.join(tmp, "brown.json"), os.path.join(tmp, "brown.txt"))
    for source in sources:
        for command, *rest in COMMANDS:
            for output in ("json", "table"):
                runs.append([command, "--state", source, *rest, "--output", output])
    return runs + _error_runs(tmp)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _channels(rng: np.random.Generator) -> list:
    """Four catalog channels, 20 local-unitary rotations of brown (faithful
    at every angle for some assignments), 20 dense complex and 20 real ones."""
    channels = [named_state(name) for name in ("brown", "man_m5", "ghz5", "product_zero_n")]
    channels += [lu_rotated(channels[0], rng) for _ in range(20)]
    channels += [random_channel(rng) for _ in range(20)]
    return channels + [make_state(5, rng.standard_normal(32)) for _ in range(20)]


def _inputs_and_channels(rng: np.random.Generator) -> tuple[list, list]:
    inputs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return [make_state(2, row) for row in inputs], _channels(rng)


def _scan(feed, index: int, channel) -> None:
    for tol in (1e-10, 0.5):
        feed("scan", index, tol, json.dumps(scan(channel, tol).as_dicts()))


def _verify(feed, rng: np.random.Generator, index: int, channel, inputs: list) -> None:
    """The ``criterion``, ``eq5``, ``operator`` and ``simulate`` lines of one
    channel, at three assignments and three angles that ``rng`` picks."""
    assignments = enumerate_assignments()
    for pick in rng.choice(len(assignments), size=3, replace=False):
        assignment = assignments[pick]
        for theta in (0.0, math.pi / 4, float(rng.uniform(-math.pi, math.pi))):
            feed("criterion", index, pick, theta, criterion_check(channel, assignment, theta))
            feed("eq5", index, pick, theta,
                 tuple(pauli_factorization_check(channel, assignment, theta)))
            for outcome in ((1, 1, 1), (1, 1, 2), (2, 3, 1), (4, 4, 2)):
                operator = transformation_operator(channel, assignment, *outcome, theta)
                feed("operator", index, pick, theta, outcome, operator.tobytes())
            for state in inputs[: 1 + index % 4]:
                for record in simulate(channel, assignment, theta, state):
                    feed("simulate", index, pick, theta, record.outcome,
                         record.probability, record.bob_corrected.tobytes(),
                         record.fidelity)


def _library(feed, rng: np.random.Generator) -> None:
    inputs, channels = _inputs_and_channels(rng)
    for index, channel in enumerate(channels):
        _scan(feed, index, channel)
        _verify(feed, rng, index, channel, inputs)


def verify_lines(feed) -> None:
    """Feed the verify-path lines of ``fingerprint`` alone, in its order:
    those of every kind but ``cli`` and ``scan``."""
    rng = np.random.default_rng(SEED)
    inputs, channels = _inputs_and_channels(rng)
    for index, channel in enumerate(channels):
        _verify(feed, rng, index, channel, inputs)


def _line(parts: tuple) -> bytes:
    return repr(parts).encode() + b"\n"


def fingerprint() -> tuple[str, dict[str, str]]:
    """The hash over all outputs, and one hash per kind of output."""
    digest, kinds = hashlib.sha256(), collections.defaultdict(hashlib.sha256)

    def feed(*parts) -> None:
        line = _line(parts)
        digest.update(line)
        kinds[parts[0]].update(line)

    with tempfile.TemporaryDirectory() as tmp:
        brown = named_state("brown")
        save_state_json(brown, os.path.join(tmp, "brown.json"))
        save_state_text(brown, os.path.join(tmp, "brown.txt"))
        save_state_text(named_state("bell_phi_plus"), os.path.join(tmp, "bell.txt"))
        with open(os.path.join(tmp, "broken.json"), "w", encoding="utf-8") as handle:
            handle.write('{"num_qubits": 5,\n "amplitudes": [1, 2')
        for argv in _cli_runs(tmp):
            status, out, err = _run(argv)
            feed("cli", [word.replace(tmp, "<tmp>") for word in argv], status, out,
                 err.replace(tmp, "<tmp>"))
    _library(feed, np.random.default_rng(SEED))
    return digest.hexdigest(), {kind: h.hexdigest() for kind, h in kinds.items()}


def scan_fingerprint() -> str:
    """The ``scan`` hash of ``fingerprint`` alone, from the same channels."""
    digest = hashlib.sha256()
    _, channels = _inputs_and_channels(np.random.default_rng(SEED))
    for index, channel in enumerate(channels):
        _scan(lambda *parts: digest.update(_line(parts)), index, channel)
    return digest.hexdigest()


def verify_fingerprint() -> dict[str, str]:
    """The verify-path hashes of ``fingerprint``, by kind."""
    kinds = collections.defaultdict(hashlib.sha256)
    verify_lines(lambda *parts: kinds[parts[0]].update(_line(parts)))
    return {kind: h.hexdigest() for kind, h in kinds.items()}


def verify_outcomes() -> dict[str, list]:
    """What the verify-path lines decide, in their order: each criterion
    verdict, each factorization check's ``holds`` and each outcome
    probability; for kernels whose last bits differ from this one's."""
    outcomes = {"criterion": [], "eq5": [], "probability": []}

    def feed(kind, *parts) -> None:
        if kind == "criterion":
            outcomes[kind].append(parts[-1].passed)
        elif kind == "eq5":
            outcomes[kind].append(parts[-1][0])
        elif kind == "simulate":
            outcomes["probability"].append(parts[4])

    verify_lines(feed)
    return outcomes


def scan_outcomes() -> list[list[dict]]:
    """The entries of the scan lines, in their order, one list of dicts per
    scan; for kernels whose last bits differ from this one's."""
    outcomes = []
    _, channels = _inputs_and_channels(np.random.default_rng(SEED))
    for index, channel in enumerate(channels):
        _scan(lambda *parts: outcomes.append(json.loads(parts[-1])), index, channel)
    return outcomes


def simd_dispatch() -> str:
    """numpy's SIMD baseline and the dispatch targets this CPU runs."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    baseline = " ".join(__cpu_baseline__)
    running = " ".join(target for target in __cpu_dispatch__ if __cpu_features__.get(target))
    return f"numpy {np.__version__} simd baseline {baseline}; dispatch {running or '-'}"


def openblas_core() -> str:
    """The core name of the OpenBLAS kernel that numpy's bundled library
    runs, such as SkylakeX, or ``unknown``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


if __name__ == "__main__":
    sys.stderr.write(f"{simd_dispatch()}; openblas {openblas_core()}\n")
    if sys.argv[1:] == ["--scan"]:
        sys.stdout.write(f"scan {scan_fingerprint()}\n")
        sys.exit(0)
    if sys.argv[1:] == ["--verify"]:
        for kind, hexdigest in verify_fingerprint().items():
            sys.stdout.write(f"{kind} {hexdigest}\n")
        sys.exit(0)
    overall, kinds = fingerprint()
    for kind, hexdigest in kinds.items():
        sys.stdout.write(f"{kind} {hexdigest}\n")
    sys.stdout.write(overall + "\n")
