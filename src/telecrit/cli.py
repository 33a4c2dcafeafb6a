"""Command-line front end.

Thin adapter over the library: parses arguments, loads states, calls
one library routine, and renders the result.  All numeric work lives in
the other modules; JSON is the source of truth and the table renderers
format the same values.

Each command returns its report and exit status; ``main`` writes the
report once, as JSON or through the command's table renderer.  Every
input error is a ``ValueError``, the loader's ``StateFileError``
included, and ``main`` turns each into one stderr line and exit 2.

A command imports ``teleport`` or ``angles`` only when it runs, so a
process compiles only what its subcommand uses: ``purity`` loads
``states`` and ``entanglement``; ``criterion``, ``teleport`` and
``eq5check`` add ``teleport``; ``scan`` adds ``teleport`` and ``angles``.

Exit codes: 0 success, 1 criterion verdict FAIL (criterion command
only), 2 input error, 71 (EX_OSERR) when the command runs out of memory,
74 (EX_IOERR) when the report cannot be written to standard output, 141
(128 + SIGPIPE) when the reader closes standard output before the report
is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .entanglement import _require_tol, purity_summary
from .states import (
    CATALOG_NAMES,
    STRICT_NORM_TOL,
    PureState,
    _norm_drifts,
    load_state_file,
    make_state,
    named_state,
)

if TYPE_CHECKING:
    from .teleport import RoleAssignment

__all__ = ["main"]

# --theta spellings besides a float: [+-][k]pi[/m], such as pi/4, 3pi/4 or -pi
_THETA = re.compile(r"([+-]?)(\d*)pi(?:/(\d+))?")
_PRODUCT_ZERO = re.compile(r"^product_zero_(\d+)$")

# exit status when standard output is closed early, as a shell reports
# a process killed by SIGPIPE; never read as a success or a verdict
EXIT_BROKEN_PIPE = 128 + 13
# exit status when writing the report fails (EX_IOERR of sysexits.h),
# e.g. on a full disk; likewise never read as a success or a verdict
EXIT_OUTPUT_ERROR = 74
# exit status when a command runs out of memory (EX_OSERR of sysexits.h),
# so a failed allocation never reads as a criterion FAIL
EXIT_OUT_OF_MEMORY = 71


def _load_state(source: str) -> PureState:
    wrong_width = f"bad state {source!r}: every command needs a five-qubit channel"
    match = _PRODUCT_ZERO.match(source)
    if match:
        # checked before building, since the state has 2**count amplitudes
        if int(match.group(1)) != 5:
            raise ValueError(wrong_width)
        return named_state("product_zero_n", 5)
    state = named_state(source) if source in CATALOG_NAMES else load_state_file(source)
    if state.num_qubits != 5:
        raise ValueError(wrong_width)
    return state


def _parse_theta(text: str) -> float:
    key = text.strip().lower().replace(" ", "")
    match = _THETA.fullmatch(key)
    try:
        if match:
            sign, k, m = match.groups()
            theta = int(sign + (k or "1")) * math.pi / int(m or 1)
        else:
            theta = float(key)
        if math.isfinite(theta):
            return theta
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"bad theta {text!r}: expected finite radians or [+-][k]pi[/m], e.g. 3pi/4")


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
        _require_tol(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad tol {text!r}: expected a finite number >= 0"
        ) from None
    return tol


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
        if seed < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed {text!r}: expected an integer >= 0"
        ) from None
    return seed


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated qubit labels, got {text!r}")
    try:
        pair = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {text!r}") from None
    return pair  # range/distinctness checked by RoleAssignment


def _assignment(args: argparse.Namespace) -> RoleAssignment:
    from .teleport import RoleAssignment

    return RoleAssignment(
        _parse_pair(args.alice, "--alice"), _parse_pair(args.bob, "--bob"), args.charlie
    )


def _parse_input(text: str, seed: int) -> tuple[PureState, int | None]:
    """Input coefficients or 'random'; returns the state and echoed seed."""
    if text.strip().lower() == "random":
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return make_state(2, vec / np.linalg.norm(vec)), seed
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            f"--input expects 'random' or four comma-separated complex "
            f"coefficients, got {text!r}"
        )
    try:
        coeffs = [complex(p.strip().replace(" ", "")) for p in parts]
    except ValueError:
        raise ValueError(f"--input has a bad complex coefficient in {text!r}") from None
    # float products overflow to inf, where abs(c) ** 2 raises OverflowError
    norm_sq = sum(c.real * c.real + c.imag * c.imag for c in coeffs)
    if _norm_drifts(norm_sq, STRICT_NORM_TOL):
        raise ValueError(
            f"--input squared norm {norm_sq!r} deviates from 1 by more than {STRICT_NORM_TOL}"
        )
    return make_state(2, coeffs), None


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, allow_nan=False))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_purity(doc: dict) -> None:
    print("pair purities:")
    for pair, value in doc["pairs"].items():
        print(f"  {pair}  {_fmt(value)}")
    print("single purities:")
    for qubit, value in doc["singles"].items():
        print(f"  {qubit}   {_fmt(value)}")
    print(f"mmes: {_fmt(doc['mmes'])}")
    print(f"worst pair: {doc['worst_pair']}  max deviation: {_fmt(doc['max_deviation'])}")


def _render_assignment(doc: dict) -> str:
    alice = ",".join(str(q) for q in doc["alice"])
    bob = ",".join(str(q) for q in doc["bob"])
    return f"alice=({alice}) bob=({bob}) charlie={doc['charlie']}"


def _print_setting(doc: dict) -> None:
    print(f"assignment: {_render_assignment(doc['assignment'])}")
    print(f"theta: {_fmt(doc['theta'])}")


def _render_criterion(doc: dict) -> None:
    _print_setting(doc)
    print(f"sigma111 defect: {_fmt(doc['sigma111_defect'])}")
    print(f"sigma112 defect: {_fmt(doc['sigma112_defect'])}")
    print(f"purity alice pair: {_fmt(doc['purity_alice_pair'])}")
    print(f"purity bob pair: {_fmt(doc['purity_bob_pair'])}")
    print(f"verdict: {'PASS' if doc['pass'] else 'FAIL'}")


def _render_scan(entries: list[dict]) -> None:
    for doc in entries:
        roots = (
            "-"
            if doc["roots"] is None
            else "[" + ", ".join(_fmt(r) for r in doc["roots"]) + "]"
        )
        print(
            f"{_render_assignment(doc)}  kind={doc['kind']}  roots={roots}  "
            f"min_defect={_fmt(doc['min_defect'])}  "
            f"argmin_theta={_fmt(doc['argmin_theta'])}  "
            f"purity_alice={_fmt(doc['purity_alice'])}  "
            f"purity_bob={_fmt(doc['purity_bob'])}"
        )


def _render_teleport(doc: dict) -> None:
    _print_setting(doc)
    if doc["seed"] is not None:
        print(f"seed: {doc['seed']}")
    print("outcome  probability  fidelity")
    for record in doc["records"]:
        i, j, n = record["outcome"]
        print(f"({i},{j},{n})  {_fmt(record['probability'])}  {_fmt(record['fidelity'])}")
    print(f"average fidelity: {_fmt(doc['average_fidelity'])}")


def _render_eq5(doc: dict) -> None:
    _print_setting(doc)
    print(f"max deviation: {_fmt(doc['max_deviation'])}")
    print(f"holds: {_fmt(doc['holds'])}")


def _cmd_purity(args: argparse.Namespace) -> tuple[dict, int]:
    return purity_summary(_load_state(args.state), args.tol), 0


def _cmd_criterion(args: argparse.Namespace) -> tuple[dict, int]:
    from .teleport import criterion_check

    state = _load_state(args.state)
    report = criterion_check(state, _assignment(args), _parse_theta(args.theta), args.tol)
    return report.as_dict(), 0 if report.passed else 1


def _cmd_scan(args: argparse.Namespace) -> tuple[list[dict], int]:
    from .angles import scan

    return scan(_load_state(args.state), args.tol).as_dicts(), 0


def _cmd_teleport(args: argparse.Namespace) -> tuple[dict, int]:
    from .teleport import simulate

    state = _load_state(args.state)
    input_state, seed = _parse_input(args.input, args.seed)
    assignment, theta = _assignment(args), _parse_theta(args.theta)
    records = simulate(state, assignment, theta, input_state)
    doc = {
        "assignment": assignment.as_dict(),
        "theta": theta,
        "input": [[z.real, z.imag] for z in input_state.amplitudes],
        "seed": seed,
        "records": [record.as_dict() for record in records],
        "average_fidelity": sum(r.probability * r.fidelity for r in records),
    }
    return doc, 0


def _cmd_eq5check(args: argparse.Namespace) -> tuple[dict, int]:
    from .teleport import pauli_factorization_check

    state = _load_state(args.state)
    assignment, theta = _assignment(args), _parse_theta(args.theta)
    report = pauli_factorization_check(state, assignment, theta, args.tol)
    return {"assignment": assignment.as_dict(), "theta": theta, **report._asdict()}, 0


def _add_common(parser: argparse.ArgumentParser, tol: bool = True) -> None:
    parser.add_argument(
        "--state",
        required=True,
        help="catalog state name or path to a state file (JSON or text)",
    )
    if tol:  # teleport decides nothing, so it takes no tolerance
        parser.add_argument(
            "--tol",
            type=_parse_tol,
            default=1e-10,
            help="numeric tolerance for pass/fail decisions (default 1e-10)",
        )
    parser.add_argument(
        "--output",
        choices=("table", "json"),
        default="table",
        help="report format (default table)",
    )


def _add_assignment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alice", required=True, help="Alice's channel qubit pair, e.g. 1,2"
    )
    parser.add_argument(
        "--bob", required=True, help="Bob's channel qubit pair, e.g. 3,4"
    )
    parser.add_argument(
        "--charlie", required=True, type=int, help="Charlie's channel qubit"
    )
    parser.add_argument(
        "--theta",
        required=True,
        help="Charlie's basis angle: radians or [+-][k]pi[/m], e.g. 3pi/4; "
        "write a negative one as --theta=-pi/4",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telecrit",
        description=(
            "Certify whether a five-qubit entangled channel supports faithful "
            "controlled teleportation of an arbitrary two-qubit state."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purity", help="pair/single reduction purities of a channel")
    _add_common(p)
    p.set_defaults(func=_cmd_purity, render=_render_purity)

    p = sub.add_parser(
        "criterion",
        help="unitarity test of the two base operators (exit 1 on FAIL)",
    )
    _add_common(p)
    _add_assignment(p)
    p.set_defaults(func=_cmd_criterion, render=_render_criterion)

    p = sub.add_parser("scan", help="classify all 30 role assignments of a channel")
    _add_common(p)
    p.set_defaults(func=_cmd_scan, render=_render_scan)

    p = sub.add_parser("teleport", help="simulate the full protocol, all 32 outcomes")
    _add_common(p, tol=False)
    _add_assignment(p)
    p.add_argument(
        "--input",
        required=True,
        help="four comma-separated complex coefficients, or 'random'",
    )
    p.add_argument(
        "--seed",
        type=_parse_seed,
        default=0,
        help="seed for --input random (default 0; echoed in the report)",
    )
    p.set_defaults(func=_cmd_teleport, render=_render_teleport)

    p = sub.add_parser(
        "eq5check",
        help="verify all 32 outcome operators factor through the base operators",
    )
    _add_common(p)
    _add_assignment(p)
    p.set_defaults(func=_cmd_eq5check, render=_render_eq5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    render = _print_json if args.output == "json" else args.render
    try:
        doc, status = args.func(args)
        render(doc)
        sys.stdout.flush()  # a write error shows here rather than at exit
    except ValueError as exc:  # StateFileError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except OSError as exc:
        # only writing the report raises one: the loader turns its own into
        # StateFileError.  Send the rest of the report, and the flush at
        # interpreter exit, to devnull so neither raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
