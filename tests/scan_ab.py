"""Time ``scan`` and the verify path of this checkout against another
checkout's, in one process.

Run from the repository root, with the other checkout's ``src`` directory::

    PYTHONPATH=src python tests/scan_ab.py <other-src-dir> [blocks]

The other ``telecrit`` is imported as ``telecrit_other``, beside the one
on ``PYTHONPATH``.  Five channels are built as ``conftest`` builds them:
brown, ghz5, man_m5, a seeded dense channel and a seeded brown under
local unitaries.  Each side gets its own states from the same raw
amplitudes, so neither shares the other's purity memo.  The script
asserts that both sides' scans agree on these five and on 20 seeded
sparse channels of +-1 amplitudes, each at tol 1e-10, 1e-6, 0.5 and 10:
entries keyed by assignment, with equal kinds, root counts, purities and
``argmin_theta``, and roots and ``min_defect`` within ``ROUNDING``.  The
sides may differ in last bits, and entries whose ``min_defect`` ties
within them may sort in another order.  It prints the largest move of a
root and of a ``min_defect``, and the number of scans whose entries came
in another order.  It then times
the five, alternating blocks of 20 scans per channel between the sides,
the side that goes first switching every block, and prints each
channel's median time per scan and the ratio of the summed medians,
this side over the other.  After the scans it times the verify path the
same way: a block is one verify bundle (criterion_check,
pauli_factorization_check and simulate at one setting) per assignment
of a channel, 30 bundles, each at a fresh seeded angle that both sides
share, so no bundle starts at the setting the last one left on the
channel.  Before timing, it asserts that both sides give the same bundle
results on every channel at three angles of every assignment: the
factorization reports and simulate records (reprs, and the bytes of
Bob's corrected states) to the bit, and the criterion reports with equal
verdicts and purities and defects within ``ROUNDING``.  Last it times
``criterion_check`` alone the same way, 30 checks per block, each at a
fresh seeded angle, so every check builds its setting's record.  The
process pins itself to one CPU and one BLAS thread before numpy loads.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys

os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import telecrit  # noqa: E402
# this file's directory is on sys.path
from conftest import lu_rotated, random_channel, sparse_channel  # noqa: E402

SCANS_PER_BLOCK = 20
CHECKED_TOLS = (1e-10, 1e-6, 0.5, 10.0)
# how far a root, min_defect or criterion defect may move between the sides
ROUNDING = 1e-12


def _import_other(src: str):
    """The ``telecrit`` package under ``src``, imported as ``telecrit_other``."""
    init = Path(src) / "telecrit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "telecrit_other", init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _raw_channels() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20091119)
    brown = telecrit.named_state("brown")
    return {
        "brown": brown.amplitudes,
        "ghz5": telecrit.named_state("ghz5").amplitudes,
        "man_m5": telecrit.named_state("man_m5").amplitudes,
        "dense": random_channel(rng).amplitudes,
        "lu_brown": lu_rotated(brown, rng).amplitudes,
    }


def _block(package, channel) -> float:
    """Seconds per scan, over one block of scans."""
    start = time.perf_counter()
    for _ in range(SCANS_PER_BLOCK):
        package.scan(channel)
    return (time.perf_counter() - start) / SCANS_PER_BLOCK


def _bundle(package, channel, assignment, theta, input_state) -> tuple:
    """One verify bundle at one setting."""
    return (
        package.criterion_check(channel, assignment, theta),
        package.pauli_factorization_check(channel, assignment, theta),
        package.simulate(channel, assignment, theta, input_state),
    )


def _bundle_bits(bundle: tuple) -> tuple[dict, str]:
    """A bundle's criterion report as a dict, and its other results as one
    string: the factorization report's repr, the records' fields and the
    bytes of their corrected states."""
    report, factorization, records = bundle
    rows = [(r.outcome, r.probability, r.fidelity, r.bob_corrected.tobytes()) for r in records]
    return {**report.as_dict(), "tol": report.tol}, repr((tuple(factorization), rows))


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= ROUNDING


def _assert_bundles_agree(this: tuple[dict, str], other: tuple[dict, str], where: str) -> None:
    """Both sides' bundle results: all but the criterion defects to the bit,
    those within ROUNDING."""
    (report, bits), (report_other, bits_other) = this, other
    assert bits == bits_other, f"{where}: the factorization or simulate results differ"
    defects = ("sigma111_defect", "sigma112_defect")
    rest = {key: value for key, value in report.items() if key not in defects}
    assert rest == {key: report_other[key] for key in rest}, f"{where}: the criteria differ"
    for key in defects:
        assert _near(report[key], report_other[key]), f"{where}: {key} moved"


def keyed(entries: list[dict]) -> dict[tuple, dict]:
    """Scan entries as dicts, keyed by assignment."""
    return {(tuple(d["alice"]), tuple(d["bob"]), d["charlie"]): d for d in entries}


def assert_scans_agree(this: dict, other: dict, where: str) -> dict[str, float]:
    """Both sides' scan entries, keyed by assignment: kinds, root counts,
    purities and argmin_theta equal; roots and min_defect within ROUNDING.
    Returns the largest move of a root and of a min_defect."""
    assert this.keys() == other.keys(), where
    moved = {"root": 0.0, "min_defect": 0.0}
    for key, got in this.items():
        want = other[key]
        at = f"{where}, {key}"
        assert got["kind"] == want["kind"], f"{at}: kinds differ"
        assert got["purity_alice"] == want["purity_alice"], f"{at}: purities differ"
        assert got["purity_bob"] == want["purity_bob"], f"{at}: purities differ"
        assert got["argmin_theta"] == want["argmin_theta"], f"{at}: argmin_theta moved"
        roots, roots_other = got["roots"] or [], want["roots"] or []
        assert len(roots) == len(roots_other), f"{at}: root counts differ"
        for field, pairs in (
            ("root", zip(roots, roots_other)),
            ("min_defect", [(got["min_defect"], want["min_defect"])]),
        ):
            for x, y in pairs:
                assert _near(x, y), f"{at}: {field} moved"
                moved[field] = max(moved[field], abs(x - y))
    return moved


def _criterion(package, channel, assignment, theta, input_state):
    """A criterion check alone at one setting."""
    return package.criterion_check(channel, assignment, theta)


def _verify_block(package, channel, input_state, thetas, step) -> float:
    """Seconds per ``step`` (a bundle or a criterion check), over one block:
    one step per assignment, each at its own angle."""
    assignments = package.enumerate_assignments()
    start = time.perf_counter()
    for assignment, theta in zip(assignments, thetas):
        step(package, channel, assignment, theta, input_state)
    return (time.perf_counter() - start) / len(thetas)


def _time_verify(sides, channels, inputs, rng, blocks, step) -> dict:
    """Per-step times of every channel on both sides, in alternating blocks
    at fresh seeded angles that both sides share."""
    times = {side: {name: [] for name in channels[side]} for side in sides}
    for block in range(blocks):
        order = ("this", "other") if block % 2 == 0 else ("other", "this")
        thetas = {name: rng.uniform(-math.pi, math.pi, 30).tolist() for name in times["this"]}
        for side in order:
            for name, channel in channels[side].items():
                times[side][name].append(
                    _verify_block(sides[side], channel, inputs[side], thetas[name], step)
                )
    return times


def _print_medians(times: dict[str, dict[str, list[float]]], unit: str) -> None:
    """Each channel's median per ``unit`` on both sides, their ratio, and the
    ratio of the summed medians, this side over the other."""
    medians = {
        side: {name: statistics.median(runs) for name, runs in per_channel.items()}
        for side, per_channel in times.items()
    }
    print(f"{'channel':<10} {'this ms':>9} {'other ms':>9} {'ratio':>7}   per {unit}")
    for name in medians["this"]:
        this, there = medians["this"][name], medians["other"][name]
        print(f"{name:<10} {this * 1e3:9.4f} {there * 1e3:9.4f} {this / there:7.3f}")
    total = {side: sum(per_channel.values()) for side, per_channel in medians.items()}
    print(f"{'sum':<10} {total['this'] * 1e3:9.4f} {total['other'] * 1e3:9.4f} "
          f"{total['this'] / total['other']:7.3f}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    blocks = int(argv[1]) if len(argv) == 2 else 50
    other = _import_other(argv[0])
    sides = {"this": telecrit, "other": other}
    raw = _raw_channels()
    channels = {
        side: {name: package.make_state(5, amps) for name, amps in raw.items()}
        for side, package in sides.items()
    }
    rng = np.random.default_rng(1401)
    sparse = {f"sparse {k}": sparse_channel(rng).amplitudes for k in range(20)}
    largest = dict.fromkeys(("root", "min_defect"), 0.0)
    reordered = 0
    for name, amps in {**raw, **sparse}.items():
        for tol in CHECKED_TOLS:
            entries = {
                side: keyed(package.scan(package.make_state(5, amps), tol).as_dicts())
                for side, package in sides.items()
            }
            moved = assert_scans_agree(entries["this"], entries["other"], f"{name}, tol {tol}")
            largest = {field: max(value, moved[field]) for field, value in largest.items()}
            reordered += list(entries["this"]) != list(entries["other"])
    scans = len(raw) + len(sparse)
    print("largest moves: " + ", ".join(f"{field} {value:.3g}" for field, value in largest.items()))
    print(f"entry order moved on {reordered} of {scans * len(CHECKED_TOLS)} scans")

    times: dict[str, dict[str, list[float]]] = {side: {name: [] for name in raw} for side in sides}
    for block in range(blocks):
        order = ("this", "other") if block % 2 == 0 else ("other", "this")
        for side in order:
            for name, channel in channels[side].items():
                times[side][name].append(_block(sides[side], channel))
    _print_medians(times, "scan")
    print(f"{blocks} blocks of {SCANS_PER_BLOCK} scans per channel and side, one CPU")

    raw_input = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    inputs = {side: package.make_state(2, raw_input) for side, package in sides.items()}
    for name in raw:
        for thetas in rng.uniform(-math.pi, math.pi, (3, 30)).tolist():
            bits = {
                side: [
                    _bundle_bits(_bundle(package, channels[side][name], a, theta, inputs[side]))
                    for a, theta in zip(package.enumerate_assignments(), thetas)
                ]
                for side, package in sides.items()
            }
            for k, (got, want) in enumerate(zip(bits["this"], bits["other"], strict=True)):
                _assert_bundles_agree(got, want, f"{name}, assignment {k}")

    _print_medians(_time_verify(sides, channels, inputs, rng, blocks, _bundle), "bundle")
    print(f"{blocks} blocks of 30 bundles per channel and side, one CPU")
    _print_medians(_time_verify(sides, channels, inputs, rng, blocks, _criterion), "check")
    print(f"{blocks} blocks of 30 criterion checks per channel and side, one CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
