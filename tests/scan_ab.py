"""Time ``scan`` and the verify path of this checkout against another
checkout's, in one process.

Run from the repository root, with the other checkout's ``src`` directory::

    PYTHONPATH=src python tests/scan_ab.py <other-src-dir> [blocks]

``blocks`` defaults to 300.  One block is 20 scans of ~0.3 ms per
channel, so a short run reads mostly noise: 40 blocks of one pair of
checkouts read per-channel ratios from x0.68 to x1.36, where 300-block
runs of the same pair read x0.76 to x0.93 on every channel.

The other ``telecrit`` is imported as ``telecrit_other``, beside the one
on ``PYTHONPATH``.  Six channels are built as ``conftest`` builds them:
brown, ghz5, man_m5, a seeded dense channel, and a seeded brown and
man_m5 under local unitaries.  Each side gets its own states from the
same raw amplitudes, so neither shares the other's purity memo.  The
script asserts that both sides' scans agree on these six and on 20
seeded sparse channels of +-1 amplitudes, each at tol 1e-10, 1e-6, 0.5
and 10: entries keyed by assignment, with equal kinds, root counts and
purities, roots and ``min_defect`` within ``ROUNDING``, and
``argmin_theta`` equal or a candidate whose ``criterion_check`` defect
is within 2 ``_GRAM_BOUND`` of the other side's ``min_defect``.  The
sides may differ in last bits, and entries whose
``min_defect`` ties within them may sort in another order.  It prints
the largest move of a root, of a ``min_defect`` and of an
``argmin_theta``, the number of moved argmins, and the number of scans
whose entries came in another order.  For each of the six it prints,
per side, the candidates one scan at the default tol places and the
candidates it re-checks with the criterion's arithmetic.  It then times
the six, alternating blocks of 20 scans per channel between the sides,
the side that goes first switching every block, and prints each
channel's median time per scan and the ratio of the summed medians,
this side over the other.  After the scans it times the verify path the
same way: a block is one verify bundle (criterion_check,
pauli_factorization_check and simulate at one setting) per assignment
of a channel, 30 bundles, each at a fresh seeded angle that both sides
share, so no bundle starts at the setting the last one left on the
channel.  Before timing, it asserts that both sides give the same bundle
results on every channel at three angles of every assignment: criterion
reports with equal verdicts, purities, angles and assignments and
defects within ``ROUNDING``; factorization reports with equal ``holds``
and ``max_deviation`` within ``ROUNDING``; and simulate records with
equal outcomes and probabilities, fidelities and the entries of Bob's
corrected states within ``RECORD_BOUND``.  It prints the largest move of
each.  Last it times
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
from telecrit.angles import _GRAM_BOUND  # noqa: E402
# this file's directory is on sys.path
from conftest import lu_rotated, random_channel, sparse_channel  # noqa: E402

SCANS_PER_BLOCK = 20
CHECKED_TOLS = (1e-10, 1e-6, 0.5, 10.0)
# how far a root, min_defect, criterion defect or factorization deviation
# may move between the sides
ROUNDING = 1e-12
# how far a probability, fidelity or entry of Bob's corrected state may move
# between the sides: each is a few ulps of 1
RECORD_BOUND = 1e-14
RECORD_FIELDS = ("probability", "fidelity", "bob")


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
    brown, man_m5 = telecrit.named_state("brown"), telecrit.named_state("man_m5")
    return {
        "brown": brown.amplitudes,
        "ghz5": telecrit.named_state("ghz5").amplitudes,
        "man_m5": man_m5.amplitudes,
        "dense": random_channel(rng).amplitudes,
        "lu_brown": lu_rotated(brown, rng).amplitudes,
        # near-flat rows whose candidates tie for the argmin
        "lu_man_m5": lu_rotated(man_m5, np.random.default_rng(492)).amplitudes,
    }


def _work(package, channel) -> tuple[int, int]:
    """The candidates one scan at the default tol places, over its distinct
    rows, and the candidates it re-checks with the criterion's arithmetic."""
    angles = package.angles
    candidate_sets, defects = angles._candidate_sets, angles._defects
    counts = [0, 0]

    def placing(coeffs):
        sets = candidate_sets(coeffs)
        counts[0] += sum(map(len, sets))
        return sets

    def rechecking(matrices):
        counts[1] += len(matrices) // 2  # both outcomes of each candidate
        return defects(matrices)

    angles._candidate_sets, angles._defects = placing, rechecking
    try:
        package.scan(channel)
    finally:
        angles._candidate_sets, angles._defects = candidate_sets, defects
    return counts[0], counts[1]


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


def _bundle_fields(bundle: tuple) -> dict:
    """A bundle's results as plain fields: the criterion report as a dict,
    the factorization report, and the records' outcomes, probabilities,
    fidelities and corrected states."""
    report, factorization, records = bundle
    return {
        "criterion": {**report.as_dict(), "tol": report.tol},
        "holds": factorization.holds,
        "max_deviation": factorization.max_deviation,
        "outcomes": [r.outcome for r in records],
        "probability": np.array([r.probability for r in records]),
        "fidelity": np.array([r.fidelity for r in records]),
        "bob": np.array([r.bob_corrected for r in records]),
    }


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= ROUNDING


def _assert_bundles_agree(this: dict, other: dict, where: str, moved: dict) -> None:
    """Both sides' bundle fields: verdicts, purities and ``holds`` equal,
    criterion defects and ``max_deviation`` within ROUNDING, the records
    within RECORD_BOUND.  Keeps the largest move of each in ``moved``."""
    report, report_other = this["criterion"], other["criterion"]
    defects = ("sigma111_defect", "sigma112_defect")
    rest = {key: value for key, value in report.items() if key not in defects}
    assert rest == {key: report_other[key] for key in rest}, f"{where}: the criteria differ"
    assert this["holds"] == other["holds"], f"{where}: the factorization verdicts differ"
    assert this["outcomes"] == other["outcomes"], f"{where}: the outcomes differ"
    gaps = {
        "defect": max(abs(report[key] - report_other[key]) for key in defects),
        "max_deviation": abs(this["max_deviation"] - other["max_deviation"]),
        **{key: float(np.max(np.abs(this[key] - other[key]))) for key in RECORD_FIELDS},
    }
    for key, gap in gaps.items():
        bound = RECORD_BOUND if key in RECORD_FIELDS else ROUNDING
        assert gap <= bound, f"{where}: {key} moved by {gap:.3g}"
        moved[key] = max(moved.get(key, 0.0), gap)


def keyed(entries: list[dict]) -> dict[tuple, dict]:
    """Scan entries as dicts, keyed by assignment."""
    return {(tuple(d["alice"]), tuple(d["bob"]), d["charlie"]): d for d in entries}


def assert_scans_agree(this: dict, other: dict, where: str, channel) -> dict[str, float]:
    """Both sides' scan entries of ``channel``, keyed by assignment: kinds,
    root counts and purities equal; roots and min_defect within ROUNDING;
    argmin_theta equal, or this side's criterion defect there within
    2 _GRAM_BOUND of the other's min_defect.  Returns the largest move of
    a root, of a min_defect and of an argmin_theta, and the number of
    moved argmins."""
    assert this.keys() == other.keys(), where
    moved = {"root": 0.0, "min_defect": 0.0, "argmin_theta": 0.0, "argmins": 0}
    for key, got in this.items():
        want = other[key]
        at = f"{where}, {key}"
        assert got["kind"] == want["kind"], f"{at}: kinds differ"
        assert got["purity_alice"] == want["purity_alice"], f"{at}: purities differ"
        assert got["purity_bob"] == want["purity_bob"], f"{at}: purities differ"
        theta, theta_other = got["argmin_theta"], want["argmin_theta"]
        if theta != theta_other:
            report = telecrit.criterion_check(channel, telecrit.RoleAssignment(*key), theta)
            defect = max(report.sigma111_defect, report.sigma112_defect)
            assert abs(defect - want["min_defect"]) <= 2 * _GRAM_BOUND, f"{at}: argmin defect moved"
            moved["argmin_theta"] = max(moved["argmin_theta"], abs(theta - theta_other))
            moved["argmins"] += 1
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
    blocks = int(argv[1]) if len(argv) == 2 else 300
    other = _import_other(argv[0])
    sides = {"this": telecrit, "other": other}
    raw = _raw_channels()
    channels = {
        side: {name: package.make_state(5, amps) for name, amps in raw.items()}
        for side, package in sides.items()
    }
    rng = np.random.default_rng(1401)
    sparse = {f"sparse {k}": sparse_channel(rng).amplitudes for k in range(20)}
    largest = dict.fromkeys(("root", "min_defect", "argmin_theta"), 0.0)
    argmins = reordered = 0
    for name, amps in {**raw, **sparse}.items():
        for tol in CHECKED_TOLS:
            entries = {
                side: keyed(package.scan(package.make_state(5, amps), tol).as_dicts())
                for side, package in sides.items()
            }
            where = f"{name}, tol {tol}"
            moved = assert_scans_agree(
                entries["this"], entries["other"], where, telecrit.make_state(5, amps)
            )
            largest = {field: max(value, moved[field]) for field, value in largest.items()}
            argmins += moved["argmins"]
            reordered += list(entries["this"]) != list(entries["other"])
    scans = len(raw) + len(sparse)
    print("largest moves: " + ", ".join(f"{field} {value:.3g}" for field, value in largest.items()))
    print(f"argmin_theta moved on {argmins} of {scans * len(CHECKED_TOLS) * 30} entries")
    print(f"entry order moved on {reordered} of {scans * len(CHECKED_TOLS)} scans")
    print(f"{'channel':<10} {'this cand':>9} {'other cand':>10} {'this redo':>9} {'other redo':>10}"
          "   per scan at the default tol")
    for name in raw:
        (here, redo), (there, redo_other) = (
            _work(package, channels[side][name]) for side, package in sides.items()
        )
        print(f"{name:<10} {here:9d} {there:10d} {redo:9d} {redo_other:10d}")

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
    bundle_moves: dict[str, float] = {}
    for name in raw:
        for thetas in rng.uniform(-math.pi, math.pi, (3, 30)).tolist():
            fields = {
                side: [
                    _bundle_fields(_bundle(package, channels[side][name], a, theta, inputs[side]))
                    for a, theta in zip(package.enumerate_assignments(), thetas)
                ]
                for side, package in sides.items()
            }
            for k, (got, want) in enumerate(zip(fields["this"], fields["other"], strict=True)):
                _assert_bundles_agree(got, want, f"{name}, assignment {k}", bundle_moves)
    print("largest bundle moves: " + ", ".join(f"{k} {v:.3g}" for k, v in bundle_moves.items()))

    _print_medians(_time_verify(sides, channels, inputs, rng, blocks, _bundle), "bundle")
    print(f"{blocks} blocks of 30 bundles per channel and side, one CPU")
    _print_medians(_time_verify(sides, channels, inputs, rng, blocks, _criterion), "check")
    print(f"{blocks} blocks of 30 criterion checks per channel and side, one CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
