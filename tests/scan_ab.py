"""Time ``scan`` of this checkout against another checkout's, in one process.

Run from the repository root, with the other checkout's ``src`` directory::

    PYTHONPATH=src python tests/scan_ab.py <other-src-dir> [blocks]

The other ``telecrit`` is imported as ``telecrit_other``, beside the one
on ``PYTHONPATH``.  Five channels are built as ``conftest`` builds them:
brown, ghz5, man_m5, a seeded dense channel and a seeded brown under
local unitaries.  Each side gets its own states from the same raw
amplitudes, so neither shares the other's purity memo.  The script
asserts that both sides give the same ``json.dumps(scan(...).as_dicts())``
(signed zeros included) on these five and on 20 seeded sparse channels
of +-1 amplitudes, each at tol 1e-10, 1e-6, 0.5 and 10.  It then times
the five, alternating blocks of 20 scans per channel between the sides,
the side that goes first switching every block, and prints each
channel's median time per scan and the ratio of the summed medians,
this side over the other.  The process pins itself to one CPU
and one BLAS thread before numpy loads.  pytest does not collect this
file.
"""

from __future__ import annotations

import os
import sys

os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import telecrit  # noqa: E402
# this file's directory is on sys.path
from conftest import lu_rotated, random_channel, sparse_channel  # noqa: E402

SCANS_PER_BLOCK = 20
CHECKED_TOLS = (1e-10, 1e-6, 0.5, 10.0)


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
    for name, amps in {**raw, **sparse}.items():
        for tol in CHECKED_TOLS:
            dumps = {
                side: json.dumps(package.scan(package.make_state(5, amps), tol).as_dicts())
                for side, package in sides.items()
            }
            assert dumps["this"] == dumps["other"], f"{name}, tol {tol}: the two scans differ"

    times: dict[str, dict[str, list[float]]] = {side: {name: [] for name in raw} for side in sides}
    for block in range(blocks):
        order = ("this", "other") if block % 2 == 0 else ("other", "this")
        for side in order:
            for name, channel in channels[side].items():
                times[side][name].append(_block(sides[side], channel))

    medians = {
        side: {name: statistics.median(runs) for name, runs in per_channel.items()}
        for side, per_channel in times.items()
    }
    print(f"{'channel':<10} {'this ms':>9} {'other ms':>9} {'ratio':>7}")
    for name in raw:
        this, there = medians["this"][name], medians["other"][name]
        print(f"{name:<10} {this * 1e3:9.4f} {there * 1e3:9.4f} {this / there:7.3f}")
    total = {side: sum(per_channel.values()) for side, per_channel in medians.items()}
    print(f"{'sum':<10} {total['this'] * 1e3:9.4f} {total['other'] * 1e3:9.4f} "
          f"{total['this'] / total['other']:7.3f}")
    print(f"{blocks} blocks of {SCANS_PER_BLOCK} scans per channel and side, one CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
