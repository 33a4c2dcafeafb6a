"""Locate the library source and pin the environment before numpy loads.

The package is not installed: the benchmark runs it from ``src/`` of
the checkout it lives in, as the tier-1 tests do.  Every bench process
and every child it starts runs single-threaded BLAS on one CPU, so a
closed loop of one task at a time measures one core, and the host-speed
probes (``hostspeed``) run on the core the work runs on.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

# the CPUs this process may run on before prepare() pins it to one
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin BLAS threads and this process (and so its children) to one
    CPU, and put ``src`` first on the path; exit 2 without it."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "telecrit" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import telecrit

    if Path(telecrit.__file__).resolve().parent != SRC / "telecrit":
        print(f"error: telecrit imported from {telecrit.__file__}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: same source, same BLAS pinning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env
