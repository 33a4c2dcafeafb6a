"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 bench/selftest.py

1. A tiny run of each workload finishes with fail_frac 0.
2. The same runs against a corrupted reference have fail_frac > 0, so
   the correctness gate bites.
3. Two traced tiny runs with the same seed give identical counters.
4. BENCHMARK.json names exactly the metrics and units run.py reports.
5. In a directory holding only BENCHMARK.json and bench/, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import bootstrap

bootstrap.prepare()

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def corrupted(doc: dict) -> dict:
    """Every verdict inverted, none/all_theta swapped, every exit code wrong."""
    bad = copy.deepcopy(doc)
    for per_angle in bad["criterion"].values():
        for verdicts in per_angle.values():
            for key in verdicts:
                verdicts[key] = not verdicts[key]
    swap = {"none": "all_theta", "all_theta": "none"}
    for entries in bad["scan"].values():
        for entry in entries:
            entry["kind"] = swap.get(entry["kind"], entry["kind"])
    for command in bad["cli"].values():
        command["exit"] = 3
    return bad


def fail_frac(name: str, ref_doc: dict) -> float:
    *_, extra = run.measure(name, SEED, 0.01, "tiny", ref_doc)
    return extra["fail_frac"][0]


def traced_counts(name: str, ref_doc: dict) -> dict:
    _, passes, layer, _ = run.trace_metrics(name, SEED, "tiny", ref_doc)
    if any(p.problems for p in passes):
        raise AssertionError(f"traced {name} had failed tasks: {passes[-1].problems[:3]}")
    return {k: layer[k] for k, unit in run.PER_LAYER.items() if unit in ("count", "bytes")}


def stripped_run_refuses() -> bool:
    root = bootstrap.WORK / "stripped"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(
        bootstrap.ROOT / "bench", root / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", root)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(root)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    ref_doc = reference.load()
    bad_doc = corrupted(ref_doc)
    checks: list[tuple[str, bool]] = []
    try:
        for name in workloads.WORKLOADS:
            checks.append((f"{name}: tiny run has fail_frac 0", fail_frac(name, ref_doc) == 0))
            checks.append((f"{name}: corrupted reference gives fail_frac > 0", fail_frac(name, bad_doc) > 0))
            first, second = traced_counts(name, ref_doc), traced_counts(name, ref_doc)
            checks.append((f"{name}: traced counters repeat exactly", first == second))
        with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        checks.append((
            "BENCHMARK.json metrics match run.py",
            {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
            and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
            and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
            and list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES),
        ))
        checks.append(("run.py refuses a directory without src/", stripped_run_refuses()))
    finally:
        shutil.rmtree(bootstrap.WORK, ignore_errors=True)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
