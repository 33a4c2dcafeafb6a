"""telecrit benchmark: one workload, untraced or traced, one JSON result.

Usage (from the repository root)::

    python3 bench/run.py --workload scan_mix --seed 1 --seconds 25 --trace 0

``--trace 0`` runs set-up several times, then a closed loop of whole
rounds of tasks (one task at a time, no think time) until the next round
would end past ``--seconds`` (at least three rounds); it reports the
end-to-end metrics from each task's median time over the rounds, with
every time scaled to a host of reference speed (see ``hostspeed``).
``--trace 1`` runs one round untraced and the same round with every
layer's public functions wrapped in spans, and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table and the run's stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter

import bootstrap

# Modules that import numpy (workloads, tracing, reference, telecrit) are
# imported inside functions, after bootstrap.prepare() has pinned BLAS.

WORKLOAD_NAMES = ("scan_mix", "verify_sweep", "cli_session")
SETUP_REPEATS = 7
PROBE_REPEATS = 9
TAIL_BEYOND = 10
CLI_COMMANDS = ("purity", "criterion", "scan", "teleport", "eq5check")

# name -> unit; the end-to-end metrics of every workload
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit; span totals and counters over one traced round
PER_LAYER = {
    "scan.classify_theta.calls": "count",
    "scan.classify_theta.self_ms": "ms",
    "scan.defect_evals": "count",
    "scan.defect_evals_per_assignment": "count",
    "scan.roots": "count",
    "scan.kind.all_theta": "count",
    "scan.kind.discrete_theta": "count",
    "scan.kind.none": "count",
    "teleport.unitarity_defect.calls": "count",
    "teleport.unitarity_defect.ms": "ms",
    "teleport.transformation_operator.calls": "count",
    "teleport.transformation_operator.self_ms": "ms",
    "teleport.simulate.self_ms": "ms",
    "teleport.pauli_factorization_check.self_ms": "ms",
    "teleport.criterion_check.self_ms": "ms",
    "states.permute_qubits.calls": "count",
    "states.permute_qubits.ms": "ms",
    "states.tensor.calls": "count",
    "states.tensor.ms": "ms",
    "states.project_subsystem.calls": "count",
    "states.project_subsystem.ms": "ms",
    "states.load_state_file.ms": "ms",
    "entanglement.partial_trace.calls": "count",
    "entanglement.partial_trace.ms": "ms",
    "entanglement.purity_summary.ms": "ms",
    "cli.import_floor_ms": "ms",
    "cli.import_ms": "ms",
    **{
        f"cli.{cmd}.{what}": unit
        for cmd in CLI_COMMANDS
        for what, unit in (
            ("raw_ms", "ms"),
            ("net_ms", "ms"),
            ("self_ms", "ms"),
            ("stdout_bytes", "bytes"),
        )
    },
    "trace.overhead_frac": "frac",
}

# span whose call count is reported as NAME.calls, time as NAME.ms / NAME.self_ms
_SPAN_COUNTS = (
    "scan.classify_theta",
    "teleport.unitarity_defect",
    "teleport.transformation_operator",
    "states.permute_qubits",
    "states.tensor",
    "states.project_subsystem",
    "entanglement.partial_trace",
)
_SPAN_TOTALS = (
    "teleport.unitarity_defect",
    "states.permute_qubits",
    "states.tensor",
    "states.project_subsystem",
    "states.load_state_file",
    "entanglement.partial_trace",
    "entanglement.purity_summary",
)
_SPAN_SELF = (
    "scan.classify_theta",
    "teleport.transformation_operator",
    "teleport.simulate",
    "teleport.pauli_factorization_check",
    "teleport.criterion_check",
)


@dataclass
class PassResult:
    """Latencies and problems of one pass over whole rounds."""

    latencies: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    # per latency: factor to reference host speed (probed passes only)
    scales: list[float] = field(default_factory=list)
    # probe kind -> host speeds it read
    probes: dict[str, list[float]] = field(default_factory=dict)
    rounds: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def absorb(self, other: "PassResult") -> None:
        self.latencies += other.latencies
        self.labels += other.labels
        self.problems += other.problems
        self.outputs += other.outputs
        self.rounds = max(self.rounds, other.rounds)


def _judge(task, output) -> str | None:
    if isinstance(output, Exception):
        return f"{task.label}: {type(output).__name__}: {output}"
    try:
        problem = task.check(output)
    except Exception as exc:  # a malformed output is a failed task, not a crash
        return f"{task.label}: check raised {type(exc).__name__}: {exc}"
    return None if problem is None else f"{task.label}: {problem}"


def run_pass(
    tasks, seconds=None, rounds=None, tracer=None, min_rounds=1, probe=False
) -> PassResult:
    """Closed loop over whole rounds of ``tasks``.

    Stops after ``rounds`` rounds, or, once ``min_rounds`` are done, when
    another round of the mean length so far would end past ``seconds``.
    Untraced, each output is checked right after its task, outside the
    timed region.  Traced, outputs are kept and checked by the caller
    after the wrappers are gone, so checks add no spans.  With ``probe``
    a :class:`hostspeed.Sampler` runs through the pass, held back while a
    task waits on a child process; each latency leaves out the probes
    inside it and gets the scale its task's probe gives in and around it.
    """
    import hostspeed

    result = PassResult()
    spans: list[tuple[float, float, str]] = []
    sampler = hostspeed.Sampler(sorted({t.probe for t in tasks})) if probe else None
    started = perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            for task in tasks:
                hold = sampler.deferred() if sampler and task.child else contextlib.nullcontext()
                with hold:
                    t0 = perf_counter()
                    try:
                        if tracer is None:
                            output = task.run()
                        else:
                            with tracer.span(task.span):
                                output = task.run()
                    except Exception as exc:  # a raising task is a failed task
                        output = exc
                    t1 = perf_counter()
                spans.append((t0, t1, task.probe))
                result.labels.append(task.label)
                if tracer is None:
                    problem = _judge(task, output)
                    if problem:
                        result.problems.append(problem)
                else:
                    result.outputs.append((task, output))
            result.rounds += 1
            if rounds is not None:
                if result.rounds >= rounds:
                    break
                continue
            elapsed = perf_counter() - started
            if result.rounds >= min_rounds and elapsed + elapsed / result.rounds > seconds:
                break
    if sampler is None:
        result.latencies = [t1 - t0 for t0, t1, _ in spans]
    else:
        result.latencies = [t1 - t0 - sampler.busy(t0, t1) for t0, t1, _ in spans]
        result.scales = [sampler.scale(*span) for span in spans]
        result.probes = {kind: sampler.speeds(kind) for kind in sampler.kinds}
    return result


def check_deferred(result: PassResult) -> None:
    for task, output in result.outputs:
        problem = _judge(task, output)
        if problem:
            result.problems.append(problem)
    result.outputs.clear()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when there are no more samples
    than that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def task_times(latencies: list[float], round_size: int) -> list[float]:
    """Each task's median latency over the rounds of a pass.  A pass runs
    whole rounds in a fixed order, so sample ``j`` belongs to task
    ``j % round_size``."""
    return [statistics.median(latencies[k::round_size]) for k in range(round_size)]


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _child_ms(code: str) -> float:
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=bootstrap.child_env(),
        cwd=bootstrap.ROOT,
        check=True,
        timeout=120,
    )
    return (perf_counter() - t0) * 1e3


def import_probes() -> tuple[float, float]:
    """Median ms of a bare ``import numpy`` interpreter (the floor), and
    the median extra ms of ``import telecrit.cli`` over a floor probe
    started just before it, so drift of the machine's speed cancels."""
    floor, extra = [], []
    for _ in range(PROBE_REPEATS):
        floor.append(_child_ms("import numpy"))
        extra.append(_child_ms("import telecrit.cli") - floor[-1])
    return statistics.median(floor), statistics.median(extra)


def per_command(labels: list[str], latencies: list[float]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for label, latency in zip(labels, latencies):
        out.setdefault(label, []).append(latency)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git; None outside git."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, tasks) -> dict:
    digest = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(bootstrap.SRC)).encode())
        digest.update(path.read_bytes())
    import numpy

    counts: dict[str, int] = {}
    for task in tasks:
        counts[task.label] = counts.get(task.label, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(bootstrap.ALLOWED_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "round_tasks": counts,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(name: str, seed: int, seconds: float, size: str, reference: dict):
    """Untraced run: repeated set-up, then the timed closed loop.

    Every time is scaled to reference host speed by the probes around it.
    A task's latency is its median over the rounds; the timing metrics
    are taken over those per-task latencies.  The table also prints the
    raw wall-clock figures and the host's speed."""
    import hostspeed
    import workloads

    # a set-up is mostly a child interpreter's start-up and imports
    setups = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.spawn_speed()
        t0 = perf_counter()
        wl = workloads.set_up(name, seed, size, reference)
        took = perf_counter() - t0
        setups.append(took * (before + hostspeed.spawn_speed()) / 2)
    result = run_pass(wl.tasks, seconds=seconds, min_rounds=wl.min_rounds, probe=True)
    n = len(result.latencies)
    scaled = [t * s for t, s in zip(result.latencies, result.scales)]
    per_task = task_times(scaled, len(wl.tasks))
    tail_value, tail_pct = tail(per_task)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_p50_ms": statistics.median(per_task) * 1e3,
        "task_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    basis = f"of {len(per_task)} tasks' medians over {result.rounds} rounds, scaled"
    notes = {
        "setup_s": (SETUP_REPEATS, f"median of {SETUP_REPEATS} set-ups"),
        "tasks_per_s": (n, f"1 / mean {basis}"),
        "task_p50_ms": (n, f"median {basis}"),
        "task_tail_ms": (
            n,
            f"max {basis}"
            if len(per_task) <= TAIL_BEYOND
            else f"p{tail_pct:.1f} ({TAIL_BEYOND} beyond) {basis}",
        ),
        "peak_rss_mb": (1, "this process or its largest child"),
    }
    extra = {
        "fail_frac": (len(result.problems) / n, "frac", n),
        "wall_tasks_per_s": (n / result.wall, "1/s", n),
        "wall_p50_ms": (statistics.median(result.latencies) * 1e3, "ms", n),
    }
    for kind, speeds in result.probes.items():
        extra[f"host_speed.{kind}"] = (statistics.median(speeds), "frac", len(speeds))
    if name == "cli_session":
        by_command = per_command(result.labels[: len(per_task)], per_task)
        for cmd, samples in sorted(by_command.items()):
            extra[f"cli_{cmd}_ms"] = (statistics.median(samples) * 1e3, "ms", len(samples))
    return wl, result, metrics, notes, extra


def trace_metrics(name: str, seed: int, size: str, reference: dict):
    """Traced run: the round untraced, then traced; per-layer metrics."""
    import telecrit

    import tracing
    import workloads

    wl = workloads.set_up(name, seed, size, reference)
    passes = []
    raw: dict[str, list[float]] = {}
    if name == "cli_session":
        sub = run_pass(wl.tasks, rounds=1)
        passes.append(sub)
        raw = per_command(sub.labels, sub.latencies)
    # each task runs untraced, then traced, back to back, so drift of the
    # machine's speed cancels out of trace.overhead_frac
    plain, traced, tracer = PassResult(), PassResult(), tracing.Tracer()
    for task in wl.traced_tasks:
        plain.absorb(run_pass([task], rounds=1))
        with tracing.patched(tracer, telecrit) as wrapped:
            traced.absorb(run_pass([task], rounds=1, tracer=tracer))
    passes.append(plain)
    stdout_bytes: dict[str, list[int]] = {}
    for task, output in traced.outputs:
        if isinstance(output, workloads.CliOutcome):
            stdout_bytes.setdefault(task.label, []).append(len(output.stdout))
    check_deferred(traced)
    passes.append(traced)
    summary = tracing.TraceSummary(tracer)
    floor_ms, import_ms = import_probes()

    m: dict[str, float] = {}
    for span in _SPAN_COUNTS:
        m[f"{span}.calls"] = summary.calls(span)
    for span in _SPAN_TOTALS:
        m[f"{span}.ms"] = summary.total_ms(span)
    for span in _SPAN_SELF:
        m[f"{span}.self_ms"] = summary.self_ms(span)
    evals = summary.calls_under("teleport.unitarity_defect", "scan.classify_theta") / 2
    classify = summary.calls("scan.classify_theta")
    m["scan.defect_evals"] = evals
    m["scan.defect_evals_per_assignment"] = evals / classify if classify else 0.0
    for key in ("scan.roots", "scan.kind.all_theta", "scan.kind.discrete_theta", "scan.kind.none"):
        m[key] = tracer.counters.get(key, 0)
    m["cli.import_floor_ms"] = floor_ms
    m["cli.import_ms"] = import_ms
    for cmd in CLI_COMMANDS:
        span = f"cli.{cmd}"
        samples = raw.get(cmd)
        raw_ms = statistics.median(samples) * 1e3 if samples else 0.0
        m[f"{span}.raw_ms"] = raw_ms
        m[f"{span}.net_ms"] = raw_ms - floor_ms if samples else 0.0
        calls = summary.calls(span)
        m[f"{span}.self_ms"] = summary.self_ms(span) / calls if calls else 0.0
        sizes = stdout_bytes.get(cmd)
        m[f"{span}.stdout_bytes"] = statistics.mean(sizes) if sizes else 0
    m["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
    absent = sorted(set(_SPAN_COUNTS + _SPAN_TOTALS + _SPAN_SELF) - set(wrapped))
    return wl, passes, m, absent


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bootstrap.prepare()
    import reference

    ref_doc = reference.load()
    try:
        if args.trace:
            wl, passes, layer, absent = trace_metrics(args.workload, args.seed, "full", ref_doc)
            attempted = sum(len(p.latencies) for p in passes)
            problems = [q for p in passes for q in p.problems]
            metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
            print(f"{'metric':44s} {'value':>14s}  unit")
            for k, u in PER_LAYER.items():
                print(f"{k:44s} {_fmt(layer[k]):>14s}  {u}")
            if absent:
                print(f"absent wrap targets (reported as 0): {', '.join(absent)}")
        else:
            wl, result, e2e, notes, extra = measure(
                args.workload, args.seed, args.seconds, "full", ref_doc
            )
            attempted, problems = len(result.latencies), result.problems
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
            print(f"{'metric':16s} {'value':>12s}  {'unit':5s} {'n':>5s}  note")
            for k, u in END_TO_END.items():
                n, note = notes[k]
                print(f"{k:16s} {_fmt(e2e[k]):>12s}  {u:5s} {n:5d}  {note}")
            for k, (value, unit, n) in extra.items():
                print(f"{k:16s} {_fmt(value):>12s}  {unit:5s} {n:5d}")
    finally:
        shutil.rmtree(bootstrap.WORK, ignore_errors=True)
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print("stamp " + json.dumps(stamp(args, wl.tasks), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
