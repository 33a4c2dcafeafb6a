"""Host speed probes, timed around and inside the tasks of a pass.

A shared host runs this benchmark's single thread at speeds that swing
by up to 2x, in phases of seconds to minutes, with no steal time to
show for it.  Times measured in such a phase say more about the host
than about the library.  A probe is a fixed piece of work that lives in
the benchmark, so no change to the library moves it, and its time slows
with the host's.  A task's latency times the host's speed relative to
reference (reference probe time / probe time now) is the task's latency
on a host of reference speed.

Two probes, for the two kinds of work the workloads run:

* the kernel probe, small complex numpy operations driven from a Python
  loop, the mix the library runs in-process;
* the spawn probe, a bare ``python -I -S -c pass``, for tasks that are
  mostly interpreter start-up and imports in a child process.  Start-up
  slows less than numpy work when the host is busy (the ratio of a
  ``python -c "import numpy"`` to the kernel varied by 0.16 of its
  median, to the spawn probe by 0.08).

Each task names the probe that scales it (``workloads.Task.probe``).

A :class:`Sampler` probes every ``PROBE_EVERY_S`` from a SIGALRM
handler, so a task of several seconds is probed while it runs, not only
at its ends, and the time a probe takes inside a task is taken out of
the task's latency.  A task that waits on a child process holds probes
back until it ends: the bench process and its children are pinned to
one CPU (``bootstrap.prepare``), where a probe would share the CPU with
the child instead of stopping it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# each probe's time (ms) on the 2-vCPU VM the benchmark was defined on,
# in the phases when it ran fastest; scaled times read in that host's ms
KERNEL_REFERENCE_MS = 2.5
SPAWN_REFERENCE_MS = 8.0
# a probe is the median of this many runs of its work
PROBE_RUNS = 3
# a Sampler probes this often
PROBE_EVERY_S = 0.25
# a task is scaled by the probes inside it and within this many seconds
# of either end, so a short task gets a few probes, not one
PAD_S = 0.5

_RNG = np.random.default_rng(20091120)
_MATRIX = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_VECTOR = _RNG.standard_normal(32) + 1j * _RNG.standard_normal(32)


def _kernel() -> float:
    acc, x = 0.0, _VECTOR
    for k in range(120):
        op = np.kron(_MATRIX[:2, :2], _MATRIX)
        y = x.reshape(4, 8) @ op
        acc += float(np.abs(y).sum()) + 0.5 * k
        x = np.conj(x)
    return acc


def _spawn() -> None:
    # no timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the probe
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


def _median_s(work) -> float:
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_speed() -> float:
    """The host's speed for in-process numpy work, relative to reference."""
    return KERNEL_REFERENCE_MS * 1e-3 / _median_s(_kernel)


def spawn_speed() -> float:
    """The host's speed for interpreter start-up, relative to reference."""
    return SPAWN_REFERENCE_MS * 1e-3 / _median_s(_spawn)


PROBES = {"kernel": kernel_speed, "spawn": spawn_speed}


class Sampler:
    """Probes the host's speed with each of ``kinds`` (keys of PROBES) at
    its start, every PROBE_EVERY_S from a SIGALRM handler while it is
    entered, and at its end.  The main thread runs the handler between
    bytecodes, so probes land inside in-process tasks; :meth:`deferred`
    holds them back until a block ends."""

    def __init__(self, kinds) -> None:
        self.kinds = tuple(kinds)
        # (start, end, {kind: speed}) of every probe
        self.samples: list[tuple[float, float, dict[str, float]]] = []

    def _sample(self, *_signal) -> None:
        t0 = perf_counter()
        speeds = {kind: PROBES[kind]() for kind in self.kinds}
        self.samples.append((t0, perf_counter(), speeds))

    def speeds(self, kind: str) -> list[float]:
        return [v[kind] for *_, v in self.samples]

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @contextlib.contextmanager
    def deferred(self):
        """Hold probes back until the block ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent probing."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e, _ in self.samples)

    def scale(self, t0: float, t1: float, kind: str) -> float:
        """Factor from host time to reference time for work done in
        [t0, t1]: the mean speed, by probe ``kind``, of the probes within
        PAD_S of it (and at least the nearest one on either side)."""
        near = [v[kind] for s, e, v in self.samples if t0 - PAD_S <= s and e <= t1 + PAD_S]
        before = [v[kind] for s, e, v in self.samples if e <= t0]
        after = [v[kind] for s, e, v in self.samples if s >= t1]
        return statistics.fmean(near + before[-1:] + after[:1])
