"""Reduced density matrices and purity diagnostics for pure states.

The interesting quantity throughout is Tr(rho^2) of two-qubit
reductions: a five-qubit channel can carry a faithful controlled
teleportation only if the sender and receiver pairs are maximally mixed
(purity exactly 1/4), and a channel whose ten pair reductions are all
maximally mixed is maximally multi-qubit entangled in this sense.
Reduced density matrices are plain arrays, Hermitian by construction.
Every purity the package reports, the criterion's, the scan's and
:func:`purity_summary`'s, is :func:`purity` of a :func:`partial_trace`
of the channel in its own labels, read through one per-channel memo
(``_reduced_purity``): it is computed once per state object and sorted
kept labels, on first use, and stored on the state, so it dies with the
state.  One pair purity therefore prints the same digits everywhere,
and a sweep over many assignments and angles traces each pair once.  A
reduction that raises, such as one with trace other than 1, is never
stored and raises again on the next call.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

import numpy as np

from .states import NORM_TOL, PureState, _norm_drifts

__all__ = [
    "PAIR_PURITY_TARGET",
    "partial_trace",
    "purity",
    "purity_summary",
]

# purity of a maximally mixed two-qubit reduction
PAIR_PURITY_TARGET = 0.25


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _require_channel(channel: PureState) -> None:
    """The one channel check: five qubits, squared norm within NORM_TOL of 1."""
    if channel.num_qubits != 5:
        raise ValueError("the channel must be a five-qubit state")
    norm_sq = float(np.vdot(channel.amplitudes, channel.amplitudes).real)
    if _norm_drifts(norm_sq, NORM_TOL):  # as partial_trace's trace bound
        raise ValueError(f"the channel's trace must be 1, got squared norm {norm_sq!r}")


def partial_trace(s: PureState, keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of the kept qubits, ascending label order.

    ``keep`` must be a nonempty proper subset of 1..n, int labels only.  Row/column r, c
    of the result is sum_e psi(r, e) * conj(psi(c, e)) with e running
    over the traced-out qubits.  A trace other than 1 is refused.
    """
    n = s.num_qubits
    labels = tuple(keep)
    if not labels or not all(type(q) is int and 1 <= q <= n for q in labels):
        raise ValueError(f"keep must be a nonempty subset of 1..{n}, got {labels}")
    kept = sorted(set(labels))
    if len(kept) == n:
        raise ValueError("keep must leave at least one qubit to trace out")
    traced = [q for q in range(1, n + 1) if q not in kept]
    axes = [q - 1 for q in kept] + [q - 1 for q in traced]
    grid = s.amplitudes.reshape([2] * n).transpose(axes).reshape(2 ** len(kept), -1)
    rho = grid @ grid.conj().T
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
        raise ValueError(f"trace must be 1, got {trace!r}")
    return rho


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); 1 for pure, 1/dim for maximally mixed."""
    value = np.trace(rho @ rho)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"purity has imaginary residue {value.imag!r}")
    return float(value.real)


def _reduced_purity(s: PureState, keep: tuple[int, ...]) -> float:
    """``purity(partial_trace(s, keep))``, memoized on ``s`` by sorted labels,
    and by ``keep`` as given once it has been seen."""
    memo = s._purities
    value = memo.get(keep)
    if value is None:
        kept = tuple(sorted(set(keep)))
        value = memo.get(kept)
        if value is None:
            value = memo[kept] = purity(partial_trace(s, kept))
        memo[keep] = value
    return value


def purity_summary(s: PureState, tol: float = 1e-10) -> dict:
    """Pair and single purities of a five-qubit state, and whether all ten
    pairs are within tol of 1/4; ``worst_pair`` is the first pair in label
    order with the largest deviation from it."""
    _require_tol(tol)
    _require_channel(s)
    pairs = {f"{a}{b}": _reduced_purity(s, (a, b)) for a, b in combinations(range(1, 6), 2)}
    deviations = {pair: abs(value - PAIR_PURITY_TARGET) for pair, value in pairs.items()}
    worst = max(deviations, key=deviations.__getitem__)
    return {
        "pairs": pairs,
        "singles": {str(q): _reduced_purity(s, (q,)) for q in range(1, 6)},
        "mmes": deviations[worst] <= tol,
        "worst_pair": worst,
        "max_deviation": deviations[worst],
    }
