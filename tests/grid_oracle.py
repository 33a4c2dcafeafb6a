"""Grid-and-golden-section angle classifier, kept as a test-only oracle.

This is the classifier ``telecrit.angles.classify_theta`` replaced: it
samples the combined defect on a uniform grid over [0, pi) and refines
each local minimum by golden-section search.  Its logic is unchanged;
the only addition is a memo of the most recent profile, so classifying
one (channel, assignment) pair at several tolerances in a row evaluates
the profile at each angle once (every angle it visits is independent
of tol).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from angles_oracle import _canonical_root
from telecrit import KIND_ALL, KIND_DISCRETE, KIND_NONE, ThetaClassification
from telecrit.teleport import _arranged, _base_operators, _charlie_bras, unitarity_defect

GRID_POINTS = 720
# golden-section refinement width in theta
REFINE_XTOL = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# the most recent profile only, so memory stays bounded
_LAST_PROFILE: dict[tuple, Callable[[float], float]] = {}


def _defect_profile(channel, assignment) -> Callable[[float], float]:
    key = (channel.amplitudes.tobytes(), assignment)
    if key in _LAST_PROFILE:
        return _LAST_PROFILE[key]
    _LAST_PROFILE.clear()
    grid = _arranged(channel, assignment).reshape([2] * 5)
    memo: dict[float, float] = {}

    def profile(theta: float) -> float:
        if theta not in memo:
            base = _base_operators(grid, _charlie_bras(theta))
            memo[theta] = max(map(unitarity_defect, base))
        return memo[theta]

    _LAST_PROFILE[key] = profile
    return profile


def _golden_min(
    fn: Callable[[float], float], lo: float, hi: float, xtol: float
) -> tuple[float, float]:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fn(d)
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def _minima_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Cyclically-consecutive runs of True, as (start, end) index pairs."""
    count = len(flags)
    idxs = np.flatnonzero(flags)
    if len(idxs) == 0:
        return []
    if len(idxs) == count:
        return [(0, count - 1)]
    runs = []
    start = prev = int(idxs[0])
    for k in idxs[1:]:
        k = int(k)
        if k == prev + 1:
            prev = k
        else:
            runs.append((start, prev))
            start = prev = k
    runs.append((start, prev))
    # merge a run ending at the last grid point into one starting at 0
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == count - 1:
        first, last = runs[0], runs.pop()
        runs[0] = (last[0] - count, first[1])
    return runs


def classify_theta(channel, assignment, tol: float = 1e-10) -> ThetaClassification:
    """Classify the combined-defect profile over theta in [0, pi).

    all_theta: every grid point passes.  discrete_theta: refined local
    minima reach defect <= tol only at isolated angles.  none: no angle
    passes.  Root locations are refined to REFINE_XTOL and deduplicated
    modulo pi.
    """
    profile = _defect_profile(channel, assignment)
    step = math.pi / GRID_POINTS
    values = np.array([profile(k * step) for k in range(GRID_POINTS)])
    if float(values.max()) <= tol:
        return ThetaClassification(KIND_ALL, None, float(values[0]), 0.0)

    best_defect = float(values.min())
    best_theta = float(np.argmin(values)) * step
    flags = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    roots = []
    for start, end in _minima_runs(flags):
        lo, hi = (start - 1) * step, (end + 1) * step
        theta_min, defect_min = _golden_min(profile, lo, hi, REFINE_XTOL)
        if defect_min < best_defect:
            best_defect, best_theta = defect_min, _canonical_root(theta_min)
        if defect_min <= tol:
            roots.append(_canonical_root(theta_min))

    deduped: list[float] = []
    for root in sorted(roots):
        if all(
            min(abs(root - other), math.pi - abs(root - other)) > 1e-6
            for other in deduped
        ):
            deduped.append(root)

    if deduped:
        return ThetaClassification(
            KIND_DISCRETE, tuple(deduped), best_defect, best_theta
        )
    return ThetaClassification(KIND_NONE, None, best_defect, best_theta)
