"""Per-assignment angle classifier and scan, kept as a test-only oracle.

This is the code the batched engine in ``telecrit.angles`` replaced: the
channel is re-arranged once per assignment, the candidate angles come
from one assignment's coefficients and one ``np.roots`` call, every
candidate is checked by ``unitarity_defect`` of each base operator on
its own, and ``scan`` takes two partial traces per assignment.  Like the
engine it works over the profile's period pi/2, and it judges each
assignment in its role class's orientation (``class_orientation``).  The
full-period rule it replaced (candidates over [0, pi), two quartics) is
kept beside it as ``classify_theta_full_period``, to check the half
period against.
"""

from __future__ import annotations

import math

import numpy as np

from telecrit.angles import (
    _KIND_ORDER,
    KIND_ALL,
    KIND_DISCRETE,
    KIND_NONE,
    ScanEntry,
    ScanReport,
    ThetaClassification,
    enumerate_assignments,
)
from telecrit.entanglement import _require_tol, partial_trace, purity
from telecrit.states import PureState
from telecrit.teleport import (
    RoleAssignment,
    _arranged,
    _base_operators,
    _charlie_bras,
    unitarity_defect,
)


def class_orientation(assignment: RoleAssignment) -> RoleAssignment:
    """The assignment with Alice's and Bob's pairs swapped when Bob's holds
    the lower label, else itself.  The swap transposes both base operators,
    and ||M^H M - I|| = ||M M^H - I||, so an assignment and its swap form one
    role class with one defect profile, evaluated in this orientation."""
    if min(assignment.bob) < min(assignment.alice):
        return RoleAssignment(assignment.bob, assignment.alice, assignment.charlie)
    return assignment


def _canonical_root(theta: float) -> float:
    """Any angle folded into [0, pi), an angle within 1e-9 below pi to 0."""
    root = math.fmod(theta, math.pi)
    if root < 0.0:
        root += math.pi
    if math.pi - root < 1e-9:
        root = 0.0
    return abs(root)  # fold -0.0


def _coefficients(grid: np.ndarray) -> tuple[float, float, float, float]:
    """(a1, b1, a2, b2) of one arranged channel's defect profile."""
    g0, g1 = _base_operators(grid, _charlie_bras(0.0))[:, 0]
    g1 = -g1  # M(0), M(pi/2)
    a, b, c = g0.conj().T @ g0, g1.conj().T @ g1, g0.conj().T @ g1
    p, q, r = (a + b) / 2 - np.eye(4), (a - b) / 2, (c + c.conj().T) / 2

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.vdot(x, y).real)

    return 2 * dot(p, q), 2 * dot(p, r), (dot(q, q) - dot(r, r)) / 2, dot(q, r)


def _quartic(h: complex, a2: float, b2: float) -> list[complex]:
    """Branch a2 cos 4theta + b2 sin 4theta +- (a1 cos 2theta + b1 sin 2theta):
    its derivative times z^2, z = exp(2i theta), is this quartic in z, with
    h = +-(b1 + i a1)/2."""
    return [complex(b2, a2), h, 0.0, h.conjugate(), complex(b2, -a2)]


def z_root_angles(rows: list[list[float]]) -> list[list[float]]:
    """The engine's _root_angles by the z-route: np.angle(np.roots(p)) / 2 for
    the quartic p in z of each (a1, b1, a2, b2) row with a2 or b2 nonzero."""
    return [
        (np.angle(np.roots(_quartic(complex(b1, a1) / 2, a2, b2))) / 2).tolist()
        if a2 or b2 else []
        for a1, b1, a2, b2 in rows
    ]


def _candidate_angles(grid: np.ndarray) -> np.ndarray:
    """candidates_of the coefficients of one arranged channel."""
    return candidates_of(*_coefficients(grid))


def candidates_of(a1: float, b1: float, a2: float, b2: float) -> np.ndarray:
    """Sorted angles in [0, pi/2) that bound the monotone pieces of the
    profile over its period pi/2: one crossing, branch +'s stationary
    angles and the nodes k pi/8, k = 0..3.  A profile whose coefficients
    are all 0 is flat, and node 0 alone stands for it."""
    if not (a1 or b1 or a2 or b2):
        return np.array([0.0])
    # d1 = d2 where a1 cos 2theta + b1 sin 2theta vanishes
    angles = [math.atan2(b1, a1) / 2 + math.pi / 4]
    if a2 or b2:
        # branch +'s derivative over 4 cos^4 theta, a quartic in t = tan theta
        quartic = [b2 - b1 / 2, 4 * a2 - a1, -6 * b2, -4 * a2 - a1, b2 + b1 / 2]
        angles.extend(np.arctan(np.roots(quartic).astype(complex)).real.tolist())
    else:
        # the quartic in t has the factor 1 + t^2, whose roots +-i have no
        # angle: take the z-route, whose zero root is node 0
        h = complex(b1, a1) / 2
        angles.extend((np.angle(np.roots(_quartic(h, a2, b2))) / 2).tolist())
    angles.extend(k * math.pi / 8 for k in range(4))
    # a root a hair below 0 lands on pi/2 itself: fold it to 0
    return np.array(sorted({angle % (math.pi / 2) for angle in angles} - {math.pi / 2}))


def _full_period_candidate_angles(grid: np.ndarray) -> np.ndarray:
    """The full-period rule: sorted angles in [0, pi) from both crossings,
    both branches' stationary angles and the nodes k pi/8, k = 0..7."""
    a1, b1, a2, b2 = _coefficients(grid)
    crossing = math.atan2(b1, a1) / 2 + math.pi / 4
    angles = [crossing, crossing + math.pi / 2]
    for h in (complex(b1, a1) / 2, -complex(b1, a1) / 2):
        angles.extend((np.angle(np.roots(_quartic(h, a2, b2))) / 2).tolist())
    angles.extend(k * math.pi / 8 for k in range(8))
    return np.array(sorted({angle % math.pi for angle in angles}))


def _classify(
    channel: PureState,
    assignment: RoleAssignment,
    tol: float,
    candidate_angles,
    shifts: tuple[float, ...],
) -> ThetaClassification:
    """Verdict from the profile at the candidates; each root r is reported
    as r + shift for every shift, canonicalized and deduplicated modulo pi."""
    _require_tol(tol)
    grid = _arranged(channel, class_orientation(assignment)).reshape([2] * 5)
    thetas = candidate_angles(grid)
    values = np.array(
        [
            max(map(unitarity_defect, _base_operators(grid, _charlie_bras(t))[:, 0]))
            for t in thetas
        ]
    )
    if float(values.max()) <= tol:
        # thetas[0] is the node 0
        return ThetaClassification(KIND_ALL, None, float(values[0]), 0.0)

    # the engine's tie rule: the first candidate within 4 ulps of the least
    low = float(values.min())
    best = int(np.flatnonzero(values <= low + 4 * math.ulp(low))[0])
    best_defect, best_theta = float(values[best]), _canonical_root(thetas[best])
    minima = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    roots = [
        _canonical_root(theta + shift)
        for theta in thetas[minima & (values <= tol)].tolist()
        for shift in shifts
    ]

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


def classify_theta(
    channel: PureState, assignment: RoleAssignment, tol: float = 1e-10
) -> ThetaClassification:
    """Classify the combined-defect profile, which has period pi/2.

    all_theta: every candidate angle of [0, pi/2) passes.
    discrete_theta: some candidates that are cyclic local minima pass;
    each such root r is reported with r + pi/2.  none: no angle passes.
    Roots are canonicalized into [0, pi) and deduplicated modulo pi;
    ``argmin_theta`` lies in [0, pi/2).
    """
    return _classify(channel, assignment, tol, _candidate_angles, (0.0, math.pi / 2))


def classify_theta_full_period(
    channel: PureState, assignment: RoleAssignment, tol: float = 1e-10
) -> ThetaClassification:
    """The same verdict from candidates over the full period [0, pi)."""
    return _classify(channel, assignment, tol, _full_period_candidate_angles, (0.0,))


def scan(channel: PureState, tol: float = 1e-10) -> ScanReport:
    """Classify every role assignment of a five-qubit channel.

    Entries are sorted working-first: all_theta, then discrete_theta,
    then none; ties by min_defect, then by assignment order.
    """
    entries = []
    for assignment in enumerate_assignments():
        cls = classify_theta(channel, assignment, tol)
        entries.append(
            ScanEntry(
                assignment=assignment,
                classification=cls,
                purity_alice=purity(partial_trace(channel, assignment.alice)),
                purity_bob=purity(partial_trace(channel, assignment.bob)),
            )
        )
    entries.sort(
        key=lambda e: (
            _KIND_ORDER[e.classification.kind],
            e.classification.min_defect,
            e.assignment.alice,
            e.assignment.bob,
        )
    )
    return ScanReport(tuple(entries))
