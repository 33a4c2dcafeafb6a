"""Enumerate role assignments and classify the basis angles that work.

Charlie's outcome-1 base operator is M(theta) = cos(theta) G0 +
sin(theta) G1, and the outcome-2 operator is M(theta - pi/2).  With
A = G0^H G0, B = G1^H G1 and C = G0^H G1,

    M^H M - I = P + cos(2 theta) Q + sin(2 theta) R,
    P = (A + B)/2 - I,   Q = (A - B)/2,   R = (C + C^H)/2,

so the squared defect of outcome 1 is the trig polynomial

    d1^2 = a0 + a1 cos 2theta + b1 sin 2theta + a2 cos 4theta + b2 sin 4theta

with coefficients from the Frobenius inner products of P, Q and R.
Outcome 2 flips the signs of a1 and b1, so the combined profile is

    max(d1, d2)^2 = a0 + a2 cos 4theta + b2 sin 4theta
                    + |a1 cos 2theta + b1 sin 2theta|.

Between consecutive angles of a finite candidate set it is monotone:
the two crossings d1 = d2, the stationary points of each branch (roots
of a quartic in exp(2i theta)), and the nodes k pi/8, k = 0..7, which
fix a trig polynomial of these harmonics and cover degenerate
coefficient sets.  The coefficients only place the candidates.  Every
verdict comes from evaluating both defects at the candidates, with the
arithmetic criterion_check uses: all_theta when every candidate
passes; otherwise the roots are the candidates that are cyclic local
minima and pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .entanglement import partial_trace, purity
from .states import PureState
from .teleport import (
    RoleAssignment,
    _arranged,
    _base_tableau,
    _require_tol,
    unitarity_defect,
)

__all__ = [
    "KIND_ALL",
    "KIND_DISCRETE",
    "KIND_NONE",
    "ThetaClassification",
    "ScanEntry",
    "ScanReport",
    "enumerate_assignments",
    "classify_theta",
    "scan",
]

KIND_ALL = "all_theta"
KIND_DISCRETE = "discrete_theta"
KIND_NONE = "none"

_KIND_ORDER = {KIND_ALL: 0, KIND_DISCRETE: 1, KIND_NONE: 2}


@dataclass(frozen=True)
class ThetaClassification:
    """How a channel/assignment pair depends on Charlie's basis angle.

    ``roots`` is present (sorted, canonicalized into [0, pi)) only for
    kind discrete_theta.  ``min_defect``/``argmin_theta`` are always
    reported; for all_theta the argmin is 0 by convention.
    """

    kind: str
    roots: tuple[float, ...] | None
    min_defect: float
    argmin_theta: float


@dataclass(frozen=True)
class ScanEntry:
    assignment: RoleAssignment
    classification: ThetaClassification
    purity_alice: float
    purity_bob: float

    def as_dict(self) -> dict:
        cls = self.classification
        return {
            "alice": list(self.assignment.alice),
            "bob": list(self.assignment.bob),
            "charlie": self.assignment.charlie,
            "kind": cls.kind,
            "roots": None if cls.roots is None else list(cls.roots),
            "min_defect": cls.min_defect,
            "argmin_theta": cls.argmin_theta,
            "purity_alice": self.purity_alice,
            "purity_bob": self.purity_bob,
        }


@dataclass(frozen=True)
class ScanReport:
    entries: tuple[ScanEntry, ...]

    def as_dicts(self) -> list[dict]:
        return [entry.as_dict() for entry in self.entries]


def enumerate_assignments() -> list[RoleAssignment]:
    """All 30 role assignments, ascending within roles, lexicographic order."""
    out = []
    for alice in combinations(range(1, 6), 2):
        rest = [q for q in range(1, 6) if q not in alice]
        for bob in combinations(rest, 2):
            (charlie,) = (q for q in rest if q not in bob)
            out.append(RoleAssignment(alice, bob, charlie))
    return out


def _canonical_root(theta: float) -> float:
    root = math.fmod(theta, math.pi)
    if root < 0.0:
        root += math.pi
    if math.pi - root < 1e-9:
        root = 0.0
    return abs(root)  # fold -0.0


def _candidate_angles(grid: np.ndarray) -> np.ndarray:
    """Sorted angles in [0, pi) that bound the monotone pieces of the profile."""
    g0 = _base_tableau(grid, 1, 0.0)  # M(0)
    g1 = -_base_tableau(grid, 2, 0.0)  # M(pi/2)
    a, b, c = g0.conj().T @ g0, g1.conj().T @ g1, g0.conj().T @ g1
    p, q, r = (a + b) / 2 - np.eye(4), (a - b) / 2, (c + c.conj().T) / 2

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.vdot(x, y).real)

    a1, b1 = 2 * dot(p, q), 2 * dot(p, r)
    a2, b2 = (dot(q, q) - dot(r, r)) / 2, dot(q, r)
    # d1 = d2 where a1 cos 2theta + b1 sin 2theta vanishes
    crossing = math.atan2(b1, a1) / 2 + math.pi / 4
    angles = [crossing, crossing + math.pi / 2]
    # branch a2 cos 4theta + b2 sin 4theta +- (a1 cos 2theta + b1 sin 2theta):
    # its derivative times z^2, z = exp(2i theta), is this quartic in z
    for h in (complex(b1, a1) / 2, -complex(b1, a1) / 2):
        quartic = [complex(b2, a2), h, 0.0, h.conjugate(), complex(b2, -a2)]
        angles.extend((np.angle(np.roots(quartic)) / 2).tolist())
    angles.extend(k * math.pi / 8 for k in range(8))
    return np.array(sorted({angle % math.pi for angle in angles}))


def classify_theta(
    channel: PureState, assignment: RoleAssignment, tol: float = 1e-10
) -> ThetaClassification:
    """Classify the combined-defect profile over theta in [0, pi).

    all_theta: every candidate angle passes.  discrete_theta: some
    candidates that are cyclic local minima pass.  none: no angle
    passes.  Roots are canonicalized into [0, pi) and deduplicated
    modulo pi.
    """
    _require_tol(tol)
    grid = _arranged(channel, assignment).amplitudes.reshape([2] * 5)
    thetas = _candidate_angles(grid)
    values = np.array(
        [
            max(unitarity_defect(_base_tableau(grid, n, theta)) for n in (1, 2))
            for theta in thetas
        ]
    )
    if float(values.max()) <= tol:
        # thetas[0] is the node 0
        return ThetaClassification(KIND_ALL, None, float(values[0]), 0.0)

    best = int(np.argmin(values))
    best_defect, best_theta = float(values[best]), _canonical_root(thetas[best])
    minima = (values <= np.roll(values, 1)) & (values <= np.roll(values, -1))
    roots = [_canonical_root(theta) for theta in thetas[minima & (values <= tol)]]

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
