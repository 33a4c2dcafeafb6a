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
                    + |a1 cos 2theta + b1 sin 2theta|,

with period pi/2, as d1(theta + pi/2) = d2(theta).  On [0, pi/2) it is
monotone between consecutive angles of a finite candidate set: the
crossing d1 = d2, the stationary points of branch + (roots of a quartic
p(z), z = exp(2i theta); branch - has p(-z), the same angles plus pi/2),
and the nodes k pi/8, k = 0..3, which fix a trig polynomial of these
harmonics and cover degenerate coefficient sets.  The coefficients only
place the candidates.  Every verdict comes from evaluating both defects
at the candidates, with the arithmetic criterion_check uses: all_theta
when every candidate passes; otherwise each candidate r that is a
cyclic local minimum and passes gives the roots r and r + pi/2.

Engine: ``scan`` stacks the channel re-arranged for all 30 assignments
with one gather through the rows of their cached gather indices (those
every per-assignment call reads), and ``_classify`` classifies each
distinct row of the stack once (a symmetric channel such as ghz5 gives
all 30 assignments the same arranged amplitudes) and runs every step
on the distinct rows: the coefficients as stacked products, the
quartics, one per row, through one batched ``eigvals`` per degree on
np.roots' companion matrices (a2 = b2 = 0 leaves a quadratic, and an all-zero
quartic has no roots and is skipped), and every candidate of every
row, both outcomes, in one stacked defect evaluation.  Every step works
row by row, so a duplicate row would get the same bits.  The base
operators and their defects come from the kernel criterion_check uses
(teleport's _base_operators and _defects), and the other steps keep
the rounding of their single-matrix forms (np.vdot, np.roots), so
verdicts, roots and defects are those of criterion_check's arithmetic.
``classify_theta`` is the same engine on a stack of one.  The pair
purities are read from the channel's purity memo (entanglement), so the
ten are computed once per channel, however many scans and criterion
checks read them.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import NamedTuple

import numpy as np

from .entanglement import _reduced_purity, _require_tol
from .states import PureState
from .teleport import (
    RoleAssignment,
    _arranged,
    _base_operators,
    _defects,
    _gather_indices,
    _require_channel,
    _row_dots,
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


class ThetaClassification(NamedTuple):
    """How a channel/assignment pair depends on Charlie's basis angle.

    ``roots`` is present (sorted, canonicalized into [0, pi)) only for
    kind discrete_theta.  ``min_defect``/``argmin_theta`` are always
    reported, the argmin in [0, pi/2) and 0 for all_theta.
    """

    kind: str
    roots: tuple[float, ...] | None
    min_defect: float
    argmin_theta: float


class ScanEntry(NamedTuple):
    assignment: RoleAssignment
    classification: ThetaClassification
    purity_alice: float
    purity_bob: float

    def as_dict(self) -> dict:
        cls = self.classification
        return {
            **self.assignment.as_dict(),
            "kind": cls.kind,
            "roots": None if cls.roots is None else list(cls.roots),
            "min_defect": cls.min_defect,
            "argmin_theta": cls.argmin_theta,
            "purity_alice": self.purity_alice,
            "purity_bob": self.purity_bob,
        }


class ScanReport(NamedTuple):
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


# the nodes k pi/8 of the half period, in every candidate set
_NODES = [k * math.pi / 8 for k in range(4)]


def _root_angles(quartics: list[list[complex]]) -> list[list[float]]:
    """np.angle(np.roots(quartic)) / 2 for every quartic [w, h, 0, h*, w*].

    np.roots strips leading and trailing zeros, so w = 0 (a2 = b2 = 0)
    leaves the quadratic [h, 0, h*] and one root at 0, appended last,
    and w = h = 0 leaves no roots.  Each degree gets np.roots' companion
    matrices, stacked into one eigvals call.
    """
    coeffs = np.array(quartics, dtype=np.complex128)
    angles: list[list[float]] = [[] for _ in quartics]
    quartic = coeffs[:, 0] != 0
    quadratic = ~quartic & (coeffs[:, 1] != 0)
    for rows, poly in ((quartic, coeffs), (quadratic, coeffs[:, 1:4])):
        poly = poly[rows]
        if not len(poly):
            continue
        degree = poly.shape[1] - 1
        companion = np.repeat(
            np.eye(degree, k=-1, dtype=np.complex128)[None], len(poly), axis=0
        )
        companion[:, 0] = -poly[:, 1:] / poly[:, :1]
        roots = (np.angle(np.linalg.eigvals(companion)) / 2).tolist()
        for k, row in zip(np.flatnonzero(rows).tolist(), roots):
            angles[k] = row
    for k in np.flatnonzero(quadratic).tolist():
        angles[k].append(0.0)  # np.angle(0j) / 2
    return angles


def _candidate_sets(arranged: np.ndarray) -> list[list[float]]:
    """Per row of the stack, sorted angles in [0, pi/2) that bound the
    monotone pieces of the profile over its period."""
    m0, m1 = _base_operators(arranged, np.eye(2))  # M(0), M(pi/2): outcome 1's bras
    m0h, m1h = m0.conj().transpose(0, 2, 1), m1.conj().transpose(0, 2, 1)
    a, b, c = m0h @ m0, m1h @ m1, m0h @ m1
    p, q = (a + b) / 2 - np.eye(4), (a - b) / 2
    r = (c + c.conj().transpose(0, 2, 1)) / 2
    p, q, r = p.reshape(-1, 16), q.reshape(-1, 16), r.reshape(-1, 16)
    # Re <x|y> as Python floats, rounded as np.vdot rounds them
    dots = [_row_dots(x, y).real.tolist() for x, y in ((p, q), (p, r), (q, q), (r, r), (q, r))]

    sets, quartics = [], []
    for pq, pr, qq, rr, qr in zip(*dots):
        a1, b1 = 2 * pq, 2 * pr
        a2, b2 = (qq - rr) / 2, qr
        # d1 = d2 where a1 cos 2theta + b1 sin 2theta vanishes
        crossing = math.atan2(b1, a1) / 2 + math.pi / 4
        sets.append([crossing, *_NODES])
        # branch a2 cos 4theta + b2 sin 4theta + a1 cos 2theta + b1 sin 2theta:
        # its derivative times z^2, z = exp(2i theta), is this quartic in z
        h = complex(b1, a1) / 2
        quartics.append([complex(b2, a2), h, 0.0, h.conjugate(), complex(b2, -a2)])
    for angles, roots in zip(sets, _root_angles(quartics)):
        angles.extend(roots)
    return [sorted({angle % (math.pi / 2) for angle in angles}) for angles in sets]


def _profiles(arranged: np.ndarray, thetas: list[list[float]]) -> list[float]:
    """max(d1, d2) at every candidate of every row, one stacked evaluation per outcome.

    ``thetas[k]`` are the angles of row k of the (m, 32) stack; the
    values come back flattened in the same order.
    """
    owner = np.repeat(np.arange(len(thetas)), [len(row) for row in thetas])
    flat = [theta for row in thetas for theta in row]
    c, s = np.array([[math.cos(theta) for theta in flat], [math.sin(theta) for theta in flat]])
    weights = np.concatenate((c, s, s, -c)).reshape(2, 2, -1)  # _charlie_bras of each
    rows = arranged[owner]
    # per outcome: stacking both doubles each temporary, and repeated scans page-fault
    d1, d2 = (_defects(_base_operators(rows, weights[n : n + 1])[0]) for n in (0, 1))
    return np.maximum(d1, d2).tolist()


def _verdict(thetas: list[float], values: list[float], tol: float) -> ThetaClassification:
    """Classification of one profile from its values at the candidates."""
    if max(values) <= tol:
        # thetas[0] is the node 0
        return ThetaClassification(KIND_ALL, None, values[0], 0.0)

    best = values.index(min(values))
    count = len(values)
    roots = [
        _canonical_root(thetas[k] + shift)
        for k, value in enumerate(values)
        if value <= tol and value <= values[k - 1] and value <= values[(k + 1) % count]
        for shift in (0.0, math.pi / 2)
    ]
    deduped: list[float] = []
    for root in sorted(roots):
        if all(
            min(abs(root - other), math.pi - abs(root - other)) > 1e-6
            for other in deduped
        ):
            deduped.append(root)

    kind, found = (KIND_DISCRETE, tuple(deduped)) if deduped else (KIND_NONE, None)
    return ThetaClassification(kind, found, values[best], _canonical_root(thetas[best]))


def _classify(arranged: np.ndarray, tol: float) -> list[ThetaClassification]:
    """Classify each row of an (m, 32) stack of arranged channels at once.

    Every step works row by row, so only the first row of each distinct
    byte string is classified and its duplicates share the result.
    """
    keys = [row.tobytes() for row in arranged]
    first: dict[bytes, int] = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    distinct = arranged[list(first.values())]
    thetas = _candidate_sets(distinct)
    values = _profiles(distinct, thetas)
    bounds = list(accumulate(map(len, thetas), initial=0))
    found = {
        key: _verdict(row, values[start:stop], tol)
        for key, row, start, stop in zip(first, thetas, bounds, bounds[1:])
    }
    return [found[key] for key in keys]


def classify_theta(
    channel: PureState, assignment: RoleAssignment, tol: float = 1e-10
) -> ThetaClassification:
    """Classify the combined-defect profile over theta in [0, pi).

    The combined profile has period pi/2, so only candidates in
    [0, pi/2) are evaluated.  all_theta: every candidate angle passes.
    discrete_theta: some candidates that are cyclic local minima pass;
    each such root r is reported with r + pi/2.  none: no angle passes.
    Roots are canonicalized into [0, pi) and deduplicated modulo pi;
    ``argmin_theta`` lies in [0, pi/2).
    """
    _require_tol(tol)
    return _classify(_arranged(channel, assignment)[None], tol)[0]


# the 30 assignments of a scan and, in row k, assignment k's gather index:
# channel.amplitudes[_GATHER] arranges all 30 at once, as _arranged does one
_ASSIGNMENTS = tuple(enumerate_assignments())
_GATHER = _gather_indices([a.relabeling() for a in _ASSIGNMENTS])


def scan(channel: PureState, tol: float = 1e-10) -> ScanReport:
    """Classify every role assignment of a five-qubit channel.

    All 30 assignments go through one classify pass; the pair purities
    come from the channel's memo, so each of the ten is computed at most
    once per channel.  Entries are sorted working-first:
    all_theta, then discrete_theta, then none; ties by min_defect, then
    by assignment order.
    """
    _require_tol(tol)
    _require_channel(channel)
    classes = _classify(channel.amplitudes[_GATHER], tol)
    entries = [
        ScanEntry(
            assignment,
            cls,
            _reduced_purity(channel, assignment.alice),
            _reduced_purity(channel, assignment.bob),
        )
        for assignment, cls in zip(_ASSIGNMENTS, classes)
    ]
    entries.sort(
        key=lambda e: (
            _KIND_ORDER[e.classification.kind],
            e.classification.min_defect,
            e.assignment.alice,
            e.assignment.bob,
        )
    )
    return ScanReport(tuple(entries))
