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
crossing d1 = d2, the stationary points of branch + (the real roots of a
quartic in t = tan theta; branch - has the same angles plus pi/2), and
the nodes k pi/8, k = 0..3, which fix a trig polynomial of these
harmonics and cover degenerate coefficient sets.  The coefficients
place the candidates and screen them, but every verdict comes from both
defects evaluated with the arithmetic criterion_check uses: all_theta
when every candidate passes; otherwise each candidate r that is a
cyclic local minimum and passes gives the roots r and r + pi/2.  The
argmin is the first candidate within 4 ulps of the least value, node 0
on a flat profile, whose values differ only in their last bits.

Engine: ``scan`` stacks the channel re-arranged for all 30 assignments
with one gather, each in its role class's orientation, lower-labelled
pair first: a pair swap transposes the base operators and keeps their
defects, so the stack has at most 15 distinct rows.  ``_classify``
classifies each distinct row once, all of them in every step: the
coefficients as stacked products; the candidate list once per distinct
coefficient set (a1, b1, a2, b2), its quartic's roots from one stacked
``eigvals`` per companion size; the closed form above at every
candidate; and the exact defects, both outcomes in one stacked call,
only at the candidates the closed form leaves within a margin of
max(their row's least value, tol^2); the others provably exceed the
row's minimum, its 4-ulp ties and tol, and get inf.  Every step keeps
the rounding of its single-matrix form (criterion_check's kernel,
np.vdot, np.roots, math.cos, math.sin), so a duplicate row, a subset of
the candidates or ``classify_theta`` (a stack of one) gets the same
bits.  README "Engine" gives the details.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, combinations
from typing import NamedTuple

import numpy as np

from .entanglement import _reduced_purity, _require_channel, _require_tol
from .states import PureState
from .teleport import RoleAssignment, _arranged, _base_operators, _defects

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
    reported, the argmin in [0, pi/2): 0 for all_theta, else the first
    candidate within 4 ulps of the least value, ``min_defect`` its value.
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


# the nodes k pi/8 of the half period, in every candidate set
_NODES = [k * math.pi / 8 for k in range(4)]

# np.roots' companion matrices below their first rows, by size
_SUBDIAGONALS = [np.eye(k, k=-1) for k in range(5)]


def _first_rows(rows: np.ndarray) -> tuple[list[bytes], dict[bytes, int]]:
    """The bytes of each row, and the index of the first row of each distinct byte string."""
    keys = [row.tobytes() for row in rows]
    first: dict[bytes, int] = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    return keys, first


def _quartic(a1: float, b1: float, a2: float, b2: float) -> list[float]:
    """Branch a2 cos 4theta + b2 sin 4theta + a1 cos 2theta + b1 sin 2theta:
    its derivative over 4 cos^4 theta is this quartic in t = tan theta."""
    half, four = b1 / 2, 4 * a2
    return [b2 - half, four - a1, -6 * b2, -four - a1, b2 + half]


def _root_angles(rows: list[list[float]]) -> list[list[float]]:
    """np.arctan(np.roots(q).astype(complex)).real for the quartic q of each
    (a1, b1, a2, b2) row with a2 or b2 nonzero, np.roots' companion matrices
    of each size stacked into one eigvals call; a row with a2 = b2 = 0 gets
    no angles (_candidate_sets places its one)."""
    angles: list[list[float]] = [[] for _ in rows]
    tops: dict[int, list[tuple[int, list[float]]]] = {}
    for k, row in enumerate(rows):
        if row[2] or row[3]:  # then q is nonzero
            q = _quartic(*row)
            # np.roots trims q's leading and trailing zeros, and appends a
            # zero root for each trailing one
            first, last = 0, 4
            while not q[last]:
                last -= 1
            while True:
                while not q[first]:
                    first += 1
                top = [-x / q[first] for x in q[first + 1 : last + 1]]
                if math.isfinite(sum(top)):
                    break
                # where np.roots' companion overflows, the lead's extra roots
                # lie past |t| = 1e77, at theta = pi/2 in floats: node 0
                first += 1
            angles[k] = [0.0] * (4 - last)  # the eigenvalues' angles go in front
            tops.setdefault(last - first, []).append((k, top))
    for size, group in tops.items():
        if size:
            companion = np.repeat(_SUBDIAGONALS[size][None], len(group), axis=0)
            companion[:, 0] = [top for _, top in group]
            with np.errstate(divide="ignore"):  # arctan(+-i), where a2, b2 underflow
                roots = np.arctan(np.linalg.eigvals(companion).astype(complex)).real.tolist()
            for (k, _), found in zip(group, roots):
                angles[k] = found + angles[k]
    return angles


def _coefficients(arranged: np.ndarray) -> np.ndarray:
    """Profile coefficients (a0, a1, b1, a2, b2) of each row of the stack, one (m, 5) row each."""
    m0, m1 = _base_operators(arranged, np.eye(2))  # M(0), M(pi/2): outcome 1's bras
    m0h, m1h = m0.conj().transpose(0, 2, 1), m1.conj().transpose(0, 2, 1)
    a, b, c = m0h @ m0, m1h @ m1, m0h @ m1
    p, q = (a + b) / 2 - np.eye(4), (a - b) / 2
    r = (c + c.conj().transpose(0, 2, 1)) / 2
    p, q, r = p.reshape(-1, 16), q.reshape(-1, 16), r.reshape(-1, 16)
    # Re <x|y> of each row pair: np.vecdot calls np.vdot's BLAS dot row by row
    pairs = ((p, p), (p, q), (p, r), (q, q), (r, r), (q, r))
    pp, pq, pr, qq, rr, qr = (np.vecdot(x, y).real for x, y in pairs)
    return np.stack((pp + (qq + rr) / 2, 2 * pq, 2 * pr, (qq - rr) / 2, qr), axis=1)


def _candidate_sets(coeffs: np.ndarray) -> list[list[float]]:
    """Per row of an (m, 5) coefficient stack, sorted angles in [0, pi/2)
    that bound the monotone pieces of the profile over its period."""
    # a row's list is a function of its (a1, b1, a2, b2) bits: build each once
    keys, first = _first_rows(coeffs[:, 1:])
    distinct = coeffs[list(first.values()), 1:]

    rows = distinct.tolist()
    sets = []
    for (a1, b1, a2, b2), roots in zip(rows, _root_angles(rows)):
        # d1 = d2 where a1 cos 2theta + b1 sin 2theta vanishes; math.atan2, as
        # np.arctan2 runs numpy's own SIMD kernel, which on an AVX-512 CPU
        # differs from libm in the last bit on about 7% of inputs and would
        # move the candidates
        crossing = math.atan2(b1, a1) / 2 + math.pi / 4
        if a2 == b2 == 0 and (a1 or b1):
            # no quartic: branch + is the harmonic alone, stationary a quarter
            # turn from its zero
            roots = (crossing + math.pi / 4,)
        # a root a hair below 0 lands on pi/2 itself: fold it to 0.0, which
        # node 0 puts in every set
        folded = {theta % (math.pi / 2) for theta in (crossing, *_NODES, *roots)}
        sets.append(sorted(folded - {math.pi / 2}))
    found = dict(zip(first, sets))
    return [found[key] for key in keys]


# The screen's margin in d^2 per unit of 1 + |a0| + |a1| + |b1| + |a2| + |b2|.
# A normalized channel has |G0|^2 + |G1|^2 = _SCALE^2 = 8, so every entry of
# A, B, C, P, Q, R and M^H M - I is at most 9 in modulus.  Both routes to d^2
# (exact: 4-term products, 16 squared moduli; closed form: six 16-term dots,
# cos and sin within an ulp) round under a hundred times on terms whose
# moduli sum to at most 2 * 16 * 81, so each is within 100 * 2^-53 * 2592
# < 3e-11 and the two within 1e-10 of each other (worst seen: 1.5e-15 per
# unit, 300 dense, LU-rotated and sparse channels).  A screened-out
# candidate's exact d^2 thus exceeds its row's least, that least's 4-ulp
# ties and tol^2.
_SCREEN_MARGIN = 1e-9


def _screen(
    coeffs: np.ndarray, flat: np.ndarray, owner: np.ndarray, starts: list[int], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form max(d1, d2)^2 at each angle of ``flat``, whose row of
    the (m, 5) coefficient stack is ``owner`` (ascending; row k, never empty,
    starts at ``starts[k]``), and the cut of that row: max(its least value,
    tol^2) plus the margin."""
    a0, a1, b1, a2, b2 = coeffs.T[:, owner]
    two, four = 2 * flat, 4 * flat
    approx = a0 + a2 * np.cos(four) + b2 * np.sin(four)
    approx += np.abs(a1 * np.cos(two) + b1 * np.sin(two))
    least = np.minimum.reduceat(approx, starts)
    cut = np.maximum(least, tol * tol) + _SCREEN_MARGIN * (1 + np.abs(coeffs).sum(axis=1))
    return approx, cut[owner]


def _profiles(
    arranged: np.ndarray, coeffs: np.ndarray, thetas: list[list[float]], tol: float
) -> list[float]:
    """max(d1, d2) at every candidate within its row's cut, inf elsewhere.

    ``thetas[k]`` are the angles of row k of the (m, 32) stack and
    ``coeffs[k]`` its coefficients; the values come back flattened in
    the same order.
    """
    counts = [len(row) for row in thetas]
    flat = np.fromiter(chain.from_iterable(thetas), np.float64, sum(counts))
    owner = np.repeat(np.arange(len(thetas)), counts)
    starts = list(accumulate(counts, initial=0))[:-1]
    approx, cut = _screen(coeffs, flat, owner, starts, tol)
    keep = np.flatnonzero(approx <= cut)
    # numpy's float64 cos and sin round as math.cos and math.sin, which
    # _charlie_bras uses; test_batched_defects_are_criterion_arithmetic
    # checks every value against that form to the bit
    c, s = np.cos(flat[keep]), np.sin(flat[keep])
    weights = np.concatenate((c, s, s, -c)).reshape(2, 2, -1)  # _charlie_bras of each
    base = _base_operators(arranged[owner[keep]], weights)  # both outcomes, (2, k, 4, 4)
    d1, d2 = _defects(base.reshape(-1, 4, 4)).reshape(2, -1)
    values = np.full(len(flat), np.inf)
    values[keep] = np.maximum(d1, d2)
    return values.tolist()


def _verdict(thetas: list[float], values: list[float], tol: float) -> ThetaClassification:
    """Classification of one profile from its values at the candidates."""
    low = min(values)
    # ties, as on a flat profile whose values differ in their last bits, go to
    # candidate order: the first value within 4 ulps of the least
    cut = low + 4 * math.ulp(low)
    best = 0
    while values[best] > cut:
        best += 1
    if low > tol:  # no candidate passes, so no angle does
        return ThetaClassification(KIND_NONE, None, values[best], thetas[best])
    if max(values) <= tol:
        # thetas[0] is the node 0
        return ThetaClassification(KIND_ALL, None, values[0], 0.0)

    # each passing cyclic local minimum r gives r and r + pi/2; as candidates
    # lie in [0, pi/2), only the shift can come within 1e-9 of pi: fold it to 0
    last = len(values) - 1
    roots = []
    for k, value in enumerate(values):
        if value <= tol and value <= values[k - 1] and value <= values[k + 1 if k < last else 0]:
            shifted = thetas[k] + math.pi / 2
            roots += (thetas[k], 0.0 if math.pi - shifted < 1e-9 else shifted)
    # ascending on the circle of period pi, a root's nearest kept root is the
    # last kept (the straight gap) or the first (the gap across pi)
    deduped: list[float] = []
    for root in sorted(roots):
        if not deduped or (root - deduped[-1] > 1e-6 and math.pi - (root - deduped[0]) > 1e-6):
            deduped.append(root)
    # the least value passes and is a cyclic local minimum, so a root was found
    return ThetaClassification(KIND_DISCRETE, tuple(deduped), values[best], thetas[best])


def _classify(arranged: np.ndarray, tol: float) -> list[ThetaClassification]:
    """Classify each row of an (m, 32) stack of arranged channels at once.

    Every step works row by row, so only the first row of each distinct
    byte string is classified and its duplicates share the result.
    """
    keys, first = _first_rows(arranged)
    distinct = arranged[list(first.values())]
    coeffs = _coefficients(distinct)
    thetas = _candidate_sets(coeffs)
    values = _profiles(distinct, coeffs, thetas, tol)
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
    ``argmin_theta`` lies in [0, pi/2), the first candidate within 4 ulps
    of the least value.
    """
    _require_tol(tol)
    return _classify(_arranged(channel, assignment._oriented)[None], tol)[0]


# the 30 assignments of a scan and, in row k, the gather index of assignment
# k's class orientation: channel.amplitudes[_GATHER] arranges all 30 at once
_ASSIGNMENTS = tuple(enumerate_assignments())
_GATHER = np.stack([a._oriented._gather for a in _ASSIGNMENTS])
_GATHER.setflags(write=False)


def scan(channel: PureState, tol: float = 1e-10) -> ScanReport:
    """Classify every role assignment of a five-qubit channel.

    All 30 assignments go through one classify pass; the ten pair
    purities are read once per scan from the channel's memo into one
    table, so each is computed at most once per channel.  Entries are
    sorted working-first:
    all_theta, then discrete_theta, then none; ties by min_defect, then
    by assignment order.
    """
    _require_tol(tol)
    _require_channel(channel)
    classes = _classify(channel.amplitudes[_GATHER], tol)
    purities = {pair: _reduced_purity(channel, pair) for pair in combinations(range(1, 6), 2)}
    # _ASSIGNMENTS is in (alice, bob) order, so the index is the last key
    keys = [(_KIND_ORDER[cls.kind], cls.min_defect, k) for k, cls in enumerate(classes)]
    entries = []
    for k in sorted(range(30), key=keys.__getitem__):
        assignment = _ASSIGNMENTS[k]
        alice, bob = purities[assignment.alice], purities[assignment.bob]
        entries.append(ScanEntry(assignment, classes[k], alice, bob))
    return ScanReport(tuple(entries))
