"""Enumerate role assignments and classify the basis angles that work.

Charlie's outcome-1 base operator is M(theta) = cos(theta) G0 +
sin(theta) G1, and the outcome-2 operator is M(theta - pi/2).  With
A = G0^H G0, B = G1^H G1 and C = G0^H G1, the blocks of the Gram matrix
[G0 | G1]^H [G0 | G1],

    M^H M - I = P + cos(2 theta) Q + sin(2 theta) R,
    P = (A + B)/2 - I,   Q = (A - B)/2,   R = (C + C^H)/2,

and outcome 2 flips the sign of the angle terms.  So the defects are
d1, d2 = ||P +- (cos(2 theta) Q + sin(2 theta) R)||_F, and the squared
defect of outcome 1 is the trig polynomial

    d1^2 = a0 + a1 cos 2theta + b1 sin 2theta + a2 cos 4theta + b2 sin 4theta

with coefficients from the Frobenius inner products of P, Q and R.
Outcome 2 flips the signs of a1 and b1, so the combined profile

    max(d1, d2)^2 = a0 + a2 cos 4theta + b2 sin 4theta
                    + |a1 cos 2theta + b1 sin 2theta|

has period pi/2, as d1(theta + pi/2) = d2(theta).  On [0, pi/2) it is
monotone between consecutive angles of a finite candidate set: the
crossing d1 = d2, the stationary points of branch + (the real roots of a
quartic in t = tan theta; branch - has the same angles plus pi/2), and
the nodes k pi/8, k = 0..3, which fix a trig polynomial of these
harmonics and cover degenerate coefficient sets.  The coefficients
(a1, b1, a2, b2) place the candidates, and max(d1, d2) is evaluated at
every candidate from P, Q and R, within _GRAM_BOUND of the defects
criterion_check computes.  A value within that bound of tol, or of a
row's least value where several candidates do, is replaced by
criterion_check's own, so every pass/fail and argmin is the criterion's.
all_theta when every candidate passes; otherwise each candidate r that
is a cyclic local minimum and passes gives the roots r and r + pi/2.
The argmin is the first candidate within 4 ulps of the least value,
node 0 on a flat profile, whose values differ only in their last bits.
README "Engine" describes how ``scan`` batches these steps.
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


def _coefficients(arranged: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(P, Q, R) of each row of the stack as (m, 16) stacks, and its profile
    coefficients (a1, b1, a2, b2) as one (m, 4) row each, all from the
    blocks A, B and C of the Gram of [M(0) | M(pi/2)] per row."""
    m0, m1 = _base_operators(arranged, np.eye(2))  # M(0), M(pi/2): outcome 1's bras
    m0h, m1h = m0.conj().mT, m1.conj().mT
    a, b, c = m0h @ m0, m1h @ m1, m0h @ m1
    p, q = (a + b) / 2 - np.eye(4), (a - b) / 2
    r = (c + c.conj().mT) / 2
    p, q, r = p.reshape(-1, 16), q.reshape(-1, 16), r.reshape(-1, 16)
    # Re <x|y> of each row pair: np.vecdot calls np.vdot's BLAS dot row by row
    pairs = ((p, q), (p, r), (q, q), (r, r), (q, r))
    pq, pr, qq, rr, qr = (np.vecdot(x, y).real for x, y in pairs)
    return (p, q, r), np.stack((2 * pq, 2 * pr, (qq - rr) / 2, qr), axis=1)


def _candidate_sets(coeffs: np.ndarray) -> list[list[float]]:
    """Per row of an (m, 4) coefficient stack, sorted angles in [0, pi/2)
    that bound the monotone pieces of the profile over its period."""
    # a row's list is a function of its (a1, b1, a2, b2) bits: build each once
    keys, first = _first_rows(coeffs)
    rows = coeffs[list(first.values())].tolist()
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


# The largest |Gram value - criterion_check's defect| at one angle.  On a
# normalized channel ||M(0)||_F^2 + ||M(pi/2)||_F^2 = _SCALE^2 = 8, so
# ||M(theta)||_F^2 <= 8 too.  Each product either route forms, the Gram or
# M^H M at theta, has 4-term entries within 4 ulps of their moduli's sums,
# which total at most 8 in Frobenius norm, and each gap, P +- (cos 2theta Q
# + sin 2theta R) or M^H M - I, has norm at most 10.  The few roundings that
# form a gap from its product, and its norm (a dot of 32 squares, within 16
# ulps of 10), keep each route within 5e-14 of the exact defect, and so the
# two within 1e-13 (worst seen: 4.4e-15 over 291,810 candidates of the
# catalog and of dense, sparse and LU-rotated channels).
_GRAM_BOUND = 1e-13


def _profiles(
    arranged: np.ndarray, blocks: tuple[np.ndarray, ...], thetas: list[list[float]], tol: float
) -> list[float]:
    """max(d1, d2) at every candidate, flattened in the order of ``thetas``.

    ``thetas[k]`` are the angles of row k of the (m, 32) stack and
    ``blocks`` its (P, Q, R) rows.  A value within _GRAM_BOUND of tol, or
    one of a row's candidates that may tie for its argmin, is replaced by
    both defects evaluated as criterion_check evaluates them.
    """
    counts = [len(row) for row in thetas]
    flat = np.fromiter(chain.from_iterable(thetas), np.float64, sum(counts))
    owner = np.repeat(np.arange(len(thetas)), counts)
    p, q, r = (block[owner].view(np.float64) for block in blocks)
    two = 2 * flat[:, None]
    turn = np.cos(two) * q + np.sin(two) * r
    plus, minus = p + turn, p - turn
    values = np.sqrt(np.maximum(np.vecdot(plus, plus), np.vecdot(minus, minus)))
    # _verdict's argmin, the first candidate within 4 ulps of its row's least
    # criterion defect, lies within 2 _GRAM_BOUND + 4 ulps < 3 _GRAM_BOUND of
    # the row's least Gram value.  Where one candidate does, it is that one;
    # where several do, they tie, unless every candidate surely passes and
    # node 0 is the argmin of an all_theta row.
    starts = list(accumulate(counts, initial=0))[:-1]
    near = values <= np.minimum.reduceat(values, starts)[owner] + 3 * _GRAM_BOUND
    open_rows = np.maximum.reduceat(values, starts) >= tol - _GRAM_BOUND
    tied = (np.bincount(owner[near], minlength=len(counts)) > 1) & open_rows
    redo = np.flatnonzero(near & tied[owner] | (np.abs(values - tol) <= _GRAM_BOUND))
    if len(redo):
        # numpy's float64 cos and sin round as math.cos and math.sin, which
        # _charlie_bras uses; test_batched_defects_are_criterion_arithmetic
        # checks these values against that form to the bit
        c, s = np.cos(flat[redo]), np.sin(flat[redo])
        weights = np.concatenate((c, s, s, -c)).reshape(2, 2, -1)  # _charlie_bras of each
        base = _base_operators(arranged[owner[redo]], weights)  # both outcomes, (2, k, 4, 4)
        values[redo] = _defects(base.reshape(-1, 4, 4)).reshape(2, -1).max(axis=0)
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
    blocks, coeffs = _coefficients(distinct)
    thetas = _candidate_sets(coeffs)
    values = _profiles(distinct, blocks, thetas, tol)
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
