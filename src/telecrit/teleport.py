"""Transformation operators and the faithfulness criterion.

The protocol: Alice holds an unknown two-qubit state and two qubits of a
shared five-qubit channel, Bob holds two channel qubits, and Charlie
holds the remaining one.  Alice Bell-measures each of her unknown qubits
against one of her channel qubits, Charlie measures his qubit in a
one-parameter rotated basis (angle theta), and Bob applies a local
correction.  For each measurement outcome (i, j, n) the channel induces
a fixed 4x4 operator on Bob's pair; the teleportation is faithful for
every input exactly when the two base operators (both Bell outcomes 1)
are unitary, in which case all 32 outcome operators are unitary too.

Operators are plain 4x4 arrays in the action layout: Bob's unnormalized
post-measurement amplitudes equal 1/(4*sqrt(2)) times matrix @ x, where
x holds the four input coefficients; printed tables show the transpose.
The senders' Bell dictionary is states' ``_BELL_SIGNS``, paired with
``PAULI_FACTORS``; its one array form is ``_BELL_KETS``, the kets of
the stacked sender bras ``_BELL_PAIR_ROWS``.

Engine: ``_base_operators`` is the one contraction of a channel's
amplitudes with Charlie's real weights, [[c, s], [s, -c]]: it sums them
times the Charlie halves of a stack of arranged channels, at a stack of
angles, and the criterion, the angle classifier and the scan take the
unitarity defect of its output with ``_defects``.  The 32 outcome
operators are the Bell projection of a setting's two base operators
(``_outcome_operators``), since every outcome operator factors through
them; ``pauli_factorization_check`` checks that projection against
base @ kron(F_i, F_j), all 16 factors in one product with
``_FACTOR_TABLE``, so it guards the Bell dictionary against the factor
pairing.  A channel holds the record of its last measurement setting on
the ``PureState``, beside its purity memo: (key, base operators, outcome
operators), built whole on a miss and replaced in one assignment.
``criterion_check``, ``pauli_factorization_check``,
``transformation_operator`` (which returns a copy) and ``simulate`` each
unpack the record ``_setting`` hands them, so a verify bundle contracts
the channel once; input checks run on every call.  ``simulate`` reads
Bob's residuals off the 32 operators in one (128, 4) @ (4,) product,
corrects each with its operator's adjoint in one ``np.matvec``, and
returns each outcome as a ``TeleportationRecord`` built from a row of
one read-only (32, 4) array.  Every row dot is ``np.vecdot``, which
calls on each row the BLAS dot ``np.vdot`` calls; the defects and
simulate's norms dot the strided real and imaginary views, as
``np.linalg.norm`` does, so they round as it does.  The brute-force
simulation of the seven-qubit joint state, an independent check of these
routes, lives with the test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .entanglement import _reduced_purity, _require_channel, _require_tol
from .states import _BELL_SIGNS, STRICT_NORM_TOL, PureState, _norm_drifts

__all__ = [
    "PAULI_FACTORS",
    "RoleAssignment",
    "CriterionReport",
    "FactorizationReport",
    "TeleportationRecord",
    "transformation_operator",
    "unitarity_defect",
    "criterion_check",
    "pauli_factorization_check",
    "simulate",
]

# operator scale: with it, a faithful channel yields exactly unitary matrices
_SCALE = 2.0 * math.sqrt(2.0)
# measurement prefactor relating raw projections to the scaled operators
_PREFACTOR = 1.0 / (4.0 * math.sqrt(2.0))

# Local correction factors paired with the Bell dictionary: in the
# action layout, operator(i, j, n) = operator(1, 1, n) @ kron(F[i], F[j]).
PAULI_FACTORS = {
    1: np.eye(2, dtype=np.complex128),
    2: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    3: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    4: np.array([[0, -1], [1, 0]], dtype=np.complex128),
}


# Bell outcome kets at [outcome - 1], the one array form of states._BELL_SIGNS
_BELL_KETS = np.array(
    [[signs.get(i, 0) for i in range(4)] for signs in _BELL_SIGNS.values()], dtype=complex
) / math.sqrt(2.0)
# conjugated Bell bras of both sender measurements, stacked as (64, 4) rows
# [i - 1, j - 1, unknown 1, unknown 2] by columns [channel 1, channel 2]
_BELL_PAIR_ROWS = (
    np.kron(_BELL_KETS, _BELL_KETS)
    .conj()
    .reshape(4, 4, 2, 2, 2, 2)  # [i, j, unknown 1, channel 1, unknown 2, channel 2]
    .transpose(0, 1, 2, 4, 3, 5)
    .reshape(64, 4)
)
# kron(F_i, F_j) as the 4-column block 4 * (i - 1) + (j - 1) of one (4, 64)
# table, the factors of the identity above side by side
_FACTOR_TABLE = np.hstack(
    [np.kron(f, g) for f, g in itertools.product(PAULI_FACTORS.values(), repeat=2)]
)


def _charlie_bras(theta: float) -> np.ndarray:
    """Charlie's basis as rows [outcome - 1]; real, so bra equals ket."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


@dataclass(frozen=True)
class RoleAssignment:
    """Which channel qubits Alice, Bob, and Charlie hold.

    Within-role order is significant: ``alice[0]`` is paired with the
    first unknown qubit, ``alice[1]`` with the second; ``bob`` orders the
    receiver pair.  Swapping within a role relabels operators but never
    changes a pass/fail verdict.
    """

    alice: tuple[int, int]
    bob: tuple[int, int]
    charlie: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))
        labels = [*self.alice, *self.bob, self.charlie]
        integers = all(type(q) is int for q in labels)  # no bool, float or numpy scalar
        if not integers or sorted(labels) != [1, 2, 3, 4, 5]:
            raise ValueError(
                f"roles must partition qubits 1..5, got alice={self.alice} "
                f"bob={self.bob} charlie={self.charlie}"
            )

    @cached_property
    def _gather(self) -> np.ndarray:
        """Read-only index table: ``amplitudes[self._gather]`` is a channel with
        its qubits in role order (alice 1, alice 2, bob 1, bob 2, charlie),
        the basis indices with their qubit axes transposed into that order."""
        order = [q - 1 for q in (*self.alice, *self.bob, self.charlie)]
        index = np.arange(32).reshape([2] * 5).transpose(order).reshape(-1)
        index.setflags(write=False)
        return index

    @cached_property
    def _oriented(self) -> RoleAssignment:
        """The assignment in its role class's orientation, lower-labelled pair
        first; swapping the pairs transposes the base operators."""
        if min(self.bob) < min(self.alice):
            return RoleAssignment(self.bob, self.alice, self.charlie)
        return self

    def as_dict(self) -> dict:
        return {
            "alice": list(self.alice),
            "bob": list(self.bob),
            "charlie": self.charlie,
        }


def _arranged(channel: PureState, assignment: RoleAssignment) -> np.ndarray:
    """Channel amplitudes with qubits running (alice 1, alice 2, bob 1, bob 2,
    charlie), read through the assignment's cached gather index."""
    _require_channel(channel)
    return channel.amplitudes[assignment._gather]


def _base_operators(arranged: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Base operators (both Bell outcomes 1) of a stack of arranged channels,
    as (n, m, 4, 4), transposed from the action layout: [alice pair, bob pair].

    G0/G1 at [k][b] are the Charlie components 0/1 of amplitude (k, b, .)
    in each 32-amplitude row.  ``weights`` holds n bras of Charlie's qubit
    as rows, (n, 2), or an (n, 2, m) stack, one set per arranged row; the
    result follows its rows, [charlie_outcome - 1] for ``_charlie_bras``.
    This is the one contraction of a channel's amplitudes.
    """
    g = arranged.reshape(-1, 4, 4, 2)
    w = weights.reshape(len(weights), 2, -1, 1, 1)
    return _SCALE * (w[:, 0] * g[..., 0] + w[:, 1] * g[..., 1])


def _outcome_operators(base: np.ndarray) -> np.ndarray:
    """All 32 outcome operators, action layout, as one contiguous (32, 4, 4)
    array at 8(i - 1) + 2(j - 1) + (n - 1): its (4, 4, 2, 4, 4) view is
    indexed [i - 1, j - 1, n - 1].

    ``base`` holds a setting's two base operators, (2, 4, 4) as
    ``_base_operators`` gives them.  The stacked Bell bras contract Alice's
    pair; the unknown-qubit indices stay open as columns, and the factor
    1 / (_PREFACTOR * _SCALE) = 2 rescales the base operators' projections.
    """
    projected = _BELL_PAIR_ROWS @ base  # [n, (i, j, unknown pair), bob]
    # [n, i, j, unknown pair, bob] -> [i, j, n, bob, unknown pair]
    table = projected.reshape(2, 4, 4, 4, 4).transpose(1, 2, 0, 4, 3)
    # 2 applied after the product: folded into the bras it would round
    # differently wherever a product is subnormal
    return np.multiply(2.0, table, order="C").reshape(32, 4, 4)


def _setting(channel: PureState, assignment: RoleAssignment, theta: float) -> tuple:
    """The channel's record (key, base operators, outcome operators) at
    (assignment, theta), both arrays read-only.

    The key is the assignment and theta's exact value, its sign included
    (-0.0 is not 0.0).  A miss builds the record whole and swaps it into
    the channel's holder, so a channel holds one setting, consecutive calls
    at it share its contraction, and each caller keeps the record it was
    handed.  A record only holds a finite theta and a unit-norm, five-qubit
    channel, which ``_charlie_bras`` and ``_arranged`` check on a miss.
    """
    key = (assignment, theta, math.copysign(1.0, theta))
    record = channel._setting[0]
    if record[0] != key:
        arranged = _arranged(channel, assignment)  # refuses a wrong channel first
        base = _base_operators(arranged, _charlie_bras(theta)).reshape(2, 4, 4)
        outcomes = _outcome_operators(base)
        base.setflags(write=False)
        outcomes.setflags(write=False)
        record = channel._setting[0] = key, base, outcomes
    return record


def transformation_operator(
    channel: PureState,
    assignment: RoleAssignment,
    bell_first: int,
    bell_second: int,
    charlie_outcome: int,
    theta: float,
) -> np.ndarray:
    """The 4x4 operator Bob's pair picks up for one measurement outcome.

    ``bell_first``/``bell_second`` are the Bell outcome indices of the
    two sender measurements, ``charlie_outcome`` selects Charlie's basis
    element.  Every outcome is built by projecting the measurement bras;
    the result is in the action layout, a fresh writable copy.
    """
    if not all(type(k) is int and 1 <= k <= 4 for k in (bell_first, bell_second)):
        raise ValueError("Bell outcome indices must be in 1..4")
    if type(charlie_outcome) is not int or charlie_outcome not in (1, 2):
        raise ValueError("Charlie outcome must be 1 or 2")
    _, _, operators = _setting(channel, assignment, theta)
    return operators[8 * (bell_first - 1) + 2 * (bell_second - 1) + charlie_outcome - 1].copy()


def _defects(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of M^dagger M - I for every matrix of an (n, d, d) stack.

    Rounds as np.linalg.norm of each gap, which sums the BLAS dots of the
    gap's strided real and imaginary views: np.vecdot of the same strided
    views calls that same dot, row by row, while contiguous copies, or one
    complex dot of the gap with itself, would round differently.
    """
    gap = (m.conj().transpose(0, 2, 1) @ m).reshape(len(m), -1)
    gap[:, :: m.shape[-1] + 1] -= 1.0  # the diagonal of each fresh product
    return np.sqrt(np.vecdot(gap.real, gap.real) + np.vecdot(gap.imag, gap.imag))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Frobenius norm of M^dagger M - I; zero exactly for unitary M.

    ``matrix`` must be 2-D and square; anything else raises ValueError.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity_defect needs a square 2-D matrix, got shape {m.shape}")
    return float(_defects(m[None])[0])


class CriterionReport(NamedTuple):
    """Faithfulness verdict for one channel, assignment, and angle."""

    assignment: RoleAssignment
    theta: float
    sigma111_defect: float
    sigma112_defect: float
    passed: bool
    purity_alice_pair: float
    purity_bob_pair: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "assignment": self.assignment.as_dict(),
            "theta": self.theta,
            "sigma111_defect": self.sigma111_defect,
            "sigma112_defect": self.sigma112_defect,
            "pass": self.passed,
            "purity_alice_pair": self.purity_alice_pair,
            "purity_bob_pair": self.purity_bob_pair,
        }


def criterion_check(
    channel: PureState,
    assignment: RoleAssignment,
    theta: float,
    tol: float = 1e-10,
) -> CriterionReport:
    """Faithful-for-every-input test: both base operators unitary within tol.

    Also reports the purities of the two held pairs; unitarity forces
    both to be exactly 1/4, so a purity away from 1/4 explains a FAIL.
    """
    _require_tol(tol)
    _, base, _ = _setting(channel, assignment, theta)
    # the role class's defects: a swapped orientation's operators are base.mT
    swapped = min(assignment.bob) < min(assignment.alice)  # as in RoleAssignment._oriented
    defect_1, defect_2 = _defects(base.mT if swapped else base).tolist()
    return CriterionReport(
        assignment,
        theta,
        defect_1,
        defect_2,
        defect_1 <= tol and defect_2 <= tol,
        _reduced_purity(channel, assignment.alice),
        _reduced_purity(channel, assignment.bob),
        tol,
    )


class FactorizationReport(NamedTuple):
    """Outcome of checking operator(i, j, n) == operator(1, 1, n) @ kron(F_i, F_j)."""

    holds: bool
    max_deviation: float


def pauli_factorization_check(
    channel: PureState,
    assignment: RoleAssignment,
    theta: float,
    tol: float = 1e-10,
) -> FactorizationReport:
    """Verify all 32 outcome operators factor through the two base ones.

    Compares the Bell projection of the base operators for every outcome,
    (1, 1, n) included, against the base operators times the local
    correction factors, entrywise, in the action layout.  One matrix
    product with ``_FACTOR_TABLE`` forms the base operators times all 16
    factors.  Holds identically for any channel; this check guards the
    Bell dictionary against the factor pairing.
    """
    _require_tol(tol)
    _, base, operators = _setting(channel, assignment, theta)
    # action layout [n, row, column] times the table: [n, row, i, j, column]
    product = (base.mT @ _FACTOR_TABLE).reshape(2, 4, 4, 4, 4)
    direct = operators.reshape(4, 4, 2, 4, 4)
    max_dev = float(np.abs(direct - product.transpose(2, 3, 0, 1, 4)).max())
    return FactorizationReport(max_dev <= tol, max_dev)


class TeleportationRecord(NamedTuple):
    """One measurement outcome of a full protocol run; an immutable tuple.

    ``bob_corrected`` is Bob's adjoint-corrected, normalized state, a
    read-only (4,) complex128 row; when the corrected residual vanishes the
    row stays zero, so its fidelity is 0.0.
    Records compare and hash by identity, since an array field has no
    single truth value.
    """

    outcome: tuple[int, int, int]
    probability: float
    bob_corrected: np.ndarray
    fidelity: float

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    __hash__ = object.__hash__

    def as_dict(self) -> dict:
        return {
            "outcome": list(self.outcome),
            "probability": self.probability,
            "fidelity": self.fidelity,
        }


# the 32 outcome labels (i, j, n) in record order
_OUTCOMES = tuple(itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2)))


def simulate(
    channel: PureState,
    assignment: RoleAssignment,
    theta: float,
    input_state: PureState,
) -> list[TeleportationRecord]:
    """Run the full protocol over all 32 measurement outcomes.

    Bob's unnormalized residual for outcome (i, j, n) is the outcome
    operator applied to the input coefficients, times the measurement
    prefactor; its squared norm is the outcome probability.  Bob's
    correction, the adjoint of the same operator, is then applied to the
    residual.  Records are ordered by (bell_first, bell_second,
    charlie_outcome).  Outcome probabilities always sum to 1; for a
    faithful channel every outcome has probability 1/32 and fidelity 1.
    """
    if input_state.num_qubits != 2:
        raise ValueError("the input must be a two-qubit state")
    x = input_state.amplitudes
    if _norm_drifts(np.vdot(x, x).real, STRICT_NORM_TOL):
        raise ValueError("the input state must be normalized")
    _, _, operators = _setting(channel, assignment, theta)
    residuals = _PREFACTOR * (operators.reshape(128, 4) @ x).reshape(32, 4)
    corrected = np.matvec(operators.conj().mT, residuals)
    re, im = corrected.real, corrected.imag
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]  # as np.linalg.norm forms it
    np.divide(corrected, norms, out=corrected, where=norms > 0.0)  # a zero row stays zero
    corrected.setflags(write=False)
    overlaps = np.vecdot(x, corrected)
    fidelities = overlaps.real**2 + overlaps.imag**2  # not np.abs: alike at every SIMD level
    probabilities = np.vecdot(residuals, residuals).real.tolist()
    rows = zip(_OUTCOMES, probabilities, corrected, fidelities.tolist())
    return list(map(tuple.__new__, itertools.repeat(TeleportationRecord), rows))
