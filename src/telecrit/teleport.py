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

Engine: a call re-arranges the channel once, through the gather index
cached on its ``RoleAssignment`` (the basis indices, qubit axes
transposed into role order, the one arrangement route; ``scan`` stacks
those of all 30 assignments), and builds Charlie's basis once, the
real weight array [[c, s], [s, -c]] both kernels take.
``_outcome_operators`` contracts the channel with it and the stacked
Bell bras of both sender pairs, giving all 32 operators at once;
``_base_operators`` sums the weights times the Charlie halves of a stack
of arranged channels, at a stack of angles.  The criterion, the angle
classifier and the scan use it with ``_defects``, the one implementation
of the unitarity defect, and ``pauli_factorization_check`` checks all 32
projected operators against it.  Each correction factor kron(F_i, F_j)
is a signed permutation, so the check forms base @ kron(F_i, F_j) as a
column gather times +-1 (``_FACTOR_COLUMNS``/``_FACTOR_SIGNS``, derived
from ``_FACTOR_KRON`` at import), the matrix product's values exactly.
These are the only two contractions of the channel.  The criterion's
pair purities come from the channel's purity memo (see entanglement).
``simulate`` reads Bob's residuals off the 32 operators and corrects
each with its operator's adjoint, Bob's one correction; the corrected
states are the rows of one read-only (32, 4) array, and each outcome is
a ``TeleportationRecord``, an immutable named tuple built straight from
its row that compares and hashes by identity.  The brute-force
simulation of the seven-qubit joint state, which checks these routes
independently, lives with the test oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .entanglement import _reduced_purity, _require_tol
from .states import PureState

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

# Bell outcome dictionary, binding across the package:
#   1: (|00> + |11>)/sqrt(2)    2: (|00> - |11>)/sqrt(2)
#   3: (|01> + |10>)/sqrt(2)    4: (|01> - |10>)/sqrt(2)
_BELL_AMPLITUDES = {
    1: np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2.0),
    2: np.array([1, 0, 0, -1], dtype=np.complex128) / math.sqrt(2.0),
    3: np.array([0, 1, 1, 0], dtype=np.complex128) / math.sqrt(2.0),
    4: np.array([0, 1, -1, 0], dtype=np.complex128) / math.sqrt(2.0),
}

# Local correction factors paired with the Bell dictionary above: in the
# action layout, operator(i, j, n) = operator(1, 1, n) @ kron(F[i], F[j]).
PAULI_FACTORS = {
    1: np.eye(2, dtype=np.complex128),
    2: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    3: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    4: np.array([[0, -1], [1, 0]], dtype=np.complex128),
}


# conjugated Bell bras of both sender measurements, stacked as (64, 4) rows
# [i - 1, j - 1, unknown 1, unknown 2] by columns [channel 1, channel 2]
_BELL_KETS = np.array(list(_BELL_AMPLITUDES.values()))
_BELL_PAIR_ROWS = (
    np.kron(_BELL_KETS, _BELL_KETS)
    .conj()
    .reshape(4, 4, 2, 2, 2, 2)  # [i, j, unknown 1, channel 1, unknown 2, channel 2]
    .transpose(0, 1, 2, 4, 3, 5)
    .reshape(64, 4)
)
# kron(F_i, F_j) at [i - 1, j - 1], the factors of the identity above
_FACTORS = np.array(list(PAULI_FACTORS.values()))
_FACTOR_KRON = np.kron(_FACTORS, _FACTORS).reshape(4, 4, 4, 4)


def _signed_columns(kron: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather table and signs of a stack of signed permutation matrices.

    ``columns[..., c]`` is the row of the one nonzero entry in column c
    and ``signs[..., c]`` its value (+1 or -1), so
    ``m @ kron[k] == m[..., columns[k]] * signs[k]``, exactly.
    """
    columns = np.argmax(np.abs(kron), axis=-2)
    signs = np.take_along_axis(kron.real, columns[..., None, :], axis=-2)[..., 0, :]
    return columns, signs


# _FACTOR_KRON as a column gather and signs, both [i - 1, j - 1, column]
_FACTOR_COLUMNS, _FACTOR_SIGNS = _signed_columns(_FACTOR_KRON)


def _charlie_bras(theta: float) -> np.ndarray:
    """Charlie's basis as rows [outcome - 1]; real, so bra equals ket."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


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
        """Read-only index table: ``amplitudes[self._gather]`` is a channel
        re-arranged as ``relabeling`` orders it, the basis indices with their
        qubit axes transposed into role order."""
        order = [q - 1 for q in (*self.alice, *self.bob, self.charlie)]
        index = np.arange(32).reshape([2] * 5).transpose(order).reshape(-1)
        index.setflags(write=False)
        return index

    def relabeling(self) -> dict[int, int]:
        """Old-label -> new-label map putting roles in canonical order."""
        return {
            self.alice[0]: 1,
            self.alice[1]: 2,
            self.bob[0]: 3,
            self.bob[1]: 4,
            self.charlie: 5,
        }

    def as_dict(self) -> dict:
        return {
            "alice": list(self.alice),
            "bob": list(self.bob),
            "charlie": self.charlie,
        }


def _require_channel(channel: PureState) -> None:
    if channel.num_qubits != 5:
        raise ValueError("the channel must be a five-qubit state")


def _arranged(channel: PureState, assignment: RoleAssignment) -> np.ndarray:
    """Channel amplitudes with qubits running (alice 1, alice 2, bob 1, bob 2,
    charlie), read through the assignment's cached gather index."""
    _require_channel(channel)
    return channel.amplitudes[assignment._gather]


def _base_operators(arranged: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Base operators (both Bell outcomes 1) of a stack of arranged channels,
    as (n, m, 4, 4), transposed from the action layout.

    G0/G1 at [k][b] are the Charlie components 0/1 of amplitude (k, b, .)
    in each 32-amplitude row.  ``weights`` holds n bras of Charlie's qubit
    as rows, (n, 2), or an (n, 2, m) stack, one set per arranged row; the
    result follows its rows, [charlie_outcome - 1] for ``_charlie_bras``.
    """
    g = arranged.reshape(-1, 4, 4, 2)
    w = weights.reshape(len(weights), 2, -1, 1, 1)
    return _SCALE * (w[:, 0] * g[..., 0] + w[:, 1] * g[..., 1])


def _outcome_operators(grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All 32 outcome operators, action layout, at [i - 1, j - 1, n - 1].

    ``grid`` holds the arranged channel's 32 amplitudes, in any shape.
    ``weights``, Charlie's bras, contract his qubit, then the stacked Bell
    bras contract Alice's pair; the unknown-qubit indices stay open as columns.
    """
    charlie = grid.reshape(16, 2) @ weights.T  # [alice bob, n]
    projected = _BELL_PAIR_ROWS @ charlie.reshape(4, 8)
    # [i, j, unknown pair, bob, n] -> [i, j, n, bob, unknown pair]
    return (1.0 / _PREFACTOR) * projected.reshape(4, 4, 4, 4, 2).transpose(0, 1, 4, 3, 2)


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
    the result is in the action layout.
    """
    if not all(type(k) is int and 1 <= k <= 4 for k in (bell_first, bell_second)):
        raise ValueError("Bell outcome indices must be in 1..4")
    if type(charlie_outcome) is not int or charlie_outcome not in (1, 2):
        raise ValueError("Charlie outcome must be 1 or 2")
    outcome = (bell_first - 1, bell_second - 1, charlie_outcome - 1)
    return _outcome_operators(_arranged(channel, assignment), _charlie_bras(theta))[outcome]


def _defects(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of M^dagger M - I for every matrix of an (n, d, d) stack.

    Rounds as np.linalg.norm of each gap, which sums the dots of the strided
    real and imaginary views; _row_dots of the same views calls the same
    strided BLAS dot, where contiguous copies would round differently.
    """
    gap = (m.conj().transpose(0, 2, 1) @ m).reshape(len(m), -1)
    gap[:, :: m.shape[-1] + 1] -= 1.0  # the diagonal of each fresh product
    return np.sqrt(_row_dots(gap.real, gap.real) + _row_dots(gap.imag, gap.imag))


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
    base = _base_operators(_arranged(channel, assignment), _charlie_bras(theta))
    defect_1, defect_2 = _defects(base.reshape(2, 4, 4)).tolist()
    return CriterionReport(
        assignment=assignment,
        theta=theta,
        sigma111_defect=defect_1,
        sigma112_defect=defect_2,
        passed=defect_1 <= tol and defect_2 <= tol,
        purity_alice_pair=_reduced_purity(channel, assignment.alice),
        purity_bob_pair=_reduced_purity(channel, assignment.bob),
        tol=tol,
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

    Compares the projection-built operator for every outcome, (1, 1, n)
    included, against the base operator read off the amplitudes times
    the local correction factors, entrywise, in the action layout.
    Each kron(F_i, F_j) is a signed permutation, so the product is a
    column gather times +-1, exactly the matrix product's values.
    Holds identically for any channel; this check guards the Bell
    dictionary and factor pairing.
    """
    _require_tol(tol)
    arranged = _arranged(channel, assignment)
    weights = _charlie_bras(theta)
    direct = _outcome_operators(arranged, weights)
    base = _base_operators(arranged, weights)
    # action layout [n, row, column], gathered to [n, row, i, j, column]
    product = base.reshape(2, 4, 4).transpose(0, 2, 1)[..., _FACTOR_COLUMNS] * _FACTOR_SIGNS
    max_dev = float(np.max(np.abs(direct - product.transpose(2, 3, 0, 1, 4))))
    return FactorizationReport(max_dev <= tol, max_dev)


class TeleportationRecord(NamedTuple):
    """One measurement outcome of a full protocol run; an immutable tuple.

    ``bob_corrected`` is Bob's adjoint-corrected, normalized state, a
    read-only (4,) complex128 row (zero when the corrected residual vanishes).
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


# <a_k|b_k> over the last axis; stacked (1, m) @ (m, 1) products round like
# np.vdot of each pair, so reported numbers keep their last digits
def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


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
    if abs(input_state.norm**2 - 1.0) > 1e-6:
        raise ValueError("the input state must be normalized")
    grid = _arranged(channel, assignment)
    operators = _outcome_operators(grid, _charlie_bras(theta)).reshape(32, 4, 4)
    residuals = _PREFACTOR * (operators @ input_state.amplitudes)
    corrected = (operators.conj().transpose(0, 2, 1) @ residuals[..., None])[..., 0]
    re, im = corrected.real, corrected.imag
    norms = np.sqrt(_row_dots(re, re) + _row_dots(im, im))  # as np.linalg.norm forms it
    live = norms > 0.0
    corrected /= np.where(live, norms, 1.0)[:, None]
    corrected.setflags(write=False)
    fidelities = np.where(live, np.abs(_row_dots(input_state.amplitudes, corrected)) ** 2, 0.0)
    probabilities = _row_dots(residuals, residuals).real.tolist()
    outcomes = itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2))
    rows = zip(outcomes, probabilities, corrected, fidelities.tolist())
    return list(map(tuple.__new__, itertools.repeat(TeleportationRecord), rows))
