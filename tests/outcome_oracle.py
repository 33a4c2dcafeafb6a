"""Per-outcome operator and protocol code, kept as a test-only oracle.

This is the code the batched contraction engine in ``telecrit.teleport``
replaced: every outcome operator is rebuilt from the channel on its own
(the base ones by amplitude slicing, the rest by an einsum projection),
the factorization check makes 34 such calls, and ``simulate`` projects
the seven-qubit joint state once per outcome, so its residuals never
come from the outcome operators.  The state primitives it is built from
(Bell and Charlie states, qubit relabeling, subsystem projection) and
the closed-form purity expansion live here too: nothing in the library
uses them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import combinations

import numpy as np

from telecrit.states import PureState, tensor
from telecrit.teleport import (
    _BELL_KETS,
    _PREFACTOR,
    PAULI_FACTORS,
    FactorizationReport,
    RoleAssignment,
    TeleportationRecord,
    _arranged,
    _base_operators,
    _charlie_bras,
)


def bell_state(index: int) -> PureState:
    """Two-qubit Bell state for an outcome index, per the library's dictionary.

    Qubit 1 is the measured unknown-state qubit, qubit 2 the channel
    qubit it is paired with; the order matters only for index 4.
    """
    if index not in (1, 2, 3, 4):
        raise ValueError(f"Bell outcome index must be 1..4, got {index}")
    return PureState(2, _BELL_KETS[index - 1])


def charlie_state(theta: float, outcome: int) -> PureState:
    """Element of Charlie's rotated measurement basis.

    Outcome 1 is cos(theta)|0> + sin(theta)|1>, outcome 2 the orthogonal
    sin(theta)|0> - cos(theta)|1>.  Only real angles are supported.
    """
    if outcome not in (1, 2):
        raise ValueError(f"Charlie outcome must be 1 or 2, got {outcome}")
    return PureState(1, _charlie_bras(theta)[outcome - 1])


def relabeling(assignment: RoleAssignment) -> dict[int, int]:
    """Old-label -> new-label map putting an assignment's roles in canonical
    order (alice 1, alice 2, bob 1, bob 2, charlie); with ``permute_qubits``
    it arranges a channel as the library's gather index does."""
    return {
        assignment.alice[0]: 1,
        assignment.alice[1]: 2,
        assignment.bob[0]: 3,
        assignment.bob[1]: 4,
        assignment.charlie: 5,
    }


def permute_qubits(s: PureState, perm: Mapping[int, int]) -> PureState:
    """Relabel qubits: the bit of old qubit q moves to new label perm[q].

    ``perm`` must be a bijection on 1..n.  The amplitude at the
    bit-permuted index equals the original amplitude.
    """
    n = s.num_qubits
    if sorted(perm.keys()) != list(range(1, n + 1)) or sorted(
        perm.values()
    ) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a bijection on 1..{n}, got {dict(perm)!r}")
    # new tensor axis (new - 1) is fed from old axis (old - 1)
    axes = [0] * n
    for old, new in perm.items():
        axes[new - 1] = old - 1
    shuffled = s.amplitudes.reshape([2] * n).transpose(axes)
    return PureState(n, shuffled.reshape(-1))


def project_subsystem(
    s: PureState, bra: PureState, labels: Sequence[int]
) -> PureState:
    """Apply <bra| on the given qubit labels of s; return the residual.

    ``labels[t]`` is the qubit of ``s`` measured by qubit t+1 of ``bra``;
    the residual lives on the remaining qubits in ascending label order
    and is *not* normalized: its squared norm is the probability of the
    outcome ``bra``.  ``bra`` is assumed normalized.
    """
    n, m = s.num_qubits, bra.num_qubits
    labels = list(labels)
    if len(labels) != m:
        raise ValueError(f"bra covers {m} qubits but {len(labels)} labels given")
    if len(set(labels)) != m or not all(1 <= q <= n for q in labels):
        raise ValueError(f"labels must be distinct and within 1..{n}")
    if m >= n:
        raise ValueError("bra must leave at least one unmeasured qubit")
    keep = [q for q in range(1, n + 1) if q not in set(labels)]
    axes = [q - 1 for q in labels] + [q - 1 for q in keep]
    grid = s.amplitudes.reshape([2] * n).transpose(axes).reshape(2**m, -1)
    return PureState(n - m, bra.amplitudes.conj() @ grid)


def purity_expansion(s: PureState) -> float:
    """Purity of the {1, 2} pair by the closed-form amplitude expansion.

    Groups the 32 amplitudes into four rows of eight by the first two
    bits; the purity is the sum of the squared row norms plus twice the
    squared magnitude of each of the six pairwise row overlaps.  This is
    an independent cross-check of the partial-trace route and never
    builds a density matrix.
    """
    if s.num_qubits != 5:
        raise ValueError("purity_expansion is defined for five-qubit states")
    rows = s.amplitudes.reshape(4, 8)
    total = 0.0
    for r in range(4):
        total += float(np.vdot(rows[r], rows[r]).real) ** 2
    for r, t in combinations(range(4), 2):
        overlap = complex(np.dot(rows[r], rows[t].conj()))
        total += 2.0 * abs(overlap) ** 2
    return total


def _projected_tableau(
    grid: np.ndarray,
    bell_first: int,
    bell_second: int,
    charlie_outcome: int,
    theta: float,
) -> np.ndarray:
    """General operator by direct projection of the measurement bras.

    Contracts the conjugated Bell amplitudes of both sender pairs and
    Charlie's basis vector against the channel tensor; equals the base
    operator times local factors, which pauli_factorization_check
    verifies rather than assumes.
    """
    first = _BELL_KETS[bell_first - 1].reshape(2, 2).conj()
    second = _BELL_KETS[bell_second - 1].reshape(2, 2).conj()
    basis = charlie_state(theta, charlie_outcome).amplitudes.conj()
    contracted = np.einsum("ka,lb,c,abmnc->klmn", first, second, basis, grid)
    return (1.0 / _PREFACTOR) * contracted.reshape(4, 4)


def transformation_operator(
    channel: PureState,
    assignment,
    bell_first: int,
    bell_second: int,
    charlie_outcome: int,
    theta: float,
) -> np.ndarray:
    """The 4x4 operator Bob's pair picks up for one measurement outcome.

    ``bell_first``/``bell_second`` are the Bell outcome indices of the
    two sender measurements, ``charlie_outcome`` selects Charlie's basis
    element.  The base outcome (1, 1, n) is assembled directly from the
    channel amplitudes; other outcomes are built by projecting the
    measurement bras.
    """
    if bell_first not in (1, 2, 3, 4) or bell_second not in (1, 2, 3, 4):
        raise ValueError("Bell outcome indices must be in 1..4")
    if charlie_outcome not in (1, 2):
        raise ValueError("Charlie outcome must be 1 or 2")
    grid = _arranged(channel, assignment).reshape([2] * 5)
    if (bell_first, bell_second) == (1, 1):
        tableau = _base_operators(grid, _charlie_bras(theta))[charlie_outcome - 1]
    else:
        tableau = _projected_tableau(
            grid, bell_first, bell_second, charlie_outcome, theta
        )
    return tableau.T  # action layout


def pauli_factorization_check(
    channel: PureState,
    assignment,
    theta: float,
    tol: float = 1e-10,
) -> FactorizationReport:
    """Verify all 32 outcome operators factor through the two base ones.

    Compares the projection-built operator for every outcome against the
    base operator times the local correction factors, entrywise, in the
    action layout.  Holds identically for any channel; this check guards
    the Bell dictionary and factor pairing.
    """
    max_dev = 0.0
    for charlie_outcome in (1, 2):
        base = transformation_operator(
            channel, assignment, 1, 1, charlie_outcome, theta
        )
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                direct = transformation_operator(
                    channel, assignment, i, j, charlie_outcome, theta
                )
                product = base @ np.kron(PAULI_FACTORS[i], PAULI_FACTORS[j])
                max_dev = max(max_dev, float(np.max(np.abs(direct - product))))
    return FactorizationReport(max_dev <= tol, max_dev)


def simulate(
    channel: PureState,
    assignment,
    theta: float,
    input_state: PureState,
) -> list[TeleportationRecord]:
    """Brute-force the full protocol over all 32 measurement outcomes.

    Builds the seven-qubit joint state, projects every combination of
    the two Bell outcomes and Charlie's outcome, and applies Bob's
    correction, the adjoint of the outcome operator (the base-operator
    route), to his residual.  Records are ordered by (bell_first,
    bell_second, charlie_outcome).
    """
    if input_state.num_qubits != 2:
        raise ValueError("the input must be a two-qubit state")
    if abs(input_state.norm**2 - 1.0) > 1e-6:
        raise ValueError("the input state must be normalized")
    arranged = PureState(5, _arranged(channel, assignment))
    # joint qubits: 1-2 unknown pair, 3-4 Alice's channel pair,
    # 5-6 Bob's pair, 7 Charlie
    joint = tensor(input_state, arranged)
    records = []
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            bell_bras = tensor(bell_state(i), bell_state(j))
            for n in (1, 2):
                bra = tensor(bell_bras, charlie_state(theta, n))
                residual = project_subsystem(joint, bra, (1, 3, 2, 4, 7))
                probability = float(np.vdot(residual.amplitudes, residual.amplitudes).real)
                matrix = transformation_operator(channel, assignment, i, j, n, theta)
                corrected = matrix.conj().T @ residual.amplitudes
                norm = float(np.linalg.norm(corrected))
                if norm > 0.0:
                    corrected = corrected / norm
                bob = PureState(2, corrected)
                fidelity = (
                    abs(complex(np.vdot(input_state.amplitudes, bob.amplitudes))) ** 2
                    if norm > 0.0
                    else 0.0
                )
                records.append(
                    TeleportationRecord(
                        outcome=(i, j, n),
                        probability=probability,
                        bob_corrected=bob.amplitudes,
                        fidelity=fidelity,
                    )
                )
    return records
