"""Certify faithful controlled teleportation through five-qubit channels.

A five-qubit entangled channel shared by a sender (two qubits), a
receiver (two qubits), and a controller (one qubit) can teleport an
arbitrary two-qubit state exactly when the two base transformation
operators induced on the receiver's pair are unitary.  This package
extracts those operators for any channel, role assignment, and
controller basis angle, tests the criterion, relates it to reduction
purities, and verifies everything by brute-force protocol simulation.
"""

from .entanglement import (
    DensityMatrix,
    MmesVerdict,
    PAIR_PURITY_TARGET,
    PurityReport,
    mmes_check,
    partial_trace,
    purity,
    purity_expansion,
    purity_summary,
    purity_table,
)
from .angles import (
    KIND_ALL,
    KIND_DISCRETE,
    KIND_NONE,
    ScanEntry,
    ScanReport,
    ThetaClassification,
    classify_theta,
    enumerate_assignments,
    optimal_theta,
    scan,
)
from .states import (
    CATALOG_NAMES,
    FIVE_QUBIT_CATALOG,
    PureState,
    StateFileError,
    inner_product,
    load_state_file,
    make_state,
    named_state,
    permute_qubits,
    project_subsystem,
    save_state_json,
    save_state_text,
    tensor,
)
from .teleport import (
    LAYOUT_ACTION,
    LAYOUT_TABLEAU,
    PAULI_FACTORS,
    CriterionReport,
    FactorizationReport,
    RoleAssignment,
    TeleportationRecord,
    TransformationOperator,
    UnitarityVerdict,
    bell_state,
    charlie_state,
    criterion_check,
    is_unitary,
    pauli_factorization_check,
    simulate,
    transformation_operator,
    unitarity_defect,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "PureState",
    "StateFileError",
    "CATALOG_NAMES",
    "FIVE_QUBIT_CATALOG",
    "make_state",
    "named_state",
    "tensor",
    "permute_qubits",
    "inner_product",
    "project_subsystem",
    "load_state_file",
    "save_state_json",
    "save_state_text",
    # entanglement
    "DensityMatrix",
    "PurityReport",
    "MmesVerdict",
    "PAIR_PURITY_TARGET",
    "partial_trace",
    "purity",
    "purity_table",
    "purity_expansion",
    "mmes_check",
    "purity_summary",
    # teleport
    "LAYOUT_ACTION",
    "LAYOUT_TABLEAU",
    "PAULI_FACTORS",
    "RoleAssignment",
    "TransformationOperator",
    "UnitarityVerdict",
    "CriterionReport",
    "FactorizationReport",
    "TeleportationRecord",
    "bell_state",
    "charlie_state",
    "transformation_operator",
    "unitarity_defect",
    "is_unitary",
    "criterion_check",
    "pauli_factorization_check",
    "simulate",
    # angles
    "KIND_ALL",
    "KIND_DISCRETE",
    "KIND_NONE",
    "ThetaClassification",
    "ScanEntry",
    "ScanReport",
    "enumerate_assignments",
    "classify_theta",
    "optimal_theta",
    "scan",
]
