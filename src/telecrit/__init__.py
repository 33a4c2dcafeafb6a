"""Certify faithful controlled teleportation through five-qubit channels.

A five-qubit entangled channel shared by a sender (two qubits), a
receiver (two qubits), and a controller (one qubit) can teleport an
arbitrary two-qubit state exactly when the two base transformation
operators induced on the receiver's pair are unitary.  This package
extracts those operators for any channel, role assignment, and
controller basis angle, tests the criterion, relates it to reduction
purities, and runs the protocol over all 32 measurement outcomes.

``import telecrit`` loads ``states`` and ``entanglement``.  ``teleport``
and ``angles`` load on first use of any of their names, or of
``telecrit.teleport`` / ``telecrit.angles`` (PEP 562): the module is
imported once and all its public names are bound here, so later lookups
are plain attribute reads.
"""

from . import entanglement, states
from .entanglement import *
from .states import *

__version__ = "0.1.0"

# the public names of each module that loads on first use, as in its __all__
_DEFERRED = {
    "teleport": (
        "PAULI_FACTORS", "RoleAssignment", "CriterionReport", "FactorizationReport",
        "TeleportationRecord", "transformation_operator", "unitarity_defect",
        "criterion_check", "pauli_factorization_check", "simulate",
    ),
    "angles": (
        "KIND_ALL", "KIND_DISCRETE", "KIND_NONE", "ThetaClassification", "ScanEntry",
        "ScanReport", "enumerate_assignments", "classify_theta", "scan",
    ),
}

__all__ = [
    "__version__",
    *states.__all__,
    *entanglement.__all__,
    *_DEFERRED["teleport"],
    *_DEFERRED["angles"],
]


def __getattr__(name: str):
    import importlib

    for module_name, names in _DEFERRED.items():
        if name == module_name or name in names:
            module = importlib.import_module(f"{__name__}.{module_name}")
            globals().update({n: getattr(module, n) for n in names})
            return globals()[name]  # the import bound the module itself
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_DEFERRED})
