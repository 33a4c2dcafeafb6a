"""Certify faithful controlled teleportation through five-qubit channels.

A five-qubit entangled channel shared by a sender (two qubits), a
receiver (two qubits), and a controller (one qubit) can teleport an
arbitrary two-qubit state exactly when the two base transformation
operators induced on the receiver's pair are unitary.  This package
extracts those operators for any channel, role assignment, and
controller basis angle, tests the criterion, relates it to reduction
purities, and runs the protocol over all 32 measurement outcomes.
"""

from . import angles, entanglement, states, teleport
from .angles import *
from .entanglement import *
from .states import *
from .teleport import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *states.__all__,
    *entanglement.__all__,
    *teleport.__all__,
    *angles.__all__,
]
