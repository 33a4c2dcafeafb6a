"""Shared fixtures and the acceptance-suite summary hook."""

import numpy as np
import pytest

from telecrit import RoleAssignment, make_state, named_state


@pytest.fixture(scope="session")
def brown():
    return named_state("brown")


@pytest.fixture(scope="session")
def man():
    return named_state("man_m5")


@pytest.fixture(scope="session")
def ghz5():
    return named_state("ghz5")


@pytest.fixture(scope="session")
def assign_12():
    return RoleAssignment((1, 2), (3, 4), 5)


@pytest.fixture(scope="session")
def assign_13():
    return RoleAssignment((1, 3), (2, 4), 5)


@pytest.fixture(scope="session")
def assign_14():
    return RoleAssignment((1, 4), (2, 3), 5)


def random_channel(rng):
    """Dense random five-qubit state, complex Gaussian amplitudes."""
    vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    return make_state(5, vec)


def lu_rotated(channel, rng):
    """``channel`` under a random local unitary, one Haar qubit gate per qubit."""
    unitary = np.ones((1, 1))
    for _ in range(channel.num_qubits):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        unitary = np.kron(unitary, q * (np.diag(r) / np.abs(np.diag(r))))
    return make_state(channel.num_qubits, unitary @ channel.amplitudes)


def sparse_channel(rng):
    """Five-qubit state of 2 to 16 amplitudes +-1 at random places, the rest 0."""
    amplitudes = np.zeros(32)
    k = int(rng.integers(2, 17))
    amplitudes[rng.choice(32, size=k, replace=False)] = rng.choice([-1, 1], size=k)
    return make_state(5, amplitudes)


def random_input(rng):
    """Random normalized two-qubit input state."""
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return make_state(2, vec / np.linalg.norm(vec))


# one summary line per acceptance criterion; the label maps to the
# test-name prefix used in tests/test_acceptance.py
_CRITERIA = (
    ("01 man-state purity table", "test_c01_"),
    ("02 brown-state purity table", "test_c02_"),
    ("03 golden operator matrices", "test_c03_"),
    ("04 theta classification", "test_c04_"),
    ("05 faithful protocol round trip", "test_c05_"),
    ("06 operator factorization identity", "test_c06_"),
    ("07 purity expansion oracle", "test_c07_"),
    ("08 pass implies pair purity 1/4", "test_c08_"),
    ("09 man-state criterion failure", "test_c09_"),
    ("10 outcome probability completeness", "test_c10_"),
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error", "xfailed", "xpassed"):
        for report in terminalreporter.stats.get(key, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid:
                outcomes[nodeid] = key
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, prefix in _CRITERIA:
        hits = [key for nodeid, key in outcomes.items() if prefix in nodeid]
        if not hits:
            continue
        if all(key == "passed" for key in hits):
            verdict = "PASS"
        elif all(key in ("passed", "xfailed") for key in hits):
            # an asserted-but-unattainable clause, kept visible as xfail
            verdict = "FAIL (expected: unattainable clause, see xfail reason)"
        else:
            verdict = "FAIL"
        terminalreporter.write_line(f"  {label:<40} {verdict}")
