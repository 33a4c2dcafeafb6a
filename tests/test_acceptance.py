"""Acceptance gate: every release criterion at its stated tolerance.

One criterion per test-name prefix (c01..c10); the conftest summary hook
prints a PASS/FAIL line per criterion after the run.  Criterion 04
contains one clause that is mathematically unattainable; it stays here
as a strict xfail rather than being weakened, and a companion test pins
the true behavior.  All other criteria must be green.
"""

import math

import numpy as np
import pytest

from outcome_oracle import purity_expansion
from telecrit import (
    FIVE_QUBIT_CATALOG,
    KIND_ALL,
    KIND_DISCRETE,
    KIND_NONE,
    RoleAssignment,
    classify_theta,
    criterion_check,
    enumerate_assignments,
    make_state,
    named_state,
    partial_trace,
    pauli_factorization_check,
    purity,
    purity_summary,
    simulate,
    transformation_operator,
)

PI = math.pi
ASSIGN_FIXED = RoleAssignment((1, 2), (3, 4), 5)        # (12|34|5)
ASSIGN_INTERLEAVED = RoleAssignment((1, 3), (2, 4), 5)  # (13|24|5)
ASSIGN_NESTED = RoleAssignment((1, 4), (2, 3), 5)       # (14|23|5)


def _random_channel(rng):
    vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    return make_state(5, vec)


def _random_input(rng):
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return make_state(2, vec / np.linalg.norm(vec))


def test_c01_man_state_purity_table():
    man = named_state("man_m5")
    doc = purity_summary(man)
    half_pairs = ("13", "24")
    for pair, value in doc["pairs"].items():
        expected = 0.5 if pair in half_pairs else 0.25
        assert abs(value - expected) < 1e-12, pair
    assert doc["mmes"] is False
    assert abs(doc["max_deviation"] - 0.25) < 1e-12


def test_c02_brown_state_purity_table():
    brown = named_state("brown")
    doc = purity_summary(brown)
    for pair, value in doc["pairs"].items():
        assert abs(value - 0.25) < 1e-12, pair
    assert doc["mmes"] is True


# tableau rows of the two base operators for the brown channel, as
# functions of c = cos(theta), s = sin(theta)
def _golden_tableau(alice, outcome, c, s):
    table = {
        ((1, 2), 1): [[0, 0, s, -c], [c, -s, 0, 0], [s, c, 0, 0], [0, 0, c, s]],
        ((1, 2), 2): [[0, 0, -c, -s], [s, c, 0, 0], [-c, s, 0, 0], [0, 0, s, -c]],
        ((1, 3), 1): [[0, 0, c, -s], [s, -c, 0, 0], [s, c, 0, 0], [0, 0, c, s]],
        ((1, 3), 2): [[0, 0, s, c], [-c, -s, 0, 0], [-c, s, 0, 0], [0, 0, s, -c]],
        ((1, 4), 1): [[0, s, c, 0], [0, -c, -s, 0], [s, 0, 0, c], [c, 0, 0, s]],
        ((1, 4), 2): [[0, -c, s, 0], [0, -s, c, 0], [-c, 0, 0, s], [s, 0, 0, -c]],
    }
    return np.array(table[(alice, outcome)], dtype=float)


@pytest.mark.parametrize("theta", [0.0, PI / 6, PI / 4, PI / 2])
@pytest.mark.parametrize(
    "assignment",
    [ASSIGN_FIXED, ASSIGN_INTERLEAVED, ASSIGN_NESTED],
    ids=["fixed", "interleaved", "nested"],
)
def test_c03_golden_operator_matrices(assignment, theta):
    brown = named_state("brown")
    c, s = math.cos(theta), math.sin(theta)
    for outcome in (1, 2):
        got = transformation_operator(brown, assignment, 1, 1, outcome, theta).T
        want = _golden_tableau(assignment.alice, outcome, c, s)
        assert np.max(np.abs(got - want)) < 1e-12


def test_c04_fixed_pairs_all_angles():
    brown = named_state("brown")
    cls = classify_theta(brown, ASSIGN_FIXED)
    assert cls.kind == KIND_ALL
    # an all_theta assignment passes the criterion at arbitrary angles
    rng = np.random.default_rng(404)
    for theta in rng.uniform(0.0, PI, size=20):
        assert criterion_check(brown, ASSIGN_FIXED, float(theta)).passed is True


def test_c04_nested_pairs_discrete_roots():
    brown = named_state("brown")
    cls = classify_theta(brown, ASSIGN_NESTED)
    assert cls.kind == KIND_DISCRETE
    assert len(cls.roots) == 2
    assert abs(cls.roots[0] - 0.0) <= 1e-9
    assert abs(cls.roots[1] - PI / 2) <= 1e-9
    for root in cls.roots:
        report = criterion_check(brown, ASSIGN_NESTED, root)
        assert max(report.sigma111_defect, report.sigma112_defect) <= 1e-10
    for midpoint in (PI / 4, 3 * PI / 4):
        report = criterion_check(brown, ASSIGN_NESTED, midpoint)
        assert max(report.sigma111_defect, report.sigma112_defect) > 0.1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable clause: the tabulated base operators for this pairing "
        "are singular at theta = 0 (defect exactly 2), so no all-angle "
        "classification exists; the companion test pins the true working "
        "angles pi/4 and 3pi/4"
    ),
)
def test_c04_interleaved_pairs_all_angles():
    brown = named_state("brown")
    cls = classify_theta(brown, ASSIGN_INTERLEAVED)
    assert cls.kind == KIND_ALL


def test_c04_interleaved_pairs_true_roots():
    brown = named_state("brown")
    cls = classify_theta(brown, ASSIGN_INTERLEAVED)
    assert cls.kind == KIND_DISCRETE
    assert len(cls.roots) == 2
    assert abs(cls.roots[0] - PI / 4) <= 1e-9
    assert abs(cls.roots[1] - 3 * PI / 4) <= 1e-9
    for root in cls.roots:
        report = criterion_check(brown, ASSIGN_INTERLEAVED, root)
        assert max(report.sigma111_defect, report.sigma112_defect) <= 1e-10
    for midpoint in (0.0, PI / 2):
        report = criterion_check(brown, ASSIGN_INTERLEAVED, midpoint)
        assert max(report.sigma111_defect, report.sigma112_defect) > 0.1
    # protocol-level cross-check, independent of the operator route
    probe = make_state(2, [0.5, 0.5j, 0.5, -0.5j])
    at_root = simulate(brown, ASSIGN_INTERLEAVED, PI / 4, probe)
    assert min(r.fidelity for r in at_root) > 1.0 - 1e-10
    off_root = simulate(brown, ASSIGN_INTERLEAVED, 0.0, probe)
    assert min(r.fidelity for r in off_root) < 0.9


def test_c05_faithful_protocol_round_trip():
    brown = named_state("brown")
    rng = np.random.default_rng(505)
    for _ in range(50):
        records = simulate(brown, ASSIGN_FIXED, 0.7, _random_input(rng))
        assert len(records) == 32
        for record in records:
            assert abs(record.probability - 1.0 / 32.0) <= 1e-10
            assert abs(record.fidelity - 1.0) <= 1e-10


def test_c06_operator_factorization_identity():
    rng = np.random.default_rng(606)
    for _ in range(100):
        channel = _random_channel(rng)
        report = pauli_factorization_check(channel, ASSIGN_FIXED, 0.3, tol=1e-10)
        assert report.holds is True
        assert report.max_deviation <= 1e-10


def test_c07_purity_expansion_oracle():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        state = _random_channel(rng)
        direct = purity(partial_trace(state, (1, 2)))
        assert abs(purity_expansion(state) - direct) <= 1e-12


def test_c08_pass_implies_quarter_purity():
    passes = 0
    for name in FIVE_QUBIT_CATALOG:
        channel = named_state(name)
        for assignment in enumerate_assignments():
            for theta in (0.0, 0.3, PI / 4):
                report = criterion_check(channel, assignment, theta)
                if report.passed:
                    passes += 1
                    assert abs(report.purity_alice_pair - 0.25) <= 1e-9
                    assert abs(report.purity_bob_pair - 0.25) <= 1e-9
    assert passes > 0  # the property is exercised, not vacuous


def test_c09_man_state_criterion_failure():
    man = named_state("man_m5")
    for assignment in (
        RoleAssignment((1, 3), (2, 4), 5),
        RoleAssignment((2, 4), (1, 3), 5),
    ):
        for k in range(25):
            theta = k * PI / 24.0
            assert criterion_check(man, assignment, theta).passed is False
        assert classify_theta(man, assignment).kind == KIND_NONE


def test_c10_outcome_probability_completeness():
    rng = np.random.default_rng(1010)
    probe = make_state(2, [0.5, -0.5, 0.5j, 0.5j])
    channels = [_random_channel(rng) for _ in range(5)]
    channels += [named_state("ghz5"), named_state("product_zero_n"), named_state("man_m5")]
    for channel in channels:
        records = simulate(channel, ASSIGN_INTERLEAVED, 0.37, probe)
        total = sum(record.probability for record in records)
        assert abs(total - 1.0) <= 1e-12
