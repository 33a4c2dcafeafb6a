"""Transformation operators, the unitarity criterion, protocol simulation."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import angles_oracle
import fingerprint
import telecrit
import telecrit.angles as angles
from conftest import kernel_outcomes, random_channel, random_input
from outcome_oracle import (
    bell_state,
    charlie_state,
    permute_qubits,
    project_subsystem,
    relabeling,
)
from telecrit import (
    PAULI_FACTORS,
    PureState,
    RoleAssignment,
    TeleportationRecord,
    criterion_check,
    enumerate_assignments,
    make_state,
    named_state,
    pauli_factorization_check,
    simulate,
    transformation_operator,
    unitarity_defect,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)


def test_bell_state_dictionary():
    expected = {
        1: [ROOT_HALF, 0, 0, ROOT_HALF],
        2: [ROOT_HALF, 0, 0, -ROOT_HALF],
        3: [0, ROOT_HALF, ROOT_HALF, 0],
        4: [0, ROOT_HALF, -ROOT_HALF, 0],
    }
    for index, amps in expected.items():
        assert np.max(np.abs(bell_state(index).amplitudes - np.array(amps))) < 1e-15
    with pytest.raises(ValueError):
        bell_state(0)
    with pytest.raises(ValueError):
        bell_state(5)


def test_charlie_basis_is_orthonormal():
    for theta in (0.0, 0.3, math.pi / 4, 2.0):
        one = charlie_state(theta, 1).amplitudes
        two = charlie_state(theta, 2).amplitudes
        assert abs(np.vdot(one, one) - 1.0) < 1e-15
        assert abs(np.vdot(two, two) - 1.0) < 1e-15
        assert abs(np.vdot(one, two)) < 1e-15
    assert np.max(np.abs(charlie_state(0.0, 1).amplitudes - [1, 0])) < 1e-15
    assert np.max(np.abs(charlie_state(0.0, 2).amplitudes - [0, -1])) < 1e-15
    with pytest.raises(ValueError):
        charlie_state(0.0, 3)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected(brown, assign_12, theta):
    input_state = make_state(2, [1, 0, 0, 0])
    calls = [
        lambda: charlie_state(theta, 1),
        lambda: transformation_operator(brown, assign_12, 2, 3, 1, theta),
        lambda: criterion_check(brown, assign_12, theta),
        lambda: pauli_factorization_check(brown, assign_12, theta),
        lambda: simulate(brown, assign_12, theta, input_state),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="theta must be finite"):
            call()


def test_role_assignment_validation():
    with pytest.raises(ValueError, match="partition"):
        RoleAssignment((1, 2), (3, 4), 4)
    with pytest.raises(ValueError, match="partition"):
        RoleAssignment((1, 1), (3, 4), 5)
    with pytest.raises(ValueError, match="partition"):
        RoleAssignment((0, 2), (3, 4), 5)
    asg = RoleAssignment((2, 4), (5, 1), 3)
    assert relabeling(asg) == {2: 1, 4: 2, 5: 3, 1: 4, 3: 5}
    assert asg.as_dict() == {"alice": [2, 4], "bob": [5, 1], "charlie": 3}


def test_role_assignment_refuses_non_integer_labels():
    # True == 1 and 1.0 == 1, so a plain partition test would take both
    for alice in ((True, 2), (1.0, 2)):
        with pytest.raises(ValueError, match=r"roles must partition qubits 1\.\.5"):
            RoleAssignment(alice, (3, 4), 5)
    for charlie in (5.0, np.int64(5)):
        with pytest.raises(ValueError, match="partition"):
            RoleAssignment((1, 2), (3, 4), charlie)


def test_gather_index_is_the_permute_qubits_arrangement():
    # the basis indices, re-arranged by permute_qubits, for every ordered
    # role assignment, reversed within-role orders included
    basis = PureState(5, np.arange(32))
    for order in itertools.permutations(range(1, 6)):
        assignment = RoleAssignment(order[:2], order[2:4], order[4])
        want = permute_qubits(basis, relabeling(assignment)).amplitudes.real
        gather = assignment._gather
        assert gather.dtype == np.intp and not gather.flags.writeable
        assert np.array_equal(gather, want.astype(np.intp))
        assert assignment._gather is gather  # cached on the assignment
        # its role class's orientation swaps the pairs when Bob's holds the
        # lower label; the loop checks that assignment's gather as well
        oriented = assignment._oriented
        assert oriented == angles_oracle.class_orientation(assignment)
        assert assignment._oriented is oriented  # cached on the assignment
    # scan arranges through the same caches, one distinct row per role
    # class, and hands each assignment its class's row
    assert angles._GATHER.shape == (15, 32)
    assert len({row.tobytes() for row in angles._GATHER}) == 15
    assert sorted(set(angles._CLASS_OF)) == list(range(15))
    for assignment, k in zip(angles._ASSIGNMENTS, angles._CLASS_OF, strict=True):
        assert np.array_equal(angles._GATHER[k], assignment._oriented._gather)


def test_base_operator_golden_entries(brown, assign_12, assign_13, assign_14):
    got = transformation_operator(brown, assign_12, 1, 1, 1, 0.0).T
    want = np.array([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert np.max(np.abs(got - want)) < 1e-12

    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    got = transformation_operator(brown, assign_13, 1, 1, 1, math.pi / 6).T
    want = np.array([[0, 0, c, -s], [s, -c, 0, 0], [s, c, 0, 0], [0, 0, c, s]])
    assert np.max(np.abs(got - want)) < 1e-12

    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    got = transformation_operator(brown, assign_14, 1, 1, 2, math.pi / 2).T
    want = np.array([[0, -c, s, 0], [0, -s, c, 0], [-c, 0, 0, s], [s, 0, 0, -c]])
    assert np.max(np.abs(got - want)) < 1e-12


def test_operator_outcome_validation(brown, assign_12):
    with pytest.raises(ValueError, match="Bell"):
        transformation_operator(brown, assign_12, 0, 1, 1, 0.0)
    with pytest.raises(ValueError, match="Charlie"):
        transformation_operator(brown, assign_12, 1, 1, 3, 0.0)
    with pytest.raises(ValueError, match="five"):
        transformation_operator(
            named_state("bell_phi_plus"), assign_12, 1, 1, 1, 0.0
        )


def test_operator_outcome_indices_are_plain_ints(brown, assign_12):
    # 1.0 == 1 and True == 1, so a membership test would take both
    for index in (1.0, True, np.int64(1)):
        with pytest.raises(ValueError, match=r"Bell outcome indices must be in 1\.\.4"):
            transformation_operator(brown, assign_12, index, 1, 1, 0.0)
        with pytest.raises(ValueError, match=r"Bell outcome indices must be in 1\.\.4"):
            transformation_operator(brown, assign_12, 1, index, 1, 0.0)
        with pytest.raises(ValueError, match="Charlie outcome must be 1 or 2"):
            transformation_operator(brown, assign_12, 1, 1, index, 0.0)


def test_base_operator_matches_projection_route(brown, assign_13):
    # independent route: strip Charlie's bra off the arranged channel and
    # rescale; no Bell projection involved
    for theta in (0.0, 0.3, 1.1):
        for outcome in (1, 2):
            formula = transformation_operator(
                brown, assign_13, 1, 1, outcome, theta
            ).T
            arranged = permute_qubits(brown, relabeling(assign_13))
            residual = project_subsystem(
                arranged, charlie_state(theta, outcome), (5,)
            )
            alt = 2.0 * math.sqrt(2.0) * residual.amplitudes.reshape(4, 4)
            assert np.max(np.abs(formula - alt)) < 1e-14


def test_unitarity_defect_basics():
    assert unitarity_defect(np.eye(4)) == 0.0
    # 2I has gram 4I, so the defect is ||3I||_F = 6
    assert abs(unitarity_defect(2.0 * np.eye(4)) - 6.0) < 1e-14
    rotation = np.array([[0, -1], [1, 0]])
    assert unitarity_defect(rotation) < 1e-15


def test_unitarity_defect_any_square_size():
    # the identity is built once per size: interleaved sizes each get their own
    rng = np.random.default_rng(11)
    for d in (3, 8, 4, 3, 8):
        matrix = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gap = matrix.conj().T @ matrix - np.eye(d)
        assert unitarity_defect(matrix) == float(np.linalg.norm(gap))
        # 2I has gram 4I, so the defect is ||3I||_F = 3 sqrt(d)
        assert abs(unitarity_defect(2.0 * np.eye(d)) - 3.0 * math.sqrt(d)) < 1e-14
        assert unitarity_defect(np.eye(d)) == 0.0


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 4, 4), ()])
def test_unitarity_defect_refuses_non_square_input(shape):
    with pytest.raises(ValueError, match=re.escape(f"square 2-D matrix, got shape {shape}")):
        unitarity_defect(np.ones(shape))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unitarity_defect_transpose_invariant(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(unitarity_defect(matrix) - unitarity_defect(matrix.T)) < 1e-12
    # bit for bit the single-matrix form
    gap = matrix.conj().T @ matrix - np.eye(4)
    assert unitarity_defect(matrix) == float(np.linalg.norm(gap))


def test_criterion_passes_for_brown_fixed_pairs(brown, assign_12):
    report = criterion_check(brown, assign_12, 0.7)
    assert report.passed is True
    assert report.sigma111_defect < 1e-12
    assert report.sigma112_defect < 1e-12
    assert abs(report.purity_alice_pair - 0.25) < 1e-12
    assert abs(report.purity_bob_pair - 0.25) < 1e-12
    doc = report.as_dict()
    assert doc["pass"] is True
    assert doc["assignment"] == {"alice": [1, 2], "bob": [3, 4], "charlie": 5}
    assert doc["theta"] == 0.7


def test_criterion_fails_off_root(brown, assign_14):
    report = criterion_check(brown, assign_14, math.pi / 4)
    assert report.passed is False
    assert abs(report.sigma111_defect - 2.0) < 1e-9
    assert abs(report.sigma112_defect - 2.0) < 1e-9
    # failure is angle mismatch, not pair mixedness: purities still 1/4
    assert abs(report.purity_alice_pair - 0.25) < 1e-12


def test_criterion_fails_for_man_split_pairs(man):
    report = criterion_check(man, RoleAssignment((1, 3), (2, 4), 5), 0.3)
    assert report.passed is False
    assert abs(report.purity_alice_pair - 0.5) < 1e-12
    assert abs(report.purity_bob_pair - 0.5) < 1e-12
    assert report.sigma111_defect > 0.5


def test_criterion_invariant_under_within_role_swaps(brown, man):
    for channel in (brown, man):
        for theta in (0.0, 0.2, math.pi / 4):
            base = criterion_check(channel, RoleAssignment((1, 4), (2, 3), 5), theta)
            swapped = criterion_check(
                channel, RoleAssignment((4, 1), (3, 2), 5), theta
            )
            assert base.passed == swapped.passed
            assert abs(base.sigma111_defect - swapped.sigma111_defect) < 1e-12
            assert abs(base.sigma112_defect - swapped.sigma112_defect) < 1e-12


def test_factorization_binds_bell_dictionary(brown, assign_13):
    report = pauli_factorization_check(brown, assign_13, 0.3)
    assert report.holds is True
    assert report.max_deviation < 1e-12
    assert PAULI_FACTORS[4][0, 1] == -1  # antisymmetric partner of outcome 4


def test_factor_table_blocks_are_the_kron_products():
    table = telecrit.teleport._FACTOR_TABLE
    assert table.shape == (4, 64)
    for i, j in itertools.product((1, 2, 3, 4), repeat=2):
        block = 4 * (i - 1) + (j - 1)
        want = np.kron(PAULI_FACTORS[i], PAULI_FACTORS[j])
        assert np.array_equal(table[:, 4 * block : 4 * block + 4], want)


def test_factorization_holds_for_random_channels(assign_14):
    rng = np.random.default_rng(17)
    for _ in range(5):
        channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        report = pauli_factorization_check(channel, assign_14, 1.234)
        assert report.holds is True
        assert report.max_deviation < 1e-12


# in-test bell/charlie tables for the independent simulation oracle
_BELL_TABLE = {
    1: np.array([1, 0, 0, 1], dtype=complex) * ROOT_HALF,
    2: np.array([1, 0, 0, -1], dtype=complex) * ROOT_HALF,
    3: np.array([0, 1, 1, 0], dtype=complex) * ROOT_HALF,
    4: np.array([0, 1, -1, 0], dtype=complex) * ROOT_HALF,
}


def _arranged_by_bits(channel, assignment):
    """Bitwise re-derivation of the role arrangement, kept free of library calls."""
    order = (*assignment.alice, *assignment.bob, assignment.charlie)
    out = np.zeros(32, dtype=complex)
    for k in range(32):
        index = 0
        for pos, q in enumerate(order):
            index |= ((k >> (5 - q)) & 1) << (4 - pos)
        out[index] = channel.amplitudes[k]
    return out


def _oracle_probability(channel, assignment, theta, input_state, outcome):
    i, j, n = outcome
    joint = np.kron(input_state.amplitudes, _arranged_by_bits(channel, assignment))
    grid = joint.reshape([2] * 7)
    c, s = math.cos(theta), math.sin(theta)
    charlie = np.array([c, s] if n == 1 else [s, -c], dtype=complex)
    residual = np.einsum(
        "ak,bl,c,abklmnc->mn",
        _BELL_TABLE[i].reshape(2, 2).conj(),
        _BELL_TABLE[j].reshape(2, 2).conj(),
        charlie.conj(),
        grid,
    )
    return float(np.sum(np.abs(residual) ** 2))


def test_simulate_probabilities_match_contraction_oracle():
    rng = np.random.default_rng(11)
    channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    input_state = make_state(2, vec / np.linalg.norm(vec))
    assignment = RoleAssignment((2, 5), (1, 4), 3)
    records = simulate(channel, assignment, 0.9, input_state)
    assert [r.outcome for r in records] == [
        (i, j, n) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4) for n in (1, 2)
    ]
    for record in records:
        expected = _oracle_probability(channel, assignment, 0.9, input_state, record.outcome)
        assert abs(record.probability - expected) < 1e-14
    assert abs(sum(r.probability for r in records) - 1.0) < 1e-12


def _spy(monkeypatch, name):
    """Record the first argument of every call of a teleport kernel."""
    calls = []
    kernel = getattr(telecrit.teleport, name)
    monkeypatch.setattr(
        telecrit.teleport, name, lambda first, *rest: calls.append(first) or kernel(first, *rest)
    )
    return calls


def _bundle(channel, assignment, theta, input_state):
    return (
        criterion_check(channel, assignment, theta),
        pauli_factorization_check(channel, assignment, theta),
        simulate(channel, assignment, theta, input_state),
    )


def test_verify_calls_build_charlie_weights_once(monkeypatch):
    rng = np.random.default_rng(29)
    channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    input_state = make_state(2, vec / np.linalg.norm(vec))
    assignment, theta = RoleAssignment((4, 1), (3, 5), 2), 0.7
    calls = _spy(monkeypatch, "_charlie_bras")
    _, _, records = _bundle(channel, assignment, theta, input_state)
    # each record is the one-outcome operator applied to the input
    outcomes = itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2))
    for record, outcome in zip(records, outcomes, strict=True):
        operator = transformation_operator(channel, assignment, *outcome, theta)
        residual = telecrit.teleport._PREFACTOR * (operator @ input_state.amplitudes)
        corrected = operator.conj().T @ residual
        assert record.outcome == outcome
        assert abs(record.probability - np.vdot(residual, residual).real) < 1e-15
        assert np.max(np.abs(record.bob_corrected - corrected / np.linalg.norm(corrected))) < 1e-14
    assert calls == [theta]
    criterion_check(channel, assignment, 0.8)
    assert calls == [theta, 0.8]


def test_bundle_contracts_the_channel_once(monkeypatch):
    channel = random_channel(np.random.default_rng(30))
    assignment, theta = RoleAssignment((2, 5), (1, 3), 4), 0.4
    bases = _spy(monkeypatch, "_base_operators")
    projections = _spy(monkeypatch, "_outcome_operators")
    _bundle(channel, assignment, theta, make_state(2, [0.5, 0.5j, -0.5, 0.5]))
    for outcome in itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2)):
        transformation_operator(channel, assignment, *outcome, theta)
    assert len(bases) == 1 and len(projections) == 1
    record = channel._setting[0]  # the holder's one record, handed out whole
    assert type(record) is tuple
    assert telecrit.teleport._setting(channel, assignment, theta) is record
    key, base, operators = record
    assert key == (assignment, theta, 1.0)
    # the outcome operators are the Bell projection of the record's base operators
    assert projections[0] is base
    assert base.shape == (2, 4, 4) and operators.shape == (32, 4, 4)
    for array in (base, operators):
        assert array.flags.c_contiguous and not array.flags.writeable


@pytest.mark.parametrize("change", ["theta", "negative_zero", "assignment", "channel"])
def test_another_setting_contracts_again(monkeypatch, change):
    amplitudes = named_state("brown").amplitudes
    channel, assignment = make_state(5, amplitudes), RoleAssignment((1, 2), (3, 4), 5)
    other_channel, other_assignment, other_theta = {
        "theta": (channel, assignment, 0.5),
        "negative_zero": (channel, assignment, -0.0),
        "assignment": (channel, RoleAssignment((2, 1), (3, 4), 5), 0.0),
        "channel": (make_state(5, amplitudes), assignment, 0.0),
    }[change]
    criterion_check(channel, assignment, 0.0)
    calls = _spy(monkeypatch, "_charlie_bras")
    bases = _spy(monkeypatch, "_base_operators")
    projections = _spy(monkeypatch, "_outcome_operators")
    report = criterion_check(other_channel, other_assignment, other_theta)
    assert calls == [other_theta] and len(bases) == 1 and len(projections) == 1
    assert math.copysign(1.0, calls[0]) == math.copysign(1.0, other_theta)
    key, base, operators = other_channel._setting[0]
    assert key == (other_assignment, other_theta, math.copysign(1.0, other_theta))
    assert projections[0] is base
    # the new record holds the operators a cold channel object gives
    cold = make_state(5, amplitudes)
    assert repr(report) == repr(criterion_check(cold, other_assignment, other_theta))
    _, cold_base, cold_operators = cold._setting[0]
    assert base.tobytes() == cold_base.tobytes()
    assert operators.tobytes() == cold_operators.tobytes()
    if change == "negative_zero":  # -0.0 flips the sign of some zero entries
        positive = make_state(5, amplitudes)
        criterion_check(positive, assignment, 0.0)
        assert positive._setting[0][1].tobytes() != cold_base.tobytes()


def test_a_setting_changed_during_a_build_pairs_no_key_with_other_operators(monkeypatch):
    """A criterion check at theta = 0, run once from inside the outcome
    operators' build at pi/4, moves the channel to theta = 0 mid-build; the
    records then simulated at pi/4 and at 0, and an operator at 0, are a cold
    channel's, bit for bit."""
    rng = np.random.default_rng(35)
    amplitudes, input_state = random_channel(rng).amplitudes, random_input(rng)
    channel, assignment = make_state(5, amplitudes), RoleAssignment((1, 2), (3, 4), 5)
    build = telecrit.teleport._outcome_operators

    def reenter(base):
        monkeypatch.setattr(telecrit.teleport, "_outcome_operators", build)
        criterion_check(channel, assignment, 0.0)
        return build(base)

    monkeypatch.setattr(telecrit.teleport, "_outcome_operators", reenter)
    thetas = (math.pi / 4, 0.0)
    runs = [simulate(channel, assignment, theta, input_state) for theta in thetas]
    operator = transformation_operator(channel, assignment, 1, 1, 1, 0.0)
    for theta, records in zip(thetas, runs):
        cold_records = simulate(make_state(5, amplitudes), assignment, theta, input_state)
        assert [r.probability for r in records] == [r.probability for r in cold_records]
        for record, cold_record in zip(records, cold_records, strict=True):
            assert record.bob_corrected.tobytes() == cold_record.bob_corrected.tobytes()
    cold_operator = transformation_operator(make_state(5, amplitudes), assignment, 1, 1, 1, 0.0)
    assert operator.tobytes() == cold_operator.tobytes()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected_with_a_warm_slot(monkeypatch, assign_12, theta):
    channel = make_state(5, named_state("brown").amplitudes)
    input_state = make_state(2, [1, 0, 0, 0])
    _bundle(channel, assign_12, 0.3, input_state)
    calls = [
        lambda: transformation_operator(channel, assign_12, 2, 3, 1, theta),
        lambda: criterion_check(channel, assign_12, theta),
        lambda: pauli_factorization_check(channel, assign_12, theta),
        lambda: simulate(channel, assign_12, theta, input_state),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="theta must be finite"):
            call()
    # the refused angle left the record as it was
    weights = _spy(monkeypatch, "_charlie_bras")
    _bundle(channel, assign_12, 0.3, input_state)
    assert weights == []


def test_operator_results_do_not_alias_the_slot(assign_13):
    amplitudes = random_channel(np.random.default_rng(32)).amplitudes
    channel, theta = make_state(5, amplitudes), 1.1
    input_state = make_state(2, [0.5, -0.5j, 0.5, 0.5])
    operator = transformation_operator(channel, assign_13, 3, 4, 2, theta)
    expected = operator.tobytes()
    assert operator.flags.writeable and operator.flags.owndata
    operator[...] = 7.0
    assert transformation_operator(channel, assign_13, 3, 4, 2, theta).tobytes() == expected
    cold = make_state(5, amplitudes)
    report, factorization, records = _bundle(channel, assign_13, theta, input_state)
    cold_report, cold_factorization, cold_records = _bundle(cold, assign_13, theta, input_state)
    assert repr(report) == repr(cold_report) and factorization == cold_factorization
    for record, cold_record in zip(records, cold_records, strict=True):
        assert record.probability == cold_record.probability
        assert record.bob_corrected.tobytes() == cold_record.bob_corrected.tobytes()


def test_verify_sweep_rounds_miss_on_the_first_call_of_every_bundle(monkeypatch):
    rng = np.random.default_rng(33)
    channels = (make_state(5, named_state("brown").amplitudes), random_channel(rng))
    assignments = enumerate_assignments()[:6]
    thetas = (0.0, math.pi / 4, float(rng.uniform(0.0, math.pi)))
    tasks = [(c, a) for c in channels for a in assignments]
    tasks = [tasks[k] for k in rng.permutation(len(tasks))]
    input_state = random_input(rng)
    weights = _spy(monkeypatch, "_charlie_bras")
    for _ in range(2):  # the same tasks replayed, as a bench round does
        for channel, assignment in tasks:
            for theta in thetas:
                before = len(weights)
                criterion_check(channel, assignment, theta)
                assert len(weights) == before + 1
                pauli_factorization_check(channel, assignment, theta)
                simulate(channel, assignment, theta, input_state)
                assert len(weights) == before + 1


def test_simulate_faithful_channel_is_uniform(brown, assign_12):
    input_state = make_state(2, [0.5, 0.5j, -0.5, 0.5j])
    records = simulate(brown, assign_12, 0.0, input_state)
    assert len(records) == 32
    for record in records:
        assert abs(record.probability - 1.0 / 32.0) < 1e-12
        assert abs(record.fidelity - 1.0) < 1e-12
        assert abs(np.linalg.norm(record.bob_corrected) - 1.0) < 1e-12
    doc = records[0].as_dict()
    assert doc["outcome"] == [1, 1, 1]
    assert set(doc) == {"outcome", "probability", "fidelity"}


def test_simulate_bob_states_are_read_only_unit_rows(brown):
    input_state = make_state(2, [0.5, 0.5j, -0.5, 0.5])
    records = simulate(brown, RoleAssignment((2, 1), (4, 3), 5), 0.3, input_state)
    for record in records:
        bob = record.bob_corrected
        assert bob.dtype == np.complex128 and bob.shape == (4,)
        assert abs(np.linalg.norm(bob) - 1.0) < 1e-12
        assert not bob.flags.writeable
        with pytest.raises(ValueError):
            bob[0] = 0.0


def test_records_are_immutable_with_unchanged_fields(brown, assign_12):
    record = simulate(brown, assign_12, 0.0, make_state(2, [1, 0, 0, 0]))[0]
    fields = ("outcome", "probability", "bob_corrected", "fidelity")
    assert TeleportationRecord._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    doc = {"outcome": [1, 1, 1], "probability": record.probability, "fidelity": record.fidelity}
    assert record.as_dict() == doc


def test_records_compare_and_hash_by_identity(brown, assign_12):
    first = simulate(brown, assign_12, 0.3, make_state(2, [1, 0, 0, 0]))
    again = simulate(brown, assign_12, 0.3, make_state(2, [1, 0, 0, 0]))
    record, twin = first[0], again[0]
    assert record == record and not record != record
    assert record != twin and not record == twin  # equal fields, distinct objects
    assert record in first and twin not in first
    assert len({*first, *again}) == 64
    assert hash(record) == hash(record)
    assert record != tuple(record) and record._make(record) != record


def test_simulate_fidelity_is_overlap_with_input(brown):
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    input_state = make_state(2, vec / np.linalg.norm(vec))
    records = simulate(brown, RoleAssignment((1, 3), (2, 4), 5), 0.2, input_state)
    for record in records:
        overlap = np.vdot(input_state.amplitudes, record.bob_corrected)
        assert abs(record.fidelity - abs(overlap) ** 2) < 1e-12
    # off the working angles some outcome must lose fidelity
    assert min(r.fidelity for r in records) < 0.999


def test_simulate_zero_probability_outcomes_report_zero_fidelity():
    channel = named_state("product_zero_n")
    records = simulate(
        channel, RoleAssignment((1, 2), (3, 4), 5), 0.3, make_state(2, [1, 0, 0, 0])
    )
    dead = [r for r in records if r.outcome[0] in (3, 4) or r.outcome[1] in (3, 4)]
    assert len(dead) == 24
    for record in dead:
        assert record.probability < 1e-15
        assert record.fidelity == 0.0


def test_simulate_fidelity_of_a_noise_residual_is_its_squared_parts():
    """Bob's pair held in |00>: every operator is rank one, |00><w|, and an
    input orthogonal to w of outcome (1, 1, 1) leaves that outcome a residual
    of rounding noise, so its overlap with the input is complex, not near
    real.  Each fidelity is re**2 + im**2 of its overlap to the bit, where
    numpy's complex abs, squared, misses by an ulp on some of them."""
    rng = np.random.default_rng(48)
    assignment, abs_misses = RoleAssignment((1, 2), (3, 4), 5), 0
    for _ in range(8):
        amplitudes = np.zeros((2, 2, 2, 2, 2), dtype=complex)
        amplitudes[:, :, 0, 0, :] = (rng.standard_normal(8) + 1j * rng.standard_normal(8)).reshape(
            2, 2, 2
        )
        channel = make_state(5, amplitudes.reshape(32))
        theta = float(rng.uniform(-math.pi, math.pi))
        w = transformation_operator(channel, assignment, 1, 1, 1, theta)[0].conj()
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x -= w * (np.vdot(w, x) / np.vdot(w, w))
        input_state = make_state(2, x / np.linalg.norm(x))
        records = simulate(channel, assignment, theta, input_state)
        overlaps = np.vecdot(input_state.amplitudes, [r.bob_corrected for r in records])
        assert records[0].probability < 1e-30
        fidelities = overlaps.real**2 + overlaps.imag**2
        assert [r.fidelity.hex() for r in records] == [f.hex() for f in fidelities.tolist()]
        abs_misses += (np.abs(overlaps[:1]) ** 2)[0] != records[0].fidelity
    assert abs_misses > 0


def test_simulate_input_validation(brown, assign_12):
    with pytest.raises(ValueError, match="two-qubit"):
        simulate(brown, assign_12, 0.0, named_state("ghz5"))
    with pytest.raises(ValueError, match="normalized"):
        simulate(brown, assign_12, 0.0, PureState(2, [0.5, 0, 0, 0]))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_outcome_probabilities_always_sum_to_one(seed, theta):
    rng = np.random.default_rng(seed)
    channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    input_state = make_state(2, vec / np.linalg.norm(vec))
    records = simulate(channel, RoleAssignment((3, 1), (5, 2), 4), theta, input_state)
    assert abs(sum(r.probability for r in records) - 1.0) < 1e-12


# Row entries that stress rounding: ordinary values with signed zeros and
# subnormals among them, each leading row at one scale from 1e-150 to 1e150,
# so that products of two entries, and their sums, stay in range
_SPECIALS = np.array([0.0, -0.0, 5e-324, -2.5e-310])
_SCALES = st.sampled_from([10.0**k for k in (-150, -20, 0, 20, 150)])


@st.composite
def _edge_arrays(draw, shape):
    """A complex array of ``shape``, its parts set, not multiplied (1j * x
    moves signed zeros); about one entry in five is a special value."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    parts = rng.uniform(-10.0, 10.0, (2, *shape))
    special = rng.random(parts.shape) < 0.2
    parts[special] = rng.choice(_SPECIALS, special.sum())
    scales = draw(st.lists(_SCALES, min_size=shape[0], max_size=shape[0]))
    parts *= np.reshape(scales, (1, -1) + (1,) * (len(shape) - 1))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


def _bits(values) -> list[tuple[str, str]]:
    """Each value's real and imaginary parts, bit for bit."""
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, np.ravel(values))]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_vecdot_rounds_as_vdot_on_the_engine_views(data):
    """np.vecdot, the engine's one row dot, equals np.vdot row by row on the
    views the engine hands it: the strided real and imaginary parts of an
    (n, 16) gap (_defects, simulate's norms), complex (32, 4) rows against
    themselves (simulate's probabilities) and against other rows, and a
    1-D bra against a (32, 4) stack (fidelities)."""
    gap = data.draw(_edge_arrays((data.draw(st.integers(1, 6)), 16)))
    rows, other = data.draw(_edge_arrays((32, 4))), data.draw(_edge_arrays((32, 4)))
    bra = data.draw(_edge_arrays((1, 4)))[0]
    cases = [(gap.real, gap.real), (gap.imag, gap.imag), (rows, rows), (rows, other)]
    for a, b in cases:
        assert _bits(np.vecdot(a, b)) == _bits([np.vdot(x, y) for x, y in zip(a, b)])
    assert _bits(np.vecdot(bra, rows)) == _bits([np.vdot(bra, y) for y in rows])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_defects_round_as_vdot_of_each_gap(data):
    """Each defect is sqrt of the np.vdot of its gap's strided real part plus
    that of its imaginary part, as np.linalg.norm forms it, to the bit."""
    stack = data.draw(_edge_arrays((data.draw(st.integers(1, 6)), 4, 4)))
    want = []
    with np.errstate(over="ignore"):  # squared gaps of 1e150 entries are inf
        for m in stack:
            gap = (m.conj().T @ m - np.eye(4)).reshape(16)
            want.append(math.sqrt(np.vdot(gap.real, gap.real) + np.vdot(gap.imag, gap.imag)))
        assert _bits(telecrit.teleport._defects(stack)) == _bits(want)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matvec_rounds_as_each_adjoint_product(data):
    """np.matvec of the stacked adjoints, Bob's correction, equals
    op.conj().T @ r of each operator and residual, to the bit."""
    operators, residuals = data.draw(_edge_arrays((32, 4, 4))), data.draw(_edge_arrays((32, 4)))
    want = [op.conj().T @ r for op, r in zip(operators, residuals)]
    assert _bits(np.matvec(operators.conj().mT, residuals)) == _bits(want)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulate_records_are_single_outcome_arithmetic(seed):
    """Every record is, to the bit, its one operator applied to the input, the
    adjoint correction, np.linalg.norm and np.vdot of that outcome alone."""
    rng = np.random.default_rng(seed)
    channel, input_state = random_channel(rng), random_input(rng)
    assignment = enumerate_assignments()[int(rng.integers(30))]
    theta = float(rng.uniform(-math.pi, math.pi))
    x = input_state.amplitudes
    records = simulate(channel, assignment, theta, input_state)
    overlaps = []
    for record in records:
        operator = transformation_operator(channel, assignment, *record.outcome, theta)
        residual = telecrit.teleport._PREFACTOR * (operator @ x)
        corrected = operator.conj().T @ residual
        bob = corrected / np.linalg.norm(corrected)
        assert record.probability.hex() == np.vdot(residual, residual).real.hex()
        assert record.bob_corrected.tobytes() == bob.tobytes()
        overlaps.append(np.vdot(x, record.bob_corrected))
    # the fidelity is the squared parts of the overlap, as in simulate, squared
    # as an array: a float's ** 2 calls libm's pow, which can miss by an ulp
    overlaps = np.array(overlaps)
    fidelities = overlaps.real**2 + overlaps.imag**2
    assert [r.fidelity.hex() for r in records] == [f.hex() for f in fidelities.tolist()]


def _noisy_amplitudes(rng, num_qubits):
    """Complex Gaussian amplitudes, not normalized; about one part in five is
    a signed zero or subnormal."""
    parts = rng.standard_normal((2, 2**num_qubits))
    special = rng.random(parts.shape) < 0.2
    parts[special] = rng.choice(_SPECIALS, special.sum())
    amplitudes = np.empty(2**num_qubits, dtype=complex)
    amplitudes.real, amplitudes.imag = parts
    return amplitudes


def _noisy_input(rng):
    """A normalized two-qubit input with signed-zero and subnormal parts."""
    x = _noisy_amplitudes(rng, 2)
    return PureState(2, x / math.sqrt(np.vdot(x, x).real))


def _tiny_half(rng, assignment, scale):
    """A normalized channel with noisy parts whose half with Charlie's qubit
    0 under ``assignment`` is scaled to ``scale``: at theta = +-0.0 Bob's
    outcome-1 operators are that half alone, so for scale 1e-160 or 1e-300
    their corrected rows' squared norms underflow to zero."""
    amplitudes = _noisy_amplitudes(rng, 5)
    amplitudes[assignment._gather[::2]] *= scale  # arranged order ends with Charlie
    return make_state(5, amplitudes)


def _verify_setting(seed):
    """A normalized channel with noisy parts, unit or with a Charlie half
    scaled to 1e-160 or 1e-300 at theta = +-0.0, an assignment, an angle and
    a noisy input."""
    rng = np.random.default_rng(seed)
    assignment = enumerate_assignments()[int(rng.integers(30))]
    scale = float(rng.choice([1.0, 1e-160, 1e-300]))
    channel = _tiny_half(rng, assignment, scale)
    theta = rng.uniform(-math.pi, math.pi) if scale == 1.0 else rng.choice([0.0, -0.0])
    return channel, assignment, float(theta), _noisy_input(rng)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_factorization_product_is_the_reshaped_one(seed):
    """The base operators' product with the factor table, taken on the
    stacked adjoint view, gives the deviation the (8, 4) copy gave, to the
    bit: each entry is one base entry times +-1 and zeros."""
    channel, assignment, theta, _ = _verify_setting(seed)
    report = pauli_factorization_check(channel, assignment, theta)
    _, base, operators = telecrit.teleport._setting(channel, assignment, theta)
    action = base.transpose(0, 2, 1).reshape(8, 4)
    product = (action @ telecrit.teleport._FACTOR_TABLE).reshape(2, 4, 4, 4, 4)
    direct = operators.reshape(4, 4, 2, 4, 4)
    deviation = float(np.abs(direct - product.transpose(2, 3, 0, 1, 4)).max())
    assert report.max_deviation.hex() == deviation.hex()
    assert report.holds == (deviation <= 1e-10)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_simulate_records_keep_the_where_normalization(seed):
    """Every record equals, to the bit, the formula that divided every row by
    np.where(norms > 0, norms, 1.0) and tested the norm as norm ** 2: on
    channels with a Charlie half scaled to 1e-160 or 1e-300, where some of
    Bob's corrected rows have norms that underflow to zero, and on inputs
    with subnormal parts."""
    channel, assignment, theta, input_state = _verify_setting(seed)
    x = input_state.amplitudes
    assert abs(input_state.norm**2 - 1.0) <= telecrit.STRICT_NORM_TOL
    records = simulate(channel, assignment, theta, input_state)
    _, _, operators = telecrit.teleport._setting(channel, assignment, theta)
    residuals = telecrit.teleport._PREFACTOR * (operators.reshape(128, 4) @ x).reshape(32, 4)
    corrected = np.matvec(operators.conj().mT, residuals)
    re, im = corrected.real, corrected.imag
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    corrected /= np.where(norms > 0.0, norms, 1.0)[:, None]
    overlaps = np.vecdot(x, corrected)
    fidelities = overlaps.real**2 + overlaps.imag**2
    probabilities = np.vecdot(residuals, residuals).real
    assert b"".join(r.bob_corrected.tobytes() for r in records) == corrected.tobytes()
    assert [r.probability.hex() for r in records] == [p.hex() for p in probabilities.tolist()]
    assert [r.fidelity.hex() for r in records] == [f.hex() for f in fidelities.tolist()]


def test_simulate_keeps_rows_whose_norm_underflows():
    """A channel whose Charlie half is scaled to 1e-160 gives, at theta = 0,
    Bob corrected rows of ~1e-320 for Charlie outcome 1 whose squared parts
    underflow: such a row keeps its subnormal entries."""
    rng = np.random.default_rng(34)
    assignment = RoleAssignment((1, 2), (3, 4), 5)
    channel, input_state = _tiny_half(rng, assignment, 1e-160), random_input(rng)
    records = simulate(channel, assignment, 0.0, input_state)
    tiny = np.array([r.bob_corrected for r in records[0::2]])  # Charlie outcome 1
    assert np.any(tiny != 0.0) and np.all(np.abs(tiny) < 1e-300)
    assert [r.fidelity for r in records[0::2]] == [0.0] * 16
    assert all(abs(np.linalg.norm(r.bob_corrected) - 1.0) < 1e-15 for r in records[1::2])


def test_outcome_operators_double_after_the_product():
    """The outcome operators are 2 times the Bell projection, doubled after
    the product: with the 2 folded into the bras, a subnormal product would
    round once at twice its size and differ in its last bit."""
    amplitudes = named_state("brown").amplitudes + np.where(
        named_state("brown").amplitudes == 0, 3e-322, 0.0
    )
    channel, assignment = PureState(5, amplitudes), RoleAssignment((1, 3), (2, 4), 5)
    _, base, operators = telecrit.teleport._setting(channel, assignment, 0.4)
    rows = telecrit.teleport._BELL_PAIR_ROWS
    table = (rows @ base).reshape(2, 4, 4, 4, 4).transpose(1, 2, 0, 4, 3)
    assert operators.tobytes() == np.multiply(2.0, table, order="C").tobytes()
    folded = ((2.0 * rows) @ base).reshape(2, 4, 4, 4, 4).transpose(1, 2, 0, 4, 3)
    assert operators.tobytes() != np.ascontiguousarray(folded).tobytes()


@pytest.mark.parametrize("drift, accepted", [
    (0.9e-6, True), (-0.9e-6, True), (1.1e-6, False), (-1.1e-6, False),
])
def test_simulate_input_norm_boundary(brown, assign_12, drift, accepted):
    """simulate accepts an input whose squared norm is within 1e-6 of 1."""
    input_state = PureState(2, [math.sqrt((1.0 + drift) / 2), 0, 0, math.sqrt((1.0 + drift) / 2)])
    if accepted:
        assert len(simulate(brown, assign_12, 0.0, input_state)) == 32
    else:
        with pytest.raises(ValueError, match="normalized"):
            simulate(brown, assign_12, 0.0, input_state)


def test_verify_decisions_do_not_depend_on_kernels():
    """The fingerprint's verify-path inputs, run under other numpy and
    OpenBLAS kernels, give the same criterion verdicts and factorization
    verdicts, and probabilities within 1e-12; their last bits may move."""
    here = fingerprint.verify_outcomes()
    for name, there in kernel_outcomes("verify_outcomes").items():
        assert there["criterion"] == here["criterion"], name
        assert there["eq5"] == here["eq5"], name
        probabilities = np.array(there["probability"])
        assert probabilities.shape == (len(here["probability"]),), name
        assert np.max(np.abs(probabilities - here["probability"])) <= 1e-12, name


def test_public_names():
    # the benchmark's tracer finds each layer through one of its names:
    # tensor, partial_trace, criterion_check and scan
    assert sorted(telecrit.__all__) == sorted([
        "__version__",
        "PureState", "StateFileError", "CATALOG_NAMES", "FIVE_QUBIT_CATALOG",
        "NORM_TOL", "STRICT_NORM_TOL", "MAX_FILE_QUBITS", "make_state",
        "named_state", "tensor", "load_state_file", "save_state_json",
        "save_state_text",
        "PAIR_PURITY_TARGET", "partial_trace", "purity", "purity_summary",
        "PAULI_FACTORS", "RoleAssignment", "CriterionReport",
        "FactorizationReport", "TeleportationRecord", "transformation_operator",
        "unitarity_defect", "criterion_check", "pauli_factorization_check",
        "simulate",
        "KIND_ALL", "KIND_DISCRETE", "KIND_NONE", "ThetaClassification",
        "ScanEntry", "ScanReport", "enumerate_assignments", "classify_theta",
        "scan",
    ])
    assert len(telecrit.__all__) == len(set(telecrit.__all__)) == 37
