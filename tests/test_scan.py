"""Assignment enumeration and basis-angle classification."""

import math
from itertools import combinations

import numpy as np
import pytest
from conftest import lu_rotated, random_channel
from hypothesis import given, settings
from hypothesis import strategies as st

import telecrit.angles as angles

from telecrit import (
    KIND_ALL,
    KIND_DISCRETE,
    KIND_NONE,
    RoleAssignment,
    classify_theta,
    criterion_check,
    enumerate_assignments,
    make_state,
    named_state,
    pauli_factorization_check,
    purity_summary,
    scan,
)

PI = math.pi


def test_enumerate_assignments_is_complete():
    assignments = enumerate_assignments()
    assert len(assignments) == 30
    assert len(set(assignments)) == 30
    assert assignments[0] == RoleAssignment((1, 2), (3, 4), 5)
    for assignment in assignments:
        labels = sorted([*assignment.alice, *assignment.bob, assignment.charlie])
        assert labels == [1, 2, 3, 4, 5]
        assert assignment.alice[0] < assignment.alice[1]
        assert assignment.bob[0] < assignment.bob[1]
    # every unordered alice pair appears with all three bob completions
    alice_pairs = [a.alice for a in assignments]
    for pair in combinations(range(1, 6), 2):
        assert alice_pairs.count(pair) == 3


def test_classify_brown_fixed_pairs_works_everywhere(brown, assign_12):
    cls = classify_theta(brown, assign_12)
    assert cls.kind == KIND_ALL
    assert cls.roots is None
    assert cls.min_defect < 1e-12
    assert cls.argmin_theta == 0.0


def test_classify_brown_interleaved_pairs_quarter_roots(brown, assign_13):
    cls = classify_theta(brown, assign_13)
    assert cls.kind == KIND_DISCRETE
    assert len(cls.roots) == 2
    assert abs(cls.roots[0] - PI / 4) < 1e-9
    assert abs(cls.roots[1] - 3 * PI / 4) < 1e-9
    assert cls.min_defect < 1e-12
    # roots pass the criterion, midpoints fail decisively
    for root in cls.roots:
        assert criterion_check(brown, assign_13, root).passed is True
    assert criterion_check(brown, assign_13, 0.0).sigma111_defect > 0.1
    assert criterion_check(brown, assign_13, PI / 2).sigma111_defect > 0.1


def test_classify_brown_outer_pairs_axis_roots(brown, assign_14):
    cls = classify_theta(brown, assign_14)
    assert cls.kind == KIND_DISCRETE
    assert len(cls.roots) == 2
    assert abs(cls.roots[0] - 0.0) < 1e-9
    assert abs(cls.roots[1] - PI / 2) < 1e-9
    report = criterion_check(brown, assign_14, PI / 4)
    assert abs(report.sigma111_defect - 2.0) < 1e-9


def test_classify_man_split_pairs_never_works(man):
    for assignment in (
        RoleAssignment((1, 3), (2, 4), 5),
        RoleAssignment((2, 4), (1, 3), 5),
    ):
        cls = classify_theta(man, assignment)
        assert cls.kind == KIND_NONE
        assert cls.roots is None
        assert abs(cls.min_defect - 2.0) < 1e-9


def test_roots_are_canonical_and_deduplicated(brown, assign_14):
    # the zero root is reported once, not also as pi
    cls = classify_theta(brown, assign_14)
    assert all(0.0 <= root < PI for root in cls.roots)
    assert cls.roots == tuple(sorted(cls.roots))
    gaps = [
        min(abs(a - b), PI - abs(a - b))
        for a, b in combinations(cls.roots, 2)
    ]
    assert all(gap > 1e-6 for gap in gaps)


def test_classification_respects_tolerance(brown, assign_13):
    # a generous tolerance turns the discrete case into all_theta
    generous = classify_theta(brown, assign_13, tol=10.0)
    assert generous.kind == KIND_ALL


def test_optimal_theta_agrees_with_classification(brown, man, assign_13, assign_14):
    for channel, assignment in (
        (brown, assign_13),
        (brown, assign_14),
        (man, RoleAssignment((1, 3), (2, 4), 5)),
    ):
        cls = classify_theta(channel, assignment)
        report = criterion_check(channel, assignment, cls.argmin_theta)
        assert cls.min_defect == pytest.approx(
            max(report.sigma111_defect, report.sigma112_defect), abs=1e-9
        )


def test_optimal_theta_all_theta_convention(brown, assign_12):
    cls = classify_theta(brown, assign_12)
    assert cls.argmin_theta == 0.0
    assert cls.min_defect < 1e-12


def test_scan_brown_counts_and_order(brown):
    report = scan(brown)
    kinds = [entry.classification.kind for entry in report.entries]
    assert len(kinds) == 30
    assert kinds.count(KIND_ALL) == 10
    assert kinds.count(KIND_DISCRETE) == 20
    assert kinds.count(KIND_NONE) == 0
    # working assignments sort first, and kinds arrive in blocks
    assert kinds == sorted(kinds, key=(KIND_ALL, KIND_DISCRETE, KIND_NONE).index)
    for entry in report.entries:
        assert abs(entry.purity_alice - 0.25) < 1e-12
        assert abs(entry.purity_bob - 0.25) < 1e-12


def test_scan_man_counts(man):
    report = scan(man)
    kinds = [entry.classification.kind for entry in report.entries]
    assert kinds.count(KIND_ALL) == 16
    assert kinds.count(KIND_DISCRETE) == 4
    assert kinds.count(KIND_NONE) == 10
    discrete = [
        entry for entry in report.entries
        if entry.classification.kind == KIND_DISCRETE
    ]
    for entry in discrete:
        roots = entry.classification.roots
        assert abs(roots[0] - PI / 4) < 1e-9
        assert abs(roots[1] - 3 * PI / 4) < 1e-9
    failing = {
        (entry.assignment.alice, entry.assignment.bob)
        for entry in report.entries
        if entry.classification.kind == KIND_NONE
    }
    assert ((1, 3), (2, 4)) in failing
    assert ((2, 4), (1, 3)) in failing


def test_scan_entry_serialization(brown):
    report = scan(brown)
    docs = report.as_dicts()
    assert len(docs) == 30
    for doc in docs:
        assert sorted(doc) == [
            "alice", "argmin_theta", "bob", "charlie", "kind",
            "min_defect", "purity_alice", "purity_bob", "roots",
        ]
        if doc["kind"] == KIND_DISCRETE:
            assert isinstance(doc["roots"], list) and doc["roots"]
        else:
            assert doc["roots"] is None


def test_scan_handles_channel_with_no_working_assignment():
    # a product channel cannot teleport anything from anywhere
    report = scan(named_state("product_zero_n"))
    kinds = {entry.classification.kind for entry in report.entries}
    assert kinds == {KIND_NONE}
    worst = report.entries[0].classification
    assert worst.min_defect > 1.0


def test_brown_interleaved_roots_are_exact(brown, assign_13):
    cls = classify_theta(brown, assign_13)
    assert cls.kind == KIND_DISCRETE
    assert len(cls.roots) == 2
    assert abs(cls.roots[0] - PI / 4) < 1e-12
    assert abs(cls.roots[1] - 3 * PI / 4) < 1e-12


@pytest.mark.parametrize("name", ["brown", "man_m5"])
def test_discrete_roots_come_in_quarter_turn_pairs(name):
    """Every discrete_theta entry has exactly two roots, pi/2 apart.

    Charlie's outcome-2 operator is the outcome-1 operator at
    theta - pi/2, so d2(theta) = d1(theta - pi/2), and both defects are
    pi-periodic because M(theta + pi) = -M(theta).  A root t0 has
    d1(t0) = d2(t0) = 0, hence d2(t0 + pi/2) = d1(t0) = 0 and
    d1(t0 + pi/2) = d1(t0 - pi/2) = d2(t0) = 0: roots come in pairs.
    There is only one pair: roots are zeros of d1^2 + d2^2, a constant
    plus a sinusoid in 4 theta, which is >= 0 and so vanishes
    identically (all_theta), nowhere, or at two angles of [0, pi).
    """
    channel = named_state(name)
    rng = np.random.default_rng(7)
    for state in [channel, *(lu_rotated(channel, rng) for _ in range(3))]:
        for entry in scan(state).entries:
            cls = entry.classification
            if cls.kind != KIND_DISCRETE:
                continue
            assert len(cls.roots) == 2
            assert abs(cls.roots[1] - cls.roots[0] - PI / 2) < 1e-9
            for root in cls.roots:
                assert criterion_check(state, entry.assignment, root).passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_invalid_tolerance_rejected(brown, assign_12, tol):
    with pytest.raises(ValueError, match="tol"):
        classify_theta(brown, assign_12, tol)
    with pytest.raises(ValueError, match="tol"):
        scan(brown, tol)
    with pytest.raises(ValueError, match="tol"):
        criterion_check(brown, assign_12, 0.0, tol)
    with pytest.raises(ValueError, match="tol"):
        pauli_factorization_check(brown, assign_12, 0.3, tol)
    with pytest.raises(ValueError, match="tol"):
        purity_summary(brown, tol)


def test_zero_tolerance_accepted(brown, assign_12):
    product = named_state("product_zero_n")
    assert classify_theta(product, assign_12, 0.0).kind == KIND_NONE
    assert criterion_check(brown, assign_12, 0.0, 0.0).tol == 0.0


def test_classify_random_channel_is_stable():
    rng = np.random.default_rng(23)
    channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assignment = RoleAssignment((1, 2), (3, 4), 5)
    cls = classify_theta(channel, assignment)
    assert cls.kind == KIND_NONE
    assert cls.min_defect > 0.1


def _quartic(a1, b1, a2, b2, sign):
    """One branch's quartic, built as the classifier builds it."""
    h = sign * complex(b1, a1) / 2
    return [complex(b2, a2), h, 0.0, h.conjugate(), complex(b2, -a2)]


@pytest.mark.parametrize(
    "quartics",
    [
        # nonzero leading coefficient
        [_quartic(0.4, -1.2, -0.7, 0.3, s) for s in (1, -1)] + [_quartic(0.0, 0.0, 2.0, 0.0, 1)],
        # a2 = b2 = 0 with h != 0: no angles here, _candidate_sets adds the closed form
        [_quartic(a1, b1, 0.0, 0.0, s) for a1, b1 in ((1.0, 0.0), (0.3, -2.5)) for s in (1, -1)],
        # all zero: no roots
        [_quartic(0.0, 0.0, 0.0, 0.0, 1)],
        # signed zeros in every coefficient
        [
            _quartic(-0.0, -0.0, -0.0, -0.0, 1),
            _quartic(-3.0, -0.0, 0.0, -0.0, 1),
            _quartic(-0.0, 2.0, -0.0, 0.0, -1),
            _quartic(-0.0, -0.0, -1.0, -0.0, 1),
        ],
    ],
    ids=["quartic", "quadratic", "zero", "signed-zero"],
)
def test_root_angles_replicate_np_roots(quartics):
    mixed = quartics + [_quartic(0.4, -1.2, -0.7, 0.3, 1), _quartic(0.0, 0.0, 0.0, 0.0, 1)]
    got = angles._root_angles(mixed)
    # bit for bit where w != 0, order and signed zeros included; none where w = 0
    want = [(np.angle(np.roots(q)) / 2).tolist() if q[0] != 0 else [] for q in mixed]
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]


@pytest.mark.parametrize("name, rows", [("ghz5", 1), ("man_m5", 15), ("brown", 30)])
def test_scan_classifies_each_distinct_arrangement_once(monkeypatch, name, rows):
    classified = []
    candidate_sets = angles._candidate_sets

    def counting(arranged):
        classified.append(len(arranged))
        return candidate_sets(arranged)

    monkeypatch.setattr(angles, "_candidate_sets", counting)
    assert len(scan(named_state(name)).entries) == 30
    assert classified == [rows]


@pytest.mark.parametrize("name, rows", [("ghz5", 1), ("man_m5", 15), ("brown", 30)])
def test_scan_solves_one_quartic_per_distinct_arrangement(monkeypatch, name, rows):
    quartics, candidates = [], []
    root_angles, candidate_sets = angles._root_angles, angles._candidate_sets

    def counting_roots(batch):
        quartics.append(len(batch))
        return root_angles(batch)

    def recording_sets(arranged):
        sets = candidate_sets(arranged)
        candidates.extend(sets)
        return sets

    monkeypatch.setattr(angles, "_root_angles", counting_roots)
    monkeypatch.setattr(angles, "_candidate_sets", recording_sets)
    assert len(scan(named_state(name)).entries) == 30
    assert quartics == [rows]
    assert len(candidates) == rows
    for thetas in candidates:
        # one crossing, four nodes and at most four stationary angles
        assert len(thetas) <= 9
        assert all(0.0 <= theta < PI / 2 for theta in thetas)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", "brown", "man_m5", "ghz5")),
    st.integers(min_value=0, max_value=29),
    st.floats(min_value=-2 * PI, max_value=2 * PI),
)
@settings(max_examples=50, deadline=None)
def test_combined_defect_has_period_quarter_turn(seed, source, index, theta):
    """max(d1, d2) at theta + pi/2 equals its value at theta: the outcome
    defects swap, d1(theta + pi/2) = d2(theta) and d2(theta + pi/2) = d1(theta).
    The classifier only searches [0, pi/2) because of this identity."""
    rng = np.random.default_rng(seed)
    if source == "dense":
        channel = random_channel(rng)
    else:
        channel = lu_rotated(named_state(source), rng)
    assignment = enumerate_assignments()[index]
    here = criterion_check(channel, assignment, theta)
    there = criterion_check(channel, assignment, theta + PI / 2)
    assert abs(
        max(here.sigma111_defect, here.sigma112_defect)
        - max(there.sigma111_defect, there.sigma112_defect)
    ) < 1e-12
