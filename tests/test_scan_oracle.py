"""The batched angle engine agrees with the per-assignment oracle: kinds,
root counts and every pass/fail exactly, angles and defects within the
engine's stated bound."""

import json
import math
from itertools import accumulate, chain

import numpy as np
import pytest
from conftest import lu_rotated, random_channel, sparse_channel
from hypothesis import given, settings
from hypothesis import strategies as st

import angles_oracle
import telecrit.angles as angles
from outcome_oracle import permute_qubits, relabeling
from telecrit import (
    KIND_ALL,
    KIND_DISCRETE,
    KIND_NONE,
    RoleAssignment,
    classify_theta,
    criterion_check,
    enumerate_assignments,
    named_state,
    scan,
)
from telecrit.teleport import _base_operators, _charlie_bras

CATALOG = ("brown", "man_m5", "ghz5", "product_zero_n")
TOLERANCES = (1e-10, 0.5, 10.0)


def _channel(source, rng):
    """A dense, sparse or LU-rotated catalog channel (``lu_<name>``)."""
    if source == "dense":
        return random_channel(rng)
    if source == "sparse":
        return sparse_channel(rng)
    return lu_rotated(named_state(source[3:]), rng)


_gap = angles_oracle._half_period_gap

# how far a candidate may lie, on the circle of period pi/2, from the
# crossing, placed in closed form (worst seen: 4.4e-16 on the sparse
# channels below); from a stationary angle of the coefficients that
# mpmath places at 50 digits, when no other root of the quartic lies
# within 1e-3 (worst seen: 2.6e-13 on the sparse channels below, near the
# hard case, where an eigenvalue's rounding is divided by its distance to
# an eigenvalue of K); and from one of a cluster of roots, which rounding
# moves by up to eps^(1/3) for a triple root
_CANDIDATE_BOUND = 1e-14
_STATIONARY_BOUND = 1e-12
_CLUSTER_BOUND = 1e-5


def _assert_covers(thetas, coefficients):
    """A row's candidate list has node 0 first, and a candidate near the
    crossing, where (a1, b1) != 0, and near each real stationary angle of
    branch + of the profile with these coefficients."""
    a1, b1 = coefficients[:2]
    assert thetas[0] == 0.0
    if a1 or b1:
        crossing = math.atan2(b1, a1) / 2 + math.pi / 4
        assert min(_gap(crossing, x) for x in thetas) <= _CANDIDATE_BOUND
    for theta, separation in angles_oracle.stationary_angles(*coefficients):
        bound = _STATIONARY_BOUND if separation > 1e-3 else _CLUSTER_BOUND
        assert min(_gap(theta, x) for x in thetas) <= bound


def _assert_classification_matches(got, want, channel, assignment):
    """Kinds and root counts equal; roots and min_defect within _GRAM_BOUND;
    argmin_theta equal, or a candidate whose criterion defect is within
    2 _GRAM_BOUND of the oracle's min_defect."""
    assert got.kind == want.kind
    assert (got.roots is None) == (want.roots is None)
    if want.roots is not None:
        assert len(got.roots) == len(want.roots)
        assert all(abs(a - b) <= angles._GRAM_BOUND for a, b in zip(got.roots, want.roots))
    assert abs(got.min_defect - want.min_defect) <= angles._GRAM_BOUND
    if got.argmin_theta != want.argmin_theta:
        defect = max(criterion_check(channel, assignment, got.argmin_theta)[2:4])
        assert abs(defect - want.min_defect) <= 2 * angles._GRAM_BOUND


def _assert_scan_matches(channel, tol):
    """Entries keyed by assignment match as classifications do, purities to
    the bit, and the engine's entries keep the sort rule: working-first,
    then min_defect, then assignment order."""
    got = scan(channel, tol).entries
    want = {e.assignment: e for e in angles_oracle.scan(channel, tol).entries}
    assert len(got) == len(want) == 30
    for entry in got:
        other = want[entry.assignment]
        _assert_classification_matches(
            entry.classification, other.classification, channel, entry.assignment
        )
        assert (entry.purity_alice, entry.purity_bob) == (other.purity_alice, other.purity_bob)
    order = {a: k for k, a in enumerate(enumerate_assignments())}
    keys = [
        (angles._KIND_ORDER[e.classification.kind], e.classification.min_defect, order[e.assignment])
        for e in got
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", [*CATALOG, "lu_brown_1", "lu_brown_2", "lu_brown_20"])
def test_catalog_matches_oracle(name):
    # brown under these local unitaries places roots by two candidates a few
    # ulps apart, whose defects tie far within _GRAM_BOUND
    if name.startswith("lu_"):
        source, seed = name.rsplit("_", 1)
        channel = _channel(source, np.random.default_rng(int(seed)))
    else:
        channel = named_state(name)
    for tol in TOLERANCES:
        _assert_scan_matches(channel, tol)
        for assignment in enumerate_assignments():
            got = classify_theta(channel, assignment, tol)
            want = angles_oracle.classify_theta(channel, assignment, tol)
            _assert_classification_matches(got, want, channel, assignment)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", *CATALOG)),
    st.sampled_from(TOLERANCES),
)
@settings(max_examples=20, deadline=None)
def test_random_channels_match_oracle(seed, source, tol):
    # dense random amplitudes, or a catalog state under random local unitaries
    rng = np.random.default_rng(seed)
    if source == "dense":
        channel = random_channel(rng)
    else:
        channel = lu_rotated(named_state(source), rng)
    _assert_scan_matches(channel, tol)
    # classify_theta also takes assignments outside the 30 of the scan
    base = enumerate_assignments()[int(rng.integers(30))]
    alice, bob = base.alice, base.bob
    if rng.integers(2):
        alice, bob = alice[::-1], bob[::-1]
    assignment = RoleAssignment(alice, bob, base.charlie)
    got = classify_theta(channel, assignment, tol)
    want = angles_oracle.classify_theta(channel, assignment, tol)
    _assert_classification_matches(got, want, channel, assignment)


@pytest.mark.parametrize("seed", [492, 1365, 3472600])
def test_flat_profiles_break_ties_by_candidate_order(seed):
    # man_m5 under these local unitaries has rows whose profile is flat, so
    # the candidates' values differ only in their last bits; engine and
    # oracle both take the first candidate within 4 ulps of the least,
    # node 0 on a flat row, so ulp noise does not move the argmin
    channel = lu_rotated(named_state("man_m5"), np.random.default_rng(seed))
    _assert_scan_matches(channel, 1e-10)
    flat = 0
    for entry in scan(channel, 1e-10).entries:
        defects = [
            max(criterion_check(channel, entry.assignment, theta)[2:4])
            for theta in np.linspace(0.0, math.pi / 2, 17).tolist()
        ]
        if max(defects) - min(defects) <= 1e-12:
            flat += 1
            assert entry.classification.argmin_theta == 0.0
    assert flat > 0


# how far the engine's profile coefficients may lie from the oracle's: each
# is at most twice a dot of 32 real products of two of P, Q and R, whose
# norms are at most 10 on a normalized channel (see _GRAM_BOUND).  Each
# route's dot rounds within 32 ulps of 100, and the ~1e-14 errors of its
# inputs add 2e-13, so each coefficient lies within 1.1e-12 of the exact
# one and the routes within 1e-11 of each other (worst seen: 5.3e-15 on
# 6,000 rows of sparse channels)
_COEFFICIENT_BOUND = 1e-11


def test_sparse_channels_match_np_roots_route():
    """Sparse signed-integer channels reach rows with a2 = b2 = 0 and
    (a1, b1) != 0, where K = 0 and the eigenproblem alone places b's own
    direction.  Their scans match the oracle's, whose candidates come from
    np.roots, at every tol.  Every row's coefficients are the oracle's
    within _COEFFICIENT_BOUND, and the candidates the engine places from
    them cover node 0, the crossing and the stationary angles of the same
    coefficients (_assert_covers).  The candidates are checked at the
    engine's own coefficients, as they do not follow the coefficients'
    last bits continuously: where a coefficient that is 0 in exact
    arithmetic rounds to ~1e-16 on one side, that side's profile may have
    stationary angles the other's lacks.  The candidates are measured
    against mpmath's roots, not np.roots': on rows of these channels whose
    quartic in t has a lead near 0, np.roots places stationary angles up
    to 1.3e-8 from mpmath's."""
    harmonic = False
    rng = np.random.default_rng(1401)
    for _ in range(20):
        channel = sparse_channel(rng)
        for tol in TOLERANCES:
            _assert_scan_matches(channel, tol)
        arranged = channel.amplitudes[angles._GATHER]
        coeffs = angles._coefficients(arranged)[1]
        for row, got, found in zip(arranged, coeffs.tolist(), angles._candidate_sets(coeffs)):
            want = angles_oracle._coefficients(row)
            assert all(abs(x - y) <= _COEFFICIENT_BOUND for x, y in zip(got, want))
            _assert_covers(found, got)
            harmonic |= got[2] == got[3] == 0 and (got[0] or got[1]) != 0
    assert harmonic


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", "sparse", *(f"lu_{name}" for name in CATALOG))),
    st.sampled_from((1e-10, 1e-3, 0.5)),
)
@settings(max_examples=30, deadline=None)
def test_eigenproblem_route_matches_z_route(seed, source, tol):
    """Candidates from the constrained-quadratic eigenproblem give the
    verdicts of the rule they replaced, computed through the complex
    quartic in z = exp(2i theta): the crossing, arg(z)/2 of np.roots' roots
    and the nodes k pi/8.  Equal kinds and root counts, and roots, minima
    and the criterion's defect at both argmins within 1e-12."""
    rng = np.random.default_rng(seed)
    channel = _channel(source, rng)
    arranged = channel.amplitudes[angles._GATHER]
    eigen_route = angles._classify(arranged, tol)

    def z_route(coeffs):
        return [
            angles_oracle.candidates_of(*row, angles_oracle.z_root_angles).tolist()
            for row in coeffs.tolist()
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(angles, "_candidate_sets", z_route)
        z_classes = angles._classify(arranged, tol)
    for assignment, got, want in zip(angles._CLASSES, eigen_route, z_classes, strict=True):
        assert got.kind == want.kind
        assert (got.roots is None) == (want.roots is None)
        if want.roots is not None:
            assert len(got.roots) == len(want.roots)
            assert all(abs(a - b) < 1e-12 for a, b in zip(got.roots, want.roots))
        assert abs(got.min_defect - want.min_defect) < 1e-12
        for cls in (got, want):
            report = criterion_check(channel, assignment, cls.argmin_theta, tol)
            defect = max(report.sigma111_defect, report.sigma112_defect)
            assert abs(defect - got.min_defect) < 1e-12


def _assert_half_period_matches_full(channel, tol):
    # the half-period rule against the full-period rule it replaced, and
    # the reported minimum against the criterion at the reported angle
    for assignment in enumerate_assignments():
        got = classify_theta(channel, assignment, tol)
        want = angles_oracle.classify_theta_full_period(channel, assignment, tol)
        assert got.kind == want.kind
        assert (got.roots is None) == (want.roots is None)
        if want.roots is not None:
            assert len(got.roots) == len(want.roots)
            for a, b in zip(got.roots, want.roots):
                assert abs(a - b) < 1e-12
        assert abs(got.min_defect - want.min_defect) < 1e-12
        assert 0.0 <= got.argmin_theta < math.pi / 2
        report = criterion_check(channel, assignment, got.argmin_theta, tol)
        defect = max(report.sigma111_defect, report.sigma112_defect)
        assert abs(defect - got.min_defect) < 1e-12


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_half_period_matches_full_period(name):
    channel = named_state(name)
    for tol in TOLERANCES:
        _assert_half_period_matches_full(channel, tol)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", *CATALOG)),
    st.sampled_from(TOLERANCES),
)
@settings(max_examples=20, deadline=None)
def test_random_channels_half_period_matches_full_period(seed, source, tol):
    rng = np.random.default_rng(seed)
    if source == "dense":
        channel = random_channel(rng)
    else:
        channel = lu_rotated(named_state(source), rng)
    _assert_half_period_matches_full(channel, tol)


@pytest.mark.parametrize("source", ["brown", "man_m5", "dense", "lu_brown"])
def test_batched_defects_are_criterion_arithmetic(source, monkeypatch):
    """A candidate re-checked in the tol band gets criterion_check's reported
    max defect there, to the bit, for both assignments of its role class:
    with an infinite band every candidate is re-checked.  With the engine's
    band, every value is within _GRAM_BOUND of them.  Every row's candidate
    list covers node 0, the crossing and the stationary angles of the
    oracle's coefficients for that row (_assert_covers)."""
    rng = np.random.default_rng(17)
    channel = named_state(source) if source in CATALOG else _channel(source, rng)
    arranged = channel.amplitudes[angles._GATHER]
    blocks, coeffs = angles._coefficients(arranged)
    thetas = angles._candidate_sets(coeffs)
    for oriented, row in zip(angles._CLASSES, thetas, strict=True):
        grid = permute_qubits(channel, relabeling(oriented)).amplitudes.reshape([2] * 5)
        _assert_covers(row, angles_oracle._coefficients(grid))
    starts = list(accumulate(map(len, thetas), initial=0))

    def criterion_values(assignment, k):
        reports = (criterion_check(channel, assignment, theta) for theta in thetas[k])
        return [max(report.sigma111_defect, report.sigma112_defect) for report in reports]

    want = list(chain.from_iterable(map(criterion_values, angles._CLASSES, range(15))))
    for tol in (1e-10, 0.5, 10.0):
        values = angles._profiles(arranged, blocks, thetas, tol)
        assert len(values) == len(want)
        assert all(abs(value - exact) <= angles._GRAM_BOUND for value, exact in zip(values, want))
    monkeypatch.setattr(angles, "_GRAM_BOUND", math.inf)
    rechecked = angles._profiles(arranged, blocks, thetas, 1e-10)
    for assignment, k in zip(angles._ASSIGNMENTS, angles._CLASS_OF, strict=True):
        assert rechecked[starts[k] : starts[k + 1]] == criterion_values(assignment, k)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", "sparse", *(f"lu_{name}" for name in CATALOG))),
)
@settings(max_examples=30, deadline=None)
def test_gram_values_are_within_their_bound_of_the_criterion(seed, source):
    """The Gram value max ||P +- (cos 2theta Q + sin 2theta R)||_F at every
    candidate of every row is criterion_check's max(d1, d2) there within
    _GRAM_BOUND; tol = -1 keeps the re-check band empty."""
    channel = _channel(source, np.random.default_rng(seed))
    arranged = channel.amplitudes[angles._GATHER]
    blocks, coeffs = angles._coefficients(arranged)
    thetas = angles._candidate_sets(coeffs)
    values = iter(angles._profiles(arranged, blocks, thetas, -1.0))
    for assignment, row in zip(angles._CLASSES, thetas, strict=True):
        for theta in row:
            report = criterion_check(channel, assignment, theta)
            exact = max(report.sigma111_defect, report.sigma112_defect)
            assert abs(next(values) - exact) <= angles._GRAM_BOUND


def test_tolerance_at_a_root_defect_decides_as_the_criterion(monkeypatch):
    """tol set to the criterion's own defect at a brown root, and to its
    float neighbours on both sides: the Gram value lies within the band, so
    the engine re-checks it, and scan and classify_theta pass exactly the
    candidates criterion_check passes.  The same at the argmin of a none
    row of a seeded dense channel, whose defect is of order 1."""
    brown = named_state("brown")
    assignment = RoleAssignment((1, 3), (2, 4), 5)
    root = classify_theta(brown, assignment).argmin_theta
    defect = max(criterion_check(brown, assignment, root)[2:4])
    assert 0.0 < defect < angles._GRAM_BOUND
    dense = random_channel(np.random.default_rng(20091119))
    row = next(e for e in scan(dense).entries if e.classification.kind == KIND_NONE)
    at = row.classification.argmin_theta
    rechecked = []
    defects = angles._defects
    monkeypatch.setattr(angles, "_defects", lambda m: rechecked.append(len(m)) or defects(m))
    for channel, assignment, theta in ((brown, assignment, root), (dense, row.assignment, at)):
        defect = max(criterion_check(channel, assignment, theta)[2:4])
        for tol in (math.nextafter(defect, 0.0), defect, math.nextafter(defect, math.inf)):
            rechecked.clear()
            passed = criterion_check(channel, assignment, theta, tol).passed
            assert passed == (tol >= defect)
            got = classify_theta(channel, assignment, tol)
            assert rechecked
            assert got.kind == (KIND_DISCRETE if passed else KIND_NONE)
            assert got.argmin_theta == theta and got.min_defect == defect
            entries = {e.assignment: e.classification for e in scan(channel, tol).entries}
            assert entries[assignment] == got
            for other, cls in entries.items():
                at_argmin = criterion_check(channel, other, cls.argmin_theta, tol).passed
                assert at_argmin == (cls.kind != KIND_NONE)
                for root_theta in cls.roots or ():
                    if root_theta < math.pi / 2:  # a candidate; r + pi/2 is its shift
                        assert criterion_check(channel, other, root_theta, tol).passed


@pytest.mark.parametrize(
    "alice, bob, charlie", [((1, 3), (2, 5), 4), ((1, 2), (3, 5), 4)], ids=["none", "all_theta"]
)
def test_tolerance_at_a_flat_row_defect_decides_as_the_criterion_at_node_0(
    alice, bob, charlie, monkeypatch
):
    """man_m5's flat rows, a none one and an all_theta one, have coefficients
    all 0 and node 0 alone for a candidate.  With tol at the criterion's
    defect there, and at its float neighbours, node 0 is re-checked, and
    every flat row of scan and classify_theta is all_theta where
    criterion_check passes at 0 and none where it fails, never discrete."""
    man = named_state("man_m5")
    assignment = RoleAssignment(alice, bob, charlie)
    arranged = man.amplitudes[angles._GATHER]
    flat = [not row.any() for row in angles._coefficients(arranged)[1]]
    defect = max(criterion_check(man, assignment, 0.0)[2:4])
    rechecked = []
    defects = angles._defects
    monkeypatch.setattr(angles, "_defects", lambda m: rechecked.append(len(m)) or defects(m))
    for tol in (math.nextafter(defect, 0.0), defect, math.nextafter(defect, 3.0)):
        rechecked.clear()
        got = classify_theta(man, assignment, tol)
        assert rechecked == [2]  # node 0, both outcomes
        passed = criterion_check(man, assignment, 0.0, tol).passed
        assert passed == (tol >= defect)
        assert got == (KIND_ALL if passed else KIND_NONE, None, defect, 0.0)
        entries = {e.assignment: e.classification for e in scan(man, tol).entries}
        assert entries[assignment] == got
        for other, is_flat in zip(angles._CLASSES, flat, strict=True):
            if is_flat:
                cls = entries[other]
                passed = criterion_check(man, other, 0.0, tol).passed
                assert cls.kind == (KIND_ALL if passed else KIND_NONE)
                assert cls.argmin_theta == 0.0


# |d_old - d| for the two forms of one defect, ||M^H M - I|| and ||M M^H - I||
# (the swapped orientation's): every entry of either gap is a 4-term sum of
# products whose moduli sum to at most ||M||_F^2 <= 8 on a normalized channel,
# so each rounds within ~1e-14 and the two norms within 4 times that
_ORIENTATION_BOUND = 1e-13


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", "sparse", *(f"lu_{name}" for name in CATALOG))),
    st.sampled_from((1e-10, 1e-3, 0.5)),
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)
@settings(max_examples=30, deadline=None)
def test_swapped_pairs_share_one_role_class(seed, source, tol, theta):
    """(A, B, c) and (B, A, c) get the same criterion defects, classification
    and scan entry, to the bit, within-role order as drawn; each scan entry's
    min_defect is the criterion's at its argmin within _GRAM_BOUND; and the defects
    of the unswapped operators, in their own orientation, agree with the
    reported ones within _ORIENTATION_BOUND, with the same verdicts."""
    rng = np.random.default_rng(seed)
    channel = _channel(source, rng)
    entries = {e.assignment: e.classification for e in scan(channel, tol).entries}
    for assignment, cls in entries.items():
        swap = RoleAssignment(assignment.bob, assignment.alice, assignment.charlie)
        assert json.dumps(cls) == json.dumps(entries[swap])  # signed zeros included
        report = criterion_check(channel, assignment, cls.argmin_theta, tol)
        defect = max(report.sigma111_defect, report.sigma112_defect)
        assert abs(defect - cls.min_defect) <= angles._GRAM_BOUND
        alice, bob = assignment.alice, assignment.bob
        if rng.integers(2):
            alice, bob = alice[::-1], bob[::-1]
        pair = RoleAssignment(alice, bob, assignment.charlie)
        swap = RoleAssignment(bob, alice, assignment.charlie)
        assert classify_theta(channel, pair, tol) == classify_theta(channel, swap, tol)
        assert classify_theta(channel, assignment, tol) == cls
        here = criterion_check(channel, pair, theta, tol)
        there = criterion_check(channel, swap, theta, tol)
        assert here[2:5] == there[2:5]
        # the old form: each unswapped operator's defect in its own orientation
        grid = permute_qubits(channel, relabeling(pair)).amplitudes.reshape([2] * 5)
        for m, reported in zip(_base_operators(grid, _charlie_bras(theta)), here[2:4]):
            old = float(np.linalg.norm(m.conj().T @ m - np.eye(4)))
            assert abs(old - reported) <= _ORIENTATION_BOUND
            if abs(reported - tol) > _ORIENTATION_BOUND:
                assert (old <= tol) == (reported <= tol)


def test_gather_table_matches_permute_qubits():
    # each assignment's row arranges its role class orientation
    channel = random_channel(np.random.default_rng(23))
    for assignment, k in zip(enumerate_assignments(), angles._CLASS_OF, strict=True):
        oriented = angles_oracle.class_orientation(assignment)
        arranged = permute_qubits(channel, relabeling(oriented)).amplitudes
        assert np.array_equal(channel.amplitudes[angles._GATHER[k]], arranged)


@pytest.mark.parametrize("width", [2, 6])
def test_scan_refuses_other_widths(width):
    channel = named_state("product_zero_n", width)
    with pytest.raises(ValueError, match="five-qubit"):
        scan(channel)
