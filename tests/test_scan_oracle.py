"""The batched angle engine agrees exactly with the per-assignment oracle."""

import json
import math

import numpy as np
import pytest
from conftest import lu_rotated, random_channel
from hypothesis import given, settings
from hypothesis import strategies as st

import angles_oracle
import telecrit.angles as angles
from outcome_oracle import permute_qubits
from telecrit import (
    RoleAssignment,
    classify_theta,
    criterion_check,
    enumerate_assignments,
    make_state,
    named_state,
    scan,
)
from telecrit.teleport import _base_operators, _charlie_bras

CATALOG = ("brown", "man_m5", "ghz5", "product_zero_n")
TOLERANCES = (1e-10, 0.5, 10.0)


def _assert_scan_matches(channel, tol):
    got = scan(channel, tol).as_dicts()
    want = angles_oracle.scan(channel, tol).as_dicts()
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # signed zeros included


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_matches_oracle(name):
    channel = named_state(name)
    for tol in TOLERANCES:
        _assert_scan_matches(channel, tol)
        for assignment in enumerate_assignments():
            got = classify_theta(channel, assignment, tol)
            assert got == angles_oracle.classify_theta(channel, assignment, tol)


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
    assert got == angles_oracle.classify_theta(channel, assignment, tol)


def _gap(x, y):
    """Distance of two angles on the circle of period pi/2."""
    return min(abs(x - y), math.pi / 2 - abs(x - y))


def test_sparse_channels_match_np_roots_route(monkeypatch):
    # sparse signed-integer channels reach rows with a2 = b2 = 0 and h != 0,
    # whose stationary angle the engine places in closed form, not by np.roots
    harmonic = []
    root_angles = angles._root_angles

    def spy(quartics):
        harmonic.extend(q[0] == 0 and q[1] != 0 for q in quartics)
        return root_angles(quartics)

    monkeypatch.setattr(angles, "_root_angles", spy)
    rng = np.random.default_rng(1401)
    for _ in range(20):
        amplitudes = np.zeros(32)
        k = int(rng.integers(2, 17))
        amplitudes[rng.choice(32, size=k, replace=False)] = rng.choice([-1, 1], size=k)
        channel = make_state(5, amplitudes)
        for tol in TOLERANCES:
            _assert_scan_matches(channel, tol)
        arranged = channel.amplitudes[angles._GATHER]
        for row, got in zip(arranged, angles._candidate_sets(arranged)):
            want = angles_oracle._candidate_angles(row).tolist()
            if angles_oracle._coefficients(row)[2:] != (0.0, 0.0):
                assert got == want  # bit for bit
                continue
            # np.roots' quadratic gives the closed-form angle twice, within a
            # few ulps, and its appended zero root is node 0: the same points
            # of the circle of period pi/2, to 4.5e-16
            assert all(min(_gap(x, y) for y in want) <= 4.5e-16 for x in got)
            assert all(min(_gap(x, y) for x in got) <= 4.5e-16 for y in want)
    assert any(harmonic)


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
def test_batched_defects_are_criterion_arithmetic(source):
    # every value the verdicts read is the criterion's own defect, to the bit
    rng = np.random.default_rng(17)
    if source == "dense":
        channel = random_channel(rng)
    elif source == "lu_brown":
        channel = lu_rotated(named_state("brown"), rng)
    else:
        channel = named_state(source)
    arranged = channel.amplitudes[angles._GATHER]
    thetas = angles._candidate_sets(arranged)
    values = iter(angles._profiles(arranged, thetas))
    for assignment, row in zip(enumerate_assignments(), thetas):
        grid = permute_qubits(channel, assignment.relabeling()).amplitudes.reshape([2] * 5)
        assert row == angles_oracle._candidate_angles(grid).tolist()
        for theta in row:
            # the single-matrix form, one base operator at a time
            base = _base_operators(grid, _charlie_bras(theta))[:, 0]
            want = max(float(np.linalg.norm(m.conj().T @ m - np.eye(4))) for m in base)
            assert next(values) == want
    assert next(values, None) is None


def test_gather_table_matches_permute_qubits():
    channel = random_channel(np.random.default_rng(23))
    for row, assignment in zip(angles._GATHER, enumerate_assignments()):
        arranged = permute_qubits(channel, assignment.relabeling()).amplitudes
        assert np.array_equal(channel.amplitudes[row], arranged)


@pytest.mark.parametrize("width", [2, 6])
def test_scan_refuses_other_widths(width):
    channel = named_state("product_zero_n", width)
    with pytest.raises(ValueError, match="five-qubit"):
        scan(channel)
