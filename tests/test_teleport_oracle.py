"""The batched contraction engine agrees with the per-outcome oracle."""

import itertools
import math

import numpy as np
import pytest
from conftest import random_channel, random_input
from hypothesis import given, settings
from hypothesis import strategies as st

import outcome_oracle
import telecrit.teleport as teleport
from telecrit import (
    PAULI_FACTORS,
    RoleAssignment,
    enumerate_assignments,
    named_state,
    pauli_factorization_check,
    simulate,
    transformation_operator,
)

CATALOG = ("brown", "man_m5", "ghz5", "product_zero_n")
THETAS = (0.0, math.pi / 4, 1.1)
OUTCOMES = [(i, j, n) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4) for n in (1, 2)]
TOL = 1e-12


def _assert_agrees(channel, assignment, theta, input_state):
    for outcome in OUTCOMES:
        got = transformation_operator(channel, assignment, *outcome, theta)
        want = outcome_oracle.transformation_operator(channel, assignment, *outcome, theta)
        assert np.max(np.abs(got - want)) < TOL

    got = pauli_factorization_check(channel, assignment, theta)
    want = outcome_oracle.pauli_factorization_check(channel, assignment, theta)
    assert got.holds is want.holds is True
    assert abs(got.max_deviation - want.max_deviation) < TOL

    got = simulate(channel, assignment, theta, input_state)
    want = outcome_oracle.simulate(channel, assignment, theta, input_state)
    assert [r.outcome for r in got] == [r.outcome for r in want] == OUTCOMES
    for left, right in zip(got, want):
        assert abs(left.probability - right.probability) < TOL
        assert abs(left.fidelity - right.fidelity) < TOL
        assert np.max(np.abs(left.bob_corrected - right.bob_corrected)) < TOL


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_agrees_with_outcome_oracle(name):
    channel = named_state(name)
    rng = np.random.default_rng(5)
    for assignment in enumerate_assignments():
        for theta in THETAS:
            _assert_agrees(channel, assignment, theta, random_input(rng))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
)
@settings(max_examples=10, deadline=None)
def test_random_channels_agree_with_outcome_oracle(seed, theta):
    rng = np.random.default_rng(seed)
    channel = random_channel(rng)
    assignment = enumerate_assignments()[int(rng.integers(30))]
    _assert_agrees(channel, assignment, theta, random_input(rng))


def test_factorization_compares_every_outcome(brown, monkeypatch):
    # a wrong factor for Bell outcome 4 touches only the 14 outcomes with
    # a 4 in them, never the base pair (1, 1), so a check that skipped
    # outcomes could miss it
    factors = {**PAULI_FACTORS, 4: PAULI_FACTORS[4].T}
    # the check reads the factor table, so swap in one built from the
    # corrupted krons as the real one is from PAULI_FACTORS
    corrupted = np.hstack(
        [np.kron(f, g) for f, g in itertools.product(factors.values(), repeat=2)]
    )
    monkeypatch.setattr(teleport, "_FACTOR_TABLE", corrupted)
    report = pauli_factorization_check(brown, RoleAssignment((1, 2), (3, 4), 5), 0.3)
    assert report.holds is False
    assert report.max_deviation >= 0.5
