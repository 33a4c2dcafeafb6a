"""Partial trace, the purity summary, the closed-form pair-purity expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telecrit.entanglement as entanglement
from outcome_oracle import purity_expansion
from telecrit import (
    PAIR_PURITY_TARGET,
    PureState,
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
    scan,
    simulate,
    tensor,
    transformation_operator,
)


def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(named_state("bell_phi_plus"), (1,))
    assert np.max(np.abs(rho - 0.5 * np.eye(2))) < 1e-15
    assert abs(purity(rho) - 0.5) < 1e-15


def test_partial_trace_product_state_stays_pure():
    s = tensor(named_state("bell_psi_plus"), PureState(1, [0, 1]))
    rho = partial_trace(s, (3,))
    assert abs(purity(rho) - 1.0) < 1e-14
    assert abs(rho[1, 1] - 1.0) < 1e-15


def test_partial_trace_ghz_pair():
    rho = partial_trace(named_state("ghz5"), (1, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-15
    assert abs(purity(rho) - 0.5) < 1e-15


def test_partial_trace_keep_validation(brown):
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(brown, ())
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(brown, (0, 6))
    # labels are plain ints: no float, and no bool read as qubit 1
    for keep in ((1.5,), (True, 2), (1, True), (np.float64(2.0),)):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(brown, keep)
    with pytest.raises(ValueError, match="trace out"):
        partial_trace(brown, (1, 2, 3, 4, 5))


def test_density_matrix_validation(brown):
    # a reduction of a unit state is Hermitian with unit trace by construction
    rng = np.random.default_rng(7)
    s = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    for keep in ((1,), (2, 5), (1, 3, 4)):
        rho = partial_trace(s, keep)
        assert rho.shape == (2 ** len(keep),) * 2
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-12
    # an unnormalized state's reduction is refused
    with pytest.raises(ValueError, match="trace must be 1"):
        partial_trace(PureState(5, 2 * brown.amplitudes), (1, 2))


def test_unnormalized_channel_is_refused(brown):
    # PureState keeps amplitudes as given; every channel reader refuses one
    # whose squared norm is off 1, an overflowing one too, and keeps no
    # record of it, so every reader raises again on a second call
    assignment, x = RoleAssignment((1, 2), (3, 4), 5), make_state(2, [1, 0, 0, 0])
    for channel in (PureState(5, 2 * brown.amplitudes), PureState(5, 1e160 * brown.amplitudes)):
        for _ in range(2):
            with pytest.raises(ValueError, match="trace must be 1"):
                scan(channel)
            with pytest.raises(ValueError, match="trace must be 1"):
                criterion_check(channel, assignment, 0.0)
            with pytest.raises(ValueError, match="trace must be 1"):
                purity_summary(channel)
            with pytest.raises(ValueError, match="trace must be 1"):
                simulate(channel, assignment, 0.0, x)
            with pytest.raises(ValueError, match="trace must be 1"):
                pauli_factorization_check(channel, assignment, 0.0)
            with pytest.raises(ValueError, match="trace must be 1"):
                transformation_operator(channel, assignment, 1, 1, 1, 0.0)
            with pytest.raises(ValueError, match="trace must be 1"):
                classify_theta(channel, assignment)


@pytest.mark.parametrize("drift, accepted", [
    (0.9e-12, True), (-0.9e-12, True), (1.1e-12, False), (-1.1e-12, False),
])
def test_channel_norm_boundary(brown, drift, accepted):
    """A channel is accepted while its squared norm is within NORM_TOL of 1."""
    channel = PureState(5, math.sqrt(1.0 + drift) * brown.amplitudes)
    assignment, x = RoleAssignment((1, 2), (3, 4), 5), make_state(2, [1, 0, 0, 0])
    if accepted:
        assert len(simulate(channel, assignment, 0.0, x)) == 32
    else:
        with pytest.raises(ValueError, match="trace must be 1"):
            simulate(channel, assignment, 0.0, x)


def _spy_on_partial_trace(monkeypatch):
    """Count entanglement.partial_trace calls by kept-set size."""
    calls = {1: 0, 2: 0}
    real = entanglement.partial_trace

    def spy(s, keep):
        calls[len(keep)] += 1
        return real(s, keep)

    monkeypatch.setattr(entanglement, "partial_trace", spy)
    return calls


def test_pair_purities_are_traced_once_per_channel(monkeypatch):
    rng = np.random.default_rng(12)
    channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    calls = _spy_on_partial_trace(monkeypatch)
    scan(channel)
    assignments = [*enumerate_assignments(), RoleAssignment((2, 1), (4, 3), 5)]
    for assignment in assignments:
        for theta in (0.0, 0.3, 1.2):
            criterion_check(channel, assignment, theta)
    summary = purity_summary(channel)
    assert calls == {1: 5, 2: 10}
    # a distinct but equal channel object computes its own purities
    twin = PureState(5, channel.amplitudes)
    assert purity_summary(twin) == summary
    assert calls == {1: 10, 2: 20}


def test_purity_of_maximally_mixed_pair():
    assert purity(np.eye(4) / 4.0) == pytest.approx(0.25, abs=1e-15)
    assert PAIR_PURITY_TARGET == 0.25


def test_man_purity_table(man):
    doc = purity_summary(man)
    for pair, value in doc["pairs"].items():
        expected = 0.5 if pair in ("13", "24") else 0.25
        assert abs(value - expected) < 1e-12, pair
    for q, value in doc["singles"].items():
        assert abs(value - 0.5) < 1e-12, q


def test_brown_purity_table(brown):
    doc = purity_summary(brown)
    assert len(doc["pairs"]) == 10
    for pair, value in doc["pairs"].items():
        assert abs(value - 0.25) < 1e-12, pair
    for q, value in doc["singles"].items():
        assert abs(value - 0.5) < 1e-12, q


def test_purity_table_needs_five_qubits():
    with pytest.raises(ValueError, match="five"):
        purity_summary(named_state("bell_phi_plus"))


def test_purity_expansion_matches_partial_trace(man, brown):
    for state in (man, brown, named_state("ghz5")):
        direct = purity(partial_trace(state, (1, 2)))
        assert abs(purity_expansion(state) - direct) < 1e-12
    assert abs(purity_expansion(man) - 0.25) < 1e-12
    assert abs(purity_expansion(brown) - 0.25) < 1e-12
    with pytest.raises(ValueError, match="five"):
        purity_expansion(named_state("bell_phi_plus"))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_purity_expansion_oracle_random(seed):
    rng = np.random.default_rng(seed)
    s = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert abs(purity_expansion(s) - purity(partial_trace(s, (1, 2)))) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_complementary_reductions_share_purity(seed):
    # for a pure joint state both halves of any cut have equal purity
    rng = np.random.default_rng(seed)
    s = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert abs(
        purity(partial_trace(s, (1, 4))) - purity(partial_trace(s, (2, 3, 5)))
    ) < 1e-12


def test_mmes_verdicts(man, brown):
    good = purity_summary(brown)
    assert good["mmes"] is True
    assert good["max_deviation"] < 1e-12

    bad = purity_summary(man)
    assert bad["mmes"] is False
    assert bad["worst_pair"] == "13"
    assert abs(bad["max_deviation"] - 0.25) < 1e-12

    flat = purity_summary(named_state("product_zero_n"))
    assert flat["mmes"] is False
    assert flat["worst_pair"] == "12"  # lexicographic tie-break on equal deviation
    assert abs(flat["max_deviation"] - 0.75) < 1e-12


def test_mmes_tolerance_is_respected(man):
    assert purity_summary(man, tol=0.3)["mmes"] is True


def test_purity_summary_shape(brown):
    doc = purity_summary(brown)
    assert sorted(doc) == ["max_deviation", "mmes", "pairs", "singles", "worst_pair"]
    assert sorted(doc["pairs"]) == [
        "12", "13", "14", "15", "23", "24", "25", "34", "35", "45",
    ]
    assert sorted(doc["singles"]) == ["1", "2", "3", "4", "5"]
    assert doc["mmes"] is True
    assert doc["worst_pair"] == "12"
    assert doc["max_deviation"] < 1e-12


def test_criterion_purities_equal_scan_and_summary_bit_for_bit():
    # every pair purity comes from one route, so criterion, scan and the
    # summary report the same float, whatever the within-role order
    rng = np.random.default_rng(1)
    for _ in range(4):
        channel = make_state(5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        pairs = purity_summary(channel)["pairs"]
        for entry in scan(channel).entries:
            a = entry.assignment
            alice, bob = pairs["%d%d" % a.alice], pairs["%d%d" % a.bob]
            assert (entry.purity_alice, entry.purity_bob) == (alice, bob)
            for assignment in (a, RoleAssignment(a.alice[::-1], a.bob[::-1], a.charlie)):
                report = criterion_check(channel, assignment, 0.3)
                assert (report.purity_alice_pair, report.purity_bob_pair) == (alice, bob)
