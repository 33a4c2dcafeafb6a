"""Assignment enumeration and basis-angle classification."""

import math
import os
import subprocess
import sys
from itertools import combinations

import angles_oracle
import fingerprint
import numpy as np
import pytest
from conftest import kernel_outcomes, lu_rotated, random_channel
from hypothesis import example, given, settings
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


def test_verdict_dedupes_roots_across_pi():
    # minima at node 0 and just below pi/2 give the roots 0, pi/2 - 4e-7,
    # pi/2 and pi - 4e-7: pi/2 is within 1e-6 of the root before it, and
    # pi - 4e-7 only of root 0, across pi
    thetas = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2 - 4e-7]
    got = angles._verdict(thetas, [0.0, 1.0, 2.0, 1.0, 0.0], 1e-10)
    assert got == (KIND_DISCRETE, (0.0, PI / 2 - 4e-7), 0.0, 0.0)


_gap = angles_oracle._half_period_gap


def _quartic_rows(*rows):
    """(a1, b1, a2, b2) rows of (a1, b1, a2, b2, sign) rows: branch - (sign -1)
    negates the floats a1 and b1."""
    return [[a1, b1, a2, b2] if s > 0 else [-a1, -b1, a2, b2] for a1, b1, a2, b2, s in rows]


_QUARTIC_CASES = {
    # full quartics: t^4 and t^0 nonzero
    "quartic": [(0.4, -1.2, -0.7, 0.3, 1), (0.4, -1.2, -0.7, 0.3, -1), (0.0, 2.0, 2.0, 0.0, 1)],
    # b1 = b2 = 0, as in every catalog row: a quadratic in t and a zero root,
    # or a monomial when a1 = +-4 a2; a2 = b2 = 0 with h != 0, where K = 0
    "quadratic": [
        (0.0, 0.0, 2.0, 0.0, 1),
        (8.0, 0.0, 2.0, 0.0, 1),
        (-8.0, 0.0, 2.0, 0.0, 1),
        (1.0, 2.0, 0.0, 1.0, 1),  # b2 = b1/2: no t^4 term
        *((a1, b1, 0.0, 0.0, s) for a1, b1 in ((1.0, 0.0), (0.3, -2.5)) for s in (1, -1)),
    ],
    # all zero: no roots
    "zero": [(0.0, 0.0, 0.0, 0.0, 1)],
    # a sparse channel's row: t^4's coefficient is 0 and t^3's 4.4e-16, so one
    # root lies near 1e16, where a companion of t q(t) loses the small ones
    "tiny-lead": [
        (1.7777777777777786, 1.7777777777777788, 0.44444444444444475, 0.8888888888888894, 1)
    ],
    # signed zeros in every coefficient
    "signed-zero": [
        (-0.0, -0.0, -0.0, -0.0, 1),
        (-3.0, -0.0, 0.0, -0.0, 1),
        (-0.0, 2.0, -0.0, 0.0, -1),
        (-0.0, 2.0, -0.0, 0.0, 1),
        (-0.0, -0.0, -1.0, -0.0, 1),
        (-0.0, -0.0, 0.0, -1.0, 1),
    ],
}


@pytest.mark.parametrize("case", list(_QUARTIC_CASES))
def test_candidates_cover_the_real_roots_of_np_roots(case):
    mixed = _quartic_rows(
        *_QUARTIC_CASES[case], (0.4, -1.2, -0.7, 0.3, 1), (0.0, 0.0, 0.0, 0.0, 1)
    )
    if case == "signed-zero":
        # each coefficient column meets a -0.0
        parts = np.array(mixed)
        assert np.all(np.any((parts == 0) & np.signbit(parts), axis=0))
    # every real root of the quartic in t = tan theta, as np.roots finds it,
    # is a stationary angle within 1e-12 of a candidate, on the circle of
    # period pi/2
    for row, thetas in zip(mixed, angles._candidate_sets(np.array(mixed))):
        roots = np.roots(angles_oracle.tan_quartic(*row))
        for theta in np.arctan(roots[roots.imag == 0].real).tolist():
            assert min(_gap(theta, x) for x in thetas) <= 1e-12


def test_candidates_place_subnormal_coefficients():
    # a2 = 1 beside b2 = 5e-324: cos 4theta + 5e-324 sin 4theta is stationary
    # at 0 and pi/4, up to 1e-323; the quartic in t has the lead 5e-324,
    # where np.roots raises, as its companion matrix overflows
    (got,) = angles._candidate_sets(np.array([[0.0, 0.0, 1.0, 5e-324]]))
    assert got == pytest.approx([0.0, PI / 4], abs=1e-12)
    # man_m5 plus 1e-162 everywhere has rows with entries of 1e-161 down to
    # 3e-323, whose squares underflow unless the row is scaled first; far
    # below tol, it scans as man_m5 does
    channel = make_state(5, named_state("man_m5").amplitudes + 1e-162)
    got = {e.assignment: e.classification for e in scan(channel).entries}
    want = {e.assignment: e.classification for e in scan(named_state("man_m5")).entries}
    assert len(got) == 30
    for assignment, cls in want.items():
        assert (got[assignment].kind, got[assignment].roots) == (cls.kind, cls.roots)


def test_candidate_sets_fold_a_root_at_half_period_to_zero():
    # b2 = -1e-18 puts a stationary angle at -2.5e-19, and -2.5e-19 % (pi/2)
    # rounds to pi/2 itself, node 0 of the next period
    (thetas,) = angles._candidate_sets(np.array([[0.0, 0.0, 1.0, -1e-18]]))
    assert thetas == [0.0, pytest.approx(PI / 4, abs=1e-15)]


_TINY = st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1e-18, -1e-18, 5e-324, -5e-324))


@given(
    st.lists(
        st.tuples(
            *(st.one_of(_TINY, st.floats(-8.0, 8.0, allow_subnormal=False)) for _ in range(4)),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200, deadline=None)
def test_candidates_lie_in_half_period(rows):
    """Every candidate lies in [0, pi/2), node 0 included, for coefficients
    with tiny and signed-zero entries."""
    for thetas in angles._candidate_sets(np.array(rows)):
        assert thetas[0] == 0.0 and not math.copysign(1.0, thetas[0]) < 0
        assert all(0.0 <= theta < PI / 2 for theta in thetas)
        assert thetas == sorted(set(thetas))


def _profile(row, theta):
    """max(d1, d2)^2 - a0 at the angles ``theta``, from its coefficients."""
    a1, b1, a2, b2 = row
    harmonic = a1 * np.cos(2 * theta) + b1 * np.sin(2 * theta)
    return a2 * np.cos(4 * theta) + b2 * np.sin(4 * theta) + np.abs(harmonic)


_ENTRY = st.one_of(_TINY, st.sampled_from((3e-320, 1.0, -1.0)), st.floats(-8.0, 8.0))
_ZERO = st.sampled_from((0.0, -0.0))


@given(
    st.one_of(
        st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
        st.tuples(_ZERO, _ZERO, _ENTRY, _ENTRY),  # b = 0
        st.tuples(_ENTRY, _ZERO, _ENTRY, _ZERO),  # b1 = b2 = 0, as in the catalog
        st.tuples(_ENTRY, _ENTRY, _ZERO, _ZERO),  # a2 = b2 = 0: K = 0
    )
)
@example((1.0, 0.0, -1.0, 0.0))
@example((1e-18, 0.0, -1e-18, 5e-324))
@settings(max_examples=300, deadline=None)
def test_profile_is_monotone_between_candidates(row):
    """Between consecutive candidates, the last one and pi/2 included, the
    combined profile is monotone on a grid of 65 points, up to 1e-10 of its
    coefficients' scale and subnormal rounding: the verdicts read the
    profile at the candidates alone.  Row (1, 0, -1, 0) has its local
    maximum at cos 2theta = 1/4, which only the hard-case points place:
    b = (1/2, 0) lies on K's eigenvector of -1, and no eigenvalue's
    adj(K - lam I) b points there.  Row (1e-18, 0, -1e-18, 5e-324) is nearly
    that profile scaled by 1e-18; its quartic in t = tan theta has the lead
    5e-324, and the quartic's roots missed that maximum."""
    (thetas,) = angles._candidate_sets(np.array([row]))
    allowance = 1e-10 * sum(map(abs, row)) + 1e-320
    for start, stop in zip(thetas, [*thetas[1:], PI / 2]):
        values = _profile(row, np.linspace(start, stop, 65))
        # how far the values fall back after a high, and climb back after a low
        falls = np.max(np.maximum.accumulate(values) - values)
        climbs = np.max(values - np.minimum.accumulate(values))
        assert min(falls, climbs) <= allowance, (start, stop)


@pytest.mark.parametrize("name, rows", [("ghz5", 1), ("man_m5", 13), ("brown", 15)])
def test_scan_classifies_each_distinct_arrangement_once(monkeypatch, name, rows):
    # one row per role class at most: an assignment and its swap of the
    # sender and receiver pairs arrange alike, in the class's orientation
    classified = []
    candidate_sets = angles._candidate_sets

    def counting(coeffs):
        classified.append(len(coeffs))
        return candidate_sets(coeffs)

    monkeypatch.setattr(angles, "_candidate_sets", counting)
    assert len(scan(named_state(name)).entries) == 30
    assert classified == [rows]


@pytest.mark.parametrize(
    "name, rows, sets, placed",
    [
        ("ghz5", 1, 1, 2),
        ("man_m5", 13, 3, 16),
        ("brown", 15, 3, 25),
        ("dense", 15, 15, 129),
    ],
    ids=["ghz5-1", "man_m5-13", "brown-15", "dense-15"],
)
def test_scan_solves_one_quartic_per_distinct_arrangement(monkeypatch, name, rows, sets, placed):
    """Every distinct arranged row gets a candidate list, but the crossing,
    the eigenproblem and the hard case are solved once per distinct
    coefficient set (a1, b1, a2, b2).  Each set's eigenvalues are the roots
    of one quartic in lam, the characteristic polynomial of its 4x4
    [[K, -I], [-b b^T, K]], and one eigvals call on one stack of them
    solves every set of a scan, under any BLAS kernel.  ``placed`` counts
    the candidates over the distinct rows, the same under every kernel on
    these channels.  On rows whose coefficients are 0 only up to rounding,
    such as LU-rotated man_m5's flat rows, the count may follow the
    coefficients' last bits and so the BLAS kernel."""
    candidates, stacks = [], []
    candidate_sets = angles._candidate_sets
    eigvals = np.linalg.eigvals

    def recording_sets(coeffs):
        lists = candidate_sets(coeffs)
        candidates.extend(lists)
        return lists

    def counting_eigvals(matrices):
        stacks.append(matrices.shape)
        return eigvals(matrices)

    monkeypatch.setattr(angles, "_candidate_sets", recording_sets)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    if name == "dense":
        channel = random_channel(np.random.default_rng(20091119))
    else:
        channel = named_state(name)
    assert len(scan(channel).entries) == 30
    assert stacks == [(sets, 4, 4)]
    assert len(candidates) == rows
    assert sum(map(len, candidates)) == placed
    for thetas in candidates:
        # node 0, one crossing, four eigenvalues' directions and at most four
        # hard-case points
        assert len(thetas) <= 10
        assert all(0.0 <= theta < PI / 2 for theta in thetas)


@pytest.mark.parametrize(
    "name, rechecks",
    [
        ("ghz5", 0),
        ("man_m5", 0),
        ("brown", 0),
        ("dense", 0),
        ("lu_brown_1", 0),
        ("lu_brown_2", 0),
        ("lu_brown_20", 0),
        ("lu_man_m5_492", 0),
        ("lu_man_m5_1365", 0),
        ("lu_man_m5_3472600", 0),
    ],
)
def test_scan_contracts_once_and_rechecks_only_the_tol_band(monkeypatch, name, rechecks):
    """A scan contracts the channel once: the scaled (4, 8) view of each
    distinct arranged row is [M(0) | M(pi/2)], Charlie's bras at 0 and pi/2
    being the identity, so its Gram needs no base-operator kernel call.
    The criterion's calls, one kernel call and one defect call per
    candidate, run again only at candidates whose Gram value lies within
    _GRAM_BOUND of tol; at the default tol none does here, not even on an
    LU-rotated man_m5's near-flat rows, whose candidates tie for the argmin."""
    contractions, rechecked = [], []
    base_operators, defects = angles._base_operators, angles._defects

    def counting_contractions(arranged, bras):
        contractions.append(bras.shape)
        return base_operators(arranged, bras)

    monkeypatch.setattr(angles, "_base_operators", counting_contractions)
    monkeypatch.setattr(angles, "_defects", lambda m: rechecked.append(len(m)) or defects(m))
    if name == "dense":
        channel = random_channel(np.random.default_rng(20091119))
    elif name.startswith("lu_"):
        source, seed = name[3:].rsplit("_", 1)
        channel = lu_rotated(named_state(source), np.random.default_rng(int(seed)))
    else:
        channel = named_state(name)
    assert len(scan(channel).entries) == 30
    # one kernel call and one defect call per re-check, both outcomes
    assert contractions == [(2, 2)] * rechecks
    assert rechecked == [2] * rechecks


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


def test_scan_bits_do_not_depend_on_avx512_kernels():
    """The fingerprint's scan hash is the same with numpy's AVX-512 kernels
    switched off: no step of the scan runs a SIMD kernel whose bits differ
    between dispatch levels."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [
        target
        for target in __cpu_dispatch__
        if ("AVX512" in target or target == "X86_V4") and __cpu_features__.get(target)
    ]
    if not targets:
        pytest.skip("numpy runs no AVX-512 kernels on this CPU")
    tests = os.path.dirname(os.path.abspath(__file__))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(angles.__file__)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run(
        [sys.executable, os.path.join(tests, "fingerprint.py"), "--scan"],
        capture_output=True, env=env, timeout=300, check=True,
    )
    running = proc.stderr.decode().rsplit("dispatch", 1)[-1].split()
    assert not set(targets) & set(running)
    assert proc.stdout.decode() == f"scan {fingerprint.scan_fingerprint()}\n"


def test_scan_decisions_do_not_depend_on_kernels():
    """The fingerprint's scan inputs, run under other numpy and OpenBLAS
    kernels, give entries with the same kinds and root counts, and roots
    and min_defect within _GRAM_BOUND; their last bits, and the order of
    entries whose min_defect ties within them, may move."""
    here = fingerprint.scan_outcomes()
    for name, there in kernel_outcomes("scan_outcomes").items():
        assert len(there) == len(here), name
        for got, want in zip(there, here):
            assert len(got) == len(want) == 30, name
            keyed = {(tuple(e["alice"]), tuple(e["bob"])): e for e in want}
            for entry in got:
                other = keyed[tuple(entry["alice"]), tuple(entry["bob"])]
                assert entry["kind"] == other["kind"], name
                roots, other_roots = entry["roots"] or [], other["roots"] or []
                assert len(roots) == len(other_roots), name
                for a, b in zip(roots, other_roots):
                    assert abs(a - b) <= angles._GRAM_BOUND, name
                assert abs(entry["min_defect"] - other["min_defect"]) <= angles._GRAM_BOUND, name
