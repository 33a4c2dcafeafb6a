"""Assignment enumeration and basis-angle classification."""

import math
import os
import subprocess
import sys
from itertools import combinations, product

import fingerprint
import numpy as np
import pytest
from conftest import kernel_outcomes, lu_rotated, random_channel
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


def test_verdict_dedupes_roots_across_pi():
    # minima at node 0 and just below pi/2 give the roots 0, pi/2 - 4e-7,
    # pi/2 and pi - 4e-7: pi/2 is within 1e-6 of the root before it, and
    # pi - 4e-7 only of root 0, across pi
    thetas = [0.0, PI / 8, PI / 4, 3 * PI / 8, PI / 2 - 4e-7]
    got = angles._verdict(thetas, [0.0, 1.0, 2.0, 1.0, 0.0], 1e-10)
    assert got == (KIND_DISCRETE, (0.0, PI / 2 - 4e-7), 0.0, 0.0)


def _quartic_rows(*rows):
    """(a1, b1, a2, b2) rows of (a1, b1, a2, b2, sign) rows: branch - (sign -1)
    negates the floats a1 and b1."""
    return [[a1, b1, a2, b2] if s > 0 else [-a1, -b1, a2, b2] for a1, b1, a2, b2, s in rows]


def test_quartic_rows_are_the_complex_form_to_the_bit():
    # the real quartic in t = tan theta, against its float formula and, up to
    # rounding, the complex quartic [w, h, 0, h*, w*] in z = exp(2i theta) it
    # comes from: p(z) (1 - it)^4 = 2 q(t); every sign of zero, a subnormal
    # and ordinary values in every coefficient
    values = (0.0, -0.0, 1.5, -2.25, 3e-320)
    for a1, b1, a2, b2 in product(values, repeat=4):
        got = angles._quartic(a1, b1, a2, b2)
        want = [b2 - b1 / 2, 4 * a2 - a1, -6 * b2, -4 * a2 - a1, b2 + b1 / 2]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        w, h = complex(b2, a2), complex(b1, a1) / 2
        for t in (0.0, 0.5, -3.0):
            z = complex(1, t) / complex(1, -t)
            p = w * z**4 + h * z**3 + h.conjugate() * z + w.conjugate()
            q = sum(c * t ** (4 - k) for k, c in enumerate(got))
            assert abs(p * complex(1, -t) ** 4 - 2 * q) <= 1e-12 * (1 + abs(t)) ** 4


_QUARTIC_CASES = {
    # full quartics: t^4 and t^0 nonzero
    "quartic": [(0.4, -1.2, -0.7, 0.3, 1), (0.4, -1.2, -0.7, 0.3, -1), (0.0, 2.0, 2.0, 0.0, 1)],
    # b1 = b2 = 0, as in every catalog row: a quadratic in t and a zero root,
    # or a monomial when a1 = +-4 a2; a2 = b2 = 0 with h != 0: no angles
    # here, _candidate_sets adds the closed form
    "quadratic": [
        (0.0, 0.0, 2.0, 0.0, 1),
        (8.0, 0.0, 2.0, 0.0, 1),
        (-8.0, 0.0, 2.0, 0.0, 1),
        (1.0, 2.0, 0.0, 1.0, 1),  # b2 = b1/2: no t^4 term
        *((a1, b1, 0.0, 0.0, s) for a1, b1 in ((1.0, 0.0), (0.3, -2.5)) for s in (1, -1)),
    ],
    # all zero: no roots
    "zero": [(0.0, 0.0, 0.0, 0.0, 1)],
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
def test_root_angles_replicate_np_roots(case):
    mixed = _quartic_rows(
        *_QUARTIC_CASES[case], (0.4, -1.2, -0.7, 0.3, 1), (0.0, 0.0, 0.0, 0.0, 1)
    )
    if case == "signed-zero":
        # each coefficient column meets a -0.0
        parts = np.array(mixed)
        assert np.all(np.any((parts == 0) & np.signbit(parts), axis=0))
    got = angles._root_angles(mixed)
    # bit for bit where a2 or b2 != 0, order and signed zeros included; none
    # where a2 = b2 = 0
    want = [
        np.arctan(np.roots(angles._quartic(*row)).astype(complex)).real.tolist()
        if row[2] or row[3] else []
        for row in mixed
    ]
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]


def test_root_angles_drop_a_lead_whose_companion_overflows():
    # b2 = 5e-324 makes t^4's coefficient 5e-324, so np.roots' companion row
    # overflows and np.roots raises; that lead's extra root lies past |t| =
    # 1e77, at theta = pi/2 in floats, so the engine solves q without it
    row = [0.0, 0.0, 1.0, 5e-324]
    q = angles._quartic(*row)
    with pytest.raises(np.linalg.LinAlgError), np.errstate(over="ignore"):
        np.roots(q)
    (got,) = angles._root_angles([row])
    assert got == np.arctan(np.roots(q[1:]).astype(complex)).real.tolist()
    # man_m5 plus 1e-162 everywhere has such rows; the complex companion in
    # z overflowed on it too
    channel = make_state(5, named_state("man_m5").amplitudes + 1e-162)
    assert len(scan(channel).entries) == 30


def test_root_angles_stack_one_companion_per_size(monkeypatch):
    # full quartics, cubics (b2 = b1/2), catalog quadratics and a monomial:
    # one eigvals call for each companion size present, none for size 0
    rows = [[0.4, -1.2, -0.7, 0.3], [1.0, 2.0, 0.0, 1.0], [0.5, 0.0, 2.0, 0.0],
            [0.1, 0.0, -3.0, 0.0], [8.0, 0.0, 2.0, 0.0], [-0.3, 0.7, 0.2, -0.1]]
    stacks = []
    eigvals = np.linalg.eigvals

    def counting(matrices):
        stacks.append(matrices.shape)
        return eigvals(matrices)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    got = angles._root_angles(rows)
    assert sorted(stacks) == [(1, 3, 3), (2, 2, 2), (2, 4, 4)]
    assert [len(row) for row in got] == [4, 3, 3, 3, 1, 4]


def test_candidate_sets_fold_a_root_at_half_period_to_zero():
    # b2 = -1e-18 puts a stationary angle at -2.5e-19, and -2.5e-19 % (pi/2)
    # rounds to pi/2 itself, node 0 of the next period
    (thetas,) = angles._candidate_sets(np.array([[0.0, 0.0, 1.0, -1e-18]]))
    assert thetas == [0.0, PI / 8, PI / 4, 3 * PI / 8]


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
    "name, rows, sets, companions",
    [("ghz5", 1, 1, 1), ("man_m5", 13, 3, 2), ("brown", 15, 3, 2)],
    ids=["ghz5-1", "man_m5-13", "brown-15"],
)
def test_scan_solves_one_quartic_per_distinct_arrangement(
    monkeypatch, name, rows, sets, companions
):
    """Every distinct arranged row gets a candidate list, but the crossing,
    the quartic and its companion matrix are built once per distinct
    coefficient set (a1, b1, a2, b2); a2 = b2 = 0 needs no matrix.  The
    matrices of one size share one eigvals call.  Their sizes are not
    pinned: they follow how each quartic trims, which can follow the BLAS
    kernel (man_m5's b1 is 0.0 with SkylakeX's and 9.9e-32 with Nehalem's
    kernel, which turns one 2x2 companion into a 4x4 one)."""
    quartics, candidates, stacks, needing = [], [], [], []
    root_angles, candidate_sets = angles._root_angles, angles._candidate_sets
    eigvals = np.linalg.eigvals

    def counting_roots(batch):
        quartics.append(len(batch))
        needing.append(sum(1 for row in batch if row[2] or row[3]))
        return root_angles(batch)

    def recording_sets(coeffs):
        lists = candidate_sets(coeffs)
        candidates.extend(lists)
        return lists

    def counting_eigvals(matrices):
        stacks.append(matrices.shape)
        return eigvals(matrices)

    monkeypatch.setattr(angles, "_root_angles", counting_roots)
    monkeypatch.setattr(angles, "_candidate_sets", recording_sets)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    assert len(scan(named_state(name)).entries) == 30
    assert quartics == [sets]
    sizes = [shape[-1] for shape in stacks]
    assert len(set(sizes)) == len(sizes)  # one call per companion size
    assert sum(shape[0] for shape in stacks) == needing[0] == companions
    assert len(candidates) == rows
    for thetas in candidates:
        # one crossing, four nodes and at most four stationary angles
        assert len(thetas) <= 9
        assert all(0.0 <= theta < PI / 2 for theta in thetas)


@pytest.mark.parametrize("name, tied", [("ghz5", 0), ("man_m5", 12), ("brown", 0), ("dense", 0)])
def test_scan_contracts_once_and_rechecks_only_argmin_ties(monkeypatch, name, tied):
    """A scan contracts the channel once, for the Gram of M(0) and M(pi/2)
    of every distinct row.  At the default tol every Gram value lies
    outside the band around tol, so the criterion's arithmetic runs again
    only at candidates that may tie for a row's argmin: the four of each of
    man_m5's three flat none rows, whose values all lie near 2."""
    contractions, rechecked = [], []
    base_operators, defects = angles._base_operators, angles._defects

    def counting_contractions(arranged, weights):
        contractions.append(weights.shape)
        return base_operators(arranged, weights)

    monkeypatch.setattr(angles, "_base_operators", counting_contractions)
    monkeypatch.setattr(angles, "_defects", lambda m: rechecked.append(len(m)) or defects(m))
    if name == "dense":
        channel = random_channel(np.random.default_rng(20091119))
    else:
        channel = named_state(name)
    assert len(scan(channel).entries) == 30
    # one contraction and one defect call for the re-checks, both outcomes
    assert contractions == [(2, 2)] + [(2, 2, tied)] * bool(tied)
    assert rechecked == [2 * tied] * bool(tied)


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
