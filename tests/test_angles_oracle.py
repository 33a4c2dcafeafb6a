"""The closed-form angle certificate agrees with the grid-search oracle."""

import numpy as np
import pytest
from conftest import lu_rotated, random_channel
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle
from telecrit import KIND_NONE, classify_theta, enumerate_assignments, named_state

CATALOG = ("brown", "man_m5", "ghz5", "product_zero_n")
TOLERANCES = (1e-10, 0.5, 10.0)


def _assert_agrees(channel, assignment, tol):
    got = classify_theta(channel, assignment, tol)
    want = grid_oracle.classify_theta(channel, assignment, tol)
    assert got.kind == want.kind
    if want.roots is None:
        assert got.roots is None
    else:
        assert len(got.roots) == len(want.roots)
        for a, b in zip(got.roots, want.roots):
            assert abs(a - b) < 1e-9
    if want.kind == KIND_NONE:
        assert abs(got.min_defect - want.min_defect) < 1e-9


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_agrees_with_grid_oracle(name):
    channel = named_state(name)
    for assignment in enumerate_assignments():
        for tol in TOLERANCES:
            _assert_agrees(channel, assignment, tol)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(("dense", *CATALOG)),
    st.sampled_from(TOLERANCES),
)
@settings(max_examples=20, deadline=None)
def test_random_channels_agree_with_grid_oracle(seed, source, tol):
    # dense random amplitudes, or a catalog state under random local unitaries
    rng = np.random.default_rng(seed)
    if source == "dense":
        channel = random_channel(rng)
    else:
        channel = lu_rotated(named_state(source), rng)
    assignment = enumerate_assignments()[int(rng.integers(30))]
    _assert_agrees(channel, assignment, tol)
