"""The closed-form best-response probe against explicit lstsq refits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_market import (
    DomainError,
    EmptyDataset,
    Parameters,
    WorldModel,
    best_response_check,
    generate_world,
)

from helpers import refit_best_response

CRITERION_GRID = [-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0]

# The oracle differences two test risks, so its rounding scales with the
# risk, not with the difference: the bound is relative to the larger. Both
# solves lose accuracy with the condition number of the others' Gram matrix
# (two nearly equal x among a handful of others), so the bound grows with it.
ORACLE_RTOL = 1e-12


def assert_matches_refits(world, n_others, grid, seed, n_trials, n_test):
    table = best_response_check(
        world, n_others, grid, seed=seed, n_trials=n_trials, n_test=n_test
    )
    assert [r["deviation"] for r in table] == [float(c) for c in grid]
    got = np.array([r["mean_influence"] for r in table])
    want, base_risk, gram_cond = refit_best_response(world, n_others, grid, seed, n_trials, n_test)
    bound = ORACLE_RTOL * np.maximum(np.abs(want), base_risk) * gram_cond
    assert np.all(np.abs(got - want) <= bound), (got, want, gram_cond)


def world_of(weights, bias, noise_std):
    return WorldModel(Parameters(np.asarray(weights, dtype=float), bias), noise_std=noise_std)


def test_criterion_world_matches_refits():
    assert_matches_refits(generate_world(42), 50, CRITERION_GRID, seed=0, n_trials=3, n_test=100)


@pytest.mark.parametrize("seed", [1, 4, 5])
def test_steep_worlds_match_refits(seed):
    assert_matches_refits(generate_world(seed), 12, [-3.0, 0.0, 0.75], seed, n_trials=2, n_test=20)


def test_noiseless_world_matches_refits():
    world = world_of([2.0, -0.5], 0.3, noise_std=0.0)
    assert_matches_refits(world, 6, [-1.0, 0.5, 2.0], seed=3, n_trials=2, n_test=10)


def test_needs_a_test_point():
    with pytest.raises(EmptyDataset):
        best_response_check(generate_world(1), 5, [0.0], n_trials=1, n_test=0)


@pytest.mark.parametrize("n_trials", [0, -3])
def test_needs_a_trial(n_trials):
    with pytest.raises(DomainError, match="n_trials"):
        best_response_check(generate_world(1), 5, [0.0], n_trials=n_trials)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    extra_others=st.integers(1, 12),
    noise_std=st.floats(0.05, 2.0),
    grid=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
)
def test_table_matches_refits(seed, d, extra_others, noise_std, grid):
    rng = np.random.default_rng(seed)
    world = world_of(rng.normal(size=d) * 5.0, rng.normal(), noise_std)
    assert_matches_refits(world, d + extra_others, grid, seed, n_trials=2, n_test=15)
