"""The closed-form best-response probe against explicit lstsq refits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import influence_market.agents as agents
from influence_market import (
    DomainError,
    EmptyDataset,
    Parameters,
    SingularDesign,
    WorldModel,
    best_response_check,
    generate_world,
)
from influence_market.agents import PROBE_CHUNK

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


# The probe works through its trials PROBE_CHUNK at a time: trial counts
# around one and two chunks, with a partial last chunk.
CHUNKED_TRIALS = [1, PROBE_CHUNK - 1, PROBE_CHUNK, PROBE_CHUNK + 1, 2 * PROBE_CHUNK + 3]


@pytest.mark.parametrize("n_trials", CHUNKED_TRIALS)
def test_chunked_trials_match_refits(n_trials):
    assert_matches_refits(generate_world(42), 8, CRITERION_GRID, 17, n_trials, n_test=12)


def test_chunked_trials_match_refits_in_three_dimensions():
    world = world_of([1.5, -2.0, 0.5], -0.7, noise_std=1.0)
    assert_matches_refits(world, 9, [-1.0, 0.0, 1.0], 4, 2 * PROBE_CHUNK + 3, n_test=10)


@pytest.mark.parametrize("n_trials", CHUNKED_TRIALS)
def test_generator_ends_where_per_point_draws_end(n_trials):
    # A generator passed as the seed is used as is, so its next draw shows
    # how far the probe advanced it.
    world = generate_world(42)
    rng, reference = np.random.default_rng(23), np.random.default_rng(23)
    best_response_check(world, 8, [0.0], seed=rng, n_trials=n_trials, n_test=12)
    refit_best_response(world, 8, [0.0], reference, n_trials, 12)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.standard_normal() == reference.standard_normal()


def corrupt_others(monkeypatch, trial, n_others, n_test, features):
    """Overwrite the others' features of one trial (counted from 0) as they
    are drawn, however the probe groups its trials into draws."""
    per_trial = n_others + n_test + 1
    first = trial * per_trial
    drawn = 0
    draw = agents._draw_truthful

    def corrupting_draw(world, rng, X, y):
        nonlocal drawn
        draw(world, rng, X, y)
        lo, hi = first - drawn, first - drawn + n_others
        if lo >= 0 and hi <= len(X):
            X[lo:hi] = features
        drawn += len(X)

    monkeypatch.setattr(agents, "_draw_truthful", corrupting_draw)


def test_singular_trial_inside_a_chunk_raises(monkeypatch):
    # Identical features make the others' Gram matrix exactly singular.
    corrupt_others(monkeypatch, PROBE_CHUNK + 2, 4, 6, np.ones((4, 1)))
    with pytest.raises(
        SingularDesign,
        match="^augmented Gram matrix is not invertible; supply ridge > 0 for collinear designs$",
    ):
        best_response_check(generate_world(42), 4, [0.0], n_trials=2 * PROBE_CHUNK, n_test=6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_certificate_trial_inside_a_chunk_raises(monkeypatch):
    # Features this large overflow the Gram matrix, and the solve's NaN
    # gradient fails the optimality certificate.
    huge = np.array([[1.0], [2.0], [3.5], [4.0]]) * 1e160
    corrupt_others(monkeypatch, PROBE_CHUNK + 2, 4, 6, huge)
    with pytest.raises(SingularDesign, match="^normal-equation solve failed the optimality"):
        best_response_check(generate_world(42), 4, [0.0], n_trials=2 * PROBE_CHUNK, n_test=6)


def test_table_reads_as_a_list_of_rows():
    table = best_response_check(generate_world(3), 6, (-1, 0.5, 2), seed=4, n_trials=3, n_test=5)
    rows = list(table)
    assert [r["deviation"] for r in rows] == [-1.0, 0.5, 2.0]
    assert len(table) == 3 and table[-1] == rows[2] and table[1:] == rows[1:]
    assert table == rows and table != rows[:2] and repr(table) == repr(rows)
    with pytest.raises(IndexError):
        table[3]
