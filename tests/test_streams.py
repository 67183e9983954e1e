"""Array-based report generation reproduces the per-point reports bit for
bit and leaves the caller's generator in the same state."""

import numpy as np
import pytest

from influence_market import (
    AgentProfile,
    DomainError,
    heuristic_report,
    independent_test_set,
    report_stream,
    truthful_report,
)

from helpers import per_point_reports, per_point_stream, world_of


def mixed_population():
    """Truthful, heuristic and perturbed agents (one with zero deviation),
    some opted out, interleaved so the shuffle makes runs of every kind."""
    profiles = []
    for i in range(40):
        kind = ("truthful", "heuristic", "perturbed")[i % 3]
        deviation = 0.25 * (i % 5) if kind == "perturbed" else 0.0
        profiles.append(AgentProfile(f"{kind[0]}{i}", kind, deviation=deviation))
    profiles[4].opt_in = False
    profiles[9].opt_in = False
    return profiles


def assert_same_stream(data, reference, rng, ref_rng):
    X, y, ids, arrival = reference
    assert np.array_equal(data.X, X)
    assert np.array_equal(data.y, y)
    assert data.agent_ids == ids
    assert np.array_equal(data.arrival_index, arrival)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("noise_std", [1.0, 0.0])
def test_report_stream_matches_per_point_reports(d, noise_std):
    world = world_of(d, noise_std, seed=d)
    profiles = mixed_population()
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    stream = report_stream(profiles, world, rng)
    assert_same_stream(stream, per_point_stream(profiles, world, ref_rng), rng, ref_rng)
    assert len(stream) == 38


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("noise_std", [1.0, 0.0])
def test_independent_test_set_matches_per_point_reports(d, noise_std):
    world = world_of(d, noise_std, seed=10 + d)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    test = independent_test_set(world, 57, rng)
    X, y = per_point_reports(world, ref_rng, 57)
    assert_same_stream(test, (X, y, (None,) * 57, np.arange(57)), rng, ref_rng)



@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("noise_std", [1.0, 0.0])
def test_single_reports_follow_numpy_draw_order(d, noise_std):
    """A truthful report draws uniform(size=d) then normal() (none when
    noiseless); a heuristic one draws uniform(size=d) then uniform()."""
    world = world_of(d, noise_std, seed=20 + d)
    w, b = world.true_params.weights, world.true_params.bias
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(20):
        point = truthful_report(world, rng)
        x = ref_rng.uniform(*world.x_bounds, size=d)
        y = w @ x + b + (ref_rng.normal(0.0, noise_std) if noise_std > 0 else 0.0)
        np.testing.assert_allclose(point.x, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(point.y, y, rtol=0, atol=1e-12)
        point = heuristic_report(world, rng)
        x = ref_rng.uniform(*world.x_bounds, size=d)
        y = ref_rng.uniform(*world.heuristic_y_bounds)
        np.testing.assert_allclose(point.x, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(point.y, y, rtol=0, atol=1e-12)
    assert rng.random() == ref_rng.random()


def test_negative_test_set_size_is_a_domain_error():
    with pytest.raises(DomainError):
        independent_test_set(world_of(1), -1, 0)
