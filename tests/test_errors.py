"""Every value check in the package raises a package error that names what
it rejected: ``InvalidValue`` (also a ``ValueError``) for data and fit
arguments, ``DomainError`` for the fields of a configuration. NaN must not
slip past a sign check."""

import numpy as np
import pytest

from influence_market import (
    AgentProfile,
    DataPoint,
    Dataset,
    DomainError,
    InfluenceMarketError,
    InvalidValue,
    MechanismConfig,
    Parameters,
    WorldModel,
    best_response_check,
    build_population,
    fit,
    generate_world,
    run_mechanism,
)


def small_data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 1)), rng.normal(size=n))


def overlapping_init_run():
    stream = small_data(6)
    init = Dataset(np.array([[0.1], [0.5], [-0.3]]), np.array([1.0, 2.0, 0.5]),
                   arrival_index=[-1, 5, -2])
    run_mechanism(stream, small_data(5, seed=1), MechanismConfig(), init=init)


SITES = {
    "point-nonfinite-x": (lambda: DataPoint(np.array([np.nan]), 0.0), "feature vector"),
    "point-nonfinite-y": (lambda: DataPoint(np.array([1.0]), np.inf), "target is not finite"),
    "point-negative-arrival": (
        lambda: DataPoint(np.array([1.0]), 0.0, arrival_index=-1),
        "arrival_index must be non-negative",
    ),
    "dataset-nonfinite-X": (
        lambda: Dataset(np.array([[1.0], [np.inf]]), np.zeros(2)),
        "feature matrix",
    ),
    "dataset-nonfinite-y": (lambda: Dataset(np.ones((2, 1)), np.array([0.0, np.nan])), "targets"),
    "dataset-duplicate-arrival": (
        lambda: Dataset(np.ones((2, 1)), np.zeros(2), arrival_index=[3, 3]),
        "unique",
    ),
    "parameters-nonfinite": (lambda: Parameters(np.array([1.0]), np.nan), "non-finite"),
    "fit-negative-ridge": (lambda: fit(small_data(), ridge=-1.0), "ridge must be non-negative"),
    "fit-nan-ridge": (
        lambda: fit(small_data(), ridge=np.nan),
        "ridge must be non-negative and finite",
    ),
    "fit-infinite-ridge": (
        lambda: fit(small_data(), ridge=np.inf),
        "ridge must be non-negative and finite",
    ),
    "mechanism-arrival-overlap": (overlapping_init_run, "share arrival_index"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_value_check_raises_package_error(site):
    call, message = SITES[site]
    with pytest.raises(InvalidValue, match=message) as info:
        call()
    assert isinstance(info.value, InfluenceMarketError)
    assert isinstance(info.value, ValueError)


def world(**fields):
    return WorldModel(Parameters(np.array([1.0]), 0.0), **fields)


DOMAIN_SITES = {
    "world-nan-noise": (
        lambda: world(noise_std=np.nan),
        "noise_std must be non-negative and finite",
    ),
    "world-infinite-noise": (lambda: world(noise_std=np.inf), "noise_std must be non-negative"),
    "world-infinite-x-bound": (lambda: world(x_bounds=(-np.inf, 1.0)), "x_bounds must be a finite"),
    "world-nan-x-bound": (lambda: world(x_bounds=(0.0, np.nan)), "x_bounds must be a finite"),
    "world-infinite-y-bound": (
        lambda: world(heuristic_y_bounds=(0.0, np.inf)),
        "heuristic_y_bounds must be a finite",
    ),
    "profile-nan-effort": (
        lambda: AgentProfile("a", "truthful", effort=np.nan),
        "effort must be non-negative and finite",
    ),
    "profile-nan-deviation": (
        lambda: AgentProfile("a", "perturbed", deviation=np.nan),
        "deviation must be finite",
    ),
    "config-nan-payment-scale": (
        lambda: MechanismConfig(payment_scale=np.nan),
        "payment_scale must be positive and finite",
    ),
    "config-nan-effort-cost": (
        lambda: MechanismConfig(effort_cost=np.nan),
        "effort_cost must be non-negative and finite",
    ),
    "config-nan-ridge": (
        lambda: MechanismConfig(ridge=np.nan),
        "ridge must be non-negative and finite",
    ),
    "config-negative-init-count": (
        lambda: MechanismConfig(init_count=-1),
        "init_count must be non-negative",
    ),
    "population-negative-size": (
        lambda: build_population(-3, 0.5),
        "n_agents must be non-negative",
    ),
    "best-response-empty-grid": (
        lambda: best_response_check(generate_world(1), 5, [], n_trials=1),
        "deviation_grid must be non-empty and finite",
    ),
    "best-response-nan-grid": (
        lambda: best_response_check(generate_world(1), 5, [np.nan, 0.0, 1.0], n_trials=1),
        "deviation_grid must be non-empty and finite",
    ),
    "best-response-infinite-grid": (
        lambda: best_response_check(generate_world(1), 5, [0.0, np.inf, 1.0], n_trials=1),
        "deviation_grid must be non-empty and finite",
    ),
}


@pytest.mark.parametrize("site", sorted(DOMAIN_SITES))
def test_domain_check_raises_package_error(site):
    call, message = DOMAIN_SITES[site]
    with pytest.raises(DomainError, match=message) as info:
        call()
    assert isinstance(info.value, InfluenceMarketError)
