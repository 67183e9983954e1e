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
    DatasetSchema,
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
)
from influence_market.cli import _number_list


def small_data(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 1)), rng.normal(size=n))


SITES = {
    "point-nonfinite-x": (lambda: DataPoint(np.array([np.nan]), 0.0), "feature vector"),
    "point-nonfinite-y": (lambda: DataPoint(np.array([1.0]), np.inf), "target is not finite"),
    "dataset-nonfinite-X": (
        lambda: Dataset(np.array([[1.0], [np.inf]]), np.zeros(2)),
        "feature matrix",
    ),
    "dataset-nonfinite-y": (lambda: Dataset(np.ones((2, 1)), np.array([0.0, np.nan])), "targets"),
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
    "cli-non-numeric-list": (
        lambda: _number_list("0.1,x", float, "--deviation-grid"),
        "--deviation-grid must be a comma-separated list of numbers",
    ),
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


DELIMITER = "delimiter must be one character other than a quote, CR or LF"

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
    "schema-two-char-delimiter": (lambda: DatasetSchema("t", "y", delimiter=";;"), DELIMITER),
    "schema-empty-delimiter": (lambda: DatasetSchema("t", "y", delimiter=""), DELIMITER),
    "schema-quote-delimiter": (lambda: DatasetSchema("t", "y", delimiter='"'), DELIMITER),
    "schema-cr-delimiter": (lambda: DatasetSchema("t", "y", delimiter="\r"), DELIMITER),
    "schema-lf-delimiter": (lambda: DatasetSchema("t", "y", delimiter="\n"), DELIMITER),
}


@pytest.mark.parametrize("site", sorted(DOMAIN_SITES))
def test_domain_check_raises_package_error(site):
    call, message = DOMAIN_SITES[site]
    with pytest.raises(DomainError, match=message) as info:
        call()
    assert isinstance(info.value, InfluenceMarketError)
