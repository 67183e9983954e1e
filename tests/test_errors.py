"""Every value check in the package raises ``InvalidValue``: a package error
that is also a ``ValueError``, with the message it always had."""

import numpy as np
import pytest

from influence_market import (
    DataPoint,
    Dataset,
    InfluenceMarketError,
    InvalidValue,
    MechanismConfig,
    Parameters,
    fit,
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
    "mechanism-arrival-overlap": (overlapping_init_run, "share arrival_index"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_value_check_raises_package_error(site):
    call, message = SITES[site]
    with pytest.raises(InvalidValue, match=message) as info:
        call()
    assert isinstance(info.value, InfluenceMarketError)
    assert isinstance(info.value, ValueError)
