"""Property-based checks of the mechanism and the influence kernels against
the independent lstsq oracles in ``helpers``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_market import (
    Dataset,
    MechanismConfig,
    exact_influences,
    first_order_influences,
    fit,
    risk,
    run_mechanism,
    second_order_influences,
)
from influence_market.influence import risk_change

from helpers import augment, direct_risk, lstsq_fit, random_regression

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


def mechanism_case(seed, d, b, n_init, n_batches, remainder):
    """Init, stream and test sets; the stream length is not a multiple of b
    unless b is 1."""
    rng = np.random.default_rng(seed)
    n_stream = (n_batches * b + remainder) if b > 1 else n_batches
    X_init = rng.uniform(-1.0, 1.0, size=(n_init, d))
    y_init = rng.uniform(-3.0, 3.0, size=n_init)
    init = Dataset(X_init, y_init, ["__init__"] * n_init, -np.arange(1, n_init + 1))
    X, y = random_regression(rng, n_stream, d, noise=0.5)
    Xt, yt = random_regression(rng, 15, d, noise=0.5)
    return init, Dataset(X, y, list(range(n_stream))), Dataset(Xt, yt)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    b=st.integers(1, 7),
    n_batches=st.integers(1, 4),
    extra_init=st.integers(2, 8),
    mode=st.sampled_from(["inclusive", "exclusive"]),
    ridge=st.sampled_from([0.0, 0.5]),
    data=st.data(),
)
def test_exact_mechanism_matches_lstsq_refits(
    seed, d, b, n_batches, extra_init, mode, ridge, data
):
    remainder = data.draw(st.integers(1, b - 1)) if b > 1 else 0
    init, stream, test = mechanism_case(seed, d, b, d + 1 + extra_init, n_batches, remainder)
    config = MechanismConfig(batch_size=b, mode=mode, influence_method="exact", ridge=ridge)
    ledger = run_mechanism(stream, test, config, init=init)

    X_all = np.vstack([init.X, stream.X])
    y_all = np.concatenate([init.y, stream.y])
    n0 = len(init)

    def test_risk(rows):
        return direct_risk(test.X, test.y, lstsq_fit(X_all[rows], y_all[rows], ridge))

    expected_trace = [test_risk(np.arange(n0))]
    expected_raw = []
    for lo in range(0, len(stream), b):
        hi = min(lo + b, len(stream))
        before = np.arange(n0 + lo)
        after = np.arange(n0 + hi)
        base = test_risk(after if mode == "inclusive" else before)
        for j in range(n0 + lo, n0 + hi):
            if mode == "inclusive":
                expected_raw.append(test_risk(after[after != j]) - base)
            else:
                expected_raw.append(base - test_risk(np.append(before, j)))
        expected_trace.append(test_risk(after))

    raw = np.array([e.raw_influence for e in ledger.entries])
    assert [e.agent_id for e in ledger.entries] == list(range(len(stream)))
    np.testing.assert_allclose(raw, expected_raw, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(ledger.risk_trace, expected_trace, rtol=1e-9, atol=1e-12)


def pricing_case(seed, n, d, ridge):
    rng = np.random.default_rng(seed)
    X, y = random_regression(rng, n, d, noise=1.0)
    Xt, yt = random_regression(rng, 12, d, noise=1.0)
    train, test = Dataset(X, y), Dataset(Xt, yt)
    return train, test, fit(train, ridge=ridge)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    extra=st.integers(2, 30),
    ridge=st.sampled_from([0.0, 0.5]),
)
def test_plural_prices_equal_one_row_prices(seed, d, extra, ridge):
    train, test, model = pricing_case(seed, d + 1 + extra, d, ridge)
    exact = exact_influences(train, test, model=model)
    first = first_order_influences(model, train, test)
    second = second_order_influences(model, train, test)
    for j in range(len(train)):
        point = train.subset([j])
        refit = risk(test, fit(train.without_index(j), ridge=ridge).params) - risk(test, model.params)
        assert exact[j] == pytest.approx(refit, rel=1e-7, abs=1e-10)
        assert first[j] == pytest.approx(
            first_order_influences(model, point, test)[0], rel=1e-9, abs=1e-14
        )
        assert second[j] == pytest.approx(
            second_order_influences(model, point, test)[0], rel=1e-9, abs=1e-14
        )


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    k=st.integers(1, 6),
    scale=st.sampled_from([1e-6, 1e-2, 1.0]),
)
def test_kernel_equals_direct_risk_difference(seed, d, k, scale):
    train, test, model = pricing_case(seed, d + 10, d, 0.0)
    rng = np.random.default_rng(seed + 1)
    shifts = scale * rng.normal(size=(d + 1, k))
    theta = model.params.as_vector()
    aug = augment(test.X)
    gbar = -2.0 * aug.T @ (test.y - aug @ theta) / len(test)
    second_moment = aug.T @ aug / len(test)
    got = risk_change(gbar, second_moment, shifts)
    base = direct_risk(test.X, test.y, theta)
    want = [direct_risk(test.X, test.y, theta + shifts[:, c]) - base for c in range(k)]
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-13 * max(1.0, base))
    assert risk_change(gbar, second_moment, shifts[:, 0]) == pytest.approx(got[0], rel=1e-15)
