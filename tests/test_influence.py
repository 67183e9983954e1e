import numpy as np
import pytest

from influence_market import (
    Dataset,
    DimensionMismatch,
    IndexOutOfRange,
    SingularDesign,
    approximation_errors,
    exact_influence,
    exact_influences,
    first_order_influence,
    first_order_influences,
    fit,
    influence_records,
    second_order_influence,
    second_order_influences,
    second_order_param_shift,
    timing_comparison,
)
from influence_market.influence import (
    _prices,
    _second_moment,
    _test_terms,
    crossover_dimension,
    risk_change,
)

from helpers import augment, random_regression, refit_influence


def make_case(seed, n=40, d=2, noise=0.5):
    rng = np.random.default_rng(seed)
    X, y = random_regression(rng, n, d, noise=noise)
    Xt, yt = random_regression(rng, 25, d, noise=noise)
    return Dataset(X, y), Dataset(Xt, yt)


def assert_rounding_close(got, want):
    """Equal to within rounding of the largest magnitude (bitwise on x86-64
    with OpenBLAS, where each fit of a stack makes the BLAS calls it makes
    alone)."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


class TestStackedKernel:
    """Leading stack axes price independent fits in one call, each as alone."""

    def stacked_fits(self, d, k=3, n=30, m=4):
        rng = np.random.default_rng(d)
        fits = []
        for _ in range(k):
            train, test = make_case(int(rng.integers(1 << 30)), n=n, d=d)
            model = fit(train)
            theta = model.params.as_vector()
            rows = augment(train.X[:m])
            fits.append(
                (model.gram_inverse, theta, test.augmented(), test.y, rows, train.y[:m] - rows @ theta)
            )
        return [np.stack(column) for column in zip(*fits)]

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("method", ["exact", "first-order", "second-order"])
    @pytest.mark.parametrize("added", [False, True])
    def test_stack_equals_each_fit(self, d, method, added):
        gram_inverse, theta, test_rows, test_y, rows, res = self.stacked_fits(d)
        risk, gbar = _test_terms(test_rows, test_y, theta)
        second_moment = _second_moment(test_rows)
        prices = _prices(gram_inverse, rows, res, gbar, second_moment, method, added)
        assert prices.shape == res.shape
        for i in range(len(theta)):
            risk_i, gbar_i = _test_terms(test_rows[i], test_y[i], theta[i])
            second_moment_i = _second_moment(test_rows[i])
            assert_rounding_close(risk[i], risk_i)
            assert_rounding_close(gbar[i], gbar_i)
            assert_rounding_close(second_moment[i], second_moment_i)
            assert_rounding_close(
                prices[i],
                _prices(gram_inverse[i], rows[i], res[i], gbar_i, second_moment_i, method, added),
            )

    def test_risk_change_of_one_shift_per_fit(self):
        gram_inverse, theta, test_rows, test_y, _, _ = self.stacked_fits(2)
        _, gbar = _test_terms(test_rows, test_y, theta)
        second_moment = _second_moment(test_rows)
        shifts = np.random.default_rng(5).normal(size=theta.shape)
        got = risk_change(gbar, second_moment, shifts)
        assert got.shape == (len(theta),)
        for i in range(len(theta)):
            assert_rounding_close(got[i], risk_change(gbar[i], second_moment[i], shifts[i]))


class TestExactInfluence:
    def test_zero_residual_point_has_zero_influence(self):
        # plant a point exactly on the fitted hyperplane
        rng = np.random.default_rng(0)
        X, y = random_regression(rng, 30, 2, noise=0.3)
        data = Dataset(X, y)
        model = fit(data)
        x_new = rng.normal(size=2)
        y_new = float(model.params.predict(x_new[None, :])[0])
        aug = Dataset(
            np.vstack([X, x_new]), np.concatenate([y, [y_new]])
        )
        # refitting with the on-plane point keeps the optimum, so removing it
        # changes nothing
        test = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        assert abs(exact_influence(aug, 30, test)) <= 1e-12

    def test_matches_full_refit_oracle_small(self):
        rng = np.random.default_rng(1)
        X, y = random_regression(rng, 5, 1, noise=1.0)
        Xt, yt = random_regression(rng, 8, 1, noise=1.0)
        train, test = Dataset(X, y), Dataset(Xt, yt)
        for j in range(5):
            expected = refit_influence(X, y, j, Xt, yt)
            assert exact_influence(train, j, test) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_downdate_equals_refit_random_instances(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(67):
            n = int(rng.integers(d + 5, d + 40))
            X, y = random_regression(rng, n, d, noise=1.0)
            Xt, yt = random_regression(rng, 10, d, noise=1.0)
            train, test = Dataset(X, y), Dataset(Xt, yt)
            j = int(rng.integers(n))
            down = exact_influence(train, j, test)
            ref = exact_influence(train, j, test, method="refit")
            assert down == pytest.approx(ref, abs=1e-9)

    def test_plural_matches_scalar(self):
        train, test = make_case(7)
        model = fit(train)
        plural = exact_influences(train, test, model=model)
        for j in range(len(train)):
            assert plural[j] == pytest.approx(
                exact_influence(train, j, test, model=model), abs=1e-12
            )

    def test_index_out_of_range(self):
        train, test = make_case(3)
        with pytest.raises(IndexOutOfRange):
            exact_influence(train, len(train), test)

    @pytest.mark.parametrize("index", [25, -1])
    def test_plural_index_out_of_range(self, index):
        train, test = make_case(3, n=20)
        with pytest.raises(IndexOutOfRange, match=f"index {index} outside dataset of size 20"):
            exact_influences(train, test, indices=[0, index])

    def test_needs_d_plus_two(self):
        rng = np.random.default_rng(4)
        X, y = random_regression(rng, 3, 2)
        test = Dataset(X, y)
        with pytest.raises(SingularDesign):
            exact_influence(Dataset(X, y), 0, test)

    @pytest.mark.parametrize("wrong", ["points", "test"])
    def test_plural_kernels_reject_other_dimension(self, wrong):
        train, test = make_case(5)
        model = fit(train)
        other_train, other_test = make_case(6, d=3)
        points = other_train if wrong == "points" else train
        test = other_test if wrong == "test" else test
        with pytest.raises(DimensionMismatch):
            exact_influences(points, test, model=model)
        with pytest.raises(DimensionMismatch):
            first_order_influences(model, points, test)
        with pytest.raises(DimensionMismatch):
            second_order_influences(model, points, test)


class TestFirstOrder:
    def test_zero_residual_point(self):
        train, test = make_case(11)
        model = fit(train)
        x_new = np.array([0.3, -0.4])
        y_new = float(model.params.predict(x_new[None, :])[0])
        from influence_market import DataPoint

        assert first_order_influence(model, DataPoint(x_new, y_new), test) == 0.0

    def test_sums_to_zero_over_training_set(self):
        train, test = make_case(13, n=80, d=3)
        model = fit(train)
        values = first_order_influences(model, train, test)
        assert abs(values.sum()) <= 1e-8 * np.max(np.abs(values))

    def test_zero_mean_per_single_test_point(self):
        train, test = make_case(17, n=60, d=2)
        model = fit(train)
        for t in range(3):
            single = test.subset([t])
            values = first_order_influences(model, train, single)
            assert abs(values.sum()) <= 1e-8 * max(np.max(np.abs(values)), 1e-300)

    def test_plural_matches_scalar(self):
        train, test = make_case(19)
        model = fit(train)
        plural = first_order_influences(model, train, test)
        for j in range(0, len(train), 7):
            assert plural[j] == pytest.approx(
                first_order_influence(model, train.point(j), test), rel=1e-12, abs=1e-18
            )


class TestSecondOrderShift:
    def test_zero_residual_point_zero_shift(self):
        train, _ = make_case(23)
        model = fit(train)
        x_new = np.array([0.1, 0.2])
        y_new = float(model.params.predict(x_new[None, :])[0])
        from influence_market import DataPoint

        shift = second_order_param_shift(model, DataPoint(x_new, y_new))
        np.testing.assert_array_equal(shift, np.zeros(3))

    def test_shift_norm_scales_inverse_n(self):
        # doubling n should roughly halve the shift for a fixed probe point
        from influence_market import DataPoint

        rng = np.random.default_rng(29)
        probe = DataPoint(np.array([0.5]), 2.0)
        X, y = random_regression(rng, 4000, 1, noise=0.5)
        norms = {}
        for n in (2000, 4000):
            model = fit(Dataset(X[:n], y[:n]))
            norms[n] = np.linalg.norm(second_order_param_shift(model, probe))
        ratio = norms[2000] / norms[4000]
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_two_term_shift_beats_first_term(self):
        # against the true leave-one-out parameter difference
        rng = np.random.default_rng(31)
        wins = 0
        total = 500
        for _ in range(total):
            n = int(rng.integers(8, 30))
            X, y = random_regression(rng, n, 1, noise=1.0)
            train = Dataset(X, y)
            model = fit(train)
            j = int(rng.integers(n))
            true_shift = (
                fit(train.without_index(j)).params.as_vector()
                - model.params.as_vector()
            )
            two_term = second_order_param_shift(model, train.point(j))
            n_model = model.n_train
            grad = -2.0 * (y[j] - model.params.predict(X[j : j + 1])[0])
            aug = np.concatenate([X[j], [1.0]])
            one_term = model.hessian_inverse_dot(grad * aug) / n_model
            err_two = np.linalg.norm(true_shift - two_term)
            err_one = np.linalg.norm(true_shift - one_term)
            if err_two <= err_one + 1e-15:
                wins += 1
        assert wins >= 0.9 * total


class TestSecondOrderInfluence:
    def test_zero_residual_point(self):
        train, test = make_case(37)
        model = fit(train)
        x_new = np.array([-0.2, 0.8])
        y_new = float(model.params.predict(x_new[None, :])[0])
        from influence_market import DataPoint

        assert second_order_influence(model, DataPoint(x_new, y_new), test) == 0.0

    def test_exact_under_true_shift(self):
        # squared loss is quadratic: the expansion at the true leave-one-out
        # shift reproduces the exact influence
        train, test = make_case(41, n=30, d=2)
        model = fit(train)
        for j in range(0, len(train), 5):
            true_shift = (
                fit(train.without_index(j)).params.as_vector()
                - model.params.as_vector()
            )
            expanded = second_order_influence(model, train.point(j), test, shift=true_shift)
            assert expanded == pytest.approx(
                exact_influence(train, j, test, model=model), abs=1e-10
            )

    def test_plural_matches_scalar(self):
        train, test = make_case(43)
        model = fit(train)
        plural = second_order_influences(model, train, test)
        for j in range(0, len(train), 7):
            assert plural[j] == pytest.approx(
                second_order_influence(model, train.point(j), test), rel=1e-12, abs=1e-18
            )


class TestApproximationErrors:
    def test_zero_when_fed_exact(self):
        # degenerate check through the dataclass arithmetic itself
        train, test = make_case(47)
        model = fit(train)
        exact = exact_influences(train, test, model=model)
        err = np.abs(exact - exact)
        assert float(err.mean()) == 0.0

    def test_second_order_beats_first_order(self):
        for seed in range(5):
            train, test = make_case(50 + seed, n=120, d=3, noise=1.0)
            first = approximation_errors(train, test, order="first")
            second = approximation_errors(train, test, order="second")
            assert second.l1 < first.l1
            assert second.relative_l1 < first.relative_l1
            assert second.l2 < first.l2

    def test_linear_generated_magnitudes(self):
        # 1000 train / 200 test: second order lands around 1e-5 relative,
        # at least two orders of magnitude under first order
        from influence_market import build_population, generate_world, independent_test_set, report_stream

        world = generate_world(123)
        train = report_stream(build_population(1000, 1.0), world, 5)
        test = independent_test_set(world, 200, 6)
        first = approximation_errors(train, test, order="first")
        second = approximation_errors(train, test, order="second")
        assert second.relative_l1 <= 1e-5
        assert second.relative_l1 * 100 <= first.relative_l1

    def test_records_consistent_with_errors(self):
        train, test = make_case(61, n=50)
        records = influence_records(train, test)
        assert len(records) == 50
        model = fit(train)
        exact = exact_influences(train, test, model=model)
        got = np.array([r.exact for r in records])
        np.testing.assert_allclose(got, exact, atol=1e-12)


class TestTiming:
    def test_smoke_tiny(self):
        rows = timing_comparison([30], [1], 10, seed=0)
        methods = {r["method"] for r in rows}
        assert methods == {"exact-refit", "second-order"}
        assert all(r["seconds"] >= 0 for r in rows)

    def test_exact_path_cost_grows_superlinearly_in_n(self):
        # n refits, each itself O(n): doubling n should far more than double
        # the total; assert a loose band (wall-clock) with one remeasure
        def measure():
            rows = timing_comparison([400, 800], [8], 40, seed=1)
            by = {r["n_train"]: r["seconds"] for r in rows if r["method"] == "exact-refit"}
            return by[800] / by[400]

        ratio = measure()
        if not ratio > 1.5:
            ratio = measure()
        assert ratio > 1.5

    def test_crossover_helper(self):
        rows = [
            {"method": "exact-refit", "dimension": 1, "seconds": 0.1},
            {"method": "second-order", "dimension": 1, "seconds": 0.5},
            {"method": "exact-refit", "dimension": 8, "seconds": 2.0},
            {"method": "second-order", "dimension": 8, "seconds": 0.6},
        ]
        assert crossover_dimension(rows) == 8
        rows_never = [
            {"method": "exact-refit", "dimension": 1, "seconds": 0.1},
            {"method": "second-order", "dimension": 1, "seconds": 0.5},
        ]
        assert crossover_dimension(rows_never) is None
