import re

import numpy as np
import pytest

from influence_market import (
    DataPoint,
    Dataset,
    DimensionMismatch,
    EmptyDataset,
    Parameters,
    SingularDesign,
    empirical_hessian,
    fit,
    loss,
    loss_gradient,
    point_hessian,
    risk,
)
from influence_market.regression import _solve_normal_equations

from helpers import (
    augment,
    central_difference_gradient,
    lstsq_fit,
    random_regression,
)


class TestDataset:
    def test_from_points_round_trip(self):
        points = [
            DataPoint(np.array([1.0, 2.0]), 3.0, agent_id="a", arrival_index=0),
            DataPoint(np.array([4.0, 5.0]), 6.0, agent_id="b", arrival_index=1),
        ]
        data = Dataset.from_points(points)
        assert len(data) == 2
        assert data.dimension == 2
        back = data.points
        assert back[0].agent_id == "a"
        assert back[1].y == 6.0
        np.testing.assert_array_equal(back[0].x, [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            DataPoint(np.array([1.0]), np.inf)

    def test_rejects_duplicate_arrival(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.zeros(2), arrival_index=np.array([0, 0]))

    def test_immutable(self):
        data = Dataset(np.eye(2), np.zeros(2))
        with pytest.raises(AttributeError):
            data.X = np.zeros((2, 2))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_without_index(self):
        data = Dataset(np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 2.0]))
        rest = data.without_index(1)
        assert len(rest) == 2
        np.testing.assert_array_equal(rest.y, [0.0, 2.0])


class TestFit:
    def test_exact_line(self):
        # y = 2x + 1 through three points: zero risk
        data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([3.0, 5.0, 7.0]))
        model = fit(data)
        np.testing.assert_allclose(model.params.weights, [2.0], atol=1e-12)
        assert model.params.bias == pytest.approx(1.0, abs=1e-12)
        assert risk(data, model.params) == pytest.approx(0.0, abs=1e-20)

    def test_constant_target(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]), np.full(5, 4.0))
        model = fit(data)
        np.testing.assert_allclose(model.params.weights, [0.0], atol=1e-12)
        assert model.params.bias == pytest.approx(4.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        X, y = random_regression(rng, 50, 3)
        model = fit(Dataset(X, y))
        expected = lstsq_fit(X, y)
        np.testing.assert_allclose(model.params.as_vector(), expected, atol=1e-10)

    def test_ridge_matches_oracle(self):
        rng = np.random.default_rng(7)
        X, y = random_regression(rng, 30, 2)
        model = fit(Dataset(X, y), ridge=0.5)
        expected = lstsq_fit(X, y, ridge=0.5)
        np.testing.assert_allclose(model.params.as_vector(), expected, atol=1e-10)

    def test_too_few_points(self):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(SingularDesign):
            fit(data)

    def test_collinear_needs_ridge(self):
        # second column is twice the first: Gram singular without ridge
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SingularDesign):
            fit(Dataset(X, y))
        model = fit(Dataset(X, y), ridge=1e-8)
        assert np.all(np.isfinite(model.params.as_vector()))

    # The Gram matrix of features this large overflows to inf, and the
    # solve yields a NaN gradient, which the optimality certificate rejects.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_design_fails_certificate(self):
        X = np.array([[1.0], [2.0], [3.5], [4.0]]) * 1e160
        with pytest.raises(SingularDesign, match="optimality certificate"):
            fit(Dataset(X, np.array([1.0, 2.0, 3.0, 5.0])))

    def test_optimality_invariant(self):
        # risk does not drop under small parameter perturbations
        rng = np.random.default_rng(3)
        X, y = random_regression(rng, 40, 2)
        data = Dataset(X, y)
        model = fit(data)
        base = risk(data, model.params)
        theta = model.params.as_vector()
        for _ in range(20):
            delta = rng.normal(size=3)
            delta *= rng.uniform(0, 1e-2) / np.linalg.norm(delta)
            perturbed = Parameters.from_vector(theta + delta)
            assert risk(data, perturbed) >= base - 1e-9

    def test_stationarity(self):
        # training gradients sum to ~0 at the optimum
        rng = np.random.default_rng(11)
        X, y = random_regression(rng, 60, 4)
        data = Dataset(X, y)
        model = fit(data)
        total = np.zeros(5)
        for j in range(len(data)):
            total += loss_gradient(data.point(j), model.params)
        assert np.linalg.norm(total) <= 1e-8 * len(data)

    def test_hessian_factorization_positive_pivots(self):
        rng = np.random.default_rng(5)
        X, y = random_regression(rng, 25, 3)
        model = fit(Dataset(X, y))
        assert np.all(np.diag(model.hessian_factorization) > 0)


def sufficient_statistics(X, y):
    aug = augment(X)
    return aug.T @ aug, aug.T @ y


class TestStackedSolve:
    """The solver on stacked sufficient statistics gives each fit's result:
    every fit of a stack runs the same LAPACK calls as it does alone."""

    @pytest.mark.parametrize(
        "d, ridge, stack", [(1, 0.0, (5,)), (3, 0.0, (2, 3)), (3, 0.5, (4,)), (8, 0.0, (3,))]
    )
    def test_stack_equals_each_fit(self, d, ridge, stack):
        rng = np.random.default_rng(d)
        fits = [sufficient_statistics(*random_regression(rng, 30, d)) for _ in range(np.prod(stack))]
        gram = np.stack([g for g, _ in fits]).reshape(stack + (d + 1, d + 1))
        moment = np.stack([m for _, m in fits]).reshape(stack + (d + 1,))
        stacked = _solve_normal_equations(gram, moment, 30, ridge)
        for index in np.ndindex(stack):
            alone = _solve_normal_equations(gram[index], moment[index], 30, ridge)
            for got, want in zip(stacked, alone):
                np.testing.assert_array_equal(got[index], want)

    def stack_with(self, bad_X, bad_y, position):
        rng = np.random.default_rng(11)
        fits = [sufficient_statistics(*random_regression(rng, len(bad_y), 1)) for _ in range(3)]
        fits[position] = sufficient_statistics(bad_X, bad_y)
        return np.stack([g for g, _ in fits]), np.stack([m for _, m in fits]), fits[position]

    def assert_raises_as_alone(self, bad_X, bad_y, position, match):
        gram, moment, (bad_gram, bad_moment) = self.stack_with(bad_X, bad_y, position)
        with pytest.raises(SingularDesign, match=match) as alone:
            _solve_normal_equations(bad_gram, bad_moment, len(bad_y), 0.0)
        with pytest.raises(SingularDesign, match=re.escape(str(alone.value))):
            _solve_normal_equations(gram, moment, len(bad_y), 0.0)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_singular_fit_in_stack_raises_its_message(self, position):
        X = np.full((4, 1), 1.0)  # constant feature: collinear with the intercept
        self.assert_raises_as_alone(X, np.array([1.0, 2.0, 3.0, 5.0]), position, "not invertible")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failed_certificate_in_stack_raises_its_message(self, position):
        X = np.array([[1.0], [2.0], [3.5], [4.0]]) * 1e160
        self.assert_raises_as_alone(
            X, np.array([1.0, 2.0, 3.0, 5.0]), position, "optimality certificate"
        )


class TestLoss:
    def test_zero_residual(self):
        params = Parameters(np.array([2.0]), 1.0)
        assert loss(DataPoint(np.array([3.0]), 7.0), params) == 0.0

    def test_squared_residual(self):
        params = Parameters(np.array([1.0]), 0.0)
        assert loss(DataPoint(np.array([0.0]), 2.0), params) == pytest.approx(4.0)

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal()
            w = rng.normal(size=3)
            b = rng.normal()
            expected = (y - (w @ x + b)) ** 2
            assert loss(DataPoint(x, y), Parameters(w, b)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss(DataPoint(np.array([1.0, 2.0]), 0.0), Parameters(np.array([1.0]), 0.0))


class TestRisk:
    def test_zero_on_line(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        assert risk(data, Parameters(np.array([1.0]), 1.0)) == 0.0

    def test_mean_of_losses(self):
        # losses 2 and 4 average to 3
        data = Dataset(np.array([[0.0], [0.0]]), np.array([np.sqrt(2.0), 2.0]))
        params = Parameters(np.array([0.0]), 0.0)
        assert risk(data, params) == pytest.approx(3.0, rel=1e-14)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        params = Parameters(rng.normal(size=2), rng.normal())
        expected = sum(loss(DataPoint(X[i], y[i]), params) for i in range(100)) / 100
        assert risk(Dataset(X, y), params) == pytest.approx(expected, rel=1e-12)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            risk(Dataset(np.empty((0, 1)), np.empty(0)), Parameters(np.array([0.0]), 0.0))


class TestGradientsAndHessians:
    def test_zero_residual_gradient(self):
        params = Parameters(np.array([1.0]), 0.0)
        np.testing.assert_array_equal(
            loss_gradient(DataPoint(np.array([1.0]), 1.0), params), [0.0, 0.0]
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            z = DataPoint(rng.normal(size=3), rng.normal())
            theta = rng.normal(size=4)

            def f(t):
                return loss(z, Parameters(t[:-1], t[-1]))

            expected = central_difference_gradient(f, theta, step=1e-6)
            got = loss_gradient(z, Parameters(theta[:-1], theta[-1]))
            np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_point_hessian_small_cases(self):
        np.testing.assert_allclose(
            point_hessian(DataPoint(np.array([0.0]), 0.0)), [[0.0, 0.0], [0.0, 2.0]]
        )
        np.testing.assert_allclose(
            point_hessian(DataPoint(np.array([1.0]), 0.0)), [[2.0, 2.0], [2.0, 2.0]]
        )

    def test_point_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(23)
        z = DataPoint(rng.normal(size=2), rng.normal())
        theta = rng.normal(size=3)
        step = 1e-6
        H = np.zeros((3, 3))
        for i in range(3):
            up = theta.copy()
            dn = theta.copy()
            up[i] += step
            dn[i] -= step
            gu = loss_gradient(z, Parameters(up[:-1], up[-1]))
            gd = loss_gradient(z, Parameters(dn[:-1], dn[-1]))
            H[:, i] = (gu - gd) / (2 * step)
        np.testing.assert_allclose(point_hessian(z), H, atol=1e-5)

    def test_empirical_hessian_single_and_duplicate(self):
        z = DataPoint(np.array([1.5]), 0.0)
        single = Dataset(np.array([[1.5]]), np.array([0.0]))
        np.testing.assert_allclose(empirical_hessian(single), point_hessian(z))
        double = Dataset(np.array([[1.5], [1.5]]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(empirical_hessian(double), point_hessian(z))

    def test_empirical_hessian_matches_matrix_oracle(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        data = Dataset(X, rng.normal(size=40))
        aug = augment(X)
        expected = (2.0 / 40) * np.einsum("ni,nj->ij", aug, aug)
        np.testing.assert_allclose(empirical_hessian(data), expected, atol=1e-12)

    def test_empirical_hessian_symmetric_psd(self):
        rng = np.random.default_rng(33)
        data = Dataset(rng.normal(size=(30, 4)), rng.normal(size=30))
        H = empirical_hessian(data)
        np.testing.assert_array_equal(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-12
