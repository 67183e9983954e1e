import math
from fractions import Fraction

import numpy as np
import pytest

from influence_market import (
    Dataset,
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    EmptyStream,
    InsufficientInitialization,
    MechanismConfig,
    MixtureParams,
    SingularDesign,
    budget_estimate,
    build_population,
    correction_inclusive,
    fit,
    generate_world,
    independent_test_set,
    initialize_model,
    report_stream,
    risk,
    run_mechanism,
    total_risk_change,
)

from influence_market.mechanism import _add_compensated

from helpers import exact_fit_risk, mann_kendall_z


def world_and_data(seed, n_stream=120, n_test=60):
    world = generate_world(seed)
    stream = report_stream(build_population(n_stream, 1.0), world, seed + 1)
    test = independent_test_set(world, n_test, seed + 2)
    return world, stream, test


def config_for(world, **kw):
    base = dict(
        batch_size=1,
        mode="inclusive",
        init_count=20,
        init_x_bounds=world.x_bounds,
        init_y_bounds=world.heuristic_y_bounds,
        influence_method="exact",
    )
    base.update(kw)
    return MechanismConfig(**base)


class TestInitializeModel:
    def test_deterministic_under_seed(self):
        # minimal viable count (d + 1) is bit-identical across runs
        a = initialize_model(3, (-1, 1), (-3, 3), seed=9, dimension=2)
        b = initialize_model(3, (-1, 1), (-3, 3), seed=9, dimension=2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_uniform_moments(self):
        data = initialize_model(500, (-1, 1), (-3, 3), seed=4, dimension=1)
        # mean of U(-1,1) is 0 with sd 1/sqrt(3); 3 sigma of the sample mean
        assert abs(data.X.mean()) <= 3 * (1 / np.sqrt(3)) / np.sqrt(500)
        assert abs(data.y.mean()) <= 3 * (6 / np.sqrt(12)) / np.sqrt(500)
        assert data.X.min() >= -1 and data.X.max() <= 1
        assert data.y.min() >= -3 and data.y.max() <= 3

    def test_too_few_points(self):
        with pytest.raises(InsufficientInitialization):
            initialize_model(0, (-1, 1), (-3, 3), seed=0, dimension=1)
        with pytest.raises(InsufficientInitialization):
            initialize_model(2, (-1, 1), (-3, 3), seed=0, dimension=2)


class TestTelescoping:
    @pytest.mark.parametrize("mode", ["inclusive", "exclusive"])
    def test_batch_size_one_exact(self, mode):
        world, stream, test = world_and_data(1)
        ledger = run_mechanism(stream, test, config_for(world, mode=mode), seed=3)
        total_change = ledger.initial_risk - ledger.final_risk
        assert abs(ledger.sum_raw - total_change) <= 1e-9

    def test_five_seeds(self):
        for seed in range(5):
            world, stream, test = world_and_data(10 + seed)
            ledger = run_mechanism(stream, test, config_for(world), seed=seed)
            assert abs(ledger.sum_raw - (ledger.initial_risk - ledger.final_risk)) <= 1e-9


class TestModeEquivalence:
    def test_batch_size_one_pointwise(self):
        world, stream, test = world_and_data(5)
        inc = run_mechanism(stream, test, config_for(world, mode="inclusive"), seed=7)
        exc = run_mechanism(stream, test, config_for(world, mode="exclusive"), seed=7)
        a = np.array([e.raw_influence for e in inc.entries])
        b = np.array([e.raw_influence for e in exc.entries])
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestLedger:
    def test_totals_match_columns(self):
        world, stream, test = world_and_data(8)
        config = config_for(world, batch_size=16, payment_scale=2.0,
                            normalization="closed-form-D")
        ledger = run_mechanism(stream, test, config, seed=2)
        raws = [e.raw_influence for e in ledger.entries]
        correcteds = [e.corrected_score for e in ledger.entries]
        payments = [e.payment for e in ledger.entries]
        import math

        assert ledger.sum_raw == math.fsum(raws)
        assert ledger.sum_corrected == math.fsum(correcteds)
        assert ledger.sum_payments == math.fsum(payments)
        # power-of-two scale keeps per-entry scaling exact
        assert ledger.sum_payments == 2.0 * ledger.sum_corrected

    def test_batch_indices_non_decreasing(self):
        world, stream, test = world_and_data(9)
        ledger = run_mechanism(stream, test, config_for(world, batch_size=7), seed=2)
        indices = [e.batch_index for e in ledger.entries]
        assert indices == sorted(indices)
        # final partial batch: 120 = 17 * 7 + 1
        assert indices[-1] == 18
        assert sum(1 for i in indices if i == 18) == 1

    def test_normalization_divides_by_correction(self):
        world, stream, test = world_and_data(12)
        config = config_for(world, batch_size=30, normalization="closed-form-D")
        ledger = run_mechanism(stream, test, config, seed=4)
        params = MixtureParams(init_count=20, n_collected=120, batch_size=30)
        factor = correction_inclusive(params)
        for e in ledger.entries:
            assert e.corrected_score == pytest.approx(e.raw_influence / factor, rel=1e-12)

    def test_normalization_counts_the_given_init(self):
        # an explicit init of 100 points overrides config.init_count = 20
        world, stream, test = world_and_data(13, n_stream=200)
        init = initialize_model(100, world.x_bounds, world.heuristic_y_bounds, seed=4)
        config = config_for(world, batch_size=10, normalization="closed-form-D")
        ledger = run_mechanism(stream, test, config, init=init)
        factor = correction_inclusive(MixtureParams(init_count=100, n_collected=200,
                                                    batch_size=10))
        assert factor == pytest.approx(0.897, abs=5e-4)
        for e in ledger.entries:
            assert e.corrected_score == pytest.approx(e.raw_influence / factor, rel=1e-12)

    def test_determinism(self):
        world, stream, test = world_and_data(15)
        config = config_for(world, batch_size=11)
        a = run_mechanism(stream, test, config, seed=6)
        b = run_mechanism(stream, test, config, seed=6)
        assert a.rows() == b.rows()
        assert a.risk_trace == b.risk_trace

    def test_risk_trace_length(self):
        world, stream, test = world_and_data(16)
        ledger = run_mechanism(stream, test, config_for(world, batch_size=40), seed=1)
        assert len(ledger.risk_trace) == 1 + 3  # 120 points / 40 per batch


class TestEarlyReportingIncentive:
    def test_mean_influence_decays_over_batches(self):
        # ensemble of seeded runs; Mann-Kendall rejects "no decay" at 95%
        traces = []
        for seed in range(6):
            world, stream, test = world_and_data(40 + seed, n_stream=300)
            config = config_for(world, batch_size=30, init_count=50)
            ledger = run_mechanism(stream, test, config, seed=seed)
            traces.append(ledger.batch_mean_influences())
        means = np.mean(np.asarray(traces), axis=0)
        assert mann_kendall_z(means) < -1.645


class TestApproximatePaths:
    @pytest.mark.parametrize("mode", ["inclusive", "exclusive"])
    @pytest.mark.parametrize("method", ["first-order", "second-order"])
    def test_approximations_track_exact(self, mode, method):
        world, stream, test = world_and_data(21, n_stream=200)
        exact_cfg = config_for(world, batch_size=25, mode=mode, init_count=40)
        approx_cfg = config_for(
            world, batch_size=25, mode=mode, init_count=40, influence_method=method
        )
        exact = run_mechanism(stream, test, exact_cfg, seed=5)
        approx = run_mechanism(stream, test, approx_cfg, seed=5)
        a = np.array([e.raw_influence for e in exact.entries])
        b = np.array([e.raw_influence for e in approx.entries])
        # leverage is ~3% in the first batch (n = 65) so first-order errors sit
        # at the few-percent level; second order contributes the square
        scale = np.mean(np.abs(a))
        err = np.mean(np.abs(a - b))
        assert err <= (0.2 if method == "first-order" else 0.02) * scale
        if method == "second-order":
            first_cfg = config_for(
                world, batch_size=25, mode=mode, init_count=40,
                influence_method="first-order",
            )
            first = run_mechanism(stream, test, first_cfg, seed=5)
            c = np.array([e.raw_influence for e in first.entries])
            assert err < np.mean(np.abs(a - c))

    def test_second_order_add_one_matches_exact_refit(self):
        # exclusive-mode approximation against literal add-one refits
        from influence_market import fit, risk

        world, stream, test = world_and_data(22, n_stream=60)
        config = config_for(
            world, batch_size=60, mode="exclusive", init_count=40,
            influence_method="second-order",
        )
        init = initialize_model(40, world.x_bounds, world.heuristic_y_bounds, seed=9,
                                dimension=1)
        ledger = run_mechanism(stream, test, config, seed=9, init=init)
        base_model = fit(init)
        base_risk = risk(test, base_model.params)
        scale = np.mean(np.abs([e.raw_influence for e in ledger.entries]))
        for i, e in enumerate(ledger.entries):
            added = init.extended(stream.subset([i]))
            refit = fit(added)
            expected = base_risk - risk(test, refit.params)
            # leverage ~5% against 40 init points: h^2-sized discrepancy
            assert e.raw_influence == pytest.approx(expected, abs=0.02 * scale)


class TestAccumulation:
    # (run seed, iteration) of steep worlds (|slope| 2800-7400, test risk
    # 1.8e5-1.2e6) in the mech-sequential benchmark recipe: q=500, n=1500,
    # n_test=200, b=1, exact. Added one report at a time without
    # compensation, the sufficient statistics put the final risk 0.9-2.1e-14
    # off the exact rational fit; compensated, within 4.8e-16.
    STEEP = [(6, 1364), (3, 368), (18, 116)]

    @pytest.mark.parametrize("run_seed, iteration", STEEP)
    def test_final_risk_matches_exact_rational_fit(self, run_seed, iteration):
        s = int(np.random.SeedSequence([run_seed, 0, iteration]).generate_state(1)[0])
        world = generate_world(s)
        stream = report_stream(build_population(1500, 1.0), world, s + 1)
        test = independent_test_set(world, 200, s + 2)
        init = initialize_model(500, world.x_bounds, world.heuristic_y_bounds, s + 3)
        want = exact_fit_risk(
            np.vstack([init.X, stream.X]), np.concatenate([init.y, stream.y]), test.X, test.y
        )
        for mode in ("inclusive", "exclusive"):
            config = config_for(world, init_count=500, mode=mode)
            ledger = run_mechanism(stream, test, config, seed=s + 3)
            assert float(abs(Fraction(ledger.final_risk) - want) / want) <= 4e-15

    def test_compensated_sum_is_correctly_rounded(self):
        # A large first term, as a Gram diagonal has after the
        # initialization, then many small ones: a plain running sum loses a
        # rounding of the total per term.
        rng = np.random.default_rng(0)
        addends = rng.uniform(0.0, 1.0, size=(5000, 2, 2))
        addends[0] += 1e8
        total, carry = addends[0].copy(), np.zeros((2, 2))
        for addend in addends[1:]:
            total, carry = _add_compensated(total, carry, addend)
        exact = np.array(
            [[math.fsum(addends[:, i, j].tolist()) for j in range(2)] for i in range(2)]
        )
        assert np.all(np.abs((total + carry) - exact) <= np.spacing(exact))


class TestGuards:
    def test_empty_stream(self):
        world, stream, test = world_and_data(30)
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(EmptyStream):
            run_mechanism(empty, test, config_for(world), seed=0)

    def test_empty_test_set(self):
        world, stream, test = world_and_data(30)
        empty = Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(EmptyDataset, match="test set is empty"):
            run_mechanism(stream, empty, config_for(world), seed=0)

    @pytest.mark.parametrize("mode", ["inclusive", "exclusive"])
    def test_init_and_stream_may_both_keep_default_rows(self, mode):
        # Two sets built apart, each with rows 0..n-1, are separate points.
        world, stream, test = world_and_data(31)
        rng = np.random.default_rng(31)
        init = Dataset(rng.uniform(-1.0, 1.0, size=(20, 1)), rng.uniform(-3.0, 3.0, size=20))
        ledger = run_mechanism(stream, test, config_for(world, mode=mode), init=init)
        assert ledger.risk_trace[0] == pytest.approx(risk(test, fit(init).params), rel=1e-14)
        assert len(ledger.entries) == len(stream)
        drop = ledger.initial_risk - ledger.final_risk
        assert ledger.sum_raw == pytest.approx(drop, rel=1e-12)

    def test_dimension_mismatch(self):
        world, stream, test = world_and_data(32)
        wide_test = Dataset(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            run_mechanism(stream, wide_test, config_for(world), seed=0)
        wide_init = initialize_model(5, (-1, 1), (-3, 3), seed=0, dimension=2)
        with pytest.raises(DimensionMismatch):
            run_mechanism(stream, test, config_for(world), init=wide_init)

    # Reports this large overflow the accumulated Gram matrix, so the first
    # batch's solve yields a NaN gradient, which must not pass as a model.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["inclusive", "exclusive"])
    def test_overflowing_reports_raise(self, mode):
        X = np.array([[1.0], [2.0], [3.5], [4.0]])
        y = np.array([1.0, 2.0, 3.0, 5.0])
        init = Dataset(X[:3] / 10, y[:3])
        stream, test = Dataset(X * 1e160, y), Dataset(X, y)
        with pytest.raises(SingularDesign, match="optimality certificate"):
            run_mechanism(stream, test, MechanismConfig(mode=mode), init=init)

    def test_bad_config(self):
        with pytest.raises(DomainError):
            MechanismConfig(batch_size=0)
        with pytest.raises(DomainError):
            MechanismConfig(mode="both")
        with pytest.raises(DomainError):
            MechanismConfig(payment_scale=0.0)
        with pytest.raises(DomainError):
            MechanismConfig(init_x_bounds=(1.0, 1.0))


class TestBudgetEstimate:
    def test_zero_points(self):
        assert budget_estimate(100, 0, 1.0, 2.0) == 0.0

    def test_no_initialization_limit(self):
        # with a vanishing initialization the whole gap is recovered
        assert budget_estimate(0, 1500, 0.8, 1.0) == pytest.approx(0.8, rel=1e-12)

    def test_matches_closed_form(self):
        params = MixtureParams(init_count=500, n_collected=1500, model_gap=1.0)
        assert budget_estimate(500, 1500, 1.0, 1.0) == pytest.approx(
            total_risk_change(params), rel=1e-14
        )
        assert budget_estimate(500, 1500, 1.0, 1.0) == pytest.approx(0.9375, rel=1e-14)

    def test_alpha_scales(self):
        assert budget_estimate(500, 1500, 1.0, 3.0) == pytest.approx(3 * 0.9375, rel=1e-14)
