import numpy as np
import pytest

from influence_market import (
    AgentProfile,
    DomainError,
    MechanismConfig,
    Parameters,
    WorldModel,
    best_response_check,
    build_population,
    closed_form_mixture,
    fit,
    generate_world,
    heuristic_report,
    opt_out_followup,
    quadratic_peak,
    report_stream,
    simulate_population,
    truthful_report,
    truthful_threshold,
)

from helpers import ks_critical, ks_two_sample


def engineered_world(slope=1.0, bias=0.0, noise=1.0, y_half_width=np.sqrt(3)):
    return WorldModel(
        true_params=Parameters(np.array([slope]), bias),
        noise_std=noise,
        x_bounds=(-1.0, 1.0),
        heuristic_y_bounds=(-y_half_width, y_half_width),
    )


def default_config(world, **kw):
    base = dict(
        batch_size=25,
        mode="inclusive",
        init_count=20,
        init_x_bounds=world.x_bounds,
        init_y_bounds=world.heuristic_y_bounds,
        influence_method="exact",
    )
    base.update(kw)
    return MechanismConfig(**base)


class TestWorldGeneration:
    def test_reproducible(self):
        a = generate_world(77)
        b = generate_world(77)
        np.testing.assert_array_equal(a.true_params.weights, b.true_params.weights)
        assert a.true_params.bias == b.true_params.bias

    def test_slope_sign_symmetric(self):
        slopes = np.array(
            [generate_world(seed).true_params.weights[0] for seed in range(2000)]
        )
        # median of tan(uniform angle) is 0; binomial 3-sigma band on the sign
        assert abs(np.mean(slopes > 0) - 0.5) <= 3 * 0.5 / np.sqrt(2000)

    def test_zero_angle_gives_zero_slope(self):
        # tan(0) = 0: a flat world is representable and behaves
        world = engineered_world(slope=0.0, bias=0.5)
        point = truthful_report(world, seed=1)
        assert np.isfinite(point.y)

    def test_unit_noise_and_bounds(self):
        world = generate_world(5)
        assert world.noise_std == 1.0
        assert world.x_bounds == (-1.0, 1.0)


class TestTruthfulReport:
    def test_zero_noise_lies_on_line(self):
        world = engineered_world(slope=2.0, bias=-1.0, noise=0.0)
        for seed in range(5):
            p = truthful_report(world, seed)
            assert p.y == pytest.approx(2.0 * p.x[0] - 1.0, abs=1e-12)

    def test_residual_variance_near_one(self):
        world = engineered_world()
        rng = np.random.default_rng(8)
        residuals = []
        for _ in range(10_000):
            p = truthful_report(world, rng)
            residuals.append(p.y - (p.x[0] + 0.0))
        assert np.var(residuals) == pytest.approx(1.0, rel=0.05)

    def test_fit_recovers_true_params(self):
        world = engineered_world(slope=1.3, bias=0.4)
        rng = np.random.default_rng(9)
        from influence_market import Dataset

        points = [truthful_report(world, rng, arrival_index=i) for i in range(10_000)]
        data = Dataset.from_points(points)
        model = fit(data)
        # standard errors ~ noise / sqrt(n * var_x); 3-sigma acceptance
        se_slope = 1.0 / np.sqrt(10_000 * (1.0 / 3.0))
        se_bias = 1.0 / np.sqrt(10_000)
        assert abs(model.params.weights[0] - 1.3) <= 3 * se_slope
        assert abs(model.params.bias - 0.4) <= 3 * se_bias

    def test_error_shrinks_with_sample_size(self):
        world = engineered_world(slope=0.7, bias=-0.2)
        from influence_market import Dataset

        errs = {}
        for n in (2500, 10_000):
            rng = np.random.default_rng(10)
            points = [truthful_report(world, rng, arrival_index=i) for i in range(n)]
            model = fit(Dataset.from_points(points))
            truth = np.array([0.7, -0.2])
            errs[n] = np.linalg.norm(model.params.as_vector() - truth)
        # quadrupling the sample should roughly halve the error
        assert errs[10_000] < errs[2500]


class TestHeuristicReport:
    def test_xy_independent(self):
        world = engineered_world()
        rng = np.random.default_rng(11)
        xs, ys = [], []
        for _ in range(10_000):
            p = heuristic_report(world, rng)
            xs.append(p.x[0])
            ys.append(p.y)
        corr = np.corrcoef(xs, ys)[0, 1]
        assert abs(corr) <= 3 / np.sqrt(10_000)

    def test_x_marginal_matches_truthful(self):
        world = engineered_world()
        rng = np.random.default_rng(12)
        xs_h = [heuristic_report(world, rng).x[0] for _ in range(2000)]
        xs_t = [truthful_report(world, rng).x[0] for _ in range(2000)]
        assert ks_two_sample(xs_h, xs_t) <= ks_critical(2000, 2000)

    def test_y_within_bounds(self):
        world = engineered_world(y_half_width=2.0)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = heuristic_report(world, rng)
            assert -2.0 <= p.y <= 2.0


class TestProfilesAndStreams:
    def test_population_counts(self):
        profiles = build_population(10, 0.7, effort=0.5)
        strategies = [p.strategy for p in profiles]
        assert strategies.count("truthful") == 7
        assert strategies.count("heuristic") == 3
        assert all(p.effort == 0.5 for p in profiles if p.strategy == "truthful")
        assert all(p.effort == 0.0 for p in profiles if p.strategy == "heuristic")

    def test_heuristic_effort_rejected(self):
        with pytest.raises(DomainError):
            AgentProfile("a", "heuristic", effort=1.0)

    def test_stream_deterministic(self):
        world = generate_world(3)
        profiles = build_population(50, 0.5)
        a = report_stream(profiles, world, 21)
        b = report_stream(profiles, world, 21)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.agent_ids == b.agent_ids

    def test_opted_out_agents_excluded(self):
        world = generate_world(4)
        profiles = build_population(10, 1.0)
        profiles[0].opt_in = False
        stream = report_stream(profiles, world, 5)
        assert len(stream) == 9
        assert profiles[0].agent_id not in stream.agent_ids

    def test_perturbed_strategy_shifts_target(self):
        world = engineered_world(noise=0.0)
        honest = [AgentProfile("p", "perturbed", effort=0.1, deviation=0.0)]
        shifted = [AgentProfile("p", "perturbed", effort=0.1, deviation=1.5)]
        a = report_stream(honest, world, 7)
        b = report_stream(shifted, world, 7)
        np.testing.assert_array_equal(a.X, b.X)
        assert b.y[0] == pytest.approx(a.y[0] + 1.5, abs=1e-12)


class TestSimulatePopulation:
    def test_sign_separation_independent_mode(self):
        # statistical reproduction on a handful of seeds per fraction
        for p in (0.25, 0.5, 0.75):
            wins = 0
            for seed in range(4):
                world = generate_world(100 + seed)
                res = simulate_population(
                    300, p, world, default_config(world),
                    test_mode="independent", seed=seed, n_test=150,
                )
                h = res.mean_payments["heuristic"]
                t = res.mean_payments["truthful"]
                if h < 0 < t:
                    wins += 1
            assert wins >= 3

    def test_all_truthful_population(self):
        world = generate_world(31)
        res = simulate_population(
            120, 1.0, world, default_config(world), seed=2, n_test=100
        )
        assert set(res.mean_payments) == {"truthful"}
        assert res.empirical_truthful_fraction == 1.0

    def test_deterministic(self):
        world = generate_world(32)
        a = simulate_population(80, 0.5, world, default_config(world), seed=9, n_test=60)
        b = simulate_population(80, 0.5, world, default_config(world), seed=9, n_test=60)
        assert a.ledger.rows() == b.ledger.rows()
        assert a.mean_payments == b.mean_payments

    def test_from_reports_holds_out_test(self):
        world = generate_world(33)
        res = simulate_population(
            200, 0.5, world, default_config(world),
            test_mode="from-reports", seed=4, n_test=50,
        )
        assert len(res.ledger.entries) == 150
        # held-out agents are unpaid
        paid = {e.agent_id for e in res.ledger.entries}
        assert len(paid) == 150

    def test_from_reports_needs_spare_reports(self):
        world = generate_world(34)
        with pytest.raises(DomainError):
            simulate_population(
                40, 0.5, world, default_config(world),
                test_mode="from-reports", seed=1, n_test=40,
            )

    def test_threshold_crossing_matches_theory(self):
        # engineered R11 = R22 so the predicted flip sits at one half; the
        # per-p payment gaps are noisy, so locate the sign flip by a linear
        # fit over a seeded sweep (the gap is linear in p in expectation)
        world = engineered_world()
        params = closed_form_mixture(world, 20, 600)
        p_star = truthful_threshold(params)
        assert p_star == pytest.approx(0.5, abs=1e-12)
        config = default_config(world)
        p_grid = np.arange(0.30, 0.71, 0.05)
        means = []
        for p in p_grid:
            vals = []
            for seed in range(8):
                res = simulate_population(
                    700, float(p), world, config,
                    test_mode="from-reports", seed=1000 * seed + 17, n_test=100,
                )
                vals.append(
                    res.mean_payments["truthful"] - res.mean_payments["heuristic"]
                )
            means.append(np.mean(vals))
        slope, intercept = np.polyfit(p_grid, means, 1)
        assert slope > 0  # truthful advantage grows with the truthful share
        crossing = -intercept / slope
        assert crossing == pytest.approx(p_star, abs=0.1)


class TestOptOut:
    def test_negative_utility_agents_leave(self):
        world = generate_world(51)
        config = default_config(world, effort_cost=1e-4, init_count=100, batch_size=20)
        r1 = simulate_population(300, 1.0, world, config, seed=3, n_test=150)
        losers = {a for a, u in r1.utilities.items() if u < 0}
        assert losers  # the late arrivals earn less than the effort cost
        r2 = opt_out_followup(r1, world, config, seed=3, n_test=150)
        stayers = {p.agent_id for p in r2.profiles if p.opt_in}
        assert stayers.isdisjoint(losers)
        assert len(stayers) == 300 - len(losers)

    def test_losing_priced_out_truthful_agents_lowers_mean_payout(self):
        # paired worlds, all-truthful populations: dropping real data lowers
        # the achievable risk reduction, hence the expected payout
        diffs = []
        for seed in range(10):
            world = generate_world(300 + seed)
            config = default_config(
                world, effort_cost=1e-4, init_count=100, batch_size=20
            )
            r1 = simulate_population(300, 1.0, world, config, seed=seed, n_test=200)
            if not any(u < 0 for u in r1.utilities.values()):
                continue
            r2 = opt_out_followup(r1, world, config, seed=seed, n_test=200)
            diffs.append(r2.ledger.sum_payments - r1.ledger.sum_payments)
        assert diffs
        assert np.mean(diffs) < 0


class TestBestResponse:
    def test_underdetermined_guard(self):
        world = generate_world(61)
        with pytest.raises(DomainError):
            best_response_check(world, n_others=0, deviation_grid=[-1, 0, 1], seed=0)

    def test_truthful_maximizes(self):
        world = generate_world(42)
        grid = [-2, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2]
        table = best_response_check(
            world, n_others=50, deviation_grid=grid, seed=0, n_trials=1000, n_test=100
        )
        best = max(table, key=lambda r: r["mean_influence"])["deviation"]
        assert abs(best) <= 0.25
        assert abs(quadratic_peak(table)) <= 0.25

    @pytest.mark.parametrize("deviations", [[0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.5]])
    def test_quadratic_peak_needs_three_deviations(self, deviations):
        table = [{"deviation": c, "mean_influence": -c * c} for c in deviations]
        with pytest.raises(DomainError, match="at least 3 distinct deviations"):
            quadratic_peak(table)

    def test_monotone_decay(self):
        world = generate_world(42)
        table = best_response_check(
            world, n_others=50, deviation_grid=[-2, -0.5, 0.5, 2], seed=3,
            n_trials=600, n_test=100,
        )
        by_dev = {r["deviation"]: r["mean_influence"] for r in table}
        assert max(by_dev[2.0], by_dev[-2.0]) < min(by_dev[0.5], by_dev[-0.5])

    def test_deterministic(self):
        world = generate_world(63)
        a = best_response_check(world, 30, [-1, 0, 1], seed=5, n_trials=50, n_test=40)
        b = best_response_check(world, 30, [-1, 0, 1], seed=5, n_trials=50, n_test=40)
        assert a == b
