"""
Acceptance suite: one test per criterion, each printing a PASS line with the
measured numbers when it succeeds (run with -v or -rA to see them).
"""

import math

import numpy as np
import pytest

from influence_market import (
    Dataset,
    MechanismConfig,
    MixtureParams,
    Parameters,
    WorldModel,
    approximation_errors,
    best_response_check,
    build_population,
    closed_form_mixture,
    correction_exclusive,
    correction_inclusive,
    crossover_dimension,
    exact_influence,
    first_order_influences,
    fit,
    generate_world,
    independent_test_set,
    quadratic_peak,
    report_stream,
    run_mechanism,
    simulate_population,
    tetragamma,
    timing_comparison,
    truthful_threshold,
)

from helpers import mann_kendall_z, random_regression, refit_influence


def linear_generated(seed, n_train=1000, n_test=200):
    world = generate_world(seed)
    train = report_stream(build_population(n_train, 1.0), world, seed + 1)
    test = independent_test_set(world, n_test, seed + 2)
    return world, train, test


def mechanism_config(world, **kw):
    base = dict(
        mode="inclusive",
        init_x_bounds=world.x_bounds,
        init_y_bounds=world.heuristic_y_bounds,
        influence_method="exact",
    )
    base.update(kw)
    return MechanismConfig(**base)


def test_criterion_01_approximation_dominance():
    # Linear Generated, 1000 train / 200 test, 10 seeds: second-order
    # relative L1 <= 1e-5 and at least 100x below first order
    firsts, seconds = [], []
    for seed in range(10):
        _, train, test = linear_generated(seed)
        model = fit(train)
        firsts.append(approximation_errors(train, test, order="first", model=model).relative_l1)
        seconds.append(approximation_errors(train, test, order="second", model=model).relative_l1)
    first_rel = float(np.mean(firsts))
    second_rel = float(np.mean(seconds))
    assert second_rel <= 1e-5
    assert second_rel * 100 <= first_rel
    print(
        f"CRITERION 1 PASS: relative L1 first={first_rel:.3e} "
        f"second={second_rel:.3e} (ratio {first_rel / second_rel:.0f}x)"
    )


def test_criterion_02_zero_mean_influence():
    # per-test-point sums of first-order influence vanish on every dataset
    rng = np.random.default_rng(7)
    datasets = []
    _, train, test = linear_generated(3)
    datasets.append(("linear-generated", train, test))
    for d in (3, 8):
        X, y = random_regression(rng, 400, d, noise=1.0)
        Xt, yt = random_regression(rng, 50, d, noise=1.0)
        datasets.append((f"synthetic-d{d}", Dataset(X, y), Dataset(Xt, yt)))
    worst = 0.0
    for name, train, test in datasets:
        model = fit(train)
        for t in range(len(test)):
            single = test.subset([t])
            values = first_order_influences(model, train, single)
            ratio = abs(values.sum()) / max(np.max(np.abs(values)), 1e-300)
            worst = max(worst, ratio)
        assert worst <= 1e-8, name
    print(f"CRITERION 2 PASS: worst per-test-point |sum|/max = {worst:.2e}")


def test_criterion_03_telescoping_identity():
    worst = 0.0
    for seed in range(5):
        world, stream, test = linear_generated(20 + seed, n_train=400, n_test=150)
        config = mechanism_config(world, batch_size=1, init_count=50)
        ledger = run_mechanism(stream, test, config, seed=seed)
        residual = abs(ledger.sum_raw - (ledger.initial_risk - ledger.final_risk))
        worst = max(worst, residual)
        assert residual <= 1e-9
    print(f"CRITERION 3 PASS: worst telescoping residual = {worst:.2e}")


def test_criterion_04a_correction_ratio_identity():
    # closed forms equal direct finite sums wherever the discrete sum is
    # defined (batch size divides n = 1500), for every batch size up to 300
    n = 1500
    divisors = [b for b in range(1, 301) if n % b == 0]
    assert divisors[0] == 1 and divisors[-1] == 300 and len(divisors) == 20
    worst = 0.0
    for q in (20, 100, 200, 500):
        for b in divisors:
            m = n // b
            s_inc = math.fsum(2.0 * b * q * q / (q + k * b) ** 3 for k in range(1, m + 1))
            s_exc = math.fsum(2.0 * b * q * q / (q + k * b) ** 3 for k in range(0, m))
            delta = n * (2.0 * q + n) / (q + n) ** 2
            params = MixtureParams(init_count=q, n_collected=n, batch_size=b)
            err_inc = abs(correction_inclusive(params) - s_inc / delta)
            err_exc = abs(correction_exclusive(params) - s_exc / delta)
            worst = max(worst, err_inc, err_exc)
            assert err_inc <= 1e-9 and err_exc <= 1e-9, (q, b)
    print(f"CRITERION 4a PASS: worst |closed form - direct sum| = {worst:.2e}")


def test_criterion_04b_empirical_ratios_match_theory():
    # 10 trials, Q=500, n=1500, linear generated: empirical ratios within 15%
    # of the closed forms, exclusive above inclusive at every batch size
    q, n = 500, 1500
    batch_sizes = (1, 5, 10, 25, 50, 100, 300)
    lines = []
    for b in batch_sizes:
        inc_sums, exc_sums, deltas = [], [], []
        for trial in range(10):
            world, stream, test = linear_generated(
                1000 + 97 * trial, n_train=n, n_test=200
            )
            for mode, sums in (("inclusive", inc_sums), ("exclusive", exc_sums)):
                config = mechanism_config(world, batch_size=b, mode=mode, init_count=q)
                ledger = run_mechanism(stream, test, config, seed=trial)
                sums.append(ledger.sum_raw)
                if mode == "inclusive":
                    deltas.append(ledger.initial_risk - ledger.final_risk)
        mean_delta = float(np.mean(deltas))
        ratio_inc = float(np.mean(inc_sums)) / mean_delta
        ratio_exc = float(np.mean(exc_sums)) / mean_delta
        params = MixtureParams(init_count=q, n_collected=n, batch_size=b)
        theory_inc = correction_inclusive(params)
        theory_exc = correction_exclusive(params)
        assert abs(ratio_inc - theory_inc) <= 0.15 * theory_inc, b
        assert abs(ratio_exc - theory_exc) <= 0.15 * theory_exc, b
        assert ratio_exc >= ratio_inc, b
        lines.append(
            f"b={b}: inc {ratio_inc:.3f}/{theory_inc:.3f} exc {ratio_exc:.3f}/{theory_exc:.3f}"
        )
    print("CRITERION 4b PASS: empirical/theory " + "; ".join(lines))


def test_criterion_05_tetragamma_accuracy():
    value = tetragamma(1.0)
    assert value == pytest.approx(-2.404113806319, abs=1e-11)
    worst = 0.0
    for x in (0.5, 1.0, 5.0, 50.0):
        residual = abs(tetragamma(x + 1.0) - tetragamma(x) - 2.0 / x**3)
        worst = max(worst, residual)
        assert residual <= 1e-12, x
    print(f"CRITERION 5 PASS: psi''(1) = {value:.15f}, worst recurrence residual {worst:.2e}")


def test_criterion_06_influence_decay():
    # 30 batches of 100 on top of 500 initialization points
    wins = 0
    traces = []
    for seed in range(10):
        world, stream, test = linear_generated(50 + seed, n_train=3000, n_test=200)
        config = mechanism_config(world, batch_size=100, init_count=500)
        ledger = run_mechanism(stream, test, config, seed=seed)
        trace = ledger.batch_mean_influences()
        assert len(trace) == 30
        traces.append(trace)
        if trace[0] > trace[-1]:
            wins += 1
    assert wins >= 9
    z = mann_kendall_z(np.mean(np.asarray(traces), axis=0))
    assert z < -1.645  # one-sided 95%: decay
    print(f"CRITERION 6 PASS: batch1 > batch30 in {wins}/10 seeds, Mann-Kendall z = {z:.2f}")


def engineered_threshold_world():
    # R11 = R22 = 1 (heuristic width 2*sqrt(3), unit noise), so p* = 1/2
    return WorldModel(
        true_params=Parameters(np.array([1.0]), 0.0),
        noise_std=1.0,
        x_bounds=(-1.0, 1.0),
        heuristic_y_bounds=(-np.sqrt(3.0), np.sqrt(3.0)),
    )


def test_criterion_07_heuristic_robustness():
    # independent test set: payment signs separate in >= 9/10 seeds
    sign_lines = []
    for p in (0.25, 0.5, 0.75):
        wins = 0
        for seed in range(10):
            world = generate_world(100 + seed)
            config = mechanism_config(world, batch_size=25, init_count=20)
            res = simulate_population(
                400, p, world, config, test_mode="independent", seed=seed, n_test=200
            )
            if res.mean_payments["heuristic"] < 0 < res.mean_payments["truthful"]:
                wins += 1
        assert wins >= 9, p
        sign_lines.append(f"p={p}: {wins}/10")

    # from-reports: regression-estimated sign flip within 0.1 of the
    # closed-form threshold for the engineered world
    world = engineered_threshold_world()
    params = closed_form_mixture(world, init_count=20, n_collected=600)
    p_star = truthful_threshold(params)
    config = mechanism_config(world, batch_size=25, init_count=20)
    p_grid = np.arange(0.30, 0.71, 0.05)
    means = []
    for p in p_grid:
        gaps = []
        for seed in range(8):
            res = simulate_population(
                700, float(p), world, config,
                test_mode="from-reports", seed=1000 * seed + 17, n_test=100,
            )
            gaps.append(res.mean_payments["truthful"] - res.mean_payments["heuristic"])
        means.append(float(np.mean(gaps)))
    slope, intercept = np.polyfit(p_grid, means, 1)
    assert slope > 0
    crossing = -intercept / slope
    assert abs(crossing - p_star) <= 0.1
    print(
        "CRITERION 7 PASS: sign separation "
        + ", ".join(sign_lines)
        + f"; empirical flip at {crossing:.3f} vs threshold {p_star:.3f}"
    )


def test_criterion_08_best_response():
    grid = [-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0]
    step = 0.25  # finest grid spacing around the origin
    world = generate_world(42)
    table = best_response_check(
        world, n_others=50, deviation_grid=grid, seed=0, n_trials=2500, n_test=100
    )
    best = max(table, key=lambda r: r["mean_influence"])["deviation"]
    peak = quadratic_peak(table)
    assert abs(best) <= step
    assert abs(peak) <= step
    print(f"CRITERION 8 PASS: argmax at {best:+.2f}, quadratic peak at {peak:+.3f}")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    count = 0
    for d in (1, 5, 20):
        for _ in range(67):
            n = int(rng.integers(d + 5, d + 60))
            X, y = random_regression(rng, n, d, noise=1.0)
            Xt, yt = random_regression(rng, 12, d, noise=1.0)
            train = Dataset(X, y)
            test = Dataset(Xt, yt)
            j = int(rng.integers(n))
            down = exact_influence(train, j, test)
            oracle = refit_influence(X, y, j, Xt, yt)
            worst = max(worst, abs(down - oracle))
            count += 1
            assert down == pytest.approx(oracle, abs=1e-9)
    assert count == 201
    print(f"CRITERION 9 PASS: {count} instances, worst |downdate - refit| = {worst:.2e}")


def test_criterion_10_bench_crossover():
    # qualitative only: the approximation must overtake the exact full refit
    # at some finite dimension for a fixed test set; wall-clock ordering, so
    # allow one remeasure if a contended CPU garbles the first sample. The
    # second-order loop costs about the same at every d, and the refit grows
    # with d: at d=128 the two tie within BLAS-threading noise on 2 vCPUs,
    # at d=256 the refit takes 2-3x as long, so the win is asserted there.
    def measure():
        rows = timing_comparison([1000], [1, 16, 128, 256], 400, seed=0)
        by = {(r["method"], r["dimension"]): r["seconds"] for r in rows}
        ok = (
            by[("second-order", 1)] > by[("exact-refit", 1)]
            and by[("second-order", 256)] < by[("exact-refit", 256)]
            and crossover_dimension(rows) is not None
        )
        return ok, rows, by

    ok, rows, by = measure()
    if not ok:
        ok, rows, by = measure()
    assert ok, rows
    print(
        f"CRITERION 10 PASS: exact faster at d=1 "
        f"({by[('exact-refit', 1)]:.2f}s vs {by[('second-order', 1)]:.2f}s), "
        f"approximation overtakes at d={crossover_dimension(rows)} "
        f"(d=256: {by[('exact-refit', 256)]:.2f}s vs {by[('second-order', 256)]:.2f}s)"
    )
