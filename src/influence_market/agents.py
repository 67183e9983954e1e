"""
Agent populations for the mechanism: synthetic linear worlds, truthful and
heuristic reporting strategies, population simulations, and the Monte-Carlo
best-response probe, which prices its deviations with the influence
module's rank-one kernel.

Draw order. Every report is drawn from the caller's generator row by row,
and one private function per strategy defines the order:

* truthful (and perturbed): d uniform features, then one normal noise draw
  when ``noise_std > 0``;
* heuristic: d uniform features, then one uniform target.

This is the bit-generator consumption of ``rng.uniform(size=d)`` followed by
``rng.normal()`` or ``rng.uniform()``. The draws are made as standard
uniforms and standard normals and mapped onto the world's bounds and noise
scale with the same arithmetic those NumPy methods apply. The functions fill
preallocated arrays; ``truthful_report`` and ``heuristic_report`` are
one-row wrappers over them, and ``report_stream``, ``independent_test_set``
and ``best_response_check`` fill whole arrays. So a stream drawn in one call
equals, bit for bit, the same reports drawn one at a time, and leaves the
generator in the same state.

The best-response probe works through its trials in chunks of a fixed size
(``PROBE_CHUNK``): one draw fills a chunk's trials, which follow each other
in the stream, and one stacked solve and one stacked call of the pricing
kernel handle them all. The chunk is fixed so that the probe's memory does
not grow with the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, EmptyDataset
from .influence import _prices, _second_moment, _test_terms
from .mechanism import MechanismConfig, PaymentLedger, run_mechanism
from .mixture import MixtureParams
from .regression import DataPoint, Dataset, Parameters, _solve_normal_equations

STRATEGIES = ("truthful", "heuristic", "perturbed")
# Trials the best-response probe draws, solves and prices per stacked call;
# fixed, so the probe's memory does not grow with n_trials.
PROBE_CHUNK = 25


@dataclass
class AgentProfile:
    """One agent: strategy, effort spent, and participation flag.

    Truthful (and perturbed) agents pay the observation effort; heuristic
    agents spend nothing. ``deviation`` only applies to perturbed agents, who
    observe truthfully and then shift the reported target.
    """

    agent_id: object
    strategy: str
    effort: float = 0.0
    opt_in: bool = True
    deviation: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise DomainError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "heuristic" and self.effort != 0.0:
            raise DomainError("heuristic agents exert zero effort")
        if self.effort < 0:
            raise DomainError("effort must be non-negative")


@dataclass(frozen=True)
class WorldModel:
    """Ground truth generating truthful observations.

    noise_std may be zero only for degenerate checks; generated worlds always
    use unit noise.
    """

    true_params: Parameters
    noise_std: float = 1.0
    x_bounds: tuple = (-1.0, 1.0)
    heuristic_y_bounds: tuple = (-3.0, 3.0)

    def __post_init__(self):
        if self.noise_std < 0:
            raise DomainError("noise_std must be non-negative")
        if not self.x_bounds[1] > self.x_bounds[0]:
            raise DomainError("x_bounds must be a non-degenerate interval")
        if not self.heuristic_y_bounds[1] > self.heuristic_y_bounds[0]:
            raise DomainError("heuristic_y_bounds must be a non-degenerate interval")

    @property
    def dimension(self) -> int:
        return self.true_params.dimension


def generate_world(seed: int) -> WorldModel:
    """Random 1-D linear world: slope = tan(angle) for an angle uniform in
    (-pi/2, pi/2), intercept standard normal, unit observation noise,
    features uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-np.pi / 2, np.pi / 2)
    bias = rng.normal()
    return WorldModel(
        true_params=Parameters(np.array([np.tan(angle)]), bias),
        noise_std=1.0,
        x_bounds=(-1.0, 1.0),
    )


def _scaled(lo: float, hi: float, draws: np.ndarray) -> np.ndarray:
    """Standard uniforms mapped onto [lo, hi) as ``rng.uniform(lo, hi)`` maps them."""
    return lo + (hi - lo) * draws


def _linear_targets(world: WorldModel, X: np.ndarray) -> np.ndarray:
    """w . x + b per row.

    Each row's dot product is taken on its own, as a single report's is, so
    its rounding does not depend on how many rows are drawn together. With
    one feature the dot product is the exact product, so it is taken for all
    rows at once; the per-row loop would nearly double the best-response
    probe's time.
    """
    w, b = world.true_params.weights, world.true_params.bias
    if len(w) == 1:
        return X[:, 0] * w[0] + b
    return np.array([w @ x for x in X], dtype=np.float64) + b


def _draw_truthful(world: WorldModel, rng: np.random.Generator, X: np.ndarray, y: np.ndarray):
    """Fill the n rows of X (n, d) and y (n,) with truthful observations.

    Per row: d uniform features, then one standard normal when
    ``noise_std > 0``. The normal draws take a variable number of bits, so
    the rows are drawn one by one.
    """
    n, d = X.shape
    noisy = world.noise_std > 0
    if noisy:
        calls = (rng.random,) * d + (rng.standard_normal,)
        draws = np.fromiter((call() for call in calls * n), np.float64, n * (d + 1))
        draws = draws.reshape(n, d + 1)
    else:
        draws = rng.random((n, d))
    X[:] = _scaled(*world.x_bounds, draws[:, :d])
    y[:] = _linear_targets(world, X)
    if noisy:
        y += world.noise_std * draws[:, d]


def _draw_heuristic(world: WorldModel, rng: np.random.Generator, X: np.ndarray, y: np.ndarray):
    """Fill the n rows of X (n, d) and y (n,) with heuristic reports.

    Per row: d uniform features, then one uniform target. All are uniform
    draws, so one bulk draw consumes the stream as the row-by-row calls do.
    """
    n, d = X.shape
    draws = rng.random((n, d + 1))
    X[:] = _scaled(*world.x_bounds, draws[:, :d])
    y[:] = _scaled(*world.heuristic_y_bounds, draws[:, d])


def _one_report(draw, world: WorldModel, seed, agent_id, arrival_index) -> DataPoint:
    X, y = np.empty((1, world.dimension)), np.empty(1)
    draw(world, np.random.default_rng(seed), X, y)
    return DataPoint(X[0], y[0], agent_id=agent_id, arrival_index=arrival_index)


def truthful_report(world: WorldModel, seed, agent_id=None, arrival_index=0) -> DataPoint:
    """Observe the world: x uniform in its bounds, y on the true line plus
    Gaussian noise."""
    return _one_report(_draw_truthful, world, seed, agent_id, arrival_index)


def heuristic_report(world: WorldModel, seed, agent_id=None, arrival_index=0) -> DataPoint:
    """Uninformed report: the truthful feature marginal, but y uniform in the
    heuristic bounds and independent of x."""
    return _one_report(_draw_heuristic, world, seed, agent_id, arrival_index)


def build_population(n_agents: int, p_truthful: float, effort: float = 0.0) -> list:
    """Exact-count population: round(p * n) truthful agents, rest heuristic."""
    if not 0.0 <= p_truthful <= 1.0:
        raise DomainError("p_truthful must lie in [0, 1]")
    n_truthful = int(round(p_truthful * n_agents))
    profiles = [AgentProfile(f"T{i}", "truthful", effort=effort) for i in range(n_truthful)]
    profiles += [AgentProfile(f"H{i}", "heuristic") for i in range(n_agents - n_truthful)]
    return profiles


def report_stream(profiles: Sequence[AgentProfile], world: WorldModel, seed: int) -> Dataset:
    """One report per opted-in agent, arrival order uniformly shuffled.

    Perturbed agents observe truthfully and add their deviation to y.
    """
    rng = np.random.default_rng(seed)
    active = [p for p in profiles if p.opt_in]
    ordered = [active[i] for i in rng.permutation(len(active))]
    X = np.empty((len(ordered), world.dimension))
    y = np.empty(len(ordered))
    start = 0
    for heuristic, run in groupby(p.strategy == "heuristic" for p in ordered):
        stop = start + sum(1 for _ in run)
        draw = _draw_heuristic if heuristic else _draw_truthful
        draw(world, rng, X[start:stop], y[start:stop])
        start = stop
    for i, p in enumerate(ordered):
        if p.strategy == "perturbed" and p.deviation:
            y[i] += p.deviation
    return Dataset(X, y, [p.agent_id for p in ordered])


def independent_test_set(world: WorldModel, n_test: int, seed: int) -> Dataset:
    """n_test truthful observations, drawn from a generator seeded with ``seed``."""
    if n_test < 0:
        raise DomainError(f"n_test must be non-negative, got {n_test}")
    X, y = np.empty((n_test, world.dimension)), np.empty(n_test)
    _draw_truthful(world, np.random.default_rng(seed), X, y)
    return Dataset(X, y)


@dataclass
class SimulationResult:
    ledger: PaymentLedger
    profiles: list
    mean_payments: dict
    utilities: dict
    empirical_truthful_fraction: float
    test_mode: str


def simulate_population(
    n_agents: int,
    p_truthful: float,
    world: WorldModel,
    mechanism_config: MechanismConfig,
    test_mode: str = "independent",
    seed: int = 0,
    n_test: int = 200,
    profiles: Optional[list] = None,
) -> SimulationResult:
    """Run a truthful/heuristic population through the mechanism.

    ``test_mode="independent"`` draws the test set fresh from the truthful
    distribution; ``"from-reports"`` withholds a without-replacement sample
    of the reports as the test set (those reports are not trained on or
    paid). Deterministic under ``seed``.
    """
    if test_mode not in ("independent", "from-reports"):
        raise DomainError(f"unknown test_mode {test_mode!r}")
    if profiles is None:
        profiles = build_population(n_agents, p_truthful, effort=mechanism_config.effort_cost)
    stream = report_stream(profiles, world, seed)
    if test_mode == "independent":
        test = independent_test_set(world, n_test, seed + 1)
    else:
        rng = np.random.default_rng(seed + 1)
        if n_test >= len(stream):
            raise DomainError("from-reports test mode needs n_test < number of reports")
        held = rng.choice(len(stream), size=n_test, replace=False)
        keep = np.setdiff1d(np.arange(len(stream)), held)
        test = stream.subset(held)
        stream = stream.subset(keep)
    ledger = run_mechanism(stream, test, mechanism_config, seed=seed + 2)

    by_agent = ledger.payments_by_agent()
    strategy_of = {p.agent_id: p.strategy for p in profiles}
    effort_of = {p.agent_id: p.effort for p in profiles}
    sums: dict = {}
    counts: dict = {}
    utilities: dict = {}
    for agent_id, payment in by_agent.items():
        strat = strategy_of[agent_id]
        sums[strat] = sums.get(strat, 0.0) + payment
        counts[strat] = counts.get(strat, 0) + 1
        utilities[agent_id] = payment - effort_of[agent_id]
    mean_payments = {s: sums[s] / counts[s] for s in sums}
    n_truthful_reports = sum(
        1 for aid in by_agent if strategy_of[aid] in ("truthful", "perturbed")
    )
    empirical_p = n_truthful_reports / len(by_agent) if by_agent else 0.0
    return SimulationResult(
        ledger=ledger,
        profiles=list(profiles),
        mean_payments=mean_payments,
        utilities=utilities,
        empirical_truthful_fraction=empirical_p,
        test_mode=test_mode,
    )


def opt_out_followup(
    result: SimulationResult,
    world: WorldModel,
    mechanism_config: MechanismConfig,
    seed: int = 0,
    n_test: int = 200,
) -> SimulationResult:
    """Re-run with agents whose payment minus effort was negative opted out."""
    updated = []
    for p in result.profiles:
        utility = result.utilities.get(p.agent_id)
        opted = p.opt_in and not (utility is not None and utility < 0)
        updated.append(replace(p, opt_in=opted))
    if not any(p.opt_in for p in updated):
        raise DomainError("every agent opted out; no follow-up round to run")
    return simulate_population(
        n_agents=len(updated),
        p_truthful=0.0,  # ignored when profiles are given
        world=world,
        mechanism_config=mechanism_config,
        test_mode=result.test_mode,
        seed=seed,
        n_test=n_test,
        profiles=updated,
    )


def best_response_check(
    world: WorldModel,
    n_others: int,
    deviation_grid: Sequence[float],
    seed: int = 0,
    n_trials: int = 1000,
    n_test: int = 100,
) -> list:
    """Mean influence of reporting the observed target plus each deviation.

    For each trial, n_others truthful reports train the model; the probed
    agent observes truthfully and reports y + c for every c on the grid. The
    influence is the drop in independent-test risk from adding the report
    (exactly Theorem-style scoring: the leave-one-out model is the others'
    model). Returns rows of (deviation, mean_influence). ``seed`` is
    anything ``np.random.default_rng`` takes; a Generator is drawn from as
    is.

    Each trial draws the others' reports, then the test set, then the probed
    observation, in that order. The others' model is solved once per trial,
    and every deviation is priced in closed form by the influence module's
    rank-one kernel as the probed report added to it, so the table is an
    exact quadratic in c. Trials are drawn, solved and priced PROBE_CHUNK at
    a time with one stacked call each, and their prices summed in trial
    order.

    Raises
    ------
    DomainError
        If n_others < d + 1: the others' model is underdetermined and the
        best-response question is not well posed; or if n_trials < 1.
    EmptyDataset
        If n_test < 1.
    """
    d = world.dimension
    if n_others < d + 1:
        raise DomainError(
            f"best_response_check needs n_others >= d + 1 = {d + 1}, got {n_others}"
        )
    if n_trials < 1:
        raise DomainError(f"best_response_check needs n_trials >= 1, got {n_trials}")
    if n_test < 1:
        raise EmptyDataset("best_response_check needs n_test >= 1 test points")
    grid = [float(c) for c in deviation_grid]
    deviations = np.array(grid)
    rng = np.random.default_rng(seed)
    # Augmented rows (features, then a column of ones) and targets of each
    # trial of a chunk: the others, the test set, then the probed observation.
    per_trial = n_others + n_test + 1
    rows = np.ones((PROBE_CHUNK, per_trial, d + 1))
    targets = np.empty((PROBE_CHUNK, per_trial))
    flat_rows, flat_targets = rows.reshape(-1, d + 1), targets.reshape(-1)
    sums = np.zeros(len(grid))
    for start in range(0, n_trials, PROBE_CHUNK):
        c = min(PROBE_CHUNK, n_trials - start)
        # Consecutive trials are consecutive rows of the stream, so one draw
        # fills the chunk as c per-trial draws would.
        _draw_truthful(world, rng, flat_rows[: c * per_trial, :d], flat_targets[: c * per_trial])
        others, y_others = rows[:c, :n_others], targets[:c, :n_others, None]
        test, y_test = rows[:c, n_others:-1], targets[:c, n_others:-1]
        probe, y_probe = rows[:c, -1:], targets[:c, -1:]
        others_t = others.swapaxes(-1, -2)
        theta, gram_inverse = _solve_normal_equations(
            others_t @ others, (others_t @ y_others)[..., 0], n_others, 0.0
        )
        _, gbar = _test_terms(test, y_test, theta)
        res = (y_probe + deviations) - (probe @ theta[..., None])[..., 0]
        probes = np.broadcast_to(probe, (c, len(grid), d + 1))
        prices = _prices(gram_inverse, probes, res, gbar, _second_moment(test), "exact", True)
        for trial_prices in prices:
            sums += trial_prices
    return [
        {"deviation": grid[i], "mean_influence": sums[i] / n_trials}
        for i in range(len(grid))
    ]


def quadratic_peak(rows: Sequence[dict]) -> float:
    """Location of the peak of a quadratic fitted to (deviation, mean_influence)."""
    c = np.array([r["deviation"] for r in rows])
    v = np.array([r["mean_influence"] for r in rows])
    distinct = len(np.unique(c))
    if distinct < 3:
        raise DomainError(f"a quadratic needs at least 3 distinct deviations, got {distinct}")
    coeffs = np.polyfit(c, v, 2)
    if coeffs[0] >= 0:
        raise DomainError("fitted quadratic is not concave; no interior peak")
    return float(-coeffs[1] / (2.0 * coeffs[0]))


def closed_form_mixture(
    world: WorldModel,
    init_count: int,
    n_collected: int,
    batch_size: int = 1,
    truthful_fraction: float = 1.0,
) -> MixtureParams:
    """Closed-form mixture inputs for a linear world with uniform features.

    The heuristic distribution shares the truthful feature marginal with an
    independent uniform target, so its best model is the flat line at the
    target mean: inherent risk = uniform variance, and the squared model gap
    integrates (mean_y - bias - slope . x)^2 over the feature box.
    """
    lo, hi = world.x_bounds
    mean_x = (lo + hi) / 2.0
    var_x = (hi - lo) ** 2 / 12.0
    y_lo, y_hi = world.heuristic_y_bounds
    mean_heuristic = (y_lo + y_hi) / 2.0
    w = world.true_params.weights
    delta = mean_heuristic - world.true_params.bias - float(np.sum(w)) * mean_x
    gap = delta * delta + var_x * float(w @ w)
    return MixtureParams(
        init_count=init_count,
        n_collected=n_collected,
        batch_size=batch_size,
        model_gap=gap,
        inherent_risk_heuristic=(y_hi - y_lo) ** 2 / 12.0,
        inherent_risk_truthful=world.noise_std**2,
        truthful_fraction=truthful_fraction,
    )
