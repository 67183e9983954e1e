"""
Agent populations for the mechanism: synthetic linear worlds, truthful and
heuristic reporting strategies, population simulations, and the Monte-Carlo
best-response probe, which prices its deviations with the influence
module's rank-one kernel.

Draw order. A stream of reports is drawn from the caller's generator as if
one NumPy call were made per number, row after row:

* truthful (and perturbed): d uniform features, then one normal noise draw
  when ``noise_std > 0``;
* heuristic: d uniform features, then one uniform target.

This is the bit-generator consumption of ``rng.uniform(size=d)`` followed by
``rng.normal()`` or ``rng.uniform()``. The draws are made as standard
uniforms and standard normals and mapped onto the world's bounds and noise
scale with the same arithmetic those NumPy methods apply. ``report_stream``,
``independent_test_set`` and ``best_response_check`` draw all their rows in
one pass (``_draw_reports``), and ``truthful_report`` and
``heuristic_report`` are one-row passes. A PCG64 generator's pass is
decoded from one buffer of raw words (``_decode_pcg64``): a uniform is the
top 53 bits of a word, and a normal on the fast path of NumPy's ziggurat
(Marsaglia & Tsang 2000) is one word, read through NumPy's own layer
tables; the rare normals off that path are drawn by the generator itself.
The tables are read from NumPy on first use, one chosen word at a time
through an SFC64 generator, and a self-check against the per-call draws
must pass before they are used.
Any other generator, or a failed check, is called once per number. Either
way a stream drawn in one call equals, bit for bit, the same reports drawn
one at a time, and leaves the generator in the same state.

The best-response probe works through its trials in chunks of a fixed size
(``PROBE_CHUNK``): one draw fills a chunk's trials, which follow each other
in the stream, and one stacked solve and one stacked call of the pricing
kernel handle them all. The chunk is fixed so that the probe's memory does
not grow with the number of trials.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

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
# Rows the bulk decoder takes per pass. A pass costs about 40 us beyond its
# rows, so longer passes are faster: 4096-row passes run the best-response
# benchmark about 7x as fast as per-call draws, 256-row passes about 4x. That
# benchmark keeps every table the probe returns, so its peak RSS grows with
# throughput; at 7x it rises past its 5% bound. Raise this once the
# benchmark pools a running sum instead of the tables.
_DECODE_ROWS = 256
# Fields of a raw word: a normal's layer (bits 0-7), its sign and layer
# (bits 0-8) and its magnitude (bits 9-60, shifted down by _NINE); a
# uniform is the word shifted down by _ELEVEN.
_LAYER, _SIGNED_LAYER = np.uint64(0xFF), np.uint64(0x1FF)
_MAGNITUDE, _NINE, _ELEVEN = np.uint64(2**52 - 1), np.uint64(9), np.uint64(11)
# The decoder's self-check: a fixed seed and stream length whose stream takes
# every kind of slow normal (layer 0, layers 1-2, a rejected fast test).
_CHECK_SEED, _CHECK_ROWS = 1, 1000


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
        if not (math.isfinite(self.effort) and self.effort >= 0):
            raise DomainError("effort must be non-negative and finite")
        if not math.isfinite(self.deviation):
            raise DomainError("deviation must be finite")


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
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise DomainError("noise_std must be non-negative and finite")
        for name in ("x_bounds", "heuristic_y_bounds"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise DomainError(f"{name} must be a finite, non-degenerate interval")

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


def _per_call_draws(rng: np.random.Generator, normal: np.ndarray, d: int) -> np.ndarray:
    """The draws of ``_standard_draws``, made one generator call at a time."""
    features = (rng.random,) * d
    calls = (f for z in normal for f in features + ((rng.standard_normal if z else rng.random),))
    return np.fromiter((f() for f in calls), np.float64, len(normal) * (d + 1)).reshape(-1, d + 1)


def _one_word_normals(words: np.ndarray) -> np.ndarray:
    """NumPy's standard normal of each 64-bit word (uint64) taken on its own.

    An SFC64 generator in state (word, 0, 0, 0) outputs that word next, and
    the state's last word counts its outputs. Raises ValueError if a normal
    took more than its one word, as one off the ziggurat's fast path does.
    """
    bg = np.random.SFC64(0)
    rng, state = np.random.Generator(bg), bg.state
    normals = np.empty(len(words))
    for i, word in enumerate(words):
        state["state"]["state"] = np.array([word, 0, 0, 0], np.uint64)
        bg.state = state
        normals[i] = rng.standard_normal()
        if bg.state["state"]["state"][3] != 1:
            raise ValueError("a normal took more than its one word")
    return normals


def _ziggurat_tables():
    """Layer widths and fast-test bounds of NumPy's ziggurat.

    A normal's word with layer i, sign 0 and magnitude 1 passes the fast test
    of every layer from 2 on and comes out as exactly layer i's width, so the
    normals of such words read the widths ``wi``. Layer i's word passes the
    fast test when its magnitude lies under 2^52 wi[i-1] / wi[i]; ``ki``
    keeps 4 below that bound, so rounding in the ratio cannot admit a word
    that NumPy sends to its slow path. Layers 0-2 get no bound here and
    always take the slow path. The widths are returned for a 9-bit index,
    sign bit over layer, with the negative widths in the upper half: a
    product's rounding does not depend on its sign.
    """
    layers = np.arange(2, 256, dtype=np.uint64)
    wi = np.zeros(256)
    wi[2:] = _one_word_normals(layers | np.uint64(1 << 9))
    ki = np.zeros(256, np.uint64)
    ki[3:] = np.floor(2.0**52 * wi[2:-1] / wi[3:]) - 4
    return np.concatenate([wi, -wi]), ki


@functools.cache
def _fast_path_tables():
    """The ziggurat tables once they have passed the self-check, else False.

    Built on first use. The check first requires, for every layer from 3 on
    and either sign, that the word just under the layer's bound is a
    one-word normal for NumPy itself, of the width the tables give. It then
    decodes a fixed stream of normal and uniform rows, from a generator
    holding a buffered 32-bit value, and requires the per-call draws and the
    per-call generator state bit for bit. Any difference turns the fast path
    off for the process.
    """
    try:
        widths, ki = tables = _ziggurat_tables()
        layers = np.arange(3, 256, dtype=np.uint64)
        signed_layers = layers | (layers % 2) << 8  # odd layers negative
        below = ki[3:] - 1
        edge = _one_word_normals(signed_layers | below << _NINE)
    except (KeyError, TypeError, ValueError):
        return False
    if not np.array_equal(edge, below * widths[signed_layers]):
        return False
    normal = np.arange(_CHECK_ROWS) % 4 != 0
    bulk, per_call = (np.random.Generator(np.random.PCG64(_CHECK_SEED)) for _ in range(2))
    for rng in (bulk, per_call):
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": 1}
    draws = _decode_pcg64(bulk, normal, 1, tables)
    if (
        np.array_equal(draws, _per_call_draws(per_call, normal, 1))
        and bulk.bit_generator.state == per_call.bit_generator.state
    ):
        return tables
    return False


def _decode_pcg64(rng: np.random.Generator, normal: np.ndarray, d: int, tables, slack=None):
    """The draws of ``_standard_draws``, decoded from one buffer of raw words.

    A PCG64 uniform is the top 53 bits of one raw word. A normal whose word
    passes the ziggurat's fast test is that one word: its layer is the low
    byte, its sign bit 8 and its magnitude bits 9-60, times the layer's
    width. Every other normal is drawn by the generator itself, moved to its
    word; the word that follows shows how many words the normal took, and
    the rows after it move along by as many. The buffer holds ``slack``
    words beyond the rows, over twice what slow normals take on average;
    when they use them up, the draw starts again with more. At the
    end the generator stands where the per-call draws leave it, its
    buffered 32-bit value included.
    """
    widths, ki = tables
    bg = rng.bit_generator
    start = bg.state
    n, w = len(normal), d + 1
    slack = slack or 64 + n * w // 32
    raw = bg.random_raw(n * w + slack)
    fails = (raw >> _NINE) & _MAGNITUDE >= ki[raw & _LAYER]
    bg.state = start
    at = shift = taken = 0  # generator position, extra words taken, first free word
    slow_rows, slow_values, skipped = [], [], []
    for q in np.flatnonzero(fails).tolist():
        row, column = divmod(q - shift, w)
        if row >= n:
            break
        if q < taken or column != d or not normal[row]:
            continue
        bg.advance(q - at)
        slow_values.append(rng.standard_normal())
        following, taken = bg.random_raw(), q + 1
        while taken < len(raw) and raw[taken] != following:
            taken += 1
        at = taken + 1
        slow_rows.append(row)
        skipped.extend(range(q + 1, taken))
        shift += taken - q - 1
    if n * w + shift >= len(raw):  # the rows, or a normal's words, ran past the buffer
        bg.state = start
        return _decode_pcg64(rng, normal, d, tables, 4 * slack)
    bg.advance(n * w + shift - at)
    if start["has_uint32"] or start["uinteger"]:  # advancing cleared them
        bg.state = {**bg.state, "has_uint32": start["has_uint32"], "uinteger": start["uinteger"]}

    words = np.delete(raw, skipped)[: n * w].reshape(n, w)
    draws = (words >> _ELEVEN) * 2.0**-53
    last = words[:, d]
    magnitudes = (last >> _NINE) & _MAGNITUDE
    np.copyto(draws[:, d], magnitudes * widths[last & _SIGNED_LAYER], where=normal)
    if slow_rows:
        draws[slow_rows, d] = slow_values
    return draws


def _standard_draws(rng: np.random.Generator, normal: np.ndarray, d: int) -> np.ndarray:
    """Standard draws of n rows in stream order, as an (n, d + 1) array.

    Per row: d uniforms, then a standard normal where ``normal`` is set and a
    uniform elsewhere, as the calls ``rng.random()`` d times and then
    ``rng.standard_normal()`` or ``rng.random()`` make them. A PCG64
    generator's rows are decoded in bulk, ``_DECODE_ROWS`` at a time; any
    other generator is called row by row. Both ways give the same draws and
    leave the generator in the same state.
    """
    n = len(normal)
    if not normal.any():
        return rng.random((n, d + 1))
    tables = type(rng.bit_generator) is np.random.PCG64 and _fast_path_tables()
    if not tables:
        return _per_call_draws(rng, normal, d)
    return np.concatenate(
        [
            _decode_pcg64(rng, normal[start : start + _DECODE_ROWS], d, tables)
            for start in range(0, n, _DECODE_ROWS)
        ]
    )


def _draw_reports(world: WorldModel, rng: np.random.Generator, X, y, truthful: np.ndarray):
    """Fill the n rows of X (n, d) and y (n,) with reports in stream order.

    ``truthful`` marks the truthful rows: d uniform features, then one
    standard normal when ``noise_std > 0``. The other rows are heuristic: d
    uniform features, then one uniform target.
    """
    n, d = X.shape
    noisy = world.noise_std > 0
    if noisy:
        draws = _standard_draws(rng, truthful, d)
    else:
        # A noiseless truthful row takes no last draw, and every draw is uniform.
        draws = np.zeros((n, d + 1))
        taken = np.ones((n, d + 1), dtype=bool)
        taken[truthful, d] = False
        draws[taken] = rng.random(int(taken.sum()))
    X[:] = _scaled(*world.x_bounds, draws[:, :d])
    rows = slice(None)
    if not truthful.all():
        y[:] = _scaled(*world.heuristic_y_bounds, draws[:, d])
        rows = truthful
    targets = _linear_targets(world, X[rows])
    if noisy:
        targets += world.noise_std * draws[rows, d]
    y[rows] = targets


def _draw_truthful(world: WorldModel, rng: np.random.Generator, X, y):
    """Fill X (n, d) and y (n,) with truthful observations."""
    _draw_reports(world, rng, X, y, np.ones(len(X), dtype=bool))


def _one_report(truthful: bool, world: WorldModel, seed, agent_id) -> DataPoint:
    X, y = np.empty((1, world.dimension)), np.empty(1)
    _draw_reports(world, np.random.default_rng(seed), X, y, np.array([truthful]))
    return DataPoint(X[0], y[0], agent_id=agent_id)


def truthful_report(world: WorldModel, seed, agent_id=None) -> DataPoint:
    """Observe the world: x uniform in its bounds, y on the true line plus
    Gaussian noise."""
    return _one_report(True, world, seed, agent_id)


def heuristic_report(world: WorldModel, seed, agent_id=None) -> DataPoint:
    """Uninformed report: the truthful feature marginal, but y uniform in the
    heuristic bounds and independent of x."""
    return _one_report(False, world, seed, agent_id)


def build_population(n_agents: int, p_truthful: float, effort: float = 0.0) -> list:
    """Exact-count population: round(p * n) truthful agents, rest heuristic."""
    if not 0.0 <= p_truthful <= 1.0:
        raise DomainError("p_truthful must lie in [0, 1]")
    if n_agents < 0:
        raise DomainError(f"n_agents must be non-negative, got {n_agents}")
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
    truthful = np.array([p.strategy != "heuristic" for p in ordered], dtype=bool)
    _draw_reports(world, rng, X, y, truthful)
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
) -> SimulationResult:
    """Run a truthful/heuristic population through the mechanism.

    ``test_mode="independent"`` draws the test set fresh from the truthful
    distribution; ``"from-reports"`` withholds a without-replacement sample
    of the reports as the test set (those reports are not trained on or
    paid). Deterministic under ``seed``.
    """
    profiles = build_population(n_agents, p_truthful, effort=mechanism_config.effort_cost)
    return _simulate(profiles, world, mechanism_config, test_mode, seed, n_test)


def _simulate(profiles, world, mechanism_config, test_mode, seed, n_test) -> SimulationResult:
    """``simulate_population`` for a given population."""
    if test_mode not in ("independent", "from-reports"):
        raise DomainError(f"unknown test_mode {test_mode!r}")
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
    return _simulate(updated, world, mechanism_config, result.test_mode, seed, n_test)


class _ProbeTable(Sequence):
    """The best-response table: a read-only sequence of one
    ``{"deviation": c, "mean_influence": v}`` dict per deviation.

    Each row is made when it is read, so a table kept for later holds the
    grid and a tuple of the means instead of a dict per row.
    """

    __slots__ = ("_deviations", "_means")

    def __init__(self, deviations: tuple, means: tuple):
        self._deviations, self._means = deviations, means

    def __len__(self) -> int:
        return len(self._deviations)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        return {"deviation": self._deviations[i], "mean_influence": self._means[i]}

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


def best_response_check(
    world: WorldModel,
    n_others: int,
    deviation_grid: Sequence[float],
    seed: int = 0,
    n_trials: int = 1000,
    n_test: int = 100,
) -> Sequence[dict]:
    """Mean influence of reporting the observed target plus each deviation.

    For each trial, n_others truthful reports train the model; the probed
    agent observes truthfully and reports y + c for every c on the grid. The
    influence is the drop in independent-test risk from adding the report
    (exactly Theorem-style scoring: the leave-one-out model is the others'
    model). Returns a read-only sequence of one ``{"deviation": c,
    "mean_influence": v}`` dict per grid value, in grid order. ``seed`` is
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
        best-response question is not well posed; if n_trials < 1; or if
        the deviation grid is empty or holds a non-finite value.
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
    grid = tuple(deviation_grid)  # a tuple of floats is kept as it is
    if not all(type(c) is float for c in grid):
        grid = tuple(map(float, grid))
    if not grid or not all(map(math.isfinite, grid)):
        raise DomainError(f"deviation_grid must be non-empty and finite, got {list(grid)}")
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
    return _ProbeTable(grid, tuple(sums / n_trials))


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
