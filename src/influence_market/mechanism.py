"""
Sequential data-acquisition mechanism: uniform initialization, batched
influence scoring (inclusive or exclusive of the current batch), optional
closed-form score normalization, and the resulting payment ledger.

The batch loop is inherently sequential; scoring inside one batch is
independent across points and reuses a single fitted model per batch, so the
Hessian inverse is computed once per batch. The run keeps the sufficient
statistics of everything absorbed so far, the augmented Gram matrix
G += B~.T B~ and moment m += B~.T y_B, where B~ is the batch's slice of the
stream's augmented matrix; no Dataset is built per batch. Each batch
re-solves the exactly accumulated G instead of chaining Woodbury updates of
G^{-1}, which drift over thousands of steps. Exclusive mode scores against
the previous batch's post-batch model, so every batch costs one solve. The
test set is summarized once per run by its second moment S; each batch's
test residuals give both the risk trace and the mean test gradient of the
risk-change kernel (see the influence module), because the moment form of
the risk cancels catastrophically when the risk is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyStream,
    InsufficientInitialization,
    InvalidValue,
)
from .influence import _rank_one_shifts, _second_moment, risk_change
from .mixture import MixtureParams, correction_exclusive, correction_inclusive, total_risk_change
from .regression import Dataset, FittedModel, _solve_normal_equations, fit

MODES = ("inclusive", "exclusive")
NORMALIZATIONS = ("none", "closed-form-D")
INFLUENCE_METHODS = ("exact", "first-order", "second-order")


@dataclass(frozen=True)
class MechanismConfig:
    """Knobs of one mechanism run.

    batch_size points are scored per batch; ``mode`` picks whether the
    current batch is included in the scoring model (scored as-if-removed) or
    excluded (scored as-if-added). ``init_count`` uniform points inside
    ``init_x_bounds`` x ``init_y_bounds`` seed the model. Payments are
    payment_scale times the (optionally normalized) score and may be
    negative.
    """

    batch_size: int = 1
    mode: str = "inclusive"
    init_count: int = 0
    init_x_bounds: tuple = (-1.0, 1.0)
    init_y_bounds: tuple = (-3.0, 3.0)
    effort_cost: float = 0.0
    payment_scale: float = 1.0
    normalization: str = "none"
    influence_method: str = "exact"
    ridge: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.normalization not in NORMALIZATIONS:
            raise DomainError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        if self.influence_method not in INFLUENCE_METHODS:
            raise DomainError(
                f"influence_method must be one of {INFLUENCE_METHODS}, "
                f"got {self.influence_method!r}"
            )
        for name in ("init_x_bounds", "init_y_bounds"):
            lo, hi = getattr(self, name)
            if not (hi > lo):
                raise DomainError(f"{name} must be a non-degenerate interval")
        if self.payment_scale <= 0:
            raise DomainError("payment_scale must be positive")
        if self.effort_cost < 0 or self.init_count < 0 or self.ridge < 0:
            raise DomainError("effort_cost, init_count and ridge must be non-negative")


@dataclass(frozen=True)
class LedgerEntry:
    agent_id: object
    batch_index: int
    raw_influence: float
    corrected_score: float
    payment: float


@dataclass
class PaymentLedger:
    """Ordered per-point payment records plus the per-batch risk trace.

    ``risk_trace[0]`` is the test risk of the initialization model;
    ``risk_trace[k]`` the risk after batch k has been absorbed. Totals are
    computed from the entry columns, so they match them exactly.
    """

    entries: list = field(default_factory=list)
    risk_trace: list = field(default_factory=list)
    config: Optional[MechanismConfig] = None

    @property
    def sum_raw(self) -> float:
        return math.fsum(e.raw_influence for e in self.entries)

    @property
    def sum_corrected(self) -> float:
        return math.fsum(e.corrected_score for e in self.entries)

    @property
    def sum_payments(self) -> float:
        return math.fsum(e.payment for e in self.entries)

    @property
    def initial_risk(self) -> float:
        return self.risk_trace[0]

    @property
    def final_risk(self) -> float:
        return self.risk_trace[-1]

    def payments_by_agent(self) -> dict:
        out: dict = {}
        for e in self.entries:
            out[e.agent_id] = out.get(e.agent_id, 0.0) + e.payment
        return out

    def batch_mean_influences(self) -> list:
        """Mean raw influence per batch index, in batch order."""
        sums: dict = {}
        counts: dict = {}
        for e in self.entries:
            sums[e.batch_index] = sums.get(e.batch_index, 0.0) + e.raw_influence
            counts[e.batch_index] = counts.get(e.batch_index, 0) + 1
        return [sums[k] / counts[k] for k in sorted(sums)]

    def rows(self) -> list:
        return [
            {
                "agent_id": e.agent_id,
                "batch_index": e.batch_index,
                "raw_influence": e.raw_influence,
                "corrected_score": e.corrected_score,
                "payment": e.payment,
            }
            for e in self.entries
        ]

    def summary(self) -> dict:
        """Run summary as a flat mapping, ready for key-value serialization."""
        out = {
            "initial_risk": self.initial_risk,
            "final_risk": self.final_risk,
            "sum_raw": self.sum_raw,
            "sum_corrected": self.sum_corrected,
            "sum_payments": self.sum_payments,
            "n_entries": len(self.entries),
            "n_batches": len(self.risk_trace) - 1,
        }
        if self.config is not None:
            for key, value in vars(self.config).items():
                out[f"config.{key}"] = value
        return out

    def to_csv(self, path) -> None:
        from .dataio import write_results

        write_results(self.rows(), path, fmt="csv")


def initialize_model(
    init_count: int,
    x_bounds: tuple,
    y_bounds: tuple,
    seed: int,
    dimension: int = 1,
) -> Dataset:
    """Knowledge-less initialization: uniform points in the given bounds.

    Draws ``init_count`` points with features uniform in x_bounds^dimension
    and targets uniform in y_bounds, deterministically under ``seed``.

    Raises
    ------
    InsufficientInitialization
        If init_count < dimension + 1, too few points to define a model.
    """
    if init_count < dimension + 1:
        raise InsufficientInitialization(
            f"initialization needs at least d + 1 = {dimension + 1} points, got {init_count}"
        )
    rng = np.random.default_rng(seed)
    X = rng.uniform(x_bounds[0], x_bounds[1], size=(init_count, dimension))
    y = rng.uniform(y_bounds[0], y_bounds[1], size=init_count)
    ids = ["__init__"] * init_count
    arrival = -np.arange(1, init_count + 1, dtype=np.int64)  # before any report
    return Dataset(X, y, ids, arrival)


def _batch_influences(
    model: FittedModel,
    rows: np.ndarray,
    targets: np.ndarray,
    gbar: np.ndarray,
    second_moment: np.ndarray,
    config: MechanismConfig,
) -> np.ndarray:
    """Raw influence of each batch row (augmented) against ``model``.

    Inclusive mode: ``model`` includes the batch and each row is scored as if
    removed. Exclusive mode: ``model`` is the pre-batch model and each row is
    scored as if added, risk(test, model) - risk(test, model + row), so
    positive means adding the row lowers test risk. ``gbar`` is the mean
    test-loss gradient at ``model``.
    """
    added = config.mode == "exclusive"
    res = targets - rows @ model.params.as_vector()
    shifts = _rank_one_shifts(model, rows, res, config.influence_method, added)
    if config.influence_method == "first-order":
        change = gbar @ shifts
    else:
        change = risk_change(gbar, second_moment, shifts)
    return -change if added else change


def run_mechanism(
    stream: Dataset,
    test: Dataset,
    config: MechanismConfig,
    seed: int = 0,
    init: Optional[Dataset] = None,
) -> PaymentLedger:
    """Run the sequential mechanism over a report stream.

    The stream is processed in arrival order in batches of
    ``config.batch_size`` (the final batch may be smaller and is scored with
    its actual size). Inclusive mode scores each batch point as-if-removed
    from the model fitted on accumulated + batch; exclusive mode scores it
    as-if-added to the model fitted on accumulated only, which is the
    previous batch's post-batch model. With closed-form normalization each
    raw score is divided by the correction ratio for this run's counts (the
    initialization's actual size and the stream length) and the batch's
    actual size. Deterministic given (stream, config, seed).

    Parameters
    ----------
    stream : Dataset
        Reports in arrival order; must be non-empty.
    test : Dataset
        Test set defining the risk being paid for; non-empty.
    config : MechanismConfig
    seed : int
        Seeds the uniform initialization (ignored when ``init`` is given).
    init : Dataset, optional
        Pre-built initialization set; defaults to uniform sampling per config.
        Its arrival indices must be disjoint from the stream's.
    """
    if len(stream) == 0:
        raise EmptyStream("the report stream is empty")
    if len(test) == 0:
        raise EmptyStream("the test set is empty")
    if init is None:
        init = initialize_model(
            config.init_count,
            config.init_x_bounds,
            config.init_y_bounds,
            seed=seed,
            dimension=stream.dimension,
        )
    if init.dimension != stream.dimension or test.dimension != stream.dimension:
        raise DimensionMismatch(
            f"init, stream and test dimensions differ: "
            f"{init.dimension}, {stream.dimension}, {test.dimension}"
        )
    if np.intersect1d(init.arrival_index, stream.arrival_index).size:
        raise InvalidValue("init and stream share arrival_index values")
    model = fit(init, ridge=config.ridge)
    init_rows = init.augmented()
    gram = init_rows.T @ init_rows
    moment = init_rows.T @ init.y
    test_rows = test.augmented()
    second_moment = _second_moment(test)

    def test_risk_and_gradient(model: FittedModel):
        res = test.y - test_rows @ model.params.as_vector()
        return float(res @ res) / len(test), (-2.0 / len(test)) * (test_rows.T @ res)

    ledger = PaymentLedger(config=config)
    risk_now, gbar = test_risk_and_gradient(model)
    ledger.risk_trace.append(risk_now)

    rows, targets = stream.augmented(), stream.y
    n_total = len(stream)
    b = config.batch_size
    for k, lo in enumerate(range(0, n_total, b), start=1):
        hi = min(lo + b, n_total)
        batch_rows, batch_targets = rows[lo:hi], targets[lo:hi]
        gram += batch_rows.T @ batch_rows
        moment += batch_rows.T @ batch_targets
        post = _solve_normal_equations(gram, moment, len(init) + hi, config.ridge)
        risk_now, gbar_post = test_risk_and_gradient(post)
        if config.mode == "inclusive":
            raw = _batch_influences(
                post, batch_rows, batch_targets, gbar_post, second_moment, config
            )
        else:
            raw = _batch_influences(model, batch_rows, batch_targets, gbar, second_moment, config)
        if config.normalization == "closed-form-D":
            mp = MixtureParams(init_count=len(init), n_collected=n_total, batch_size=hi - lo)
            factor = (
                correction_inclusive(mp)
                if config.mode == "inclusive"
                else correction_exclusive(mp)
            )
        else:
            factor = 1.0
        for agent_id, value in zip(stream.agent_ids[lo:hi], raw.tolist()):
            corrected = value / factor
            ledger.entries.append(
                LedgerEntry(
                    agent_id=agent_id,
                    batch_index=k,
                    raw_influence=value,
                    corrected_score=corrected,
                    payment=config.payment_scale * corrected,
                )
            )
        ledger.risk_trace.append(risk_now)
        model, gbar = post, gbar_post
    return ledger


def budget_estimate(init_count: int, n: int, r_estimate: float, alpha: float) -> float:
    """Expected total payout of a run, before running it.

    alpha times the closed-form total risk change for ``n`` collected points
    on top of ``init_count`` initialization points, with ``r_estimate`` the
    assumed squared model gap between initialization and reports.

    Raises
    ------
    DomainError
        If a count or ``r_estimate`` is negative.
    """
    params = MixtureParams(init_count=init_count, n_collected=n, model_gap=r_estimate)
    return alpha * total_risk_change(params)
