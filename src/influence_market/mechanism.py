"""
Sequential data-acquisition mechanism: uniform initialization, batched
influence scoring (inclusive or exclusive of the current batch), optional
closed-form score normalization, and the resulting payment ledger.

The run keeps the sufficient statistics of everything absorbed so far, the
augmented Gram matrix G += B~.T B~ and moment m += B~.T y_B, where B~ is the
batch's slice of the stream's augmented matrix, and re-solves them once per
batch instead of chaining Woodbury updates of G^{-1}, which drift over
thousands of steps. Both come from one joint Gram matrix of [B~, y_B] per
batch, added to the running total with a compensated (TwoSum) sum. A plain
running sum loses a rounding of the total at every batch; on steep worlds
(test risk near 1e5) that accumulated error, not the solve, dominated the
final risk's error, at 14-59 times the error of an lstsq refit. Between
batches the run carries only the arrays theta, G^{-1} and the mean test
gradient gbar. No payment feeds back into the model, so each post-batch
model depends only on a prefix of the stream. Inclusive mode prices a
batch's rows as removed from the post-batch model, exclusive mode as added
to the pre-batch one, through the influence module's ``_prices``, which
holds the pricing algebra. The ledger's columns are filled per batch and its
entries built once, after the last batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    EmptyStream,
    InsufficientInitialization,
    InvalidValue,
)
from .influence import _prices, _second_moment, _test_terms
from .mixture import MixtureParams, correction_exclusive, correction_inclusive, total_risk_change
from .regression import Dataset, _solve_normal_equations, fit

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
        if not (math.isfinite(self.payment_scale) and self.payment_scale > 0):
            raise DomainError("payment_scale must be positive and finite")
        for name in ("effort_cost", "ridge"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise DomainError(f"{name} must be non-negative and finite")
        if self.init_count < 0:
            raise DomainError("init_count must be non-negative")


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


def _add_compensated(total: np.ndarray, carry: np.ndarray, addend: np.ndarray):
    """total + addend, and carry plus the rounding error of that sum.

    The error is exact per entry (Knuth's TwoSum), so total + carry tracks
    the exact sum of every addend to within the rounding of the small carry.
    """
    new_total = total + addend
    virtual = new_total - total
    return new_total, carry + ((total - (new_total - virtual)) + (addend - virtual))


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
        raise EmptyDataset("the test set is empty")
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
    theta, gram_inverse = model.params.as_vector(), model.gram_inverse
    # Sufficient statistics as one joint Gram matrix of [x~, y]: G is its
    # leading p x p block and m the rest of its last column.
    p = stream.dimension + 1
    rows, targets = stream.augmented(), stream.y
    joint = np.column_stack([rows, targets])
    init_joint = np.column_stack([init.augmented(), init.y])
    total, carry = init_joint.T @ init_joint, np.zeros((p + 1, p + 1))
    test_rows = test.augmented()
    second_moment = _second_moment(test_rows)
    method, added = config.influence_method, config.mode == "exclusive"

    n_total, b = len(stream), config.batch_size
    batch_of = np.arange(n_total) // b
    sizes = np.bincount(batch_of)[batch_of]  # the last batch may be smaller
    factors = np.ones(n_total)
    if config.normalization == "closed-form-D":
        correction = correction_exclusive if added else correction_inclusive
        for size in dict.fromkeys(sizes.tolist()):
            factors[sizes == size] = correction(
                MixtureParams(init_count=len(init), n_collected=n_total, batch_size=size)
            )

    ledger = PaymentLedger(config=config)
    risk_now, gbar = _test_terms(test_rows, test.y, theta)
    ledger.risk_trace.append(float(risk_now))
    raw = np.empty(n_total)
    n_init, ridge, test_y = len(init), config.ridge, test.y
    for lo in range(0, n_total, b):
        hi = min(lo + b, n_total)
        batch_rows, batch_targets, batch = rows[lo:hi], targets[lo:hi], joint[lo:hi]
        total, carry = _add_compensated(total, carry, batch.T @ batch)
        stats = total + carry
        theta_post, inverse_post = _solve_normal_equations(
            stats[:p, :p], stats[:p, p], n_init + hi, ridge
        )
        risk_now, gbar_post = _test_terms(test_rows, test_y, theta_post)
        if not added:
            theta, gram_inverse, gbar = theta_post, inverse_post, gbar_post
        res = batch_targets - batch_rows @ theta
        raw[lo:hi] = _prices(gram_inverse, batch_rows, res, gbar, second_moment, method, added)
        ledger.risk_trace.append(float(risk_now))
        theta, gram_inverse, gbar = theta_post, inverse_post, gbar_post

    corrected = raw / factors
    columns = (
        stream.agent_ids,
        (batch_of + 1).tolist(),
        raw.tolist(),
        corrected.tolist(),
        (config.payment_scale * corrected).tolist(),
    )
    ledger.entries = [LedgerEntry(*fields) for fields in zip(*columns)]
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
