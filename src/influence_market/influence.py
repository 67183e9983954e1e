"""
Influence of a training point on a test set, computed three ways.

* exact: leave the point out, refit, and difference the test risks. The
  production path moves the parameters by a Sherman-Morrison rank-one
  downdate of the cached Gram inverse, which is Cook's (1977) closed-form
  leave-one-out through the leverage h_j (O(d^2) per point); a naive full
  refit per point is kept for validation and benchmarking.
* first order: (1/n) grad_test.T H^{-1} grad_point, averaged over the test
  set. Sums to zero over the training set because the fit is stationary.
* second order: adds the (1/n^2) H^{-1} H_point H^{-1} grad term to the
  parameter shift and the quadratic term to the test-loss expansion. For
  squared loss the test expansion is exact in the shift, so all remaining
  error comes from the shift itself.

The pricing algebra lives here only; the mechanism and the best-response
probe call it too. ``_test_terms`` gives the test risk and gbar, the mean
test-loss gradient at the parameters, from the residuals res = y - T~ theta
(the moment form of the risk cancels catastrophically when the risk is small
against E[y^2]); ``_second_moment`` gives S = T~.T T~ / n_test; ``_prices``
moves the parameters by one Sherman-Morrison shift per row of a training set
with Gram inverse G^{-1} and scores each shift. Squared loss makes the test
risk quadratic in the parameters, so a shift delta changes it by exactly
gbar . delta + delta.T S delta (:func:`risk_change`), in O(d^2) per shift
whatever n_test is. These functions take leading stack axes (``@``,
``swapaxes`` and ``einsum`` over the trailing two), so one call prices a
stack of independent fits, as the best-response probe does for a chunk of
trials. Each fit of a stack, and a lone fit, gets the BLAS calls that
unstacked code would make for it, so it rounds the same way.

Positive influence means the point was helpful: removing it raises test risk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidValue, SingularDesign
from .regression import (
    DataPoint,
    Dataset,
    FittedModel,
    _check_params_dim,
    fit,
    loss_gradient,
    point_hessian,
    residuals,
    risk,
)


@dataclass(frozen=True)
class InfluenceRecord:
    """Per-point influence values in loss units (squared-target units)."""

    point_id: object
    exact: float
    first_order: float
    second_order: float


@dataclass(frozen=True)
class ApproximationErrorReport:
    """Aggregate error between an approximation and the exact influence.

    l1 is the mean absolute error, relative_l1 the ratio of mean absolute
    error to mean absolute exact influence, l2 the mean squared error.
    """

    l1: float
    relative_l1: float
    l2: float
    n_train: int
    n_test: int


def _test_terms(test_rows: np.ndarray, test_y: np.ndarray, theta: np.ndarray):
    """Test risk and gbar at ``theta``, from the augmented test rows T~."""
    n_test = test_y.shape[-1]
    res = test_y[..., None] - test_rows @ theta[..., None]
    risk = (res.swapaxes(-1, -2) @ res)[..., 0, 0] / n_test
    return risk, (-2.0 / n_test) * (test_rows.swapaxes(-1, -2) @ res)[..., 0]


def _second_moment(test_rows: np.ndarray) -> np.ndarray:
    """Test second moment S = T~.T T~ / n_test in augmented space."""
    return (test_rows.swapaxes(-1, -2) @ test_rows) / test_rows.shape[-2]


def risk_change(gbar: np.ndarray, second_moment: np.ndarray, shifts: np.ndarray):
    """Exact change in test risk when the parameters move by ``shifts``.

    ``shifts`` is one augmented shift vector or a matrix whose columns are
    shifts; the result is gbar . D + colsum(D * (S @ D)), a scalar or one
    value per column. Leading axes of all three arguments stack independent
    test sides. For squared loss this equals the per-test-point expansion
    (grad + 0.5 * H_test @ shift) . shift averaged over the test set, with no
    truncation error.
    """
    if shifts.ndim == gbar.ndim:
        return risk_change(gbar, second_moment, shifts[..., None])[..., 0]
    quadratic = (shifts * (second_moment @ shifts)).sum(axis=-2)
    return _linear_change(gbar, shifts) + quadratic


def _linear_change(gbar: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """gbar . D per shift column D, the first-order change in test risk."""
    return (gbar[..., None, :] @ shifts)[..., 0, :]


def _rank_one_shifts(
    gram_inverse: np.ndarray, rows: np.ndarray, res: np.ndarray, method: str, added: bool
) -> np.ndarray:
    """Parameter shift, one column per augmented row, from removing each row
    from the fit with this Gram inverse (or adding it, when ``added``).

    ``res`` holds the rows' residuals under the fitted parameters. With
    u_j = G^{-1} x~_j, residual r_j and leverage h_j = x~_j . u_j, the
    exact removal shift is -u_j r_j / (1 - h_j) and the exact addition shift
    u_j r_j / (1 + h_j) (Sherman-Morrison). ``method="first-order"`` keeps
    only the step -u_j r_j, the (1/n) H^{-1} grad term; ``"second-order"``
    adds the (1/n^2) H^{-1} H_j H^{-1} grad term, giving -u_j r_j (1 + h_j).
    Addition flips the up-weight sign, which negates the linear term and
    keeps the quadratic one: u_j r_j (1 - h_j).
    """
    sign = 1.0 if added else -1.0
    U = rows @ gram_inverse
    hat = np.einsum("...ij,...ij->...i", U, rows)
    steps = U.swapaxes(-1, -2) * (sign * res)[..., None, :]
    if method == "first-order":
        return steps
    if method == "second-order":
        return steps * (1.0 - sign * hat)[..., None, :]
    denom = 1.0 + sign * hat
    if (denom <= 1e-12).any():
        raise SingularDesign("leave-one-out Gram matrix is singular for some point")
    return steps / denom[..., None, :]


def _prices(
    gram_inverse, rows, res, gbar, second_moment, method: str, added: bool
) -> np.ndarray:
    """Price of removing each augmented row from the fit (or of adding it,
    when ``added``): the test risk without the row minus the risk with it, in
    ``method``'s approximation. The first order keeps only the linear term
    gbar . shift and ignores ``second_moment``. Leading axes of every array
    stack independent fits: ``rows`` (..., m, p) and ``res`` (..., m) against
    G^{-1} and S (..., p, p) and gbar (..., p) give prices (..., m).
    """
    shifts = _rank_one_shifts(gram_inverse, rows, res, method, added)
    if method == "first-order":
        change = _linear_change(gbar, shifts)
    else:
        change = risk_change(gbar, second_moment, shifts)
    return -change if added else change


def _test_side(model: FittedModel, test: Dataset):
    """gbar and S of ``test`` at the model's parameters."""
    _check_params_dim(model.params, test.dimension)
    test_rows = test.augmented()
    _, gbar = _test_terms(test_rows, test.y, model.params.as_vector())
    return gbar, _second_moment(test_rows)


def _removal_prices(model, points: Dataset, test: Dataset, method: str, idx=slice(None)):
    """Price of removing each of ``points`` (or its rows ``idx``) from the
    model's training set, against ``test``."""
    rows, res = points.augmented()[idx], residuals(points, model.params)[idx]
    gbar, second_moment = _test_side(model, test)
    return _prices(model.gram_inverse, rows, res, gbar, second_moment, method, added=False)


def _checked_indices(train: Dataset, indices: Optional[Sequence[int]]):
    """Row index of ``indices`` (all rows when None), once each addresses a
    point of ``train`` and every leave-one-out fit of it is determined."""
    idx = slice(None) if indices is None else np.asarray(indices, dtype=np.int64)
    outside = [] if indices is None else idx[(idx < 0) | (idx >= len(train))]
    if len(outside):
        raise IndexOutOfRange(f"index {outside[0]} outside dataset of size {len(train)}")
    if len(train) < train.dimension + 2:
        raise SingularDesign(
            f"need at least d + 2 = {train.dimension + 2} points for leave-one-out"
        )
    return idx


def exact_influence(
    train: Dataset,
    j: int,
    test: Dataset,
    model: Optional[FittedModel] = None,
    method: str = "downdate",
    ridge: float = 0.0,
) -> float:
    """Exact influence of training point j on the test set.

    Computes R(test, params fitted without j) - R(test, params fitted on all
    of train). ``method="downdate"`` reuses the cached Gram inverse;
    ``method="refit"`` refits from scratch and exists for validation and
    timing. Requires n >= d + 2 so the leave-one-out fit is determined.
    """
    _checked_indices(train, [j])
    if method == "downdate":
        return float(exact_influences(train, test, model=model, indices=[j], ridge=ridge)[0])
    if method != "refit":
        raise InvalidValue(f"unknown method {method!r}")
    if model is None:
        model = fit(train, ridge=ridge)
    loo = fit(train.without_index(j), ridge=model.ridge)
    return risk(test, loo.params) - risk(test, model.params)


def exact_influences(
    train: Dataset,
    test: Dataset,
    model: Optional[FittedModel] = None,
    indices: Optional[Sequence[int]] = None,
    ridge: float = 0.0,
) -> np.ndarray:
    """Exact influence of every (or a subset of) training point, vectorized.

    The downdate path is evaluated through the closed-form risk change, which
    for squared loss equals the literal refit-and-difference value up to
    rounding; tests pin the two paths together to 1e-9.
    """
    idx = _checked_indices(train, indices)
    if model is None:
        model = fit(train, ridge=ridge)
    return _removal_prices(model, train, test, "exact", idx)


def first_order_influence(model: FittedModel, z_j: DataPoint, test: Dataset) -> float:
    """First-order influence of one point; see :func:`first_order_influences`."""
    return float(first_order_influences(model, Dataset.from_points([z_j]), test)[0])


def first_order_influences(model: FittedModel, points: Dataset, test: Dataset) -> np.ndarray:
    """First-order influence of each point in ``points``, vectorized:
    (1/n) grad_test.T H^{-1} grad_j, test-averaged, the linear term of the
    risk change at the one-term shift."""
    return _removal_prices(model, points, test, "first-order")


def second_order_param_shift(model: FittedModel, z_j: DataPoint) -> np.ndarray:
    """Two-term parameter shift from removing (up-weighting by -1/n) a point.

    (1/n) H^{-1} grad + (1/n^2) H^{-1} H_j H^{-1} grad, in augmented space.
    """
    n = model.n_train
    grad = loss_gradient(z_j, model.params)
    first = model.hessian_inverse_dot(grad) / n
    second = model.hessian_inverse_dot(point_hessian(z_j) @ first) / n
    return first + second


def second_order_influence(
    model: FittedModel,
    z_j: DataPoint,
    test: Dataset,
    shift: Optional[np.ndarray] = None,
) -> float:
    """Second-order influence: quadratic test-loss expansion at the shift.

    Averages (grad_test + 0.5 * H_test @ shift) . shift over the test set.
    Passing ``shift`` explicitly (e.g. the true leave-one-out parameter
    difference) evaluates the same expansion at that shift; with the true
    shift it reproduces the exact influence because squared loss is quadratic.
    """
    if shift is None:
        return float(second_order_influences(model, Dataset.from_points([z_j]), test)[0])
    gbar, second_moment = _test_side(model, test)
    return float(risk_change(gbar, second_moment, np.asarray(shift, dtype=np.float64)))


def second_order_influences(model: FittedModel, points: Dataset, test: Dataset) -> np.ndarray:
    """Second-order influence of each point in ``points``, vectorized: the
    exact risk change at the two-term shift."""
    return _removal_prices(model, points, test, "second-order")


def influence_records(
    train: Dataset,
    test: Dataset,
    model: Optional[FittedModel] = None,
    ridge: float = 0.0,
) -> list:
    """Exact, first-order and second-order influence for every training point."""
    if model is None:
        model = fit(train, ridge=ridge)
    exact = exact_influences(train, test, model=model)
    first = first_order_influences(model, train, test)
    second = second_order_influences(model, train, test)
    ids = [
        train.agent_ids[j] if train.agent_ids[j] is not None else int(train.arrival_index[j])
        for j in range(len(train))
    ]
    return [
        InfluenceRecord(ids[j], float(exact[j]), float(first[j]), float(second[j]))
        for j in range(len(train))
    ]


def approximation_errors(
    train: Dataset,
    test: Dataset,
    order: str = "second",
    model: Optional[FittedModel] = None,
    ridge: float = 0.0,
) -> ApproximationErrorReport:
    """Error metrics of one approximation order against the exact influence.

    Relative L1 is the ratio of means (mean absolute error over mean absolute
    exact influence), not a mean of per-point ratios, to avoid division by
    near-zero exact influences.
    """
    if order not in ("first", "second"):
        raise InvalidValue(f"order must be 'first' or 'second', got {order!r}")
    if model is None:
        model = fit(train, ridge=ridge)
    exact = exact_influences(train, test, model=model)
    if order == "first":
        approx = first_order_influences(model, train, test)
    else:
        approx = second_order_influences(model, train, test)
    err = np.abs(approx - exact)
    l1 = float(np.mean(err))
    denom = float(np.mean(np.abs(exact)))
    if denom == 0.0:
        relative = 0.0 if l1 == 0.0 else float("inf")
    else:
        relative = l1 / denom
    l2 = float(np.mean((approx - exact) ** 2))
    return ApproximationErrorReport(l1, relative, l2, len(train), len(test))


def _timing_workload(n: int, d: int, n_test: int, seed: int):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=d + 1)
    X = rng.normal(size=(n, d))
    y = X @ theta[:-1] + theta[-1] + rng.normal(size=n)
    Xt = rng.normal(size=(n_test, d))
    yt = Xt @ theta[:-1] + theta[-1] + rng.normal(size=n_test)
    return Dataset(X, y), Dataset(Xt, yt)


def _time_exact_refit(train: Dataset, test: Dataset) -> float:
    """Naive exact influence for every point: one full refit per point."""
    start = time.perf_counter()
    model = fit(train)
    base = risk(test, model.params)
    values = np.empty(len(train))
    for j in range(len(train)):
        loo = fit(train.without_index(j))
        values[j] = risk(test, loo.params) - base
    elapsed = time.perf_counter() - start
    values.sum()  # keep the result live
    return elapsed


def _time_second_order(train: Dataset, test: Dataset) -> float:
    """Second-order influence for every point, one test point at a time.

    The formula is defined per test point, so the measured workload evaluates
    it per (training point, test point) pair before averaging; the Hessian
    inverse is computed once.
    """
    start = time.perf_counter()
    model = fit(train)
    test_aug = test.augmented()
    test_res = residuals(test, model.params)
    total = 0.0
    for j in range(len(train)):
        shift = second_order_param_shift(model, train.point(j))
        acc = 0.0
        for t in range(len(test)):
            grad_t = -2.0 * test_res[t] * test_aug[t]
            proj = float(test_aug[t] @ shift)
            acc += float(grad_t @ shift) + proj * proj
        total += acc / len(test)
    elapsed = time.perf_counter() - start
    return elapsed


def timing_comparison(
    train_sizes: Sequence[int],
    dimensions: Sequence[int],
    test_size: int,
    seed: int = 0,
) -> list:
    """Wall-clock comparison of exact (full refit) vs approximate influence.

    Returns rows of dicts (method, n_train, dimension, seconds) for
    deterministic synthetic workloads, timed end to end over all training
    points.
    """
    rows = []
    for n in train_sizes:
        for d in dimensions:
            train, test = _timing_workload(n, d, test_size, seed)
            rows.append(
                {
                    "method": "exact-refit",
                    "n_train": n,
                    "dimension": d,
                    "seconds": _time_exact_refit(train, test),
                }
            )
            rows.append(
                {
                    "method": "second-order",
                    "n_train": n,
                    "dimension": d,
                    "seconds": _time_second_order(train, test),
                }
            )
    return rows


def crossover_dimension(rows: Sequence[dict]) -> Optional[int]:
    """Smallest dimension at which the approximation beats the exact refit.

    Expects rows from :func:`timing_comparison` for a single train size.
    Returns None if the approximation never wins on the measured grid.
    """
    exact = {r["dimension"]: r["seconds"] for r in rows if r["method"] == "exact-refit"}
    approx = {r["dimension"]: r["seconds"] for r in rows if r["method"] == "second-order"}
    for d in sorted(exact):
        if d in approx and approx[d] < exact[d]:
            return d
    return None
