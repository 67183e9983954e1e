"""
Linear regression substrate: datasets, closed-form fitting, residuals and
test risk in the augmented (weights, bias) parameter space.

The model is y ~ w @ x + b with squared-residual loss (no 1/2 factor). The
parameters live in the augmented space of dimension d + 1, where a feature
vector x is extended to x~ = [x, 1] so the bias is an ordinary coordinate.
Fitting solves the normal equations in closed form once a Cholesky
factorization has certified the Gram matrix positive definite; there is no
iterative training anywhere in this package. A point's loss gradient
-2 r x~ and Hessian 2 x~ x~.T appear only inside the influence module's
kernels, which take whole arrays of rows.

For squared loss a fit depends on the data only through the augmented Gram
matrix X~.T X~ and the moment vector X~.T y. ``fit`` forms both from a
Dataset and hands them to one private solver returning plain arrays, which
only ``fit`` wraps in a ``FittedModel``; the mechanism and the best-response
probe call the solver on sums they accumulate themselves. The solver takes
leading stack axes, so the probe solves a chunk of independent fits with one
call, and checks positive definiteness and the optimality certificate of
every fit in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidValue,
    SingularDesign,
)

# Relative gradient-norm bound certifying that a fit found a stationary point.
OPTIMALITY_TOL = 1e-8


@dataclass(frozen=True)
class DataPoint:
    """A single contributed observation.

    Parameters
    ----------
    x : ndarray of shape (d,)
        Feature vector; must be finite.
    y : float
        Scalar target; must be finite.
    agent_id : hashable, optional
        Identifier of the contributing agent.
    """

    x: np.ndarray
    y: float
    agent_id: object = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=np.float64))
        if x.ndim != 1:
            raise DimensionMismatch(f"feature vector must be 1-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidValue("feature vector contains non-finite values")
        if not np.isfinite(self.y):
            raise InvalidValue("target is not finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", float(self.y))

    @property
    def dimension(self) -> int:
        return self.x.shape[0]


class Dataset:
    """Ordered collection of points backed by contiguous arrays.

    Row order is arrival order: a stream's rows are paid in stored order.

    Instances are immutable: every derived collection (subset, extension,
    leave-one-out) is a new object, so datasets are safe to share across
    concurrent readers.

    Parameters
    ----------
    X : ndarray of shape (n, d)
        Feature matrix.
    y : ndarray of shape (n,)
        Targets.
    agent_ids : sequence of length n, optional
        Contributor identifiers (``None`` entries allowed).
    """

    __slots__ = ("X", "y", "agent_ids", "_augmented")

    def __init__(self, X, y, agent_ids=None):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if X.ndim != 2:
            raise DimensionMismatch(f"feature matrix must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DimensionMismatch(
                f"targets have shape {y.shape}, expected ({X.shape[0]},)"
            )
        if X.size and not np.all(np.isfinite(X)):
            raise InvalidValue("feature matrix contains non-finite values")
        if y.size and not np.all(np.isfinite(y)):
            raise InvalidValue("targets contain non-finite values")
        n = X.shape[0]
        if agent_ids is None:
            agent_ids = tuple([None] * n)
        else:
            agent_ids = tuple(agent_ids)
            if len(agent_ids) != n:
                raise DimensionMismatch("agent_ids length does not match point count")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "agent_ids", agent_ids)
        object.__setattr__(self, "_augmented", None)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @classmethod
    def from_points(cls, points: Iterable[DataPoint]) -> "Dataset":
        points = list(points)
        if not points:
            return cls(np.empty((0, 1)), np.empty(0))
        d = points[0].dimension
        for p in points:
            if p.dimension != d:
                raise DimensionMismatch(
                    f"point dimension {p.dimension} does not match dataset dimension {d}"
                )
        X = np.stack([p.x for p in points])
        y = np.array([p.y for p in points])
        return cls(X, y, [p.agent_id for p in points])

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def augmented(self) -> np.ndarray:
        """Feature matrix with a trailing column of ones (cached)."""
        if self._augmented is None:
            aug = np.hstack([self.X, np.ones((len(self), 1))])
            aug.setflags(write=False)
            object.__setattr__(self, "_augmented", aug)
        return self._augmented

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            bad = indices[(indices < 0) | (indices >= len(self))][0]
            raise IndexOutOfRange(f"index {bad} outside dataset of size {len(self)}")
        ids = [self.agent_ids[i] for i in indices]
        return Dataset(self.X[indices], self.y[indices], ids)

    def without_index(self, j: int) -> "Dataset":
        if not 0 <= j < len(self):
            raise IndexOutOfRange(f"index {j} outside dataset of size {len(self)}")
        keep = np.concatenate([np.arange(j), np.arange(j + 1, len(self))])
        return self.subset(keep)

    def extended(self, other: "Dataset") -> "Dataset":
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        if other.dimension != self.dimension:
            raise DimensionMismatch("cannot concatenate datasets of different dimension")
        return Dataset(
            np.vstack([self.X, other.X]),
            np.concatenate([self.y, other.y]),
            list(self.agent_ids) + list(other.agent_ids),
        )


@dataclass(frozen=True)
class Parameters:
    """Model parameters: weight vector plus intercept."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if not np.all(np.isfinite(w)) or not np.isfinite(self.bias):
            raise InvalidValue("parameters contain non-finite values")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    def as_vector(self) -> np.ndarray:
        """Augmented parameter vector [weights, bias]."""
        return np.concatenate([self.weights, [self.bias]])

    @classmethod
    def from_vector(cls, theta: np.ndarray) -> "Parameters":
        theta = np.asarray(theta, dtype=np.float64)
        return cls(theta[:-1].copy(), float(theta[-1]))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.bias


@dataclass(frozen=True)
class FittedModel:
    """A trained linear regression with its cached Gram inverse.

    Attributes
    ----------
    params : Parameters
        The risk minimizer.
    gram_inverse : ndarray of shape (d+1, d+1)
        Inverse of the augmented Gram matrix X~.T @ X~ + ridge * I, used for
        O(d^2) rank-one updates and downdates.
    """

    params: Parameters
    gram_inverse: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.gram_inverse, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "gram_inverse", arr)


def _check_params_dim(params: Parameters, d: int) -> None:
    if params.dimension != d:
        raise DimensionMismatch(
            f"parameters of dimension {params.dimension} applied to features of dimension {d}"
        )


def fit(data: Dataset, ridge: float = 0.0) -> FittedModel:
    """Fit by normal equations, certifying optimality.

    Solves (X~.T X~ + ridge I) theta = X~.T y for the augmented parameter
    vector. Requires n >= d + 1 so the unpenalized problem is determined;
    collinear designs need ridge > 0.

    Parameters
    ----------
    data : Dataset
        Training points, n >= d + 1.
    ridge : float
        Non-negative, finite ridge coefficient added to the Gram diagonal.

    Returns
    -------
    FittedModel

    Raises
    ------
    InvalidValue
        If ridge is negative, infinite or NaN.
    SingularDesign
        If the Gram matrix has a non-positive pivot and ridge is 0, if there
        are fewer than d + 1 points, or if the solve fails the gradient-norm
        optimality certificate.
    """
    if not (np.isfinite(ridge) and ridge >= 0):
        raise InvalidValue("ridge must be non-negative and finite")
    n = len(data)
    d = data.dimension
    if n < d + 1:
        raise SingularDesign(
            f"need at least d + 1 = {d + 1} points to fit in augmented dimension, got {n}"
        )
    aug = data.augmented()
    theta, gram_inverse = _solve_normal_equations(aug.T @ aug, aug.T @ data.y, n, ridge)
    return FittedModel(Parameters.from_vector(theta), gram_inverse)


def _solve_normal_equations(gram: np.ndarray, moment: np.ndarray, n: int, ridge: float):
    """Parameters of the fit to the sufficient statistics of n training points.

    ``gram`` (..., p, p) is the unpenalized augmented Gram matrix X~.T X~ and
    ``moment`` (..., p) the vector X~.T y; leading axes stack independent
    fits of n points each. Ridge is added to the Gram diagonal here. Returns
    theta (..., p) and the penalized Gram inverse (..., p, p). Raises
    SingularDesign as :func:`fit` documents if any fit of the stack fails.
    """
    p = gram.shape[-1]
    eye = np.eye(p)
    if ridge:
        gram = gram + ridge * eye
    # One solve gives the parameters (first column) and the Gram inverse.
    rhs = np.empty(moment.shape + (p + 1,))
    rhs[..., 0], rhs[..., 1:] = moment, eye
    try:
        np.linalg.cholesky(gram)  # the positive-definiteness check; the factor is unused
        solution = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(
            "augmented Gram matrix is not invertible"
            + ("" if ridge else "; supply ridge > 0 for collinear designs")
        ) from exc
    theta, gram_inverse = solution[..., 0], solution[..., 1:]

    # Optimality certificate, per fit: the gradient (2/n)(G theta - m) of the
    # fitted objective must be small against the gradient (2/n) m at the zero
    # parameter vector (or against 1); compared squared, with the common
    # (2/n)^2 moved to the bound. A NaN fails it.
    grad = gram @ theta[..., None] - rhs[..., :1]
    grad_sq = (grad.swapaxes(-1, -2) @ grad)[..., 0, 0]
    moment_sq = (rhs[..., :1].swapaxes(-1, -2) @ rhs[..., :1])[..., 0, 0]
    if not (grad_sq <= OPTIMALITY_TOL**2 * np.maximum(moment_sq, (n / 2.0) ** 2)).all():
        raise SingularDesign(
            "normal-equation solve failed the optimality certificate; "
            "the design is too ill-conditioned (supply ridge > 0)"
        )
    # Contiguous, as Parameters.as_vector() is, so products with theta round alike.
    return np.ascontiguousarray(theta), gram_inverse


def risk(data: Dataset, params: Parameters) -> float:
    """Mean squared residual over a dataset.

    Raises
    ------
    EmptyDataset
        If the dataset has no points.
    """
    if len(data) == 0:
        raise EmptyDataset("risk of an empty dataset is undefined")
    _check_params_dim(params, data.dimension)
    residuals = data.y - data.X @ params.weights - params.bias
    return float(np.mean(residuals * residuals))


def residuals(data: Dataset, params: Parameters) -> np.ndarray:
    """Per-point residuals y - (w @ x + b) of a dataset."""
    _check_params_dim(params, data.dimension)
    return data.y - data.X @ params.weights - params.bias

