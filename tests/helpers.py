"""Shared independent oracles and small statistics used across the tests.

Everything here deliberately avoids the library's own computational paths:
fits go through numpy.linalg.lstsq on explicitly built augmented matrices,
derivatives through central finite differences, special functions through
direct series summation, and the exact fit through rational arithmetic. The per-point report generators below are the one
exception: they call the library's public single-report functions,
``truthful_report`` and ``heuristic_report``, one point at a time, as the
reference the array-based generators must reproduce bit for bit. The
per-row CSV readers and writer at the end convert one cell at a time, as the
reference the column-at-a-time ``dataio`` converters must reproduce.
"""

import csv
import math
from fractions import Fraction

import numpy as np

from influence_market import (
    EmptyAfterFiltering,
    IoError,
    MissingColumn,
    NonNumericCell,
    heuristic_report,
    truthful_report,
)
from influence_market.dataio import NA_STRINGS


def augment(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, np.ones((X.shape[0], 1))])


def lstsq_fit(X, y, ridge=0.0):
    """Normal-equations oracle via numpy.linalg.lstsq on the augmented matrix."""
    aug = augment(X)
    if ridge:
        d1 = aug.shape[1]
        aug = np.vstack([aug, np.sqrt(ridge) * np.eye(d1)])
        y = np.concatenate([y, np.zeros(d1)])
    theta, *_ = np.linalg.lstsq(aug, y, rcond=None)
    return theta


def direct_risk(X, y, theta):
    res = y - augment(X) @ theta
    return float(np.sum(res * res) / len(y))


def refit_influence(X, y, j, X_test, y_test, ridge=0.0):
    """Full-refit exact influence oracle: drop row j, refit, difference risks."""
    theta = lstsq_fit(X, y, ridge)
    mask = np.arange(len(y)) != j
    theta_loo = lstsq_fit(X[mask], y[mask], ridge)
    return direct_risk(X_test, y_test, theta_loo) - direct_risk(X_test, y_test, theta)


def exact_fit_risk(X, y, X_test, y_test):
    """Test risk of the least-squares fit to (X, y), in exact rational
    arithmetic: every float input is converted exactly, the augmented normal
    equations are solved by Gauss-Jordan elimination, and the mean squared
    test residual is returned as a Fraction."""
    rows = [[Fraction(v) for v in row] + [Fraction(1)] for row in np.asarray(X).tolist()]
    targets = [Fraction(v) for v in np.asarray(y).tolist()]
    p = len(rows[0])
    system = [
        [sum(r[i] * r[j] for r in rows) for j in range(p)]
        + [sum(r[i] * t for r, t in zip(rows, targets))]
        for i in range(p)
    ]
    for c in range(p):
        pivot = next(r for r in range(c, p) if system[r][c] != 0)
        system[c], system[pivot] = system[pivot], system[c]
        for r in range(p):
            if r != c and system[r][c] != 0:
                f = system[r][c] / system[c][c]
                system[r] = [a - f * b for a, b in zip(system[r], system[c])]
    theta = [system[i][p] / system[i][i] for i in range(p)]
    total = Fraction(0)
    for row, target in zip(np.asarray(X_test).tolist(), np.asarray(y_test).tolist()):
        res = Fraction(target) - sum(Fraction(v) * t for v, t in zip(row, theta)) - theta[-1]
        total += res * res
    return total / len(y_test)


def central_difference_gradient(f, theta, step=1e-6):
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (f(up) - f(dn)) / (2 * step)
    return grad


def central_difference_scalar(f, x, step=1e-5):
    return (f(x + step) - f(x - step)) / (2 * step)


def tetragamma_series(x, terms=4_000_000):
    """Direct series oracle: psi''(x) = -2 sum_{k>=0} (x + k)^-3."""
    k = np.arange(terms, dtype=float)
    return -2.0 * float(np.sum((x + k) ** -3))


def mann_kendall_z(values):
    """Mann-Kendall trend statistic (normal approximation, no tie correction)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    s = 0
    for i in range(n - 1):
        s += int(np.sum(np.sign(values[i + 1 :] - values[i])))
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        return (s - 1) / math.sqrt(var)
    if s < 0:
        return (s + 1) / math.sqrt(var)
    return 0.0


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n, m, alpha=0.05):
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def random_regression(rng, n, d, noise=0.1):
    theta = rng.normal(size=d + 1)
    X = rng.normal(size=(n, d))
    y = X @ theta[:-1] + theta[-1] + noise * rng.normal(size=n)
    return X, y


def per_point_reports(world, rng, n):
    """n truthful reports drawn one ``truthful_report`` call at a time."""
    points = [truthful_report(world, rng, None, i) for i in range(n)]
    X = np.array([p.x for p in points]).reshape(n, world.dimension)
    return X, np.array([p.y for p in points])


def per_point_stream(profiles, world, rng):
    """Reference for ``report_stream``: the same shuffle of the opted-in
    agents, then one ``truthful_report`` or ``heuristic_report`` call per
    arrival; perturbed agents add their deviation to the observed target.
    Returns X, y, agent_ids and arrival indices."""
    active = [p for p in profiles if p.opt_in]
    order = rng.permutation(len(active))
    X, y, ids = [], [], []
    for arrival, idx in enumerate(order):
        profile = active[idx]
        report = heuristic_report if profile.strategy == "heuristic" else truthful_report
        point = report(world, rng, profile.agent_id, arrival)
        target = point.y
        if profile.strategy == "perturbed" and profile.deviation:
            target = target + profile.deviation
        X.append(point.x)
        y.append(target)
        ids.append(point.agent_id)
    return np.array(X), np.array(y), tuple(ids), np.arange(len(order))


def refit_best_response(world, n_others, grid, seed, n_trials, n_test):
    """Oracle for ``best_response_check``: per-point draws in the same order
    (others, test set, probed observation), then for every deviation c an
    lstsq refit on the others plus (x, y + c) and a direct risk difference.
    Returns the mean influences, the mean test risk of the others' fit and
    the largest condition number of the others' augmented Gram matrix."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(len(grid))
    base_sum = 0.0
    worst_cond = 1.0
    for _ in range(n_trials):
        X_o, y_o = per_point_reports(world, rng, n_others)
        X_t, y_t = per_point_reports(world, rng, n_test)
        x, y = per_point_reports(world, rng, 1)
        base = direct_risk(X_t, y_t, lstsq_fit(X_o, y_o))
        base_sum += base
        worst_cond = max(worst_cond, np.linalg.cond(augment(X_o)) ** 2)
        for i, c in enumerate(grid):
            theta = lstsq_fit(np.vstack([X_o, x]), np.concatenate([y_o, y + c]))
            sums[i] += base - direct_risk(X_t, y_t, theta)
    return sums / n_trials, base_sum / n_trials, worst_cond


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def per_row_load_csv(path, schema):
    """Reference for ``load_csv_with_stats``, one row at a time: a strip, an
    NA test and a ``float`` per cell. Returns X, y and the standardization's
    mean and scale (both None without standardization)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh, delimiter=schema.delimiter))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IoError(f"{path} is empty; a header row is required")
    header = [h.strip() for h in rows[0]]
    if schema.target_column not in header:
        raise MissingColumn(f"target column {schema.target_column!r} not in header")
    for col in schema.dropped_columns:
        if col not in header:
            raise MissingColumn(f"dropped column {col!r} not in header")
    keep = [
        i
        for i, name in enumerate(header)
        if name not in schema.dropped_columns and name != schema.target_column
    ]
    target_idx = header.index(schema.target_column)

    features = []
    targets = []
    row_numbers = []
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [row[i].strip() if i < len(row) else "" for i in range(len(header))]
        wanted = [cells[i] for i in keep] + [cells[target_idx]]
        if any(cell in NA_STRINGS for cell in wanted):
            if schema.na_policy == "drop-row":
                continue
            missing = next(
                header[i] for i in keep + [target_idx] if cells[i] in NA_STRINGS
            )
            raise NonNumericCell(
                f"missing value at row {row_number}, column {missing!r}",
                row=row_number,
                column=missing,
            )
        try:
            features.append([float(cells[i]) for i in keep])
        except ValueError:
            bad = next(i for i in keep if not _is_float(cells[i]))
            raise NonNumericCell(
                f"non-numeric cell {cells[bad]!r} at row {row_number}, "
                f"column {header[bad]!r}",
                row=row_number,
                column=header[bad],
            ) from None
        if not _is_float(cells[target_idx]):
            raise NonNumericCell(
                f"non-numeric cell {cells[target_idx]!r} at row {row_number}, "
                f"column {schema.target_column!r}",
                row=row_number,
                column=schema.target_column,
            )
        targets.append(float(cells[target_idx]))
        row_numbers.append(row_number)
    if not features:
        raise EmptyAfterFiltering(f"no usable rows left in {path}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    finite = np.isfinite(np.column_stack([X, y]))
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        name = header[(keep + [target_idx])[col]]
        value = float(X[row, col] if col < len(keep) else y[row])
        raise NonNumericCell(
            f"non-finite cell {str(value)!r} at row {row_numbers[row]}, column {name!r}",
            row=row_numbers[row],
            column=name,
        )
    if not schema.standardize:
        return X, y, None, None
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0] = 1.0
    return (X - mean) / scale, y, mean, scale


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def per_row_write_results(rows, path, columns=None):
    """Reference for CSV ``write_results``: one ``writerow`` per row and an
    isinstance chain per cell."""
    rows = list(rows)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _parse_cell(cell):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def per_row_read_results(path):
    """Reference for CSV ``read_results``: a dict per row and a
    ``try: int / except / try: float`` per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    header = rows[0]
    return [{h: _parse_cell(cell) for h, cell in zip(header, row)} for row in rows[1:]]
