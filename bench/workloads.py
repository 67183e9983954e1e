"""The benchmark's three closed-loop workloads and their output checks.

Each workload has the same shape:

* ``prepare(seed, workdir)`` makes the run's fixed inputs (set-up);
* ``iterate(state, index)`` is one timed iteration and returns its outputs;
* ``work(outputs)`` is the work the iteration completed, in ``work_unit``;
* ``check(state, outputs)`` returns a list of failed checks (untimed);
* ``finish(state, outputs_of_run)`` returns failures of checks on the
  pooled outputs of a whole run (kept only when ``pools_outputs``).

Library calls go through the ``im`` module attribute at call time, so a
traced iteration sees the rebound names (see ``spans.py``).  The checks use
oracles written here (lstsq refits, finite sums, a CSV parser of their own),
not the library's code path.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import influence_market as im

# Tolerances of the output checks.  The telescoping and refit bounds are the
# acceptance suite's (criteria 3 and 9); the approximation bounds are
# criterion 1's and criterion 2's.
TELESCOPING_TOL = 1e-9
REFIT_TOL = 1e-9
SECOND_ORDER_REL_L1 = 1e-5
FIRST_OVER_SECOND = 100.0
FIRST_ORDER_SUM_TOL = 1e-8
NORMALIZATION_RTOL = 1e-8
LAST_BATCH_RTOL = 1e-9
BEST_RESPONSE_STEP = 0.25
BEST_RESPONSE_MIN_TRIALS = 2500


def sub_seed(seed: int, index: int, stream: int = 0) -> int:
    """Seed of iteration ``index`` of a run; warm-up iterations use stream 1."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def _lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(A, y, rcond=None)[0]


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _risk(A: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    res = y - A @ theta
    return float(np.mean(res * res))


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv_rows(path) -> list:
    """Independent CSV reader: header row, then cells as float where possible."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [{h: _parse_cell(c) for h, c in zip(rows[0], row)} for row in rows[1:]]


def ledger_roundtrip_failures(ledger, rows_back, label: str) -> list:
    """Rows read back from a written ledger must equal the ledger bit for bit."""
    entries = ledger.entries
    if len(rows_back) != len(entries):
        return [f"{label}: {len(rows_back)} rows read back, {len(entries)} written"]
    for i, (e, row) in enumerate(zip(entries, rows_back)):
        for key in ("raw_influence", "corrected_score", "payment"):
            wrote = getattr(e, key)
            if row[key] != wrote:
                return [f"{label}: row {i} {key} reads back {row[key]!r}, wrote {wrote!r}"]
        if float(row["batch_index"]) != e.batch_index or str(row["agent_id"]) != str(e.agent_id):
            return [f"{label}: row {i} identity does not read back"]
    return []


def telescoping_failures(ledger, init, stream, test, label: str) -> list:
    """b=1 telescoping: the raw influences sum to the total drop in test risk,
    with both end risks from lstsq refits."""
    At, yt = _augment(test.X), test.y
    A0 = _augment(init.X)
    A1 = np.vstack([A0, _augment(stream.X)])
    y1 = np.concatenate([init.y, stream.y])
    r0 = _risk(At, yt, _lstsq(A0, init.y))
    r1 = _risk(At, yt, _lstsq(A1, y1))
    total = math.fsum(e.raw_influence for e in ledger.entries)
    failures = []
    residual = abs(total - (r0 - r1))
    if not residual <= TELESCOPING_TOL:
        failures.append(f"{label}: telescoping residual {residual:.3e}")
    ends = (("initial", ledger.risk_trace[0], r0), ("final", ledger.risk_trace[-1], r1))
    for name, got, want in ends:
        if not abs(got - want) <= TELESCOPING_TOL:
            failures.append(f"{label}: {name} risk {got!r} vs lstsq {want!r}")
    return failures


class MechSequential:
    """Criterion 4b's dominant slice: q=500, n=1500, b=1, exact, both modes."""

    name = "mech-sequential"
    work_unit = "ledger entries paid"
    min_iterations = 1
    pools_outputs = False

    def __init__(self, tiny: bool = False):
        self.n, self.q, self.n_test = (60, 20, 30) if tiny else (1500, 500, 200)

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir}

    def inputs(self, seed: int, index: int, stream: int = 0):
        """World, report stream and test set of one iteration."""
        s = sub_seed(seed, index, stream)
        world = im.generate_world(s)
        reports = im.report_stream(im.build_population(self.n, 1.0), world, s + 1)
        test = im.independent_test_set(world, self.n_test, s + 2)
        return world, reports, test, s + 3

    def config(self, world, mode: str):
        return im.MechanismConfig(
            batch_size=1,
            mode=mode,
            init_count=self.q,
            init_x_bounds=world.x_bounds,
            init_y_bounds=world.heuristic_y_bounds,
            influence_method="exact",
        )

    def iterate(self, state: dict, index: int, stream: int = 0) -> dict:
        world, reports, test, init_seed = self.inputs(state["seed"], index, stream)
        out = {"world": world, "stream": reports, "test": test, "init_seed": init_seed}
        for mode in ("inclusive", "exclusive"):
            ledger = im.run_mechanism(reports, test, self.config(world, mode), seed=init_seed)
            path = state["workdir"] / f"ledger-{mode}.csv"
            ledger.to_csv(path)
            out[mode] = (ledger, ledger.summary(), path)
        return out

    def work(self, out: dict) -> int:
        return sum(len(out[mode][0].entries) for mode in ("inclusive", "exclusive"))

    def check(self, state: dict, out: dict) -> list:
        world = out["world"]
        init = im.initialize_model(
            self.q, world.x_bounds, world.heuristic_y_bounds, seed=out["init_seed"], dimension=1
        )
        failures = []
        for mode in ("inclusive", "exclusive"):
            ledger, summary, path = out[mode]
            if len(ledger.entries) != self.n or summary["n_batches"] != self.n:
                failures.append(f"{mode}: {len(ledger.entries)} entries for {self.n} reports")
            failures += telescoping_failures(ledger, init, out["stream"], out["test"], mode)
            failures += ledger_roundtrip_failures(ledger, read_csv_rows(path), f"{mode} ledger")
        return failures

    def finish(self, state: dict, outputs: list) -> list:
        return []


class PriceDataset:
    """approx-error at scale plus the large-batch mechanism over a CSV."""

    name = "price-dataset"
    work_unit = "training points priced plus ledger entries paid"
    min_iterations = 1
    pools_outputs = False
    n_features = 8
    n_refit_checks = 3

    def __init__(self, tiny: bool = False):
        if tiny:
            self.n_rows, self.n_train, self.n_mech, self.q, self.b = 5400, 5000, 400, 100, 20
        else:
            self.n_rows, self.n_train, self.n_mech, self.q, self.b = 21000, 20000, 5000, 500, 100
        self.schema = im.DatasetSchema(name="synthetic-linear", target_column="target")

    def table(self, seed: int):
        """Feature matrix and targets written to the CSV: linear plus noise."""
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 3.0, self.n_features)
        X = rng.normal(size=(self.n_rows, self.n_features)) * scales
        theta = rng.normal(size=self.n_features + 1)
        y = X @ theta[:-1] + theta[-1] + rng.normal(size=self.n_rows)
        return X, y

    def prepare(self, seed: int, workdir: Path) -> dict:
        X, y = self.table(seed)
        path = workdir / "dataset.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{j}" for j in range(self.n_features)] + ["target"])
            for row, target in zip(X.tolist(), y.tolist()):
                writer.writerow([*map(repr, row), repr(target)])
        return {"seed": seed, "workdir": workdir, "csv": path, "y": y}

    def iterate(self, state: dict, index: int, stream: int = 0) -> dict:
        s = sub_seed(state["seed"], index, stream)
        data = im.load_csv(state["csv"], self.schema)
        order = np.random.default_rng(s).permutation(len(data))
        train = data.subset(order[: self.n_train])
        test = data.subset(order[self.n_train :])
        model = im.fit(train)
        exact = im.exact_influences(train, test, model=model)
        first = im.first_order_influences(model, train, test)
        second = im.second_order_influences(model, train, test)
        ids = order[: self.n_train].tolist()
        records = [
            {"point_id": p, "exact": e, "first_order": f, "second_order": g}
            for p, e, f, g in zip(ids, exact.tolist(), first.tolist(), second.tolist())
        ]
        records_path = state["workdir"] / "prices.csv"
        im.write_results(records, records_path)
        out = {
            "seed": s,
            "data": data,
            "train": train,
            "test": test,
            "exact": exact,
            "first": first,
            "second": second,
            "records": records,
            "records_back": im.read_results(records_path),
        }
        stream = train.subset(np.arange(self.n_mech))
        for mode in ("inclusive", "exclusive"):
            ledger = im.run_mechanism(stream, test, self.config(mode), seed=s + 1)
            path = state["workdir"] / f"ledger-{mode}.csv"
            ledger.to_csv(path)
            out[mode] = (ledger, ledger.batch_mean_influences(), im.read_results(path))
        return out

    def config(self, mode: str):
        return im.MechanismConfig(
            batch_size=self.b,
            mode=mode,
            init_count=self.q,
            normalization="closed-form-D",
            influence_method="exact",
        )

    def work(self, out: dict) -> int:
        return len(out["exact"]) + sum(
            len(out[mode][0].entries) for mode in ("inclusive", "exclusive")
        )

    def correction_oracle(self, mode: str) -> float:
        """Summed-influence over total-risk-change ratio as a finite sum over
        the batches (criterion 4a's identity; b divides the stream size)."""
        q, n, b = self.q, self.n_mech, self.b
        ks = range(1, n // b + 1) if mode == "inclusive" else range(0, n // b)
        total = math.fsum(2.0 * b * q * q / (q + k * b) ** 3 for k in ks)
        return total / (n * (2.0 * q + n) / (q + n) ** 2)

    def check(self, state: dict, out: dict) -> list:
        failures = []
        data, train, test = out["data"], out["train"], out["test"]
        exact, first, second = out["exact"], out["first"], out["second"]
        if len(data) != self.n_rows or not np.array_equal(data.y, state["y"]):
            failures.append("load: targets do not match the generated table")

        # Exact prices of a few seeded points against full lstsq refits.
        A, y = _augment(train.X), train.y
        At, yt = _augment(test.X), test.y
        base = _risk(At, yt, _lstsq(A, y))
        rng = np.random.default_rng(out["seed"])
        picks = rng.choice(len(train), self.n_refit_checks, replace=False)
        for j in picks:
            keep = np.arange(len(train)) != j
            value = _risk(At, yt, _lstsq(A[keep], y[keep])) - base
            if not abs(exact[j] - value) <= REFIT_TOL:
                failures.append(f"exact price of point {j}: {exact[j]!r} vs refit {value!r}")

        # Approximation quality (criteria 1 and 2).
        scale = float(np.mean(np.abs(exact)))
        rel_first = float(np.mean(np.abs(first - exact))) / scale
        rel_second = float(np.mean(np.abs(second - exact))) / scale
        if not (rel_second <= SECOND_ORDER_REL_L1 and rel_second * FIRST_OVER_SECOND <= rel_first):
            failures.append(
                f"approximation: relative L1 first {rel_first:.3e}, second {rel_second:.3e}"
            )
        first_sum = abs(math.fsum(first.tolist()))
        if not first_sum <= FIRST_ORDER_SUM_TOL * float(np.max(np.abs(first))):
            failures.append(f"first-order prices sum to {first_sum:.3e}")

        # Per-point records read back bit for bit.
        back = out["records_back"]
        if len(back) != len(out["records"]) or any(
            a[k] != b[k] for a, b in zip(out["records"], back) for k in a
        ):
            failures.append("records: read-back differs from what was written")

        for mode in ("inclusive", "exclusive"):
            ledger, batch_means, rows_back = out[mode]
            failures += ledger_roundtrip_failures(ledger, rows_back, f"{mode} ledger")
            if len(ledger.entries) != self.n_mech or len(batch_means) != self.n_mech // self.b:
                failures.append(f"{mode}: ledger has {len(ledger.entries)} entries")
                continue
            # Normalization: corrected score times the correction ratio is raw.
            ratio = self.correction_oracle(mode)
            for i, e in enumerate(ledger.entries):
                inverted = e.corrected_score * ratio
                if not math.isclose(inverted, e.raw_influence, rel_tol=NORMALIZATION_RTOL):
                    failures.append(f"{mode}: entry {i} corrected score does not invert")
                    break
            if mode != "inclusive":
                continue
            # Inclusive last batch: leave-one-out prices on the whole set.
            config = ledger.config
            init = im.initialize_model(
                self.q, config.init_x_bounds, config.init_y_bounds, out["seed"] + 1, self.n_features
            )
            A_acc = np.vstack([_augment(init.X), A[: self.n_mech]])
            y_acc = np.concatenate([init.y, y[: self.n_mech]])
            failures += self.last_batch_failures(ledger, A_acc, y_acc, At, yt)
        return failures

    def last_batch_failures(self, ledger, A, y, At, yt) -> list:
        theta = _lstsq(A, y)
        base = _risk(At, yt, theta)
        gram_inv = np.linalg.inv(A.T @ A)
        raw = np.array([e.raw_influence for e in ledger.entries[-self.b :]])
        rows = np.arange(len(A) - self.b, len(A))
        want = np.empty(self.b)
        for k, j in enumerate(rows):
            u = gram_inv @ A[j]
            h = float(A[j] @ u)
            theta_loo = theta - u * (y[j] - A[j] @ theta) / (1.0 - h)
            want[k] = _risk(At, yt, theta_loo) - base
        err = float(np.max(np.abs(raw - want)))
        if not err <= LAST_BATCH_RTOL * float(np.max(np.abs(want))):
            return [f"inclusive last batch differs from leave-one-out by {err:.3e}"]
        return []

    def finish(self, state: dict, outputs: list) -> list:
        return []


class BestResponse:
    """Criterion 8's Monte-Carlo probe in blocks of 250 trials."""

    name = "best-response"
    work_unit = "best-response trials"
    grid = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)
    trials_per_block = 250
    min_iterations = -(-BEST_RESPONSE_MIN_TRIALS // trials_per_block)
    pools_outputs = True

    def __init__(self, tiny: bool = False):
        # No smaller size: the pooled check needs criterion 8's full probe.
        self.n_others, self.n_test = 50, 100

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "world": im.generate_world(42)}

    def iterate(self, state: dict, index: int, stream: int = 0) -> list:
        return im.best_response_check(
            state["world"],
            n_others=self.n_others,
            deviation_grid=self.grid,
            seed=sub_seed(state["seed"], index, stream),
            n_trials=self.trials_per_block,
            n_test=self.n_test,
        )

    def work(self, table: list) -> int:
        return self.trials_per_block

    def check(self, state: dict, table: list) -> list:
        if [r["deviation"] for r in table] != list(self.grid):
            return ["table rows do not follow the deviation grid"]
        if not all(math.isfinite(r["mean_influence"]) for r in table):
            return ["table has a non-finite mean influence"]
        return []

    def finish(self, state: dict, tables: list) -> list:
        """Pooled over the run: the truthful report is the best response."""
        trials = self.trials_per_block * len(tables)
        if trials < BEST_RESPONSE_MIN_TRIALS:
            return [f"only {trials} trials pooled, {BEST_RESPONSE_MIN_TRIALS} needed"]
        pooled = np.mean([[r["mean_influence"] for r in t] for t in tables], axis=0)
        grid = np.array(self.grid)
        best = float(grid[np.argmax(pooled)])
        a, b, _ = np.polyfit(grid, pooled, 2)
        peak = -b / (2.0 * a) if a < 0 else math.inf
        if not (abs(best) <= BEST_RESPONSE_STEP and abs(peak) <= BEST_RESPONSE_STEP):
            return [f"pooled over {trials} trials: argmax {best:+.2f}, quadratic peak {peak:+.3f}"]
        return []


WORKLOADS = {w.name: w for w in (MechSequential, PriceDataset, BestResponse)}
