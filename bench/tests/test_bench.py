"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import influence_market as im  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int):
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc, result = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "best-response", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the checkers catch corrupted outputs ---------------------------------------


@pytest.fixture(scope="module")
def mech_output(tmp_path_factory):
    workload = workloads.MechSequential(tiny=True)
    state = workload.prepare(5, tmp_path_factory.mktemp("mech"))
    return workload, state, workload.iterate(state, 0)


@pytest.fixture(scope="module")
def price_output(tmp_path_factory):
    workload = workloads.PriceDataset(tiny=True)
    state = workload.prepare(5, tmp_path_factory.mktemp("price"))
    return workload, state, workload.iterate(state, 0)


def with_entry(ledger, index, **changes):
    """Copy of a ledger with one entry changed."""
    entries = list(ledger.entries)
    entries[index] = dataclasses.replace(entries[index], **changes)
    return dataclasses.replace(ledger, entries=entries)


def test_clean_outputs_pass(mech_output, price_output):
    for workload, state, out in (mech_output, price_output):
        assert workload.check(state, out) == []


def test_corrupted_ledger_fails_telescoping(mech_output):
    workload, state, out = mech_output
    ledger, summary, path = out["inclusive"]
    bad = with_entry(ledger, 7, raw_influence=ledger.entries[7].raw_influence + 1e-6)
    failures = workload.check(state, {**out, "inclusive": (bad, summary, path)})
    assert any("telescoping" in f for f in failures)


def test_corrupted_ledger_file_fails_roundtrip(mech_output, tmp_path):
    workload, state, out = mech_output
    ledger, summary, path = out["exclusive"]
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-15))
    lines[3] = ",".join(cells)
    bad_path = tmp_path / "ledger.csv"
    bad_path.write_text("\n".join(lines) + "\n")
    failures = workload.check(state, {**out, "exclusive": (ledger, summary, bad_path)})
    assert any("reads back" in f for f in failures)


def test_corrupted_records_fail(price_output):
    workload, state, out = price_output
    back = [dict(r) for r in out["records_back"]]
    back[11]["second_order"] = np.nextafter(back[11]["second_order"], np.inf)
    assert any("records" in f for f in workload.check(state, {**out, "records_back": back}))


def test_corrupted_prices_fail(price_output):
    workload, state, out = price_output
    failures = workload.check(state, {**out, "exact": out["exact"] * (1 + 1e-3)})
    assert any("exact price" in f for f in failures)
    assert any("approximation" in f for f in failures)


def test_corrupted_normalization_and_last_batch_fail(price_output):
    workload, state, out = price_output
    ledger, means, rows = out["inclusive"]
    last = len(ledger.entries) - 1
    entry = ledger.entries[last]
    bad = with_entry(ledger, last, corrected_score=entry.corrected_score * 1.01)
    failures = workload.check(state, {**out, "inclusive": (bad, means, bad.rows())})
    assert any("corrected score" in f for f in failures)
    bad = with_entry(ledger, last, raw_influence=entry.raw_influence * 1.01)
    failures = workload.check(state, {**out, "inclusive": (bad, means, bad.rows())})
    assert any("last batch" in f for f in failures)


def test_best_response_checks_catch_bad_tables():
    workload = workloads.BestResponse()
    grid = np.array(workload.grid)
    good = [{"deviation": c, "mean_influence": float(-c * c)} for c in workload.grid]
    assert workload.check({}, good) == []
    nan = [dict(r) for r in good]
    nan[3]["mean_influence"] = float("nan")
    assert workload.check({}, nan)
    shifted = [{"deviation": c, "mean_influence": float(-(c - 1.0) ** 2)} for c in grid]
    blocks = workload.min_iterations
    assert workload.finish({}, [good] * blocks) == []
    assert workload.finish({}, [shifted] * blocks)
    assert workload.finish({}, [good] * (blocks - 1))


class FlakyWorkload:
    """Stub workload: iteration 2 fails its check and iteration 3 raises."""

    min_iterations = 5
    pools_outputs = False

    def iterate(self, state, index, stream=0):
        if index == 3:
            raise RuntimeError("iteration 3 raised")
        return index

    def check(self, state, out):
        return ["bad output"] if out == 2 else []

    def work(self, out):
        return 1

    def finish(self, state, outputs):
        return []


def test_failed_and_raising_iterations_are_counted():
    loop = run.closed_loop(FlakyWorkload(), {}, seconds=0.0)
    assert len(loop["times"]) == 5
    assert loop["failed"] == 2 and loop["work"] == 3
    assert any("bad output" in f for f in loop["failures"])
    assert any("iteration 3 raised" in f for f in loop["failures"])


# -- inputs come from the seed ----------------------------------------------------


def test_same_seed_regenerates_identical_inputs(tmp_path):
    mech = workloads.MechSequential(tiny=True)
    _, a, ta, sa = mech.inputs(9, 4)
    _, b, tb, sb = mech.inputs(9, 4)
    _, c, _, _ = mech.inputs(10, 4)
    assert sa == sb and np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert np.array_equal(ta.X, tb.X) and np.array_equal(ta.y, tb.y)
    assert not np.array_equal(a.y, c.y)

    price = workloads.PriceDataset(tiny=True)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = price.prepare(9, tmp_path / "a")["csv"].read_bytes()
    second = price.prepare(9, tmp_path / "b")["csv"].read_bytes()
    assert first == second
    assert not np.array_equal(price.table(9)[1], price.table(10)[1])

    assert workloads.sub_seed(9, 4) == workloads.sub_seed(9, 4) != workloads.sub_seed(9, 5)
    assert workloads.sub_seed(9, 0, stream=1) != workloads.sub_seed(9, 0)


# -- tracing ----------------------------------------------------------------------


def test_untraced_state_rebinds_nothing():
    before = {m.__name__: dict(vars(m)) for m in spans.PACKAGE_MODULES}
    before_classes = {
        c: dict(vars(c)) for c in (im.regression.Dataset, im.mechanism.PaymentLedger)
    }
    tracer = spans.Tracer()
    tracer.install()
    assert im.mechanism.fit is not before["influence_market.mechanism"]["fit"]
    assert im.agents.truthful_report is not before["influence_market.agents"]["truthful_report"]
    tracer.uninstall()
    for module in spans.PACKAGE_MODULES:
        for key, value in before[module.__name__].items():
            assert vars(module)[key] is value, (module.__name__, key)
    for cls, attrs in before_classes.items():
        for key, value in attrs.items():
            assert vars(cls)[key] is value, (cls.__name__, key)


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer()
    tracer._clock = lambda: next(ticks)
    root = tracer.begin_iteration(1)  # 0 .. 10
    outer = tracer.open("influence.exact_influences")  # 1 .. 5
    inner = tracer.open("regression.fit")  # 2 .. 4
    tracer.close(inner)
    tracer.close(outer)
    tracer.close(root)
    table = spans.layer_table(tracer.arrays(), tracer.notes, 0.0)
    assert table["influence.exact_s"]["value"] == 2.0
    assert table["regression.fit_s"]["value"] == 2.0
    assert table["regression.fit_calls"]["value"] == 1.0


def test_tail_percentile_keeps_ten_beyond():
    info = run.tail([float(i) for i in range(21)])
    assert info == {"value": 10.0, "percentile": 100 * 11 / 21, "samples": 21, "beyond": 10}
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0
