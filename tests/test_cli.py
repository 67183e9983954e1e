import numpy as np
import pytest

from influence_market import (
    approximation_errors,
    build_population,
    generate_world,
    independent_test_set,
    read_results,
    report_stream,
)
from influence_market.cli import main


def run(*argv):
    return main([str(a) for a in argv])


class TestApproxError:
    def test_linear_generated_run(self, tmp_path):
        code = run(
            "approx-error", "--n-train", 200, "--n-test", 50,
            "--trials", 1, "--seed", 3, "--out-dir", tmp_path,
        )
        assert code == 0
        rows = read_results(tmp_path / "approx_error.csv")
        by_order = {r["order"]: r for r in rows}
        assert by_order["second"]["relative_l1"] < by_order["first"]["relative_l1"]
        manifest = read_results(tmp_path / "run_manifest.txt", fmt="key-value-summary")
        assert manifest["command"] == "approx-error"
        assert manifest["seed"] == 3

    def test_reproducible_under_seed(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            run(
                "approx-error", "--n-train", 150, "--n-test", 40,
                "--trials", 1, "--seed", 9, "--out-dir", tmp_path / sub,
            )
        rows_a = read_results(tmp_path / "a" / "approx_error.csv")
        rows_b = read_results(tmp_path / "b" / "approx_error.csv")
        assert rows_a == rows_b

    def test_rows_are_means_of_library_reports(self, tmp_path):
        # each trial draws a fresh linear world from seed + trial
        seed, trials, n_train, n_test = 4, 3, 120, 30
        code = run(
            "approx-error", "--n-train", n_train, "--n-test", n_test,
            "--trials", trials, "--seed", seed, "--ridge", 0.25, "--out-dir", tmp_path,
        )
        assert code == 0
        reports = {"first": [], "second": []}
        for trial in range(trials):
            world = generate_world(seed + trial)
            train = report_stream(build_population(n_train, 1.0), world, seed + trial + 1)
            test = independent_test_set(world, n_test, seed + trial + 2)
            for order, report in approximation_errors(train, test, ridge=0.25).items():
                reports[order].append(report)
        rows = read_results(tmp_path / "approx_error.csv")
        assert [r["order"] for r in rows] == ["first", "second"]
        for row in rows:
            for key in ("l1", "relative_l1", "l2"):
                want = float(np.mean([getattr(r, key) for r in reports[row["order"]]]))
                assert row[key] == want

    def test_empty_test_set_exits_with_one_error_line(self, tmp_path, capsys):
        code = run("approx-error", "--n-train", 50, "--n-test", 0, "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "empty test set" in err[0]

    def test_too_small_n_train_fails(self, tmp_path, capsys):
        code = run("approx-error", "--n-train", 2, "--out-dir", tmp_path)
        assert code != 0
        assert "n_train" in capsys.readouterr().err

    def test_csv_dataset_via_schema(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["a,b,target"]
        for _ in range(120):
            x = rng.normal(size=2)
            y = float(x[0] - 2 * x[1] + rng.normal() * 0.1)
            lines.append(f"{float(x[0])!r},{float(x[1])!r},{y!r}")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text(
            "name=custom\ntarget_column=target\ndropped_columns=\n"
            "delimiter=,\nstandardize=true\nna_policy=drop-row\n"
        )
        code = run(
            "approx-error", "--dataset", csv_path, "--schema", schema_path,
            "--n-train", 80, "--n-test", 30, "--out-dir", tmp_path,
        )
        assert code == 0
        rows = read_results(tmp_path / "approx_error.csv")
        assert len(rows) == 2

    def test_non_finite_cell_exits_with_one_error_line(self, tmp_path, capsys):
        lines = ["a,b,target"] + [f"{i}.0,{i % 7}.5,{i % 3}.0" for i in range(60)]
        lines[17] = "16.0,inf,1.0"
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("name=custom\ntarget_column=target\nstandardize=true\n")
        code = run(
            "approx-error", "--dataset", csv_path, "--schema", schema_path,
            "--n-train", 30, "--n-test", 10, "--out-dir", tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "row 18" in err[0] and "'b'" in err[0]

    @pytest.mark.parametrize("bad", ["dataset", "schema"])
    def test_undecodable_file_exits_with_one_error_line(self, tmp_path, capsys, bad):
        lines = ["a,b,target"] + [f"{i}.0,{i % 7}.5,{i % 3}.0" for i in range(60)]
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("name=custom\ntarget_column=target\nstandardize=true\n")
        undecodable = csv_path if bad == "dataset" else schema_path
        undecodable.write_bytes(undecodable.read_bytes() + b"\xff\n")
        code = run(
            "approx-error", "--dataset", csv_path, "--schema", schema_path,
            "--n-train", 30, "--n-test", 10, "--out-dir", tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert undecodable.name in err[0]

    def test_schema_without_target_exits_with_one_error_line(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,target\n1.0,2.0\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("name=custom\nstandardize=true\n")
        code = run(
            "approx-error", "--dataset", csv_path, "--schema", schema_path,
            "--n-train", 30, "--n-test", 10, "--out-dir", tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "data.schema" in err[0] and "'target_column'" in err[0]

    def test_builtin_needs_data_file(self, tmp_path, capsys):
        code = run("approx-error", "--dataset", "red-wine", "--out-dir", tmp_path)
        assert code != 0
        assert "data-file" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_bad_schema_delimiter_exits_with_one_error_line(self, tmp_path, capsys, delimiter):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,target\n1.0,2.0\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text(f"name=custom\ntarget_column=target\ndelimiter={delimiter}\n")
        code = run(
            "approx-error", "--dataset", csv_path, "--schema", schema_path,
            "--n-train", 30, "--n-test", 10, "--out-dir", tmp_path / "out",
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "delimiter" in err[0] and repr(delimiter) in err[0]


class TestIgnoredDatasetFlags:
    """A dataset flag the run would not read is refused before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx-error", "--data-file", "{csv}"],
            ["approx-error", "--schema", "{schema}"],
            ["approx-error", "--data-file", "{csv}", "--schema", "{schema}"],
            ["approx-error", "--dataset", "{csv}", "--schema", "{schema}", "--data-file", "{csv}"],
            ["batch-ratio", "--batch-sizes", "1", "--data-file", "{csv}", "--schema", "{schema}"],
            ["batch-ratio", "--batch-sizes", "1", "--dataset", "red-wine"],
            ["influence-time", "--n-batches", "1", "--schema", "{schema}"],
            ["bench", "--dims", "1", "--data-file", "{csv}"],
            ["simulate", "--n-agents", "10", "--dataset", "{csv}", "--schema", "{schema}"],
        ],
    )
    def test_exits_with_one_error_line_and_no_output(self, tmp_path, capsys, argv):
        lines = ["a,b,target"] + [f"{i}.0,{i % 7}.5,{i % 3}.0" for i in range(60)]
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        schema_path = tmp_path / "data.schema"
        schema_path.write_text("name=custom\ntarget_column=target\n")
        out = tmp_path / "out"
        argv = [a.format(csv=csv_path, schema=schema_path) for a in argv]
        code = run(*argv, "--out-dir", out)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "would be ignored" in err[0]
        assert list(out.iterdir()) == []


class TestBatchRatio:
    def test_small_run_matches_theory_shape(self, tmp_path):
        code = run(
            "batch-ratio", "--init-count", 50, "--n", 200,
            "--batch-sizes", "1,10,50", "--trials", 3,
            "--n-test", 80, "--seed", 5, "--out-dir", tmp_path,
        )
        assert code == 0
        rows = read_results(tmp_path / "batch_ratio.csv")
        assert [r["batch_size"] for r in rows] == [1, 10, 50]
        b1 = rows[0]
        # telescoping at unit batches: both ratios within 2% of one
        assert abs(b1["ratio_inclusive"] - 1.0) <= 0.02
        assert abs(b1["ratio_exclusive"] - 1.0) <= 0.02
        for r in rows:
            assert r["ratio_exclusive"] >= r["ratio_inclusive"]
            assert r["theory_exclusive"] >= r["theory_inclusive"]


class TestInfluenceTime:
    def test_trace_decays(self, tmp_path):
        code = run(
            "influence-time", "--init-count", 100, "--n-batches", 10,
            "--batch-size", 30, "--n-test", 80, "--seed", 2,
            "--out-dir", tmp_path,
        )
        assert code == 0
        rows = read_results(tmp_path / "influence_time.csv")
        assert len(rows) == 10
        assert rows[0]["mean_influence"] > rows[-1]["mean_influence"]

    def test_single_batch_single_row(self, tmp_path):
        code = run(
            "influence-time", "--init-count", 20, "--n-batches", 1,
            "--batch-size", 25, "--n-test", 40, "--out-dir", tmp_path,
        )
        assert code == 0
        assert len(read_results(tmp_path / "influence_time.csv")) == 1


class TestBench:
    def test_smoke(self, tmp_path):
        code = run(
            "bench", "--n-train", 60, "--n-test", 20, "--dims", "1,2",
            "--out-dir", tmp_path,
        )
        assert code == 0
        rows = read_results(tmp_path / "bench.csv")
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"exact-refit", "second-order"}

    def test_ridge_is_not_an_option(self, tmp_path, capsys):
        # bench times plain least squares; a --ridge it would ignore is refused.
        with pytest.raises(SystemExit) as info:
            run("bench", "--ridge", 0.5, "--n-train", 60, "--dims", "1", "--out-dir", tmp_path)
        assert info.value.code == 2
        assert "--ridge" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.txt").exists()


class TestSimulate:
    def test_end_to_end_outputs(self, tmp_path):
        code = run(
            "simulate", "--n-agents", 120, "--p-truthful", 0.5,
            "--init-count", 20, "--batch-size", 20, "--n-test", 60,
            "--n-others", 30, "--br-trials", 40, "--seed", 11,
            "--out-dir", tmp_path,
        )
        assert code == 0
        ledger = read_results(tmp_path / "ledger.csv")
        assert len(ledger) == 120
        assert set(ledger[0]) == {
            "agent_id", "batch_index", "raw_influence", "corrected_score", "payment"
        }
        summary = read_results(tmp_path / "simulation_summary.txt", fmt="key-value-summary")
        assert "mean_payment.truthful" in summary
        assert "truthful_threshold" in summary
        br = read_results(tmp_path / "best_response.csv")
        assert len(br) == 9

    def test_from_reports_mode(self, tmp_path):
        code = run(
            "simulate", "--n-agents", 150, "--p-truthful", 0.6,
            "--test-mode", "from-reports", "--init-count", 20,
            "--batch-size", 25, "--n-test", 30, "--n-others", 30,
            "--br-trials", 30, "--seed", 4, "--out-dir", tmp_path,
        )
        assert code == 0
        # 30 reports held out for testing
        assert len(read_results(tmp_path / "ledger.csv")) == 120

    def test_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            run(
                "simulate", "--n-agents", 80, "--init-count", 20,
                "--batch-size", 20, "--n-test", 40, "--n-others", 25,
                "--br-trials", 20, "--seed", 8, "--out-dir", tmp_path / sub,
            )
            outs.append(read_results(tmp_path / sub / "ledger.csv"))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["approx-error", "batch-ratio", "influence-time"])
@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_exit_with_one_error_line(command, trials, tmp_path, capsys):
    code = run(command, "--trials", trials, "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"--trials must be at least 1, got {trials}" in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("batch-ratio", "--batch-sizes", "1,x"),
        ("bench", "--dims", "1,q"),
        ("simulate", "--deviation-grid", "1,abc"),
    ],
)
def test_bad_number_list_exits_with_one_error_line(argv, tmp_path, capsys):
    code = run(*argv, "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert argv[1] in err[0] and repr(argv[2]) in err[0]


@pytest.mark.parametrize("grid", ["nan,0,1,2", "inf,0,1", "0,-inf,1", "0,1", "0,1,1,0", "2"])
def test_bad_deviation_grid_exits_before_any_work(grid, tmp_path, capsys):
    code = run("simulate", "--deviation-grid", grid, "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "--deviation-grid needs at least 3 distinct finite deviations" in err[0]
    assert not list(tmp_path.iterdir())


def test_nan_payment_scale_exits_with_one_error_line(tmp_path, capsys):
    code = run("simulate", "--alpha", "nan", "--out-dir", tmp_path)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == "error: payment_scale must be positive and finite"
    assert not list(tmp_path.iterdir())
