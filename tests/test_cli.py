"""CLI adapters: golden comparisons against direct library calls, exit codes."""

import json
import math
import warnings

import numpy as np
import pytest

import diffdag as dd
from diffdag.cli import main
from helpers import mixed_label_pair, random_sem

POP = dd.PipelineConfig(estimator="population")

# generator settings that are now the sem constants
REMOVED_GENERATOR_KEYS = [
    ("weight_range", [0.25, 1.0]), ("noise_var_range", [0.8, 1.2]), ("max_retries", 1000),
]


def _write_pair(tmp_path, seed=3, p=5):
    sem1, sem2, delta = dd.generate_sem_pair(dd.SemPairGenConfig(p=p, seed=seed))
    a, b = tmp_path / "sem1.json", tmp_path / "sem2.json"
    dd.save_sem(sem1, a)
    dd.save_sem(sem2, b)
    return sem1, sem2, delta, str(a), str(b)


def _write_mixed_label_pair(tmp_path):
    sem1, sem2, edges = mixed_label_pair()
    a, b = tmp_path / "sem1.json", tmp_path / "sem2.json"
    dd.save_sem(sem1, a)
    dd.save_sem(sem2, b)
    return edges, str(a), str(b)


class TestBound:
    def test_prints_threshold(self, capsys):
        assert main(["bound", "--p", "32", "--d", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.log(8.0) - math.log(2.0) / 16.0, abs=1e-12)

    def test_domain_error_exit_one(self, capsys):
        assert main(["bound", "--p", "3", "--d", "2"]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_writes_artifacts_deterministically(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["generate", "--p", "6", "--seed", "5", "--output-dir", str(out)]) == 0
        for name in ("sem1.json", "sem2.json", "true_delta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_matches_direct_library_call(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--p", "6", "--seed", "5", "--output-dir", str(out)]) == 0
        sem1, _, delta = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=5))
        loaded = dd.load_sem(out / "sem1.json")
        np.testing.assert_array_equal(loaded.b, sem1.b)
        assert json.loads((out / "true_delta.json").read_text()) == delta.to_json()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"p": 6, "seed": 1, "min_delta_omega": 0.25}))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--seed", "5",
                     "--output-dir", str(out)]) == 0
        sem1, _, _ = dd.generate_sem_pair(dd.SemPairGenConfig(p=6, seed=5))
        np.testing.assert_array_equal(dd.load_sem(out / "sem1.json").b, sem1.b)

    def test_requires_p(self, capsys):
        assert main(["generate"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"p": 5.5}, "p must be an integer, got 5.5"),
        ({"p": 5, "seed": -1}, "seed must be at least 0, got -1"),
        ({"p": 5, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"p": 1}, "p must be at least 2, got 1"),
    ], ids=["fractional-p", "negative-seed", "fractional-seed", "p-one"])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(entry))
        assert main(["generate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_min_delta_omega_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--p", "5", "--seed", "1", "--min-delta-omega", value,
                  "--output-dir", str(out)])
        assert exc.value.code == 2
        assert f"must be finite and non-negative, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", REMOVED_GENERATOR_KEYS,
                             ids=[key for key, _ in REMOVED_GENERATOR_KEYS])
    def test_removed_setting_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"p": 6, key: value}))
        assert main(["generate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert "unexpected keyword argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunPipeline:
    def test_identical_sems_empty_delta(self, tmp_path, capsys):
        sem = random_sem(np.random.default_rng(0), 5)
        path = tmp_path / "sem.json"
        dd.save_sem(sem, path)
        out = tmp_path / "out"
        code = main([
            "run-pipeline",
            "--sem1", str(path), "--sem2", str(path),
            "--output-dir", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "pipeline.json").read_text())
        assert payload["edges"] == []
        assert sorted(payload["invariant"]) == sorted(sem.labels)

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "1,2\n3\n", "1,nan\n3,4\n"],
                             ids=["not-a-number", "ragged-row", "nan-cell"])
    def test_malformed_data_file_is_a_domain_error_naming_the_file(self, tmp_path, capsys, text):
        bad, good = tmp_path / "bad.csv", tmp_path / "x2.csv"
        bad.write_text(text)
        dd.save_data_csv(np.random.default_rng(0).standard_normal((4, 2)), good)
        assert main(["run-pipeline", "--data1", str(bad), "--data2", str(good),
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_mixed_type_labels_write_the_traced_result(self, tmp_path):
        edges, a, b = _write_mixed_label_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["run-pipeline", "--sem1", a, "--sem2", b, "--trace",
                     "--output-dir", str(out)]) == 0
        payload = json.loads((out / "pipeline.json").read_text())
        assert {tuple(e) for e in payload["edges"]} == edges
        assert payload["trace"][0]["labels"] == ["a", 1, 2, 3, 4]

    def test_population_matches_library(self, tmp_path):
        sem1, sem2, delta, a, b = _write_pair(tmp_path, seed=13, p=6)
        out = tmp_path / "out"
        assert main(["run-pipeline", "--sem1", a, "--sem2", b,
                     "--output-dir", str(out)]) == 0
        payload = json.loads((out / "pipeline.json").read_text())
        cov = dd.CovariancePair.from_sems(sem1, sem2)
        direct = dd.run_pipeline(cov, dd.PipelineConfig(estimator="population")).to_json()
        del direct["trace"]
        assert payload == direct

    def test_trace_only_with_the_flag(self, tmp_path):
        sem1, sem2, _, a, b = _write_pair(tmp_path, seed=1, p=10)
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        for out, flags in ((plain, []), (traced, ["--trace"])):
            assert main(["run-pipeline", "--sem1", a, "--sem2", b,
                         "--output-dir", str(out), *flags]) == 0
        without = json.loads((plain / "pipeline.json").read_text())
        assert sorted(without) == ["edges", "invariant", "layers"]
        payload = json.loads((traced / "pipeline.json").read_text())
        direct = dd.run_pipeline(dd.CovariancePair.from_sems(sem1, sem2), POP).to_json()
        assert payload == {**without, "trace": direct["trace"]}
        assert [entry["stage"] for entry in payload["trace"]] == [
            "estimate_full", "invariant_vertices", "order_layer", "orient_edges",
            *["prune_test"] * 3, "prune_remove",
            *["prune_test"] * 3, "prune_remove",
            *["prune_test"] * 4,
        ]

    @pytest.mark.parametrize("mode", ["population", "data"])
    def test_pipeline_json_is_the_library_result_written(self, tmp_path, mode):
        # the data run re-estimates between peels, so its trace also holds
        # order_estimate deltas
        sem1, sem2, _, a, b = _write_pair(tmp_path, seed=3, p=10)
        if mode == "population":
            inputs = ["--sem1", a, "--sem2", b]
            cov, cfg = dd.CovariancePair.from_sems(sem1, sem2), POP
        else:
            d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
            dd.save_data_csv(dd.sample(sem1, 2000, seed=4), d1)
            dd.save_data_csv(dd.sample(sem2, 2000, seed=5), d2)
            inputs = ["--data1", str(d1), "--data2", str(d2), "--lambda-auto"]
            cov = dd.CovariancePair.from_data(dd.load_data_csv(d1), dd.load_data_csv(d2))
            cfg = dd.PipelineConfig(estimator="dantzig", est_cfg=dd.EstimatorConfig(lambda_auto=True))
        payload = dd.run_pipeline(cov, cfg).to_json()
        if mode == "data":
            assert "order_estimate" in {entry["stage"] for entry in payload["trace"]}
        untraced = {key: value for key, value in payload.items() if key != "trace"}
        for flags, expected in (([], untraced), (["--trace"], payload)):
            out = tmp_path / f"out{len(flags)}"
            assert main(["run-pipeline", *inputs, *flags, "--output-dir", str(out)]) == 0
            assert (out / "pipeline.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command, flags", [
        ("run-pipeline", ["--data1", "x.csv", "--data2", "y.csv", "--lambda", "5", "--lambda-auto"]),
        ("run-pipeline", ["--lambda", "5"]),
        ("estimate-delta", ["--lambda-auto"]),
    ], ids=["lambda-and-auto", "population-lambda", "population-auto"])
    def test_radius_flags_the_estimator_would_ignore_are_usage_errors(
        self, tmp_path, command, flags
    ):
        _, _, _, a, b = _write_pair(tmp_path)
        sems = [] if "--data1" in flags else ["--sem1", a, "--sem2", b]
        with pytest.raises(SystemExit) as exc:
            main([command, *sems, *flags, "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, epsilon", [
        ([], 0.125), (["--epsilon", "0"], 0.0), (["--epsilon", "0.3"], 0.3),
    ], ids=["default", "zero", "explicit"])
    def test_population_check_reads_epsilon(self, tmp_path, monkeypatch, flags, epsilon):
        seen = []
        real = dd.check_assumptions

        def recording(sem1, sem2, eps, *args):
            seen.append(eps)
            return real(sem1, sem2, eps, *args)

        monkeypatch.setattr("diffdag.cli.check_assumptions", recording)
        _, _, _, a, b = _write_pair(tmp_path)
        assert main(["run-pipeline", "--sem1", a, "--sem2", b, *flags,
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert seen == [epsilon]

    def test_population_reads_each_sem_file_once(self, tmp_path, monkeypatch):
        read = []
        real = dd.load_sem

        def counting(path):
            read.append(path)
            return real(path)

        monkeypatch.setattr("diffdag.cli.load_sem", counting)
        _, _, _, a, b = _write_pair(tmp_path)
        assert main(["run-pipeline", "--sem1", a, "--sem2", b,
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert read == [a, b]

    @pytest.mark.parametrize("command", ["run-pipeline", "estimate-delta"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_lambda_is_usage_error(self, tmp_path, capsys, command, value):
        sem1, sem2, _, _, _ = _write_pair(tmp_path, seed=1, p=6)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(dd.sample(sem1, 200, seed=1), d1)
        dd.save_data_csv(dd.sample(sem2, 200, seed=2), d2)
        with pytest.raises(SystemExit) as exc:
            main([command, "--data1", str(d1), "--data2", str(d2), "--lambda", value,
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"must be finite and non-negative, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run-pipeline", "estimate-delta"])
    def test_negative_epsilon_is_usage_error(self, tmp_path, command):
        _, _, _, a, b = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--sem1", a, "--sem2", b, "--epsilon", "-1",
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, population", [
        ("estimate-delta", True), ("estimate-delta", False), ("run-pipeline", False),
    ], ids=["estimate-population", "estimate-data", "pipeline-data"])
    @pytest.mark.parametrize("value", ["0", "-0"])
    def test_zero_epsilon_that_thresholds_is_usage_error(
        self, tmp_path, capsys, command, population, value
    ):
        sem1, sem2, _, a, b = _write_pair(tmp_path)
        if population:
            inputs = ["--sem1", a, "--sem2", b]
        else:
            d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
            dd.save_data_csv(dd.sample(sem1, 200, seed=1), d1)
            dd.save_data_csv(dd.sample(sem2, 200, seed=2), d2)
            inputs = ["--data1", str(d1), "--data2", str(d2), "--lambda-auto"]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--epsilon", value, "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--epsilon thresholds the estimate and must be positive, got" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_data_inputs_use_l1_estimator(self, tmp_path):
        sem1, sem2, _, _, _ = _write_pair(tmp_path, seed=2, p=5)
        x1 = dd.sample(sem1, 400, seed=1)
        x2 = dd.sample(sem2, 400, seed=2)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(x1, d1)
        dd.save_data_csv(x2, d2)
        out = tmp_path / "out"
        code = main([
            "run-pipeline", "--data1", str(d1), "--data2", str(d2),
            "--lambda-auto", "--epsilon", "0.125", "--output-dir", str(out),
        ])
        assert code == 0
        assert (out / "pipeline.json").exists()

    def test_spent_prune_budget_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        _, _, delta, a, b = _write_pair(tmp_path)
        assert delta.edges  # so prune has an edge to test
        monkeypatch.setattr(dd.pipeline, "PRUNE_BUDGET", 0)
        out = tmp_path / "out"
        assert main(["run-pipeline", "--sem1", a, "--sem2", b, "--output-dir", str(out)]) == 1
        assert "error: prune budget 0 spent: 0 distinct estimates made" in capsys.readouterr().err
        assert not (out / "pipeline.json").exists()

    def test_strict_with_data_inputs_is_usage_error(self, tmp_path, capsys):
        # --strict acts on the assumption check, which only SEM inputs get
        sem1, sem2, _, _, _ = _write_pair(tmp_path)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(dd.sample(sem1, 200, seed=1), d1)
        dd.save_data_csv(dd.sample(sem2, 200, seed=2), d2)
        with pytest.raises(SystemExit) as exc:
            main(["run-pipeline", "--data1", str(d1), "--data2", str(d2), "--lambda-auto",
                  "--strict", "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--strict fails the run on the assumption check" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run-pipeline", "estimate-delta"])
    def test_population_flag_is_unrecognized(self, tmp_path, capsys, command):
        # the inputs pick the estimator: SEM files are solved exactly
        _, _, _, a, b = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--population", "--sem1", a, "--sem2", b,
                  "--output-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --population" in capsys.readouterr().err

    def test_mixed_inputs_rejected(self, tmp_path):
        _, _, _, a, b = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run-pipeline", "--sem1", a, "--sem2", b,
                  "--data1", "x.csv", "--data2", "y.csv"])
        assert exc.value.code == 2


class TestEstimateDelta:
    def test_population_golden_against_library(self, tmp_path):
        sem1, sem2, _, a, b = _write_pair(tmp_path, seed=7, p=5)
        out = tmp_path / "out"
        assert main(["estimate-delta", "--sem1", a, "--sem2", b,
                     "--output-dir", str(out)]) == 0
        payload = json.loads((out / "delta.json").read_text())
        direct = dd.estimate(dd.CovariancePair.from_sems(sem1, sem2), POP)
        assert payload == direct.to_json()

    def test_population_support_is_the_exact_difference_support(self, tmp_path, capsys):
        # rounding noise of the exact solve (around 1e-15) is not support
        sem1, sem2, _, a, b = _write_pair(tmp_path, seed=0, p=10)
        out = tmp_path / "out"
        assert main(["estimate-delta", "--sem1", a, "--sem2", b,
                     "--output-dir", str(out)]) == 0
        truth = np.abs(dd.precision(sem1) - dd.precision(sem2)) > 1e-6
        matrix = np.array(json.loads((out / "delta.json").read_text())["matrix"])
        np.testing.assert_array_equal(matrix != 0.0, truth)
        assert f"({truth.sum()} nonzero entries)" in capsys.readouterr().out

    def test_data_golden_against_library(self, tmp_path):
        sem1, sem2, _, _, _ = _write_pair(tmp_path, seed=13, p=5)
        x1, x2 = dd.sample(sem1, 300, seed=4), dd.sample(sem2, 300, seed=5)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(x1, d1)
        dd.save_data_csv(x2, d2)
        out = tmp_path / "out"
        assert main(["estimate-delta", "--data1", str(d1), "--data2", str(d2),
                     "--lambda", "0.2", "--epsilon", "0.125",
                     "--output-dir", str(out)]) == 0
        payload = json.loads((out / "delta.json").read_text())
        cov = dd.CovariancePair.from_data(dd.load_data_csv(d1), dd.load_data_csv(d2))
        direct = dd.estimate_dantzig(cov, dd.EstimatorConfig(lambda_n=0.2, epsilon=0.125))
        assert payload == direct.to_json()

    def test_fewer_samples_than_variables_is_a_domain_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(rng.standard_normal((6, 10)), d1)
        dd.save_data_csv(rng.standard_normal((50, 10)), d2)
        assert main(["estimate-delta", "--data1", str(d1), "--data2", str(d2),
                     "--lambda-auto", "--output-dir", str(tmp_path / "out")]) == 1
        assert "n1=6 samples are fewer than the p=10 variables" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mismatched_column_counts_are_a_domain_error_naming_both_shapes(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        d1, d2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        dd.save_data_csv(rng.standard_normal((50, 4)), d1)
        dd.save_data_csv(rng.standard_normal((50, 3)), d2)
        assert main(["estimate-delta", "--data1", str(d1), "--data2", str(d2),
                     "--lambda-auto", "--output-dir", str(tmp_path / "out")]) == 1
        assert "got shapes (50, 4) and (50, 3)" in capsys.readouterr().err

    def test_empty_data_file_is_a_domain_error_naming_the_file(self, tmp_path, capsys):
        d1, d2 = tmp_path / "empty.csv", tmp_path / "x2.csv"
        d1.write_text("")
        dd.save_data_csv(np.random.default_rng(0).standard_normal((4, 3)), d2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's no-data warning would raise
            assert main(["estimate-delta", "--data1", str(d1), "--data2", str(d2),
                         "--lambda-auto", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {d1}: the data file has no rows\n"


class TestCheckAssumptions:
    def _planted(self, tmp_path):
        b1 = np.zeros((3, 3))
        b1[1, 0] = 0.6
        b1[2, 0] = 1.0
        b1[2, 1] = 0.6
        b2 = np.zeros((3, 3))
        b2[2, 0] = 1.0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dd.save_sem(dd.Sem(b1, np.ones(3)), a)
        dd.save_sem(dd.Sem(b2, np.ones(3)), b)
        return str(a), str(b)

    def test_passing_pair_exit_zero(self, tmp_path, capsys):
        _, _, _, a, b = _write_pair(tmp_path, seed=3)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_mixed_type_labels_print_the_report(self, tmp_path, capsys):
        edges, a, b = _write_mixed_label_pair(tmp_path)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert {tuple(e) for e in payload["delta_edges"]} == edges

    def test_failing_pair_advisory_by_default(self, tmp_path, capsys):
        a, b = self._planted(tmp_path)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False

    def test_failing_pair_strict_exit_one(self, tmp_path, capsys):
        a, b = self._planted(tmp_path)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b, "--strict"]) == 1

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bad_epsilon_is_usage_error(self, tmp_path, capsys, epsilon):
        _, _, _, a, b = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check-assumptions", "--sem1", a, "--sem2", b, "--epsilon", epsilon])
        assert exc.value.code == 2
        assert f"must be finite and non-negative, got {epsilon}" in capsys.readouterr().err

    def test_zero_epsilon_is_accepted(self, tmp_path, capsys):
        a, b = self._planted(tmp_path)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b, "--epsilon", "0",
                     "--strict"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_models_with_opposite_orders_are_a_domain_error(self, tmp_path, capsys):
        # 1 <- 0 in one model and 0 <- 1 in the other: the difference holds a cycle
        b1, b2 = np.zeros((2, 2)), np.zeros((2, 2))
        b1[1, 0], b2[0, 1] = 0.5, 0.5
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dd.save_sem(dd.Sem(b1, np.ones(2)), a)
        dd.save_sem(dd.Sem(b2, np.ones(2)), b)
        assert main(["check-assumptions", "--sem1", str(a), "--sem2", str(b)]) == 1
        assert capsys.readouterr().err == "error: edge support contains a directed cycle\n"

    def test_sem_file_holding_a_list_is_a_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[[0.0]]")
        assert main(["check-assumptions", "--sem1", str(bad), "--sem2", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: a SEM file holds a JSON object, not a list\n"

    def test_sem_file_missing_a_field_is_a_domain_error_naming_it(self, tmp_path, capsys):
        _, _, _, a, b = _write_pair(tmp_path)
        with open(a) as fh:
            obj = json.load(fh)
        del obj["b"]
        with open(a, "w") as fh:
            json.dump(obj, fh)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b]) == 1
        assert capsys.readouterr().err == f"error: {a}: missing field 'b'\n"

    @pytest.mark.parametrize("field, value, problem", [
        ("p", 9, "field 'p' is 9, but 'b' is 5 x 5"),
        ("p", "x", "field 'p' must be an integer, got 'x'"),
        ("b", "NaN", "NaN is not a finite number"),
        ("noise_vars", "Infinity", "Infinity is not a finite number"),
    ], ids=["p-mismatch", "p-not-integer", "nan", "infinity"])
    def test_sem_file_with_a_bad_value_is_a_domain_error_naming_it(
        self, tmp_path, capsys, field, value, problem
    ):
        _, _, _, a, b = _write_pair(tmp_path)
        with open(a) as fh:
            obj = json.load(fh)
        if field == "p":
            obj["p"] = value
        else:
            obj[field][0] = float(value)  # json writes it as the bare constant
        with open(a, "w") as fh:
            json.dump(obj, fh)
        assert main(["check-assumptions", "--sem1", a, "--sem2", b]) == 1
        assert capsys.readouterr().err == f"error: {a}: {problem}\n"


class TestSweep:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        cfg = {
            "p_values": [5],
            "c_values": [5],
            "repetitions": 2,
            "gen": {"p": 5},
            "pipeline": {"estimator": "dantzig", "est_cfg": {"lambda_auto": True}},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["sweep", "--config", str(cfg_path), "--seed", "7",
                         "--output-dir", str(out)]) == 0
        for name in ("records.csv", "summary.json", "plot.tsv", "table.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["sweep", "--config", str(bad)]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p_values": [5], "nope": 1}))
        assert main(["sweep", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("pipeline", [
        {"record_trace": True},
        {"prune_subset_cap": 12},
        {"est_cfg": {"solver_tol": 1e-7}},
        {"est_cfg": {"max_iter": 50000}},
        {"est_cfg": {"lambda_delta": 0.05}},
        {"est_cfg": {"lambda_scale": 1.0}},
    ], ids=["record_trace", "prune_subset_cap", "solver_tol", "max_iter", "lambda_delta",
            "lambda_scale"])
    def test_removed_setting_is_usage_error(self, tmp_path, capsys, pipeline):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p_values": [5], "c_values": [5], "repetitions": 1,
                                   "gen": {"p": 5}, "pipeline": pipeline}))
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "unexpected keyword argument" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED_GENERATOR_KEYS,
                             ids=[key for key, _ in REMOVED_GENERATOR_KEYS])
    def test_removed_generator_setting_is_usage_error(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p_values": [5], "c_values": [5], "repetitions": 1,
                                   "gen": {"p": 5, key: value}}))
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "unexpected keyword argument" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        '"pipeline": {"estimator": "dantzig", "est_cfg": {"epsilon": NaN}}',
        '"pipeline": {"estimator": "dantzig", "est_cfg": {"lambda_n": Infinity}}',
        '"gen": {"p": 5, "min_delta_omega": NaN}',
    ], ids=["epsilon", "lambda_n", "min_delta_omega"])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, entry):
        # json reads NaN and Infinity; a config file may not hold them
        bad = tmp_path / "bad.json"
        bad.write_text('{"p_values": [5], "c_values": [5], "repetitions": 1, ' + entry + "}")
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("entry, message", [
        ({"pipeline": {"estimator": "dantzig", "est_cfg": {"lambda_auto": "false"}}},
         "lambda_auto must be true or false, got 'false'"),
        ({"p_values": [5.7]}, "p_values entry must be an integer, got 5.7"),
        ({"c_values": [5.5]}, "c_values entry must be an integer, got 5.5"),
        ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
        ({"repetitions": True}, "repetitions must be an integer, got True"),
        ({"repetitions": 0}, "repetitions must be at least 1, got 0"),
        ({"fixed_n": 5.5}, "fixed_n must be an integer, got 5.5"),
        ({"seed_base": -1}, "seed_base must be at least 0, got -1"),
        ({"seed_base": 1.5}, "seed_base must be an integer, got 1.5"),
        # a bool is not a real setting: "epsilon": true would run at epsilon 1
        ({"pipeline": {"estimator": "dantzig", "est_cfg": {"epsilon": True}}},
         "epsilon must be a real number, got True"),
        ({"gen": {"p": 5, "min_delta_omega": True}}, "min_delta_omega must be a real number, got True"),
    ], ids=["lambda_auto-string", "p_values-fraction", "c_values-fraction",
            "repetitions-fraction", "repetitions-bool", "repetitions-zero", "fixed_n-fraction",
            "seed_base-negative", "seed_base-fraction", "epsilon-bool", "min_delta_omega-bool"])
    def test_config_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, entry, message):
        cfg = {"p_values": [5], "c_values": [5], "repetitions": 1, "gen": {"p": 5}, **entry}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fixed_radius_with_auto_radius_is_usage_error(self, tmp_path, capsys):
        # --lambda and --lambda-auto exclude each other; so do the config's fields
        est_cfg = {"lambda_n": 0.5, "lambda_auto": True}
        cfg = {"p_values": [5], "c_values": [5], "repetitions": 1,
               "pipeline": {"estimator": "dantzig", "est_cfg": est_cfg}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "lambda_n=0.5 and lambda_auto both set the radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("est_cfg", [{"epsilon": 0.3}, {"lambda_auto": True}],
                             ids=["epsilon", "lambda_auto"])
    def test_est_cfg_the_population_estimator_would_ignore_is_usage_error(
        self, tmp_path, capsys, est_cfg
    ):
        # a setting the run would drop is a usage error, as a flag it would ignore is
        cfg = {"p_values": [5], "c_values": [5], "repetitions": 1, "gen": {"p": 5},
               "pipeline": {"estimator": "population", "est_cfg": est_cfg}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        assert "the population estimator reads no est_cfg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
