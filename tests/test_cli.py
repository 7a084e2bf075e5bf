import json

import numpy as np
import pytest

from lqlearn import cli
from lqlearn.config import preset_file, read_json
from lqlearn.errors import DivergedError

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def single_sensor_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "system": {
                "A": [[0.2, 0.0], [0.0, 0.6]],
                "A_bar": [[0.7, 0.0], [0.0, 0.8]],
                "B": [[0.7], [0.3]],
                "B_bar": [[0.1], [0.7]],
                "Q": [[0.4, 0.0], [0.0, 0.7]],
                "R": 1.0,
            },
            "noise": {"mu": 1.0, "sigma2": 0.1},
            "schedule": {"exponent": 0.6, "offset": 2},
            "graph": "single",
            "rounds": 50,
            "seeds": [0],
        },
    )


class TestCmdOracle:
    def test_benchmark_preset(self, tmp_path):
        assert run_cli("oracle", "--preset", "paper_sec4", "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["residual"] <= 1e-10
        assert payload["stable"] is True
        assert payload["spectral_radius"] < 1.0
        assert payload["riccati_residual"] <= 1e-8

    def test_scalar_preset_golden_ratio(self, tmp_path):
        assert run_cli("oracle", "--preset", "scalar_deterministic",
                       "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["P"][0][0] == pytest.approx(GOLDEN, abs=1e-10)

    def test_zero_dynamics_preset(self, tmp_path):
        assert run_cli("oracle", "--preset", "zero_dynamics",
                       "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert np.asarray(payload["G_star"]) == pytest.approx(np.eye(3))

    def test_nan_matrix_entry_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            '{"system": {"A": [[NaN]], "A_bar": 0.0, "B": 1.0, "B_bar": 0.0,'
            ' "Q": 1.0, "R": 1.0}, "noise": {"mu": 0.0, "sigma2": 0.0},'
            ' "graph": "single", "seeds": 1}'
        )
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 2
        assert "system.A[0][0] must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "oracle.json").exists()

    def test_overflowing_matrix_entry_exit_code(self, tmp_path, capsys):
        # An integer literal beyond float range is not a finite number.
        config = tmp_path / "config.json"
        config.write_text(
            '{"system": {"A": [[1' + "0" * 400 + ']], "A_bar": 0.0, "B": 1.0,'
            ' "B_bar": 0.0, "Q": 1.0, "R": 1.0}, "noise": {"mu": 0.0,'
            ' "sigma2": 0.0}, "graph": "single", "seeds": 1}'
        )
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 2
        assert "system.A[0][0] must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "oracle.json").exists()

    def test_overlong_integer_literal_exit_code(self, tmp_path):
        # Pythons that cap int() at 4300 digits fail in json.loads; others
        # reach from_dict, which rejects the entry as not finite.
        config = tmp_path / "config.json"
        config.write_text(
            '{"system": {"A": [[1' + "0" * 5000 + ']], "A_bar": 0.0, "B": 1.0,'
            ' "B_bar": 0.0, "Q": 1.0, "R": 1.0}, "noise": {"mu": 0.0,'
            ' "sigma2": 0.0}, "graph": "single", "seeds": 1}'
        )
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 2
        assert not (tmp_path / "oracle.json").exists()

    def test_oracle_failure_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "system": {"A": 2.0, "A_bar": 0.0, "B": 0.0, "B_bar": 0.0,
                           "Q": 1.0, "R": 1.0},
                "noise": {"mu": 0.0, "sigma2": 0.0},
                "graph": "single",
                "oracle": {"max_iter": 50},
                "seeds": 1,
            },
        )
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 4

    @pytest.mark.parametrize("command", ["run", "validate-controller"])
    def test_oracle_failure_exit_code_of_every_command(self, tmp_path, command,
                                                       capsys):
        config = write_config(
            tmp_path,
            {
                "system": {"A": 2.0, "A_bar": 0.0, "B": 0.0, "B_bar": 0.0,
                           "Q": 1.0, "R": 1.0},
                "noise": {"mu": 0.0, "sigma2": 0.0},
                "graph": "single",
                "oracle": {"max_iter": 50},
                "seeds": 1,
            },
        )
        G = [[1.0, 0.0], [0.0, 1.0]]
        summary = {"seeds": [0], "runs": [{"seed": 0, "status": "ok",
                                           "centralized": {"final_G_mean": G}}]}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert run_cli(command, "--config", config, "--out", tmp_path) == 4
        assert "oracle failed" in capsys.readouterr().err


class TestCmdRun:
    def test_distributed_row_count(self, tmp_path):
        code = run_cli("run", "--preset", "paper_sec4", "--mode", "distributed",
                       "--seeds", "1", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "seed_0000" / "trace.csv").read_text().splitlines()
        assert lines[0] == ("k,sensor_id,alpha,omega,norm1_G,"
                            "fro_err_to_Gstar,consensus_diameter")
        assert len(lines) == 1 + 4 * 200
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["runs"][0]["status"] == "ok"
        assert (tmp_path / "seed_0000" / "plots" /
                "norm1_G_distributed.svg").exists()
        assert (tmp_path / "seed_0000" / "plots" /
                "fro_err_distributed.svg").exists()

    def test_single_iteration_single_row(self, tmp_path):
        code = run_cli("run", "--preset", "paper_sec4", "--mode", "centralized",
                       "--seeds", "1", "--rounds", "1", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "seed_0000" / "trace.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_both_modes_identical_for_single_sensor(self, tmp_path):
        config = single_sensor_config(tmp_path)
        code = run_cli("run", "--config", config, "--mode", "both",
                       "--out", tmp_path / "out")
        assert code == 0
        seed_dir = tmp_path / "out" / "seed_0000"
        cent = (seed_dir / "trace_centralized.csv").read_bytes()
        dist = (seed_dir / "trace_distributed.csv").read_bytes()
        assert cent == dist

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli("run", "--preset", "paper_sec4", "--mode",
                           "distributed", "--seeds", "1", "--rounds", "60",
                           "--out", tmp_path / sub)
            assert code == 0
        a = (tmp_path / "a" / "seed_0000" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "seed_0000" / "trace.csv").read_bytes()
        assert a == b

    def test_validation_error_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "system": {"A": 1.0, "A_bar": 0.0, "B": 1.0, "B_bar": 0.0,
                           "Q": 1.0, "R": 0.0},
                "noise": {"mu": 0.0, "sigma2": 0.0},
                "graph": "ring:4",
                "seeds": 1,
            },
        )
        assert run_cli("run", "--config", config, "--out", tmp_path) == 2

    @pytest.mark.parametrize(
        "source, bad",
        [
            (("--seeds", "1,-3"), -3),
            (("--seeds", f"0,{2**64}"), 2**64),
            ({"seeds": [-1]}, -1),
            ({"seeds": [2**64]}, 2**64),
        ],
    )
    def test_out_of_range_seed_exit_code(self, tmp_path, capsys, source, bad):
        if isinstance(source, dict):
            config = json.loads(single_sensor_config(tmp_path).read_text())
            source = ("--config", write_config(tmp_path, {**config, **source}))
        else:
            source = ("--preset", "paper_sec4", *source)
        assert run_cli("run", *source, "--out", tmp_path / "out") == 2
        assert f"seed {bad} is outside [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("source", [("--seeds", "1,1"), {"seeds": [1, 1]}])
    def test_repeated_seed_exit_code(self, tmp_path, capsys, source):
        if isinstance(source, dict):
            config = json.loads(single_sensor_config(tmp_path).read_text())
            source = ("--config", write_config(tmp_path, {**config, **source}))
        else:
            source = ("--preset", "paper_sec4", *source)
        assert run_cli("run", *source, "--out", tmp_path / "out") == 2
        assert "seed 1 is listed 2 times" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_zero_rounds_override_exit_code(self, tmp_path, capsys):
        assert run_cli("run", "--preset", "paper_sec4", "--rounds", "0",
                       "--out", tmp_path) == 2
        assert "rounds must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("source", [("--seeds", str(2**64)),
                                        {"seeds": 2**64}])
    def test_oversized_seed_count_exit_code(self, tmp_path, capsys, source):
        if isinstance(source, dict):
            config = json.loads(single_sensor_config(tmp_path).read_text())
            source = ("--config", write_config(tmp_path, {**config, **source}))
        else:
            source = ("--preset", "paper_sec4", *source)
        assert run_cli("run", *source, "--out", tmp_path / "out") == 2
        assert "seeds must be a count in [1, " in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_malformed_seeds_override_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("run", "--preset", "paper_sec4", "--seeds", "1,x",
                    "--out", tmp_path)
        assert info.value.code == 2
        assert "argument --seeds: must be a count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, violation",
        [
            ("oracle", {"noise": {"mu": "nan", "sigma2": 0.1}},
             "noise.mu must be a number, got 'nan'"),
            ("run", {"init": "spread", "spread_scale": "nan"},
             "spread_scale must be a number, got 'nan'"),
        ],
        ids=["oracle-noise.mu", "run-spread_scale"],
    )
    def test_string_number_exit_code(self, tmp_path, capsys, command, overrides,
                                     violation):
        data = json.loads(single_sensor_config(tmp_path).read_text())
        config = write_config(tmp_path, {**data, **overrides})
        assert run_cli(command, "--config", config, "--out", tmp_path) == 2
        assert violation in capsys.readouterr().err

    def test_all_diverged_exit_code(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise DivergedError("boom", step=3)

        monkeypatch.setattr(cli, "run_distributed", explode)
        code = run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--out", tmp_path / "all")
        assert code == 3
        summary = json.loads((tmp_path / "all" / "summary.json").read_text())
        assert summary["runs"][0] == {
            "seed": 0, "status": "diverged", "kind": "distributed", "round": 3,
        }

    def test_diverged_seed_names_learner_sensor_and_norm(self, tmp_path):
        # Masked gains on the preset's ring:4 diverge within a few rounds,
        # while the centralized learner on the same seed does not.
        data = read_json(preset_file("paper_sec4"))
        data.update(gain_mode="masked", rounds=20, seeds=[0])
        out = tmp_path / "masked"
        code = run_cli("run", "--config", write_config(tmp_path, data),
                       "--mode", "both", "--out", out)
        assert code == 3
        entry = json.loads((out / "summary.json").read_text())["runs"][0]
        assert entry["status"] == "diverged"
        assert entry["kind"] == "distributed"
        assert "centralized" in entry and "distributed" not in entry
        assert 1 <= entry["round"] <= 20
        assert entry["sensor"] in range(4)
        assert entry["norm"] > 1e9

    def test_partial_divergence_exit_code(self, tmp_path, monkeypatch):
        real = cli.run_distributed

        def explode_for_seed_zero(sys, noise, graph, alloc, sched, rounds,
                                  rng, **kwargs):
            if rng.seed == 0:
                raise DivergedError("boom", step=7)
            return real(sys, noise, graph, alloc, sched, rounds, rng, **kwargs)

        monkeypatch.setattr(cli, "run_distributed", explode_for_seed_zero)
        code = run_cli("run", "--preset", "paper_sec4", "--seeds", "2",
                       "--rounds", "10", "--out", tmp_path / "part")
        assert code == 5
        summary = json.loads((tmp_path / "part" / "summary.json").read_text())
        statuses = {r["seed"]: r["status"] for r in summary["runs"]}
        assert statuses == {0: "diverged", 1: "ok"}


class TestCmdValidateController:
    def test_converged_run_reports_small_gap(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "scalar_deterministic", "--mode",
                       "centralized", "--rounds", "4000", "--out", out) == 0
        assert run_cli("validate-controller", "--preset",
                       "scalar_deterministic", "--out", out) == 0
        report = json.loads((out / "controller_report.json").read_text())
        assert report["gain_gap_fro"] < 1e-3
        assert report["stable"] is True
        assert report["monte_carlo_cost"]["std_err"] == 0.0
        assert report["monte_carlo_cost"]["mean"] == pytest.approx(
            report["oracle_value_x0"], abs=1e-6
        )

    def test_oracle_gain_itself_zero_gap(self, tmp_path):
        # Hand-written summary whose final estimate is the oracle G* itself.
        from lqlearn import load_preset, solve_oracle

        cfg = load_preset("paper_sec4")
        oracle = solve_oracle(cfg.system, cfg.noise)
        out = tmp_path / "out"
        out.mkdir()
        summary = {
            "schema_version": 1,
            "seeds": [0],
            "runs": [
                {
                    "seed": 0,
                    "status": "ok",
                    "distributed": {
                        "final_G_mean": oracle.G_star.mat.tolist()
                    },
                }
            ],
        }
        (out / "summary.json").write_text(json.dumps(summary))
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", out) == 0
        report = json.loads((out / "controller_report.json").read_text())
        assert report["gain_gap_fro"] <= 1e-12
        mc = report["monte_carlo_cost"]
        assert abs(mc["mean"] - report["oracle_value_x0"]) <= 3.0 * mc["std_err"]

    def test_short_run_large_gap_still_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--rounds", "5", "--out", out) == 0
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", out) == 0
        report = json.loads((out / "controller_report.json").read_text())
        assert report["gain_gap_fro"] > 1e-3

    def test_unstable_learned_gain_flagged_not_asserted(self, tmp_path):
        # A fabricated final estimate whose gain destabilizes the loop: the
        # report is still written, Monte Carlo is skipped, exit stays 0.
        out = tmp_path / "out"
        out.mkdir()
        bad_G = [[0.4, 0.0, -5.0], [0.0, 0.7, -5.0], [-5.0, -5.0, 1.0]]
        summary = {
            "schema_version": 1,
            "seeds": [0],
            "runs": [{"seed": 0, "status": "ok",
                      "distributed": {"final_G_mean": bad_G}}],
        }
        (out / "summary.json").write_text(json.dumps(summary))
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", out) == 0
        report = json.loads((out / "controller_report.json").read_text())
        assert report["stable"] is False
        assert report["monte_carlo_cost"] is None
        assert report["ms_spectral_radius"] >= 1.0

    def test_missing_run_dir(self, tmp_path):
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path / "nothing") == 2

    @pytest.mark.parametrize("text", ["{", "[]", '{"seeds": [0]}'])
    def test_malformed_summary_exit_code(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_text(text)
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path) == 2
        assert f"cannot read {tmp_path / 'summary.json'}" in capsys.readouterr().err
        assert not (tmp_path / "controller_report.json").exists()

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_final_estimate_exit_code(self, tmp_path, capsys, entry):
        # The summary is where a learned Q-factor re-enters the program, and
        # the only check between it and gamma_map.
        G = f"[[0.4, 0.0, -0.6], [0.0, 0.7, 0.5], [-0.6, 0.5, {entry}]]"
        (tmp_path / "summary.json").write_text(
            '{"seeds": [0], "runs": [{"seed": 0, "status": "ok", '
            f'"distributed": {{"final_G_mean": {G}}}}}]}}'
        )
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path) == 2
        assert "G must be finite" in capsys.readouterr().err
        assert not (tmp_path / "controller_report.json").exists()


class TestSvgPlots:
    def test_plots_carry_no_unique_data(self, tmp_path):
        # every plotted series value appears in the CSV
        out = tmp_path / "out"
        run_cli("run", "--preset", "paper_sec4", "--seeds", "1", "--rounds",
                "20", "--out", out)
        csv_text = (out / "seed_0000" / "trace.csv").read_text()
        svg = (out / "seed_0000" / "plots" / "norm1_G_distributed.svg").read_text()
        assert svg.count("<polyline") == 4
        assert "</svg>" in svg
