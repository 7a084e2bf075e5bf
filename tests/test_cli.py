import hashlib
import json
import logging
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from lqlearn import (
    RngStream,
    Schedule,
    allocate_gains,
    build_graph,
    cli,
    run_distributed,
    trace,
)
from lqlearn.config import preset_file, read_json
from lqlearn.errors import DivergedError
from lqlearn.svgplot import line_plot

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def read_strict_json(path):
    """path's JSON, failing on the NaN and Infinity tokens that Python's json
    reads and writes but JSON does not have."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def masked_config(tmp_path, offset):
    """The paper_sec4 preset with masked gains and the schedule offset."""
    data = read_json(preset_file("paper_sec4"))
    data.update(gain_mode="masked",
                schedule={**data["schedule"], "offset": offset})
    return write_config(tmp_path, data, name=f"masked{offset}.json")


def three_state_config(tmp_path):
    """paper_sec4 with a three-state, two-input plant (d = 5) and masked
    gains, so ring:4 has fewer sensors than coordinates."""
    data = read_json(preset_file("paper_sec4"))
    data.update(
        system={
            "A": [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]],
            "A_bar": [[0.2, 0.0, 0.1], [0.1, 0.2, 0.0], [0.0, 0.1, 0.2]],
            "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "B_bar": [[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]],
            "Q": np.eye(3).tolist(),
            "R": np.eye(2).tolist(),
        },
        gain_mode="masked",
        validation={**data["validation"], "x0": [1.0, 1.0, 1.0]},
    )
    return write_config(tmp_path, data, name="three_state.json")


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

    def test_nested_missing_out_dir_is_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert run_cli("oracle", "--preset", "paper_sec4", "--out", out) == 0
        assert (out / "oracle.json").is_file()

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

    def test_ragged_matrix_rows_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            '{"system": {"A": [[1, 0], [0]], "A_bar": 0.0, "B": 1.0,'
            ' "B_bar": 0.0, "Q": 1.0, "R": 1.0}, "noise": {"mu": 0.0,'
            ' "sigma2": 0.0}, "graph": "single", "seeds": 1}'
        )
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "system.A must be a row-major nested list of numbers with rows " \
               "of equal length (or a bare number), got [[1, 0], [0]]" in err
        assert "inhomogeneous" not in err
        assert not (tmp_path / "oracle.json").exists()

    def test_zero_length_matrix_rows_exit_code(self, tmp_path, capsys):
        # Each empty-rowed matrix is named, not a shape mismatch it causes
        # further on (here R against an input count of 0).
        data = json.loads(single_sensor_config(tmp_path).read_text())
        data["system"].update(B=[[], []], B_bar=[[], []])
        config = write_config(tmp_path, data)
        assert run_cli("oracle", "--config", config, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        for name in ("B", "B_bar"):
            assert f"system.{name} must be a row-major nested list of numbers " \
                   "with rows of equal length (or a bare number), got [[], []]" in err
        assert "has shape" not in err
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize(
        "command, out",
        [(("oracle",), "notadir/x"),
         (("run", "--seeds", "1", "--rounds", "3"), "notadir")],
        ids=["oracle", "run"],
    )
    def test_unwritable_out_exit_code(self, tmp_path, capsys, command, out):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        assert run_cli(*command, "--preset", "paper_sec4",
                       "--out", tmp_path / out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write output in {tmp_path / out}: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("preset", ["paper_sec4", "scalar_deterministic",
                                        "zero_dynamics"])
    def test_oracle_json_is_strict(self, tmp_path, preset):
        assert run_cli("oracle", "--preset", preset, "--out", tmp_path) == 0
        assert read_strict_json(tmp_path / "oracle.json")["stable"] is True

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
        assert capsys.readouterr().err.count("oracle failed") == 1


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

    def test_nested_missing_out_dir_is_made(self, tmp_path):
        out = tmp_path / "x" / "y"
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--rounds", "5", "--out", out) == 0
        assert (out / "summary.json").is_file()
        assert (out / "seed_0000" / "trace.csv").is_file()

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

    def test_trace_stats_hold_python_floats(self, bench_sys, bench_noise,
                                            bench_oracle):
        # A summary entry reads the array columns' last rows as lists of the
        # Python floats that the CSV's cells spell.
        g = build_graph("ring:4")
        run = run_distributed(bench_sys, bench_noise, g,
                              allocate_gains(g, (2, 1), "uniform"), Schedule(),
                              30, RngStream(0), oracle=bench_oracle)
        stats = cli._trace_stats(run)
        per_sensor = stats["final_norm1"] + stats["final_fro_err"]
        scalars = [stats[key] for key in ("max_fro_norm", "final_diameter",
                                          "final_mean_err", "max_mean_err")]
        assert len(per_sensor) == 8
        assert all(type(v) is float for v in per_sensor + scalars)
        last = [row for row in run.csv_rows() if row[0] == "30"]
        assert [float(row[4]) for row in last] == stats["final_norm1"]
        assert [float(row[5]) for row in last] == stats["final_fro_err"]

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

    def test_trailing_comma_seeds_override_names_one_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", "42,",
                       "--rounds", "5", "--out", out) == 0
        assert json.loads((out / "summary.json").read_text())["seeds"] == [42]
        assert sorted(p.name for p in out.glob("seed_*")) == ["seed_0042"]
        # A bare comma is the empty list, which is no seed at all.
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", ",",
                       "--out", tmp_path / "none") == 2
        assert "seeds must be a count in [1, " in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

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
        def explode(sys, noise, learners, sched, rounds, rngs, **kwargs):
            return [[DivergedError("boom", step=3)] for _ in rngs]

        monkeypatch.setattr(cli, "run_learners", explode)
        code = run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--out", tmp_path / "all")
        assert code == 3
        summary = json.loads((tmp_path / "all" / "summary.json").read_text())
        assert summary["runs"][0] == {
            "seed": 0, "status": "diverged", "kind": "distributed", "round": 3,
        }

    def test_non_finite_norm_spelled_as_a_string(self, tmp_path, monkeypatch):
        def explode(sys, noise, learners, sched, rounds, rngs, **kwargs):
            return [[DivergedError("boom", step=3, sensor=2, norm=float("nan"))]
                    for _ in rngs]

        monkeypatch.setattr(cli, "run_learners", explode)
        code = run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--out", tmp_path)
        assert code == 3
        summary = read_strict_json(tmp_path / "summary.json")
        assert summary["runs"][0] == {
            "seed": 0, "status": "diverged", "kind": "distributed", "round": 3,
            "sensor": 2, "norm": "nan",
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
        real = cli.run_learners

        def explode_for_seed_zero(sys, noise, learners, sched, rounds, rngs,
                                  **kwargs):
            results = real(sys, noise, learners, sched, rounds, rngs, **kwargs)
            return [[DivergedError("boom", step=7)] if rng.seed == 0 else result
                    for rng, result in zip(rngs, results)]

        monkeypatch.setattr(cli, "run_learners", explode_for_seed_zero)
        code = run_cli("run", "--preset", "paper_sec4", "--seeds", "2",
                       "--rounds", "10", "--out", tmp_path / "part")
        assert code == 5
        summary = json.loads((tmp_path / "part" / "summary.json").read_text())
        statuses = {r["seed"]: r["status"] for r in summary["runs"]}
        assert statuses == {0: "diverged", 1: "ok"}

    def test_seed_diverged_under_centralized_skips_distributed(self, tmp_path,
                                                              monkeypatch):
        real = cli.run_learners
        batches = []

        def centralized_seed_zero_explodes(sys, noise, learners, sched, rounds,
                                           rngs, **kwargs):
            batches.append(([graph.n_sensors for graph, _, _ in learners],
                            [rng.seed for rng in rngs]))
            # What the library gives when only the centralized kind trips:
            # the distributed kind's own complete trace, which the CLI must
            # still skip.
            results = real(sys, noise, learners, sched, rounds, rngs, **kwargs)
            assert all(isinstance(d, trace.RunTrace) for _, d in results)
            return [[DivergedError("boom", step=4), result[1]] if rng.seed == 0
                    else result for rng, result in zip(rngs, results)]

        monkeypatch.setattr(cli, "run_learners", centralized_seed_zero_explodes)
        out = tmp_path / "cent"
        code = run_cli("run", "--preset", "paper_sec4", "--mode", "both",
                       "--seeds", "3", "--rounds", "10", "--out", out)
        assert code == 5
        assert batches == [([1, 4], [0, 1, 2])]
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert runs[0] == {"seed": 0, "status": "diverged",
                           "kind": "centralized", "round": 4}
        assert not any((out / "seed_0000").iterdir())
        assert all("distributed" in run for run in runs[1:])

    @pytest.mark.parametrize("overrides", [
        {},
        {"shared_noise": False, "init": "spread"},
        {"gain_mode": "masked", "schedule": {"offset": 6}},
    ], ids=["paper_sec4", "private-spread", "masked-offset6"])
    def test_both_mode_traces_equal_the_single_modes(self, tmp_path, overrides):
        # The kinds step together under --mode both; each kind's CSV must
        # hold the bytes that its own mode writes for the same seeds.
        data = read_json(preset_file("paper_sec4"))
        data.update(overrides, schedule={**data["schedule"],
                                         **overrides.get("schedule", {})})
        config = write_config(tmp_path, data)
        for mode in ("both", "centralized", "distributed"):
            run_cli("run", "--config", config, "--mode", mode, "--seeds", "10",
                    "--rounds", "30", "--out", tmp_path / mode)
        written = 0
        for kind in ("centralized", "distributed"):
            for seed in range(10):
                single = tmp_path / kind / f"seed_{seed:04d}" / "trace.csv"
                both = tmp_path / "both" / f"seed_{seed:04d}" / f"trace_{kind}.csv"
                assert both.exists() == single.exists(), both
                if single.exists():
                    assert both.read_bytes() == single.read_bytes(), both
                    written += 1
        assert written >= 10 + 7

    def test_both_mode_medians_equal_the_single_modes(self, tmp_path):
        # Seeds 2, 3 and 8 diverge under the distributed kind only; their
        # centralized runs finish and count in the centralized medians.
        config = masked_config(tmp_path, 6)
        medians = {}
        for mode in ("both", "centralized", "distributed"):
            run_cli("run", "--config", config, "--mode", mode, "--seeds", "10",
                    "--out", tmp_path / mode)
            medians[mode] = read_strict_json(tmp_path / mode / "summary.json")["medians"]
        assert medians["both"] == {**medians["centralized"],
                                   **medians["distributed"]}

    def test_three_state_two_input_system(self, tmp_path):
        # d = 5 on ring:4 with masked gains: each kind's traces under
        # --mode both hold the bytes of its own mode, every seed ends below
        # its start error, and the learned gain validates.
        config = three_state_config(tmp_path)
        for mode in ("both", "centralized", "distributed"):
            assert run_cli("run", "--config", config, "--mode", mode, "--seeds",
                           "4", "--out", tmp_path / mode) == 0
        for kind in ("centralized", "distributed"):
            for seed in range(4):
                single = tmp_path / kind / f"seed_{seed:04d}" / "trace.csv"
                both = tmp_path / "both" / f"seed_{seed:04d}" / f"trace_{kind}.csv"
                assert both.read_bytes() == single.read_bytes(), both
        summary = read_strict_json(tmp_path / "both" / "summary.json")
        start_err = np.linalg.norm(np.eye(5) - np.array(summary["oracle"]["G_star"]))
        assert start_err == pytest.approx(3.709, abs=1e-3)
        for run in summary["runs"]:
            assert run["status"] == "ok"
            assert run["distributed"]["n_sensors"] == 4
            for kind in ("centralized", "distributed"):
                assert run[kind]["final_mean_err"] < start_err, (run["seed"], kind)
        assert run_cli("validate-controller", "--config", config, "--out",
                       tmp_path / "both") == 0
        report = read_strict_json(tmp_path / "both" / "controller_report.json")
        mc = report["monte_carlo_cost"]
        assert report["stable"] is True
        assert abs(mc["mean"] - report["oracle_value_x0"]) < 6 * mc["std_err"]

    def test_masked_offset_six_partial_divergence(self, tmp_path):
        # Unpatched: with masked gains and offset 6 on the preset's ring:4,
        # seeds 2, 3 and 8 of 0-9 diverge (sensor 1, rounds 18, 29 and 12)
        # and leave the batch; the other seven finish.
        out = tmp_path / "masked"
        code = run_cli("run", "--config", masked_config(tmp_path, 6), "--mode",
                       "both", "--seeds", "10", "--out", out)
        assert code == 5
        summary = json.loads((out / "summary.json").read_text())
        diverged = {2: 18, 3: 29, 8: 12}
        for run in summary["runs"]:
            seed = run["seed"]
            files = {p.name for p in (out / f"seed_{seed:04d}").iterdir()}
            if seed in diverged:
                assert run["status"] == "diverged"
                assert (run["kind"], run["round"], run["sensor"]) == (
                    "distributed", diverged[seed], 1)
                assert files == {"trace_centralized.csv", "plots"}
            else:
                assert run["status"] == "ok"
                assert files == {"trace_centralized.csv",
                                 "trace_distributed.csv", "plots"}
        assert [r["seed"] for r in summary["runs"]] == list(range(10))

    def test_seed_groups_give_the_same_output(self, tmp_path, monkeypatch,
                                              capsys, caplog):
        # Seeds are learned a group at a time; how they are grouped must not
        # show in any output file, in stdout or in the log.
        caplog.set_level(logging.INFO, logger="lqlearn")
        config = masked_config(tmp_path, 6)
        outputs = []
        for budget in (None, 1, 3 * 20 * ((3 * 1 + 9 + 3) + (3 * 4 + 9 + 3))):
            if budget is not None:
                monkeypatch.setattr(trace, "_GROUP_FLOATS", budget)
            out = tmp_path / f"group_{budget}"
            assert run_cli("run", "--config", config, "--mode", "both",
                           "--seeds", "10", "--rounds", "20", "--out", out) == 5
            files = {str(p.relative_to(out)): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()}
            assert len(files) == 1 + 10 * 3 + 8 * 3
            outputs.append((files, capsys.readouterr().out.replace(str(out), "OUT"),
                            caplog.messages[:]))
            caplog.clear()
        assert len(outputs[0][2]) == 12  # one line per seed, one per divergence
        assert trace.group_seeds([1, 4], 3, 20) == 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


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

    def test_overflowing_learned_gain_reported_as_inf(self, tmp_path, capsys):
        # G_uu = 1e-300 makes K = -G_ux / G_uu about 1e300, so its gap to K*
        # and the mean-square radius overflow to inf, spelled "inf".
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", "1",
                       "--rounds", "5", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        G = summary["runs"][0]["distributed"]["final_G_mean"]
        G[2][2] = 1e-300
        G[0][2] = G[2][0] = G[1][2] = G[2][1] = 1.0
        (out / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", out) == 0
        report = read_strict_json(out / "controller_report.json")
        assert report["gain_gap_fro"] == "inf"
        assert report["ms_spectral_radius"] == "inf"
        assert report["stable"] is False
        assert report["monte_carlo_cost"] is None
        assert capsys.readouterr().err == ""

    def test_seed_not_in_summary_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "paper_sec4", "--seeds", "2",
                       "--rounds", "5", "--out", out) == 0
        capsys.readouterr()
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--seed", "5", "--out", out) == 2
        err = capsys.readouterr().err
        assert f"seed 5 is not in {out / 'summary.json'} (seeds: 0, 1)" in err
        assert "no clean run" not in err
        assert not (out / "controller_report.json").exists()

    def test_diverged_seed_has_no_clean_run_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--config", masked_config(tmp_path, 6),
                       "--seeds", "1,8", "--rounds", "20", "--out", out) == 5
        runs = read_strict_json(out / "summary.json")["runs"]
        assert [run["status"] for run in runs] == ["ok", "diverged"]
        capsys.readouterr()
        assert run_cli("validate-controller", "--config",
                       masked_config(tmp_path, 6), "--seed", "8",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert f"no clean run for seed 8 in {out / 'summary.json'}" in err
        assert "is not in" not in err
        assert not (out / "controller_report.json").exists()

    def test_missing_run_dir(self, tmp_path):
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path / "nothing") == 2
        assert not (tmp_path / "nothing").exists()

    @pytest.mark.parametrize("text", ["{", "[]", '{"seeds": [0]}'])
    def test_malformed_summary_exit_code(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_text(text)
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path) == 2
        assert f"cannot read {tmp_path / 'summary.json'}" in capsys.readouterr().err
        assert not (tmp_path / "controller_report.json").exists()

    @pytest.mark.parametrize("entry, reason", [
        ("NaN", "G must be finite"),
        ("Infinity", "G must be finite"),
        ("0.9", "G must be symmetric"),
    ], ids=["NaN", "Infinity", "asymmetric"])
    def test_non_finite_final_estimate_exit_code(self, tmp_path, capsys,
                                                 entry, reason):
        # The summary is where a learned Q-factor re-enters the program, and
        # the only check between it and gamma_map.
        G = f"[[0.4, 0.0, -0.6], [0.0, 0.7, 0.5], [-0.6, {entry}, 0.9]]"
        (tmp_path / "summary.json").write_text(
            '{"seeds": [0], "runs": [{"seed": 0, "status": "ok", '
            f'"distributed": {{"final_G_mean": {G}}}}}]}}'
        )
        assert run_cli("validate-controller", "--preset", "paper_sec4",
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'summary.json'}: seed 0 has no usable "
                f"final_G_mean: {reason}") in err
        # The file was read, and `lqlearn run` writes such a summary.
        assert "cannot read" not in err
        assert "first)" not in err
        assert not (tmp_path / "controller_report.json").exists()


def small_sec4_config(tmp_path, name="small.json", **edits):
    """paper_sec4 with a short run and a small validation, then edits."""
    data = read_json(preset_file("paper_sec4"))
    data.update(rounds=10, seeds=1,
                validation={"x0": [1.0, 1.0], "horizon": 50, "n_runs": 20})
    data.update(edits)
    return write_config(tmp_path, data, name=name)


@pytest.fixture
def oracle_solves(monkeypatch):
    """The keyword arguments of every cli.solve_oracle call, in order."""
    calls = []
    solve = cli.solve_oracle

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_oracle", recorded)
    return calls


class TestValidateReusesStoredOracle:
    """validate-controller certifies the run's stored G* with one Picard step
    and falls back to solving the oracle when that test fails."""

    @staticmethod
    def run(tmp_path, *args):
        out = tmp_path / "out"
        assert run_cli("run", "--config", small_sec4_config(tmp_path), *args,
                       "--out", out) == 0
        return out

    @staticmethod
    def edit_summary(out, edit):
        summary = json.loads((out / "summary.json").read_text())
        edit(summary)
        (out / "summary.json").write_text(json.dumps(summary))

    @staticmethod
    def validate(config, out):
        assert run_cli("validate-controller", "--config", config,
                       "--out", out) == 0
        return (out / "controller_report.json").read_bytes()

    def cold_report(self, config, out):
        """The report from the run in out once its oracle block is deleted."""
        self.edit_summary(out, lambda summary: summary.pop("oracle"))
        return self.validate(config, out)

    def test_unchanged_problem_reuses_g_star(self, tmp_path, oracle_solves,
                                             caplog):
        config = small_sec4_config(tmp_path)
        out = self.run(tmp_path)
        oracle_solves.clear()
        caplog.set_level(logging.INFO, logger="lqlearn")
        report = self.validate(config, out)
        assert len(oracle_solves) == 1
        assert oracle_solves[0]["max_iter"] == 1
        assert oracle_solves[0]["start"] is not None
        residual = read_strict_json(out / "summary.json")["oracle"]["residual"]
        assert caplog.messages == [f"G* from the summary, residual {residual:.3e}"]
        oracle_solves.clear()
        caplog.clear()
        assert self.cold_report(config, out) == report
        # The oracle-less summary gets one cold solve.
        assert [call.get("start") for call in oracle_solves] == [None]
        assert [call["max_iter"] for call in oracle_solves] == [100_000]
        assert caplog.messages == [
            "G* solved in 79 iterations (no G* in the summary)"]

    def test_changed_noise_fails_the_test_and_solves(self, tmp_path,
                                                     oracle_solves, caplog):
        changed = small_sec4_config(tmp_path, name="changed.json",
                                    noise={"mu": 1.0, "sigma2": 0.12})
        out = self.run(tmp_path)
        oracle_solves.clear()
        caplog.set_level(logging.INFO, logger="lqlearn")
        report = self.validate(changed, out)
        assert [call["max_iter"] for call in oracle_solves] == [1, 100_000]
        assert [call.get("start") is None for call in oracle_solves] == [
            False, True]
        [message] = caplog.messages
        assert message.startswith("G* solved in ")
        assert (" iterations (the summary's G* failed: no convergence after "
                "1 iterations (residual ") in message
        assert self.cold_report(changed, out) == report

    @pytest.mark.parametrize("G_star", [
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, "nan", 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        {"not": "a matrix"},
        [[0.0] * 3] * 3,
        [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e300]],
    ], ids=["wrong_shape", "nan", "asymmetric", "not_a_matrix",
            "rank_deficient", "overflowing"])
    def test_malformed_g_star_solves(self, tmp_path, oracle_solves, recwarn,
                                     G_star):
        config = small_sec4_config(tmp_path)
        out = self.run(tmp_path)
        self.edit_summary(out, lambda s: s["oracle"].update(G_star=G_star))
        oracle_solves.clear()
        recwarn.clear()
        report = self.validate(config, out)
        assert [call["max_iter"] for call in oracle_solves] == [1, 100_000]
        # The failed test warns nothing: its warnings only fail it.
        assert [str(w.message) for w in recwarn] == []
        assert self.cold_report(config, out) == report

    @pytest.mark.parametrize("oracle", [[], {"residual": 0.0}],
                             ids=["not_a_dict", "no_G_star"])
    def test_oracle_block_without_g_star_solves(self, tmp_path, oracle_solves,
                                                oracle):
        config = small_sec4_config(tmp_path)
        out = self.run(tmp_path)
        self.edit_summary(out, lambda s: s.update(oracle=oracle))
        oracle_solves.clear()
        report = self.validate(config, out)
        assert [call.get("start") for call in oracle_solves] == [None]
        assert self.cold_report(config, out) == report

    def test_non_stabilizing_g_star_solves(self, tmp_path, oracle_solves,
                                           caplog):
        # The other Riccati root of scalar_deterministic is a fixed point, so
        # the one step converges, but its gain fails the mean-square check.
        data = read_json(preset_file("scalar_deterministic"))
        data.update(rounds=10, validation={**data["validation"], "n_runs": 5})
        config = write_config(tmp_path, data, name="scalar.json")
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--out", out) == 0
        P = (1.0 - np.sqrt(5.0)) / 2.0
        G_star = [[1.0 + P, P], [P, 1.0 + P]]
        self.edit_summary(out, lambda s: s["oracle"].update(G_star=G_star))
        oracle_solves.clear()
        caplog.set_level(logging.INFO, logger="lqlearn")
        report = self.validate(config, out)
        assert [call["max_iter"] for call in oracle_solves] == [1, 100_000]
        [message] = caplog.messages
        assert message.endswith(
            "(the summary's G* failed: closed loop is not mean-square stable "
            "(second-moment spectral radius 6.854102 >= 1))")
        assert self.cold_report(config, out) == report

    def test_run_and_validation_edits_still_reuse(self, tmp_path,
                                                  oracle_solves):
        out = self.run(tmp_path, "--seeds", "2", "--rounds", "15")
        other = small_sec4_config(
            tmp_path, name="other.json", rounds=30, seeds=[0, 1],
            validation={"x0": [0.5, -1.0], "horizon": 30, "n_runs": 10})
        oracle_solves.clear()
        assert run_cli("validate-controller", "--config", other, "--seed", "1",
                       "--out", out) == 0
        assert [call["max_iter"] for call in oracle_solves] == [1]


def _exit_code(call):
    """call's return value, or the status it exits with (argparse exits 2 on
    a rejected argument)."""
    try:
        return call()
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("preset, code", [("paper_sec4", 0), ("no_such", 2)],
                         ids=["oracle", "unknown_preset"])
def test_entry_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys,
                                           preset, code):
    # The console script's path: entry reads sys.argv and exits with main's
    # code.
    argv = ["oracle", "--preset", preset, "--out", str(tmp_path / "entry")]
    monkeypatch.setattr(sys, "argv", ["lqlearn", *argv])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == code
    argv[-1] = str(tmp_path / "main")
    assert _exit_code(lambda: cli.main(argv)) == code
    assert (tmp_path / "entry").exists() == (tmp_path / "main").exists() == (code == 0)


@pytest.mark.parametrize("value, level", [("info", "INFO"), ("verbose", "WARNING")])
def test_qlearn_log_sets_the_level(monkeypatch, capsys, value, level):
    # An unknown QLEARN_LOG value falls back to WARNING.
    seen = {}
    monkeypatch.setenv("QLEARN_LOG", value)
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.update(kwargs))
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert seen["level"] == level


class TestSvgPlots:
    def test_nothing_to_plot_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            line_plot(tmp_path / "empty.svg", [("a", [])], "title", "x", "y")

    def test_plots_carry_no_unique_data(self, tmp_path):
        # every plotted series value appears in the CSV
        out = tmp_path / "out"
        run_cli("run", "--preset", "paper_sec4", "--seeds", "1", "--rounds",
                "20", "--out", out)
        csv_text = (out / "seed_0000" / "trace.csv").read_text()
        svg = (out / "seed_0000" / "plots" / "norm1_G_distributed.svg").read_text()
        assert svg.count("<polyline") == 4
        assert "</svg>" in svg

    @staticmethod
    def _reference_points(series):
        """Each series' polyline points formatted point by point: x = 1..len
        over a frame of rounds 1..max(longest, 2), y over the padded span of
        every value."""
        values = [y for _, ys in series for y in ys]
        lo, hi = min(values), max(values)
        if lo == hi:
            pad = abs(lo) if lo != 0 else 1.0
            lo, hi = lo - 0.5 * pad, hi + 0.5 * pad
        xhi = max(2, max(len(ys) for _, ys in series))
        return [
            " ".join(f"{70 + (k - 1) / (xhi - 1) * 630:.2f},"
                     f"{390 - (y - lo) / (hi - lo) * 350:.2f}"
                     for k, y in enumerate(ys, 1))
            for _, ys in series
        ]

    @pytest.mark.parametrize("series", [
        # Identical series, one departing from them, and a repeat of the first.
        [("a", [0.5, 1.25, 3.0]), ("b", [0.5, 1.25, 3.0]),
         ("c", [0.5, 2.0, 3.0]), ("d", [0.5, 1.25, 3.0])],
        # Series of different lengths: the shorter one is a prefix in x.
        [("long", np.linspace(-4.0, 9.0, 40)), ("short", [1.0, -2.5, 0.1])],
        # One round: the frame spans rounds 1 and 2, and a flat span is padded.
        [("one", [2.0])],
        [("zeros", [0.0]), ("same", np.array([0.0]))],
    ])
    def test_points_match_a_per_point_formatter(self, tmp_path, series):
        path = tmp_path / "plot.svg"
        line_plot(path, series, "title", "x", "y")
        polylines = ElementTree.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}polyline")
        assert [p.get("points") for p in polylines] == self._reference_points(
            [(label, list(ys)) for label, ys in series])

    def test_text_is_escaped(self, tmp_path):
        path = tmp_path / "plot.svg"
        line_plot(path, [("a<b & 'c'", [1.0, 2.0])], 'R&D <x>', 'say "k"',
                  "y > 0")
        texts = [t.text for t in ElementTree.parse(path).getroot().iter(
            "{http://www.w3.org/2000/svg}text")]
        assert {"R&D <x>", 'say "k"', "y > 0", "a<b & 'c'"} <= set(texts)
        assert "R&amp;D &lt;x&gt;" in path.read_text()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="'sensor 1' has a non-finite"):
            line_plot(path, [("sensor 0", [1.0, 2.0]), ("sensor 1", [1.0, bad])],
                      "title", "x", "y")
        assert not path.exists()


def _fixed_trace(n_sensors, with_oracle):
    """A trace of fixed floats whose written metrics are exact, so its bytes
    depend on no BLAS or summation order: dyadic multiples of small integer
    matrices.
    Sensors 0, 1 and 3 hold one estimate and sensor 2 departs from it in the
    rounds where spread is nonzero; rounds 3 and 4 repeat each other, and
    round 2 mixes 0.0 and -0.0."""
    base = np.arange(1.0, 10.0).reshape(3, 3)
    scales = 2.0 ** np.array([-6, -1, 0, 0, 3, 6])
    spread = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0])
    offsets = np.array([0.0, 0.0, 1.0, 0.0])[:n_sensors]
    G = scales[:, None, None, None] * (
        base + spread[:, None, None, None] * offsets[None, :, None, None])
    omegas = np.array([[0.1, 0.1, 0.1, 0.1],
                       [-0.0, 0.0, 0.25, -0.0],
                       [1.5, 1.5, 1.5, 1.5],
                       [1.5, 1.5, 1.5, 1.5],
                       [2.0**-30, 2.0**-30, 0.5, 2.0**-30],
                       [-7.25, -7.25, -7.25, -7.25]])[:, :n_sensors]
    G_star = np.diag([2.0, 1.0, 3.0]) if with_oracle else None
    fixed = trace.RunTrace(n_sensors, G_star=G_star)
    fixed.record_round(1.0 / np.arange(2.0, 8.0), omegas, G)
    return fixed


# sha256 of each file that the cell-by-cell writers made from _fixed_trace;
# a change to any byte shows here.
_WRITER_DIGESTS = {
    "N1_no_oracle.csv":
        "f10d4d99de074ab09a1b5f76cf422e578a2875d4cb18bdcfa6cc6103322c66ae",
    "N1_oracle/fro_err_fixed.svg":
        "02a73cbcdc4e34fbaadf6730e26d3841fd7231be9ce5888bee1f5ad8d218aaf4",
    "N1_oracle/norm1_G_fixed.svg":
        "b36bffa9d099df65f63dc77279526f3a699159f4f87e1ac0a45fad582d3821a3",
    "N1_oracle.csv":
        "a017a45f8726853ef680c5b41bb972ee0a994b6e55df1234b017a6a29c306fd4",
    "N4_no_oracle.csv":
        "82a2c1db06822fb5dd65b775bcc9a386ea277ed0e545bad75f3f9be7ba4efc23",
    "N4_oracle/fro_err_fixed.svg":
        "3412dacbba2138c1017ad71132ad1656cf27cd7061dd53151953d948bdf50eaa",
    "N4_oracle/norm1_G_fixed.svg":
        "fceb3a9b97baf2868fe0b3f25a84879e167f0a7ade37cbece48b0e5b81adaaa3",
    "N4_oracle.csv":
        "af2de140f91f58d338af6f936f4fa9351c9130c74bfac5b0ee53d8edd2eae218",
}


def test_writers_keep_their_recorded_bytes(tmp_path):
    digests = {}
    for n_sensors in (1, 4):
        for with_oracle in (True, False):
            fixed = _fixed_trace(n_sensors, with_oracle)
            case = f"N{n_sensors}_{'oracle' if with_oracle else 'no_oracle'}"
            fixed.write_csv(tmp_path / f"{case}.csv")
            # The plots draw the error to G*, so they need the oracle.
            if with_oracle:
                cli._plot_trace(fixed, tmp_path / case, "fixed")
    for path in sorted(tmp_path.rglob("*.*")):
        name = path.relative_to(tmp_path).as_posix()
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    differ = sorted(name for name in digests.keys() | _WRITER_DIGESTS.keys()
                    if digests.get(name) != _WRITER_DIGESTS.get(name))
    assert not differ, f"writer output differs in {differ}"
