import json

import numpy as np
import pytest

from lqlearn import from_dict, load_config, load_preset
from lqlearn.config import MAX_SEED_COUNT
from lqlearn.errors import ConfigParseError, ConfigValidationError


def set_field(data, keys, value):
    for k in keys[:-1]:
        data = data[k]
    data[keys[-1]] = value


def base_config(**overrides):
    data = {
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
        "graph": "ring:4",
        "rounds": 200,
        "seeds": 20,
    }
    data.update(overrides)
    return data


class TestPresets:
    def test_paper_sec4_loads_exact_values(self):
        cfg = load_preset("paper_sec4")
        assert np.array_equal(cfg.system.A, [[0.2, 0.0], [0.0, 0.6]])
        assert np.array_equal(cfg.system.A_bar, [[0.7, 0.0], [0.0, 0.8]])
        assert np.array_equal(cfg.system.B, [[0.7], [0.3]])
        assert np.array_equal(cfg.system.B_bar, [[0.1], [0.7]])
        assert np.array_equal(cfg.system.Q, [[0.4, 0.0], [0.0, 0.7]])
        assert np.array_equal(cfg.system.R, [[1.0]])
        assert cfg.noise.mu == 1.0
        assert cfg.noise.sigma2 == 0.1
        assert cfg.schedule.exponent == 0.6
        assert cfg.schedule.offset == 2
        assert cfg.graph.n_sensors == 4
        assert cfg.rounds == 200
        assert cfg.seeds == tuple(range(20))

    def test_other_presets_load(self):
        assert load_preset("scalar_deterministic").system.n == 1
        assert load_preset("zero_dynamics").system.n == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigParseError, match="available"):
            load_preset("nope")


class TestValidation:
    def test_zero_R_rejected(self):
        data = base_config()
        data["system"]["R"] = 0.0
        with pytest.raises(ConfigValidationError, match="R must be positive definite"):
            from_dict(data)

    def test_noncontractive_weight_rejected(self):
        data = base_config(graph="path:4", consensus_weight=1.0)
        with pytest.raises(ConfigValidationError,
                           match="consensus operator not contractive"):
            from_dict(data)

    def test_all_violations_reported_at_once(self):
        data = base_config(graph="path:4", consensus_weight=1.0, rounds=0)
        data["system"]["R"] = 0.0
        data["schedule"] = {"exponent": 0.4}
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        text = str(info.value)
        assert "R must be positive definite" in text
        assert "not contractive" in text
        assert "rounds" in text
        assert "exponent" in text

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigValidationError, match="unknown field"):
            from_dict(base_config(typo_field=1))

    def test_flat_matrix_rejected(self):
        data = base_config()
        data["system"]["B"] = [0.7, 0.3]
        with pytest.raises(ConfigValidationError, match="nested list"):
            from_dict(data)

    def test_non_gaussian_noise_rejected(self):
        data = base_config()
        data["noise"] = {"family": "uniform", "mu": 0.0, "sigma2": 1.0}
        with pytest.raises(ConfigValidationError, match="gaussian only"):
            from_dict(data)

    def test_unsupported_rng_family_rejected(self):
        with pytest.raises(ConfigValidationError, match="rng family"):
            from_dict(base_config(rng="mt19937"))

    def test_seed_list_accepted(self):
        cfg = from_dict(base_config(seeds=[3, 1, 4]))
        assert cfg.seeds == (3, 1, 4)

    def test_largest_seed_count_accepted(self):
        cfg = from_dict(base_config(seeds=MAX_SEED_COUNT))
        assert cfg.seeds == tuple(range(MAX_SEED_COUNT))

    @pytest.mark.parametrize("count", [MAX_SEED_COUNT + 1, 10**9, 2**64])
    def test_oversized_seed_count_named_in_its_violation(self, count):
        # Rejected before any tuple of that length is built.
        with pytest.raises(ConfigValidationError) as info:
            from_dict(base_config(rounds=0, seeds=count))
        violations = info.value.violations
        assert any(v.startswith("seeds must be a count in [1, ")
                   and v.endswith(f"got {count}") for v in violations)
        assert any("rounds" in v for v in violations)  # reported alongside

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ConfigValidationError, match="connect"):
            from_dict(base_config(graph="edges:1-2,3-4"))

    def test_validation_defaults(self):
        cfg = from_dict(base_config())
        assert np.array_equal(cfg.validation.x0, [1.0, 1.0])
        assert cfg.validation.horizon == 400
        assert cfg.validation.n_runs == 2000

    @pytest.mark.parametrize("field", ["horizon", "n_runs"])
    @pytest.mark.parametrize("bad", ["abc", 2.5, True, 0])
    def test_bad_validation_count_named_in_its_violation(self, field, bad):
        data = base_config(rounds=0, validation={"x0": [1.0, 1.0], field: bad})
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert any(v.startswith(f"validation.{field} must be an integer")
                   for v in violations)
        assert not any("x0" in v for v in violations)
        assert any("rounds" in v for v in violations)  # reported alongside

    @pytest.mark.parametrize("seeds, bad", [([-1], -1), ([2**64], 2**64),
                                            ([0, 3, -3], -3)])
    def test_out_of_range_seed_named_in_its_violation(self, seeds, bad):
        with pytest.raises(ConfigValidationError) as info:
            from_dict(base_config(rounds=0, seeds=seeds))
        violations = info.value.violations
        assert f"seed {bad} is outside [0, 2**64)" in violations
        assert any("rounds" in v for v in violations)  # reported alongside

    def test_bool_rounds_rejected(self):
        with pytest.raises(ConfigValidationError, match="rounds"):
            from_dict(base_config(rounds=True))

    @pytest.mark.parametrize(
        "keys, path",
        [
            (("system", "A", 0, 1), "system.A[0][1]"),
            (("noise", "mu"), "noise.mu"),
            (("noise", "sigma2"), "noise.sigma2"),
            (("validation", "x0", 0), "validation.x0[0]"),
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_number_rejected_with_its_path(self, keys, path, bad):
        # json.loads turns NaN and Infinity literals into these floats.
        data = base_config(rounds=0, validation={"x0": [1.0, 1.0]})
        target = data
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = bad
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert f"{path} must be a finite number" in violations
        assert any("rounds" in v for v in violations)  # reported alongside

    @pytest.mark.parametrize(
        "keys, path",
        [
            (("noise", "mu"), "noise.mu"),
            (("noise", "sigma2"), "noise.sigma2"),
            (("schedule", "exponent"), "schedule.exponent"),
            (("schedule", "scale"), "schedule.scale"),
            (("spread_scale",), "spread_scale"),
            (("consensus_weight",), "consensus_weight"),
            (("oracle", "tol"), "oracle.tol"),
            (("validation", "x0", 1), "validation.x0[1]"),
        ],
    )
    @pytest.mark.parametrize("bad", ["nan", "0.5", True])
    def test_non_number_named_in_its_violation(self, keys, path, bad):
        # Only JSON numbers count: a string is not parsed, a bool not coerced.
        data = base_config(rounds=0, oracle={}, validation={"x0": [1.0, 1.0]})
        set_field(data, keys, bad)
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert f"{path} must be a number, got {bad!r}" in violations
        assert any("rounds" in v for v in violations)  # reported alongside

    @pytest.mark.parametrize(
        "keys, path",
        [(("schedule", "offset"), "schedule.offset"),
         (("oracle", "max_iter"), "oracle.max_iter")],
    )
    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_non_integer_count_named_in_its_violation(self, keys, path, bad):
        data = base_config(rounds=0, oracle={})
        set_field(data, keys, bad)
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert any(v.startswith(f"{path} must be an integer") for v in violations)
        assert any("rounds" in v for v in violations)  # reported alongside

    def test_offset_beyond_float_range_rejected_by_the_schedule(self):
        data = base_config(rounds=0)
        data["schedule"]["offset"] = 10**400
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert any(v.startswith("schedule: offset must be an integer >= 1")
                   for v in violations)
        assert not any("convert to float" in v for v in violations)
        assert any("rounds" in v for v in violations)  # reported alongside

    @pytest.mark.parametrize("bad", ["0.2", True])
    def test_non_number_matrix_entry_rejected(self, bad):
        data = base_config()
        data["system"]["A"][0][0] = bad
        with pytest.raises(ConfigValidationError, match="system.A must be"):
            from_dict(data)


    @pytest.mark.parametrize(
        "section, key",
        [("system", "A_bbar"), ("noise", "sigma"), ("schedule", "exponant"),
         ("oracle", "maxiter"), ("validation", "runs")],
    )
    def test_unknown_nested_field_named_by_its_path(self, section, key):
        data = base_config(rounds=0, oracle={}, validation={})
        data[section][key] = 1.0
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        violations = info.value.violations
        assert f"unknown field '{section}.{key}'" in violations
        assert any("rounds" in v for v in violations)  # reported alongside

    def test_repeated_seed_named_in_its_violation(self):
        with pytest.raises(ConfigValidationError) as info:
            from_dict(base_config(rounds=0, seeds=[1, 3, 1]))
        violations = info.value.violations
        assert "seed 1 is listed 2 times" in violations
        assert any("rounds" in v for v in violations)  # reported alongside

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["system"].update(A=[[1, 0], [0]]),
             "system.A must be a row-major nested list of numbers with rows "
             "of equal length (or a bare number), got [[1, 0], [0]]"),
            (lambda d: d.pop("system"), "missing field 'system'"),
            (lambda d: d["system"].pop("Q"), "missing field 'system.Q'"),
            (lambda d: d.update(oracle={"tol": 0}), "oracle.tol must be > 0"),
            (lambda d: d.update(oracle={"tol": -1}), "oracle.tol must be > 0"),
            (lambda d: d.update(spread_scale=-1), "spread_scale must be >= 0"),
            (lambda d: d["system"].update(B=[[], []]),
             "system.B must be a row-major nested list of numbers with rows "
             "of equal length (or a bare number), got [[], []]"),
            (lambda d: d["system"].update(B_bar=[[], []]),
             "system.B_bar must be a row-major nested list of numbers with rows "
             "of equal length (or a bare number), got [[], []]"),
            (lambda d: d["system"].update(A=[[]]),
             "system.A must be a row-major nested list of numbers with rows "
             "of equal length (or a bare number), got [[]]"),
        ],
        ids=["ragged-A", "no-system", "no-system.Q", "tol-0", "tol-negative",
             "spread_scale", "empty-B-rows", "empty-B_bar-rows", "empty-A-row"],
    )
    def test_rejected_field_reported_alongside_others(self, edit, message):
        data = base_config(rounds=0)
        edit(data)
        with pytest.raises(ConfigValidationError) as info:
            from_dict(data)
        assert sorted(info.value.violations) == sorted(
            [message, "rounds must be an integer >= 1, got 0"])

    @pytest.mark.parametrize("top", [[], "x", None])
    def test_non_object_top_level_rejected(self, top):
        with pytest.raises(ConfigValidationError) as info:
            from_dict(top)
        assert info.value.violations == ["top level must be a JSON object"]

    def test_nan_rounds_is_one_violation(self):
        with pytest.raises(ConfigValidationError) as info:
            from_dict(base_config(rounds=float("nan")))
        assert info.value.violations == ["rounds must be an integer >= 1, got nan"]


class TestLoadConfig:
    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigParseError, match="line 1"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        cfg = load_config(path)
        assert cfg.graph.n_sensors == 4
        assert cfg.system.m == 1

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        with pytest.raises(ConfigParseError, match="cannot read"):
            load_config(path)
