"""Experiment configuration: JSON ingestion, validation, shipped presets.

A config is a single JSON file; matrices are row-major nested lists (a bare
number is accepted as a 1x1 matrix). Validation runs every module-level
precondition up front and reports all violations at once rather than failing
on the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    BadSpecError,
    ConfigParseError,
    ConfigValidationError,
    DisconnectedError,
    NotContractiveError,
)
from .lqcore import DEFAULT_ORACLE_MAX_ITER, DEFAULT_ORACLE_TOL, NoiseModel, SystemModel
from .network import Graph, build_graph, consensus_operator
from .qlearning import Schedule

RNG_FAMILY = "philox4x64-invcdf"

_KNOWN_KEYS = {
    "system",
    "noise",
    "schedule",
    "graph",
    "gain_mode",
    "consensus_weight",
    "rounds",
    "seeds",
    "shared_noise",
    "init",
    "spread_scale",
    "rng",
    "oracle",
    "validation",
    "output_dir",
}


@dataclass(frozen=True)
class ValidationSettings:
    """Monte Carlo settings for controller validation."""

    x0: np.ndarray
    horizon: int
    n_runs: int


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemModel
    noise: NoiseModel
    schedule: Schedule
    graph: Graph
    gain_mode: str
    consensus_weight: float | None
    rounds: int
    seeds: tuple
    shared_noise: bool
    init: str
    spread_scale: float
    oracle_tol: float
    oracle_max_iter: int
    validation: ValidationSettings
    output_dir: str


def _is_number(value) -> bool:
    """A JSON number; bool is an int subclass in Python."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """An integer JSON number."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, path: str, errors: list[str]) -> float | None:
    """value as a float when it is a finite JSON number; otherwise None, with
    the violation added to errors. NaN and infinity come back as None
    unreported, since _non_finite already names them."""
    if not _is_number(value):
        errors.append(f"{path} must be a number, got {value!r}")
        return None
    try:
        value = float(value)
    except OverflowError:
        errors.append(f"{path} must be a finite number")
        return None
    return value if math.isfinite(value) else None


def _matrix(raw, name: str, errors: list[str]):
    if _is_number(raw):
        return [[float(raw)]]
    if (isinstance(raw, list) and raw
            and all(isinstance(r, list) and all(map(_is_number, r)) for r in raw)):
        return raw
    errors.append(
        f"{name} must be a row-major nested list of numbers (or a bare number)"
    )
    return None


def _non_finite(value, path: str) -> list[str]:
    """Field paths of every NaN or infinite number in a parsed JSON value;
    json.loads accepts NaN, Infinity and -Infinity."""
    if isinstance(value, float):
        return [] if np.isfinite(value) else [path]
    if isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    else:
        return []
    return [p for sub, v in items for p in _non_finite(v, sub)]


def seed_violations(seeds) -> list[str]:
    """One message per seed outside [0, 2**64), the seeds RngStream takes."""
    return [f"seed {s} is outside [0, 2**64)" for s in seeds if not 0 <= s < 2**64]


def _get(data: dict, key: str, errors: list[str]):
    if key not in data:
        errors.append(f"missing field {key!r}")
        return None
    return data[key]


def from_dict(data: dict) -> ExperimentConfig:
    """Build and fully validate a config; raises ConfigValidationError with
    every violation found."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigValidationError(["top level must be a JSON object"])

    for key in data:
        if key not in _KNOWN_KEYS:
            errors.append(f"unknown field {key!r}")
    non_finite = _non_finite(data, "")
    errors.extend(f"{path} must be a finite number" for path in non_finite)

    system = None
    sys_raw = _get(data, "system", errors)
    if isinstance(sys_raw, dict):
        mats = {}
        for name in ("A", "A_bar", "B", "B_bar", "Q", "R"):
            if name not in sys_raw:
                errors.append(f"system.{name} is missing")
                continue
            mat = _matrix(sys_raw[name], f"system.{name}", errors)
            if mat is not None:
                mats[name] = mat
        if len(mats) == 6 and not _non_finite(sys_raw, "system"):
            try:
                system = SystemModel(**mats)
            except ValueError as exc:
                errors.append(str(exc))
    elif sys_raw is not None:
        errors.append("system must be an object of matrices")

    noise = None
    noise_raw = _get(data, "noise", errors)
    if isinstance(noise_raw, dict):
        family = noise_raw.get("family", "gaussian")
        if family != "gaussian":
            errors.append(f"unsupported noise family {family!r} (gaussian only)")
        mu = _number(noise_raw.get("mu", 0.0), "noise.mu", errors)
        sigma2 = _number(noise_raw.get("sigma2", 0.0), "noise.sigma2", errors)
        if mu is not None and sigma2 is not None:
            try:
                noise = NoiseModel(mu=mu, sigma2=sigma2)
            except ValueError as exc:
                errors.append(f"noise: {exc}")
    elif noise_raw is not None:
        errors.append("noise must be an object with mu and sigma2")

    schedule = None
    sched_raw = data.get("schedule", {})
    if isinstance(sched_raw, dict):
        params = {
            "exponent": _number(
                sched_raw.get("exponent", 0.6), "schedule.exponent", errors
            ),
            "offset": sched_raw.get("offset", 2),
            "scale": _number(sched_raw.get("scale", 1.0), "schedule.scale", errors),
        }
        if not _is_int(params["offset"]):
            errors.append(
                f"schedule.offset must be an integer, got {params['offset']!r}"
            )
        elif None not in params.values():
            try:
                schedule = Schedule(**params)
            except (ValueError, OverflowError) as exc:
                errors.append(f"schedule: {exc}")
    else:
        errors.append("schedule must be an object")

    graph = None
    graph_raw = _get(data, "graph", errors)
    if isinstance(graph_raw, str):
        try:
            graph = build_graph(graph_raw)
        except (BadSpecError, DisconnectedError) as exc:
            errors.append(f"graph: {exc}")
    elif graph_raw is not None:
        errors.append("graph must be a topology descriptor string")

    gain_mode = data.get("gain_mode", "uniform")
    if gain_mode not in ("uniform", "masked"):
        errors.append(f"gain_mode must be 'uniform' or 'masked', got {gain_mode!r}")

    consensus_weight = data.get("consensus_weight")
    if consensus_weight is not None:
        consensus_weight = _number(consensus_weight, "consensus_weight", errors)
    if graph is not None:
        try:
            consensus_operator(graph, consensus_weight)
        except (NotContractiveError, ValueError) as exc:
            errors.append(str(exc))

    rounds = data.get("rounds", 200)
    if not _is_int(rounds) or rounds < 1:
        errors.append(f"rounds must be a positive integer, got {rounds!r}")

    seeds_raw = data.get("seeds", 1)
    seeds: tuple = ()
    if _is_int(seeds_raw):
        if seeds_raw < 1:
            errors.append("seeds count must be >= 1")
        else:
            seeds = tuple(range(seeds_raw))
    elif isinstance(seeds_raw, list) and all(_is_int(s) for s in seeds_raw):
        if not seeds_raw:
            errors.append("seeds list must not be empty")
        seeds = tuple(seeds_raw)
    else:
        errors.append("seeds must be a count or a list of integers")
    errors.extend(seed_violations(seeds))

    shared_noise = data.get("shared_noise", True)
    if not isinstance(shared_noise, bool):
        errors.append("shared_noise must be a boolean")
        shared_noise = True

    init = data.get("init", "identity")
    if init not in ("identity", "spread"):
        errors.append(f"init must be 'identity' or 'spread', got {init!r}")

    spread_scale = _number(data.get("spread_scale", 0.1), "spread_scale", errors)
    if spread_scale is not None and spread_scale < 0:
        errors.append("spread_scale must be >= 0")

    rng_family = data.get("rng", RNG_FAMILY)
    if rng_family != RNG_FAMILY:
        errors.append(
            f"unsupported rng family {rng_family!r} (only {RNG_FAMILY!r})"
        )

    oracle_raw = data.get("oracle", {})
    oracle_tol, oracle_max_iter = DEFAULT_ORACLE_TOL, DEFAULT_ORACLE_MAX_ITER
    if isinstance(oracle_raw, dict):
        oracle_tol = _number(oracle_raw.get("tol", oracle_tol), "oracle.tol", errors)
        if oracle_tol is not None and oracle_tol <= 0:
            errors.append("oracle.tol must be > 0")
        oracle_max_iter = oracle_raw.get("max_iter", oracle_max_iter)
        if not _is_int(oracle_max_iter) or oracle_max_iter < 1:
            errors.append(
                f"oracle.max_iter must be an integer >= 1, got {oracle_max_iter!r}"
            )
    else:
        errors.append("oracle must be an object")

    validation = None
    if system is not None and not _non_finite(data.get("validation"), "validation"):
        val_raw = data.get("validation", {})
        if isinstance(val_raw, dict):
            n_errors = len(errors)
            counts = {}
            for key, default, low in (("horizon", 400, 1), ("n_runs", 2000, 2)):
                value = counts[key] = val_raw.get(key, default)
                if not _is_int(value) or value < low:
                    errors.append(
                        f"validation.{key} must be an integer >= {low}, got {value!r}"
                    )
            x0 = val_raw.get("x0", [1.0] * system.n)
            if isinstance(x0, list) and len(x0) == system.n:
                x0 = np.array([
                    _number(v, f"validation.x0[{i}]", errors) for i, v in enumerate(x0)
                ])
            else:
                errors.append(
                    f"validation.x0 must be a list of {system.n} numbers, got {x0!r}"
                )
            if len(errors) == n_errors:
                validation = ValidationSettings(x0=x0, **counts)
        else:
            errors.append("validation must be an object")

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        errors.append("output_dir must be a string")
        output_dir = "out"

    if errors:
        raise ConfigValidationError(errors)
    return ExperimentConfig(
        system=system,
        noise=noise,
        schedule=schedule,
        graph=graph,
        gain_mode=gain_mode,
        consensus_weight=consensus_weight,
        rounds=rounds,
        seeds=seeds,
        shared_noise=shared_noise,
        init=init,
        spread_scale=spread_scale,
        oracle_tol=oracle_tol,
        oracle_max_iter=oracle_max_iter,
        validation=validation,
        output_dir=output_dir,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return from_dict(data)


def preset_names() -> list[str]:
    files = resources.files("lqlearn").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir()
                  if p.name.endswith(".json"))


def load_preset(name: str) -> ExperimentConfig:
    """Load one of the shipped presets (e.g. "paper_sec4")."""
    try:
        text = (
            resources.files("lqlearn")
            .joinpath(f"presets/{name}.json")
            .read_text(encoding="utf-8")
        )
    except FileNotFoundError:
        raise ConfigParseError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return from_dict(json.loads(text))
