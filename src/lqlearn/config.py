"""Experiment configuration: JSON ingestion, validation, shipped presets.

A config is a single JSON file; matrices are row-major nested lists (a bare
number is accepted as a 1x1 matrix). Validation runs every module-level
precondition up front and reports all violations at once rather than failing
on the first, each named by its field path; a key at any depth that no field
reads is one of them.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .distributed import Schedule
from .errors import (
    BadSpecError,
    ConfigParseError,
    ConfigValidationError,
    DisconnectedError,
    NotContractiveError,
)
from .lqcore import DEFAULT_ORACLE_MAX_ITER, DEFAULT_ORACLE_TOL, NoiseModel, SystemModel
from .network import Graph, build_graph, consensus_operator

RNG_FAMILY = "philox4x64-invcdf"

# The largest seed count "seeds" may give: the count is expanded into the
# tuple of seeds 0..n-1, one learning run each.
MAX_SEED_COUNT = 100_000

# Default of a field that must be present.
_REQUIRED = object()


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


def _build(errors: list[str], path: str, make, *args, **kwargs):
    """make(*args, **kwargs), or None with its rejection added to errors
    under path. None as an argument is a value already rejected, so nothing
    is built."""
    if None in args or None in kwargs.values():
        return None
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError, BadSpecError, DisconnectedError,
            NotContractiveError) as exc:
        errors.append(f"{path}: {exc}")
        return None


class _Fields:
    """Reads the fields of one JSON object at a field path.

    Each read marks its key as known and adds any violation to the shared
    error list, named by the field's path; a read returns None for a value it
    rejects. close() reports every key that no read asked for, so the
    accepted keys are exactly the keys read.
    """

    def __init__(self, data: dict, path: str, errors: list[str]):
        self.data, self.path, self.errors = data, path, errors
        self.unread = dict.fromkeys(data)

    def _path(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def value(self, key: str, default=_REQUIRED):
        """(field path, raw value); a missing required field is reported and
        comes back as _REQUIRED."""
        self.unread.pop(key, None)
        if key not in self.data and default is _REQUIRED:
            self.errors.append(f"missing field {self._path(key)!r}")
        return self._path(key), self.data.get(key, default)

    def check(self, path: str, value, ok: bool, rule: str):
        """value when ok; otherwise None, with "<path> must be <rule>" unless
        the field is missing, which is already reported."""
        if ok:
            return value
        if value is not _REQUIRED:
            self.errors.append(f"{path} must be {rule}, got {value!r}")
        return None

    def finite(self, value, path: str) -> float | None:
        """value as a float when it is a finite JSON number. json.loads
        accepts NaN and Infinity; an integer beyond float range counts as
        infinite."""
        if self.check(path, value, _is_number(value), "a number") is None:
            return None
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        self.errors.append(f"{path} must be a finite number")
        return None

    def number(self, key: str, default=_REQUIRED) -> float | None:
        """A finite number; null is accepted where the default is null."""
        path, value = self.value(key, default)
        if value is _REQUIRED or (value is None and default is None):
            return None
        return self.finite(value, path)

    def integer(self, key: str, low: int, default=_REQUIRED) -> int | None:
        path, value = self.value(key, default)
        return self.check(path, value, _is_int(value) and value >= low,
                          f"an integer >= {low}")

    def typed(self, key: str, kind: type, noun: str, default=_REQUIRED):
        """A value of Python type kind, described as noun in the violation."""
        path, value = self.value(key, default)
        return self.check(path, value, isinstance(value, kind), noun)

    def choice(self, key: str, options: tuple, label: str | None = None):
        """One of options, the first being the default; label names the
        field in the violation instead of its path."""
        path, value = self.value(key, options[0])
        if value in options:
            return value
        self.errors.append(
            f"unsupported {label or path} {value!r} ({' or '.join(options)} only)"
        )
        return None

    def matrix(self, key: str) -> list | None:
        """A row-major nested list of finite numbers, its rows non-empty and
        of equal length; a bare number is 1x1."""
        path, raw = self.value(key)
        if _is_number(raw):
            value = self.finite(raw, path)
            return None if value is None else [[value]]
        rows_ok = isinstance(raw, list) and raw and all(
            isinstance(row, list) and row and all(map(_is_number, row))
            for row in raw
        ) and len({len(row) for row in raw}) == 1
        rule = ("a row-major nested list of numbers with rows of equal length "
                "(or a bare number)")
        if self.check(path, raw, rows_ok, rule) is None:
            return None
        rows = [[self.finite(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
                for i, row in enumerate(raw)]
        return None if any(None in row for row in rows) else rows

    def object(self, key: str, read, default=_REQUIRED):
        """read(the nested object's _Fields), then its unknown keys reported;
        None when the field is missing or not an object."""
        path, value = self.value(key, default)
        if self.check(path, value, isinstance(value, dict), "an object") is None:
            return None
        fields = _Fields(value, path, self.errors)
        result = read(fields)
        fields.close()
        return result

    def close(self) -> None:
        self.errors.extend(f"unknown field {self._path(key)!r}" for key in self.unread)


def _system(f: _Fields) -> SystemModel | None:
    mats = {name: f.matrix(name) for name in ("A", "A_bar", "B", "B_bar", "Q", "R")}
    return _build(f.errors, f.path, SystemModel, **mats)


def _noise(f: _Fields) -> NoiseModel | None:
    f.choice("family", ("gaussian",), "noise family")
    return _build(f.errors, f.path, NoiseModel,
                  mu=f.number("mu", 0.0), sigma2=f.number("sigma2", 0.0))


def _schedule(f: _Fields) -> Schedule | None:
    """Schedule's own defaults fill the keys that are absent."""
    params = {
        key: f.integer(key, 1) if key == "offset" else f.number(key)
        for key in ("exponent", "offset", "scale") if key in f.data
    }
    return _build(f.errors, f.path, Schedule, **params)


def _oracle(f: _Fields) -> tuple:
    tol = f.number("tol", DEFAULT_ORACLE_TOL)
    if tol is not None and tol <= 0:
        f.errors.append("oracle.tol must be > 0")
    return tol, f.integer("max_iter", 1, DEFAULT_ORACLE_MAX_ITER)


def _validation(f: _Fields, n: int | None) -> ValidationSettings | None:
    """n is the state dimension, None when the system was rejected."""
    horizon, n_runs = f.integer("horizon", 1, 400), f.integer("n_runs", 2, 2000)
    path, x0 = f.value("x0", [1.0] * (n or 0))
    if n is None or f.check(path, x0, isinstance(x0, list) and len(x0) == n,
                            f"a list of {n} numbers") is None:
        return None
    x0 = [f.finite(v, f"{path}[{i}]") for i, v in enumerate(x0)]
    return ValidationSettings(x0=np.array(x0), horizon=horizon, n_runs=n_runs)


def _seeds(top: _Fields) -> tuple:
    """A count n in [1, MAX_SEED_COUNT] (seeds 0..n-1) or a list of distinct
    seeds in [0, 2**64), the seeds RngStream takes."""
    path, seeds = top.value("seeds", 1)
    if _is_int(seeds) and 1 <= seeds <= MAX_SEED_COUNT:
        return tuple(range(seeds))
    listed = isinstance(seeds, list) and seeds and all(map(_is_int, seeds))
    rule = f"a count in [1, {MAX_SEED_COUNT}] or a non-empty list of integers"
    if top.check(path, seeds, listed, rule) is None:
        return ()
    top.errors.extend(
        f"seed {s} is outside [0, 2**64)" for s in seeds if not 0 <= s < 2**64
    )
    top.errors.extend(
        f"seed {s} is listed {n} times" for s, n in Counter(seeds).items() if n > 1
    )
    return tuple(seeds)


def from_dict(data: dict) -> ExperimentConfig:
    """Build and fully validate a config; raises ConfigValidationError with
    every violation found."""
    if not isinstance(data, dict):
        raise ConfigValidationError(["top level must be a JSON object"])
    errors: list[str] = []
    top = _Fields(data, "", errors)

    system = top.object("system", _system)
    noise = top.object("noise", _noise)
    schedule = top.object("schedule", _schedule, {})
    graph = _build(errors, "graph", build_graph,
                   top.typed("graph", str, "a topology descriptor string"))
    gain_mode = top.choice("gain_mode", ("uniform", "masked"))
    # null selects a weight that always contracts, so only a set one is checked.
    consensus_weight = top.number("consensus_weight", None)
    _build(errors, "consensus_weight", consensus_operator, graph, consensus_weight)
    rounds = top.integer("rounds", 1, 200)
    seeds = _seeds(top)
    shared_noise = top.typed("shared_noise", bool, "a boolean", True)
    init = top.choice("init", ("identity", "spread"))
    spread_scale = top.number("spread_scale", 0.1)
    if spread_scale is not None and spread_scale < 0:
        errors.append("spread_scale must be >= 0")
    top.choice("rng", (RNG_FAMILY,), "rng family")
    oracle_tol, oracle_max_iter = top.object("oracle", _oracle, {}) or (None, None)
    validation = top.object(
        "validation", lambda f: _validation(f, system and system.n), {}
    )
    output_dir = top.typed("output_dir", str, "a string", "out")
    top.close()

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


def read_json(source) -> object:
    """The parsed JSON text of source, a path or a packaged resource;
    raises ConfigParseError when it cannot be read or parsed."""
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal too long for int()
        raise ConfigParseError(f"{source}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    return from_dict(read_json(Path(path)))


def preset_names() -> list[str]:
    files = resources.files("lqlearn").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir()
                  if p.name.endswith(".json"))


def preset_file(name: str):
    """The packaged JSON file of a shipped preset."""
    path = resources.files("lqlearn").joinpath(f"presets/{name}.json")
    if not path.is_file():
        raise ConfigParseError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return path


def load_preset(name: str) -> ExperimentConfig:
    """Load one of the shipped presets (e.g. "paper_sec4")."""
    return from_dict(read_json(preset_file(name)))
