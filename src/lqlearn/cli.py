"""Experiment orchestration CLI.

Subcommands:
  oracle               solve the ground-truth Riccati fixed point, write oracle.json
  run                  run the learner(s), write trace.csv / summary.json / plots
  validate-controller  check a learned gain against the oracle, write a report

Exit codes: 0 clean, 2 validation error, 3 all runs diverged, 4 oracle
failure, 5 partial divergence. Log verbosity via the QLEARN_LOG env var.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys as _sys
from pathlib import Path

import numpy as np

from .config import (
    RNG_FAMILY,
    ExperimentConfig,
    from_dict,
    preset_file,
    preset_names,
    read_json,
)
from .distributed import run_distributed
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    DivergedError,
    LqLearnError,
    NoConvergenceError,
    NotStabilizingError,
)
from .lqcore import (
    OracleSolution,
    QFactor,
    gamma_map,
    ms_stability_check,
    riccati_residual,
    solve_oracle,
)
from .network import allocate_gains
from .qlearning import single_sensor
from .sampling import RngStream, monte_carlo_cost
from .svgplot import line_plot

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ALL_DIVERGED = 3
EXIT_ORACLE = 4
EXIT_PARTIAL_DIVERGED = 5

SUMMARY_SCHEMA_VERSION = 1

# Stream ids: 0 drives learning noise, 1 drives validation Monte Carlo.
_STREAM_LEARN = 0
_STREAM_VALIDATE = 1

log = logging.getLogger("lqlearn")


def _listify(mat: np.ndarray) -> list:
    return np.asarray(mat, dtype=float).tolist()


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve(config: ExperimentConfig) -> OracleSolution:
    return solve_oracle(
        config.system,
        config.noise,
        oracle_tol=config.oracle_tol,
        max_iter=config.oracle_max_iter,
    )


def cmd_oracle(config: ExperimentConfig, out_dir: Path) -> int:
    oracle = _solve(config)
    report = ms_stability_check(oracle.K_star, config.system, config.noise)
    payload = {
        "G_star": _listify(oracle.G_star.mat),
        "P": _listify(oracle.P),
        "K_star": _listify(oracle.K_star.K),
        "residual": oracle.residual,
        "riccati_residual": riccati_residual(oracle.P, config.system, config.noise),
        "iterations": oracle.iterations,
        "spectral_radius": report.spectral_radius,
        "stable": report.stable,
    }
    _write_json(out_dir / "oracle.json", payload)
    print(
        f"oracle: converged in {oracle.iterations} iterations, "
        f"residual {oracle.residual:.3e}, ms spectral radius "
        f"{report.spectral_radius:.6f}"
    )
    return EXIT_OK


def _trace_stats(trace) -> dict:
    stats = {
        "rounds": trace.n_rounds,
        "n_sensors": trace.n_sensors,
        "final_norm1": trace.norm1[-1],
        "max_fro_norm": trace.max_fro_norm,
        "final_diameter": trace.diameters[-1],
        "final_G_mean": _listify(trace.final_mean()),
    }
    if trace.fro_err is not None:
        stats["final_fro_err"] = trace.fro_err[-1]
        stats["final_mean_err"] = trace.mean_err[-1]
        stats["max_mean_err"] = max(trace.mean_err)
    return stats


def _plot_trace(trace, plot_dir: Path, kind: str) -> None:
    plot_dir.mkdir(parents=True, exist_ok=True)
    plots = [("norm1_G", trace.norm1, "Entrywise 1-norm of estimates",
              "||G_i(k)||_1")]
    if trace.fro_err is not None:
        plots.append(("fro_err", trace.fro_err, "Error to oracle G*",
                      "||G_i(k) - G*||_F"))
    for name, column, title, ylabel in plots:
        # One row per round -> one series per sensor.
        series = [(f"sensor {s}", ys) for s, ys in enumerate(zip(*column))]
        line_plot(plot_dir / f"{name}_{kind}.svg", series, f"{title} ({kind})",
                  "iteration k", ylabel)


def _run_one_seed(
    config: ExperimentConfig,
    mode: str,
    seed: int,
    oracle: OracleSolution,
    seed_dir: Path,
) -> dict:
    entry: dict = {"seed": seed, "status": "ok"}
    seed_dir.mkdir(parents=True, exist_ok=True)
    dims = (config.system.n, config.system.m)
    # kind -> (graph, gains, options); the centralized run is one sensor
    # with L_1 = I on the learning stream itself.
    learners = {
        "centralized": (*single_sensor(config.system), {}),
        "distributed": (
            config.graph,
            allocate_gains(config.graph, dims, config.gain_mode),
            {
                "w": config.consensus_weight,
                "shared_noise": config.shared_noise,
                "init": config.init,
                "spread_scale": config.spread_scale,
            },
        ),
    }
    kinds = tuple(learners) if mode == "both" else (mode,)
    try:
        for kind in kinds:
            graph, gains, options = learners[kind]
            trace = run_distributed(
                config.system,
                config.noise,
                graph,
                gains,
                config.schedule,
                config.rounds,
                RngStream(seed, _STREAM_LEARN),
                oracle=oracle,
                **options,
            )
            name = f"trace_{kind}.csv" if mode == "both" else "trace.csv"
            trace.write_csv(seed_dir / name)
            _plot_trace(trace, seed_dir / "plots", kind)
            entry[kind] = _trace_stats(trace)
    except DivergedError as exc:
        entry["status"] = "diverged"
        entry["kind"] = kind
        entry["round"] = exc.step
        if exc.sensor is not None:
            entry["sensor"] = exc.sensor
        if exc.norm is not None:
            # JSON has no NaN or infinity: a non-finite norm is written as
            # its Python spelling, "nan" or "inf".
            entry["norm"] = exc.norm if np.isfinite(exc.norm) else repr(exc.norm)
        log.warning("seed %d %s learner diverged: %s", seed, kind, exc)
    return entry


def _median_over(runs: list[dict], kind: str, key: str):
    values = [
        run[kind][key]
        for run in runs
        if run["status"] == "ok" and kind in run and run[kind].get(key) is not None
    ]
    return statistics.median(values) if values else None


def cmd_run(config: ExperimentConfig, mode: str, out_dir: Path) -> int:
    oracle = _solve(config)
    runs = []
    for seed in config.seeds:
        seed_dir = out_dir / f"seed_{seed:04d}"
        entry = _run_one_seed(config, mode, seed, oracle, seed_dir)
        runs.append(entry)
        log.info("seed %d: %s", seed, entry["status"])

    medians = {}
    for kind in ("centralized", "distributed"):
        if any(kind in run for run in runs):
            medians[kind] = {
                "final_mean_err": _median_over(runs, kind, "final_mean_err"),
                "final_diameter": _median_over(runs, kind, "final_diameter"),
                "max_fro_norm": _median_over(runs, kind, "max_fro_norm"),
            }
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "rng": RNG_FAMILY,
        "mode": mode,
        "rounds": config.rounds,
        "n_sensors": config.graph.n_sensors,
        "shared_noise": config.shared_noise,
        "init": config.init,
        "seeds": list(config.seeds),
        "oracle": {
            "residual": oracle.residual,
            "iterations": oracle.iterations,
            "G_star": _listify(oracle.G_star.mat),
            "P": _listify(oracle.P),
            "K_star": _listify(oracle.K_star.K),
        },
        "runs": runs,
        "medians": medians,
    }
    _write_json(out_dir / "summary.json", summary)

    n_diverged = sum(run["status"] == "diverged" for run in runs)
    print(
        f"run: mode={mode}, {len(runs)} seed(s), {n_diverged} diverged, "
        f"output in {out_dir}"
    )
    if n_diverged == len(runs):
        return EXIT_ALL_DIVERGED
    if n_diverged > 0:
        return EXIT_PARTIAL_DIVERGED
    return EXIT_OK


def _read_run(config: ExperimentConfig, summary_path: Path, seed: int | None):
    """(seed, kind, final averaged estimate) of one run in summary.json.

    seed None picks the summary's first seed; kind and the estimate are None
    when that seed has no clean run. An unreadable or wrongly shaped summary
    raises OSError, ValueError, LookupError or TypeError.
    """
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if seed is None:
        seed = summary["seeds"][0]
    run = next((r for r in summary["runs"] if r["seed"] == seed), None)
    if run is None or run["status"] != "ok":
        return seed, None, None
    kind = "distributed" if "distributed" in run else "centralized"
    G_final = QFactor.symmetrized(
        np.asarray(run[kind]["final_G_mean"], dtype=float),
        config.system.n,
        config.system.m,
    )
    return seed, kind, G_final


def cmd_validate_controller(
    config: ExperimentConfig, out_dir: Path, seed: int | None
) -> int:
    summary_path = out_dir / "summary.json"
    try:
        seed, kind, G_final = _read_run(config, summary_path, seed)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        print(f"cannot read {summary_path}: {type(exc).__name__}: {exc} "
              "(run `lqlearn run` first)", file=_sys.stderr)
        return EXIT_VALIDATION
    oracle = _solve(config)
    if G_final is None:
        print(f"no clean run for seed {seed} in {summary_path}", file=_sys.stderr)
        return EXIT_VALIDATION

    learned = gamma_map(G_final.mat, G_final.n)
    gain_gap = float(np.linalg.norm(learned.K - oracle.K_star.K))
    report = ms_stability_check(learned, config.system, config.noise)

    val = config.validation
    oracle_value = float(val.x0 @ oracle.P @ val.x0)
    mc = None
    if report.stable:
        est = monte_carlo_cost(
            config.system,
            config.noise,
            learned,
            val.x0,
            val.horizon,
            val.n_runs,
            RngStream(seed, _STREAM_VALIDATE),
        )
        mc = {"mean": est.mean, "std_err": est.std_err,
              "n_runs": est.n_runs, "horizon": est.horizon}

    payload = {
        "seed": seed,
        "kind": kind,
        "gain_gap_fro": gain_gap,
        "learned_K": _listify(learned.K),
        "oracle_K": _listify(oracle.K_star.K),
        "ms_spectral_radius": report.spectral_radius,
        "stable": report.stable,
        "oracle_value_x0": oracle_value,
        "monte_carlo_cost": mc,
    }
    _write_json(out_dir / "controller_report.json", payload)
    flag = "" if report.stable else " [NOT mean-square stabilizing]"
    print(
        f"validate: seed {seed}, ||K_learned - K*||_F = {gain_gap:.6g}, "
        f"ms radius {report.spectral_radius:.6f}{flag}"
    )
    return EXIT_OK


def _seeds_arg(raw: str):
    """--seeds as its config value: a count ("3") or a list ("1,2")."""
    try:
        return [int(tok) for tok in raw.split(",")] if "," in raw else int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a count or comma-separated list, got {raw!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqlearn",
        description="Distributed Q-learning for stochastic LQ control "
        "with multiplicative noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("oracle", "run", "validate-controller"):
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="JSON config file")
        src.add_argument(
            "--preset",
            choices=preset_names(),
            help="shipped preset; paper_sec4 fixes four sensors but no "
            "particular wiring, so it defaults to ring:4",
        )
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: config output_dir)")
        if name == "run":
            p.add_argument(
                "--mode",
                choices=("centralized", "distributed", "both"),
                default="distributed",
            )
            p.add_argument("--seeds", type=_seeds_arg, default=None,
                           help="count or comma-separated list, overrides config")
            p.add_argument("--rounds", type=int, default=None,
                           help="override iteration budget")
        if name == "validate-controller":
            p.add_argument("--seed", type=int, default=None,
                           help="seed whose final estimate to validate")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QLEARN_LOG", "WARNING").upper()
    if level not in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        data = read_json(args.config or preset_file(args.preset))
        # --rounds and --seeds replace the config's fields before validation.
        overrides = {key: getattr(args, key, None) for key in ("rounds", "seeds")}
        if isinstance(data, dict):
            data.update((k, v) for k, v in overrides.items() if v is not None)
        config = from_dict(data)
    except (ConfigParseError, ConfigValidationError) as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_VALIDATION

    out_dir = args.out if args.out is not None else Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "oracle":
            return cmd_oracle(config, out_dir)
        if args.command == "run":
            return cmd_run(config, args.mode, out_dir)
        return cmd_validate_controller(config, out_dir, args.seed)
    except (NoConvergenceError, NotStabilizingError) as exc:
        log.error("oracle failed: %s", exc)
        print(f"oracle failed: {exc}", file=_sys.stderr)
        return EXIT_ORACLE
    except LqLearnError as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
