"""Experiment orchestration CLI.

Subcommands:
  oracle               solve the ground-truth Riccati fixed point, write oracle.json
  run                  run the learner(s), write trace.csv / summary.json / plots
  validate-controller  check a learned gain against the oracle, write a report

`run` builds its learners once, keeping only --mode's kind unless it is
"both", and learns its seeds a group at a time (trace.group_seeds, which
counts every kind's traces, bounds the floats a group's traces hold, and so
the (S*N, d, d) temporaries of a round on the flat sensor axis). Each group
is one distributed.run_learners call that steps all kinds together, the
centralized first; then each seed writes its traces, plots and summary
entry, kind by kind. run_learners gives every kind its own outcome; the
rule that a seed which diverged under one kind has no outcome for the
later ones lives in _run_group alone. Every output file and log line is
the same as when each kind and seed runs alone, in seed order.

`validate-controller` takes the oracle from the G* that the run stored in
summary.json once one Picard step certifies it under the given config (the
oracle's own residual test and a mean-square stabilizing K*, with no
warning), and solves the oracle only when that test fails or no G* is
stored. JSON keeps a float's bits, so an unchanged problem gets the solved
oracle's bits.

Every failure leaves through one handler in main. Exit codes: 0 clean, 2
validation error (config, summary or unwritable output), 3 all runs diverged,
4 oracle failure, 5 partial divergence. Log verbosity via the QLEARN_LOG env var.
Every JSON file written spells a non-finite number "nan", "inf" or "-inf".
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys as _sys
import warnings
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
from .distributed import run_learners
from .errors import (
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
from .trace import group_seeds

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


def _spelled(value):
    """JSON has no NaN or infinity: value with each non-finite float spelled
    as Python does, "nan", "inf" or "-inf"."""
    if isinstance(value, dict):
        return {key: _spelled(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_spelled, value))
    if isinstance(value, float) and not np.isfinite(value):
        return repr(float(value))
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_spelled(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _solve(config: ExperimentConfig) -> OracleSolution:
    return solve_oracle(
        config.system,
        config.noise,
        oracle_tol=config.oracle_tol,
        max_iter=config.oracle_max_iter,
    )


def _reuse_or_solve(config: ExperimentConfig, stored) -> OracleSolution:
    """The oracle from stored, a run's G* as summary.json holds it, when one
    Picard step from it passes solve_oracle's test under config; otherwise,
    or with no stored G*, the oracle solved from diag(Q, R). Logs which."""
    reason = "no G* in the summary"
    if stored is not None:
        try:
            # A warning (a rank-deficient G_uu, an overflow) fails the test
            # too, so only the solve, as without a stored G*, can warn.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                oracle = solve_oracle(
                    config.system,
                    config.noise,
                    oracle_tol=config.oracle_tol,
                    max_iter=1,
                    start=stored,
                )
        except (ValueError, TypeError, Warning, NoConvergenceError,
                NotStabilizingError) as exc:
            reason = f"the summary's G* failed: {exc}"
        else:
            log.info("G* from the summary, residual %.3e", oracle.residual)
            return oracle
    oracle = _solve(config)
    log.info("G* solved in %d iterations (%s)", oracle.iterations, reason)
    return oracle


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
    return {
        "rounds": trace.n_rounds,
        "n_sensors": trace.n_sensors,
        "final_norm1": trace.norm1[-1].tolist(),
        "max_fro_norm": trace.max_fro_norm,
        "final_diameter": trace.diameters[-1],
        "final_G_mean": _listify(trace.final_mean()),
        "final_fro_err": trace.fro_err[-1].tolist(),
        "final_mean_err": trace.mean_err[-1],
        "max_mean_err": max(trace.mean_err),
    }


def _plot_trace(trace, plot_dir: Path, kind: str) -> None:
    plot_dir.mkdir(parents=True, exist_ok=True)
    plots = [("norm1_G", trace.norm1, "Entrywise 1-norm of estimates",
              "||G_i(k)||_1"),
             ("fro_err", trace.fro_err, "Error to oracle G*",
              "||G_i(k) - G*||_F")]
    for name, column, title, ylabel in plots:
        # One (rounds,) column per sensor -> one series per sensor.
        series = [(f"sensor {s}", ys) for s, ys in enumerate(column.T)]
        line_plot(plot_dir / f"{name}_{kind}.svg", series, f"{title} ({kind})",
                  "iteration k", ylabel)


def _learners(config: ExperimentConfig) -> dict:
    """kind -> (graph, gains, options); the centralized run is one sensor
    with L_1 = I on the learning stream itself."""
    dims = (config.system.n, config.system.m)
    return {
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


def _diverged_entry(entry: dict, kind: str, exc: DivergedError) -> None:
    entry["status"] = "diverged"
    entry["kind"] = kind
    entry["round"] = exc.step
    if exc.sensor is not None:
        entry["sensor"] = exc.sensor
    if exc.norm is not None:
        entry["norm"] = exc.norm


def _run_group(
    config: ExperimentConfig,
    learners: dict,
    seeds,
    oracle: OracleSolution,
    out_dir: Path,
) -> list[dict]:
    """Learn a group of seeds, all kinds in one run_learners call, and write
    each seed's traces, plots and summary entry, kind by kind, up to the
    seed's first DivergedError: the later kinds' outcomes, which
    run_learners still returns, are skipped. Logs each seed's outcome in
    seed order."""
    entries = {seed: {"seed": seed, "status": "ok"} for seed in seeds}
    errors = {}
    for seed in seeds:
        (out_dir / f"seed_{seed:04d}").mkdir(parents=True, exist_ok=True)
    name = "trace_{}.csv" if len(learners) > 1 else "trace.csv"
    results = run_learners(
        config.system,
        config.noise,
        list(learners.values()),
        config.schedule,
        config.rounds,
        [RngStream(seed, _STREAM_LEARN) for seed in seeds],
        oracle=oracle,
    )
    for seed, outcomes in zip(seeds, results):
        seed_dir = out_dir / f"seed_{seed:04d}"
        for kind, trace in zip(learners, outcomes):
            if isinstance(trace, DivergedError):
                errors[seed] = trace
                _diverged_entry(entries[seed], kind, trace)
                break
            trace.write_csv(seed_dir / name.format(kind))
            _plot_trace(trace, seed_dir / "plots", kind)
            entries[seed][kind] = _trace_stats(trace)
    for seed in seeds:
        if seed in errors:
            log.warning("seed %d %s learner diverged: %s", seed,
                        entries[seed]["kind"], errors[seed])
        log.info("seed %d: %s", seed, entries[seed]["status"])
    return list(entries.values())


def _median_over(runs: list[dict], kind: str, key: str):
    values = [
        run[kind][key]
        for run in runs
        if kind in run and run[kind].get(key) is not None
    ]
    return statistics.median(values) if values else None


def cmd_run(config: ExperimentConfig, mode: str, out_dir: Path) -> int:
    oracle = _solve(config)
    learners = _learners(config)
    if mode != "both":
        learners = {mode: learners[mode]}
    # Seeds are learned a group at a time, so only one group's traces, those
    # of every kind, are alive at once and a round's temporaries stay
    # bounded (trace.group_seeds).
    size = group_seeds([graph.n_sensors for graph, _, _ in learners.values()],
                       config.system.n + config.system.m, config.rounds)
    seeds = config.seeds
    runs = []
    for start in range(0, len(seeds), size):
        group = seeds[start:start + size]
        runs.extend(_run_group(config, learners, group, oracle, out_dir))

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
    """(seed, kind, final averaged estimate, stored G*) of one run in
    summary.json; seed None picks the summary's first seed, and the stored
    G* is the oracle block's G_star as read, None when there is none.
    Raises LqLearnError when the summary cannot be read or is wrongly
    shaped, when the seed is not in it, or when its run diverged."""
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if seed is None:
            seed = summary["seeds"][0]
        run = next((r for r in summary["runs"] if r["seed"] == seed), None)
        if run is None:
            listed = ", ".join(map(str, summary["seeds"]))
            raise LqLearnError(f"seed {seed} is not in {summary_path} "
                               f"(seeds: {listed})")
        if run["status"] != "ok":
            raise LqLearnError(f"no clean run for seed {seed} in {summary_path}")
        kind = "distributed" if "distributed" in run else "centralized"
        final = np.asarray(run[kind]["final_G_mean"], dtype=float)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise LqLearnError(
            f"cannot read {summary_path}: {type(exc).__name__}: {exc} "
            "(run `lqlearn run` first)") from exc
    try:
        G_final = QFactor(final, config.system.n, config.system.m)
    except ValueError as exc:
        raise LqLearnError(f"{summary_path}: seed {seed} has no usable "
                           f"final_G_mean: {exc}") from exc
    oracle = summary.get("oracle")
    stored = oracle.get("G_star") if isinstance(oracle, dict) else None
    return seed, kind, G_final, stored


def cmd_validate_controller(
    config: ExperimentConfig, out_dir: Path, seed: int | None
) -> int:
    seed, kind, G_final, stored = _read_run(config, out_dir / "summary.json", seed)
    oracle = _reuse_or_solve(config, stored)

    learned = gamma_map(G_final.mat, G_final.n)
    # A huge learned gain overflows the norm to inf, which the report keeps.
    with np.errstate(over="ignore"):
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
        out_dir = args.out if args.out is not None else Path(config.output_dir)
        if args.command == "oracle":
            return cmd_oracle(config, out_dir)
        if args.command == "run":
            return cmd_run(config, args.mode, out_dir)
        return cmd_validate_controller(config, out_dir, args.seed)
    except (NoConvergenceError, NotStabilizingError) as exc:
        print(f"oracle failed: {exc}", file=_sys.stderr)
        return EXIT_ORACLE
    except LqLearnError as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # read_json and _read_run wrap their read errors, so this is an
        # output under out_dir that cannot be written.
        print(f"cannot write output in {out_dir}: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
