"""One lqlearn benchmark workload, run in a fresh process by ``bench/run.py``.

Protocol on standard output: the line ``READY`` once set-up is done (the
parent times set-up from process start to that line), the line ``LOOP <s>``
with the calibration loop's time right after it, then, unless
``--setup-only`` is given, one JSON line with every repetition's wall time,
output checks and digests, and the traced per-layer figures when asked.

The program receives only the config file this module generates from the
``paper_sec4`` preset and the workload seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import calibration
from tracing import Tracer, call_paths, install, per_function

ROOT = Path(__file__).resolve().parent.parent

import lqlearn  # noqa: E402  (PYTHONPATH points at ROOT/src; checked in main)
from lqlearn import cli, config, distributed, lqcore, network, sampling  # noqa: E402
from lqlearn.errors import DivergedError, RankDeficientWarning  # noqa: E402

# |MC mean - exact cost| / std_err above this fails the validate_mc check.
# Multiplicative noise makes the rollout cost right-skewed, so the z of 250
# rollouts has a heavy lower tail: under K* it reached -4.49 over 400 seeds.
MC_Z_BOUND = 6.0

# Work per repetition. "full" sizes each repetition to 1-2 s on one 2.1 GHz
# Xeon vCPU, so a 30 s run takes 12-25 repetitions and the calibration loop
# around each one tracks the machine's speed closely (4 s repetitions spread
# twice as much from run to run); "smoke" keeps the harness under seconds.
SIZES = {
    "full": {
        "sweep_seeds": 5, "sweep_rounds": 200,
        "ring_seeds": 1, "ring_rounds": 250,
        "mc_learn_rounds": 200, "mc_runs": 250, "mc_horizon": 400,
    },
    "smoke": {
        "sweep_seeds": 2, "sweep_rounds": 20,
        "ring_seeds": 2, "ring_rounds": 20,
        "mc_learn_rounds": 20, "mc_runs": 20, "mc_horizon": 50,
    },
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def combined_digest(digests: dict) -> str:
    blob = json.dumps(digests, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def start_error(cfg: dict, G_star: np.ndarray) -> float:
    """||diag(Q, R) - G*||_F, the error of the learners' initial iterate."""
    Q = np.atleast_2d(np.asarray(cfg["system"]["Q"], dtype=float))
    R = np.atleast_2d(np.asarray(cfg["system"]["R"], dtype=float))
    n, m = Q.shape[0], R.shape[0]
    G0 = np.zeros((n + m, n + m))
    G0[:n, :n] = Q
    G0[n:, n:] = R
    return float(np.linalg.norm(G0 - G_star))


def exact_cost(cfg: dict, K: np.ndarray, horizon: int) -> float:
    """Expected cost sum_{k<horizon} x_k'(Q + K'RK)x_k of u = Kx from x0.

    Computed from the config's matrices alone, without lqlearn.sampling:
    the second moment obeys vec(M(k+1)) = T vec(M(k)) (column-major vec), so
    vec(P_K) = (I - T')^-1 (I - T'^horizon) vec(Q + K'RK) and the cost is
    x0' P_K x0. The (I - T'^horizon) factor is the truncation the Monte Carlo
    estimate makes; for a mean-square stable loop it tends to I.
    """
    s = cfg["system"]
    A, Ab, B, Bb, Q, R = (
        np.atleast_2d(np.asarray(s[k], dtype=float))
        for k in ("A", "A_bar", "B", "B_bar", "Q", "R")
    )
    mu = float(cfg["noise"]["mu"])
    m2 = mu * mu + float(cfg["noise"]["sigma2"])
    x0 = np.asarray(cfg["validation"]["x0"], dtype=float)
    Acl, Abcl = A + B @ K, Ab + Bb @ K
    T = (
        np.kron(Acl, Acl)
        + mu * (np.kron(Acl, Abcl) + np.kron(Abcl, Acl))
        + m2 * np.kron(Abcl, Abcl)
    )
    n2 = T.shape[0]
    C = Q + K.T @ R @ K
    trunc = np.eye(n2) - np.linalg.matrix_power(T.T, horizon)
    vec_p = np.linalg.solve(np.eye(n2) - T.T, trunc @ C.reshape(-1, order="F"))
    P = vec_p.reshape(A.shape, order="F")
    return float(x0 @ P @ x0)


# Computed operation counts (multiply and add each one flop; the SVD and
# pseudo-inverse of the m x m block are left out).
def _mm(a: int, b: int, c: int) -> int:
    """Flops of an (a x b) @ (b x c) product."""
    return a * c * (2 * b - 1)


def flops_realize(n: int, m: int) -> int:
    return 2 * n * n + 2 * n * m


def flops_sensor_update(n: int, m: int, degree: int) -> int:
    """One sensor update at a vertex of this degree (degree 0: centralized step)."""
    d = n + m
    pi = _mm(n, m, m) + _mm(n, m, n) + n * n + 2 * n * n
    y = pi + _mm(d, n, n) + _mm(d, n, d) + n * n + m * m + d * d + 2 * d * d
    consensus = 3 * d * d * degree
    innovation = 2 * d * d
    symmetrize = 2 * d * d
    guard = 2 * d * d
    return y + consensus + innovation + symmetrize + guard


def flops_rollout_step(n: int, m: int) -> int:
    u = _mm(m, n, 1)
    cost = _mm(1, n, n) + _mm(1, n, 1) + _mm(1, m, m) + _mm(1, m, 1) + 1
    step = flops_realize(n, m) + _mm(n, n, 1) + _mm(n, m, 1) + n
    return u + cost + step + 2 * n


class Workload:
    """Set-up, one measured repetition, and the checks on its outputs."""

    name = ""
    # Functions whose traced self time counts as arithmetic for the achieved rate.
    arithmetic = ()

    def __init__(self, base_seed: int, size: dict, work: Path):
        self.base = base_seed
        self.size = size
        self.work = work
        self.updates = 0
        self.rollout_steps = 0
        self.attempts = 0
        self.flops = 0

    def write_config(self, **overrides) -> Path:
        cfg = {**preset(), **overrides}
        self.cfg = cfg
        path = self.work / "config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        self.config = config.load_config(path)
        c = self.config
        self.oracle = lqcore.solve_oracle(
            c.system, c.noise, oracle_tol=c.oracle_tol, max_iter=c.oracle_max_iter
        )
        self.start_err = start_error(cfg, self.oracle.G_star.mat)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, out: Path):
        raise NotImplementedError

    def check(self, outcome, out: Path) -> dict:
        raise NotImplementedError


def preset() -> dict:
    path = Path(lqlearn.__file__).parent / "presets" / "paper_sec4.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _err_check(checks: dict, label: str, err, start: float) -> None:
    checks[f"{label}_finite_and_below_start"] = (
        err is not None and math.isfinite(err) and err < start
    )


class PaperSweep(Workload):
    """`lqlearn run --mode both` over 5 seeds of paper_sec4 (ring:4, shared noise)."""

    name = "paper_sweep"
    arithmetic = (
        "qlearning.y_operator", "lqcore.pi_map", "lqcore.QFactor.symmetrized",
        "qlearning.centralized_step", "distributed.distributed_round",
        "sampling.realize",
    )

    def setup(self) -> None:
        seeds = list(range(self.base, self.base + self.size["sweep_seeds"]))
        rounds = self.size["sweep_rounds"]
        self.cfg_path = self.write_config(seeds=seeds, rounds=rounds)
        c = self.config
        N = c.graph.n_sensors
        self.attempts = len(seeds)
        self.updates = len(seeds) * rounds * (1 + N)
        degree = int(c.graph.degrees().max())
        n, m = c.system.n, c.system.m
        per_round = (
            flops_sensor_update(n, m, 0) + flops_realize(n, m)
            + N * flops_sensor_update(n, m, degree) + flops_realize(n, m)
        )
        self.flops = len(seeds) * rounds * per_round

    def execute(self, out: Path):
        return _cli(["run", "--config", self.cfg_path, "--mode", "both", "--out", out])

    def check(self, code, out: Path) -> dict:
        checks = {"exit_code_0": code == 0}
        res = {"checks": checks, "failures": self.attempts}
        summary_path = out / "summary.json"
        if not summary_path.exists():
            checks["summary_written"] = False
            return res
        summary = json.loads(summary_path.read_text())
        diverged = sum(r["status"] != "ok" for r in summary["runs"])
        res["failures"] = self.attempts if code != 0 else diverged
        checks["no_diverged_seed"] = diverged == 0
        errs = {}
        for kind in ("centralized", "distributed"):
            errs[kind] = summary["medians"].get(kind, {}).get("final_mean_err")
            _err_check(checks, f"{kind}_final_mean_err", errs[kind], self.start_err)
        res["final_mean_err"] = errs
        files = [summary_path] + sorted(out.glob("seed_*/trace_*.csv"))
        checks["all_traces_written"] = len(files) == 1 + 2 * self.attempts
        res["digests"] = {str(p.relative_to(out)): sha256_file(p) for p in files}
        return res


class Ring32Private(Workload):
    """`run_distributed` on ring:32 with private noise and spread initial iterates."""

    name = "ring32_private"
    arithmetic = (
        "qlearning.y_operator", "lqcore.pi_map", "lqcore.QFactor.symmetrized",
        "distributed.distributed_round", "sampling.realize",
    )

    def setup(self) -> None:
        self.seeds = list(range(self.base, self.base + self.size["ring_seeds"]))
        rounds = self.size["ring_rounds"]
        self.write_config(
            graph="ring:32", shared_noise=False, init="spread",
            rounds=rounds, seeds=self.seeds,
        )
        c = self.config
        self.alloc = network.allocate_gains(c.graph, (c.system.n, c.system.m), c.gain_mode)
        N = c.graph.n_sensors
        self.attempts = len(self.seeds)
        self.updates = len(self.seeds) * rounds * N
        n, m = c.system.n, c.system.m
        per_update = flops_sensor_update(n, m, 2) + flops_realize(n, m)
        self.flops = self.updates * per_update

    def execute(self, out: Path):
        c = self.config
        traces = []
        for seed in self.seeds:
            try:
                traces.append(distributed.run_distributed(
                    c.system, c.noise, c.graph, self.alloc, c.schedule, c.rounds,
                    sampling.RngStream(seed, 0), oracle=self.oracle,
                    w=c.consensus_weight, shared_noise=c.shared_noise,
                    init=c.init, spread_scale=c.spread_scale,
                ))
            except DivergedError:
                traces.append(None)
        return traces

    def check(self, traces, out: Path) -> dict:
        failures = sum(t is None for t in traces)
        checks = {"no_diverged_seed": failures == 0}
        res = {"checks": checks, "failures": failures}
        ok = [t for t in traces if t is not None]
        err = statistics.median(t.mean_err[-1] for t in ok) if ok else None
        _err_check(checks, "final_mean_err", err, self.start_err)
        res["final_mean_err"] = {"distributed": err}
        res["digests"] = {
            f"seed_{s}_final_mean": hashlib.sha256(
                np.ascontiguousarray(t.final_mean(), dtype="<f8").tobytes()
            ).hexdigest()
            for s, t in zip(self.seeds, traces) if t is not None
        }
        return res


class ValidateMC(Workload):
    """`lqlearn validate-controller` (250 rollouts x 400 steps) on a 1-seed run."""

    name = "validate_mc"
    arithmetic = ("sampling.simulate_trajectory", "sampling.realize")

    def setup(self) -> None:
        runs, horizon = self.size["mc_runs"], self.size["mc_horizon"]
        validation = {**preset()["validation"], "horizon": horizon, "n_runs": runs}
        self.cfg_path = self.write_config(
            seeds=[self.base], rounds=self.size["mc_learn_rounds"], validation=validation
        )
        self.run_dir = self.work / "run"
        code = _cli(["run", "--config", self.cfg_path, "--out", self.run_dir])
        if code != 0:
            raise RuntimeError(f"set-up run exited with code {code}")
        self.attempts = runs
        self.rollout_steps = runs * horizon
        c = self.config
        self.flops = self.rollout_steps * flops_rollout_step(c.system.n, c.system.m)

    def execute(self, out: Path):
        return _cli([
            "validate-controller", "--config", self.cfg_path,
            "--out", self.run_dir, "--seed", self.base,
        ])

    def check(self, code, out: Path) -> dict:
        checks = {"exit_code_0": code == 0}
        res = {"checks": checks, "failures": self.attempts}
        path = self.run_dir / "controller_report.json"
        if code != 0 or not path.exists():
            checks["report_written"] = False
            return res
        res["failures"] = 0
        report = json.loads(path.read_text())
        mc = report["monte_carlo_cost"]
        checks["monte_carlo_ran"] = mc is not None
        if mc is not None:
            K = np.asarray(report["learned_K"], dtype=float)
            exact = exact_cost(self.cfg, K, mc["horizon"])
            z = abs(mc["mean"] - exact) / mc["std_err"] if mc["std_err"] > 0 else math.inf
            res.update(mc_cost_z=z, mc_mean=mc["mean"], exact_cost=exact)
            checks["mc_cost_z_below_bound"] = z < MC_Z_BOUND
        res["digests"] = {"controller_report.json": sha256_file(path)}
        path.unlink()
        return res


WORKLOADS = {w.name: w for w in (PaperSweep, Ring32Private, ValidateMC)}


def run_rep(wl: Workload, out: Path) -> dict:
    """One measured repetition: time the program call only, then check it.

    wall_s is the raw time rescaled to reference speed by the calibration
    loop run just before and just after the call.
    """
    out.mkdir(parents=True, exist_ok=True)
    loop_before = calibration.seconds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficientWarning)
        t0 = time.perf_counter()
        outcome = wl.execute(out)
        wall = time.perf_counter() - t0
    loop_s = (loop_before + calibration.seconds()) / 2.0
    res = wl.check(outcome, out)
    rank = sum(issubclass(w.category, RankDeficientWarning) for w in caught)
    res["checks"]["no_rank_deficient_warning"] = rank == 0
    res["ok"] = all(res["checks"].values())
    if not res["ok"]:
        res["failures"] = wl.attempts
    res["digest"] = combined_digest(res.get("digests", {}))
    res["raw_wall_s"] = wall
    res["loop_s"] = loop_s
    res["wall_s"] = calibration.to_reference(wall, loop_s)
    res["attempts"] = wl.attempts
    shutil.rmtree(out, ignore_errors=True)
    return res


def measure(wl: Workload, budget: float, tag: str, tracer: Tracer | None = None) -> list:
    """Repeat until the next repetition would overrun the budget (at least one).

    With a tracer, each repetition also records its calls and self times.
    """
    reps = []
    spans = []
    t_begin = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        res = run_rep(wl, wl.work / f"{tag}{len(reps):03d}")
        if tracer:
            after = tracer.snapshot()
            res["layers"] = {
                "functions": per_function(before, after),
                "svd_in_update": after["svd_calls_in_update"] - before["svd_calls_in_update"],
            }
        reps.append(res)
        spans.append(time.perf_counter() - t_rep)
        if time.perf_counter() - t_begin + statistics.median(spans) > budget:
            return reps


def traced_phase(args, size: dict, budget: float) -> dict:
    """Install the wrappers, trace one set-up and repetitions within the budget."""
    tracer = Tracer()
    install(tracer)
    work = Path(args.dir) / "traced"
    work.mkdir()
    wl = WORKLOADS[args.workload](args.seed, size, work)
    before = tracer.snapshot()
    wl.setup()
    setup_functions = per_function(before, tracer.snapshot())
    reps = measure(wl, budget, "traced", tracer)
    return {
        "workload": wl,
        "reps": reps,
        "setup_functions": setup_functions,
        "call_paths": call_paths(tracer.snapshot()),
    }


def per_layer_metrics(wl: Workload, traced: dict, untraced_wall: float) -> dict:
    """calls and self_s of one set-up plus the median traced repetition."""
    reps = [r for r in traced["reps"] if r["ok"]] or traced["reps"]
    metrics = {}
    rep_self = {}
    for label, setup in traced["setup_functions"].items():
        calls = int(statistics.median(r["layers"]["functions"][label]["calls"] for r in reps))
        self_s = statistics.median(r["layers"]["functions"][label]["self_s"] for r in reps)
        rep_self[label] = self_s
        metrics[f"{label}.calls"] = {"value": setup["calls"] + calls, "unit": "count"}
        metrics[f"{label}.self_s"] = {"value": setup["self_s"] + self_s, "unit": "s"}
    svd = statistics.median(r["layers"]["svd_in_update"] for r in reps)
    metrics["lqcore.svd_per_update"] = {
        "value": svd / wl.updates if wl.updates else 0.0, "unit": "1/update"
    }
    traced_wall = statistics.median(r["wall_s"] for r in reps)
    metrics["trace.overhead_frac"] = {
        "value": traced_wall / untraced_wall - 1.0, "unit": "ratio"
    }
    metrics["computed.flops_per_update"] = {
        "value": wl.flops / wl.updates if wl.updates else 0.0, "unit": "flop"
    }
    metrics["computed.flops_per_rollout_step"] = {
        "value": wl.flops / wl.rollout_steps if wl.rollout_steps else 0.0,
        "unit": "flop",
    }
    busy = sum(rep_self[label] for label in wl.arithmetic)
    metrics["computed.achieved_mflop_per_s"] = {
        "value": wl.flops / busy / 1e6 if busy > 0 else 0.0, "unit": "Mflop/s"
    }
    return metrics


def environment() -> dict:
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _rep_record(res: dict) -> dict:
    return {k: v for k, v in res.items() if k != "layers"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True, help="scratch directory for outputs")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(lqlearn.__file__).resolve().parents:
        print(f"lqlearn imported from {lqlearn.__file__}, not {src}", file=sys.stderr)
        return 2
    size = SIZES["smoke" if args.smoke else "full"]
    work = Path(args.dir) / "untraced"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, size, work)
    wl.setup()
    print("READY", flush=True)
    # Calibrates the set-up time just measured, in the process that ran it.
    print(f"LOOP {calibration.seconds()!r}", flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    reps = measure(wl, budget, "rep")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "env": environment(),
        "lqlearn": str(Path(lqlearn.__file__).resolve().relative_to(ROOT)),
        "seeds": wl.cfg["seeds"],
        "start_err": wl.start_err,
        "updates_per_rep": wl.updates,
        "rollout_steps_per_rep": wl.rollout_steps,
        "peak_rss_mb": peak_rss_mb,
        "reps": [_rep_record(r) for r in reps],
    }
    if args.trace:
        ok_walls = [r["wall_s"] for r in reps if r["ok"]] or [r["wall_s"] for r in reps]
        traced = traced_phase(args, size, args.seconds - budget)
        result["traced_reps"] = [_rep_record(r) for r in traced["reps"]]
        result["per_layer"] = per_layer_metrics(
            traced["workload"], traced, statistics.median(ok_walls)
        )
        result["call_paths"] = traced["call_paths"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
