"""lqlearn benchmark: one workload per invocation, with output checks.

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``paper_sweep``: ``lqlearn run --mode both`` over 5 seeds of paper_sec4,
  the paper's experiment through the CLI, trace CSVs and plots;
- ``ring32_private``: ``run_distributed`` on ring:32 with private noise,
  250 rounds, which scales the sensor axis and bypasses the CLI;
- ``validate_mc``: ``lqlearn validate-controller``, 250 Monte Carlo
  rollouts of 400 steps, which never touches the learners.

Each workload runs in fresh Python processes (``bench/workloads.py``) with the
BLAS thread variables set to 1 and ``src`` of this checkout on the path. Set-up
is timed from process start to ready in several processes and reported as a
median. The measured phase repeats the workload for ``--seconds`` and reports
the median repetition. Times are reference-speed seconds: each raw interval is
rescaled by a fixed calibration loop timed in the same process around it (or
right after it, for set-up; see ``bench/calibration.py``), which cancels most
of the slowdown other tenants cause on a shared machine. The raw times are
kept in the record. Every repetition is checked (exit code, no divergence,
final error below the starting error, Monte Carlo cost within MC_Z_BOUND
standard errors of the exact cost, no RankDeficientWarning, identical output
digests); a failed repetition is not timed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of every lqlearn module (``bench/tracing.py``) and prints calls and
self time per function. ``--smoke`` shrinks every budget so the harness runs
in seconds. The last line of standard output is the JSON result; a record with
the environment, digests and every repetition goes to
``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "ring32_private", "validate_mc")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up-only processes per run; the measured process adds one more sample.
SETUP_SAMPLES = 4
# Every process of one invocation must end within this many seconds.
DEADLINE_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(scratch)
    return env


def run_child(argv: list, env: dict, deadline: float) -> tuple:
    """Start a workload process; return (set-up seconds, loop seconds, last line).

    Set-up runs from just before the process starts to its READY line; the
    process then reports the calibration loop's time. The process is killed
    and waited for if it outlives the deadline.
    """
    lines: queue.Queue = queue.Queue()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *map(str, argv)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )

    def pump():
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s = loop_s = last = None
    try:
        while True:
            item = lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            if item is None:
                break
            stamp, line = item
            if line == "READY" and setup_s is None:
                setup_s = stamp - t0
            elif line.startswith("LOOP ") and loop_s is None:
                loop_s = float(line.split()[1])
            elif line:
                last = line
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.01))
    except (queue.Empty, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded the {DEADLINE_S:g} s deadline")
    finally:
        reader.join(timeout=5)
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    if setup_s is None or loop_s is None:
        raise RuntimeError("workload process reported no set-up time")
    return setup_s, loop_s, last


def end_to_end(child: dict, setups: list) -> dict:
    reps = [r for r in child["reps"] if r["ok"]]
    wall = statistics.median(r["wall_s"] for r in reps)
    steps = child["updates_per_rep"] or child["rollout_steps_per_rep"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "steps_per_s": {"value": steps / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }


def record_only(child: dict, metrics: dict, attempted: int, failed: int) -> dict:
    """Figures the record keeps beside the BENCHMARK.json metrics.

    They vary with the seed or are 0 on a healthy run, so they are checked
    rather than bounded."""
    reps = [r for r in child["reps"] if r["ok"]] or child["reps"]
    extra = {"failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    if "steps_per_s" in metrics:
        name = "updates_per_s" if child["updates_per_rep"] else "rollout_steps_per_s"
        extra[name] = {"value": metrics["steps_per_s"]["value"], "unit": "1/s"}
    errs = reps[0].get("final_mean_err")
    if errs:
        for kind, value in errs.items():
            extra[f"final_mean_err.{kind}"] = {"value": value, "unit": "fro"}
    if "mc_cost_z" in reps[0]:
        extra["mc_cost_z"] = {"value": reps[0]["mc_cost_z"], "unit": "sigma"}
    return extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lqlearn benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0, help="workload base seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny budgets")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64 - 64:
        p.error("--seed must be a non-negative 64-bit integer")
    if not (ROOT / "src" / "lqlearn" / "__init__.py").is_file():
        print(f"no lqlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    env_record = environment()
    runs_dir = ROOT / ".bench_runs"
    runs_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    env = child_env(scratch)
    common = ["--workload", args.workload, "--seed", args.seed] + (
        ["--smoke"] if args.smoke else []
    )
    try:
        setups, raw_setups = [], []
        n_setup_only = 0 if args.smoke else SETUP_SAMPLES
        for i in range(n_setup_only + 1):
            measured = i == n_setup_only
            argv = common + (
                ["--seconds", args.seconds, "--trace", args.trace, "--dir", scratch / "measured"]
                if measured else ["--setup-only", "--dir", scratch / f"setup{i}"]
            )
            setup_s, loop_s, last = run_child(argv, env, deadline)
            raw_setups.append(setup_s)
            setups.append(calibration.to_reference(setup_s, loop_s))
        if last is None:
            raise RuntimeError("workload process printed no result")
        child = json.loads(last)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    all_reps = child["reps"] + child.get("traced_reps", [])
    attempted = sum(r["attempts"] for r in all_reps)
    failed = sum(r["failures"] for r in all_reps)
    digests = {r["digest"] for r in all_reps}
    deterministic = len(digests) == 1
    correct = deterministic and failed == 0 and all(r["ok"] for r in all_reps)

    if args.trace:
        metrics = child["per_layer"]
    elif any(r["ok"] for r in child["reps"]):
        metrics = end_to_end(child, setups)
    else:
        metrics = {}
    record = {
        "workload": args.workload,
        "base_seed": args.seed,
        "seeds": child["seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**env_record, **child["env"], "lqlearn": child["lqlearn"]},
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "correct": correct,
        "deterministic": deterministic,
        "output_digest": sorted(digests),
        "metrics": metrics,
        "record_only": record_only(child, metrics, attempted, failed),
        "reps": child["reps"],
        "traced_reps": child.get("traced_reps", []),
        "call_paths": child.get("call_paths", []),
    }
    results = runs_dir / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}, base seed {args.seed}, seeds {child['seeds']}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for r in all_reps:
        failed_checks = [k for k, ok in r["checks"].items() if not ok]
        print(f"  rep wall {r['wall_s']:.4f} s (raw {r['raw_wall_s']:.4f} s)  ok={r['ok']}"
              f"  digest {r['digest'][:16]}"
              + (f"  failed: {failed_checks}" if failed_checks else ""))
    print(f"deterministic across {len(all_reps)} repetitions: {deterministic}")
    if args.trace:
        ranked = sorted(
            (k[: -len(".self_s")] for k in metrics if k.endswith(".self_s")),
            key=lambda k: -metrics[k + ".self_s"]["value"],
        )
        print("self time per set-up + repetition, largest first:")
        for k in ranked:
            calls = metrics[k + ".calls"]["value"]
            print(f"  {k:36s} {metrics[k + '.self_s']['value']:10.4f} s  {calls:10.0f} calls")
    for name, m in {**metrics, **record["record_only"]}.items():
        if not (args.trace and name.endswith((".calls", ".self_s"))):
            print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
