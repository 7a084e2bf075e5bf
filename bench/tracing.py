"""Per-layer tracing for the lqlearn benchmark, installed from outside the package.

The package imports functions by name (``distributed`` and ``qlearning`` each
bind their own ``y_operator``, ``pi_map``, ``draw_noise`` and ``realize``), so
a wrapper must replace every module-level binding of the original function,
and methods are wrapped on their classes. Nothing under ``src/lqlearn`` is
edited, and an untraced run installs no wrapper.

Spans are aggregated per call path (the tuple of enclosing traced names) rather
than stored one by one: Monte Carlo validation makes ~800k ``realize`` calls.
A function's self time is its span time minus the time of its traced children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer (= lqlearn module) -> traced public functions and methods.
LAYERS = {
    "lqcore": (
        "solve_oracle",
        "expectation_map",
        "pi_map",
        "gamma_map",
        "ms_stability_check",
        "QFactor.symmetrized",
    ),
    "qlearning": ("run_centralized", "centralized_step", "y_operator"),
    "distributed": ("run_distributed", "distributed_round", "initial_bank"),
    "network": ("Graph.neighbors", "consensus_operator", "allocate_gains"),
    "sampling": (
        "draw_noise",
        "realize",
        "RngStream.substream",
        "simulate_trajectory",
        "monte_carlo_cost",
    ),
    "trace": ("RunTrace.record_round", "RunTrace.write_csv"),
    "svgplot": ("line_plot",),
    "cli": ("cmd_run", "cmd_validate_controller"),
    "config": ("load_config",),
}

TRACED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

UPDATE_SPAN = "qlearning.y_operator"


class Tracer:
    """Call-path aggregated spans plus a count of numpy SVD calls made inside
    sensor updates (y_operator spans)."""

    def __init__(self):
        # path tuple -> [calls, total seconds, seconds in traced children]
        self.stats: dict[tuple, list] = {}
        self._stack: list[list] = []  # frames: [path, child seconds]
        self.svd_calls_in_update = 0

    def wrap(self, label: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = (stack[-1][0] + (label,)) if stack else (label,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                entry = stats.get(path)
                if entry is None:
                    stats[path] = entry = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]

        return traced

    def count_svd(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and UPDATE_SPAN in stack[-1][0]:
                self.svd_calls_in_update += 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        return {
            "stats": {path: list(v) for path, v in self.stats.items()},
            "svd_calls_in_update": self.svd_calls_in_update,
        }


def per_function(before: dict, after: dict) -> dict:
    """calls and self seconds of each traced function between two snapshots."""
    out = {label: {"calls": 0, "self_s": 0.0} for label in TRACED}
    for path, (calls, total, child) in after["stats"].items():
        c0, t0, ch0 = before["stats"].get(path, (0, 0.0, 0.0))
        slot = out[path[-1]]
        slot["calls"] += calls - c0
        slot["self_s"] += (total - t0) - (child - ch0)
    return out


def call_paths(snap: dict) -> list:
    """Span table for the record: one row per call path."""
    return [
        {"path": "/".join(path), "calls": c, "total_s": t, "self_s": t - ch}
        for path, (c, t, ch) in sorted(snap["stats"].items())
    ]


def install(tracer: Tracer) -> None:
    """Replace every binding of the traced functions inside the lqlearn package."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lqlearn" or name.startswith("lqlearn."))
    ]
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"lqlearn.{layer}")
        for name in names:
            label = f"{layer}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(label, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(label, raw))
                continue
            original = getattr(home, name)
            wrapped = tracer.wrap(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # pinv looks svd up in numpy.linalg._linalg; lqcore calls np.linalg.svd.
    import numpy.linalg
    import numpy.linalg._linalg as linalg_impl

    counted = tracer.count_svd(linalg_impl.svd)
    linalg_impl.svd = counted
    numpy.linalg.svd = counted
