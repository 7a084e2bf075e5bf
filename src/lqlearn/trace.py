"""Per-round run records of the learner.

A trace row exists for every (round, sensor) pair. A trace is centralized
exactly when it has one sensor: the centralized learner is the 1-sensor
distributed run, recorded as sensor id 0 with an empty consensus diameter
(a max over an empty set of sensor pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = (
    "k",
    "sensor_id",
    "alpha",
    "omega",
    "norm1_G",
    "fro_err_to_Gstar",
    "consensus_diameter",
)


def _fmt(value) -> str:
    """Shortest round-trip decimal form; empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@dataclass
class RunTrace:
    """Round-by-round metrics of one learning run.

    norm1 is the entrywise 1-norm of each sensor's estimate, fro_err the
    Frobenius distance to the oracle G* (when known), and the consensus
    diameter is max_{i<j} ||G_i - G_j||_F (None when fewer than 2 sensors).
    mean_history keeps the averaged iterate per round so runs can be compared
    and the final controller extracted.
    """

    n_sensors: int
    G_star: np.ndarray | None = None
    alphas: list[float] = field(default_factory=list)
    omegas: list[list[float]] = field(default_factory=list)
    norm1: list[list[float]] = field(default_factory=list)
    fro_err: list[list[float]] | None = None
    diameters: list[float | None] = field(default_factory=list)
    mean_history: list[np.ndarray] = field(default_factory=list)
    mean_err: list[float] | None = None
    max_fro_norm: float = 0.0

    def __post_init__(self):
        if self.G_star is not None:
            self.fro_err = []
            self.mean_err = []

    @property
    def n_rounds(self) -> int:
        return len(self.alphas)

    def record_round(self, alpha: float, omegas: list[float], G: np.ndarray) -> None:
        """Append the post-update metrics of one round from the (N, d, d) stack."""
        if len(omegas) != self.n_sensors or G.shape[0] != self.n_sensors:
            raise ValueError("one omega and one estimate per sensor expected")
        self.alphas.append(float(alpha))
        self.omegas.append([float(w) for w in omegas])
        self.norm1.append(np.abs(G).sum(axis=(1, 2)).tolist())
        self.max_fro_norm = max(
            self.max_fro_norm, float(np.linalg.norm(G, axis=(1, 2)).max())
        )

        if self.n_sensors >= 2:
            diameter = float(np.linalg.norm(G[:, None] - G[None], axis=(2, 3)).max())
        else:
            diameter = None
        self.diameters.append(diameter)

        # np.mean's bits, without its Python-level overhead on a small stack.
        mean = G.sum(axis=0) / self.n_sensors
        self.mean_history.append(mean)

        if self.G_star is not None:
            self.fro_err.append(np.linalg.norm(G - self.G_star, axis=(1, 2)).tolist())
            self.mean_err.append(float(np.linalg.norm(mean - self.G_star)))

    def final_mean(self) -> np.ndarray:
        if not self.mean_history:
            raise ValueError("empty trace")
        return self.mean_history[-1]

    def csv_rows(self):
        """Yield formatted CSV rows, one per (round, sensor)."""
        for r in range(self.n_rounds):
            for s in range(self.n_sensors):
                err = self.fro_err[r][s] if self.fro_err is not None else None
                yield (
                    _fmt(r + 1),
                    _fmt(s),
                    _fmt(self.alphas[r]),
                    _fmt(self.omegas[r][s]),
                    _fmt(self.norm1[r][s]),
                    _fmt(err),
                    _fmt(self.diameters[r]),
                )

    def write_csv(self, path) -> None:
        """Deterministic CSV: header then one line per (round, sensor)."""
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(row) for row in self.csv_rows())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
