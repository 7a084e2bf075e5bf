"""Per-round run records of the learner.

A trace row exists for every (round, sensor) pair. A trace is centralized
exactly when it has one sensor: the centralized learner is the 1-sensor
distributed run, recorded as sensor id 0 with an empty consensus diameter
(a max over an empty set of sensor pairs).

Recording a round only stores its step size and copies its noise draws and
estimates into a block buffer. The metrics are computed once per block of
rounds, in one vectorized pass, when the buffer fills or a column is read.
The block holds as many rounds as fit a fixed float budget, so the memory a
pass takes is bounded by the block and not by the run length.
"""

from __future__ import annotations

from itertools import repeat

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

# Floats one metrics pass may hold: its largest temporary is the
# (B, N, N, d, d) stack of pairwise differences behind the consensus
# diameter. At d = 3 a block is 3 rounds on ring:32 and 227 on ring:4.
_BLOCK_FLOATS = 2**15


def block_rounds(n_sensors: int, d: int) -> int:
    """Rounds per block: as many as fit the float budget, at least one."""
    return max(1, _BLOCK_FLOATS // (n_sensors * n_sensors * d * d))


def _measured(name: str, doc: str) -> property:
    """A read-only attribute that first measures the buffered rounds."""

    def read(self):
        self._flush()
        return getattr(self, name)

    return property(read, doc=doc)


class RunTrace:
    """Round-by-round metrics of one learning run.

    norm1 is the entrywise 1-norm of each sensor's estimate, fro_err the
    Frobenius distance to the oracle G* (when known), and the consensus
    diameter is max_{i<j} ||G_i - G_j||_F (None when fewer than 2 sensors).
    mean_history keeps the averaged iterate per round so runs can be compared
    and the final controller extracted. Every column is a list, one entry per
    round; the per-sensor columns hold one list of floats per round.
    """

    def __init__(self, n_sensors: int, G_star: np.ndarray | None = None):
        self.n_sensors = n_sensors
        self.G_star = G_star
        self.alphas: list[float] = []
        self._omegas: list[list[float]] = []
        self._norm1: list[list[float]] = []
        self._diameters: list[float | None] = []
        self._mean_history: list[np.ndarray] = []
        self._fro_err = None if G_star is None else []
        self._mean_err = None if G_star is None else []
        self._max_fro_norm = 0.0
        # Rounds recorded but not yet measured; buffers made on the first round.
        self._pending = 0
        self._omega_buf = self._G_buf = None

    omegas = _measured("_omegas", "Noise draw of each sensor, per round.")
    norm1 = _measured("_norm1", "Entrywise 1-norm of each estimate, per round.")
    fro_err = _measured("_fro_err", "||G_i - G*||_F per round (None without G*).")
    diameters = _measured("_diameters", "Consensus diameter of each round.")
    mean_history = _measured("_mean_history", "Averaged iterate of each round.")
    mean_err = _measured("_mean_err", "||Gbar - G*||_F per round (None without G*).")
    max_fro_norm = _measured("_max_fro_norm", "Largest ||G_i||_F over the run.")

    @property
    def n_rounds(self) -> int:
        return len(self.alphas)

    def record_round(self, alpha: float, omegas: list[float], G: np.ndarray) -> None:
        """Buffer one round's post-update (N, d, d) stack for measurement."""
        if len(omegas) != self.n_sensors or G.shape[0] != self.n_sensors:
            raise ValueError("one omega and one estimate per sensor expected")
        if self._G_buf is None:
            B = block_rounds(self.n_sensors, G.shape[-1])
            self._omega_buf = np.empty((B, self.n_sensors))
            self._G_buf = np.empty((B, *G.shape))
        self.alphas.append(float(alpha))
        i = self._pending
        self._omega_buf[i] = omegas
        self._G_buf[i] = G
        self._pending = i + 1
        if self._pending == len(self._G_buf):
            self._flush()

    def _flush(self) -> None:
        """Measure the buffered rounds in one pass and extend the columns."""
        B, N = self._pending, self.n_sensors
        if not B:
            return
        G = self._G_buf[:B]
        self._omegas.extend(self._omega_buf[:B].tolist())
        self._norm1.extend(np.abs(G).sum(axis=(2, 3)).tolist())
        # sqrt is monotone, so the max of the squared norms gives the same
        # bits as the max of the norms.
        sq_norms = np.square(G).sum(axis=(2, 3))
        self._max_fro_norm = max(self._max_fro_norm, float(np.sqrt(sq_norms.max())))
        if N >= 2:
            diff = G[:, :, None] - G[:, None]
            np.square(diff, out=diff)
            diameters = np.sqrt(diff.sum(axis=(3, 4)).max(axis=(1, 2))).tolist()
        else:
            diameters = [None] * B
        self._diameters.extend(diameters)

        # np.mean's bits, without its Python-level overhead on a small stack.
        means = G.sum(axis=1) / N
        self._mean_history.extend(means)

        if self.G_star is not None:
            self._fro_err.extend(np.linalg.norm(G - self.G_star, axis=(2, 3)).tolist())
            # A vector @ vector matmul is a dot product, as np.linalg.norm of
            # one matrix takes it, so each round's error keeps those bits.
            e = (means - self.G_star).reshape(B, -1)
            self._mean_err.extend(np.sqrt(e[:, None] @ e[:, :, None]).ravel().tolist())
        self._pending = 0

    def final_mean(self) -> np.ndarray:
        if not self.mean_history:
            raise ValueError("empty trace")
        return self.mean_history[-1]

    def csv_rows(self):
        """Yield formatted CSV rows, one per (round, sensor).

        Numbers take their shortest round-trip decimal form, a missing value
        the empty string.
        """
        sensors = [str(s) for s in range(self.n_sensors)]
        errs = self.fro_err or repeat([None] * self.n_sensors)
        columns = zip(self.alphas, self.omegas, self.norm1, errs, self.diameters)
        for k, (alpha, omegas, norms, errs_k, diameter) in enumerate(columns, 1):
            k, alpha = str(k), f"{alpha!r}"
            diameter = "" if diameter is None else f"{diameter!r}"
            for s, w, v, e in zip(sensors, omegas, norms, errs_k):
                e = "" if e is None else f"{e!r}"
                yield (k, s, alpha, f"{w!r}", f"{v!r}", e, diameter)

    def write_csv(self, path) -> None:
        """Deterministic CSV: header then one line per (round, sensor)."""
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(map(",".join, self.csv_rows()))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
