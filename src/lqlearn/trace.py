"""Per-round run records of the learner.

A trace row exists for every (round, sensor) pair. A trace is centralized
exactly when it has one sensor: the centralized learner is the 1-sensor
distributed run, recorded as sensor id 0 with an empty consensus diameter
(a max over an empty set of sensor pairs).

The learner records its rounds a block at a time, and each block is
measured when it is recorded, in one vectorized pass. A block holds as many
rounds as fit a fixed float budget (block_rounds), so the memory a pass
takes is bounded by the block and not by the run length, nor (through
chunks of sensor rows) by the square of the sensor count.
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
# Above 60 sensors a single round exceeds the budget, so the differences
# are taken over chunks of sensor rows, (B, rows, N, d, d) at a time. A
# learner stepping S seeds at once also keeps their (S, B, N, d, d)
# post-round estimates within it.
_BLOCK_FLOATS = 2**15

# Floats the traces of one group of seeds may hold (about 8 MB of Python
# floats): `lqlearn run` learns its seeds a group at a time, so its memory
# does not grow with the seed count. At d = 3 and 200 rounds a group is 87
# seeds on the single sensor, 54 on ring:4 and 12 on ring:32.
_GROUP_FLOATS = 2**18


def block_rounds(n_sensors: int, d: int, n_seeds: int = 1) -> int:
    """Rounds per block: as many as fit the float budget, at least one."""
    return max(1, _BLOCK_FLOATS // (n_sensors * d * d * max(n_sensors, n_seeds)))


def group_seeds(n_sensors: int, d: int, rounds: int) -> int:
    """Seeds per group, at least one: as many as keep their traces within
    the group budget. A trace keeps, per round, three floats per sensor
    (omega, norm1 and the error to G*), the d x d averaged iterate and
    three scalars. A round's temporaries are a few (S, N, d, d) stacks,
    with S bounded by this trace budget."""
    return max(1, _GROUP_FLOATS // (rounds * (3 * n_sensors + d * d + 3)))


class RunTrace:
    """Round-by-round metrics of one learning run.

    norm1 is the entrywise 1-norm of each sensor's estimate, fro_err the
    Frobenius distance to the oracle G* (when known), and the consensus
    diameter is max_{i<j} ||G_i - G_j||_F (None when fewer than 2 sensors).
    mean_history keeps the averaged iterate per round so runs can be compared
    and the final controller extracted. Every column is a list, one entry per
    round; the per-sensor columns hold one list of floats per round. A block
    of rounds is measured as soon as it is recorded.
    """

    def __init__(self, n_sensors: int, G_star: np.ndarray | None = None):
        self.n_sensors = n_sensors
        self.G_star = G_star
        self.alphas: list[float] = []
        self.omegas: list[list[float]] = []
        self.norm1: list[list[float]] = []
        self.diameters: list[float | None] = []
        self.mean_history: list[np.ndarray] = []
        self.fro_err = None if G_star is None else []
        self.mean_err = None if G_star is None else []
        self.max_fro_norm = 0.0

    @property
    def n_rounds(self) -> int:
        return len(self.alphas)

    def record_round(self, alphas: np.ndarray, omegas: np.ndarray,
                     G: np.ndarray) -> None:
        """Measure a block of B rounds in one vectorized pass.

        alphas (B,), omegas (B, N) and G (B, N, d, d) hold each round's step
        size, noise draws and post-update estimates; a single round is a
        block of one (pass G[None]). The pass keeps its temporaries within
        the float budget for blocks of at most block_rounds(N, d) rounds.
        """
        B, N = len(alphas), self.n_sensors
        if np.shape(omegas) != (B, N) or G.shape[:2] != (B, N):
            raise ValueError("one alpha per round and one omega and one "
                             "estimate per sensor and round expected")
        self.alphas.extend(map(float, alphas))
        self.omegas.extend(np.asarray(omegas, dtype=float).tolist())
        self.norm1.extend(np.abs(G).sum(axis=(2, 3)).tolist())
        # sqrt is monotone, so the max of the squared norms gives the same
        # bits as the max of the norms.
        sq_norms = np.square(G).sum(axis=(2, 3))
        self.max_fro_norm = max(self.max_fro_norm, float(np.sqrt(sq_norms.max())))
        if N >= 2:
            # max is exact, so the max over chunks of the squared pair
            # distances gives the bits of one pass over all pairs.
            rows = max(1, _BLOCK_FLOATS // (B * N * G.shape[-1] ** 2))
            sq_max = np.full(B, -np.inf)
            for i0 in range(0, N, rows):
                diff = G[:, i0:i0 + rows, None] - G[:, None]
                np.square(diff, out=diff)
                np.maximum(sq_max, diff.sum(axis=(3, 4)).max(axis=(1, 2)), out=sq_max)
                del diff  # freed before the next chunk is allocated
            self.diameters.extend(np.sqrt(sq_max).tolist())
        else:
            self.diameters.extend([None] * B)

        # np.mean's bits, without its Python-level overhead on a small stack.
        means = G.sum(axis=1) / N
        self.mean_history.extend(means)

        if self.G_star is not None:
            self.fro_err.extend(np.linalg.norm(G - self.G_star, axis=(2, 3)).tolist())
            # A vector @ vector matmul is a dot product, as np.linalg.norm of
            # one matrix takes it, so each round's error keeps those bits.
            e = (means - self.G_star).reshape(B, -1)
            self.mean_err.extend(np.sqrt(e[:, None] @ e[:, :, None]).ravel().tolist())

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
