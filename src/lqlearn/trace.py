"""Per-round run records of the learner.

A trace row exists for every (round, sensor) pair. A trace is centralized
exactly when it has one sensor: the centralized learner is the 1-sensor
distributed run, recorded as sensor id 0 with an empty consensus diameter
(a max over an empty set of sensor pairs).

The learner records its rounds a block at a time, and each block is
measured when it is recorded, in one vectorized pass. A block holds as many
rounds as fit a fixed float budget (block_rounds), so the memory a pass
takes is bounded by the block and not by the run length. The consensus
diameter is taken one sensor offset at a time, so no temporary of the pass
is larger than the block's (B, N, d, d) estimates: its memory is linear in
the sensor count.

The per-sensor columns (omegas, norm1, fro_err) are float64 arrays of shape
(n_rounds, N) and mean_history an (n_rounds, d, d) array; alphas, diameters
and mean_err are lists of Python floats, one per round. Readers convert an
array column with tolist() where they need Python floats (the CSV, the JSON
summary), which gives the floats a list column would have held.
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

# Floats (64 KB) of the post-round estimates one block holds: the
# (S, B, N, d, d) stack of a learner stepping S seeds at once. A metrics
# pass over one seed's (B, N, d, d) block holds a few temporaries of at most
# that size, the largest the (B, N - 1, d, d) differences of one sensor
# offset. At d = 3 and one seed a block is 28 rounds on ring:32 and 227 on
# ring:4; above 910 sensors it is a single round, which exceeds the budget.
_BLOCK_FLOATS = 2**13

# Floats the traces of one group of seeds may hold (about 2 MB of float64
# arrays): `lqlearn run` learns its seeds a group at a time, so its memory
# does not grow with the seed count. At d = 3 and 200 rounds a group is 87
# seeds on the single sensor, 54 on ring:4 and 12 on ring:32.
_GROUP_FLOATS = 2**18


def block_rounds(n_sensors: int, d: int, n_seeds: int = 1) -> int:
    """Rounds per block, at least one: as many as keep the (S, B, N, d, d)
    estimates of S seeds within the float budget. The metrics pass of one
    seed's block holds a few temporaries of at most its (B, N, d, d) size,
    so its memory is linear in the sensors too."""
    return max(1, _BLOCK_FLOATS // (n_seeds * n_sensors * d * d))


def group_seeds(n_sensors: int, d: int, rounds: int) -> int:
    """Seeds per group, at least one: as many as keep their traces within
    the group budget. A trace keeps, per round, three floats per sensor
    (omega, norm1 and the error to G*), the d x d averaged iterate and
    three scalars. A round's temporaries are a few (S, N, d, d) stacks,
    with S bounded by this trace budget; a block's (S, B, N, d, d)
    estimates are bounded by block_rounds."""
    return max(1, _GROUP_FLOATS // (rounds * (3 * n_sensors + d * d + 3)))


class RunTrace:
    """Round-by-round metrics of one learning run.

    norm1 is the entrywise 1-norm of each sensor's estimate, fro_err the
    Frobenius distance to the oracle G* (None when G* is not known), and the
    consensus diameter is max_{i<j} ||G_i - G_j||_F (None when fewer than 2
    sensors). mean_history keeps the averaged iterate per round so runs can
    be compared and the final controller extracted. omegas, norm1 and
    fro_err are (n_rounds, N) float64 arrays and mean_history is an
    (n_rounds, d, d) array; alphas, diameters and mean_err are lists, one
    entry per round. A block of rounds is measured as soon as it is
    recorded; an array column joins its blocks on the first read after
    them, once.
    """

    def __init__(self, n_sensors: int, G_star: np.ndarray | None = None):
        self.n_sensors = n_sensors
        self.G_star = G_star
        self.alphas: list[float] = []
        self.diameters: list[float | None] = []
        self.mean_err = None if G_star is None else []
        self.max_fro_norm = 0.0
        # Array column -> its blocks of rounds, in order.
        self._blocks: dict[str, list[np.ndarray]] = {
            "omegas": [], "norm1": [], "fro_err": [], "mean_history": []}

    def _column(self, name: str) -> np.ndarray:
        blocks = self._blocks[name]
        if len(blocks) > 1:
            blocks[:] = [np.concatenate(blocks)]
        return blocks[0] if blocks else np.empty((0, self.n_sensors))

    omegas = property(lambda self: self._column("omegas"))
    norm1 = property(lambda self: self._column("norm1"))
    mean_history = property(lambda self: self._column("mean_history"))

    @property
    def fro_err(self) -> np.ndarray | None:
        return None if self.G_star is None else self._column("fro_err")

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
        blocks = self._blocks
        self.alphas.extend(map(float, alphas))
        # A copy, so the block keeps no view of the caller's noise tape.
        blocks["omegas"].append(np.array(omegas, dtype=float))
        blocks["norm1"].append(np.abs(G).sum(axis=(2, 3)))
        # sqrt is monotone, so the max of the squared norms gives the same
        # bits as the max of the norms.
        sq_norms = np.square(G).sum(axis=(2, 3))
        self.max_fro_norm = max(self.max_fro_norm, float(np.sqrt(sq_norms.max())))
        if N >= 2:
            # Offset o pairs each sensor i >= o with i - o, so the offsets
            # visit every unordered pair once. G_i - G_j is exactly
            # -(G_j - G_i) and max is exact, so this gives the bits of one
            # pass over all ordered pairs.
            sq_max = np.full(B, -np.inf)
            for o in range(1, N):
                diff = G[:, o:] - G[:, :-o]
                np.square(diff, out=diff)
                np.maximum(sq_max, diff.sum(axis=(2, 3)).max(axis=1), out=sq_max)
            self.diameters.extend(np.sqrt(sq_max).tolist())
        else:
            self.diameters.extend([None] * B)

        # np.mean's bits, without its Python-level overhead on a small stack.
        means = G.sum(axis=1) / N
        blocks["mean_history"].append(means)

        if self.G_star is not None:
            blocks["fro_err"].append(np.linalg.norm(G - self.G_star, axis=(2, 3)))
            # A vector @ vector matmul is a dot product, as np.linalg.norm of
            # one matrix takes it, so each round's error keeps those bits.
            e = (means - self.G_star).reshape(B, -1)
            self.mean_err.extend(np.sqrt(e[:, None] @ e[:, :, None]).ravel().tolist())

    def final_mean(self) -> np.ndarray:
        if not self.alphas:
            raise ValueError("empty trace")
        return self._blocks["mean_history"][-1][-1]

    def csv_rows(self):
        """Yield formatted CSV rows, one per (round, sensor).

        Numbers take their shortest round-trip decimal form, a missing value
        the empty string.
        """
        sensors = [str(s) for s in range(self.n_sensors)]
        errs = (repeat([None] * self.n_sensors) if self.fro_err is None
                else self.fro_err.tolist())
        columns = zip(self.alphas, self.omegas.tolist(), self.norm1.tolist(),
                      errs, self.diameters)
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
