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

write_csv formats a chunk of rounds at a time, each float column with repr
over tolist(). Within a round, a sensor holding the same bits as the sensor
before it reuses that string, so a value all sensors of a round share (every
omega under shared noise) is formatted once, and a per-round value (alpha,
the diameter) once per round. Bits decide, not ==, so 0.0 and -0.0 stay
apart; the bytes are those of formatting every cell on its own.
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
# (B, M, d, d) estimates of a learner's sensor axis, M the sensors of every
# seed it steps at once. A metrics pass over one bank's (B, N, d, d) block
# holds a few temporaries of at most that size, the largest the
# (B, N - 1, d, d) differences of one sensor offset. At d = 3 a block is 28
# rounds on ring:32 and 227 on ring:4; above 910 sensors it is a single
# round, which exceeds the budget.
_BLOCK_FLOATS = 2**13

# Floats the traces of one group of seeds may hold (about 2 MB of float64
# arrays): `lqlearn run` learns its seeds a group at a time, so its memory
# does not grow with the seed count. At d = 3 and 200 rounds a group is 87
# seeds on the single sensor, 54 on ring:4, 33 on both (`--mode both` on
# ring:4) and 12 on ring:32.
_GROUP_FLOATS = 2**18


# CSV rows formatted at a time: write_csv holds one chunk's strings, not
# the run's, so its memory does not grow with the run length.
_CSV_CHUNK_ROWS = 2**9


def _cells(column: np.ndarray) -> list[str]:
    """The shortest round-trip repr of each (round, sensor) value, row-major.

    A sensor that holds the same bits as the sensor before it in its round
    reuses that string, so a value all sensors of a round share is formatted
    once. Bits, not ==, decide: 0.0 and -0.0 stay apart, and a NaN matches
    only a NaN of its own bits.
    """
    bits = column.view(np.int64)
    fresh = np.empty(column.shape, dtype=bool)
    fresh[:, :1] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=fresh[:, 1:])
    if fresh.all():
        return list(map(repr, column.ravel().tolist()))
    reprs = list(map(repr, column[fresh].tolist()))
    return list(map(reprs.__getitem__, (np.cumsum(fresh) - 1).tolist()))


def block_rounds(n_sensors: int, d: int) -> int:
    """Rounds per block, at least one: as many as keep the (B, M, d, d)
    estimates of a sensor axis of M = n_sensors within the float budget.
    The metrics pass of one bank's block holds a few temporaries of at most
    its (B, N, d, d) size, so its memory is linear in the sensors too."""
    return max(1, _BLOCK_FLOATS // (n_sensors * d * d))


def group_seeds(sensor_counts, d: int, rounds: int) -> int:
    """Seeds per group, at least one: as many as keep their traces within
    the group budget, with one trace per seed for each learner of
    sensor_counts, a sequence of their sensor counts. A trace keeps, per
    round, three floats per sensor (omega, norm1 and the error to G*), the
    d x d averaged iterate and three scalars. A round's temporaries are a
    few (S*N, d, d) stacks, N the learners' sensors together, with S
    bounded by this trace budget; a block's (B, S*N, d, d) estimates are
    bounded by block_rounds."""
    per_round = sum(3 * n_sensors + d * d + 3 for n_sensors in sensor_counts)
    return max(1, _GROUP_FLOATS // (rounds * per_round))


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

    def _csv_chunks(self):
        """Yield the CSV rows a chunk of rounds at a time, each chunk a zip
        of its columns' formatted cells, so no string list spans the run.
        A per-round value is formatted once and repeated for its sensors."""
        sensors = [str(s) for s in range(self.n_sensors)]

        def each_sensor(cells):
            return [cell for cell in cells for _ in sensors]

        errs = self.fro_err
        per_chunk = max(1, _CSV_CHUNK_ROWS // self.n_sensors)
        for start in range(0, self.n_rounds, per_chunk):
            rounds = slice(start, start + per_chunk)
            alphas = self.alphas[rounds]
            yield zip(
                each_sensor(map(str, range(start + 1, start + len(alphas) + 1))),
                sensors * len(alphas),
                each_sensor(map(repr, alphas)),
                _cells(self.omegas[rounds]),
                _cells(self.norm1[rounds]),
                repeat("") if errs is None else _cells(errs[rounds]),
                each_sensor("" if d is None else repr(d)
                            for d in self.diameters[rounds]),
            )

    def csv_rows(self):
        """Yield formatted CSV rows, one per (round, sensor).

        Numbers take their shortest round-trip decimal form, a missing value
        the empty string.
        """
        for rows in self._csv_chunks():
            yield from rows

    def write_csv(self, path) -> None:
        """Deterministic CSV: header then one line per (round, sensor)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rows in self._csv_chunks():
                fh.write("\n".join(map(",".join, rows)))
                fh.write("\n")
