"""Communication graph, Laplacian consensus operator, and sensor gains.

Sensors are numbered 0..N-1 internally. The "edges:" descriptor accepts the
1-based sensor labels used in config files ("edges:1-2,2-3") and shifts them
down by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpecError, DisconnectedError, NotContractiveError


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n_sensors vertices, no self-loops.

    n_sensors = 1 with an empty edge set is the permitted degenerate case
    (a single sensor running the centralized iteration).

    All lookups read one adjacency, built once; column i of the read-only
    (D, N) neighbor_columns lists sensor i's neighbours in ascending order,
    padded with i itself up to D, the largest degree.
    """

    n_sensors: int
    edges: frozenset
    _adjacency: tuple = field(init=False, repr=False, compare=False)
    neighbor_columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N = self.n_sensors
        if N < 1:
            raise BadSpecError("graph needs at least one vertex")
        adjacency = [set() for _ in range(N)]
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise BadSpecError(f"self-loop on vertex {i}")
            if not (0 <= i < N and 0 <= j < N):
                raise BadSpecError(f"edge {edge} out of range")
            adjacency[i].add(j)
            adjacency[j].add(i)
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        object.__setattr__(self, "edges", frozenset(
            (i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j))
        object.__setattr__(self, "_adjacency", adjacency)
        seen, frontier = {0}, [0]
        while frontier:
            for u in adjacency[frontier.pop()]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) < N:
            raise DisconnectedError(f"edge set does not connect all {N} vertices")
        columns = np.tile(np.arange(N), (max(map(len, adjacency)), 1))
        for i, nbrs in enumerate(adjacency):
            columns[:len(nbrs), i] = nbrs
        columns.flags.writeable = False
        object.__setattr__(self, "neighbor_columns", columns)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self._adjacency], dtype=int)

    def laplacian(self) -> np.ndarray:
        L = np.diag(self.degrees().astype(float))
        for i, nbrs in enumerate(self._adjacency):
            L[i, list(nbrs)] = -1.0
        return L


def build_graph(descriptor: str) -> Graph:
    """Parse a topology descriptor.

    Forms: "ring:N", "path:N", "complete:N", "star:N" (N >= 2),
    "edges:1-2,2-3,..." (1-based labels, N inferred from the largest label),
    and "single" for the degenerate 1-sensor graph.
    """
    desc = descriptor.strip().lower()
    if desc == "single":
        return Graph(1, frozenset())
    if ":" not in desc:
        raise BadSpecError(f"malformed topology descriptor {descriptor!r}")
    kind, _, arg = desc.partition(":")

    if kind == "edges":
        edges = set()
        max_label = 0
        for part in arg.split(","):
            part = part.strip()
            try:
                a, b = (int(tok) for tok in part.split("-"))
            except ValueError:
                raise BadSpecError(f"malformed edge {part!r}") from None
            if a < 1 or b < 1:
                raise BadSpecError(f"edge labels are 1-based, got {part!r}")
            edges.add((a - 1, b - 1))
            max_label = max(max_label, a, b)
        return Graph(max_label, frozenset(edges))

    try:
        n = int(arg)
    except ValueError:
        raise BadSpecError(f"malformed topology descriptor {descriptor!r}") from None
    if n < 2:
        raise BadSpecError(f"{kind} topology needs N >= 2, got {n}")

    if kind == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif kind == "ring":
        edges = {(i, (i + 1) % n) for i in range(n)}
    elif kind == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "star":
        edges = {(0, i) for i in range(1, n)}
    else:
        raise BadSpecError(f"unknown topology {kind!r}")
    return Graph(n, frozenset(edges))


@dataclass(frozen=True)
class ConsensusOperator:
    """Mixing step x <- (I - w L) x on per-sensor estimates.

    rho is the largest magnitude among the non-Perron eigenvalues of I - w L,
    max |1 - w*lambda| over the nonzero Laplacian eigenvalues lambda: the
    contraction factor on the disagreement subspace. It must be < 1, which
    holds iff the graph is connected and w * lambda_max(L) < 2.
    """

    graph: Graph
    L: np.ndarray
    w: float
    rho: float


def consensus_operator(g: Graph, w: float | None = None) -> ConsensusOperator:
    """Build the Laplacian mixing operator, defaulting w to 1/(d_max + 1)."""
    L = g.laplacian()
    if w is None:
        w = 1.0 / (int(g.degrees().max(initial=0)) + 1)
    # NaN fails too; inf fails even where lambda_max = 0 makes w * lambda_max NaN.
    if not 0.0 < w < np.inf:
        raise ValueError(f"consensus weight must be finite and > 0, got {w}")
    # Ascending; the graph is connected, so only lam[0] is zero.
    lam = np.linalg.eigvalsh(L)
    lam_max = float(lam[-1])
    if w * lam_max >= 2.0:
        raise NotContractiveError(w, lam_max)
    rho = float(np.abs(1.0 - w * lam[1:]).max(initial=0.0))
    return ConsensusOperator(graph=g, L=L, w=float(w), rho=rho)


def allocate_gains(g: Graph, dims: tuple[int, int], mode: str) -> np.ndarray:
    """Diagonal innovation gains L_1..L_N with sum(L_i) = N*I, for the given
    graph and (n, m) dimensions, as the (N, d) array of their diagonals.

    L_i = diag(gains[i]), so L_i Y is the row scaling gains[i][:, None] * Y.
    uniform: every sensor applies the full residual (L_i = I).
    masked: sensor i owns the coordinates c with c mod N == i and applies
    L_i = N * E_i, making "partial information per sensor" concrete.
    """
    d = sum(dims)
    N = g.n_sensors
    if mode == "uniform":
        return np.ones((N, d))
    if mode == "masked":
        return float(N) * (np.arange(d) % N == np.arange(N)[:, None])
    raise ValueError(f"unknown gain mode {mode!r}")
