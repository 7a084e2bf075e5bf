"""Communication graph, Laplacian consensus operator, and sensor gains.

Sensors are numbered 0..N-1 internally. The "edges:" descriptor accepts the
1-based sensor labels used in config files ("edges:1-2,2-3") and shifts them
down by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpecError, DisconnectedError, NotContractiveError


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n_sensors vertices, no self-loops.

    n_sensors = 1 with an empty edge set is the permitted degenerate case
    (a single sensor running the centralized iteration).
    """

    n_sensors: int
    edges: frozenset

    def __post_init__(self):
        if self.n_sensors < 1:
            raise BadSpecError("graph needs at least one vertex")
        normalized = set()
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise BadSpecError(f"self-loop on vertex {i}")
            if not (0 <= i < self.n_sensors and 0 <= j < self.n_sensors):
                raise BadSpecError(f"edge {edge} out of range")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))
        if not self._connected():
            raise DisconnectedError(
                f"edge set does not connect all {self.n_sensors} vertices"
            )

    def _connected(self) -> bool:
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(self.n_sensors)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == self.n_sensors

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(
            sorted(b if a == i else a for a, b in self.edges if i in (a, b))
        )

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_sensors, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def laplacian(self) -> np.ndarray:
        L = np.diag(self.degrees().astype(float))
        for i, j in self.edges:
            L[i, j] = L[j, i] = -1.0
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
    if not w > 0.0:  # NaN fails too
        raise ValueError(f"consensus weight must be > 0, got {w}")
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
