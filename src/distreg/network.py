"""Graph structure, BFS distances, disruption-modified adjacency, and detour scores.

Distances are unweighted hop counts. A disruption removes every edge
incident to a region-of-interest (ROI) station, which makes the ROI
stations themselves unreachable in the disrupted graph. The detour score
is 1 - dist_natural / dist_disrupted, in [0, 1]: 0 when the path is
unchanged, and 1 on disconnection (the limit of the hop-count ratio).
`feasible_origins` applies it to every origin at once, for the feature
pipeline; its pairwise reference is in `oracles`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Disruption",
    "bfs_distance",
    "disrupted_adjacency",
    "feasible_origins",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph as a symmetric 0/1 adjacency matrix with zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        adj = adj.astype(np.int8, copy=True)
        if not np.all((adj == 0) | (adj == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero (no self loops)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        neighbors = tuple(tuple(np.nonzero(row)[0].tolist()) for row in adj)
        object.__setattr__(self, "_neighbors", neighbors)

    @property
    def n_nodes(self) -> int:
        return int(self.adjacency.shape[0])

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node]

    @classmethod
    def from_edges(cls, n_nodes: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = np.zeros((n_nodes, n_nodes), dtype=np.int8)
        for u, v in edges:
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {n_nodes} nodes")
            if u == v:
                raise ValueError(f"self edge ({u}, {v}) not allowed")
            adj[u, v] = 1
            adj[v, u] = 1
        return cls(adj)

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(iu.tolist(), ju.tolist()))


def _check_node(g: Graph, node: int, what: str = "node") -> None:
    if not (0 <= node < g.n_nodes):
        raise ValueError(f"{what} {node} out of range for graph with {g.n_nodes} nodes")


def bfs_distance(g: Graph, source: int) -> np.ndarray:
    """Hop counts from `source` to every node; unreachable nodes get inf."""
    _check_node(g, source, "source")
    dist = np.full(g.n_nodes, np.inf)
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        base = dist[u] + 1.0
        for v in g.neighbors(u):
            if dist[v] == np.inf:
                dist[v] = base
                queue.append(v)
    return dist


def disrupted_adjacency(g: Graph, roi: Sequence[int]) -> Graph:
    """Adjacency with every row and column indexed by an ROI station zeroed."""
    roi = list(roi)
    for r in roi:
        _check_node(g, r, "roi station")
    adj = g.adjacency.astype(np.int8, copy=True)
    if roi:
        adj[roi, :] = 0
        adj[:, roi] = 0
    return Graph(adj)


def feasible_origins(g: Graph, g_disrupted: Graph, destination: int, xi: float) -> np.ndarray:
    """Boolean mask over all origins: which ones keep a feasible path to `destination`.

    Vectorized extension of the pairwise `oracles.feasible`, with
    two rules for the cases the pairwise operation rejects:
    the destination itself is always feasible (no travel involved), and
    origins disconnected from the destination in the natural graph are
    infeasible (disconnected in `g_disrupted` too, so their score is NaN).
    `g_disrupted` must be a subgraph of `g` on the same nodes, as
    `disrupted_adjacency` builds it; any other graph is refused.
    """
    if not xi > 0:
        raise ValueError(f"xi must be positive, got {xi}")
    _check_node(g, destination, "destination")
    if g_disrupted.n_nodes != g.n_nodes:
        raise ValueError(
            f"disrupted graph has {g_disrupted.n_nodes} nodes, the natural graph {g.n_nodes}"
        )
    extra = np.argwhere(g_disrupted.adjacency > g.adjacency)
    if len(extra):
        u, v = extra[0].tolist()
        raise ValueError(f"disrupted graph has edge ({u}, {v}), which the natural graph lacks")
    dist_nat = bfs_distance(g, destination)
    dist_dis = bfs_distance(g_disrupted, destination)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = 1.0 - dist_nat / dist_dis
    mask = score <= xi  # NaN (both distances infinite) compares False
    mask[destination] = True
    return mask


@dataclass(frozen=True)
class Disruption:
    """Perturbation features: day index, active minute window, and ROI stations."""

    day: int
    t_start: int
    t_end: int
    roi: tuple[int, ...]

    def __post_init__(self) -> None:
        roi = tuple(int(r) for r in self.roi)
        if len(roi) == 0:
            raise ValueError("roi must be non-empty")
        if len(set(roi)) != len(roi):
            raise ValueError(f"roi has duplicate stations: {roi}")
        if any(r < 0 for r in roi):
            raise ValueError(f"roi has negative station ids: {roi}")
        if self.t_start > self.t_end:
            raise ValueError(f"t_start {self.t_start} exceeds t_end {self.t_end}")
        object.__setattr__(self, "roi", roi)
        object.__setattr__(self, "day", int(self.day))
        object.__setattr__(self, "t_start", int(self.t_start))
        object.__setattr__(self, "t_end", int(self.t_end))

    def validate_against(self, n_nodes: int, t_min: int, t_max: int) -> None:
        for r in self.roi:
            if r >= n_nodes:
                raise ValueError(f"roi station {r} out of range for {n_nodes} nodes")
        if self.t_start < t_min or self.t_end > t_max:
            raise ValueError(
                f"disruption window [{self.t_start}, {self.t_end}] outside "
                f"observation window [{t_min}, {t_max}]"
            )
