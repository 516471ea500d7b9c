"""Initial node features for a computation graph.

Each node row concatenates, in this fixed order:
op-type one-hot | padded output shape | in-degree one-hot | out-degree
one-hot | fractal dimension (one raw value) | sinusoidal positional encoding
of the node's topological rank.

Degree one-hot vocabularies are per graph: columns are the sorted distinct
degree values present in that graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CompGraph


class TypeIndexOutOfRange(Exception):
    pass


@dataclass(frozen=True)
class FeatureConfig:
    """Width and base of the sinusoidal positional encoding."""

    d_pos: int = 16
    pe_base: float = 10000.0

    def __post_init__(self):
        if self.d_pos < 2 or self.d_pos % 2 != 0:
            raise ValueError(f"d_pos must be even and >= 2, got {self.d_pos}")
        if self.pe_base <= 0:
            raise ValueError(f"pe_base must be positive, got {self.pe_base}")


def one_hot_types(graph: CompGraph) -> np.ndarray:
    """|V| x |T| binary matrix; row v has a single 1 at column op_type(v)."""
    out = np.zeros((graph.num_nodes, graph.num_op_types), dtype=np.float64)
    for node in graph.nodes:
        if not 0 <= node.op_type < graph.num_op_types:
            raise TypeIndexOutOfRange(
                f"op_type {node.op_type} outside [0, {graph.num_op_types})"
            )
        out[node.id, node.op_type] = 1.0
    return out


def degree_one_hots(graph: CompGraph) -> tuple[np.ndarray, np.ndarray]:
    """One-hot encodings of per-node in-degree and out-degree values.

    Column j of each matrix corresponds to the j-th smallest distinct degree
    value occurring in this graph.
    """
    return (
        _one_hot_values([len(p) for p in graph.neighbors.pred]),
        _one_hot_values([len(s) for s in graph.neighbors.succ]),
    )


def _one_hot_values(values: list[int]) -> np.ndarray:
    distinct = sorted(set(values))
    col = {d: j for j, d in enumerate(distinct)}
    out = np.zeros((len(values), len(distinct)), dtype=np.float64)
    for i, v in enumerate(values):
        out[i, col[v]] = 1.0
    return out


def _ball_sizes(graph: CompGraph, v: int) -> np.ndarray:
    """N(v, r) for r = 1, 2, ..., the eccentricity of v: the number of other
    nodes within r undirected hops, from one level-by-level BFS."""
    nbrs = graph.undirected_neighbors
    seen = bytearray(graph.num_nodes)
    seen[v] = 1
    frontier = [v]
    level_sizes = []
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        if nxt:
            level_sizes.append(len(nxt))
        frontier = nxt
    return np.cumsum(level_sizes, dtype=np.int64)


def fractal_dimension(graph: CompGraph, v: int) -> float:
    """Mass-distribution fractal dimension of node v.

    Slope of the least-squares fit of log N(v, r) against log r, where r
    ranges over the distinct undirected hop distances from v to reachable
    nodes and N(v, r) counts nodes within distance r. Returns 0.0 when
    fewer than two distinct distances exist.
    """
    counts = _ball_sizes(graph, v)
    # BFS levels are contiguous, so the distinct distances are 1..len(counts)
    if len(counts) < 2:
        return 0.0
    x = np.log(np.arange(1, len(counts) + 1, dtype=np.float64))
    y = np.log(counts.astype(np.float64))
    if len(counts) == 2:
        # two-point fit degenerates to the exact slope
        return float((y[1] - y[0]) / (x[1] - x[0]))
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / np.dot(xc, xc))


def positional_encoding(rank: int, cfg: FeatureConfig) -> np.ndarray:
    """Sinusoidal encoding of a topological position.

    Entry 2i is sin(pos / base^(2i/d_pos)) and entry 2i+1 the matching cos.
    """
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    out = np.empty(cfg.d_pos, dtype=np.float64)
    for i in range(cfg.d_pos // 2):
        angle = rank / cfg.pe_base ** (2 * i / cfg.d_pos)
        out[2 * i] = np.sin(angle)
        out[2 * i + 1] = np.cos(angle)
    return out


def shape_features(graph: CompGraph) -> np.ndarray:
    """Output shapes right-padded with zeros to the longest shape in the graph."""
    width = max((len(n.output_shape) for n in graph.nodes), default=0)
    out = np.zeros((graph.num_nodes, width), dtype=np.float64)
    for node in graph.nodes:
        for j, s in enumerate(node.output_shape):
            out[node.id, j] = float(s)
    return out


def build_features(graph: CompGraph, cfg: FeatureConfig) -> np.ndarray:
    """Assemble the full per-node feature matrix in the fixed segment order."""
    types = one_hot_types(graph)
    shapes = shape_features(graph)
    in_deg, out_deg = degree_one_hots(graph)
    fractal = np.array(
        [[fractal_dimension(graph, v)] for v in range(graph.num_nodes)],
        dtype=np.float64,
    ).reshape(graph.num_nodes, 1)
    rank = graph.plan.topo.rank
    pos = np.vstack(
        [positional_encoding(rank[v], cfg) for v in range(graph.num_nodes)]
    ) if graph.num_nodes else np.zeros((0, cfg.d_pos))
    return np.hstack([types, shapes, in_deg, out_deg, fractal, pos])
