"""Initial node features for a computation graph.

Each node row concatenates, in this fixed order:
op-type one-hot | padded output shape | in-degree one-hot | out-degree
one-hot | fractal dimension (one raw value) | sinusoidal positional encoding
of the node's topological rank.

Degree one-hot vocabularies are per graph: columns are the sorted distinct
degree values present in that graph.

The fractal column comes from one bit-parallel BFS from every node at once
(`ball_sizes`): three n x ceil(n/64) uint64 bitsets, 3 * n * ceil(n/64) * 8
bytes, plus an int32 table of ball sizes with one row per BFS level.
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


def fractal_dimensions(graph: CompGraph) -> np.ndarray:
    """Mass-distribution fractal dimension of every node, shape (n,).

    For node v: the slope of the least-squares fit of log N(v, r) against
    log r, where r ranges over the distinct undirected hop distances from v
    to reachable nodes and N(v, r) counts the other nodes within distance
    r. 0.0 when fewer than two distinct distances exist.
    """
    return np.array([_fit_slope(b) for b in ball_sizes(graph)], dtype=np.float64)


def ball_sizes(graph: CompGraph) -> list[np.ndarray]:
    """N(v, r) for r = 1, 2, ..., the eccentricity of v, for every node v:
    the number of other nodes within r undirected hops.

    One BFS runs from every node at once on bitsets: row u, bit w of
    `unreached` is set while w is farther than the current level from u.
    Rows are ordered by degree, descending, so that neighbour slot k (every
    row's k-th neighbour) is one contiguous OR over the rows with more than
    k neighbours. Distance is symmetric, so a row's popcount of new bits is
    that source's BFS level size.
    """
    n = graph.num_nodes
    nbrs = graph.undirected_neighbors
    deg = np.fromiter(map(len, nbrs), dtype=np.intp, count=n)
    order = np.argsort(-deg, kind="stable")
    row_of = np.empty(n, dtype=np.intp)
    row_of[order] = np.arange(n)
    deg = deg[order]
    flat = row_of[
        np.fromiter(
            (w for u in order for w in nbrs[u]), dtype=np.intp, count=int(deg.sum())
        )
    ]
    row_start = np.cumsum(deg) - deg
    # slot k: the k-th neighbour of each row with more than k neighbours,
    # which are the first `width` rows
    widths = np.searchsorted(-deg, -np.arange(deg[0] if n else 0), side="left")
    slots = [flat[row_start[:w] + k] for k, w in enumerate(widths.tolist())]

    words = -(-n // 64)
    diag = np.zeros((n, words), dtype=np.uint64)
    diag[np.arange(n), np.arange(n) // 64] = np.uint64(1) << (
        np.arange(n, dtype=np.uint64) % np.uint64(64)
    )
    unreached = ~diag
    frontier, nxt = diag, np.zeros_like(diag)
    # after level r, reached[u] = N(u, r)
    reached = np.zeros(n, dtype=np.int32)
    level_balls = [reached]
    while slots:
        # mode="clip" writes straight into `out`; the default buffers it
        np.take(frontier, slots[0], axis=0, out=nxt[: len(slots[0])], mode="clip")
        for idx in slots[1:]:
            np.bitwise_or(nxt[: len(idx)], frontier[idx], out=nxt[: len(idx)])
        nxt &= unreached
        unreached ^= nxt
        counts = np.bitwise_count(nxt).sum(axis=1, dtype=np.int32)
        if not counts.any():
            break
        reached = reached + counts
        level_balls.append(reached)
        frontier, nxt = nxt, frontier

    balls = np.array(level_balls)  # balls[r, u] = N(u, r)
    # N(u, r) grows strictly up to u's eccentricity and stays flat after it
    ecc = np.count_nonzero(balls < balls[-1], axis=0)
    return [
        balls[1 : e + 1, u] for e, u in zip(ecc[row_of].tolist(), row_of.tolist())
    ]


def _fit_slope(counts: np.ndarray) -> float:
    """Least-squares slope of log counts[r - 1] against log r, r >= 1;
    0.0 for fewer than two points."""
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
    fractal = fractal_dimensions(graph).reshape(-1, 1)
    rank = graph.plan.topo.rank
    pos = np.vstack(
        [positional_encoding(rank[v], cfg) for v in range(graph.num_nodes)]
    ) if graph.num_nodes else np.zeros((0, cfg.d_pos))
    return np.hstack([types, shapes, in_deg, out_deg, fractal, pos])
