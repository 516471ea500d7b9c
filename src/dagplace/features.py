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
Every column comes from array passes that are bit for bit a per-node loop.
"""

from __future__ import annotations

import math
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
        if not 0 < self.pe_base < math.inf:
            raise ValueError(f"pe_base must be positive and finite, got {self.pe_base}")


def one_hot_types(graph: CompGraph) -> np.ndarray:
    """|V| x |T| binary matrix; row v has a single 1 at column op_type(v)."""
    ops, t = graph.op_types, graph.num_op_types
    bad = (ops < 0) | (ops >= t)
    if bad.any():
        raise TypeIndexOutOfRange(f"op_type {ops[bad][0]} outside [0, {t})")
    out = np.zeros((graph.num_nodes, t), dtype=np.float64)
    out[np.arange(graph.num_nodes), ops] = 1.0
    return out


def degree_one_hots(graph: CompGraph) -> tuple[np.ndarray, np.ndarray]:
    """One-hot encodings of per-node in-degree and out-degree values.

    Column j of each matrix corresponds to the j-th smallest distinct degree
    value occurring in this graph.
    """
    return _one_hot_lengths(graph.pred.counts), _one_hot_lengths(graph.succ.counts)


def _one_hot_lengths(lengths: np.ndarray) -> np.ndarray:
    present = np.bincount(lengths) > 0
    col = present.cumsum() - 1  # a value's rank among the distinct values
    return np.eye(np.count_nonzero(present))[col[lengths]]


def fractal_dimensions(graph: CompGraph) -> np.ndarray:
    """Mass-distribution fractal dimension of every node, shape (n,).

    For node v: the slope of the least-squares fit of log N(v, r) against
    log r, where r ranges over the distinct undirected hop distances from v
    to reachable nodes and N(v, r) counts the other nodes within distance
    r. 0.0 when fewer than two distinct distances exist.

    The nodes of one eccentricity e share x = log(1..e) and are fitted at
    once from a [k, e] table of log ball sizes. Each row's mean and its dot
    product with the centred x sum in a one-node fit's order, so the slopes
    are bit for bit a per-node loop's; one `yc @ xc` product would not be.
    """
    balls, ecc = ball_sizes(graph)
    dims = np.zeros(graph.num_nodes, dtype=np.float64)
    for e in np.unique(ecc[ecc > 1]).tolist():
        nodes = np.flatnonzero(ecc == e)
        x = np.log(np.arange(1, e + 1, dtype=np.float64))
        y = np.log(balls[1 : e + 1, nodes].T.astype(np.float64, order="C"))
        if e == 2:  # two-point fit degenerates to the exact slope
            dims[nodes] = (y[:, 1] - y[:, 0]) / (x[1] - x[0])
            continue
        xc = x - x.mean()
        yc = y - y.mean(axis=1, keepdims=True)
        dims[nodes] = np.array([np.dot(xc, row) for row in yc]) / np.dot(xc, xc)
    return dims


def ball_sizes(graph: CompGraph) -> tuple[np.ndarray, np.ndarray]:
    """`balls[r, v]` = N(v, r), the number of other nodes within r undirected
    hops of v, for r from 0 to the largest eccentricity, and `ecc[v]`, the
    eccentricity of v: N(v, r) grows strictly up to r = ecc[v], then stays.

    One BFS runs from every node at once on bitsets: row u, bit w of
    `unreached` is set while w is farther than the current level from u.
    Rows are ordered by degree, descending, so that neighbour slot k (every
    row's k-th neighbour) is one contiguous OR over the rows with more than
    k neighbours. Distance is symmetric, so a row's popcount of new bits is
    that source's BFS level size.
    """
    n = graph.num_nodes
    nbrs = graph.undirected
    deg = nbrs.counts
    order = (-deg).argsort(kind="stable")
    row_of = np.empty(n, dtype=np.intp)
    row_of[order] = np.arange(n)
    deg, starts = deg[order], nbrs.offsets[order]
    # slot k: the k-th neighbour of each row with more than k neighbours,
    # which are the first `width` rows
    widths = (-deg).searchsorted(-np.arange(deg[0] if n else 0), side="left")
    slots = [row_of[nbrs.targets[starts[:w] + k]] for k, w in enumerate(widths.tolist())]

    words = -(-n // 64)
    diag = np.zeros((n, words), dtype=np.uint64)
    diag[np.arange(n), np.arange(n) // 64] = np.uint64(1) << (
        np.arange(n, dtype=np.uint64) % np.uint64(64)
    )
    unreached = ~diag
    frontier, nxt = diag, np.zeros_like(diag)
    # after level r, reached[v] = N(v, r), in node order
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
        reached = reached + counts[row_of]
        level_balls.append(reached)
        frontier, nxt = nxt, frontier

    balls = np.array(level_balls)  # balls[r, v] = N(v, r)
    return balls, np.count_nonzero(balls < balls[-1], axis=0)


def positional_encodings(ranks, cfg: FeatureConfig) -> np.ndarray:
    """Sinusoidal encodings of topological positions, one row per rank.

    Entry 2i of a row is sin(rank / base^(2i/d_pos)) and entry 2i+1 the
    matching cos.
    """
    ranks = np.asarray(ranks, dtype=np.float64).reshape(-1, 1)
    if (ranks < 0).any():
        raise ValueError(f"rank must be non-negative, got {int(ranks.min())}")
    angle = ranks / [cfg.pe_base ** (2 * i / cfg.d_pos) for i in range(cfg.d_pos // 2)]
    return np.stack([np.sin(angle), np.cos(angle)], axis=2).reshape(len(ranks), cfg.d_pos)


def shape_features(graph: CompGraph) -> np.ndarray:
    """Output shapes right-padded with zeros to the longest shape in the graph."""
    starts = graph.shape_starts
    lens = starts[1:] - starts[:-1]
    out = np.zeros((graph.num_nodes, lens.max(initial=0)), dtype=np.float64)
    rows = np.arange(graph.num_nodes).repeat(lens)
    cols = np.arange(len(rows)) - starts[:-1].repeat(lens)
    out[rows, cols] = graph.shape_dims.astype(np.float64)
    return out


def build_features(graph: CompGraph, cfg: FeatureConfig) -> np.ndarray:
    """Assemble the full per-node feature matrix in the fixed segment order."""
    types = one_hot_types(graph)
    shapes = shape_features(graph)
    in_deg, out_deg = degree_one_hots(graph)
    fractal = fractal_dimensions(graph).reshape(-1, 1)
    pos = positional_encodings(graph.topo.rank, cfg)
    return np.hstack([types, shapes, in_deg, out_deg, fractal, pos])
