"""Graph-convolutional node encoder.

Embeddings come from stacked graph convolutions over the self-loop
normalized adjacency: each layer computes relu(norm @ H @ W), with the
final layer activated as well. The adjacency is an edge list and `norm`
a sparse operator, so a layer costs O(|V| + |E|) times the width. An
optional two-layer input projection maps raw feature rows to the hidden
width before the first convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import SparseMatrix, Tape, Tensor, parameter
from .nn import Mlp, glorot, init_mlp, keep_mask
from .partition import PooledGraph


@dataclass
class GcnParams:
    """One weight matrix per convolution layer (no bias, as in plain GCN)."""

    layers: list[Tensor]

    def parameters(self) -> list[Tensor]:
        return list(self.layers)


def init_gcn(rng: np.random.Generator, widths: list[int]) -> GcnParams:
    return GcnParams(
        [parameter(glorot(rng, widths[i], widths[i + 1])) for i in range(len(widths) - 1)]
    )


def init_projection(rng: np.random.Generator, d_in: int, hidden: int, layers: int) -> Mlp:
    return init_mlp(rng, [d_in] + [hidden] * layers)


def normalize_adjacency(level: PooledGraph) -> SparseMatrix:
    """Self-loop normalized adjacency D^{-1/2} (A + I) D^{-1/2}, sparse.

    Degrees are row sums of A + I (out-degree + 1), applied to the directed
    adjacency as-is, so D_ii >= 1 always holds. Edge (u, v) weighs
    D_uu^{-1/2} D_vv^{-1/2} and the self-loops form the diagonal 1 / D_ii.
    Pooled levels may be cyclic, which is fine here.
    """
    degree = np.bincount(level.src, minlength=level.num_nodes) + 1.0
    d_inv_sqrt = 1.0 / np.sqrt(degree)
    return SparseMatrix(
        d_inv_sqrt * d_inv_sqrt,
        level.src,
        level.dst,
        d_inv_sqrt[level.src] * d_inv_sqrt[level.dst],
    )


def encode(
    tape: Tape,
    x: Tensor,
    norm: SparseMatrix,
    params: GcnParams,
    *,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Z = relu(norm @ ... relu(norm @ X @ W_0) ... @ W_{L-1}).

    Dropout (training only: pass a generator) follows each layer's relu;
    the product with W, the relu and the mask are one tape entry.
    """
    h = x
    for w in params.layers:
        keep = keep_mask((h.shape[0], w.shape[1]), dropout, rng)
        h = tape.dense(tape.spmm(norm, h), w, relu=True, keep=keep, rate=dropout)
    return h
