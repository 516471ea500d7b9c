"""Graph-convolutional node encoder.

Embeddings come from stacked graph convolutions over the self-loop
normalized adjacency: each layer computes relu(norm @ H @ W), with the
final layer activated as well. An optional two-layer input projection maps
raw feature rows to the hidden width before the first convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tape, Tensor, parameter
from .graph import CompGraph
from .nn import Mlp, dropout_mask, glorot, init_mlp


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


def normalize_adjacency(graph: CompGraph | np.ndarray) -> np.ndarray:
    """Self-loop normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    Degrees are row sums of A + I, applied to the directed adjacency as-is,
    so D_ii >= 1 always holds. Accepts a graph or a dense 0/1 matrix
    (pooled graphs may be cyclic, which is fine here).
    """
    a = graph.adjacency() if isinstance(graph, CompGraph) else np.asarray(graph, dtype=np.float64)
    a_hat = a + np.eye(a.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d_inv_sqrt[:, None] * a_hat * d_inv_sqrt[None, :]


def encode(
    tape: Tape,
    x: Tensor,
    norm: np.ndarray,
    params: GcnParams,
    *,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Z = relu(norm @ ... relu(norm @ X @ W_0) ... @ W_{L-1}).

    Dropout (training only: pass a generator) follows each layer.
    """
    norm_t = Tensor(norm)
    h = x
    for w in params.layers:
        h = tape.relu(tape.matmul(tape.matmul(norm_t, h), w))
        h = dropout_mask(tape, h, dropout, rng)
    return h
